"""Golden corpus: the stdout of every subcommand, held byte for byte.

Each invocation runs `su2rep.cli.main` in-process with no Groebner cache and
compares the sha256 of its stdout with a digest taken before the renderers,
the anticommutative algebra and the elimination were each folded into one
implementation (the `CAP_GRID` digests: before the verify battery became one
table; the genus-16 pairing digests: before the pairing path computed one
value per degree and the JSON writer replaced `json.dumps`; the k=7 ring
digests: before Hilbert series were reduced over Z[t]; the genus-12 and -14
pairing digests: before each JSON pairing entry was written by one format
string).  The text and json digests of `e-basis --m 5` and `--m 6` were taken
again when the capped independence check began to report a skipped record
instead of none.  A refactor that changes a single output byte fails here.

To print the digest table for the current code (from the repository root):

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from su2rep.cli import main
from su2rep.groebner import CACHE_ENV_VAR

FORMATS = ("text", "json", "latex")

# (genus, --unsafe-genus-cap): every capped check skipped at a user cap;
# restriction stopped at its hard cap 3; brute-force prim run at its hard cap
# 5 while e-independence and top-identity stop at 4; brute-force prim skipped
CAP_GRID = ((3, 2), (4, 4), (5, 5), (6, 6))


def _invocations() -> list[tuple[str, ...]]:
    base: list[tuple[str, ...]] = []
    for g in range(2, 6):
        for route in ("closed", "structural"):
            base.append(("betti", "--genus", str(g), "--route", route))
            base.append(("eq-series", "--genus", str(g), "--route", route))
        base.append(("pairing", "--genus", str(g)))
        base.append(("verify", "--genus", str(g)))
    base += [("ring", "--k", str(k)) for k in range(7)]
    base += [("e-basis", "--m", str(m)) for m in range(7)]
    base += [
        ("verify", "--genus", str(g), "--unsafe-genus-cap", str(cap))
        for g, cap in CAP_GRID
    ]
    # the pairing matrices the benchmark renders, up to the largest (3280 entries)
    base += [("pairing", "--genus", str(g)) for g in (12, 14, 16)]
    # the largest ring the benchmark prints (Hilbert numerator of degree 38)
    base.append(("ring", "--k", "7", "--order", "120"))
    return [args + ("--format", fmt) for args in base for fmt in FORMATS]


INVOCATIONS = _invocations()

# sha256 of stdout, keyed by the space-joined arguments
GOLDEN: dict[str, str] = {
    "betti --genus 2 --route closed --format text": "bcc13b7debef5125ba7ee3524e682a6046f3f3aa5f282380eea2eab38b613eda",
    "betti --genus 2 --route closed --format json": "7148b8090ed7b6b0ae04a075207c6aeef8758a01daf4f943081c5f1a53c05c31",
    "betti --genus 2 --route closed --format latex": "12c9f65aac75d49c1f5845a06e071f9fcd4f15d592b5c818a3c538d8fb0edc26",
    "eq-series --genus 2 --route closed --format text": "0c9212a1f12e7e7a307c0af619cfa9fa99bb7df92704c513cece9487fa4800c3",
    "eq-series --genus 2 --route closed --format json": "6136bcfcce1cec156c177c9480e559b4a9f08ae483037b38948a5f54b02d4315",
    "eq-series --genus 2 --route closed --format latex": "320d7c7fbb975b1d1669a1d76d8789f64c6c5c76eddc2aba5f86a0b437c2b48f",
    "betti --genus 2 --route structural --format text": "fad4a1b9a2b6d18915f4d366fb5461148ffafe9a8398b38001cbab497a20630f",
    "betti --genus 2 --route structural --format json": "11efbf88b4baea82123b1cab9856ba54e13d4a1f4018e2613d7893d5eaf4760d",
    "betti --genus 2 --route structural --format latex": "12c9f65aac75d49c1f5845a06e071f9fcd4f15d592b5c818a3c538d8fb0edc26",
    "eq-series --genus 2 --route structural --format text": "947df42e2e5951252d6be0e223be144c1558efbefb5c5984ff78238c3e2bdd46",
    "eq-series --genus 2 --route structural --format json": "bc16ac5c569fe84803e596aeff25bc9731c7dd07047dfa27f6cc752f903c8479",
    "eq-series --genus 2 --route structural --format latex": "320d7c7fbb975b1d1669a1d76d8789f64c6c5c76eddc2aba5f86a0b437c2b48f",
    "pairing --genus 2 --format text": "a2bc77b73ab558219b1d78f3be1517a1afa9d4f9d12bdc5c1ece09a7a9a74137",
    "pairing --genus 2 --format json": "c733f4ca78a1e6965fd1e91225aa1371c3270691d43b4a08cb32f093752fd96a",
    "pairing --genus 2 --format latex": "bdce738a1aa7b5c544eafe9eb088806e2b00ac26b8c0037636daa8f4441068b8",
    "verify --genus 2 --format text": "838e1d324c68cdaa395274e8d8f6293aebeb9d0e3d7b16562f7e4da39f5a5527",
    "verify --genus 2 --format json": "f6867abf92f3eb72df79fc3804282742ddf9dd9139c9d49be293a1d20910500e",
    "verify --genus 2 --format latex": "056f5365506efd5b1abbb66f6fc64c0606867ee7a0960fe33035876e4344b9bd",
    "betti --genus 3 --route closed --format text": "a03e509dfe0015f1b112a771eb3142f021936b20457579447646b7a6c2fcc83a",
    "betti --genus 3 --route closed --format json": "dfde1b7c3d0c5eea99167218b7f023beaaacdc5577e6dda92c6e0adccb5d7a83",
    "betti --genus 3 --route closed --format latex": "23db5dc4f20b3db4a759a30ece2159ba0cc514e6534613f55c1ea3675a661417",
    "eq-series --genus 3 --route closed --format text": "44377a6989a7e4dd89a90be0644fdddc81ca94fbb50307e6bd66dfaaa10deb3f",
    "eq-series --genus 3 --route closed --format json": "f3b5cfbe6c980ab9560f5ca8a4385d7fba83a0b21b5eae67e4ec2f464ac5cb5e",
    "eq-series --genus 3 --route closed --format latex": "f391f9677b7982832fb76b16adc6ce6db69fa886522e74f130a5525af2bcf976",
    "betti --genus 3 --route structural --format text": "e2072251880ab6d042f8944027aa6539ad2d08e05cab11b1a21e08679624312a",
    "betti --genus 3 --route structural --format json": "98b6b12dbf6f853dd10472955481adbd47dd0dc186e06065accd7fe97c70fd1c",
    "betti --genus 3 --route structural --format latex": "23db5dc4f20b3db4a759a30ece2159ba0cc514e6534613f55c1ea3675a661417",
    "eq-series --genus 3 --route structural --format text": "c2ee2059d7af3dfb3380e4508047719907f938a16f4d152a9de270ed4961ff14",
    "eq-series --genus 3 --route structural --format json": "f44a95e35d41491e66c7d1f1fa9876fb99ba3587d1c392cc139fa6faaf5a6d7a",
    "eq-series --genus 3 --route structural --format latex": "f391f9677b7982832fb76b16adc6ce6db69fa886522e74f130a5525af2bcf976",
    "pairing --genus 3 --format text": "40ca1feddc4faa6e034109c7ba0aeb41d67c116e9d24aa9a9b5f2001f02552ad",
    "pairing --genus 3 --format json": "25be4954f382173037d1a9313eba455e0ae810268de19c459c755a48a00be6e9",
    "pairing --genus 3 --format latex": "be4cd56e839b67c03f75cc6baf12c67a88ddb68f98f2838c62c8205c4caf8095",
    "verify --genus 3 --format text": "6757bdd9733b2c9f5d122809ea9651fb97ae98ae8023477d20cef7c3354f7d87",
    "verify --genus 3 --format json": "70b1e239ff2c2beeb86b8b44b371d5f133e96c8b0d86c956abb5020eaf99be18",
    "verify --genus 3 --format latex": "21efe344ec9c676717b29d0f3bf53aa7ad55003d784d24a8743c29b7f14bd5ba",
    "betti --genus 4 --route closed --format text": "83fb0b41246d40dd1fe1d6d6fd457115bc3a5a537bc33423049b0459a1f44b57",
    "betti --genus 4 --route closed --format json": "7b29bf305adaee5d1e4a5807a55868effe2b795295cde52b0d1028a6a2b38182",
    "betti --genus 4 --route closed --format latex": "3a180a17257c46d197944870f9aa71b34d8a00671fdcb1971c12f3305f67006e",
    "eq-series --genus 4 --route closed --format text": "4ace60f3ff95dfda328e94408701613ce2b179ddddc4030a99a9d0275f64303e",
    "eq-series --genus 4 --route closed --format json": "628d821da48f6a711e692358410327b0b5dc04caf5f7ec61afacc31a49fb422c",
    "eq-series --genus 4 --route closed --format latex": "1fd3bce15ec928de1a605d96df59547889de2589b577786ea7f14813d927d161",
    "betti --genus 4 --route structural --format text": "28ae263a6aa2c3de00d15ca4d7e7de7e4dd0310b5716f1bdbb07cebd6df0bb35",
    "betti --genus 4 --route structural --format json": "6e4a88a0eddb5dfe07bc27af62aac6f46c3052b8593693a5d537a8682970ac2f",
    "betti --genus 4 --route structural --format latex": "3a180a17257c46d197944870f9aa71b34d8a00671fdcb1971c12f3305f67006e",
    "eq-series --genus 4 --route structural --format text": "d72a74bb1f3d0f90a2576030a58d6ab1c122b77ac1c386b8e2e2a7dc6c2c1f71",
    "eq-series --genus 4 --route structural --format json": "668267b222e62260bd801099c3d309a84c893d87108ee6597b8a40ffaa525a0a",
    "eq-series --genus 4 --route structural --format latex": "1fd3bce15ec928de1a605d96df59547889de2589b577786ea7f14813d927d161",
    "pairing --genus 4 --format text": "ab564e54da39d10536f780504b595d29ca5b667e52f234ce0bb6ad81e599d75b",
    "pairing --genus 4 --format json": "21d89b44c54d72f842096ad9463dafbcfe161336786ffcb3b94b134947910cef",
    "pairing --genus 4 --format latex": "accaf06f81a567af5b8e9795e99bbb8ffaeafb0b31ca46a74f1745198e7c302f",
    "verify --genus 4 --format text": "8fca860e26836efafb2cf4511106615c33fb3604f56e1ca38250cbaa24fbdd60",
    "verify --genus 4 --format json": "353519d13d976be89d6fe1210e69b49eeec7995c84bc5f98b9fdad61c1c8a1a8",
    "verify --genus 4 --format latex": "36148c2c0e82cab74924d4407923f788061bd0b8d0f6fe8b267c38b0b13899b1",
    "betti --genus 5 --route closed --format text": "1eee9c37d5f625cb6557631078f90f5f6b80fc957488ffa20a4de32700c1bdb6",
    "betti --genus 5 --route closed --format json": "bda65b309082eed363c80ce70bec4ea1e55a25de32ef748573ed3e5e20b91ac1",
    "betti --genus 5 --route closed --format latex": "3858b40f3bcbef94aefaf9f979c980f361ee3b258120f732c8729d037421c438",
    "eq-series --genus 5 --route closed --format text": "afa5d9b76c58ac4feb658f61ca5ccf1609e0ca3cd0a9fca9cc63159352cfcc95",
    "eq-series --genus 5 --route closed --format json": "e51aecab364fc2dc0af4fa0080f2b6d7d303862dcb2dcc121200903cc328bc8f",
    "eq-series --genus 5 --route closed --format latex": "a2142d4be31c8e664906dbe457bb4429f358b6b42aa7859ea598fc5012daaa6a",
    "betti --genus 5 --route structural --format text": "2801f1a6032a236f064aed7a07de2ca049155a0faf61ec0c0bc555e65e529bfc",
    "betti --genus 5 --route structural --format json": "37851a45e578ca2cfe8b5cde556c54a7de0603c5893510a24c10e893b37a9fb4",
    "betti --genus 5 --route structural --format latex": "3858b40f3bcbef94aefaf9f979c980f361ee3b258120f732c8729d037421c438",
    "eq-series --genus 5 --route structural --format text": "e8a47d963f9c72de7fcfa8c910565a3571f4da547a1aee1ada38ee4c9be774d0",
    "eq-series --genus 5 --route structural --format json": "21ce4c5a50b69c43b6e9c0f380f87b3e52a0f5f289110a0af465d51063463e51",
    "eq-series --genus 5 --route structural --format latex": "a2142d4be31c8e664906dbe457bb4429f358b6b42aa7859ea598fc5012daaa6a",
    "pairing --genus 5 --format text": "776660eadbbb99183154e42de7b5f691bbd2415fe4e68cc8f922942f8116580c",
    "pairing --genus 5 --format json": "b9f32d5f25d3cf6cb96b1f4929bc67344af450630a01bfc936d46bc5959f12a2",
    "pairing --genus 5 --format latex": "7cf2ef7ebbbf1fc5ccb066e2d162f7805413f31f03fb0bd778f39dff56172e14",
    "verify --genus 5 --format text": "e42087ab0bb93bfa9676a4af7537d19e80ef0cb2aa494238a634d78c0771e9d3",
    "verify --genus 5 --format json": "459cbe9a605c796c9aa097927e2e9a00603652259930527c625b5b14aae5461c",
    "verify --genus 5 --format latex": "627cf4514b09d497213fd7609a4a46d03410278f64cd4b26a94a0227dac036ab",
    "ring --k 0 --format text": "b27ebbf2ff4ab8518376c557d5724c32229a5342c396fe06f3ff700c3f33759c",
    "ring --k 0 --format json": "a918991102759411772bca252416c21a47daca111515ef0bf12ae794fa656a23",
    "ring --k 0 --format latex": "3072ac8e920c9f1585b774b32bf3ed1d46bf7815422880cd3662c486991ec317",
    "ring --k 1 --format text": "616a1c1d986cda43db509bb9df9519d9c7f6303d615ddd5756b1145167bb0d0d",
    "ring --k 1 --format json": "3d63aef3dfb29b365ce30b97078e2ba4592a8c2c667926a9d4708200f3b16fa1",
    "ring --k 1 --format latex": "af34f9bcd8e9d8e1d7c06dcdf9ba62b54bafe47d37539bf7c87fa2e466fb0709",
    "ring --k 2 --format text": "212b2a76b93e6e749b89511a79758146d8915a98cd974091c58b1c2e1cc89868",
    "ring --k 2 --format json": "c1c9422cb61dd3b2244550cf8c76cc1838ebb0cc5ea7cad6219ff38243ca1f44",
    "ring --k 2 --format latex": "69e3fc9175f85789a1063f5cea041ae0b0543b8d1f3109e7bb248634edacdd69",
    "ring --k 3 --format text": "c89eb247be8a5a87471e30ad202d9051c98527c511055cb78a0ff4eb11532a18",
    "ring --k 3 --format json": "8cf7e184d3ab8202e7fbbd4bcf8b5618f2781b5f9b52cbe4e01678bc8a7d8131",
    "ring --k 3 --format latex": "497557270d880308d6e21d9149ca7f9365858771652dabc2c244de574a21cf52",
    "ring --k 4 --format text": "ee77d71061af067480224e4fd6ca49af66428af1c766d307c9140220b7a22861",
    "ring --k 4 --format json": "988aa208018618099073dc5b6251efce15781e0dada8f9daf65a8f22a72f2b03",
    "ring --k 4 --format latex": "f8e36b42c9b3b9cc562ffd187c4e7c0f59462455bebd6ebf2343ab935cad342a",
    "ring --k 5 --format text": "98e3ee8b97c6670235b82cb3e5dad55e2017f30bd73ce27a3a60a26b6ad2e367",
    "ring --k 5 --format json": "aac13059abdea2c598d05cc7686bdd69dc8a18204747288b275d3e614dd72915",
    "ring --k 5 --format latex": "9e5b16fc2cb4bfe3cdc85b32d59154e2b81d1e7a32faccc4a1f19c35596016fd",
    "ring --k 6 --format text": "aa3127c3d0528573c10f66cd0440c2812364c8ca60c11d754f46ce8173e74e98",
    "ring --k 6 --format json": "359a1baa1abd6646f2978d2ecc0753462f46695e0b58382b6bff3168647ef310",
    "ring --k 6 --format latex": "f6bdc9759a9c368d92c4306183d2687a9cf0137e0e5fd07105d981059ac65213",
    "e-basis --m 0 --format text": "e360f57a7a3f9d1119ae1a81004ed6d618d90ee98d55376e78e1dbdb686bfb9f",
    "e-basis --m 0 --format json": "01a939a9464ad41e888e1a4e660704e01d52e2e42049823e64ed6d8ea8d188b2",
    "e-basis --m 0 --format latex": "3c0dd7faa8b7537b89f4d30199d9729e5de96d4778d752e67c51e213379ddbca",
    "e-basis --m 1 --format text": "f815ac13d4972d7e12121e38da84e54363744e27a1038740e13e587474bd8ac6",
    "e-basis --m 1 --format json": "48d9787af5b5bb4c91789aa509afbd8171bd4d01b6ba4a9c5ab6a33957541da9",
    "e-basis --m 1 --format latex": "095f8e3a04dc6185b361c09c2ffe6f6129522cf9b86664b9ba167d528f16775e",
    "e-basis --m 2 --format text": "06166e117e82f98f60a5e007351a22cc5833cf64629ed23178b7159ca3d19d3d",
    "e-basis --m 2 --format json": "bf93d3f36ea86628150659c6de15bc41a8c7900cbecd05f3dcdbb56d2bb03537",
    "e-basis --m 2 --format latex": "333ff673888388a0374f9ca531646172bfa676398561744dec03bd4bd71bd58d",
    "e-basis --m 3 --format text": "cb93341d0424eafb659e34674096f43a1cf286acfe67c06ba781ae380ab72005",
    "e-basis --m 3 --format json": "d8094ad93f62242a3ad485201543cd50be2b7a235b8536be0497c12f6939bf85",
    "e-basis --m 3 --format latex": "6324ca9869ff5eb2731629578e7089978f8bc3b176cc7c01ea178a1c719e2282",
    "e-basis --m 4 --format text": "43329829052cd97a0721b957a39230c5251a93c08dcb9894312f6c0a648e0539",
    "e-basis --m 4 --format json": "35bf25e2cf5becd9cabd57a6e69e941b63a74bf0ad09b90852d316f3ccc25956",
    "e-basis --m 4 --format latex": "bcfd2fced42b3bf5fd8aea254ba3c1f64d301a4a6754d8d619afdc05486648c5",
    "e-basis --m 5 --format text": "16d0c3b365a4cd5a45faa5befcdf0c717acf94917ab947668d31972123f1944e",
    "e-basis --m 5 --format json": "aecc0931e395e89469825a2a2a74ac3b4d6a398ca13738793ba0b05e1824f451",
    "e-basis --m 5 --format latex": "fe748d4c8d3b5b63c027047e97e5a499826266ed4b898c306d20b4a7f90f4486",
    "e-basis --m 6 --format text": "a6b070baeeba690d3b818f5089328e4ae76ecb34193304bb893e534f7cf24f59",
    "e-basis --m 6 --format json": "9503dee7ab8d366a31749144acc8d10f6de7894fa22fd07c56e83a5338c7ce97",
    "e-basis --m 6 --format latex": "4f573852c1b1aef4220c6e67c983593f785cf3795beb57974b12e6c3b8eb114d",
    "verify --genus 3 --unsafe-genus-cap 2 --format text": "eba8cfb685b92a412f9cb1a5977b4579e8985029da5a5b127f1a99f235be5987",
    "verify --genus 3 --unsafe-genus-cap 2 --format json": "bf63272e3d500cc71ab239823564fd76f95eda3ab62e7a8ac34c740b5776a4e7",
    "verify --genus 3 --unsafe-genus-cap 2 --format latex": "c499eb2c9a01d88b01c92c9e35e2c0a3ec439b41dcc399c071a200ba27754e78",
    "verify --genus 4 --unsafe-genus-cap 4 --format text": "8fca860e26836efafb2cf4511106615c33fb3604f56e1ca38250cbaa24fbdd60",
    "verify --genus 4 --unsafe-genus-cap 4 --format json": "353519d13d976be89d6fe1210e69b49eeec7995c84bc5f98b9fdad61c1c8a1a8",
    "verify --genus 4 --unsafe-genus-cap 4 --format latex": "36148c2c0e82cab74924d4407923f788061bd0b8d0f6fe8b267c38b0b13899b1",
    "verify --genus 5 --unsafe-genus-cap 5 --format text": "a983093b0412a7fe646ae6292375ab9709248b56f02e1656a52f4097848ad6e4",
    "verify --genus 5 --unsafe-genus-cap 5 --format json": "cd48b458ebab4a2ec7859b93acdbbf4423e3bdc9e9858b0919f0ff0fc73ffc28",
    "verify --genus 5 --unsafe-genus-cap 5 --format latex": "624378d783c57834c58bfff91f3c2ca76926baefd45daa23b85653a93b317cb3",
    "verify --genus 6 --unsafe-genus-cap 6 --format text": "3f17f035494d4f16de9ec2ae2cac978414a142e93fe948f7dd8d47358f47b392",
    "verify --genus 6 --unsafe-genus-cap 6 --format json": "d078eb20a13a4effebb3feac2468e1952ca479ad2de1a0d0b1a7e4db939608eb",
    "verify --genus 6 --unsafe-genus-cap 6 --format latex": "c5c0740650f5c8ae1bef17ed040d04b7e53ea353b18591be3002a7aa683aab85",
    "pairing --genus 12 --format text": "e9442568c4f2ec2fefe38db225c7fa55f84239728c65a1479b4b0c20615c0d11",
    "pairing --genus 12 --format json": "1ad43170d60ae03c534e4b7801401cf48934f11500393b0a372d7da8bec5b7a7",
    "pairing --genus 12 --format latex": "dbca05e2bd510773fe8cf6200f0c25383a3ccc805fbb7427363a8d15e7f859ff",
    "pairing --genus 14 --format text": "16f3e0c7553e939b97a7d8a9dcf12d28d2c314489cd1e2b25b65d4aafd0864e6",
    "pairing --genus 14 --format json": "c07db8bb2a32c3cc26ce9749eec2db1726ba06271138f80b9bbbcdbbed3850f2",
    "pairing --genus 14 --format latex": "2b6cca73498c306434b4b3e9eb9cb21b4814d3eddc975c574b2e043994681595",
    "pairing --genus 16 --format text": "9603acee4f76364f715b72e3d44cbc29474f775f7f9755e3a6773c990d1078a1",
    "pairing --genus 16 --format json": "3ca94114cebab9f8d20e8dacdba1b76586bb32d8e037b83c9dd30c330d1a8e24",
    "pairing --genus 16 --format latex": "3f296d74f72b2de0e7d392efb32ee792499ef607d1d1e1d0ddc88dfa60d63baa",
    "ring --k 7 --order 120 --format text": "a1eefc412e3a93ef942bd2af5a623249cf4d3935065015dd973d1f768822c4f9",
    "ring --k 7 --order 120 --format json": "b36257850acdafac441fcadb21adb38429e985b64143a92100eada7541312540",
    "ring --k 7 --order 120 --format latex": "33ed1ed0992d27e57c038cc6fec0e4c4462f91e147919ee2276d7202293311dd",
}


def _stdout_digest(args: tuple[str, ...]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        main(list(args))
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def test_corpus_covers_every_invocation():
    assert len(INVOCATIONS) == 138
    assert sorted(GOLDEN) == sorted(" ".join(a) for a in INVOCATIONS)


@pytest.mark.parametrize("args", INVOCATIONS, ids=" ".join)
def test_stdout_matches_golden(args, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    assert _stdout_digest(args) == GOLDEN[" ".join(args)]


def _spawned_digest(args: tuple[str, ...], *flags: str) -> str:
    """sha256 of the stdout of `python FLAGS -m su2rep ARGS`, which must exit 0."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env.pop(CACHE_ENV_VAR, None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, *flags, "-m", "su2rep", *args],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return hashlib.sha256(result.stdout).hexdigest()


def test_verify_under_optimize_matches_golden():
    # python -O strips assert statements; no check may depend on one.  No
    # --format, so this also holds the default format to the text digest.
    digest = _spawned_digest(("verify", "--genus", "2"), "-O")
    assert digest == GOLDEN["verify --genus 2 --format text"]


# The corpus above runs main() in-process.  These, with the -O case above for
# verify, hold a spawned `python -m su2rep` (which goes through cli.run and
# its exit) to the corpus digests, one invocation per subcommand.  The spawns
# in test_cli.py check exit codes and compare runs with each other, not with
# digests; they already reach verify cold, so the cases here stay cheap.
SPAWNED = (
    ("betti", "--genus", "3", "--route", "closed", "--format", "text"),
    ("eq-series", "--genus", "2", "--route", "structural", "--format", "json"),
    ("pairing", "--genus", "4", "--format", "latex"),
    ("ring", "--k", "2", "--format", "json"),
    ("e-basis", "--m", "3", "--format", "latex"),
)


@pytest.mark.parametrize("args", SPAWNED, ids=" ".join)
def test_spawned_stdout_matches_golden(args):
    assert _spawned_digest(args) == GOLDEN[" ".join(args)]


if __name__ == "__main__":
    os.environ.pop(CACHE_ENV_VAR, None)
    for args in INVOCATIONS:
        print(f'    "{" ".join(args)}": "{_stdout_digest(args)}",')
