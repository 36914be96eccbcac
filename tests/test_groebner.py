import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2rep.graded import (
    ALPHA,
    BETA,
    GAMMA,
    ONE,
    Poly,
    mumford_c,
    monomial_degree,
    monomial_divides,
    monomial_key,
    monomial_mul,
)
from su2rep.groebner import (
    CACHE_ENV_VAR,
    GroebnerBasis,
    RING_DENOMINATOR,
    _minimal,
    _pivot_numerator,
    buchberger,
    hilbert_series_quotient,
    ideal_generators,
    leading_term_ideal,
    normal_form,
    parse_basis,
    relation_ideal_basis,
    render_basis,
    standard_monomial_dimensions,
)
from su2rep.series import RationalFunction

from reduced_basis import is_reduced, leading_coefficient


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def monomial_quotient(b, a):
    """b / a, assuming a divides b."""
    return tuple(x - y for x, y in zip(b, a))


def test_ideal_generators():
    assert ideal_generators(0) == [ALPHA, Fraction(1, 2) * ALPHA ** 2, mumford_c(3)]
    assert ideal_generators(1) == [mumford_c(2), mumford_c(3), mumford_c(4)]
    for k in range(6):
        assert [g.degree() for g in ideal_generators(k)] == [
            2 * (k + 1),
            2 * (k + 2),
            2 * (k + 3),
        ]
    with pytest.raises(ValueError):
        ideal_generators(-1)


def test_buchberger_monomial_input_is_fixed_point():
    b = buchberger([ALPHA, GAMMA])
    assert b.generators == (ALPHA, GAMMA)


def test_buchberger_smallest_relation_ideal():
    b = buchberger(ideal_generators(0))
    assert b.generators == (ALPHA, GAMMA)


def test_buchberger_two_generator_closure():
    b = buchberger([ALPHA ** 2 + (-1) * BETA, ALPHA * GAMMA])
    assert b.generators == (ALPHA ** 2 + (-1) * BETA, ALPHA * GAMMA, BETA * GAMMA)
    assert is_reduced(b)


def test_buchberger_first_nontrivial_ideal():
    b = buchberger(ideal_generators(1))
    xi = ALPHA * BETA + 2 * GAMMA
    assert b.generators == (ALPHA ** 2, xi, ALPHA * GAMMA, GAMMA ** 2)


@pytest.mark.parametrize("k", range(5))
def test_relation_bases_are_reduced_monic_sorted(k):
    b = buchberger(ideal_generators(k), source_k=k)
    assert is_reduced(b)
    assert all(leading_coefficient(g) == 1 for g in b.generators)
    lms = b.leading_monomials()
    keys = [monomial_degree(m) for m in lms]
    assert keys == sorted(keys)


def s_polynomial(f, g):
    lf, lg = f.leading_monomial(), g.leading_monomial()
    l = monomial_lcm(lf, lg)
    return (1 / leading_coefficient(f)) * (
        Poly({monomial_quotient(l, lf): 1}) * f
    ) + (-1 / leading_coefficient(g)) * (Poly({monomial_quotient(l, lg): 1}) * g)


def reference_normal_form(p, basis):
    """Full division remainder in Fraction arithmetic, the reference for the
    fraction-free `normal_form`: each step subtracts (c/lc) q g exactly."""
    reducers = [(g.leading_monomial(), leading_coefficient(g), g) for g in basis]
    work = dict(p.terms)
    remainder = {}
    while work:
        m = max(work, key=monomial_key)
        c = work.pop(m)
        for lm, lc, g in reducers:
            if monomial_divides(lm, m):
                q = monomial_quotient(m, lm)
                factor = c / lc
                for mg, cg in g.terms.items():
                    if mg == lm:
                        continue
                    mm = monomial_mul(mg, q)
                    s = work.get(mm, Fraction(0)) - factor * cg
                    if s:
                        work[mm] = s
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[m] = c
    return Poly(remainder)


@pytest.mark.parametrize("k", range(4))
def test_all_s_polynomials_reduce_to_zero(k):
    b = buchberger(ideal_generators(k))
    gens = b.generators
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            assert normal_form(s_polynomial(gens[i], gens[j]), b).is_zero()


@pytest.mark.parametrize("k", range(5))
def test_original_generators_reduce_to_zero(k):
    b = buchberger(ideal_generators(k))
    for q in ideal_generators(k):
        assert normal_form(q, b).is_zero()


def test_normal_form_examples():
    b2 = buchberger(ideal_generators(2))
    assert normal_form(ALPHA ** 3 + 2 * (ALPHA * BETA) + 4 * GAMMA, b2).is_zero()
    assert normal_form(ONE, b2) == ONE
    # remainder monomials avoid every leading monomial
    p = (ALPHA + BETA) ** 3
    r = normal_form(p, b2)
    for m in r.terms:
        assert not any(monomial_divides(lm, m) for lm in b2.leading_monomials())
    assert p + (-1) * r == p + (-1) * r  # difference is well defined
    assert normal_form(p + (-1) * r, b2).is_zero()


def test_normal_form_follows_a_basis_list_that_changes():
    # the reducers are memoized for the last basis: alternating bases must not mix them
    b1, b2 = buchberger(ideal_generators(1)), buchberger(ideal_generators(2))
    p = ALPHA ** 3 + BETA * GAMMA
    forms = [normal_form(p, b) for b in (b1, b2, b1)]
    assert forms == [reference_normal_form(p, b.generators) for b in (b1, b2, b1)]
    assert forms[0] != forms[1]


def _monomials_of_degree(d):
    out = []
    for i in range(d // 2 + 1):
        for j in range((d - 2 * i) // 4 + 1):
            rem = d - 2 * i - 4 * j
            if rem % 6 == 0:
                out.append((i, j, rem // 6))
    return out


@st.composite
def homogeneous_polys(draw, max_degree=12):
    d = draw(st.sampled_from(range(2, max_degree + 1, 2)))
    monos = _monomials_of_degree(d)
    coeffs = draw(
        st.lists(
            st.integers(-5, 5), min_size=len(monos), max_size=len(monos)
        )
    )
    return Poly(zip(monos, map(Fraction, coeffs)))


@given(homogeneous_polys(), homogeneous_polys())
@settings(max_examples=40, deadline=None)
def test_normal_form_is_multiplicative_modulo_ideal(p, q):
    b = buchberger(ideal_generators(2))
    lhs = normal_form(p * q, b)
    rhs = normal_form(normal_form(p, b) * normal_form(q, b), b)
    assert lhs == rhs


@given(homogeneous_polys(), homogeneous_polys(), st.integers(-7, 7))
@settings(max_examples=40, deadline=None)
def test_normal_form_is_linear(p, q, c):
    b = buchberger(ideal_generators(1))
    assert normal_form(p + Fraction(c) * q, b) == normal_form(p, b) + Fraction(
        c
    ) * normal_form(q, b)


small_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))


@st.composite
def fractional_homogeneous_polys(draw, max_degree=30):
    d = draw(st.sampled_from(range(2, max_degree + 1, 2)))
    monos = _monomials_of_degree(d)
    coeffs = draw(st.lists(small_fractions, min_size=len(monos), max_size=len(monos)))
    return Poly(zip(monos, coeffs))


# from I_5 on, some reduced generators cleared of denominators lead with a
# coefficient other than 1, so the fraction-free steps must rescale
@given(st.integers(0, 7), fractional_homogeneous_polys())
@settings(max_examples=80, deadline=None)
def test_normal_form_equals_fraction_reference(k, p):
    b = relation_ideal_basis(k)
    assert normal_form(p, b) == reference_normal_form(p, b.generators)


@given(st.integers(0, 4), st.lists(small_fractions.filter(bool), min_size=3, max_size=3))
@settings(max_examples=20, deadline=None)
def test_buchberger_ignores_generator_scaling(k, scales):
    gens = ideal_generators(k)
    scaled = [c * g for c, g in zip(scales, gens)]
    assert buchberger(scaled) == buchberger(gens)


def test_monomial_ideal_antichain_enforced():
    ideal = _minimal([(2, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 0)])
    assert ideal == ((1, 0, 0), (0, 0, 1))
    assert any(monomial_divides(m, (3, 1, 0)) for m in ideal)
    assert not any(monomial_divides(m, (0, 5, 0)) for m in ideal)


@pytest.mark.parametrize(
    "gens, plain",
    [
        # 2 alpha + 3 gamma and gamma share the leading monomial gamma
        ([ALPHA, 2 * ALPHA + 3 * GAMMA, GAMMA], [ALPHA, GAMMA]),
        # alpha^2 leads twice, and alpha divides it and alpha beta
        ([ALPHA ** 2, ALPHA ** 2 + BETA, ALPHA * BETA, ALPHA], [ALPHA, BETA]),
    ],
)
def test_buchberger_drops_repeated_and_redundant_leading_monomials(gens, plain):
    assert buchberger(gens) == buchberger(plain)
    assert buchberger(gens).generators == tuple(plain)


def test_leading_term_ideal_examples():
    assert leading_term_ideal(buchberger([ALPHA, GAMMA])) == (
        (1, 0, 0),
        (0, 0, 1),
    )
    lt2 = leading_term_ideal(buchberger(ideal_generators(2)))
    assert (3, 0, 0) in lt2


def test_hilbert_series_examples():
    one_ideal = _minimal([(1, 0, 0), (0, 0, 1)])
    h = hilbert_series_quotient(one_ideal)
    assert h.reduced_pair() == ((1,), (1, 0, 0, 0, -1))
    empty = hilbert_series_quotient(())
    assert empty == RationalFunction((1,), RING_DENOMINATOR)
    lt2 = leading_term_ideal(buchberger(ideal_generators(2)))
    assert hilbert_series_quotient(lt2).expand(6)[6] == 2


@pytest.mark.parametrize("k", range(7))
def test_hilbert_expansion_nonnegative_integers(k):
    b = relation_ideal_basis(k)
    h = hilbert_series_quotient(leading_term_ideal(b)).expand(40)
    for c in h:
        assert c.denominator == 1 and c >= 0


@pytest.mark.parametrize("k", range(5))
def test_standard_monomial_counts_match_series(k):
    lt = leading_term_ideal(relation_ideal_basis(k))
    counts = standard_monomial_dimensions(lt, 24)
    series = hilbert_series_quotient(lt).expand(24)
    assert counts == [int(c) for c in series]


def _subset_numerator(gens):
    """Numerator coefficients from the literal subset sum; exponential in len(gens).

    The reference for `_pivot_numerator`: sum over generator subsets S of
    (-1)^|S| t^(deg lcm S), zero coefficients dropped.
    """
    coeffs = {}

    def visit(idx, lcm, sign):
        if idx == len(gens):
            d = monomial_degree(lcm)
            coeffs[d] = coeffs.get(d, 0) + sign
            return
        visit(idx + 1, lcm, sign)
        visit(idx + 1, monomial_lcm(lcm, gens[idx]), -sign)

    visit(0, (0, 0, 0), 1)
    return {d: c for d, c in coeffs.items() if c}


small_monomials = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


@given(st.lists(small_monomials, min_size=0, max_size=8))
@settings(max_examples=60)
def test_pivot_numerator_equals_subset_sum(monos):
    family = tuple(m for m in monos if m != (0, 0, 0))
    ideal = _minimal(family)
    assert _pivot_numerator(ideal) == _subset_numerator(ideal)
    # any generating family of the ideal, repeats and non-minimal members too
    assert _pivot_numerator(family) == _pivot_numerator(ideal)


def test_basis_serialization_roundtrip():
    for k in range(4):
        b = buchberger(ideal_generators(k), source_k=k)
        assert parse_basis(render_basis(b)) == b
    free = GroebnerBasis(generators=(ALPHA,), source_k=None)
    assert parse_basis(render_basis(free)) == free
    with pytest.raises(ValueError):
        parse_basis("not a basis\n")


def test_cache_reproduces_uncached_result(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    uncached = relation_ideal_basis(2)
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    first = relation_ideal_basis(2)  # writes the file
    cache_file = tmp_path / "relation-ideal-2.txt"
    assert list(tmp_path.iterdir()) == [cache_file]  # no temporary file left
    assert cache_file.read_text() == render_basis(uncached)
    second = relation_ideal_basis(2)  # reads it back
    assert first == uncached == second


def test_changed_cache_file_is_read_again(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    first = relation_ideal_basis(2)  # writes the file
    assert relation_ideal_basis(2) == first  # reads it back
    (tmp_path / "relation-ideal-2.txt").write_text("not a basis\n")
    with pytest.raises(ValueError):
        relation_ideal_basis(2)


def test_cache_file_renamed_over_in_one_tick_is_read_again(tmp_path, monkeypatch):
    # same size and mtime as the file it replaces, renamed into place as the
    # cache writer does: only the inode tells the two apart
    import os

    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    relation_ideal_basis(2)  # writes the file
    path = tmp_path / "relation-ideal-2.txt"
    assert relation_ideal_basis(2).source_k == 2  # reads it back
    old = path.stat()
    tmp = tmp_path / "retagged.tmp"
    tmp.write_text(path.read_text().replace("k=2", "k=3", 1))
    os.utime(tmp, ns=(old.st_atime_ns, old.st_mtime_ns))
    os.replace(tmp, path)
    assert path.stat().st_size == old.st_size
    with pytest.raises(ValueError, match="tagged k=3"):
        relation_ideal_basis(2)


def test_cache_write_failure_leaves_no_partial_file(tmp_path, monkeypatch):
    # the final name appears only through the rename, so a write that dies
    # before it leaves nothing a later run could parse as a smaller basis
    def killed(src, dst):
        raise OSError("killed before rename")

    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    monkeypatch.setattr("su2rep.groebner.os.replace", killed)
    with pytest.raises(OSError):
        relation_ideal_basis(2)
    assert list(tmp_path.iterdir()) == []


# sha256 of render_basis(buchberger(ideal_generators(k), source_k=k)), taken
# for k <= 10 from the Buchberger loop that selected pairs by a linear `min`
# and applied no chain criterion, and for k = 12, 16 from the loop that
# reduced in Fraction arithmetic.  The reduced monic basis is unique, so any
# correct pair strategy or coefficient arithmetic must reproduce these bytes.
BASIS_DIGESTS = {
    0: "0a9491dae978ee6b404157970b0d91e8425865529f394b31051fabd4fd61abad",
    1: "f1a4d84eb4eee98b1c410d4a144b65f48f90597a0c2c8162d657ce987f725aae",
    2: "db10bb0298865edbce319483d12cfd611b75c58db371af3b9da93ad72538d00c",
    3: "33b19e6b9420e1963bd2a44d83697112b678127eaa009a8544f77eea90e82c27",
    4: "052429458af43778ec850424e682406b19c7236f5fba059107003a1aef97729b",
    5: "401804a1dc8748c09f375676b447445e5a7ec212dbd19e8dd387358b7527e9de",
    6: "f85c9752c33c093c99aa841d5a6ef9e0642d6c055ca0d7e4746567f0964fc841",
    7: "24319111587d34b1c9dad3431a9bf2c3857e6356ee9b9ce6fef3ca2b53befc8b",
    8: "2f9b012810f2bcc60239d8d45ec7223071b21e738632ecac982515212bcf15d6",
    9: "c83024de8bd4f298d0b865ef82ff70d7505d0626e7a9cee072dff69061cd301a",
    10: "61cebfcd2c5f12040bbdcd70a88bed1b4d168a2adcb99f0c7fc97d50a2e768ca",
    12: "00437488dccedcc29ca3de83196609403326d5eb92f3f0f8f32307df9caa4078",
    16: "bb5399f155aa4a050eee286c166042a2809d045bb0c59e1860e00aba761157ef",
}


@pytest.mark.parametrize("k", sorted(BASIS_DIGESTS))
def test_relation_basis_matches_golden_digest(k):
    text = render_basis(buchberger(ideal_generators(k), source_k=k))
    assert hashlib.sha256(text.encode()).hexdigest() == BASIS_DIGESTS[k]


def sympy_reduced_basis(gens):
    """Independent oracle: sympy's Buchberger under the same weighted order,
    as monic `Poly`s sorted by ascending leading monomial."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.orderings import MonomialOrder

    class WeightedLex(MonomialOrder):
        """Weighted degree (2, 4, 6), then lex: the order of `monomial_key`."""

        alias = "wdeglex"
        is_global = True

        def __call__(self, m):
            return (2 * m[0] + 4 * m[1] + 6 * m[2], m[0], m[1], m[2])

    a, b, c = sympy.symbols("alpha beta gamma")

    def to_expr(p):
        return sympy.Add(
            *(
                sympy.Rational(q.numerator, q.denominator) * a ** i * b ** j * c ** l
                for (i, j, l), q in p.terms.items()
            )
        )

    oracle = sympy.groebner(
        [to_expr(p) for p in gens],
        a,
        b,
        c,
        order=WeightedLex(),
        method="buchberger",
    )
    # sympy's Poly keeps its own lex order, so make each generator monic in ours
    polys = [
        Poly((m, Fraction(int(q.numerator), int(q.denominator))) for m, q in g.terms())
        for g in oracle.polys
    ]
    monic = [(1 / leading_coefficient(g)) * g for g in polys]
    return tuple(sorted(monic, key=lambda g: monomial_key(g.leading_monomial())))


@pytest.mark.parametrize("k", range(13))
def test_relation_basis_matches_sympy(k):
    gens = ideal_generators(k)
    assert buchberger(gens).generators == sympy_reduced_basis(gens)


exponent_triples = st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2))
integer_polys = st.one_of(
    st.builds(lambda m, c: Poly({m: c}), exponent_triples, st.integers(-3, 3).filter(bool)),
    st.dictionaries(
        exponent_triples, st.integers(-5, 5).filter(bool), min_size=2, max_size=4
    ).map(Poly),
)


@given(st.lists(integer_polys, min_size=1, max_size=4), st.lists(st.integers(0, 3), max_size=2))
@settings(max_examples=80, deadline=None)
def test_buchberger_matches_sympy_on_random_integer_sets(gens, repeats):
    """Non-homogeneous sets, monomials and repeated generators, past I_0..I_12:
    every pair the Gebauer-Moeller update drops must leave the basis unchanged."""
    gens = gens + [gens[i % len(gens)] for i in repeats]
    assert buchberger(gens).generators == sympy_reduced_basis(gens)
