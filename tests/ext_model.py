"""The tests' reference model of the exterior algebra with an optional central u,
truncated at u-exponent `truncation`; read by no code in `src/`.

A term is keyed by (index bitmask, u-exponent).  `src/su2rep/exterior.py`
ranks its rows in the plain exterior algebra; this model is what it is
checked against.
"""

from __future__ import annotations

from su2rep.exterior import _sign, mask

Key = tuple[int, int]


class ExtElement:
    """Element of the algebra on odd generators and an optional central u.

    `truncation` is the largest u-exponent kept; 0, the default, keeps no
    positive exponent, which is the exterior algebra with no u.  Elements with
    different truncations belong to different algebras and cannot be combined.
    """

    __slots__ = ("terms", "truncation")

    def __init__(self, terms: dict[Key, int], truncation: int = 0):
        if any(e < 0 for _, e in terms):
            raise ValueError("negative u-exponent")
        self.terms = {k: c for k, c in terms.items() if c and k[1] <= truncation}
        self.truncation = truncation

    @classmethod
    def scalar(cls, c: int, truncation: int = 0) -> ExtElement:
        return cls({(0, 0): c}, truncation)

    def _check(self, other: ExtElement) -> None:
        if self.truncation != other.truncation:
            raise ValueError("mixing elements of different models")

    def __mul__(self, other: ExtElement) -> ExtElement:
        self._check(other)
        top = self.truncation
        out: dict[Key, int] = {}
        for (s1, e1), c1 in self.terms.items():
            for (s2, e2), c2 in other.terms.items():
                e = e1 + e2
                if s1 & s2 or e > top:
                    continue
                key = (s1 | s2, e)
                out[key] = out.get(key, 0) + _sign(s1, s2) * c1 * c2
        return ExtElement(out, self.truncation)

    def __pow__(self, n: int) -> ExtElement:
        if n < 0:
            raise ValueError("negative power")
        result = ExtElement.scalar(1, self.truncation)
        for _ in range(n):
            result = result * self
        return result

    def __repr__(self) -> str:
        return f"ExtElement({self.terms!r}, truncation={self.truncation!r})"


def gamma_element(g: int) -> ExtElement:
    """-2 sum_{i=1..g} psi_i psi_{i+g}, homogeneous of exterior degree 2."""
    if g < 2:
        raise ValueError("genus must be at least 2")
    return ExtElement({(mask((i, i + g)), 0): -2 for i in range(1, g + 1)})
