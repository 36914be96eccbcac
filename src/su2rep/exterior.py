"""Brute-force oracles in finite-dimensional anticommutative algebras.

One sparse class, `ExtElement`, models both algebras, with integer
coefficients.  A term is keyed by (index bitmask, u-exponent), index i at
bit i-1: a product of distinct anticommuting generators in increasing
order, times a power of an optional central even variable u.  Two basis
monomials multiply to zero when their masks meet; otherwise the key of the
product is the union, and its sign counts the generator pairs out of order.

* With no u (`truncation=None`, every exponent 0) it is the exterior algebra
  on psi_1 .. psi_{2g} (each of cohomological degree 3 in the intended use).
  The distinguished class is gamma = -2 sum_{i=1..g} psi_i psi_{i+g}; the
  primitive part Prim_l is the kernel of multiplication by gamma^(g-l+1)
  on exterior degree l, and its dimension has the closed form
  C(2g, l) - C(2g, l-2).

* With u truncated at exponent U (u^e = 0 for e > U) it is the Jacobian
  model on degree-1 generators d_1 .. d_{2g} and a degree-2 u.  The
  restriction images of the ring generators are w = -2 sum d_i d_{i+g},
  4 u^2, and -2 u d_i; intersecting the subalgebra they generate with the
  ideal u^{g-1} is compared degree by degree with the Z/2-invariant part
  (invariance: |subset| + u-exponent even).  Ranks are only trusted in
  degrees <= 2(U - g), where the u-truncation cannot distort them.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations
from math import comb

from .linalg import exact_rank

Key = tuple[int, int]


def mask(indices: Iterable[int]) -> int:
    """Bitmask of a set of generator indices, index i at bit i-1."""
    return sum(1 << (i - 1) for i in set(indices))


def _sign(a: int, b: int) -> int:
    """(-1)^#{(i, j) : i in a, j in b, i > j}.

    For disjoint masks, psi_a psi_b = _sign(a, b) psi_(a|b).
    """
    n = 0
    while b:
        low = b & -b
        n += (a >> low.bit_length()).bit_count()
        b ^= low
    return -1 if n & 1 else 1


class ExtElement:
    """Element of the algebra on odd generators and an optional central u.

    `truncation` is the largest u-exponent kept, or None when there is no u
    (terms with a positive exponent are then dropped, as for truncation 0).
    Elements with different truncations belong to different algebras and
    cannot be combined.
    """

    __slots__ = ("terms", "truncation")

    def __init__(self, terms: dict[Key, int], truncation: int | None = None):
        if any(e < 0 for _, e in terms):
            raise ValueError("negative u-exponent")
        top = 0 if truncation is None else truncation
        clean = {k: c for k, c in terms.items() if c and k[1] <= top}
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "truncation", truncation)

    def __setattr__(self, name, value):
        raise AttributeError("ExtElement is immutable")

    @classmethod
    def generator(cls, i: int) -> ExtElement:
        return cls({(mask((i,)), 0): 1})

    @classmethod
    def scalar(cls, c: int, truncation: int | None = None) -> ExtElement:
        return cls({(0, 0): c}, truncation)

    def _check(self, other: ExtElement) -> None:
        if self.truncation != other.truncation:
            raise ValueError("mixing elements of different models")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: ExtElement) -> ExtElement:
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return ExtElement(out, self.truncation)

    def __neg__(self) -> ExtElement:
        return (-1) * self

    def __sub__(self, other: ExtElement) -> ExtElement:
        return self + (-other)

    def __rmul__(self, c: int) -> ExtElement:
        if isinstance(c, ExtElement):
            return NotImplemented
        return ExtElement({k: c * x for k, x in self.terms.items()}, self.truncation)

    def __mul__(self, other: ExtElement) -> ExtElement:
        self._check(other)
        top = 0 if self.truncation is None else self.truncation
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtElement):
            return NotImplemented
        return (self.truncation, self.terms) == (other.truncation, other.terms)

    def __hash__(self):
        return hash((self.truncation, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"ExtElement({self.terms!r}, truncation={self.truncation!r})"


def gamma_element(g: int) -> ExtElement:
    """-2 sum_{i=1..g} psi_i psi_{i+g}, homogeneous of exterior degree 2."""
    if g < 2:
        raise ValueError("genus must be at least 2")
    return ExtElement({(mask((i, i + g)), 0): -2 for i in range(1, g + 1)})


def prim_dimension_formula(g: int, l: int) -> int:
    """C(2g, l) - C(2g, l-2); comb() is zero for negative lower index."""
    if g < 2 or l < 0 or l > g:
        raise ValueError("need g >= 2 and 0 <= l <= g")
    return comb(2 * g, l) - (comb(2 * g, l - 2) if l >= 2 else 0)


def prim_dimension_bruteforce(g: int, l: int) -> int:
    """dim ker(gamma^(g-l+1)) on exterior degree l, by exact elimination."""
    if g < 2 or not 0 <= l <= g:
        raise ValueError("need g >= 2 and 0 <= l <= g")
    n = 2 * g
    power = g - l + 1
    gamma_pow = gamma_element(g) ** power
    domain = list(combinations(range(1, n + 1), l))
    rows = [(ExtElement({(mask(s), 0): 1}) * gamma_pow).terms for s in domain]
    return len(domain) - exact_rank(rows)


# ---------------------------------------------------------------------------
# truncated Jacobian model
# ---------------------------------------------------------------------------

def reliable_degree_window(g: int, U: int) -> int:
    """Largest degree at which u-truncated ranks are trusted."""
    return 2 * (U - g)


def _validate_model_range(g: int, U: int | None) -> int:
    """The u-truncation U, by default g + 4; U < g + 3 gives no useful window."""
    U = g + 4 if U is None else U
    if g < 2 or U < g + 3:
        raise ValueError("need g >= 2 and U >= g + 3")
    return U


def restriction_image_dimensions(g: int, U: int | None = None) -> dict[int, int]:
    """Dimension, per degree, of (subalgebra generated by the images) ∩ u^{g-1}·(everything).

    Reported for degrees 0 .. 2(U - g) only.
    """
    U = _validate_model_range(g, U)
    w = ExtElement(gamma_element(g).terms, U)
    four_u2 = ExtElement({(0, 2): 4}, U)
    window = reliable_degree_window(g, U)
    result: dict[int, int] = {}
    for degree in range(window + 1):
        rows = []
        for a in range(0, min(g, degree // 2) + 1):
            for b in range(0, (degree - 2 * a) // 4 + 1):
                rem = degree - 2 * a - 4 * b
                if rem % 3 != 0:
                    continue
                size = rem // 3
                if size > 2 * g:
                    continue
                base = (w ** a) * (four_u2 ** b)
                # the -2u d_i over i in s multiply, in increasing order, to c u^|s| d_s
                c = (-2) ** size
                for s in combinations(range(1, 2 * g + 1), size):
                    rows.append((base * ExtElement({(mask(s), size): c}, U)).terms)
        projected = [{k: c for k, c in r.items() if k[1] < g - 1} for r in rows]
        result[degree] = exact_rank(rows) - exact_rank(projected)
    return result


def invariant_truncated_dimensions(g: int, U: int | None = None) -> dict[int, int]:
    """Dimension, per degree, of the invariant part of u^{g-1}·(Jacobian model).

    Direct parity count: subsets S with exponents e >= g-1, |S| + e even,
    contributing C(2g, |S|) in degree |S| + 2e.  Same degree window as
    `restriction_image_dimensions`.
    """
    U = _validate_model_range(g, U)
    window = reliable_degree_window(g, U)
    result = {d: 0 for d in range(window + 1)}
    for e in range(g - 1, U + 1):
        for size in range(0, 2 * g + 1):
            d = size + 2 * e
            if d > window:
                continue
            if (size + e) % 2 == 0:
                result[d] += comb(2 * g, size)
    return result
