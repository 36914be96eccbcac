"""Brute-force oracles in the exterior algebra on psi_1 .. psi_{2g}.

An element is a dict from index bitmask to `int` coefficient, index i at
bit i-1: a product of distinct anticommuting generators in increasing
order.  Two basis monomials multiply to zero when their masks meet;
otherwise the mask of the product is the union, and its sign counts the
generator pairs out of order.  Both oracles rank rows psi_S gamma^a, where
gamma = -2 sum_{i=1..g} psi_i psi_{i+g}.

* The primitive part Prim_l is the kernel of multiplication by
  gamma^(g-l+1) on exterior degree l, and its dimension has the closed form
  C(2g, l) - C(2g, l-2).  The brute force eliminates one diagonal block per
  orbit of the symmetries of gamma on the pairs {i, i+g}.

* The Jacobian model has degree-1 generators d_1 .. d_{2g}, here the psi_i,
  and a central degree-2 u.  The restriction images of the ring generators
  are w = gamma, 4 u^2 and -2 u d_i; intersecting the subalgebra they
  generate with the ideal u^{g-1} is compared degree by degree with the
  Z/2-invariant part (invariance: |subset| + u-exponent even).  A product
  w^a (4u^2)^b c u^|S| d_S is gamma^a d_S times the single power u^e,
  e = 2b + |S|, scaled by the nonzero c 4^b.  Its degree is |mask| + 2e, so
  within one degree e is fixed by the mask: dropping u and the scalar maps
  columns one to one and rows to nonzero multiples, and the rank is that of
  the rows psi_S gamma^a in the exterior algebra.  No u-model is needed, and
  none truncated at u^U with U >= g + 4 would differ: in degrees up to
  max(8, 2g + 2), e <= degree/2 <= max(4, g + 1) < U.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations
from math import comb

from .linalg import exact_rank


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


def psi_times(s: int, element: dict[int, int]) -> dict[int, int]:
    """psi_s times an element; t -> s | t is one to one on the masks t missing s."""
    return {s | t: _sign(s, t) * c for t, c in element.items() if not s & t}


def gamma_power(g: int, p: int) -> dict[int, int]:
    """gamma^p, by p products with gamma = -2 sum_{i=1..g} psi_i psi_{i+g}."""
    power = {0: 1}
    for _ in range(p):
        product: dict[int, int] = {}
        for i in range(1, g + 1):
            for t, c in psi_times(mask((i, i + g)), power).items():
                product[t] = product.get(t, 0) - 2 * c
        power = product
    return power


def prim_dimension_formula(g: int, l: int) -> int:
    """C(2g, l) - C(2g, l-2); comb() is zero for negative lower index."""
    if g < 2 or l < 0 or l > g:
        raise ValueError("need g >= 2 and 0 <= l <= g")
    return comb(2 * g, l) - (comb(2 * g, l - 2) if l >= 2 else 0)


def prim_dimension_bruteforce(g: int, l: int) -> int:
    """dim ker(gamma^(g-l+1)) on exterior degree l, by exact elimination.

    Multiplying psi_S by a power of gamma only fills empty pairs {i, i+g}, so
    the pairs S half fills, and the side filled in each, index a diagonal
    block.  Permuting pairs, and psi_i -> psi_{i+g}, psi_{i+g} -> -psi_i in
    one pair, fix gamma, so the C(g, h) 2^h blocks with h half-filled pairs
    have one rank.  One block per h is eliminated: pairs 1..h filled on the
    lower side, plus (l - h)/2 full pairs among h+1..g.
    """
    if g < 2 or not 0 <= l <= g:
        raise ValueError("need g >= 2 and 0 <= l <= g")
    gamma_pow = gamma_power(g, g - l + 1)
    kernel = 0
    for h in range(l % 2, l + 1, 2):
        lower = mask(range(1, h + 1))
        rows = []
        for F in combinations(range(h + 1, g + 1), (l - h) // 2):
            s = lower | mask(F) | mask(i + g for i in F)
            rows.append(psi_times(s, gamma_pow))
        kernel += comb(g, h) * 2 ** h * (len(rows) - exact_rank(rows))
    return kernel


def _window(g: int) -> int:
    """Top degree of the Jacobian-model checks: degree 2(g - 1), where u^{g-1}
    starts, and at least four above it."""
    if g < 2:
        raise ValueError("genus must be at least 2")
    return max(8, 2 * g + 2)


def restriction_image_dimensions(g: int) -> dict[int, int]:
    """Dimension, per degree, of (subalgebra generated by the images) ∩ u^{g-1}·(everything).

    Reported for degrees 0 .. max(8, 2g + 2), where e <= max(4, g + 1), so no
    truncation of u at U >= g + 4 binds.  Each row w^a (4u^2)^b c u^|S| d_S
    is one power of u, e = 2b + |S|, since w has no u; so the rows are block
    diagonal by e, and the subalgebra meets u^{g-1} in the span of the rows
    with e >= g - 1.  Only those are built, and ranked once per degree, each
    as psi_S gamma^a: in one degree e is fixed by the mask, and c 4^b != 0.
    Only a <= 2 occurs in the window, so gamma^a is built when first needed.
    """
    window = _window(g)
    gamma_powers: dict[int, dict[int, int]] = {}
    result: dict[int, int] = {}
    for degree in range(window + 1):
        rows = []
        for a in range(0, min(g, degree // 2) + 1):
            for b in range(0, (degree - 2 * a) // 4 + 1):
                rem = degree - 2 * a - 4 * b
                if rem % 3 != 0:
                    continue
                size = rem // 3
                if size > 2 * g or 2 * b + size < g - 1:
                    continue
                if a not in gamma_powers:
                    gamma_powers[a] = gamma_power(g, a)
                for s in combinations(range(1, 2 * g + 1), size):
                    rows.append(psi_times(mask(s), gamma_powers[a]))
        result[degree] = exact_rank(rows)
    return result


def invariant_truncated_dimensions(g: int) -> dict[int, int]:
    """Dimension, per degree, of the invariant part of u^{g-1}·(Jacobian model).

    Direct parity count: subsets S with exponents e >= g-1, |S| + e even,
    contributing C(2g, |S|) in degree |S| + 2e.  Same degree window as
    `restriction_image_dimensions`.
    """
    window = _window(g)
    result = {d: 0 for d in range(window + 1)}
    for e in range(g - 1, window // 2 + 1):
        for size in range(0, min(2 * g, window - 2 * e) + 1):
            if (size + e) % 2 == 0:
                result[size + 2 * e] += comb(2 * g, size)
    return result
