"""The tests' oracle for a reduced Gröbner basis, read by no code in `src/`."""

from su2rep.graded import monomial_divides


def leading_coefficient(p):
    return p.terms[p.leading_monomial()]


def is_reduced(basis):
    """Every generator is monic, and no leading monomial of another divides any of its terms."""
    lms = basis.leading_monomials()
    for i, g in enumerate(basis.generators):
        if leading_coefficient(g) != 1:
            return False
        for m in g.terms:
            for j, lm in enumerate(lms):
                if i != j and monomial_divides(lm, m):
                    return False
    return True
