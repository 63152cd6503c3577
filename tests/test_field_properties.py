"""Property tests: enclosure-first decisions against the gcd decision.

The modulus (x^2 - 2)(x - 3) is square-free but reducible, so elements can
vanish at one root and not at another; each root is tried, one isolating
interval bisecting onto the rational root 3 and one never reaching it.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from jperron import polynomials as poly  # noqa: E402
from jperron.scalars import (  # noqa: E402
    AlgebraicScalar,
    NumberField,
    _elem_is_zero,
    _elem_sign,
    floor_exact,
)

MODULUS = (6, -2, -3, 1)  # (x^2 - 2)(x - 3)
ROOTS = {
    "sqrt2": (1, 2),
    "-sqrt2": (-2, -1),
    "3 (pinned by bisection)": (Fraction(5, 2), Fraction(7, 2)),
    "3 (never pinned)": (2, Fraction(7, 2)),
}
# factors that make an element vanish at some of the roots
FACTORS = ((1,), (-2, 0, 1), (-3, 1))

small = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def elements(draw):
    factor = draw(st.sampled_from(FACTORS))
    cofactor = tuple(draw(st.lists(small, min_size=0, max_size=3)))
    shift = draw(st.sampled_from((0, 0, Fraction(1, 10**6))))
    c = poly.add(poly.mul(factor, cofactor), (shift,))
    return poly.div_mod(c, MODULUS)[1]


def _field(root):
    return NumberField(MODULUS, *ROOTS[root])


def _gcd_is_zero(c, field):
    """Zero test by gcd with the modulus, with no enclosure shortcut."""
    c = poly.trim(c)
    if not c:
        return True
    lo, hi = field.enclosure()
    if lo == hi:  # a rational root pinned by bisection
        return poly.evaluate(c, lo) == 0
    g = poly.gcd(c, field.modulus)
    if poly.degree(g) < 1:
        return False
    return poly.count_roots(poly.sturm_chain(g), lo, hi) == 1


def _gcd_sign(c, field):
    """The gcd zero test first, then refinement until the sign shows."""
    if _gcd_is_zero(c, field):
        return 0
    while True:
        lo, hi = field.enclosure()
        if lo == hi:
            v = poly.evaluate(c, lo)
            return 1 if v > 0 else -1
        vlo, vhi = poly.evaluate_interval(c, lo, hi)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        field.refine_once()


@settings(deadline=None, max_examples=150)
@given(elements(), st.sampled_from(sorted(ROOTS)), st.integers(0, 6))
def test_sign_and_zero_match_gcd_decision(c, root, refinements):
    field, reference = _field(root), _field(root)
    for f in (field, reference):
        for _ in range(refinements):
            f.refine_once()
    assert _elem_is_zero(c, field) == _gcd_is_zero(c, reference)
    assert _elem_sign(c, field) == _gcd_sign(c, reference)
    # the same refinements as the reference: the enclosures did not change
    assert field.enclosure() == reference.enclosure()


@settings(deadline=None, max_examples=150)
@given(elements(), st.sampled_from(sorted(ROOTS)), st.integers(-50, 50))
def test_floor_of_integer_valued_elements(c, root, k):
    # c times the factor vanishing at the root, plus k, is the integer k
    field = _field(root)
    lo, hi = field.enclosure()
    vanishing = next(
        f for f in FACTORS[1:] if poly.count_roots(poly.sturm_chain(f), lo, hi) == 1
    )
    value = poly.add(poly.mul(vanishing, c), (k,))
    x = AlgebraicScalar(field, value)
    assert floor_exact(x) == k
    # just above and just below the integer
    assert floor_exact(x + Fraction(1, 10**4)) == k
    assert floor_exact(x - Fraction(1, 10**4)) == k - 1
