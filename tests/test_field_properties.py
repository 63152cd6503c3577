"""Property tests: enclosure-first decisions against the gcd decision.

The modulus (x^2 - 2)(x - 3) is square-free but reducible, so elements can
vanish at one root and not at another; each root is tried, one isolating
interval whose first midpoint is the rational root 3 and one whose
midpoints never are.
"""

from fractions import Fraction
from math import floor

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
    "3 (the first midpoint)": (Fraction(5, 2), Fraction(7, 2)),
    "3 (never a midpoint)": (2, Fraction(7, 2)),
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
    g = poly.gcd(c, field.modulus)
    if poly.degree(g) < 1:
        return False
    return poly.count_roots(poly.sturm_chain(g), lo, hi) == 1


def _gcd_sign(c, field):
    """The gcd zero test first, then refinement until the sign shows."""
    if _gcd_is_zero(c, field):
        return 0
    while True:
        vlo, vhi = poly.evaluate_interval(c, *field.enclosure())
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


# enclosures of the root 3: bisection meets 3 at the first midpoint of the
# first and last, at the second midpoint of the second, and never from the
# third
THREE = (
    (Fraction(5, 2), Fraction(7, 2)),
    (Fraction(3, 2), Fraction(7, 2)),
    (2, Fraction(7, 2)),
    (Fraction(11, 4), Fraction(13, 4)),
)


def _refined(enclosure, times):
    """A field of the root 3 from ``enclosure``, bisected ``times`` times;
    after every step the enclosure is open around 3 and ends at no root."""
    field = NumberField(MODULUS, *enclosure)
    for _ in range(times):
        field.refine_once()
        lo, hi = field.enclosure()
        assert lo < 3 < hi
        assert poly.evaluate(MODULUS, lo) != 0 and poly.evaluate(MODULUS, hi) != 0
    return field


@settings(deadline=None, max_examples=150)
@given(
    elements(),
    st.sampled_from(THREE),
    st.integers(0, 40),
    st.sampled_from(THREE),
    st.integers(0, 40),
)
def test_enclosures_of_a_rational_root_stay_open(c, start, times, other, other_times):
    field = _refined(start, times)
    v = poly.evaluate(c, 3)
    assert _elem_is_zero(c, field) == (v == 0)
    assert _elem_sign(c, field) == (v > 0) - (v < 0)
    assert floor_exact(AlgebraicScalar(field, c)) == floor(v)
    other = _refined(other, other_times)
    assert field.same_root(other) and other.same_root(field)
    for root in ("sqrt2", "-sqrt2"):
        assert not field.same_root(_field(root)) and not _field(root).same_root(field)
