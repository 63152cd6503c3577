"""sympy as an independent oracle for the polynomial and field layers.

sympy is never a runtime dependency; without it these tests skip.
"""

from fractions import Fraction

import pytest

from conftest import rng_for
from jperron import polynomials as poly
from jperron.scalars import AlgebraicScalar, NumberField

sympy = pytest.importorskip("sympy")
X = sympy.symbols("x")


def _to_sympy(p):
    """A sympy Poly over QQ from constant-first int/Fraction coefficients."""
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in map(Fraction, p)]
    return sympy.Poly(coeffs[::-1] or [0], X, domain=sympy.QQ)


def _from_sympy(p):
    """Constant-first Fraction coefficients of a sympy Poly, trimmed."""
    return poly.trim(Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs()))


def _random_poly(rng, degree):
    return poly.trim(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree + 1)]
    )


def test_gcd_matches_sympy():
    rng = rng_for("sympy-gcd")
    for _ in range(150):
        p = _random_poly(rng, rng.randint(0, 5))
        q = _random_poly(rng, rng.randint(0, 5))
        if rng.randrange(2):
            factor = _random_poly(rng, rng.randint(1, 2))
            p, q = poly.mul(p, factor), poly.mul(q, factor)
        expected = _from_sympy(sympy.gcd(_to_sympy(p), _to_sympy(q)).monic())
        if not p and not q:
            expected = poly.ZERO
        assert poly.gcd(p, q) == expected, (p, q)


def test_sturm_root_count_matches_sympy():
    rng = rng_for("sympy-count-roots")
    checked = 0
    for _ in range(120):
        # products of small linear and quadratic factors: repeated roots
        # and irrational ones both occur
        p = (1,)
        for _ in range(rng.randint(1, 4)):
            if rng.randrange(2):
                factor = (rng.randint(-6, 6), rng.randint(1, 3))
            else:
                factor = (rng.randint(-6, 6), rng.randint(-3, 3), 1)
            p = poly.mul(p, factor)
        lo = Fraction(rng.randint(-40, 40), rng.randint(1, 7))
        hi = lo + Fraction(rng.randint(1, 60), rng.randint(1, 7))
        if poly.evaluate(p, lo) == 0 or poly.evaluate(p, hi) == 0:
            continue
        expected = _to_sympy(p).count_roots(
            sympy.Rational(lo.numerator, lo.denominator),
            sympy.Rational(hi.numerator, hi.denominator),
        )
        assert poly.count_roots(poly.sturm_chain(p), lo, hi) == expected, (p, lo, hi)
        checked += 1
    assert checked >= 100


# irreducible moduli, each with the real root it isolates as a sympy number
_FIELDS = [
    ([-2, 0, 1], (1, 2), sympy.sqrt(2)),
    ([-2, 0, 0, 1], (1, 2), sympy.cbrt(2)),
    ([-2, 0, 0, 0, 1], (1, 2), sympy.root(2, 4)),
    ([-1, -1, -1, 1], (Fraction(3, 2), 2), sympy.CRootOf(X**3 - X**2 - X - 1, 0)),
    ([-1, 2, 0, 7], (0, 1), sympy.CRootOf(7 * X**3 + 2 * X - 1, 0)),
]


@pytest.mark.parametrize("modulus,root,alpha", _FIELDS, ids=lambda v: str(v))
def test_annihilator_matches_minimal_polynomial(modulus, root, alpha):
    rng = rng_for("sympy-annihilator-%s" % (modulus,))
    field = NumberField(modulus, *root)
    d = field.degree
    for k in range(4):
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)]
        if k == 0:
            coeffs[1:] = [Fraction(0)] * (d - 1)  # a rational element
        x = AlgebraicScalar(field, coeffs)
        expr = sum(
            sympy.Rational(c.numerator, c.denominator) * alpha**i
            for i, c in enumerate(coeffs)
        )
        expected = sympy.Poly(sympy.minimal_polynomial(expr, X), X)
        assert x.annihilator() == tuple(int(c) for c in reversed(expected.all_coeffs()))
