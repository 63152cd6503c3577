import random
import zlib
from fractions import Fraction

import pytest

from jperron import polynomials as poly
from jperron.intmat import identity, mat_mul
from jperron.scalars import ScalarVector, algebraic, rational


def tribonacci_vector():
    """(1, t^2 - t, t) for t the real root of x^3 = x^2 + x + 1."""
    t = algebraic([-1, -1, -1, 1], Fraction(3, 2), 2)
    return ScalarVector([rational(1), t * t - t, t])


@pytest.fixture
def tribonacci():
    return tribonacci_vector()


def random_unimodular(rng, n, shears=None, spread=3):
    """Product of random elementary shear matrices; always in GL_n(Z)."""
    m = identity(n)
    for _ in range(shears if shears is not None else 3 * n):
        i, j = rng.sample(range(n), 2)
        e = identity(n)
        e[i][j] = rng.randint(-spread, spread)
        m = mat_mul(m, e)
    return m


def random_positive_fraction(rng, max_num=60, max_den=60):
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def rng_for(name):
    # string-keyed deterministic seeds (hash() is salted per process)
    return random.Random(zlib.crc32(name.encode()))


def fraction_extended_gcd(p, q):
    """Euclid over Q with Fraction coefficients: the oracle for
    ``poly.extended_gcd``, which runs fraction-free."""
    a, b = poly.trim(p), poly.trim(q)
    ua, va = (Fraction(1),), poly.ZERO
    ub, vb = poly.ZERO, (Fraction(1),)
    while b:
        quo, rem = poly.div_mod(a, b)
        a, b = b, rem
        ua, ub = ub, poly.sub(ua, poly.mul(quo, ub))
        va, vb = vb, poly.sub(va, poly.mul(quo, vb))
    if not a:
        return poly.ZERO, poly.ZERO, poly.ZERO
    inv = 1 / Fraction(a[-1])
    return poly.scale(a, inv), poly.scale(ua, inv), poly.scale(va, inv)
