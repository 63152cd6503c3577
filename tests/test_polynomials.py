from fractions import Fraction

from conftest import fraction_extended_gcd, fraction_gcd, rng_for
from jperron import polynomials as poly


def test_div_mod_identity_random():
    rng = rng_for("poly-divmod")
    for _ in range(120):
        p = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 7)))
        q = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 5)))
        q = poly.trim(q)
        if not q:
            continue
        quo, rem = poly.div_mod(p, q)
        assert poly.trim(poly.add(poly.mul(quo, q), rem)) == poly.trim(p)
        assert poly.degree(rem) < poly.degree(q)


def _random_fraction_poly(rng, degree):
    return poly.trim(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(degree + 1)]
    )


def test_remainder_cofactor_matches_fraction_euclid():
    # the field inverse reads r and u of u*p + v*q = r from the
    # fraction-free remainder loop: r/lead(r) and u*dp/lead(r) are Euclid's
    # monic gcd and its cofactor over Q
    rng = rng_for("poly-xgcd-oracle")
    cases = [
        ((), ()),
        ((), (Fraction(3, 2), 1)),
        ((Fraction(-2, 3), 0, Fraction(5, 7)), ()),
        ((Fraction(5, 3),), (Fraction(-7, 2),)),
        ((Fraction(5, 3),), (1, 0, Fraction(1, 2))),
        ((4, Fraction(1, 3)), (Fraction(-2, 9),)),
    ]
    for _ in range(150):
        p = _random_fraction_poly(rng, rng.randint(0, 5))
        q = _random_fraction_poly(rng, rng.randint(0, 5))
        shape = rng.randrange(4)
        if shape == 1:
            # a shared linear factor
            factor = (Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(1, 3)))
            p, q = poly.mul(p, factor), poly.mul(q, factor)
        elif shape == 2:
            # p divides q
            q = poly.mul(p, q)
        elif shape == 3:
            # q divides p
            p = poly.mul(p, q)
        cases.append((p, q))
    for p, q in cases:
        g, u, _ = fraction_extended_gcd(p, q)
        (r, ur), dp = poly._remainders(p, q, 1)
        if not r:
            assert g == u == (), (p, q)
            continue
        assert poly.scale(r, Fraction(1, r[-1])) == g, (p, q)
        assert poly.scale(ur, Fraction(dp, r[-1])) == u, (p, q)


def test_gcd_matches_fraction_euclid():
    rng = rng_for("poly-gcd-oracle")
    cases = [
        ((), ()),
        ((), (Fraction(3, 2), 1)),
        ((Fraction(-2, 3), 0, Fraction(5, 7)), ()),
        ((Fraction(5, 3),), (Fraction(-7, 2),)),
        ((Fraction(5, 3),), (1, 0, Fraction(1, 2))),
        ((-2, 0, 0, 1), (0, 0, 3)),  # a cube and its derivative
        ((6, -3, -2, 1), (-3, 0, 1)),  # (x - 2)(x^2 - 3) and x^2 - 3
    ]
    for _ in range(400):
        p = _random_fraction_poly(rng, rng.randint(0, 6))
        q = _random_fraction_poly(rng, rng.randint(0, 6))
        shape = rng.randrange(5)
        if shape == 1:
            factor = (Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(1, 3)))
            p, q = poly.mul(p, factor), poly.mul(q, factor)
        elif shape == 2:
            q = poly.mul(p, q)
        elif shape == 3:
            p = poly.mul(p, q)
        elif shape == 4:
            # integer input, as from a field modulus
            p = poly.trim([rng.randint(-9, 9) for _ in range(rng.randint(1, 7))])
            q = poly.derivative(p) if rng.randrange(2) else poly.mul(p, q)
        cases.append((p, q))
    for p, q in cases:
        got = poly.gcd(p, q)
        assert got == fraction_gcd(p, q), (p, q)
        assert all(type(c) is Fraction for c in got)


def test_gcd_makes_no_polynomial_division(monkeypatch):
    calls = []
    div_mod = poly.div_mod
    monkeypatch.setattr(poly, "div_mod", lambda *a: calls.append(a) or div_mod(*a))
    assert poly.gcd((-2, 0, 0, 1), (0, 0, 3)) == (Fraction(1),)
    assert poly.gcd((6, -3, -2, 1), (-3, 0, 1)) == (Fraction(-3), 0, Fraction(1))
    assert calls == []


def test_square_free_part_collapses_multiplicity():
    # (x - 1)^3 * (x + 2)
    p = poly.mul(poly.mul((-1, 1), poly.mul((-1, 1), (-1, 1))), (2, 1))
    sf = poly.square_free_part(p)
    assert poly.to_int_poly(sf) == poly.to_int_poly(poly.mul((-1, 1), (2, 1)))


def test_sturm_counts_constructed_roots():
    rng = rng_for("sturm-oracle")
    for _ in range(60):
        roots = sorted(
            {Fraction(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))}
        )
        p = (Fraction(1),)
        for r in roots:
            p = poly.mul(p, (-r, Fraction(1)))
        # sprinkle in a rootless quadratic; it must not change any count
        if rng.random() < 0.5:
            p = poly.mul(p, (Fraction(rng.randint(1, 5)), Fraction(0), Fraction(1)))
        chain = poly.sturm_chain(p)
        lo = min(roots) - 1
        hi = max(roots) + 1
        assert poly.count_roots(chain, lo, hi) == len(roots)
        for i, r in enumerate(roots):
            left = r - Fraction(1, 8)
            right = r + Fraction(1, 8)
            while any(q != r and left <= q <= right for q in roots):
                left = (left + r) / 2
                right = (right + r) / 2
            assert poly.count_roots(chain, left, right) == 1


def test_interval_evaluation_encloses():
    rng = rng_for("ival-horner")
    for _ in range(100):
        p = tuple(Fraction(rng.randint(-8, 8)) for _ in range(rng.randint(1, 6)))
        a = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        b = a + Fraction(rng.randint(0, 8), rng.randint(1, 6))
        lo, hi = poly.evaluate_interval(p, a, b)
        for t in range(5):
            x = a + (b - a) * Fraction(t, 4)
            v = poly.evaluate(p, x)
            assert lo <= v <= hi


def _fraction_horner_interval(p, lo, hi):
    # reference: interval Horner over Fractions
    acc_lo = acc_hi = Fraction(0)
    for c in reversed(p):
        cands = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo = min(cands) + c
        acc_hi = max(cands) + c
    return acc_lo, acc_hi


def test_interval_evaluation_matches_fraction_horner():
    rng = rng_for("ival-horner-exact")
    for trial in range(400):
        n = rng.randint(1, 7)
        if trial % 2:
            p = tuple(rng.randint(-10**6, 10**6) for _ in range(n))
        else:
            p = tuple(
                Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
                for _ in range(n)
            )
        a = Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**3))
        if trial % 5 == 0:
            b = a  # zero width
        elif trial % 5 == 1:
            a, b = -abs(a) - 1, -abs(a) / 2 - Fraction(1, 3)  # all negative
        else:
            b = a + Fraction(rng.randint(1, 10**4), rng.randint(1, 10**3))
        got = poly.evaluate_interval(p, a, b)
        assert got == _fraction_horner_interval(p, a, b)
        assert all(type(v) is Fraction for v in got)
    # integer endpoints and the zero polynomial
    assert poly.evaluate_interval((1, -3, 2), -2, 5) == _fraction_horner_interval(
        (1, -3, 2), -2, 5
    )
    assert poly.evaluate_interval((), Fraction(-1), Fraction(2)) == (0, 0)


def test_interval_bounds_match_fraction_horner():
    # the integer form behind every sign, zero test, floor and box
    rng = rng_for("ival-bounds")
    cases = [
        ((), Fraction(-1), Fraction(2)),
        ((), Fraction(3), Fraction(3)),
        ((5, -3, 0, 2), Fraction(-7, 3), Fraction(11, 4)),  # all int
    ]
    for trial in range(300):
        n = rng.randint(1, 6)
        if trial % 2:
            p = tuple(rng.randint(-10**4, 10**4) for _ in range(n))
        else:
            p = tuple(
                Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**3))
                for _ in range(n)
            )
        a = Fraction(rng.randint(-10**3, 10**3), rng.randint(1, 50))
        b = a + Fraction(rng.randint(0, 10**3), rng.randint(1, 50))
        if trial % 3 == 0:
            a, b = -abs(a) - b * b, -abs(a)  # negative endpoints
        elif trial % 3 == 1:
            a, b = rng.randint(-20, 0), rng.randint(0, 20)  # int endpoints
        cases.append((p, a, b))
    for p, a, b in cases:
        vlo, vhi, den = poly._interval_bounds(p, a, b)
        assert type(den) is int and den > 0
        assert type(vlo) is int and type(vhi) is int
        want = _fraction_horner_interval(p, Fraction(a), Fraction(b))
        assert (Fraction(vlo, den), Fraction(vhi, den)) == want, (p, a, b)


def test_interval_bounds_of_int_coefficients_skip_the_common_denominator(monkeypatch):
    # field numerators are ints: the bounds need no gcd per coefficient
    monkeypatch.setattr(poly, "_over_one_den", None)
    p, a, b = (5, -3, 0, 2), Fraction(-7, 3), Fraction(11, 4)
    vlo, vhi, den = poly._interval_bounds(p, a, b)
    assert (Fraction(vlo, den), Fraction(vhi, den)) == _fraction_horner_interval(p, a, b)


def test_to_int_poly_normalizes():
    # leading coefficient is the last entry and ends up positive
    assert poly.to_int_poly((Fraction(2, 3), Fraction(-4, 3))) == (-1, 2)
    assert poly.to_int_poly((Fraction(-1, 2), Fraction(-1, 2))) == (1, 1)
    assert poly.to_int_poly(()) == ()
