from fractions import Fraction
from math import gcd, isqrt

import pytest

from conftest import (
    fraction_gcd,
    fraction_inverse,
    reference_compare,
    rng_for,
    sturm_is_zero,
    sturm_same_root,
)
from jperron import polynomials as poly
from jperron import scalars as scalars_module
from jperron.errors import BudgetExceeded, IndeterminateFloor, MalformedInput
from jperron.scalars import (
    AlgebraicScalar,
    IntervalScalar,
    NumberField,
    Ordering,
    RationalScalar,
    ScalarVector,
    _elem_inverse,
    _elem_is_zero,
    _split,
    algebraic,
    compare,
    floor_exact,
    interval,
    rational,
    refine,
    scalar_from_json,
    scalar_to_json,
    vector_from_json,
    vector_to_json,
)


def sqrt2():
    return algebraic([-2, 0, 1], 1, 2)


def test_floor_rational():
    assert floor_exact(rational(7, 5)) == 1
    assert floor_exact(rational(3)) == 3
    assert floor_exact(rational(-7, 5)) == -2


def test_floor_sqrt2():
    assert floor_exact(sqrt2()) == 1


def test_floor_algebraic_integer_value():
    # sqrt(2)^2 is exactly the integer 2; the exact equality test must fire
    x = sqrt2() * sqrt2()
    assert floor_exact(x) == 2


def test_floor_interval():
    assert floor_exact(interval(Fraction(11, 10), Fraction(12, 10))) == 1
    assert floor_exact(interval(Fraction(5, 4), Fraction(5, 4))) == 1
    with pytest.raises(IndeterminateFloor):
        floor_exact(interval(Fraction(9, 10), Fraction(11, 10)))


def test_compare_examples():
    assert compare(rational(1, 2), rational(1, 2)) is Ordering.EQ
    assert compare(sqrt2(), rational(7, 5)) is Ordering.GT
    assert (
        compare(interval(1, Fraction(3, 2)), interval(Fraction(6, 5), Fraction(13, 10)))
        is Ordering.INDETERMINATE
    )


def test_compare_interval_disjoint_is_decided():
    assert compare(interval(0, 1), interval(2, 3)) is Ordering.LT
    assert compare(rational(5), interval(2, 3)) is Ordering.GT


def test_compare_algebraic_vs_interval_refines():
    # the algebraic side must be refined until the interval decides or
    # genuinely straddles the value
    assert compare(sqrt2(), interval(Fraction(3, 2), 2)) is Ordering.LT
    assert compare(sqrt2(), interval(1, Fraction(6, 5))) is Ordering.GT
    assert (
        compare(sqrt2(), interval(Fraction(13, 10), Fraction(3, 2)))
        is Ordering.INDETERMINATE
    )


def test_compare_total_order_random():
    rng = rng_for("compare-order")
    r2 = sqrt2()
    pool = [rational(rng.randint(-8, 8), rng.randint(1, 9)) for _ in range(12)]
    pool += [r2 * k for k in range(-2, 3)]
    pool += [r2 + Fraction(n, 3) for n in range(-3, 4)]
    for _ in range(300):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        ab, ba = compare(a, b), compare(b, a)
        assert ab is not Ordering.INDETERMINATE
        assert ab.value == -ba.value or (ab is Ordering.EQ and ba is Ordering.EQ)
        if compare(a, b) is Ordering.LT and compare(b, c) is Ordering.LT:
            assert compare(a, c) is Ordering.LT


def test_floor_bracket_invariant_random():
    rng = rng_for("floor-bracket")
    for _ in range(200):
        x = rational(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        f = floor_exact(x)
        assert Fraction(f) <= x.value < Fraction(f + 1)


def test_algebraic_field_arithmetic():
    t = algebraic([-1, -1, -1, 1], Fraction(3, 2), 2)
    assert t ** 3 - t ** 2 - t == 1
    inv = rational(1) / t
    assert inv * t == 1
    # 1/t = t^2 - t - 1 in this field
    assert inv == t * t - t - 1


def test_algebraic_demotes_to_rational():
    phi = algebraic([-1, -1, 1], 1, 2)
    one = phi * phi - phi  # phi^2 - phi = 1
    assert isinstance(one, RationalScalar)
    assert one.value == 1


def test_cross_field_equality():
    a = sqrt2()
    b = algebraic([-4, 0, 0, 0, 1], 1, Fraction(3, 2))  # sqrt2 via x^4 - 4
    assert compare(a, b) is Ordering.EQ
    c = algebraic([-3, 0, 1], 1, 2)  # sqrt3
    assert compare(a, c) is Ordering.LT
    assert compare(c, a) is Ordering.GT


def test_reducible_modulus_zero_divisors_are_exact():
    g = algebraic([-4, 0, 0, 0, 1], 1, Fraction(3, 2))
    sq = g * g
    assert sq == 2
    assert (sq - 2).sign() == 0
    assert floor_exact(sq) == 2


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(MalformedInput):
        sqrt2() + algebraic([-3, 0, 1], 1, 2)


def test_refine_algebraic():
    x = sqrt2()
    lo0, hi0 = x.enclosure()
    refine(x, Fraction(1, 100))
    lo, hi = x.enclosure()
    assert hi - lo <= Fraction(1, 100)
    assert lo0 <= lo and hi <= hi0  # refinement never leaves the original


def test_refine_rational_and_interval_noop():
    r = rational(1, 3)
    assert refine(r, Fraction(1, 10)) is r
    iv = interval(0, 1)
    out = refine(iv, Fraction(1, 2))
    assert out is iv and out.width() == 1  # no oracle, returned unchanged


@pytest.mark.parametrize("eps", [0, -1, Fraction(-1, 3)])
def test_algebraic_enclosure_rejects_non_positive_eps(eps):
    x = sqrt2()
    before = x.field.enclosure()
    with pytest.raises(MalformedInput, match="eps must be positive"):
        x.enclosure(eps)
    assert x.field.enclosure() == before
    # a rational root, which bisection hits at once, is rejected the same way
    two = algebraic([-4, 0, 1], 1, 3)
    with pytest.raises(MalformedInput):
        two.enclosure(eps)


def test_rational_divided_by_field_element_or_interval():
    rng = rng_for("rational-truediv")
    fields = [sqrt2().field, algebraic([-1, 2, 0, 7], 0, 1).field]
    for _ in range(60):
        r = rational(rng.randint(-40, 40), rng.randint(1, 40))
        field = fields[rng.randrange(2)]
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(field.degree)]
        coeffs[-1] = coeffs[-1] or Fraction(1)
        x = AlgebraicScalar(field, coeffs)
        got = r / x
        want = AlgebraicScalar(x.field, (Fraction(r.value),)) / x
        assert (got.num, got.den, got.field) == (want.num, want.den, want.field)
        lo = Fraction(rng.randint(1, 30), rng.randint(1, 9))
        iv = interval(lo, lo + Fraction(rng.randint(0, 20), rng.randint(1, 9)))
        for divisor in (iv, -iv):
            got = r / divisor
            want = IntervalScalar(r.value, r.value) / divisor
            assert (got.lo, got.hi) == (want.lo, want.hi)
    with pytest.raises(ZeroDivisionError):
        rational(1) / interval(-1, 1)


def test_interval_arithmetic():
    a = interval(1, 2)
    b = interval(Fraction(1, 2), 1)
    assert (a + b).enclosure() == (Fraction(3, 2), Fraction(3))
    assert (a * b).enclosure() == (Fraction(1, 2), Fraction(2))
    assert (a - b).enclosure() == (Fraction(0), Fraction(3, 2))
    with pytest.raises(ZeroDivisionError):
        a / interval(-1, 1)
    assert interval(-1, 1).sign() is None


def test_scalar_json_round_trips():
    cases = [
        rational(7, 5),
        rational(-3),
        sqrt2(),
        sqrt2() + Fraction(1, 2),
        interval(Fraction(1, 3), Fraction(2, 3)),
    ]
    for x in cases:
        back = scalar_from_json(scalar_to_json(x))
        assert compare(back, x) is Ordering.EQ or (
            isinstance(x, IntervalScalar) and back == x
        )


def test_scalar_json_accepts_pair_arrays():
    assert scalar_from_json(["rat", [7, 5]]) == rational(7, 5)
    assert scalar_from_json(3) == rational(3)
    assert scalar_from_json("2/3") == rational(2, 3)


def test_scalar_json_rejects_garbage():
    with pytest.raises(MalformedInput):
        scalar_from_json({"rat": [1, 2], "ivl": {}})
    with pytest.raises(MalformedInput):
        scalar_from_json({"nope": 1})
    with pytest.raises(MalformedInput):
        scalar_from_json({"alg": {"poly": [1], "lo": [0, 1], "hi": [1, 1]}})
    with pytest.raises(MalformedInput):
        scalar_from_json({"rat": [1, 0]})


def test_vector_json_shares_fields():
    t = algebraic([-1, -1, -1, 1], Fraction(3, 2), 2)
    vec = ScalarVector([rational(1), t * t - t, t])
    back = vector_from_json(vector_to_json(vec))
    assert back == vec
    algs = [e for e in back.entries if isinstance(e, AlgebraicScalar)]
    assert len(algs) == 2
    assert algs[0].field is algs[1].field
    # arithmetic across the re-imported entries must be direct
    assert (algs[1] * algs[1] - algs[1]) == algs[0]


def test_scalar_vector_validation():
    with pytest.raises(MalformedInput):
        ScalarVector([rational(1)])
    v = ScalarVector([2, Fraction(4, 3), 6])
    assert v.rank == 3
    n = v.normalized()
    assert n[0] == rational(1)
    assert n[1] == rational(2, 3)
    assert v.is_positive() is True
    assert ScalarVector([1, interval(-1, 1)]).is_positive() is None
    assert ScalarVector([1, rational(-2)]).is_positive() is False


def test_field_arithmetic_against_enclosures():
    # every exact operation must land inside the product/sum/quotient of
    # tight enclosures of its operands
    rng = rng_for("field-stress")
    gens = [
        algebraic([-2, 0, 1], 1, 2),
        algebraic([-1, -1, -1, 1], Fraction(3, 2), 2),
        algebraic([-4, 0, 0, 0, 1], 1, Fraction(3, 2)),  # reducible modulus
    ]
    eps = Fraction(1, 10**12)
    for g in gens:
        pool = [g, g * g - 1, g + Fraction(1, 3), rational(2) / g]
        for _ in range(40):
            a = rng.choice(pool)
            b = rng.choice(pool)
            for op in ("add", "mul", "div"):
                if op == "add":
                    out = a + b
                elif op == "mul":
                    out = a * b
                else:
                    if (b.sign() if hasattr(b, "sign") else 1) == 0:
                        continue
                    out = a / b
                alo, ahi = _tight(a, eps)
                blo, bhi = _tight(b, eps)
                olo, ohi = _tight(out, eps)
                if op == "add":
                    lo, hi = alo + blo, ahi + bhi
                elif op == "mul":
                    cands = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
                    lo, hi = min(cands), max(cands)
                else:
                    cands = (alo / blo, alo / bhi, ahi / blo, ahi / bhi)
                    lo, hi = min(cands), max(cands)
                assert lo - eps <= ohi and olo <= hi + eps


def _tight(x, eps):
    if isinstance(x, AlgebraicScalar):
        return x.enclosure(eps)
    return x.enclosure()


def test_field_division_round_trip():
    rng = rng_for("field-div")
    g = algebraic([-4, 0, 0, 0, 1], 1, Fraction(3, 2))  # sqrt2 via x^4 - 4
    pool = [g, g * g, g + 1, g * g * g - 2, rational(1) / g]
    for _ in range(60):
        a = rng.choice(pool)
        b = rng.choice(pool)
        if b.sign() == 0:
            continue
        assert (a / b) * b == a


# ------------------------------------------------ field kernel against Fractions

# (modulus, isolating interval, the factor of the modulus that vanishes at
# the isolated root)
KERNEL_FIELDS = [
    ([-2, 0, 0, 0, 1], 1, 2, None),  # x^4 - 2
    ([-1, -1, -1, 1], Fraction(3, 2), 2, None),  # x^3 - x^2 - x - 1
    ([-3, 0, 2], 1, 2, None),  # 2x^2 - 3, not monic
    ([-1, 2, 0, 7], 0, 1, None),  # 7x^3 + 2x - 1, not monic
    ([6, -2, -3, 1], 1, 2, (-2, 0, 1)),  # (x^2 - 2)(x - 3), root sqrt 2
]


def _ref_reduce(coeffs, modulus):
    return tuple(Fraction(c) for c in poly.div_mod(poly.trim(coeffs), modulus)[1])


def _ref_vanishes(coeffs, root_factor):
    return poly.div_mod(poly.trim(coeffs), root_factor)[1] == ()


def _kernel_coeffs(x):
    """Coefficients of a result; algebraic ones must be in normal form."""
    if isinstance(x, RationalScalar):
        return (x.value,) if x.value else ()
    assert isinstance(x, AlgebraicScalar)
    num, den = x.num, x.den
    assert type(den) is int and den > 0
    assert all(type(c) is int for c in num)
    assert not num or num[-1] != 0
    assert len(num) <= x.field.degree
    assert gcd(den, *num) == 1
    return x.coeffs


def _kernel_operands(rng, field, root_factor):
    def rand(n):
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]

    d = field.degree
    coeffs = [rand(rng.randint(1, d)) for _ in range(8)]
    coeffs += [rand(rng.randint(d + 1, 2 * d)) for _ in range(4)]  # unreduced
    coeffs += [(), (Fraction(5, 3),), (0, 1)]
    if root_factor is not None:
        cofactor = poly.div_mod(field.modulus, root_factor)[0]
        # zero divisors: one vanishes at the root, one does not
        coeffs.append(poly.mul(root_factor, (Fraction(-1, 2),)))
        coeffs.append(poly.mul(cofactor, (Fraction(2, 3), Fraction(1, 5))))
    return [(c, AlgebraicScalar(field, c)) for c in coeffs]


def test_field_kernel_matches_fraction_reference():
    rng = rng_for("field-kernel")
    for modulus, lo, hi, root_factor in KERNEL_FIELDS:
        field = NumberField(modulus, lo, hi)
        mod = field.modulus
        root_factor = root_factor or mod
        operands = _kernel_operands(rng, field, root_factor)
        for c, x in operands:
            assert _kernel_coeffs(x) == _ref_reduce(c, mod)
            neg = -x
            assert isinstance(neg, AlgebraicScalar)
            assert _kernel_coeffs(neg) == _ref_reduce(poly.neg(c), mod)
        rationals = [3, Fraction(-7, 4), rational(Fraction(2, 9)), 0]
        pairs = [(rng.choice(operands), rng.choice(operands)) for _ in range(40)]
        # results that vanish or are constant
        pairs += [(xa, xa) for xa in operands[:3]]
        pairs += [
            ((c, x), (poly.sub(c, (Fraction(1, 3),)), x - Fraction(1, 3)))
            for c, x in operands[:3]
        ]
        pairs += [((c, x), r) for (c, x) in operands[:4] for r in rationals]
        for (ca, a), b in pairs:
            if isinstance(b, tuple):
                cb, b = b
            else:
                v = b.value if isinstance(b, RationalScalar) else Fraction(b)
                cb = (v,) if v else ()
            ref_ops = [
                (a + b, poly.add(ca, cb)),
                (a - b, poly.sub(ca, cb)),
                (a * b, poly.mul(ca, cb)),
            ]
            if not isinstance(b, AlgebraicScalar):
                ref_ops += [
                    (b + a, poly.add(cb, ca)),
                    (b - a, poly.sub(cb, ca)),
                    (b * a, poly.mul(cb, ca)),
                ]
            for got, ref in ref_ops:
                ref = _ref_reduce(ref, mod)
                assert _kernel_coeffs(got) == ref
                assert isinstance(got, RationalScalar) == (len(ref) < 2)
            assert (a == b) == _ref_vanishes(poly.sub(ca, cb), root_factor)
            if _ref_vanishes(cb, root_factor):
                with pytest.raises(ZeroDivisionError):
                    a / b
            else:
                ref = _ref_reduce(poly.mul(ca, fraction_inverse(_ref_reduce(cb, mod), mod)), mod)
                assert _kernel_coeffs(a / b) == ref
            if not isinstance(b, AlgebraicScalar) and not _ref_vanishes(ca, root_factor):
                inv = fraction_inverse(_ref_reduce(ca, mod), mod)
                assert _kernel_coeffs(b / a) == _ref_reduce(poly.mul(cb, inv), mod)


def test_elem_inverse_matches_fraction_inverse():
    # one fraction-free remainder loop carrying one cofactor gives the
    # inverse as (numerators, denominator) in lowest terms, for Fraction
    # and int coefficients, and modulo the cofactor for a zero divisor
    rng = rng_for("elem-inverse")
    zero_divisors = 0
    for modulus, lo, hi, root_factor in KERNEL_FIELDS:
        field = NumberField(modulus, lo, hi)
        mod = field.modulus
        root_factor = root_factor or mod
        for c, _ in _kernel_operands(rng, field, root_factor):
            c = _ref_reduce(c, mod)
            for coeffs in (c, _split(c)[0]):
                if _ref_vanishes(coeffs, root_factor):
                    with pytest.raises(ZeroDivisionError):
                        _elem_inverse(coeffs, field)
                    continue
                zero_divisors += poly.degree(fraction_gcd(coeffs, mod)) > 0
                num, den = _elem_inverse(coeffs, field)
                assert type(den) is int and den > 0
                assert all(type(x) is int for x in num)
                assert num and num[-1] != 0 and len(num) <= field.degree
                assert gcd(den, *num) == 1
                want = poly.trim(fraction_inverse(coeffs, mod))
                assert tuple(Fraction(x, den) for x in num) == want
    assert zero_divisors >= 2


@pytest.mark.parametrize("modulus, lo, hi", [
    ([-1, -1, -1, 1], Fraction(3, 2), 2),
    ([-1, 2, 0, 7], 0, 1),
])
def test_field_operations_reduce_without_polynomial_division(monkeypatch, modulus, lo, hi):
    field = NumberField(modulus, lo, hi)
    a = AlgebraicScalar(field, (Fraction(-1, 3), 0, 1))
    b = AlgebraicScalar(field, (Fraction(2, 5), Fraction(7, 3), Fraction(1, 2)))
    divisions = _count(monkeypatch, poly, "div_mod")
    for op in (
        lambda: a + b,
        lambda: a - b,
        lambda: a * b,
        lambda: -a,
        lambda: a * Fraction(3, 7),
        lambda: a + 2,
        lambda: a / b,
    ):
        op()
        assert divisions == []


def test_isolating_interval_must_isolate():
    with pytest.raises(MalformedInput):
        algebraic([-2, 0, 1], -2, 2)  # both roots of x^2 - 2 inside
    with pytest.raises(MalformedInput):
        algebraic([-4, 0, 1], 1, 2)  # endpoint hits the root x = 2


# ---------------------------------------------------------------- operation counts


def _count(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_floor_cost_grows_with_bits_not_magnitude(monkeypatch):
    x = sqrt2() * 10**5
    eq_tests = _count(monkeypatch, AlgebraicScalar, "__eq__")
    refinements = _count(monkeypatch, NumberField, "refine_once")
    assert floor_exact(x) == 141421
    assert len(eq_tests) <= 1
    assert len(refinements) <= 64


def test_floor_tests_each_candidate_integer_once(monkeypatch):
    # 2 + (x^2 - 2)/4 is exactly 2 at sqrt(2) but its enclosure keeps
    # straddling 2 until the test fires
    g = algebraic([-4, 0, 0, 0, 1], 1, Fraction(3, 2))  # sqrt2 via x^4 - 4
    x = AlgebraicScalar(g.field, (Fraction(3, 2), 0, Fraction(1, 4)))
    eq_tests = _count(monkeypatch, AlgebraicScalar, "__eq__")
    assert floor_exact(x) == 2
    assert len(eq_tests) == 1
    y = x + Fraction(1, 10**9)
    assert floor_exact(y) == 2
    assert len(eq_tests) == 2


def test_compare_inside_fuzzy_interval_stops_early(monkeypatch):
    x = sqrt2()
    refinements = _count(monkeypatch, NumberField, "refine_once")
    fuzzy = interval(Fraction(13, 10), Fraction(3, 2))
    assert compare(x, fuzzy) is Ordering.INDETERMINATE
    assert compare(fuzzy, x) is Ordering.INDETERMINATE
    assert len(refinements) <= 16
    lo, hi = x.field.enclosure()
    assert hi.denominator < 2**16  # the shared enclosure stays small


# -------------------------------------------------- interval operands
# (x^2 - 2)(x - 3) with enclosure (2, 7/2) holds the root 3, which its
# bisection never hits, so 1 + x is 4


def _four():
    return AlgebraicScalar(NumberField([6, -2, -3, 1], 2, Fraction(7, 2)), (1, 1))


def test_an_interval_end_equal_to_the_value_refines_nothing(monkeypatch):
    # the enclosure race refined 4,096 times here and left ends of 4,097
    # bits in the shared field
    x = _four()
    refinements = _count(monkeypatch, NumberField, "refine_once")
    assert compare(interval(4, 5), x) is Ordering.INDETERMINATE
    assert compare(x, interval(4, 5)) is Ordering.INDETERMINATE
    assert refinements == [] and x.field.enclosure() == (2, Fraction(7, 2))


def test_a_point_interval_equal_to_the_value_is_equal(monkeypatch):
    refinements = _count(monkeypatch, NumberField, "refine_once")
    x = _four()
    assert compare(interval(4, 4), x) is Ordering.EQ
    assert compare(x, interval(4, 4)) is Ordering.EQ
    assert refinements == [] and x.field.enclosure() == (2, Fraction(7, 2))
    # 3 - (1 + x) reads 0 at the enclosure's lower end: one bisection
    assert compare(interval(3, 4), _four()) is Ordering.INDETERMINATE
    assert len(refinements) == 1
    assert compare(interval(4, 4), rational(4)) is Ordering.EQ
    assert compare(interval(4, 4), interval(4, 4)) is Ordering.EQ


def test_an_interval_end_sign_that_does_not_settle_raises():
    # an end within 2^-5000 of sqrt 2: its sign needs more than 4,096
    # bisections, where the race read INDETERMINATE
    end = Fraction(isqrt(2 << 10000) + 1, 1 << 5000)
    with pytest.raises(BudgetExceeded):
        compare(interval(1, end), sqrt2())


# ---------------------------------------------------------------- one enclosure race
# ``compare`` against its two-loop body on fresh operands: one field, two
# fields with different roots, and intervals.  Bisection from (5/2, 7/2)
# hits the rational root 3 at its first midpoint, and from the other
# enclosures never.

_SQRT2_FIELDS = [
    ((-2, 0, 1), 1, 2, (0, 1)),
    ((-2, 0, 0, 0, 1), 1, 2, (0, 0, 1)),  # sqrt 2 is the square of 2^(1/4)
    ((6, -2, -3, 1), 1, 2, (0, 1)),  # (x^2 - 2)(x - 3)
]
_THREE_FIELDS = [
    ((6, -2, -3, 1), Fraction(5, 2), Fraction(7, 2), (0, 1)),
    ((6, -2, -3, 1), 2, Fraction(7, 2), (0, 1)),
    ((15, -5, -3, 1), Fraction(5, 2), Fraction(7, 2), (0, 1)),  # (x^2 - 5)(x - 3)
    ((15, -5, -3, 1), Fraction(11, 4), Fraction(7, 2), (0, 1)),
    ((6, -2, 0, -3, 1), Fraction(5, 2), Fraction(7, 2), (0, 1)),  # (x^3 - 2)(x - 3)
]
_FIELD_SPECS = _SQRT2_FIELDS + _THREE_FIELDS
# a + b*u for u = sqrt 2 or 3; 5 = -1 + 2*3 = 2 + 1*3
_COORDS = [(0, 1), (1, 1), (-1, 2), (2, 1)]
_RATIONALS = [3, 4, 5, Fraction(7, 5)]
# 4 and 5 are values of the fields of 3: the race refined those 4,096
# times before it read INDETERMINATE
_INTERVALS = [
    (Fraction(7, 5), Fraction(7, 5)), (1, 2), (Fraction(141, 100), Fraction(142, 100)),
    (Fraction(5, 2), Fraction(7, 2)), (Fraction(12, 5), Fraction(5, 2)),
    (Fraction(7, 2), Fraction(9, 2)), (4, 4), (4, 5),
]


def _value_of_three(op):
    """The value of a drawn operand of a field of 3, else None."""
    if op[0] == "alg" and op[1] >= len(_SQRT2_FIELDS):
        a, b = op[2]
        return a + 3 * b
    return None


def _draw_operand(rng):
    kind = rng.random()
    if kind < 0.7:
        return ("alg", rng.randrange(len(_FIELD_SPECS)), rng.choice(_COORDS), rng.randint(0, 5))
    if kind < 0.85:
        return ("rat", rng.choice(_RATIONALS))
    return ("ivl", rng.choice(_INTERVALS))


def _build_operands(ops, share):
    """Fresh scalars for the drawn operands; with ``share``, two algebraic
    operands of one spec live in one field object."""
    out = []
    fields = {}
    for op in ops:
        if op[0] == "rat":
            out.append(rational(op[1]))
        elif op[0] == "ivl":
            out.append(interval(*op[1]))
        else:
            _, spec, (a, b), refinements = op
            modulus, lo, hi, u = _FIELD_SPECS[spec]
            key = (spec, refinements) if share else len(out)
            if key not in fields:
                fields[key] = NumberField(modulus, lo, hi)
                # a spec from (5/2, 7/2) is bisected at least once, at its root
                for _ in range(max(refinements, lo == Fraction(5, 2))):
                    fields[key].refine_once()
            out.append(AlgebraicScalar(fields[key], poly.add((a,), poly.scale(u, b))))
    return out


def test_compare_matches_the_two_loop_reference(monkeypatch):
    rng = rng_for("one-enclosure-race")
    refinements = _count(monkeypatch, NumberField, "refine_once")
    seen = set()
    # one case of each kind first, then random draws
    cases = [
        ([("alg", 0, (0, 1), 0), ("alg", 0, (1, 1), 0)], True),
        ([("ivl", (4, 4)), ("alg", 3, (1, 1), 0)], False),
        ([("alg", 4, (1, 1), 2), ("ivl", (4, 5))], False),
    ]
    for _ in range(250):
        cases.append(([_draw_operand(rng), _draw_operand(rng)], rng.random() < 0.5))
    for ops, share in cases:
        x, y = _build_operands(ops, share)
        refinements.clear()
        got = compare(x, y)
        refined = len(refinements)
        fresh = _build_operands(ops, share)
        refinements.clear()
        want = reference_compare(*fresh)
        raced = len(refinements)
        fields = [v.field for v in (x, y) if isinstance(v, AlgebraicScalar)]
        if any(isinstance(v, IntervalScalar) for v in (x, y)):
            seen.add("interval")
        elif len(fields) == 2 and fields[0] is fields[1]:
            seen.add("one field")
        elif len(fields) == 2 and fields[0].same_root(fields[1]):
            seen.add("same root")
        elif len(fields) == 2:
            seen.add("cross field")
        ends = [end for op in ops if op[0] == "ivl" for end in op[1]]
        if any(_value_of_three(op) in ends for op in ops):
            # the deliberate changes: an interval end equal to the value
            # decides at once, where the race ran its whole budget, and a
            # point interval equal to the value is EQ
            assert want is Ordering.INDETERMINATE and raced == 4096, ops
            assert refined <= 2, ops
            point = x.is_exact() and y.is_exact()
            assert got is (Ordering.EQ if point else Ordering.INDETERMINATE), ops
            seen.add("point equals value" if point else "end equals value")
        else:
            assert got is want, ops
    assert seen == {
        "interval", "one field", "same root", "cross field",
        "end equals value", "point equals value",
    }


def test_equal_pinned_roots_of_two_fields_compare_equal_at_once(monkeypatch):
    # x = 3 in (x^2 - 2)(x - 3) and in (x^2 - 5)(x - 3), each enclosure
    # (5/2, 7/2) bisected once at its root: once pinned to the point 3,
    # they raised BudgetExceeded after 4,096 rounds; the enclosures now
    # stay open, and the Sturm certificate holds at once
    x = algebraic([6, -2, -3, 1], Fraction(5, 2), Fraction(7, 2))
    y = algebraic([15, -5, -3, 1], Fraction(5, 2), Fraction(7, 2))
    x.field.refine_once()
    y.field.refine_once()
    refinements = _count(monkeypatch, NumberField, "refine_once")
    assert compare(x, y) is Ordering.EQ and compare(y + 1, x) is Ordering.GT
    assert refinements == []


def test_constant_elements_of_two_fields_compare_as_rationals(monkeypatch):
    # a constant element is the rational it stores, whatever the root of
    # its field: 4 in Q(sqrt 2) and 4 in Q(cbrt 2) compare with no Sturm
    # chain and no refinement, where the race across fields built three
    # chains and decided EQ only when both enclosures were the point 4
    f = NumberField([-2, 0, 1], 1, 2)
    g = NumberField([-2, 0, 0, 1], 1, 2)
    four, other_four, five = (
        AlgebraicScalar(f, (4,)), AlgebraicScalar(g, (4,)), AlgebraicScalar(g, (5,))
    )
    assert {type(x) for x in (four, other_four, five)} == {AlgebraicScalar}
    chains = _count(monkeypatch, poly, "sturm_chain")
    refinements = _count(monkeypatch, NumberField, "refine_once")
    assert compare(four, other_four) is Ordering.EQ
    assert compare(four, five) is Ordering.LT and compare(five, four) is Ordering.GT
    assert chains == [] and refinements == []


def _isolating_intervals(p):
    """Open intervals around every real root of the square-free p, with no
    root at an end, by bisection on Sturm counts."""
    chain = poly.sturm_chain(p)
    bound = 1 + max(abs(Fraction(c, p[-1])) for c in p[:-1])
    out, todo = [], [(-bound, bound)]
    while todo:
        lo, hi = todo.pop()
        n = poly.count_roots(chain, lo, hi)
        if n == 1:
            out.append((lo, hi))
        elif n > 1:
            mid = (lo + hi) / 2
            while poly.evaluate(p, mid) == 0:
                mid = (mid + hi) / 2
            todo += [(lo, mid), (mid, hi)]
    return out


# square-free products of distinct irreducible factors
_REDUCIBLE = [
    ((-2, 0, 1), (-3, 1)),
    ((-2, 0, 0, 1), (-3, 1)),
    ((-5, 0, 1), (-3, 1), (1, 1)),
    ((-1, -1, 1), (-2, 0, 0, 1), (-1, 1)),
]


def test_zero_test_and_same_root_agree_with_sturm_counts(monkeypatch):
    rng = rng_for("endpoint-signs")
    zero_cases, root_cases = [], []
    for factors in _REDUCIBLE:
        modulus = (1,)
        for f in factors:
            modulus = poly.mul(modulus, f)
        enclosures = _isolating_intervals(modulus)
        if (-3, 1) in factors:
            enclosures.append((Fraction(5, 2), Fraction(7, 2)))  # pins 3
        fields = []
        for lo, hi in enclosures:
            for _ in range(3):
                field = NumberField(modulus, lo, hi)
                for _ in range(rng.randint(0, 5)):
                    field.refine_once()
                fields.append(field)
        for field in fields:
            for _ in range(6):
                cofactor = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)]
                c = poly.mul(rng.choice(factors + ((1,),)), cofactor)
                if rng.random() < 0.2:
                    c = poly.add(c, (Fraction(1, 10**6),))
                zero_cases.append((poly.div_mod(c, modulus)[1], field))
            root_cases += [(field, rng.choice(fields)) for _ in range(4)]
    want_zero = [sturm_is_zero(c, f) for c, f in zero_cases]
    want_root = [sturm_same_root(f, g) for f, g in root_cases]

    def refuse(*args):
        raise AssertionError("a Sturm chain after the field was built")

    monkeypatch.setattr(poly, "sturm_chain", refuse)
    assert [_elem_is_zero(c, f) for c, f in zero_cases] == want_zero
    assert [f.same_root(g) for f, g in root_cases] == want_root
    assert set(want_zero) == set(want_root) == {True, False}


def test_reprs_stay_printable_past_the_digit_limit():
    # an endpoint past Python's int/str digit limit shows its bit length
    big = Fraction(10**5000 + 1, 3)
    assert repr(interval(1, big)) == "IntervalScalar(1, <16610 bits>/<2 bits>)"
    assert repr(rational(-big)) == "RationalScalar(-<16610 bits>/<2 bits>)"
    assert "<16610 bits>" in repr(ScalarVector([rational(1), rational(big)]))


# ---------------------------------------------------------------- normalized


def _count_inverses(monkeypatch):
    calls = []
    inverse = scalars_module._elem_inverse
    monkeypatch.setattr(
        scalars_module, "_elem_inverse", lambda *a: calls.append(a) or inverse(*a)
    )
    return calls


@pytest.mark.parametrize("rank", [2, 3, 5])
def test_normalizing_inverts_an_algebraic_head_once(monkeypatch, rank):
    g = algebraic([-2, 0, 0, 1], 1, 2)
    entries = [g * g + 1] + [g + k for k in range(rank - 2)] + [rational(1)]
    vec = ScalarVector(entries)
    calls = _count_inverses(monkeypatch)
    got = vec.normalized()
    assert len(calls) == 1
    assert type(got[0]) is RationalScalar and got[0].value == 1
    for x, e in zip(got, entries):
        assert compare(x * entries[0], e) is Ordering.EQ


def test_normalizing_sets_a_zero_divisor_head_to_exactly_one():
    # x - 2 is a zero divisor modulo (x - 2)(x^2 - 3) that does not vanish
    # at sqrt 3: its inverse is taken modulo x^2 - 3, so head times inverse
    # is not the polynomial 1, but the head becomes 1 all the same
    field = NumberField([6, -3, -2, 1], Fraction(17, 10), Fraction(18, 10))
    head = AlgebraicScalar(field, (-2, 1))
    other = AlgebraicScalar(field, (1, 1, 1))
    got = ScalarVector([head, other]).normalized()
    assert type(got[0]) is RationalScalar and got[0].value == 1
    assert compare(got[1] * head, other) is Ordering.EQ


def test_normalizing_rational_and_interval_heads_matches_division():
    for entries in (
        [rational(3, 2), rational(5, 7), rational(1), rational(-4)],
        [interval(Fraction(9, 10), Fraction(11, 10)), interval(2, 3), rational(1)],
    ):
        got = ScalarVector(entries).normalized()
        assert type(got[0]) is RationalScalar and got[0].value == 1
        for x, e in zip(got.entries[1:], entries[1:]):
            want = e / entries[0]
            assert x.enclosure() == want.enclosure()
