from fractions import Fraction

import pytest

from conftest import rng_for
from jperron.errors import IndeterminateFloor, MalformedInput
from jperron.scalars import (
    AlgebraicScalar,
    IntervalScalar,
    NumberField,
    Ordering,
    RationalScalar,
    ScalarVector,
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


def test_same_root_with_a_pinned_rational_root():
    # (x^2 - 2)(x - 3) bisected from (5/2, 7/2) pins the root 3 at once
    pinned = NumberField([6, -2, -3, 1], Fraction(5, 2), Fraction(7, 2))
    pinned.refine_once()
    assert pinned.enclosure() == (3, 3)
    assert pinned.same_root(NumberField([6, -2, -3, 1], 2, Fraction(7, 2)))
    assert not pinned.same_root(NumberField([6, -2, -3, 1], 1, 2))
    other = NumberField([6, -2, -3, 1], Fraction(11, 4), Fraction(13, 4))
    other.refine_once()
    assert pinned.same_root(other) and other.same_root(pinned)
