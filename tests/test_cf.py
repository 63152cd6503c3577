import dataclasses
import json
import math
from fractions import Fraction

import pytest

from conftest import (
    random_positive_fraction,
    reference_detect_period,
    reference_expand_certified,
    reference_expand_tagged,
    rng_for,
    termwise_mat_vec,
    tribonacci_vector,
)
from jperron import cf as cf_module
from jperron import cli, intmat
from jperron import polynomials as poly
from jperron import scalars as scalars_module
from jperron.bratteli import is_stationary
from jperron.cf import (
    Expansion,
    Tail,
    convergent,
    detect_period,
    euclid_chain,
    euclid_gcd,
    expand_certified,
    expansion_from_json,
    expansion_to_json,
    jpa_expand,
    jpa_step,
    prefix_product,
    projectively_equal,
    regular_cf,
    scalar_mat_vec,
    step_matrix,
)
from jperron.representation import GeneratorAction, build_representation
from jperron.errors import (
    DepthExceeded,
    EmptyInput,
    IndeterminateFloor,
    MalformedInput,
    NonPositiveEntry,
    NonPositiveState,
)
from jperron.scalars import (
    AlgebraicScalar,
    IntervalScalar,
    RationalScalar,
    NumberField,
    ScalarVector,
    algebraic,
    floor_exact,
    interval,
    rational,
    vector_to_json,
)


def golden():
    return algebraic([-1, -1, 1], 1, 2)


# ---------------------------------------------------------------- euclid


def test_euclid_identical_inputs():
    assert euclid_gcd([12, 12]) == 12


def test_euclid_chain_10_7():
    g, quotients = euclid_chain(10, 7)
    assert g == 1
    assert quotients == [1, 2, 3]


def test_euclid_gcd_three_values():
    assert euclid_gcd([9, 6, 3]) == 3


def test_euclid_gcd_matches_pairwise_oracle():
    rng = rng_for("euclid-oracle")
    for _ in range(200):
        n = rng.randint(2, 6)
        vals = [rng.randint(1, 10**6) for _ in range(n)]
        expected = 0
        for v in vals:
            expected = math.gcd(expected, v)
        assert euclid_gcd(vals) == expected


def test_euclid_errors():
    with pytest.raises(EmptyInput):
        euclid_gcd([5])
    with pytest.raises(NonPositiveEntry):
        euclid_gcd([4, 0])


def test_euclid_gcd_equals_math_gcd_for_two_to_five_values():
    rng = rng_for("euclid-math-gcd")
    for n in range(2, 6):
        cases = [[1] * n, [7] * n, [1] + [12] * (n - 1), [12] * (n - 1) + [1]]
        for _ in range(80):
            vals = [rng.choice([1, rng.randint(1, 60), rng.randint(1, 10**9)]) for _ in range(n)]
            if rng.random() < 0.3:
                vals[rng.randrange(n)] = vals[0]
            cases.append(vals)
        for vals in cases:
            assert euclid_gcd(vals) == math.gcd(*vals), vals


# ---------------------------------------------------------------- regular cf


def test_regular_cf_10_7():
    e = regular_cf(Fraction(10, 7), 32)
    assert [b[0] for b in e.blocks] == [1, 2, 3]
    assert e.tail.kind == "terminated"


def test_regular_cf_integer():
    e = regular_cf(3, 32)
    assert [b[0] for b in e.blocks] == [3]
    assert e.tail.kind == "terminated"


def test_regular_cf_golden_depth_5():
    e = regular_cf(golden(), 5)
    assert [b[0] for b in e.blocks] == [1, 1, 1, 1, 1]
    assert e.tail.kind == "truncated"


def test_regular_cf_rejects_nonpositive():
    with pytest.raises(NonPositiveState):
        regular_cf(Fraction(-1, 2), 4)


# ---------------------------------------------------------------- jpa steps


def test_jpa_step_example():
    b, nxt = jpa_step(ScalarVector([1, Fraction(7, 5), Fraction(11, 5)]))
    assert b == (1, 2)
    assert [e.value for e in nxt.entries] == [1, Fraction(1, 2), Fraction(5, 2)]
    # the step matrix applied to (1, next) is proportional to (1, old)
    m = step_matrix(b)
    back = scalar_mat_vec(m, nxt.entries)
    assert projectively_equal(
        back, ScalarVector([1, Fraction(7, 5), Fraction(11, 5)]).entries
    )


def test_jpa_step_terminates_on_integer_vector():
    b, nxt = jpa_step(ScalarVector([1, 2, 3]))
    assert b == (2, 3)
    assert nxt is None


def test_jpa_step_rank2_is_euclid_step():
    b, nxt = jpa_step(ScalarVector([1, Fraction(10, 7)]))
    assert b == (1,)
    assert nxt.entries[1].value == Fraction(7, 3)


def test_jpa_step_requires_normalized_positive_state():
    with pytest.raises(MalformedInput):
        jpa_step(ScalarVector([2, 3, 4]))
    with pytest.raises(NonPositiveState):
        jpa_step(ScalarVector([1, Fraction(-1, 2), 1]))
    with pytest.raises(NonPositiveState):
        jpa_step(ScalarVector([1, interval(-1, 1), 1]))


def test_jpa_step_indeterminate_termination():
    with pytest.raises(IndeterminateFloor):
        # fractional part of the second entry straddles zero
        jpa_step(ScalarVector([1, interval(Fraction(9, 10), Fraction(11, 10)), 1]))


def test_jpa_expand_rational_terminates():
    e = jpa_expand([1, Fraction(7, 5), Fraction(11, 5)], 32)
    assert e.blocks == ((1, 2), (0, 2), (1, 2))
    assert e.tail.kind == "terminated"
    assert e.residual is not None
    # closing contract: P_K applied to the residual is proportional to (1, theta)
    p = prefix_product(e, e.depth)
    assert projectively_equal(scalar_mat_vec(p, e.residual), e.theta.entries)


def test_jpa_expand_depth_zero():
    e = jpa_expand([1, Fraction(7, 5), Fraction(11, 5)], 0)
    assert e.blocks == ()
    assert e.tail.kind == "truncated"


def test_jpa_expand_tribonacci_constant_blocks():
    e = jpa_expand(tribonacci_vector(), 10)
    assert e.blocks == ((1, 1),) * 10
    assert e.tail.kind == "truncated"


def test_jpa_expand_normalizes_first():
    e = jpa_expand([2, Fraction(14, 5), Fraction(22, 5)], 8)
    assert e.blocks == ((1, 2), (0, 2), (1, 2))


def test_jpa_expand_terminates_on_rationally_dependent_algebraics():
    # termination means rational dependence, not rationality: the entries
    # 1, sqrt2, 1 + sqrt2 are irrational but satisfy an integer relation
    r2 = algebraic([-2, 0, 1], 1, 2)
    theta = ScalarVector([rational(1), r2, r2 + 1])
    e = jpa_expand(theta, 20)
    assert e.blocks == ((1, 2), (1, 2))
    assert e.tail.kind == "terminated"
    assert [x.sign() for x in e.residual] == [0, 1, 1]
    p = prefix_product(e, e.depth)
    assert projectively_equal(scalar_mat_vec(p, e.residual), theta.entries)


def test_jpa_expand_interval_raises_when_data_runs_out():
    # a genuinely fuzzy interval yields digits until a floor or the
    # termination test becomes undecidable, then raises
    theta = ScalarVector([1, interval(Fraction(141, 100), Fraction(142, 100))])
    with pytest.raises(IndeterminateFloor):
        jpa_expand(theta, 64)
    # with a narrow budget, the same vector expands fine
    shallow = jpa_expand(theta, 1)
    assert shallow.blocks == ((1,),)


# ---------------------------------------------------------------- matrices


def test_step_matrix_shapes():
    assert step_matrix((1, 2)) == [[0, 0, 1], [1, 0, 1], [0, 1, 2]]
    assert step_matrix((5,)) == [[0, 1], [1, 5]]


def test_step_matrix_determinant_sign():
    rng = rng_for("stepdet")
    for _ in range(60):
        n = rng.randint(2, 7)
        b = tuple(rng.randint(0, 9) for _ in range(n - 1))
        assert intmat.det(step_matrix(b)) == (-1) ** (n + 1)


def test_step_matrix_rejects_negative_digits():
    with pytest.raises(MalformedInput):
        step_matrix((1, -1))


# ---------------------------------------------------------------- convergents


def test_convergent_depth_zero():
    e = jpa_expand([1, Fraction(7, 5), Fraction(11, 5)], 4)
    col, bound = convergent(e, 0)
    assert col == [0, 0, 1]
    assert bound is None


def test_convergent_rank2_exact():
    e = regular_cf(Fraction(10, 7), 8)
    col, bound = convergent(e, 3)
    assert col == [7, 10]
    assert Fraction(col[1], col[0]) == Fraction(10, 7)
    assert bound == 0


def test_convergent_tribonacci_geometric_decay():
    theta = tribonacci_vector()
    e = jpa_expand(theta, 20)
    _col, bound = convergent(e, 20)
    assert bound is not None
    assert bound < Fraction(1, 10**6)


def test_convergent_depth_exceeded():
    e = jpa_expand([1, Fraction(7, 5), Fraction(11, 5)], 4)
    with pytest.raises(DepthExceeded):
        convergent(e, e.depth + 1)


@pytest.mark.parametrize("eps", [0, -1, Fraction(-1, 10**9)])
def test_convergent_rejects_a_non_positive_bound_precision(eps):
    g = algebraic([-2, 0, 1], 1, 2)
    with pytest.raises(MalformedInput, match="eps must be positive"):
        convergent(jpa_expand([1, g], 5), 3, bound_eps=eps)
    rational_exp = jpa_expand([1, Fraction(7, 5), Fraction(11, 5)], 4)
    with pytest.raises(MalformedInput, match="eps must be positive"):
        convergent(rational_exp, 2, bound_eps=eps)
    # no bound is computed without an exact source, so eps is not read
    assert convergent(Expansion(2, ((1,), (2,)), Tail.truncated()), 2, eps)[1] is None


# ---------------------------------------------------------------- reconstruction laws


def test_reconstruction_and_unimodularity_random():
    rng = rng_for("reconstruction")
    for _ in range(40):
        n = rng.randint(2, 5)
        theta = ScalarVector(
            [rational(1)] + [rational(random_positive_fraction(rng, 400, 400)) for _ in range(n - 1)]
        )
        e = jpa_expand(theta, 12)
        p = intmat.identity(n)
        for k in range(1, e.depth + 1):
            p = intmat.mat_mul(p, step_matrix(e.blocks[k - 1]))
            assert abs(intmat.det(p)) == 1
            if e.states is not None and k < len(e.states):
                lhs = scalar_mat_vec(p, e.states[k].entries)
                assert projectively_equal(lhs, theta.entries)
        if e.tail.kind == "terminated":
            assert projectively_equal(scalar_mat_vec(p, e.residual), theta.entries)


def test_reconstruction_algebraic_vectors():
    # random positive vectors in a cubic field, reconstructed exactly
    rng = rng_for("reconstruction-algebraic")
    t = algebraic([-1, -1, -1, 1], Fraction(3, 2), 2)
    basis = [rational(1), t, t * t]
    for _ in range(8):
        entries = [rational(1)]
        for _ in range(2):
            coeffs = [Fraction(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(3)]
            val = sum((b * c for b, c in zip(basis, coeffs)), rational(0))
            entries.append(val + Fraction(1, 7))
        theta = ScalarVector(entries)
        if theta.is_positive() is not True:
            continue
        e = jpa_expand(theta, 6)
        p = intmat.identity(3)
        for k in range(1, e.depth + 1):
            p = intmat.mat_mul(p, step_matrix(e.blocks[k - 1]))
            assert abs(intmat.det(p)) == 1
            if k < len(e.states):
                assert projectively_equal(
                    scalar_mat_vec(p, e.states[k].entries), theta.entries
                )
        if e.tail.kind == "terminated":
            assert projectively_equal(scalar_mat_vec(p, e.residual), theta.entries)


def test_rank2_agreement_random():
    rng = rng_for("rank2-agree")
    for _ in range(100):
        x = Fraction(rng.randint(1, 9999), rng.randint(1, 9999))
        a = regular_cf(x, 64)
        b = jpa_expand([1, x], 64)
        assert a.blocks == b.blocks
        assert a.tail.kind == b.tail.kind == "terminated"


def test_termination_and_terminal_scale_random():
    rng = rng_for("terminal-scale")
    for _ in range(60):
        n = rng.randint(2, 5)
        a = [rng.randint(1, 500) for _ in range(n)]
        theta = ScalarVector([Fraction(x, 1) for x in a]).normalized()
        e = jpa_expand(theta, 256)
        assert e.tail.kind == "terminated"
        p = prefix_product(e, e.depth)
        v = intmat.mat_vec(intmat.inverse_unimodular(p), a)
        nonzero = [abs(x) for x in v if x != 0]
        expected = 0
        for x in a:
            expected = math.gcd(expected, x)
        got = 0
        for x in nonzero:
            got = math.gcd(got, x)
        assert got == expected
        assert v[-1] == expected or any(x != 0 for x in v[:-1])


# ---------------------------------------------------------------- periodicity


def test_detect_period_tribonacci(tribonacci):
    verdict = detect_period(tribonacci, 16)
    assert verdict.is_periodic and verdict.certified
    assert verdict.preperiod == 0
    assert verdict.period == ((1, 1),)
    # the period matrix fixes the vector projectively, exactly
    m = step_matrix((1, 1))
    assert projectively_equal(scalar_mat_vec(m, tribonacci.entries), tribonacci.entries)


def test_detect_period_rational_terminates():
    verdict = detect_period(ScalarVector([1, Fraction(7, 5), Fraction(11, 5)]), 16)
    assert verdict.kind == "terminated" and verdict.certified


def test_detect_period_prefixed_tribonacci(tribonacci):
    m = step_matrix((3, 4))
    shifted = ScalarVector(scalar_mat_vec(m, tribonacci.entries)).normalized()
    verdict = detect_period(shifted, 16)
    assert verdict.is_periodic
    assert verdict.preperiod == 1
    assert verdict.period == ((1, 1),)


def test_detect_period_golden_rank2():
    verdict = detect_period(ScalarVector([rational(1), golden()]), 8)
    assert verdict.is_periodic
    assert verdict.preperiod == 0 and verdict.period == ((1,),)


@pytest.mark.parametrize(
    "c,preperiod,period",
    [
        (2, 2, ((3, 3),)),
        (3, 2, ((1, 5), (1, 2))),
        (5, 7, ((0, 1), (0, 1), (0, 2), (0, 3), (1, 1), (2, 6))),
    ],
)
def test_detect_period_cube_roots(c, preperiod, period):
    # classical eventually-periodic expansions of (1, c^(1/3), c^(2/3)),
    # certified here by exact state recurrence in the cubic field
    g = algebraic([-c, 0, 0, 1], 1, 2)
    theta = ScalarVector([rational(1), g, g * g])
    verdict = detect_period(theta, 48)
    assert verdict.is_periodic and verdict.certified
    assert verdict.preperiod == preperiod
    assert verdict.period == period
    # the period product must fix the state at the cycle entry, exactly
    entry = verdict.expansion.states[verdict.preperiod]
    m = intmat.identity(3)
    for b in verdict.period:
        m = intmat.mat_mul(m, step_matrix(b))
    assert projectively_equal(scalar_mat_vec(m, entry.entries), entry.entries)


def test_detect_period_budget_is_honest():
    # a long Euclid chain with a tiny search depth: no certificate either way
    verdict = detect_period(ScalarVector([1, Fraction(10946, 6765)]), 4)
    assert verdict.kind == "aperiodic_up_to"
    assert not verdict.certified
    assert verdict.depth == 4


def test_detect_period_on_tagged_expansion():
    exp = Expansion(
        rank=3,
        blocks=((3, 4), (1, 1), (1, 1)),
        tail=Tail.periodic(1, [(1, 1)]),
    )
    verdict = detect_period(exp, 16)
    assert verdict.is_periodic and verdict.preperiod == 1


def test_detect_period_truncated_expansion_with_exact_theta(tribonacci):
    # a truncated expansion that still carries its exact source vector can
    # be re-certified from the vector itself
    exp = jpa_expand(tribonacci, 6)
    assert exp.tail.kind == "truncated"
    verdict = detect_period(exp, 16)
    assert verdict.is_periodic and verdict.certified


def test_detect_period_truncated_digits_only():
    exp = Expansion(rank=3, blocks=((1, 1),) * 6, tail=Tail.truncated())
    verdict = detect_period(exp, 16)
    assert verdict.kind == "aperiodic_up_to" and not verdict.certified


def test_periodic_tag_must_be_primitive_and_consistent():
    with pytest.raises(MalformedInput):
        Tail.periodic(0, [(1, 1), (1, 1)])
    with pytest.raises(MalformedInput):
        Expansion(rank=3, blocks=((1, 1), (2, 2)), tail=Tail.periodic(0, [(1, 1)]))


# ---------------------------------------------------------------- json


def test_expansion_json_round_trip(tribonacci):
    e = detect_period(tribonacci, 16).expansion
    back = expansion_from_json(expansion_to_json(e))
    assert back.rank == e.rank
    assert back.blocks == e.blocks
    assert back.tail == e.tail
    assert back.theta == e.theta


def test_expansion_json_rejects_bad_tail():
    with pytest.raises(MalformedInput):
        expansion_from_json({"rank": 2, "blocks": [[1]], "tail": {"kind": "wat"}})
    with pytest.raises(MalformedInput):
        expansion_from_json([1, 2, 3])


# ---------------------------------------------------------------- integer kernel


def _scalar_loop(theta, max_depth):
    """The jpa_step loop that rational expansion reproduces in integers."""
    state = ScalarVector.coerce(theta).normalized()
    states, blocks, residual = [state], [], None
    for _ in range(max_depth):
        digits, nxt = jpa_step(state)
        blocks.append(digits)
        if nxt is None:
            fracs = [x - b for x, b in zip(state.entries[1:], digits)]
            residual = tuple(fracs) + (rational(1),)
            break
        state = nxt
        states.append(state)
    return blocks, states, residual


def _values(entries):
    assert all(isinstance(x, RationalScalar) for x in entries)
    return [x.value for x in entries]


def _assert_kernel_matches(theta, max_depth):
    e = jpa_expand(theta, max_depth)
    blocks, states, residual = _scalar_loop(theta, max_depth)
    assert list(e.blocks) == blocks
    assert e.tail.kind == ("truncated" if residual is None else "terminated")
    assert _values(e.theta) == _values(states[0])
    assert [_values(s) for s in e.states] == [_values(s) for s in states]
    if residual is None:
        assert e.residual is None
    else:
        assert _values(e.residual) == _values(residual)
    return e


def _random_rational_vector(rng, rank, bits):
    return [
        Fraction(rng.randint(1, 1 << bits), rng.randint(1, 1 << bits))
        for _ in range(rank)
    ]


def test_kernel_matches_scalar_loop_random():
    rng = rng_for("integer-kernel")
    for rank in range(2, 7):
        for bits in (1, 3, 16, 64, 256):
            for _ in range(3):
                theta = _random_rational_vector(rng, rank, bits)
                e = _assert_kernel_matches(theta, 1 << 12)
                assert e.tail.kind == "terminated"


def test_kernel_matches_scalar_loop_truncated_depths():
    rng = rng_for("integer-kernel-depths")
    for rank in range(2, 7):
        theta = _random_rational_vector(rng, rank, 40)
        full = jpa_expand(theta, 1 << 12).depth
        for depth in (0, 1, full // 2, full - 1, full, full + 1):
            _assert_kernel_matches(theta, depth)


def test_kernel_matches_scalar_loop_zero_interior_coordinates():
    # small common denominators make fractional parts vanish mid-vector
    rng = rng_for("integer-kernel-zeros")
    zero_states = 0
    for _ in range(120):
        rank = rng.randint(3, 6)
        den = rng.randint(2, 6)
        theta = [Fraction(1)] + [
            Fraction(rng.randint(1, 3 * den), rng.choice((1, den)))
            for _ in range(rank - 1)
        ]
        e = _assert_kernel_matches(theta, 64)
        zero_states += sum(
            any(x.value == 0 for x in s.entries[1:]) for s in e.states
        )
    assert zero_states > 0


def test_kernel_rank2_matches_regular_cf():
    rng = rng_for("integer-kernel-rank2")
    for bits in (1, 8, 64, 256):
        for _ in range(5):
            x = Fraction(rng.randint(1, 1 << bits), rng.randint(1, 1 << bits))
            a = regular_cf(x, 1 << 12)
            b = jpa_expand([1, x], 1 << 12)
            assert a.blocks == b.blocks
            assert a.tail == b.tail
            assert [_values(s) for s in a.states] == [_values(s) for s in b.states]
            assert _values(a.residual) == _values(b.residual)


def test_rational_paths_never_call_the_scalar_step(monkeypatch):
    def refuse(*args):
        raise AssertionError("scalar path taken on rational input")

    monkeypatch.setattr(cf_module, "_step", refuse)
    monkeypatch.setattr(intmat, "mat_mul", refuse)
    e = jpa_expand([1, Fraction(7, 5), Fraction(11, 5)], 32)
    assert e.blocks == ((1, 2), (0, 2), (1, 2))
    assert prefix_product(e, e.depth) == [[1, 2, 5], [1, 3, 7], [2, 4, 11]]
    verdict = detect_period(ScalarVector([1, Fraction(7, 5), Fraction(11, 5)]), 16)
    assert verdict.kind == "terminated" and verdict.expansion.blocks == e.blocks
    verdict = detect_period(ScalarVector([1, Fraction(10946, 6765)]), 4)
    assert verdict.kind == "aperiodic_up_to"


# verdicts of the scalar-step implementation, which also searched for a
# state recurrence; a rational state never recurs, so nothing else changes
_PINNED_VERDICTS = [
    ((1, Fraction(1, 2), 0, Fraction(3, 4)), 4, 4, "terminated", 2),
    ((1, Fraction(3, 7), 1, 2, Fraction(5, 7)), 4, 4, "terminated", 2),
    ((3, 5, 7, 11), 4, 4, "terminated", 3),
    ((1, Fraction(10946, 6765)), 8, 8, "aperiodic_up_to", 16),
    ((2, Fraction(-1, 2)), 0, 0, "aperiodic_up_to", 0),
    (
        (1, Fraction(2**64 + 1, 3**40), Fraction(5**30, 7**20)),
        3,
        5,
        "aperiodic_up_to",
        8,
    ),
]


@pytest.mark.parametrize("theta,pre,per,kind,depth", _PINNED_VERDICTS)
def test_detect_period_rational_verdicts_unchanged(theta, pre, per, kind, depth):
    verdict = detect_period(ScalarVector(list(theta)), pre + per)
    assert (verdict.kind, verdict.depth) == (kind, depth)
    assert verdict.certified == (kind == "terminated")
    assert verdict.preperiod is None and verdict.period is None
    if kind == "terminated":
        assert verdict.note == "expansion terminated (rationally dependent input)"
        blocks, states, residual = _scalar_loop(theta, pre + per)
        exp = verdict.expansion
        assert list(exp.blocks) == blocks and exp.tail.kind == "terminated"
        assert [_values(s) for s in exp.states] == [_values(s) for s in states]
        assert _values(exp.residual) == _values(residual)
        assert _values(exp.theta) == _values(states[0])
    else:
        assert verdict.note == "no exact recurrence within the searched depth"
        assert verdict.expansion is None


def test_detect_period_rational_matches_scalar_loop_random():
    rng = rng_for("integer-kernel-verdicts")
    for _ in range(40):
        theta = _random_rational_vector(rng, rng.randint(2, 6), rng.choice((4, 32)))
        pre, per = rng.randint(0, 6), rng.randint(0, 6)
        verdict = detect_period(ScalarVector(theta), pre + per)
        blocks, _, residual = _scalar_loop(theta, pre + per)
        if residual is None:
            assert (verdict.kind, verdict.depth) == ("aperiodic_up_to", pre + per)
        else:
            assert (verdict.kind, verdict.depth) == ("terminated", len(blocks))
            assert list(verdict.expansion.blocks) == blocks


def test_detect_period_rejects_negative_rational_entries():
    with pytest.raises(NonPositiveState):
        detect_period(ScalarVector([1, Fraction(-1, 2)]), 2)


def test_detect_period_stops_where_interval_data_runs_out():
    theta = ScalarVector([1, interval(Fraction(141, 100), Fraction(142, 100))])
    steps = 0
    while True:
        try:
            jpa_expand(theta, steps + 1)
        except IndeterminateFloor:
            break
        steps += 1
    verdict = detect_period(theta, 16)
    assert (verdict.kind, verdict.depth, verdict.certified) == (
        "aperiodic_up_to", steps, False
    )
    assert verdict.note == "floor became indeterminate; interval data exhausted"


def _detect_period_subjects():
    t = tribonacci_vector()
    g = algebraic([-3, 0, 0, 1], 1, 2)
    cube = ScalarVector([rational(1), g, g * g])
    ivl = ScalarVector([1, interval(Fraction(141, 100), Fraction(142, 100))])
    rat = ScalarVector([1, Fraction(7, 5), Fraction(11, 5)])
    periodic = Tail.periodic(1, [(2, 1)])
    rotated = Tail.periodic(1, [(2,), (1,)])
    return {
        "periodic tag": (Expansion(3, ((1, 2), (2, 1), (2, 1)), periodic), 4),
        "periodic tag, not canonical": (
            Expansion(2, ((1,), (2,), (1,), (2,)), rotated), 0
        ),
        "terminated tag": (Expansion(2, ((1,), (3,)), Tail.terminated()), 4),
        "truncated, no theta": (Expansion(2, ((1,), (2,)), Tail.truncated()), 8),
        "truncated, interval theta": (jpa_expand(ivl, 2), 8),
        "truncated, rational theta": (jpa_expand(rat, 1), 16),
        "truncated tribonacci": (jpa_expand(t, 3), 8),
        "truncated cube root of 3": (jpa_expand(cube, 1), 4),
        "truncated cube root of 3, budget 2": (jpa_expand(cube, 1), 2),
        "truncated quartic": (jpa_expand(_quartic(), 5), 6),
        "rational vector": (rat, 16),
        "tribonacci vector": (t, 8),
        "quartic vector": (_quartic(), 6),
        "interval vector": (ivl, 16),
    }


# (kind, depth, preperiod, period, certified, note) of each subject, as
# the search gave them with its own branch for tagged and truncated
# expansions
_TAGGED = "expansion carries a %s tag"
_RECURS = "state recurrence certified exactly"
_NO_RECURRENCE = "no exact recurrence within the searched depth"
_DEPENDENT = "expansion terminated (rationally dependent input)"
_PINNED_SUBJECT_VERDICTS = {
    "periodic tag": ("periodic", 3, 1, ((2, 1),), True, _TAGGED % "periodic"),
    "periodic tag, not canonical": (
        "periodic", 4, 0, ((1,), (2,)), True, _TAGGED % "periodic"
    ),
    "terminated tag": ("terminated", 2, None, None, True, _TAGGED % "terminated"),
    "truncated, no theta": (
        "aperiodic_up_to", 2, None, None, False,
        "truncated digit data cannot certify periodicity",
    ),
    "truncated, interval theta": (
        "aperiodic_up_to", 2, None, None, False,
        "truncated digit data cannot certify periodicity",
    ),
    "truncated, rational theta": ("terminated", 3, None, None, True, _DEPENDENT),
    "truncated tribonacci": ("periodic", 1, 0, ((1, 1),), True, _RECURS),
    "truncated cube root of 3": ("periodic", 4, 2, ((1, 5), (1, 2)), True, _RECURS),
    "truncated cube root of 3, budget 2": (
        "aperiodic_up_to", 2, None, None, False, _NO_RECURRENCE
    ),
    "truncated quartic": ("aperiodic_up_to", 6, None, None, False, _NO_RECURRENCE),
    "rational vector": ("terminated", 3, None, None, True, _DEPENDENT),
    "tribonacci vector": ("periodic", 1, 0, ((1, 1),), True, _RECURS),
    "quartic vector": ("aperiodic_up_to", 6, None, None, False, _NO_RECURRENCE),
    "interval vector": (
        "aperiodic_up_to", 3, None, None, False,
        "floor became indeterminate; interval data exhausted",
    ),
}


def test_detect_period_keeps_its_verdicts_and_notes():
    for name, (subject, budget) in _detect_period_subjects().items():
        v = detect_period(subject, budget)
        got = (v.kind, v.depth, v.preperiod, v.period, v.certified, v.note)
        assert got == _PINNED_SUBJECT_VERDICTS[name], name


def test_detect_period_rejects_a_zero_leading_entry():
    # dividing by the head used to raise ZeroDivisionError
    for theta in ([0, 1], [rational(0), golden()], [interval(-1, 1), 1]):
        with pytest.raises(NonPositiveState):
            detect_period(ScalarVector(theta), 8)


# ---------------------------------------------------------------- certified expansion


def _quartic():
    g = algebraic([-2, 0, 0, 0, 1], 1, 2)
    return ScalarVector([rational(1), g, g * g, g * g * g])


def _certified_inputs():
    rng = rng_for("expand-certified")
    out = [ScalarVector(_random_rational_vector(rng, rank, 8)) for rank in (2, 3, 4)]
    out.append(ScalarVector([1, Fraction(10946, 6765)]))
    t = tribonacci_vector()
    out.append(t)
    shifted = scalar_mat_vec(step_matrix((3, 4)), t.entries)
    out.append(ScalarVector(shifted).normalized())
    for c in (3, 5):
        g = algebraic([-c, 0, 0, 1], 1, 2)
        out.append(ScalarVector([rational(1), g, g * g]))
    out.append(_quartic())
    return out


def test_expand_certified_matches_search_then_expand():
    # build_representation's call: a budget of twice the depth
    for theta in _certified_inputs():
        for budget in range(9):
            got = expand_certified(theta, budget, 2 * budget)
            assert got == reference_expand_tagged(theta, budget)
            # a terminated expansion has no state after its last block
            after_last = got.tail.kind != "terminated"
            assert len(got.states) == got.depth + after_last


def test_expand_certified_expands_once(monkeypatch):
    # no period within the budget: the search steps are reused, not redone
    calls = []
    step = cf_module._step

    def counting(state):
        calls.append(state)
        return step(state)

    monkeypatch.setattr(cf_module, "_step", counting)
    theta = _quartic()
    for depth, pre, per in ((6, 4, 4), (12, 4, 4), (0, 3, 2), (5, 0, 0)):
        calls.clear()
        exp = expand_certified(theta, depth, pre + per)
        assert exp.depth == depth and exp.tail.kind == "truncated"
        assert len(calls) == max(depth, pre + per)
        assert exp == jpa_expand(theta, depth)


def test_expand_certified_rejects_non_positive_input():
    for theta in ([1, 0], [1, Fraction(1, 2), 0], [0, 1], [1, -1]):
        with pytest.raises(NonPositiveState):
            expand_certified(ScalarVector(theta), 4, 8)


def test_expand_certified_interval_input_is_not_searched():
    theta = ScalarVector([1, interval(Fraction(141, 100), Fraction(142, 100))])
    # interval scalars have no exact equality: compare their endpoints
    assert repr(expand_certified(theta, 1, 16)) == repr(jpa_expand(theta, 1))
    with pytest.raises(IndeterminateFloor):
        expand_certified(theta, 64, 16)


# ---------------------------------------------------------------- step products


def _naive_prefix(rank, blocks):
    m = intmat.identity(rank)
    for b in blocks:
        m = intmat.mat_mul(m, step_matrix(b))
    return m


def test_prefix_product_matches_matrix_fold():
    rng = rng_for("step-product")
    for rank in range(2, 7):
        blocks = [
            tuple(rng.choice((0, 0, 1, 2, 7, 1000)) for _ in range(rank - 1))
            for _ in range(25)
        ]
        exp = Expansion(rank=rank, blocks=tuple(blocks), tail=Tail.truncated())
        for k in range(len(blocks) + 1):
            assert prefix_product(exp, k) == _naive_prefix(rank, blocks[:k])


# ---------------------------------------------------------------- field step


def _divided_step(state):
    """The step with every fractional part divided by the head separately."""
    digits = tuple(floor_exact(x) for x in state.entries[1:])
    fracs = [x - b for x, b in zip(state.entries[1:], digits)]
    if fracs[0].sign() == 0:
        return digits, None
    head = fracs[0]
    return digits, [rational(1)] + [f / head for f in fracs[1:]] + [rational(1) / head]


def _assert_same_scalar(a, b):
    assert type(a) is type(b)
    if isinstance(a, AlgebraicScalar):
        assert a.field is b.field and a.coeffs == b.coeffs
    elif isinstance(a, IntervalScalar):
        assert (a.lo, a.hi) == (b.lo, b.hi)
    else:
        assert a.value == b.value


def _random_state(rng, g, rank):
    entries = [rational(1)]
    for _ in range(rank - 1):
        kind = rng.choice(("alg", "alg", "rat"))
        if kind == "rat":
            entries.append(rational(rng.randint(0, 40), rng.randint(1, 9)))
        else:
            x = rational(rng.randint(0, 9), rng.randint(1, 5))
            power = rational(1)
            for _ in range(3):
                power = power * g
                x = x + power * Fraction(rng.randint(0, 9), rng.randint(1, 5))
            entries.append(x)
    return ScalarVector(entries)


def test_jpa_step_matches_divided_step_ranks_2_to_5():
    rng = rng_for("one-inverse-step")
    g = algebraic([-2, 0, 0, 0, 1], 1, 2)
    steps = 0
    for rank in range(2, 6):
        for _ in range(12):
            state = _random_state(rng, g, rank)
            for _ in range(4):
                digits, nxt = jpa_step(state)
                want_digits, want = _divided_step(state)
                assert digits == want_digits
                if want is None:
                    assert nxt is None
                    break
                assert len(nxt) == len(want)
                for a, b in zip(nxt.entries, want):
                    _assert_same_scalar(a, b)
                state = nxt
                steps += 1
    assert steps > 100
    # interval states divide by an interval head
    state = ScalarVector(
        [
            rational(1),
            interval(Fraction(13, 10), Fraction(14, 10)),
            interval(2, Fraction(21, 10)),
        ]
    )
    digits, nxt = jpa_step(state)
    want_digits, want = _divided_step(state)
    assert digits == want_digits
    for a, b in zip(nxt.entries, want):
        _assert_same_scalar(a, b)


def test_algebraic_expansion_inverts_once_per_step(monkeypatch):
    g = algebraic([-2, 0, 0, 0, 1], 1, 2)
    theta = [1, g, g * g, g * g * g]
    counts = {"_elem_inverse": 0, "extended_gcd": 0, "_step": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(
        scalars_module,
        "_elem_inverse",
        counted("_elem_inverse", scalars_module._elem_inverse),
    )
    monkeypatch.setattr(
        poly, "extended_gcd", counted("extended_gcd", poly.extended_gcd)
    )
    monkeypatch.setattr(cf_module, "_step", counted("_step", cf_module._step))
    e = jpa_expand(theta, 48)
    assert e.depth == 48 and e.tail.kind == "truncated"
    # the inverse runs the remainder loop itself, not ``extended_gcd``
    assert counts == {"_elem_inverse": 48, "extended_gcd": 0, "_step": 48}


def test_exact_loop_states_are_not_checked_again(monkeypatch):
    # the input state is checked once, where it enters, and a state the
    # loop built from exact entries is valid by construction: the
    # quartic's 48 steps test 3 signs for the input's positivity and one
    # termination sign per step (the loop checking its input state again
    # made 54, and checking every state 195)
    g = algebraic([-2, 0, 0, 0, 1], 1, 2)
    theta = [1, g, g * g, g * g * g]
    calls = [0]
    sign = scalars_module._elem_sign

    def counting(*args):
        calls[0] += 1
        return sign(*args)

    monkeypatch.setattr(scalars_module, "_elem_sign", counting)
    e = jpa_expand(theta, 48)
    assert e.depth == 48 and e.tail.kind == "truncated"
    assert calls[0] == 51


def test_interval_states_are_still_checked():
    # a step from interval data can leave an entry of uncertain sign: here
    # the fractional part [0, 1/10] of [2, 21/10] over [3/10, 4/10]
    state = ScalarVector(
        [
            rational(1),
            interval(Fraction(13, 10), Fraction(14, 10)),
            interval(2, Fraction(21, 10)),
        ]
    )
    digits, nxt = jpa_step(state)
    assert digits == (1, 2)
    with pytest.raises(NonPositiveState, match="cannot certify the sign"):
        jpa_step(nxt)


def test_an_interval_head_is_divided_out_to_exactly_one():
    # the head of a normalized vector is rational(1) by construction: an
    # interval head no longer leaves [9/11, 11/9] behind for the state
    # check to refuse, and the run stops where the data does
    with pytest.raises(IndeterminateFloor):
        jpa_expand([interval(Fraction(9, 10), Fraction(11, 10)), 3, 5], 3)
    x, y = Fraction(31415926, 10**7), Fraction(27182818, 10**7)
    point = jpa_expand([1, x, y], 32)
    assert point.tail.kind == "terminated" and point.depth == 14
    eps = Fraction(1, 10**9)
    narrow = [interval(1 - eps, 1 + eps), x, y]
    certified = 0
    for depth in range(1, point.depth + 1):
        try:
            exp = jpa_expand(narrow, depth)
        except IndeterminateFloor:
            break
        assert exp.states[0][0] == rational(1)
        assert exp.blocks == point.blocks[:depth]
        certified = depth
    assert certified >= 8


_MIXED = [
    rational(1),
    interval(Fraction(14, 10), Fraction(15, 10)),
    algebraic([-2, 0, 1], 1, 2),
]


@pytest.mark.parametrize("point", [False, True])
@pytest.mark.parametrize("interval_first", [True, False])
def test_mixed_interval_and_algebraic_input_is_malformed(interval_first, point):
    # the check runs when the vector is built, before any arithmetic; a
    # point interval is exact and used to reach the field arithmetic
    ivl = interval(Fraction(3, 2), Fraction(3, 2)) if point else _MIXED[1]
    pair = [ivl, _MIXED[2]] if interval_first else [_MIXED[2], ivl]
    theta = [rational(1)] + pair
    m = [[1, 0, 0], [0, 1, 0], [1, 1, 1]]
    for run in (
        lambda: jpa_expand(theta, 3),
        lambda: expand_certified(theta, 3, 8),
        lambda: detect_period(theta, 8),
        lambda: jpa_step(theta),
        lambda: build_representation(theta, [GeneratorAction("m", matrix=m)], 4),
    ):
        with pytest.raises(MalformedInput, match="mix interval and algebraic"):
            run()


@pytest.mark.parametrize("interval_first", [True, False])
def test_mixed_vectors_exit_1_through_the_cli(capsys, interval_first):
    ivl = {"ivl": {"lo": [14, 10], "hi": [15, 10]}}
    alg = {"alg": {"poly": [-2, 0, 1], "lo": [1, 1], "hi": [2, 1]}}
    theta = [1, ivl, alg] if interval_first else [1, alg, ivl]
    for argv in (
        ["expand", "--theta", json.dumps(theta), "--depth", "3"],
        ["represent", "--theta", json.dumps({"theta": theta, "generators": []})],
    ):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "parse" and "mix" in payload["message"]


def test_scalar_mat_vec_matches_termwise_sum():
    # one reduction per row gives the unique normal form that adding the
    # reduced terms one by one gives, demotions to rationals included
    rng = rng_for("mat-vec-rows")
    fields = [
        NumberField([-2, 0, 0, 0, 1], 1, 2),
        NumberField([-1, 2, 0, 7], 0, 1),  # not monic
        NumberField([6, -2, -3, 1], 1, 2),  # (x^2 - 2)(x - 3), root sqrt 2
    ]

    def rand():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    vectors = [[rational(1), rational(7, 5)], [rational(0), rational(-3, 4), rational(5)]]
    for trial in range(90):
        field = fields[trial % len(fields)]
        vec = []
        for _ in range(rng.randint(2, 5)):
            if rng.randrange(3):
                coeffs = [rand() for _ in range(rng.randint(0, field.degree))]
                vec.append(AlgebraicScalar(field, coeffs))
            else:
                vec.append(rational(rand()))
        vec.append(vec[0])  # a row with c and -c on it cancels
        vectors.append(vec)
    # other vectors add term by term
    vectors.append([rational(1), interval(1, 2), rational(-3, 2)])
    vectors.append([golden(), golden()])  # two field objects, one root
    for vec in vectors:
        n = len(vec)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        m.append([1] + [0] * (n - 2) + [-1])
        m.append([0] * n)
        got = scalar_mat_vec(m, vec)
        want = termwise_mat_vec(m, vec)
        assert len(got) == len(want) == n + 2
        for a, b in zip(got, want):
            _assert_same_scalar(a, b)
            if isinstance(a, AlgebraicScalar):
                assert (a.num, a.den) == (b.num, b.den)


# ---------------------------------------------------------------- recurrence filter


def _aperiodic_cubic():
    """(1, (1+g)/3, (5+2g^2)/7) for g^3 = 7: no state recurs."""
    g = algebraic([-7, 0, 0, 1], 1, 2)
    return ScalarVector([rational(1), (1 + g) / 3, (5 + 2 * g * g) / 7])


def _recurrence_inputs():
    """Periodic, aperiodic and terminating vectors, over irreducible moduli
    and over the reducible (x^2 - 2)(x - 3), whose reduced coordinates are
    not canonical: equal states there can be stored differently."""
    out = [tribonacci_vector(), _aperiodic_cubic(), _quartic()]
    for c in (3, 7):
        g = algebraic([-c, 0, 0, 1], 1, 2)
        out.append(ScalarVector([rational(1), g, g * g]))
    s2 = algebraic([-2, 0, 1], 1, 2)
    out.append(ScalarVector([rational(1), s2]))
    out.append(ScalarVector([rational(1), s2, (1 + s2) / 3]))
    reducible = [6, -2, -3, 1]
    r = algebraic(reducible, 1, 2)  # sqrt 2
    out.append(ScalarVector([rational(1), r]))
    out.append(ScalarVector([rational(1), r, r * r + r - 2]))
    out.append(ScalarVector([rational(1), r + 1, (r * r * r - r) / 3]))
    three = algebraic(reducible, Fraction(5, 2), Fraction(7, 2))  # exactly 3
    out.append(ScalarVector([rational(1), three / 2, three * three / 5]))
    return out


def _verdict_fields(v):
    return v.kind, v.depth, v.preperiod, v.period, v.certified, v.note


def test_detect_period_matches_all_pairs_reference():
    kinds = set()
    for theta in _recurrence_inputs():
        for pre, per in [(b, b) for b in range(17)] + [(0, 5), (5, 0), (3, 16)]:
            got = detect_period(theta, pre + per)
            want = reference_detect_period(theta, pre, per)
            assert _verdict_fields(got) == _verdict_fields(want), (theta, pre, per)
            kinds.add(got.kind)
    assert kinds == {"periodic", "terminated", "aperiodic_up_to"}


def test_expand_certified_matches_all_pairs_reference():
    for theta in _recurrence_inputs():
        for depth in (0, 3, 9):
            for budget in (0, 1, 2, 4, 8, 16):
                got = expand_certified(theta, depth, 2 * budget)
                want = reference_expand_certified(theta, depth, budget, budget)
                assert got == want, (theta, depth, budget)
                assert got.residual == want.residual


def test_recurrence_filter_bounds_exact_compares(monkeypatch):
    # every new state used to be compared exactly with every earlier one
    # (16,768 compares here); the enclosure filter leaves at most a few
    calls = []
    exact = cf_module.compare

    def counting(a, b):
        calls.append((a, b))
        return exact(a, b)

    monkeypatch.setattr(cf_module, "compare", counting)
    verdict = detect_period(_aperiodic_cubic(), 128)
    assert verdict.kind == "aperiodic_up_to" and verdict.depth == 128
    assert len(calls) <= 4 * 128


def test_detect_period_extends_a_truncated_expansion(monkeypatch):
    calls = []
    step = cf_module._step

    def counting(state):
        calls.append(state)
        return step(state)

    monkeypatch.setattr(cf_module, "_step", counting)
    for theta in (_quartic(), tribonacci_vector(), _aperiodic_cubic()):
        for depth in (0, 1, 5, 9, 12):
            exp = jpa_expand(theta, depth)
            fresh = detect_period(theta, 8)
            calls.clear()
            got = detect_period(exp, 8)
            assert _verdict_fields(got) == _verdict_fields(fresh)
            if fresh.kind == "aperiodic_up_to":
                # only the steps past the stored states are taken
                assert len(calls) == max(0, 8 - depth)
            # without its own states the expansion is searched from scratch
            for other in (
                dataclasses.replace(exp, theta=ScalarVector(list(exp.theta.entries))),
                dataclasses.replace(exp, states=None),
            ):
                calls.clear()
                got = detect_period(other, 8)
                assert _verdict_fields(got) == _verdict_fields(fresh)
                if fresh.kind == "aperiodic_up_to":
                    assert len(calls) == 8


def test_detect_period_searches_an_edited_run_from_its_theta():
    # a run rebuilt with dataclasses.replace keeps its theta and states
    # objects, but its blocks or states were not stepped from that theta:
    # replaying them certified a period of blocks the vector never emits
    phi = golden()
    exp = jpa_expand([rational(1), phi], 4)
    fresh = detect_period(exp.theta, 8)
    assert fresh.period == ((1,),)
    others = tuple(ScalarVector([rational(1), phi + i]) for i in range(1, 5))
    for edited in (
        dataclasses.replace(exp, blocks=((7,),) * 4),
        dataclasses.replace(exp, states=(exp.theta,) + others),
    ):
        assert _verdict_fields(detect_period(edited, 8)) == _verdict_fields(fresh)


# ---------------------------------------------------------------- budget contract


def _preperiod_ten():
    """(1, phi) pushed through ten step matrices: canonical preperiod 10,
    period ((1,),)."""
    m = intmat.identity(2)
    for d in (3, 5, 2, 7, 4, 6, 3, 9, 2, 5):
        m = intmat.mat_mul(m, step_matrix((d,)))
    return ScalarVector(scalar_mat_vec(m, [rational(1), golden()])).normalized()


def test_budget_is_a_step_count_at_its_edge():
    # periodic exactly when the preperiod plus the period length fits
    v = _preperiod_ten()
    verdict = detect_period(v, 11)
    assert (verdict.kind, verdict.preperiod, verdict.period) == ("periodic", 10, ((1,),))
    verdict = detect_period(v, 10)
    assert (verdict.kind, verdict.depth) == ("aperiodic_up_to", 10)
    for budget, kind in ((11, "periodic"), (10, "truncated")):
        assert expand_certified(v, 4, budget).tail.kind == kind
        exp = cli._expand_one(vector_to_json(v), "rational", 4, budget)
        assert exp.tail.kind == kind
        assert bool(is_stationary(jpa_expand(v, 4), budget)) == (kind == "periodic")


def test_budget_split_does_not_matter():
    v = _preperiod_ten()
    for budget in (10, 11):
        got = _verdict_fields(detect_period(v, budget))
        for q in range(budget + 1):
            want = reference_detect_period(v, q, budget - q)
            assert got == _verdict_fields(want), (budget, q)
