import json
import re
from fractions import Fraction

import pytest

from conftest import reference_is_stationary, reference_tail_equivalent, rng_for
from jperron.bratteli import (
    build_diagram,
    diagram_from_json,
    diagram_to_json,
    dimension_vectors,
    export,
    is_stationary,
    tail_equivalent,
    to_dot,
)
from jperron.cf import Expansion, Tail, detect_period, jpa_expand, primitive_period
from jperron.scalars import ScalarVector, algebraic, rational
from jperron.errors import DepthExceeded, MalformedInput, RankMismatch


def periodic_exp(prefix, period, rank):
    """Expansion literally equal to prefix + period with a periodic tag."""
    period = tuple(tuple(b) for b in period)
    prefix = tuple(tuple(b) for b in prefix)
    return Expansion(
        rank=rank,
        blocks=prefix + period,
        tail=Tail.periodic(len(prefix), period),
    )


def random_block(rng, rank, lo=0, hi=3):
    return tuple(rng.randint(lo, hi) for _ in range(rank - 1))


def random_primitive_period(rng, rank, max_len=4):
    while True:
        length = rng.randint(1, max_len)
        period = tuple(random_block(rng, rank) for _ in range(length))
        if primitive_period(period) == period:
            return period


# ---------------------------------------------------------------- diagrams


def test_build_diagram_depth_zero_is_root_only():
    diag = build_diagram(Expansion(rank=3, blocks=(), tail=Tail.truncated()))
    dot = to_dot(diag)
    assert dot.count("->") == 0
    assert "root" in dot


def test_build_diagram_level_matrix_matches_step():
    exp = Expansion(rank=3, blocks=((1, 2),), tail=Tail.truncated())
    diag = build_diagram(exp)
    assert diag.level_matrix(0) == [[0, 0, 1], [1, 0, 1], [0, 1, 2]]


def test_rank6_fan_out():
    exp = Expansion(rank=6, blocks=((1, 1, 1, 1, 1),), tail=Tail.truncated())
    diag = build_diagram(exp)
    dot = to_dot(diag)
    assert dot.count("root ->") == 6
    assert dimension_vectors(diag, 1) == [[1] * 6]


def test_build_diagram_deterministic():
    theta = [1, Fraction(7, 5), Fraction(11, 5)]
    d1 = build_diagram(jpa_expand(theta, 10))
    d2 = build_diagram(jpa_expand(theta, 10))
    assert d1.expansion.blocks == d2.expansion.blocks
    assert to_dot(d1) == to_dot(d2)


def test_dimension_vectors_fibonacci():
    diag = build_diagram(periodic_exp([], [(1,)], 2))
    dims = dimension_vectors(diag, 7)
    assert dims == [[1, 1], [1, 2], [2, 3], [3, 5], [5, 8], [8, 13], [13, 21]]


def test_dimension_vectors_tribonacci_recurrence():
    diag = build_diagram(periodic_exp([], [(1, 1)], 3))
    totals = [sum(v) for v in dimension_vectors(diag, 9)]
    for k in range(3, len(totals)):
        assert totals[k] == totals[k - 1] + totals[k - 2] + totals[k - 3]


def test_dimension_vectors_positive_under_primitivity():
    # (1,1) blocks: the cube of the step matrix is strictly positive
    diag = build_diagram(periodic_exp([], [(1, 1)], 3))
    dims = dimension_vectors(diag, 8)
    for v in dims[3:]:
        assert all(x > 0 for x in v)


def test_dimension_vectors_depth_errors():
    diag = build_diagram(Expansion(rank=2, blocks=((1,),), tail=Tail.truncated()))
    with pytest.raises(DepthExceeded):
        dimension_vectors(diag, 0)
    with pytest.raises(DepthExceeded):
        dimension_vectors(diag, 4)


# ---------------------------------------------------------------- tail equivalence


def test_tail_equivalent_reflexive():
    e = periodic_exp([], [(1, 1)], 3)
    d = tail_equivalent(e, e)
    assert d.verdict == d.EQUIVALENT and d.offsets == (0, 0)


def test_tail_equivalent_prefix_once():
    e = periodic_exp([], [(1, 1)], 3)
    f = periodic_exp([(3, 4)], [(1, 1)], 3)
    d = tail_equivalent(e, f)
    assert d.verdict == d.EQUIVALENT and d.offsets == (0, 1)


def test_tail_equivalent_distinct_periods():
    d = tail_equivalent(periodic_exp([], [(1, 1)], 3), periodic_exp([], [(1, 2)], 3))
    assert d.verdict == d.NOT_EQUIVALENT and d.certified


def test_tail_equivalent_rank_mismatch():
    with pytest.raises(RankMismatch):
        tail_equivalent(periodic_exp([], [(1, 1)], 3), periodic_exp([], [(1,)], 2))


def test_tail_equivalent_rotation():
    e = periodic_exp([], [(1, 0), (2, 1)], 3)
    f = periodic_exp([], [(2, 1), (1, 0)], 3)
    d = tail_equivalent(e, f)
    assert d.verdict == d.EQUIVALENT


def test_tail_equivalent_terminated_pair():
    a = jpa_expand([1, Fraction(7, 5), Fraction(11, 5)], 16)
    b = jpa_expand([1, Fraction(7, 5), Fraction(11, 5)], 16)
    d = tail_equivalent(a, b)
    assert d.verdict == d.EQUIVALENT and d.offsets == (0, 0)


def test_tail_equivalent_mixed_kinds():
    a = jpa_expand([1, Fraction(7, 5), Fraction(11, 5)], 16)
    d = tail_equivalent(a, periodic_exp([], [(1, 1)], 3))
    assert d.verdict == d.NOT_EQUIVALENT


def test_tail_equivalent_truncated_is_inconclusive():
    a = Expansion(rank=2, blocks=((1,), (2,), (3,)), tail=Tail.truncated())
    b = Expansion(rank=2, blocks=((9,), (1,), (2,), (3,)), tail=Tail.truncated())
    d = tail_equivalent(a, b)
    assert d.verdict == d.INCONCLUSIVE and not d.certified
    assert d.offsets == (0, 1)
    assert d.compared_depth == 3


def test_terminated_stream_ends_where_its_blocks_do():
    # block (3,) follows where the terminated stream ended, so the two
    # share no tail, however far the truncated data agrees before it
    done = Expansion(rank=2, blocks=((1,), (2,)), tail=Tail.terminated())
    more = Expansion(rank=2, blocks=((1,), (2,), (3,)), tail=Tail.truncated())
    for d in (tail_equivalent(done, more, 4), tail_equivalent(more, done, 4)):
        assert d.verdict == d.INCONCLUSIVE and not d.certified
        assert d.offsets is None and d.compared_depth == 0
    # truncated data that stops with the terminated stream still aligns
    longer = Expansion(rank=2, blocks=((5,), (1,), (2,)), tail=Tail.terminated())
    short = Expansion(rank=2, blocks=((1,), (2,)), tail=Tail.truncated())
    d = tail_equivalent(longer, short, 4)
    assert d.verdict == d.INCONCLUSIVE and d.offsets == (1, 0)
    assert d.compared_depth == 2


def test_tail_equivalence_relation_laws():
    rng = rng_for("tail-laws")
    for _ in range(120):
        rank = rng.randint(2, 4)
        period = random_primitive_period(rng, rank)
        rot = rng.randrange(len(period))
        rotated = period[rot:] + period[:rot]
        e1 = periodic_exp(
            [random_block(rng, rank) for _ in range(rng.randint(0, 8))], period, rank
        )
        e2 = periodic_exp(
            [random_block(rng, rank) for _ in range(rng.randint(0, 8))], rotated, rank
        )
        e3 = periodic_exp(
            [random_block(rng, rank) for _ in range(rng.randint(0, 8))], period, rank
        )
        d12 = tail_equivalent(e1, e2)
        d21 = tail_equivalent(e2, e1)
        d13 = tail_equivalent(e1, e3)
        d23 = tail_equivalent(e2, e3)
        assert tail_equivalent(e1, e1).verdict == "equivalent"
        assert d12.verdict == d21.verdict == "equivalent"
        assert sum(d12.offsets) == sum(d21.offsets)
        _assert_witness(e1, e2, d12.offsets)
        _assert_witness(e2, e1, d21.offsets)
        assert d13.verdict == d23.verdict == "equivalent"
        other = random_primitive_period(rng, rank)
        if primitive_period(other) != primitive_period(period) and _rotations(
            other
        ).isdisjoint(_rotations(period)):
            e4 = periodic_exp([], other, rank)
            assert tail_equivalent(e1, e4).verdict == "not_equivalent"


def _random_stream(rng, rank, kind, body, core):
    prefix = [random_block(rng, rank, hi=2) for _ in range(rng.randint(0, 5))]
    if kind == "periodic":
        shift = rng.randrange(len(core))
        return periodic_exp(prefix + body, core[shift:] + core[:shift], rank)
    blocks = prefix + body + list(core) * rng.randint(0, 3)
    tail = Tail.terminated() if kind == "terminated" else Tail.truncated()
    return Expansion(rank=rank, blocks=tuple(blocks), tail=tail)


def test_tail_equivalent_matches_two_stream_reference():
    # streams share a body and a period after random prefixes; the small
    # digit alphabet makes spurious and partial agreements common
    rng = rng_for("tail-equivalent-reference")
    kinds = ("terminated", "truncated", "periodic")
    seen = set()
    for _ in range(3000):
        rank = rng.randint(2, 3)
        body = [random_block(rng, rank, hi=1) for _ in range(rng.randint(0, 6))]
        core = list(random_primitive_period(rng, rank, max_len=3))
        e1 = _random_stream(rng, rank, rng.choice(kinds), body, core)
        if rng.random() < 0.25:
            core = list(random_primitive_period(rng, rank, max_len=3))
        e2 = _random_stream(rng, rank, rng.choice(kinds), body, core)
        budget = rng.randint(0, 16)
        d = tail_equivalent(e1, e2, budget)
        assert d == reference_tail_equivalent(e1, e2, budget)
        seen.add(re.sub(r"\d+", "N", d.note))
    assert len(seen) == 7  # every kind of decision was reached


def _rotations(period):
    return {tuple(period[i:] + period[:i]) for i in range(len(period))}


def _assert_witness(e1, e2, offsets):
    p, q = offsets
    window = max(p, q) + 3 * max(
        len(e1.tail.period or ()), len(e2.tail.period or ()), 1
    )
    left = e1.realize(p + window)[p:]
    right = e2.realize(q + window)[q:]
    overlap = min(len(left), len(right))
    assert overlap > 0 and left[:overlap] == right[:overlap]


def test_prefix_invariance_random():
    rng = rng_for("prefix-invariance")
    for _ in range(80):
        rank = rng.randint(2, 4)
        period = random_primitive_period(rng, rank)
        base = periodic_exp(
            [random_block(rng, rank) for _ in range(rng.randint(0, 4))], period, rank
        )
        prefixed = periodic_exp(
            [random_block(rng, rank) for _ in range(rng.randint(1, 8))]
            + list(base.blocks[:base.tail.preperiod]),
            period,
            rank,
        )
        assert tail_equivalent(base, prefixed).verdict == "equivalent"


# ---------------------------------------------------------------- stationarity


def test_is_stationary_periodic():
    v = is_stationary(periodic_exp([], [(1, 1)], 3))
    assert bool(v) and v.periodic_from_start and v.certified


def test_is_stationary_with_preperiod():
    v = is_stationary(periodic_exp([(3, 4)], [(1, 1)], 3))
    assert bool(v) and v.periodic_from_start is False


def test_is_stationary_terminated():
    v = is_stationary(jpa_expand([1, Fraction(7, 5), Fraction(11, 5)], 16))
    assert not v
    assert "terminated" in v.note


def test_is_stationary_growing_digits():
    exp = Expansion(rank=2, blocks=((1,), (2,), (3,), (4,)), tail=Tail.truncated())
    v = is_stationary(exp)
    assert not v and not v.certified
    assert "no period found" in v.note


def test_is_stationary_agrees_with_detect_period(tribonacci):
    exp = detect_period(tribonacci, 16).expansion
    v = is_stationary(exp)
    assert bool(v)
    assert detect_period(exp, 16).is_periodic


# The notes ``is_stationary`` takes from ``detect_period`` where its own
# branches used to write them: (reference note, note now).
_RENAMED_NOTES = {
    ("periodic tail", "expansion carries a periodic tag"),
    (
        "terminated: a finite diagram is not an infinite periodic one",
        "expansion carries a terminated tag",
    ),
}


def _assert_matches_reference(exp, budgets=(16, 16)):
    got = is_stationary(exp, sum(budgets))
    want = reference_is_stationary(exp, *budgets)
    assert got.stationary == want.stationary
    assert got.periodic_from_start == want.periodic_from_start
    assert got.certified == want.certified
    if got.note != want.note:
        if (want.note, got.note) not in _RENAMED_NOTES:
            assert want.note.startswith("no period found up to depth")
            assert got.note == "expansion terminated (rationally dependent input)"
    return got, want


def test_is_stationary_tagged_tails_match_reference():
    rng = rng_for("stationary-tagged")
    preperiods_from_start = 0
    for _ in range(60):
        rank = rng.randint(2, 4)
        period = random_primitive_period(rng, rank)
        prefix = [random_block(rng, rank) for _ in range(rng.randint(0, 3))]
        if prefix and rng.random() < 0.5:
            # a preperiod ending in the period's last block canonicalizes
            prefix[-1] = period[-1]
        got, _ = _assert_matches_reference(periodic_exp(prefix, period, rank))
        assert got.note == "expansion carries a periodic tag"
        preperiods_from_start += got.periodic_from_start
        blocks = tuple(random_block(rng, rank) for _ in range(rng.randint(0, 4)))
        got, _ = _assert_matches_reference(
            Expansion(rank=rank, blocks=blocks, tail=Tail.terminated())
        )
        assert got.note == "expansion carries a terminated tag"
    # the canonicalized preperiods include some that vanish entirely
    assert preperiods_from_start > 0
    v = is_stationary(periodic_exp([(1, 1)], [(2, 2), (1, 1)], 3))
    assert v.periodic_from_start is True


def test_is_stationary_rejects_negative_budgets_for_every_tail_kind():
    # the budgets reach detect_period, which rejects them, also for tagged
    # tails that the search never runs on
    for exp in (
        periodic_exp([], [(1, 1)], 3),
        Expansion(rank=3, blocks=((1, 2),), tail=Tail.terminated()),
        Expansion(rank=3, blocks=((1, 2),), tail=Tail.truncated()),
    ):
        with pytest.raises(MalformedInput):
            is_stationary(exp, -1)


def test_is_stationary_truncated_exact_expansions_match_reference(tribonacci):
    # degree 4 above rank 3: no recurrence in a short search
    g = algebraic([-2, 0, 0, 0, 1], 1, 2)
    cases = [
        (tribonacci, 3, (8, 8)),  # periodic
        ([1, Fraction(7, 5), Fraction(11, 5)], 1, (16, 16)),  # terminated
        ([1, Fraction(355, 113)], 2, (16, 16)),  # terminated
        (ScalarVector([rational(1), g, g * g]), 3, (3, 3)),
    ]
    notes = []
    for theta, depth, budgets in cases:
        exp = jpa_expand(theta, depth)
        assert exp.tail.kind == "truncated"
        got, _ = _assert_matches_reference(exp, budgets)
        # the same theta without the stored states
        bare = Expansion(exp.rank, exp.blocks, Tail.truncated(), theta=exp.theta)
        assert is_stationary(bare, sum(budgets)) == got
        _assert_matches_reference(bare, budgets)
        notes.append(got.note)
    assert notes == [
        "state recurrence certified exactly",
        "expansion terminated (rationally dependent input)",
        "expansion terminated (rationally dependent input)",
        "no period found up to depth 6",
    ]


def test_is_stationary_truncated_digits_match_reference():
    rng = rng_for("stationary-digits")
    for _ in range(40):
        rank = rng.randint(2, 4)
        blocks = tuple(random_block(rng, rank) for _ in range(rng.randint(0, 6)))
        exp = Expansion(rank=rank, blocks=blocks, tail=Tail.truncated())
        got, want = _assert_matches_reference(exp)
        assert got == want
        assert got.note == "no period found up to depth %d" % len(blocks)


# ---------------------------------------------------------------- export


def test_dot_counts_rank3_depth1():
    diag = build_diagram(Expansion(rank=3, blocks=((1, 2),), tail=Tail.truncated()))
    dot = to_dot(diag)
    node_lines = [l for l in dot.splitlines() if "label=\"\"" in l or "shape=point" in l]
    assert len(node_lines) == 7
    assert dot.count("root ->") == 3
    level_edges = [l for l in dot.splitlines() if l.strip().startswith("c1_") and "->" in l]
    assert len(level_edges) == 5
    labels = sorted(int(l.split('label="')[1][0]) for l in level_edges)
    assert labels == [1, 1, 1, 1, 2]


def test_export_json_round_trip(tribonacci):
    diag = build_diagram(detect_period(tribonacci, 16).expansion)
    raw = export(diag, "json")
    back = diagram_from_json(json.loads(raw.decode("utf-8")))
    assert back.expansion.blocks == diag.expansion.blocks
    assert back.expansion.tail == diag.expansion.tail
    assert diagram_to_json(back) == diagram_to_json(diag)


def test_export_dot_bytes():
    diag = build_diagram(Expansion(rank=2, blocks=(), tail=Tail.truncated()))
    raw = export(diag, "dot")
    assert isinstance(raw, bytes) and raw.startswith(b"digraph")
    with pytest.raises(MalformedInput):
        export(diag, "svg")


def test_periodic_dot_realizes_tail():
    diag = build_diagram(periodic_exp([], [(1, 1)], 3))
    dot = to_dot(diag, depth=4)
    assert "c5_0" in dot  # four edge levels means five vertex columns
