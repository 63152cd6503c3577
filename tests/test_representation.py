import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    RECONSTRUCTION_FAILED,
    reference_common_tail_bounded,
    reference_reconstruction_checks,
    reference_tail_subject,
    reference_verify,
    rng_for,
    tribonacci_vector,
)
from jperron import cf as cf_module
from jperron import representation as representation_module
from jperron import scalars as scalars_module
from jperron.cf import (
    Expansion,
    Tail,
    detect_period,
    jpa_expand,
    prefix_product,
    primitive_period,
    projectively_equal,
    scalar_mat_vec,
    step_matrix,
)
from jperron.errors import (
    DepthExceeded,
    MalformedInput,
    NoCommonTail,
    NonPositiveImage,
    NotUnimodular,
    RankMismatch,
    UnknownGenerator,
)
from jperron.intmat import det, identity, inverse_unimodular, mat_mul, mat_eq
from jperron.representation import (
    GeneratorAction,
    ReportEntry,
    build_representation,
    common_tail,
    evaluate_word,
    job_from_json,
    representation_to_json,
    verify,
)
from jperron.scalars import Ordering, ScalarVector, algebraic, compare, rational


def periodic_exp(prefix, period, rank):
    period = tuple(tuple(b) for b in period)
    prefix = tuple(tuple(b) for b in prefix)
    return Expansion(rank=rank, blocks=prefix + period,
                     tail=Tail.periodic(len(prefix), period))


def admissible_base(rng, rank, retries=50):
    """A rational vector that already sits in the image of the step map,
    so that prepending admissible blocks extends its stream literally."""
    for _ in range(retries):
        theta = ScalarVector(
            [rational(1)]
            + [rational(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(rank - 1)]
        )
        exp = jpa_expand(theta, 3)
        if exp.tail.kind == "terminated" or exp.states is None or len(exp.states) < 3:
            continue
        if exp.states[2].is_positive() is not True:
            continue
        return exp.states[2]
    raise AssertionError("could not sample an admissible base vector")


def admissible_block(rng, rank, hi=2):
    """Digit block whose last entry dominates: prepending it to an
    admissible state keeps the stream admissible."""
    body = [rng.randint(0, hi) for _ in range(rank - 2)]
    last = max(body, default=0) + rng.randint(1, 2)
    return tuple(body + [last])


def prepend_blocks(theta, blocks):
    vec = theta
    matrix = identity(theta.rank)
    for b in reversed(blocks):
        m = step_matrix(b)
        vec = ScalarVector(scalar_mat_vec(m, vec.entries)).normalized()
        matrix = mat_mul(m, matrix)
    return vec, matrix


# ---------------------------------------------------------------- common_tail


def test_common_tail_identical():
    e = periodic_exp([], [(1, 1)], 3)
    al = common_tail([e, e])
    assert al.offsets == (0, 0)
    assert al.certification == "exact"


def test_common_tail_prefixed(tribonacci):
    e = periodic_exp([], [(1, 1)], 3)
    f = periodic_exp([(3, 4)], [(1, 1)], 3)
    al = common_tail([e, f])
    assert al.offsets == (0, 1)


def test_common_tail_incompatible_periods():
    with pytest.raises(NoCommonTail):
        common_tail([periodic_exp([], [(1, 1)], 3), periodic_exp([], [(1, 2)], 3)])


def test_common_tail_terminated_suffix():
    a = Expansion(rank=2, blocks=((2,), (1,), (3,)), tail=Tail.terminated())
    b = Expansion(rank=2, blocks=((7,), (1,), (3,)), tail=Tail.terminated())
    al = common_tail([a, b])
    assert al.offsets == (1, 1)


def test_common_tail_mixed_kinds():
    a = Expansion(rank=2, blocks=((2,),), tail=Tail.terminated())
    with pytest.raises(NoCommonTail):
        common_tail([a, periodic_exp([], [(1,)], 2)])


def test_common_tail_depth_bounded():
    a = Expansion(rank=2, blocks=((1,), (2,), (3,), (4,)), tail=Tail.truncated())
    b = Expansion(rank=2, blocks=((9,), (2,), (3,), (4,)), tail=Tail.truncated())
    al = common_tail([a, b], depth_budget=4)
    assert al.certification == "depth_bounded"
    assert al.offsets == (1, 1)
    assert al.compared_depth == 3


def test_common_tail_depth_bounded_no_match():
    a = Expansion(rank=2, blocks=((1,), (1,)), tail=Tail.truncated())
    b = Expansion(rank=2, blocks=((2,), (2,)), tail=Tail.truncated())
    with pytest.raises(NoCommonTail):
        common_tail([a, b], depth_budget=1)


def test_common_tail_single_stream():
    e = periodic_exp([(5, 1)], [(1, 1)], 3)
    al = common_tail([e])
    assert al.offsets == (0,)


def test_common_tail_three_streams():
    base = periodic_exp([], [(2, 3), (0, 1)], 3)
    one = periodic_exp([(4, 4)], [(2, 3), (0, 1)], 3)
    two = periodic_exp([(5, 5), (4, 4)], [(2, 3), (0, 1)], 3)
    al = common_tail([base, one, two])
    assert al.offsets == (0, 1, 2)


def _suffixes_equal(exps, cuts, window):
    views = [e.realize(c + window)[c:] for e, c in zip(exps, cuts)]
    depth = min(len(v) for v in views)
    if depth <= 0:
        return False
    return all(v[:depth] == views[0][:depth] for v in views)


def test_common_tail_matches_brute_force_minimum():
    # independent oracle: enumerate every cut vector and take the smallest
    # total with equal suffixes; the analytic alignment must match it
    rng = rng_for("common-tail-brute")
    from jperron.cf import primitive_period

    for _ in range(40):
        rank = rng.randint(2, 3)
        while True:
            period = tuple(
                tuple(rng.randint(0, 2) for _ in range(rank - 1))
                for _ in range(rng.randint(1, 3))
            )
            if primitive_period(period) == period:
                break
        length = len(period)
        exps = []
        for _ in range(rng.randint(2, 3)):
            rot = rng.randrange(length)
            rotated = period[rot:] + period[:rot]
            pre = [
                tuple(rng.randint(0, 2) for _ in range(rank - 1))
                for _ in range(rng.randint(0, 4))
            ]
            exps.append(periodic_exp(pre, rotated, rank))
        al = common_tail(exps)
        window = 4 + 3 * length + max(len(e.blocks) for e in exps)
        assert _suffixes_equal(exps, al.offsets, window)
        bound = max(len(e.blocks) for e in exps) + length
        best = None
        m = len(exps)
        cuts = [0] * m
        while True:
            if _suffixes_equal(exps, cuts, window):
                key = (sum(cuts), tuple(cuts))
                if best is None or key < best:
                    best = key
            i = m - 1
            while i >= 0 and cuts[i] == bound:
                cuts[i] = 0
                i -= 1
            if i < 0:
                break
            cuts[i] += 1
        assert best is not None
        assert sum(al.offsets) == best[0]
        assert tuple(al.offsets) == best[1]


# ------------------------------------------- bounded alignment, differential
# ``common_tail`` of a set with a truncated stream searches through the
# longest suffix; ``reference_common_tail_bounded`` enumerates every cut
# vector.  Both must give the same alignment or the same error.


def _alignment_outcome(align, exps, budget):
    try:
        al = align(exps, budget)
    except NoCommonTail as exc:
        return ("no common tail", str(exc))
    return al.offsets, al.certification, al.compared_depth


def _assert_same_alignment(exps, budget):
    """The same alignment or error."""
    got = _alignment_outcome(common_tail, exps, budget)
    want = _alignment_outcome(reference_common_tail_bounded, exps, budget)
    assert got == want, (exps, budget)
    return got


def _truncated(blocks, rank=2):
    return Expansion(rank=rank, blocks=tuple(blocks), tail=Tail.truncated())


def _random_blocks(rng, count, alphabet=2):
    return [(rng.randrange(alphabet),) for _ in range(count)]


def _random_stream(rng, shared, period):
    """One stream of a set that may share ``shared`` or ``period``."""
    kind = rng.choice(("shared", "shared", "free", "empty", "constant",
                       "periodic-looking", "periodic"))
    prefix = _random_blocks(rng, rng.randint(0, 5))
    if kind == "shared":
        return _truncated(prefix + shared[:rng.randint(0, len(shared))])
    if kind == "free":
        return _truncated(_random_blocks(rng, rng.randint(1, 14)))
    if kind == "empty":
        return _truncated([])
    if kind == "constant":
        return _truncated([(rng.randrange(2),)] * rng.randint(1, 14))
    rot = rng.randrange(len(period))
    rotated = period[rot:] + period[:rot]
    if kind == "periodic-looking":
        return _truncated(prefix + list(rotated * 8)[:rng.randint(1, 16)])
    return periodic_exp(prefix, rotated, 2)


def _random_period(rng):
    while True:
        period = tuple(_random_blocks(rng, rng.randint(1, 3)))
        if primitive_period(period) == period:
            return period


def test_bounded_alignment_matches_the_enumerator():
    rng = rng_for("bounded-alignment")
    seen = set()
    cases = [(m, b) for m in (2, 3, 4) for b in range(9)] + [(5, b) for b in range(5)]
    for m, budget in cases:
        for _ in range(40):
            shared = _random_blocks(rng, rng.randint(0, 12))
            period = _random_period(rng)
            exps = [_random_stream(rng, shared, period) for _ in range(m)]
            if all(e.tail.kind == "periodic" for e in exps):
                exps[0] = _truncated(shared)
            got = _assert_same_alignment(exps, budget)
            seen.add(got[1].split(" within")[0] if got[0] == "no common tail" else "aligned")
    assert seen == {
        "aligned",
        "no joint alignment",
        "stream 1 never aligns with stream 0",
        "stream 2 never aligns with stream 0",
        "stream 3 never aligns with stream 0",
        "stream 4 never aligns with stream 0",
    }


def test_bounded_alignment_without_a_joint_tail():
    # each stream aligns with stream 0, so the pre-check passes, but
    # streams 1 and 2 part after the shared blocks
    rng = rng_for("bounded-alignment-disjoint")
    for _ in range(60):
        shared = [(rng.randrange(4),) for _ in range(rng.randint(1, 8))]
        exps = [
            _truncated(shared),
            _truncated(_random_blocks(rng, rng.randint(0, 3)) + shared + [(5,)]),
            _truncated(_random_blocks(rng, rng.randint(0, 3)) + shared + [(6,)]),
        ]
        for budget in (3, 6):
            got = _assert_same_alignment(exps, budget)
            assert got[0] == "no common tail"


def test_bounded_alignment_of_empty_and_constant_streams():
    empty = _truncated([])
    ones = _truncated([(1,)] * 9)
    twos = _truncated([(1,)] * 5 + [(2,)] * 7)
    for exps in ([empty, ones], [ones, empty], [ones, empty, ones], [ones, ones],
                 [ones, twos, ones], [twos, ones, _truncated([(2,)] * 3)],
                 [ones, periodic_exp([], [(1,)], 2), _truncated([(1,)] * 2)]):
        for budget in range(8):
            _assert_same_alignment(exps, budget)


def test_bounded_alignment_test_count(monkeypatch):
    # eight streams with one shared tail after a 4-block prefix each: the
    # enumerator's cost grows as (b+1)^m; the search makes at most
    # m^2 (b+1)^2 = 40,000 prefix tests at budget 24
    calls = []
    agree = representation_module._agree

    def counting(*args):
        calls.append(args)
        return agree(*args)

    monkeypatch.setattr(representation_module, "_agree", counting)
    rng = rng_for("bounded-alignment-count")
    shared = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(40)]
    exps = [
        _truncated([(9, 10 * i + j) for j in range(4)] + shared, rank=3)
        for i in range(8)
    ]
    al = common_tail(exps, depth_budget=24)
    assert al.offsets == (4,) * 8
    assert al.compared_depth == 40
    assert len(calls) <= 8 ** 2 * 25 ** 2


def test_successful_alignment_skips_the_stream_zero_check(monkeypatch):
    # the check that names a stream never aligning with stream 0 runs only
    # when the search fails; before, it added 735 tests to the 2,100 below
    calls = []
    agree = representation_module._agree
    monkeypatch.setattr(
        representation_module, "_agree", lambda *a: calls.append(a) or agree(*a)
    )
    rng = rng_for("bounded-alignment-count")
    shared = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(40)]
    exps = [
        _truncated([(9, 10 * i + j) for j in range(4)] + shared, rank=3)
        for i in range(8)
    ]
    assert common_tail(exps, depth_budget=24).offsets == (4,) * 8
    assert len(calls) == 2100


def test_relation_exponents_are_bounded_by_the_digit_limit():
    # each entry of a^k has about 0.88 k bits for this generator
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    a = [[0, 0, 1], [1, 0, 1], [0, 1, 1]]
    job = {"theta": [1, "7/5", "11/5"], "generators": [{"name": "a", "matrix": a}]}
    for k in (limit, -limit):
        assert job_from_json(dict(job, relations=[[["a", k]]]))[2] == [[("a", k)]]
    for k in (limit + 1, -limit - 1, 10 ** 9):
        with pytest.raises(MalformedInput, match="relation exponent"):
            job_from_json(dict(job, relations=[[["a", 2], ["a", k]]]))


# ---------------------------------------------------------------- prefix_product


def test_prefix_matrix_zero_is_identity():
    e = periodic_exp([], [(1, 1)], 3)
    assert prefix_product(e, 0) == identity(3)


def test_prefix_matrix_single_block():
    e = periodic_exp([(3, 4)], [(1, 1)], 3)
    assert prefix_product(e, 1) == [[0, 0, 1], [1, 0, 3], [0, 1, 4]]


def test_prefix_matrix_product_contract(tribonacci):
    exp = jpa_expand(tribonacci, 6)
    p2 = prefix_product(exp, 2)
    assert p2 == mat_mul(step_matrix((1, 1)), step_matrix((1, 1)))
    assert projectively_equal(
        scalar_mat_vec(p2, exp.states[2].entries), tribonacci.entries
    )


def test_prefix_matrix_depth_exceeded():
    e = Expansion(rank=2, blocks=((1,),), tail=Tail.truncated())
    with pytest.raises(DepthExceeded):
        prefix_product(e, 2)


# ---------------------------------------------------------------- build


def test_identity_generator(tribonacci):
    rep = build_representation(
        tribonacci, [GeneratorAction("e", matrix=identity(3))], depth_budget=10
    )
    assert mat_eq(rep.matrices["e"], identity(3))
    assert rep.certification == "exact"
    assert rep.report.all_ok


def test_one_block_prefix_generator(tribonacci):
    b = (3, 4)
    rep = build_representation(
        tribonacci, [GeneratorAction("g", matrix=step_matrix(b))], depth_budget=10
    )
    assert rep.matrices["g"] == step_matrix(b)
    assert rep.theta_offset == 0
    assert rep.offsets["g"] == 1
    assert rep.report.all_ok


def test_representation_reconstruction_exact(tribonacci):
    rng = rng_for("rep-recon")
    blocks = [admissible_block(rng, 3) for _ in range(3)]
    _vec, matrix = prepend_blocks(tribonacci, blocks)
    rep = build_representation(
        tribonacci, [GeneratorAction("g", matrix=matrix)], depth_budget=12
    )
    image = rep.images["g"]
    assert projectively_equal(
        scalar_mat_vec(rep.matrices["g"], rep.theta.entries), image.entries
    )
    assert rep.report.all_ok


def test_expansion_actions_depth_bounded():
    shifted = Expansion(
        rank=2, blocks=((7,), (1,), (2,), (1,), (2,)), tail=Tail.truncated()
    )
    rep = build_representation(
        ScalarVector([1, Fraction(29, 21)]),
        [GeneratorAction("s", expansion=shifted)],
        depth_budget=6,
    )
    assert rep.certification == "depth_bounded"
    assert abs(det(rep.matrices["s"])) == 1


def test_nonpositive_image_rejected(tribonacci):
    # second image coordinate becomes theta_1 - 2 < 0
    bad = [[1, 0, 0], [-2, 1, 0], [0, 0, 1]]
    with pytest.raises(NonPositiveImage):
        build_representation(tribonacci, [GeneratorAction("b", matrix=bad)])


def test_build_checks_each_vector_positive_once(tribonacci, monkeypatch):
    calls = []
    is_positive = ScalarVector.is_positive

    def counting(vec):
        calls.append(vec)
        return is_positive(vec)

    monkeypatch.setattr(ScalarVector, "is_positive", counting)
    for k in range(4):
        actions = [
            GeneratorAction("g%d" % i, matrix=step_matrix((i, i + 1))) for i in range(k)
        ]
        calls.clear()
        build_representation(tribonacci, actions, depth_budget=6)
        assert len(calls) == 1 + k  # theta and each image


def test_generator_action_validation():
    with pytest.raises(MalformedInput):
        GeneratorAction("x")
    with pytest.raises(NotUnimodular):
        GeneratorAction("x", matrix=[[2, 0], [0, 1]])
    with pytest.raises(MalformedInput):
        build_representation(
            ScalarVector([1, Fraction(1, 2)]),
            [
                GeneratorAction("x", matrix=identity(2)),
                GeneratorAction("x", matrix=identity(2)),
            ],
        )


def test_theta_must_be_exact():
    from jperron.scalars import interval

    with pytest.raises(MalformedInput):
        build_representation(
            ScalarVector([1, interval(1, 2)]), [GeneratorAction("e", matrix=identity(2))]
        )


def test_rank_mismatch():
    with pytest.raises(RankMismatch):
        build_representation(
            ScalarVector([1, Fraction(3, 2)]),
            [GeneratorAction("g", expansion=periodic_exp([], [(1, 1)], 3))],
        )


# ---------------------------------------------------------------- words


def test_evaluate_word_empty_is_identity(tribonacci):
    rep = build_representation(
        tribonacci, [GeneratorAction("e", matrix=identity(3))], depth_budget=8
    )
    assert mat_eq(evaluate_word(rep, []), identity(3))


def test_evaluate_word_inverse(tribonacci):
    b = (3, 4)
    rep = build_representation(
        tribonacci, [GeneratorAction("g", matrix=step_matrix(b))], depth_budget=8
    )
    prod = mat_mul(evaluate_word(rep, [("g", 1)]), evaluate_word(rep, [("g", -1)]))
    assert mat_eq(prod, identity(3))


def test_evaluate_word_product(tribonacci):
    rng = rng_for("word-prod")
    acts = []
    for name in ("a", "b"):
        blocks = [admissible_block(rng, 3) for _ in range(rng.randint(1, 3))]
        _vec, m = prepend_blocks(tribonacci, blocks)
        acts.append(GeneratorAction(name, matrix=m))
    rep = build_representation(tribonacci, acts, depth_budget=14)
    lhs = evaluate_word(rep, [("a", 1), ("b", 1)])
    rhs = mat_mul(rep.matrices["a"], rep.matrices["b"])
    assert mat_eq(lhs, rhs)
    with pytest.raises(UnknownGenerator):
        evaluate_word(rep, [("zz", 1)])


def test_word_multiplicativity_random(tribonacci):
    rng = rng_for("word-mult")
    acts = []
    for name in ("a", "b", "c"):
        blocks = [admissible_block(rng, 3) for _ in range(rng.randint(1, 3))]
        _vec, m = prepend_blocks(tribonacci, blocks)
        acts.append(GeneratorAction(name, matrix=m))
    rep = build_representation(tribonacci, acts, depth_budget=16)
    names = ["a", "b", "c"]
    for _ in range(40):
        w1 = [(rng.choice(names), rng.randint(-2, 2)) for _ in range(rng.randint(0, 3))]
        w2 = [(rng.choice(names), rng.randint(-2, 2)) for _ in range(rng.randint(0, 3))]
        lhs = evaluate_word(rep, list(w1) + list(w2))
        rhs = mat_mul(evaluate_word(rep, w1), evaluate_word(rep, w2))
        assert mat_eq(lhs, rhs)
        assert abs(det(lhs)) == 1


# ---------------------------------------------------------------- verify


def test_verify_stationary_flags(tribonacci):
    m = step_matrix((1, 1))
    rep = build_representation(
        tribonacci, [GeneratorAction("p", matrix=m)], depth_budget=10
    )
    report = verify(rep, budget=16)
    assert report.stationary is True
    assert report.faithfulness == "not_guaranteed"
    assert report.has_flag("aperiodicity")
    assert report.has_flag("fixes_theta_max", generator="p")
    assert report.has_flag("free_action", generator="p")


def test_verify_relations(tribonacci):
    b = (3, 4)
    rep = build_representation(
        tribonacci, [GeneratorAction("g", matrix=step_matrix(b))], depth_budget=10
    )
    report = verify(
        rep,
        relations=[[("g", 1), ("g", -1)], [("g", 2)]],
        budget=12,
    )
    rel = [e for e in report.entries if e.kind == "relation"]
    assert rel[0].ok and not rel[1].ok
    # the passing fixed-point confirmation is part of the report
    fixed = [e for e in report.entries if e.kind == "fixed_point"]
    assert fixed and fixed[0].ok and fixed[0].generator == "g"


def _cube_root_job():
    """g^3 = 7 and theta = (1, g, g^2/2) with a generator whose computed
    matrix does not map theta to its image: the exact check refutes it."""
    root = {"poly": [-7, 0, 0, 1], "lo": [1, 1], "hi": [2, 1]}
    return job_from_json({
        "theta": [1, {"alg": root}, {"alg": dict(root, coeffs=[[0, 1], [0, 1], [1, 2]])}],
        "generators": [{"name": "g", "matrix": [[0, 1, -1], [-1, 1, 0], [1, -1, 1]]}],
    })


def test_a_false_bounded_alignment_is_refused():
    # the streams align within the budget, but the exact check refutes it
    theta, actions, _ = _cube_root_job()
    with pytest.raises(NoCommonTail, match="generator 'g': the depth-bounded"):
        build_representation(theta, actions, depth_budget=4)


def test_failed_reconstruction_voids_faithfulness():
    # an aligned representation edited to declare that "a" acts as "b":
    # its supplied matrix and image are b's, its computed matrix is not
    rep = _quartic_representation(8)
    edited = dataclasses.replace(
        rep,
        supplied=dict(rep.supplied, a=rep.supplied["b"]),
        images=dict(rep.images, a=rep.images["b"]),
    )
    report = verify(edited, budget=8)
    assert [e.message for e in report.failures()] == [RECONSTRUCTION_FAILED]
    # both checks of the old audit fail; the one check stands for both
    assert reference_reconstruction_checks(edited) == {
        "a": (False, False), "b": (True, True)
    }
    # the flags this rule replaced left it "conditional_depth_bounded"
    assert edited.certification == "depth_bounded"
    assert report.faithfulness == "not_guaranteed"


def test_verify_without_a_tail_vector():
    # the alignment consumes the whole terminated base stream, so there is
    # no tail vector: verify reports that and stops after the relations
    theta, actions, relations = job_from_json({
        "theta": [1, "7/5", "11/5"],
        "generators": [{"name": "g", "matrix": [[1, 0, 0], [0, 1, 0], [0, 2, 1]]}],
        "relations": [[["g", 1], ["g", -1]]],
    })
    rep = build_representation(theta, actions)
    assert rep.theta_max is None
    assert rep.report.entries[-1].kind == "alignment"
    report = verify(rep, relations)
    assert report.stationary is None
    assert report.faithfulness == "not_guaranteed"
    assert [(e.kind, e.ok, e.message) for e in report.entries] == [
        ("reconstruction", False, RECONSTRUCTION_FAILED),
        ("relation", True, "relation 0 holds"),
        (
            "alignment",
            True,
            "tail entry state unavailable (alignment consumed the whole "
            "base stream); fixed-point checks are skipped",
        ),
        ("aperiodicity", True, "tail vector unavailable; aperiodicity unchecked"),
    ]


def test_failed_relation_leaves_faithfulness_conditional():
    # a relation is a question asked of the matrices; its entry answers it
    rep = _quartic_representation(8)
    commutator = [("a", 1), ("b", 1), ("a", -1), ("b", -1)]
    report = verify(rep, relations=[commutator], budget=32)
    assert report.failures() == [
        ReportEntry("relation", False, None, "relation 0 does NOT evaluate to I")
    ]
    assert report.faithfulness == "conditional_depth_bounded"


@pytest.mark.parametrize("call", [
    lambda: build_representation(ScalarVector([rational(1), rational(7, 5)]), [], -1),
    lambda: detect_period(ScalarVector([rational(1), rational(7, 5)]), -3),
    lambda: common_tail([periodic_exp([], [(1,)], 2)] * 2, depth_budget=-1),
], ids=["build", "detect_period", "common_tail"])
def test_negative_budgets_are_malformed(call):
    with pytest.raises(MalformedInput):
        call()


def test_verify_reports_internal_inconsistency():
    # white-box: a fabricated representation whose matrix fixes a tail
    # vector that shows no period within the searched budget must be
    # reported as internally inconsistent, never silently accepted
    from jperron.representation import Representation, VerificationReport
    from jperron.scalars import algebraic

    phi = algebraic([-1, -1, 1], 1, 2)
    theta = ScalarVector([rational(1), phi])
    exp = jpa_expand(theta, 4)
    fixing = [[0, 1], [1, 1]]  # maps (1, phi) to phi * (1, phi)
    rep = Representation(
        rank=2,
        theta=theta,
        matrices={"g": fixing},
        supplied={"g": None},
        images={"g": None},
        expansions={"g": exp},
        base_expansion=exp,
        theta_max=theta,
        theta_offset=0,
        offsets={"g": 0},
        certification="depth_bounded",
        report=VerificationReport(entries=()),
    )
    report = verify(rep, budget=0)
    assert report.has_flag("fixes_theta_max", generator="g")
    assert report.has_flag("internal_inconsistency", generator="g")
    assert report.faithfulness == "not_guaranteed"


def test_verify_periodic_entry_state_is_fixed():
    # the certified period product must fix the state at the cycle entry
    from jperron.scalars import algebraic
    from jperron.cf import detect_period

    phi = algebraic([-1, -1, 1], 1, 2)
    shifted = ScalarVector(
        scalar_mat_vec(step_matrix((7,)), [rational(1), phi])
    ).normalized()
    verdict = detect_period(shifted, 12)
    assert verdict.is_periodic and verdict.preperiod == 1
    entry_state = verdict.expansion.states[verdict.preperiod]
    m = identity(2)
    for b in verdict.period:
        m = mat_mul(m, step_matrix(b))
    assert projectively_equal(
        scalar_mat_vec(m, entry_state.entries), entry_state.entries
    )


def test_verify_depth_bounded_faithfulness():
    rng = rng_for("verify-db")
    base = admissible_base(rng, 2)
    blocks = [admissible_block(rng, 2) for _ in range(2)]
    _vec, m = prepend_blocks(base, blocks)
    rep = build_representation(base, [GeneratorAction("g", matrix=m)], depth_budget=6)
    report = verify(rep, budget=8)
    assert report.faithfulness in (
        "conditional_depth_bounded",
        "conditional_on_aperiodicity",
        "not_guaranteed",
    )


def test_rank6_constant_stream_representation():
    # rank 6 is the coordinate rank of a genus-2 surface; the fixed vector
    # of the all-ones block lives in the degree-6 field where
    # x^6 = x^5 + x^4 + x^3 + x^2 + x + 1 and has entries 1 + 1/g + ...
    from jperron.scalars import algebraic

    g = algebraic([-1, -1, -1, -1, -1, -1, 1], Fraction(3, 2), 2)
    entries = [rational(1)]
    cur = rational(1)
    for _ in range(5):
        cur = cur / g + 1
        entries.append(cur)
    assert entries[5] == g
    theta = ScalarVector(entries)

    exp = jpa_expand(theta, 8)
    assert exp.blocks == ((1, 1, 1, 1, 1),) * 8

    from jperron.cf import detect_period

    verdict = detect_period(theta, 12)
    assert verdict.is_periodic and verdict.certified
    assert verdict.preperiod == 0 and verdict.period == ((1, 1, 1, 1, 1),)

    m = step_matrix((1, 1, 1, 1, 1))
    rep = build_representation(theta, [GeneratorAction("p", matrix=m)], depth_budget=6)
    assert mat_eq(rep.matrices["p"], identity(6))
    report = verify(rep, budget=12)
    assert report.stationary is True
    assert report.has_flag("fixes_theta_max", generator="p")
    assert report.faithfulness == "not_guaranteed"


def test_representation_json(tribonacci):
    rep = build_representation(
        tribonacci, [GeneratorAction("g", matrix=step_matrix((3, 4)))], depth_budget=8
    )
    payload = representation_to_json(rep)
    assert payload["rank"] == 3
    assert payload["matrices"]["g"] == [list(r) for r in step_matrix((3, 4))]
    assert "theta_max" in payload
    assert payload["report"]["entries"]


# ---------------------------------------------------------------- verify reuses the base run


@pytest.fixture
def count_steps(monkeypatch):
    calls = []
    step = cf_module._step

    def counting(state):
        calls.append(state)
        return step(state)

    monkeypatch.setattr(cf_module, "_step", counting)
    return calls


def _quartic_representation(depth_budget):
    g = algebraic([-2, 0, 0, 0, 1], 1, 2)
    theta = ScalarVector([rational(1), g, g * g, g * g * g])
    _, a = prepend_blocks(theta, [(1, 0, 2)])
    _, b = prepend_blocks(theta, [(0, 1, 2), (2, 1, 3)])
    actions = [GeneratorAction("a", matrix=a), GeneratorAction("b", matrix=b)]
    return build_representation(theta, actions, depth_budget=depth_budget)


def test_verify_extends_the_searched_base_run(count_steps):
    rep = _quartic_representation(8)
    assert rep.theta_offset == 0 and rep.base_run.depth == 16
    count_steps.clear()
    report = verify(rep, budget=32)
    # 32 searched states, 16 of them already stepped by build_representation
    assert len(count_steps) <= 16
    assert report == reference_verify(rep, budget=32)


def _shifted_representation(theta, k, depth_budget=8):
    """A generator mapping theta to its k-th Jacobi-Perron state, so the
    base stream aligns at offset k (a periodic base may align inside its
    cycle)."""
    shift = inverse_unimodular(prefix_product(jpa_expand(theta, k), k))
    return build_representation(
        theta, [GeneratorAction("s", matrix=shift)], depth_budget=depth_budget
    )


def _reuse_cases():
    cases = []
    for c, k in ((7, 5), (10, 3), (3, 1), (5, 2)):
        g = algebraic([-c, 0, 0, 1], 1, 3)
        cases.append(_shifted_representation(ScalarVector([rational(1), g, g * g]), k))
    cases.append(_quartic_representation(4))
    # terminated bases: rational, and algebraic but rationally dependent
    rational_base = ScalarVector([rational(1), rational(355, 113), rational(22, 7)])
    s2 = algebraic([-2, 0, 1], 1, 2)
    for theta in (rational_base, ScalarVector([rational(1), s2, 2 * s2])):
        _, m = prepend_blocks(theta, [(1, 2)])
        cases.append(build_representation(theta, [GeneratorAction("p", matrix=m)], 8))
    return cases


def test_verify_matches_a_fresh_search():
    inside_cycle = 0
    for rep in _reuse_cases():
        run = rep.base_run
        if run.tail.kind == "periodic" and rep.theta_offset > run.tail.preperiod:
            inside_cycle += 1
        for budget in (0, 4, 10, 32):
            relations = [[("s", 1), ("s", -1)]] if "s" in rep.matrices else []
            want = reference_verify(rep, relations, budget)
            assert verify(rep, relations, budget) == want
    assert inside_cycle >= 2


def test_verify_searches_an_edited_base_run_from_its_tail_vector():
    # dataclasses.replace keeps the run's theta and states objects, so the
    # identity checks alone let verify replay blocks or states that were
    # never stepped from the tail vector
    g = algebraic([-3, 0, 0, 1], 1, 3)
    periodic = _shifted_representation(ScalarVector([rational(1), g, g * g]), 1)
    run = periodic.base_run
    assert run.tail.kind == "periodic" and periodic.theta_offset == 1
    blocks = dataclasses.replace(
        run, blocks=((9, 9),) * run.depth, tail=Tail.truncated()
    )
    rep = _quartic_representation(8)
    run = rep.base_run
    repeated = run.states[:2] + (run.states[1],) * (len(run.states) - 2)
    states = dataclasses.replace(run, states=repeated)
    for edited in (
        dataclasses.replace(periodic, base_run=blocks),
        dataclasses.replace(rep, base_run=states),
    ):
        assert verify(edited) == reference_verify(edited)


def test_verify_restarts_on_an_edited_representation(count_steps):
    # the search joins the base run by value: an equal copy of the tail
    # vector, or another base expansion, still meets the run's state and
    # takes the 16 steps past its end, not the 32 of a fresh search
    rep = _quartic_representation(8)
    count_steps.clear()
    detect_period(rep.theta_max, 32)
    assert len(count_steps) == 32
    joined_steps = 32 - rep.base_run.depth
    same_value = ScalarVector(list(rep.theta_max.entries))
    other_base = _quartic_representation(8).base_expansion
    for edited in (
        dataclasses.replace(rep, theta_max=same_value),
        dataclasses.replace(rep, base_expansion=other_base),
    ):
        count_steps.clear()
        report = verify(edited, budget=32)
        assert len(count_steps) == joined_steps == 16
        assert report == reference_verify(edited, budget=32)
    # a tail vector swapped for another state of the base is searched anew
    moved = dataclasses.replace(rep, theta_max=rep.base_run.states[3])
    assert verify(moved, budget=12) == reference_verify(
        moved, budget=12
    )


# ---------------------------------------------------------------- image runs join the base run


def _plain_certified_run(state, depth, budget, join=None):
    return cf_module._certified_run(state, depth, budget)


def _equal_vectors(u, v):
    return len(u) == len(v) and all(
        compare(a, b) is Ordering.EQ for a, b in zip(u, v)
    )


def _assert_same_run(got, want):
    assert (got.rank, got.blocks, got.tail) == (want.rank, want.blocks, want.tail)
    assert len(got.states) == len(want.states)
    for a, b in zip(got.states, want.states):
        assert _equal_vectors(a.entries, b.entries)
    assert (got.residual is None) == (want.residual is None)
    if want.residual is not None:
        assert _equal_vectors(got.residual, want.residual)


def _assert_joined_run_matches(image, base_run, depth_budget):
    joined = cf_module._certified_run(
        image, depth_budget, 2 * depth_budget, join=base_run
    )
    plain = cf_module._certified_run(image, depth_budget, 2 * depth_budget)
    for got, want in zip(joined, plain):
        _assert_same_run(got, want)


def _assert_join_changes_nothing(monkeypatch, theta, actions, depth_budget):
    """The build with image runs joined to the base run equals the build
    without, and so does every image's whole run."""
    rep = build_representation(theta, actions, depth_budget)
    with monkeypatch.context() as m:
        m.setattr(representation_module, "_certified_run", _plain_certified_run)
        plain = build_representation(theta, actions, depth_budget)
    assert representation_to_json(rep) == representation_to_json(plain)
    assert rep.expansions.keys() == plain.expansions.keys()
    for name, exp in plain.expansions.items():
        _assert_same_run(rep.expansions[name], exp)
        _assert_joined_run_matches(rep.images[name], rep.base_run, depth_budget)
    return rep


def _catalog_jobs(rng):
    """Step-word jobs as in the benchmark catalog: a base vector two or
    three Jacobi-Perron steps into a tribonacci, pure cubic or quartic
    vector, and two or three generators, each a word of one to three
    admissible step matrices."""
    g4 = algebraic([-2, 0, 0, 0, 1], 1, 2)
    quartic = [rational(1)] + [
        sum(
            (rational(rng.randint(1, 5), rng.randint(1, 5)) * g4 ** i for i in range(4)),
            rational(0),
        )
        for _ in range(3)
    ]
    thetas = [tribonacci_vector(), ScalarVector(quartic)]
    for m in (2, 3, 10):
        g = algebraic([-m, 0, 0, 1], 1, 3)
        thetas.append(ScalarVector([rational(1), g, g * g]))
    for theta in thetas:
        start = rng.randint(2, 3)
        base = jpa_expand(theta, start + 1).states[start]
        actions = []
        for i in range(rng.randint(2, 3)):
            blocks = [admissible_block(rng, base.rank) for _ in range(rng.randint(1, 3))]
            actions.append(GeneratorAction("g%d" % i, matrix=prepend_blocks(base, blocks)[1]))
        yield base, actions


def _b3_job(rng, rank=6, generators=5):
    """The paper regime: theta = (1, g, ..., g^(rank-1)) with g^rank = 2
    and step-word generators; returns the words' lengths too."""
    g = algebraic([-2] + [0] * (rank - 1) + [1], 1, 2)
    theta = ScalarVector([g ** i if i else rational(1) for i in range(rank)])
    actions, lengths = [], []
    for i in range(generators):
        blocks = [admissible_block(rng, rank) for _ in range(rng.randint(1, 3))]
        actions.append(GeneratorAction("g%d" % i, matrix=prepend_blocks(theta, blocks)[1]))
        lengths.append(len(blocks))
    return theta, actions, lengths


def test_joined_builds_match_catalog_jobs(monkeypatch):
    rng = rng_for("join-catalog")
    for base, actions in _catalog_jobs(rng):
        _assert_join_changes_nothing(monkeypatch, base, actions, 8)


def test_joined_build_matches_the_paper_regime(monkeypatch):
    theta, actions, _ = _b3_job(rng_for("join-b3"))
    rep = _assert_join_changes_nothing(monkeypatch, theta, actions, 24)
    assert rep.base_run.depth == 48


def test_join_of_an_image_that_never_meets_the_base(count_steps):
    # I + E_01 on (1, g, g^2), g^4 = 2: no state of the image equals one
    # of the base run, so the image is stepped all the way
    g = algebraic([-2, 0, 0, 0, 1], 1, 2)
    theta = ScalarVector([rational(1), g, g * g])
    image = ScalarVector(scalar_mat_vec([[1, 1, 0], [0, 1, 0], [0, 0, 1]], theta.entries))
    base_run = cf_module._certified_run(theta, 10, 20)[1]
    _assert_joined_run_matches(image.normalized(), base_run, 10)
    count_steps.clear()
    cf_module._certified_run(image.normalized(), 10, 20, join=base_run)
    assert len(count_steps) == 20


def test_join_past_the_end_of_the_base_run(count_steps):
    # an image meeting base state j after k < j steps replays the base run
    # to its end and steps the remaining j - k itself
    g = algebraic([-2, 0, 0, 0, 1], 1, 2)
    theta = ScalarVector([rational(1), g, g * g, g * g * g])
    base_run = cf_module._certified_run(theta, 8, 16)[1]
    assert base_run.tail.kind == "truncated" and base_run.depth == 16
    for j, blocks in ((3, [(1, 0, 2)]), (5, [(0, 1, 2), (2, 1, 3)])):
        image, _ = prepend_blocks(base_run.states[j], blocks)
        _assert_joined_run_matches(image, base_run, 8)
        count_steps.clear()
        run = cf_module._certified_run(image, 8, 16, join=base_run)[1]
        assert run.depth == 16 and len(count_steps) == j
        assert run.states[len(blocks)] is not base_run.states[j]
        assert run.states[len(blocks) + 1] is base_run.states[j + 1]


def test_join_crosses_a_periodic_base_run(monkeypatch, count_steps):
    # the replay runs through the base's recurrence, met at its start and
    # inside its cycle; the image's own search certifies the period
    g = algebraic([-3, 0, 0, 1], 1, 2)
    for theta in (tribonacci_vector(), ScalarVector([rational(1), g, g * g])):
        base_run = cf_module._certified_run(theta, 8, 16)[1]
        assert base_run.tail.kind == "periodic"
        for j in (0, base_run.tail.preperiod, len(base_run.states) - 2):
            for blocks in ([(1, 3)], [(0, 2), (2, 3)]):
                image, _ = prepend_blocks(base_run.states[j], blocks)
                _assert_joined_run_matches(image, base_run, 8)
                count_steps.clear()
                run = cf_module._certified_run(image, 8, 16, join=base_run)[1]
                assert run.tail.kind == "periodic"
                assert len(count_steps) < len(run.blocks)
        actions = [
            GeneratorAction("a", matrix=prepend_blocks(theta, [(1, 3)])[1]),
            GeneratorAction("b", matrix=prepend_blocks(theta, [(0, 2), (2, 3)])[1]),
        ]
        _assert_join_changes_nothing(monkeypatch, theta, actions, 8)


def test_join_over_a_reducible_modulus(count_steps):
    # over (x^3 - 2)(x - 3), r and r + (r^3 - 2) are the same value stored
    # differently: the image meets the base run by value, not by storage
    r = algebraic([6, -2, 0, -3, 1], 1, 2)
    zero = r * r * r - 2
    theta = ScalarVector([rational(1), r, r * r])
    stored_apart = ScalarVector([rational(1), r + zero, r * r])
    base_run = cf_module._certified_run(stored_apart, 8, 16)[1]
    for blocks in ([(1, 3)], [(0, 2), (2, 3)], [(1, 2), (0, 1), (2, 4)]):
        image, _ = prepend_blocks(theta, blocks)
        plain = cf_module._certified_run(image, 8, 16)[1]
        met = plain.states[len(blocks)]
        assert met.entries[1].num != base_run.states[0].entries[1].num
        assert _equal_vectors(met.entries, base_run.states[0].entries)
        _assert_joined_run_matches(image, base_run, 8)
        count_steps.clear()
        cf_module._certified_run(image, 8, 16, join=base_run)
        assert len(count_steps) == len(blocks)


def test_an_image_meeting_the_base_run_after_k_steps_takes_k_steps(count_steps):
    g = algebraic([-2, 0, 0, 0, 1], 1, 2)
    theta = ScalarVector([rational(1), g, g * g, g * g * g])
    base_run = cf_module._certified_run(theta, 24, 48)[1]
    rng = rng_for("join-k-steps")
    for k in (1, 2, 3):
        image, _ = prepend_blocks(theta, [admissible_block(rng, 4) for _ in range(k)])
        count_steps.clear()
        exp, run = cf_module._certified_run(image, 24, 48, join=base_run)
        assert len(count_steps) == k
        assert exp.depth == 24 and run.depth == 48


def test_paper_regime_build_steps_the_base_run_once(count_steps):
    # each image used to take 2 * 24 steps of its own, 6 * 48 in all
    theta, actions, lengths = _b3_job(rng_for("join-b3"))
    count_steps.clear()
    rep = build_representation(theta, actions, depth_budget=24)
    assert len(count_steps) == 48 + sum(lengths) < 6 * 48
    assert rep.offsets == {a.name: k for a, k in zip(actions, lengths)}


# ---------------------------------------------------------------- one reconstruction check
# ``verify`` and the build decide reconstruction with one check, A*theta
# against the image, skipped when A equals the supplied matrix.  The old
# audit also checked P_g(k)*theta_max, the same vector up to a scalar;
# ``reference_reconstruction_checks`` runs both old checks.


def _assert_one_check_agrees(rep):
    """The build's and verify's entry against both old checks; returns
    (entry ok, A equals M) per generator with an exact image."""
    checks = reference_reconstruction_checks(rep)
    entries = [e for e in verify(rep).entries if e.kind == "reconstruction"]
    assert entries == [e for e in rep.report.entries if e.kind == "reconstruction"]
    out = {}
    for e in entries:
        if e.generator not in checks:
            continue
        ok_base, ok_tail = checks[e.generator]
        assert e.ok == ok_base
        assert ok_tail in (ok_base, "unchecked")
        assert e.message == (
            "A*theta matches the image exactly" if e.ok else RECONSTRUCTION_FAILED
        )
        m = rep.supplied[e.generator]
        out[e.generator] = (e.ok, m is not None and mat_eq(rep.matrices[e.generator], m))
    return out


def _transvection_word(rng, n):
    m = identity(n)
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(n), 2)
        e = identity(n)
        e[i][j] = rng.choice((1, -1))
        m = mat_mul(m, e)
    return m


def _b5_builds():
    """Random words of one to three transvections I +- E_ij acting on
    theta = (1, g, ..., g^(n-1)), g^d = 2, built at budget 24: each
    build's representation, or the error it raised; images outside the
    cone are skipped."""
    for rank, degree in ((3, 3), (3, 6), (4, 4)):
        g = algebraic([-2] + [0] * (degree - 1) + [1], 1, 2)
        theta = ScalarVector([g ** i if i else rational(1) for i in range(rank)])
        rng = rng_for("b5-%d-%d" % (rank, degree))
        for _ in range(30):
            action = GeneratorAction("g", matrix=_transvection_word(rng, rank))
            try:
                yield build_representation(theta, [action], 24)
            except NonPositiveImage:
                continue
            except NoCommonTail as exc:
                yield exc


def _b8_representation():
    """The tribonacci stabilizer case: P = B(1, 1) fixes theta
    projectively, so M = B(1, 2) * P gets A = B(1, 2), not M."""
    q = step_matrix((1, 2))
    m = mat_mul(q, step_matrix((1, 1)))
    rep = build_representation(tribonacci_vector(), [GeneratorAction("m", matrix=m)], 8)
    assert rep.matrices["m"] == q and rep.certification == "exact"
    return rep


def test_one_reconstruction_check_on_catalog_jobs():
    seen = set()
    rng = rng_for("one-check-catalog")
    for _ in range(2):
        for base, actions in _catalog_jobs(rng):
            seen.update(_assert_one_check_agrees(build_representation(base, actions, 8)).values())
    # step words align with theta by construction
    assert seen == {(True, True)}


def test_one_reconstruction_check_on_transvection_words():
    seen = {}
    refused = 0
    for rep in _b5_builds():
        if isinstance(rep, NoCommonTail):
            refused += "the depth-bounded alignment is false" in str(rep)
            continue
        for outcome in _assert_one_check_agrees(rep).values():
            seen[outcome] = seen.get(outcome, 0) + 1
    # aligned, and A != M with the image reconstructed (a stabilizer): the
    # check runs in field arithmetic for the second; a false alignment (B6
    # is one) is refused by the build
    assert set(seen) == {(True, True), (True, False)}
    assert refused > 0


def test_one_reconstruction_check_on_the_cube_root_and_stabilizer_jobs():
    theta, actions, _ = _cube_root_job()
    with pytest.raises(NoCommonTail):
        build_representation(theta, actions, 4)
    rep = _b8_representation()
    assert _assert_one_check_agrees(rep) == {"m": (True, False)}
    assert reference_reconstruction_checks(rep) == {"m": (True, True)}


@pytest.mark.parametrize("budget", [0, 8, 32])
def test_a_stabilizer_is_flagged_at_every_budget(budget):
    # A = B(1, 2) reconstructs the image of M = B(1, 2) * B(1, 1), so
    # U = M^-1 * A = B(1, 1)^-1 fixes theta projectively
    rep = _b8_representation()
    report = verify(rep, budget=budget)
    u = inverse_unimodular(step_matrix((1, 1)))
    assert report.failures("stabilizer") == [ReportEntry(
        "stabilizer",
        False,
        "m",
        "U = M^-1*A = %s fixes theta projectively: the free-action hypothesis "
        "fails" % u,
    )]
    assert projectively_equal(scalar_mat_vec(u, rep.theta.entries), rep.theta.entries)
    assert report.faithfulness == "not_guaranteed"
    # only the stabilizer and, once the search sees the period, aperiodicity
    kinds = [e.kind for e in report.failures()]
    assert kinds == ["stabilizer"] + ["aperiodicity"] * (budget > 0)


def test_reconstruction_of_an_equal_matrix_takes_no_field_arithmetic(monkeypatch):
    # A = M: the image is M*theta by construction
    rep = _quartic_representation(8)
    assert all(mat_eq(rep.matrices[n], rep.supplied[n]) for n in rep.matrices)

    def refuse(*args):
        raise AssertionError("field arithmetic for an equal matrix")

    monkeypatch.setattr(representation_module, "projectively_equal", refuse)
    monkeypatch.setattr(representation_module, "scalar_mat_vec", refuse)
    monkeypatch.setattr(representation_module, "prefix_product", refuse)
    entries = representation_module._reconstruction_entries(
        rep.matrices, rep.supplied, rep.images, rep.theta
    )
    assert [e.ok for e in entries] == [True, True]


def test_reconstruction_ignores_a_tail_vector_out_of_line():
    # a tail vector swapped for another state of the base no longer meets
    # the offsets: the old tail check failed, the one check asks only
    # whether A maps theta to the image, and the alignment entry flags it
    rep = _quartic_representation(8)
    moved = dataclasses.replace(rep, theta_max=rep.base_run.states[3])
    assert reference_reconstruction_checks(moved) == {"a": (True, False), "b": (True, False)}
    report = verify(moved, budget=12)
    assert [e.ok for e in report.entries if e.kind == "reconstruction"] == [True, True]
    assert report.has_flag("alignment") and report.faithfulness == "not_guaranteed"


def _alignment_flags(report):
    return [e.message for e in report.failures("alignment")]


def test_verify_flags_a_tail_vector_out_of_line(monkeypatch):
    rep = _quartic_representation(8)
    run, t = rep.base_run, rep.theta_offset
    out_of_line = [
        dataclasses.replace(rep, theta_max=run.states[t + 2]),
        dataclasses.replace(rep, theta_max=ScalarVector([3 * x for x in rep.theta_max])),
        dataclasses.replace(rep, base_run=None),
    ]
    for edited in out_of_line:
        report = verify(edited, budget=4)
        assert _alignment_flags(report) == [
            "tail vector is not the base state at theta_offset %d" % edited.theta_offset
        ]
        assert report.faithfulness == "not_guaranteed"
    # an equal copy is in line; the built tail vector is the run's state
    # itself, which an identity check passes with no comparison
    same_value = dataclasses.replace(rep, theta_max=ScalarVector(list(rep.theta_max)))
    assert _alignment_flags(verify(same_value, budget=4)) == []

    def refuse(*args):
        raise AssertionError("a comparison for the built tail vector")

    assert rep.theta_max is run.states[t]
    monkeypatch.setattr(ScalarVector, "__eq__", refuse)
    report = verify(rep, budget=4)
    monkeypatch.undo()
    assert all(e.kind != "alignment" for e in report.entries)
    assert report.faithfulness != "not_guaranteed"


def _edited_representations(rep):
    run = rep.base_run
    yield rep
    yield dataclasses.replace(rep, theta_max=ScalarVector(list(rep.theta_max.entries)))
    yield dataclasses.replace(rep, theta_max=ScalarVector([3 * x for x in rep.theta_max]))
    yield dataclasses.replace(rep, base_run=dataclasses.replace(run))
    yield dataclasses.replace(rep, base_run=None)
    if len(run.states) > rep.theta_offset + 2:
        yield dataclasses.replace(rep, theta_max=run.states[rep.theta_offset + 2])


def test_joined_tail_search_matches_a_fresh_one_and_the_hand_cut_run():
    for rep in _reuse_cases():
        for edited in _edited_representations(rep):
            for budget in (0, 4, 10, 32):
                assert verify(edited, budget=budget) == reference_verify(edited, budget=budget)
                got = cf_module._period_verdict(edited.theta_max, budget, join=edited.base_run)
                want = detect_period(reference_tail_subject(edited), budget)
                assert (got.kind, got.depth, got.preperiod, got.period, got.certified) == (
                    want.kind, want.depth, want.preperiod, want.period, want.certified
                )


def test_audit_call_counts_on_the_benchmark_catalog(monkeypatch):
    # one pass of the represent_audit catalog: 40 representations with 96
    # generators, and one job without a common tail.  The old audit made
    # 288 / 232 calls in the build and 384 / 96 in verify.  The pass,
    # generation included, inverts 680 field elements: 850 when a vector
    # was normalized by one field division per entry.  Coordinate boxes
    # (``_outward`` calls) were 2,036 in the build and 800 in verify when
    # each run kept its own box lists
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    counts = {"scalar_mat_vec": 0, "prefix_product": 0, "_outward": 0}
    for name in counts:
        module = scalars_module if name == "_outward" else representation_module
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    inverses = []
    inverse = scalars_module._elem_inverse
    monkeypatch.setattr(
        scalars_module, "_elem_inverse", lambda *a: inverses.append(a) or inverse(*a)
    )
    audit = workloads.RepresentAudit()
    build, check = dict.fromkeys(counts, 0), dict.fromkeys(counts, 0)
    reps = generators = 0
    for spec in audit.generate(1):
        p = audit.prepare(spec)
        before = dict(counts)
        try:
            rep = build_representation(p["theta"], p["actions"], audit.DEPTH_BUDGET)
        except NoCommonTail:
            continue
        middle = dict(counts)
        verify(rep, [workloads.COMMUTATOR])
        for name in counts:
            build[name] += middle[name] - before[name]
            check[name] += counts[name] - middle[name]
        reps += 1
        generators += len(rep.matrices)
    assert (reps, generators) == (40, 96)
    assert build == {"scalar_mat_vec": 96, "prefix_product": 136, "_outward": 2028}
    assert check == {"scalar_mat_vec": 96, "prefix_product": 0, "_outward": 700}
    assert len(inverses) == 680


# ---------------------------------------------------------------- bounded alignment cost


def test_bounded_alignment_matches_the_enumerator_up_to_budget_64():
    rng = rng_for("bounded-alignment-64")
    b13 = [periodic_exp([], [(1, 1)], 3), _truncated([(1, 2), (0, 2), (3, 3)], rank=3)]
    sets = [b13, b13[::-1]]
    while len(sets) < 14:
        shared = _random_blocks(rng, rng.randint(0, 12))
        period = _random_period(rng)
        exps = [_random_stream(rng, shared, period) for _ in range(2)]
        if any(e.tail.kind == "periodic" for e in exps) and any(
            e.tail.kind != "periodic" for e in exps
        ):
            sets.append(exps)
    outcomes = set()
    for exps in sets:
        for budget in range(65):
            got = _assert_same_alignment(exps, budget)
            outcomes.add(got[0] == "no common tail")
    assert outcomes == {True, False}


def test_bounded_alignment_cost_stops_at_the_data(monkeypatch):
    # B13, and a periodic stream that aligns with a truncated one: the
    # prefix tests and realized blocks do not grow with the budget
    counts = {"agree": 0, "block_at": 0}
    agree, block_at = representation_module._agree, Expansion.block_at

    def counted_agree(*args):
        counts["agree"] += 1
        return agree(*args)

    def counted_block_at(self, i):
        counts["block_at"] += 1
        return block_at(self, i)

    monkeypatch.setattr(representation_module, "_agree", counted_agree)
    monkeypatch.setattr(Expansion, "block_at", counted_block_at)
    pairs = [
        [periodic_exp([], [(1, 1)], 3), _truncated([(1, 2), (0, 2), (3, 3)], rank=3)],
        [periodic_exp([(4,), (0,)], [(1,), (2,)], 2), _truncated([(3,), (1,), (2,), (1,)])],
    ]
    for exps in pairs:
        seen = []
        for budget in (10**3, 10**6):
            for key in counts:
                counts[key] = 0
            seen.append((_alignment_outcome(common_tail, exps, budget)[::2], dict(counts)))
        assert seen[0] == seen[1], seen
    assert seen[0][0][0] == (2, 1)
