"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run with -s to see them live);
every tolerance is pinned here and all randomized checks are seeded.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import random_unimodular, rng_for, tribonacci_vector
from jperron import intmat
from jperron.bratteli import build_diagram, dimension_vectors, tail_equivalent, to_dot
from jperron.cf import (
    Expansion,
    Tail,
    convergent,
    detect_period,
    euclid_gcd,
    jpa_expand,
    prefix_product,
    primitive_period,
    projectively_equal,
    regular_cf,
    scalar_mat_vec,
    step_matrix,
)
from jperron.lattices import (
    CoordinateFrame,
    PseudoLattice,
    act,
    genus_rank,
    pl_isomorphic,
    project,
    scale,
)
from jperron.representation import (
    GeneratorAction,
    build_representation,
    evaluate_word,
    verify,
)
from jperron.scalars import ScalarVector, rational


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print("criterion %d: FAIL - %s" % (number, label))
        raise
    print("criterion %d: PASS - %s" % (number, label))


def test_criterion_1_rank2_reduction():
    with criterion(1, "rank-2 reduction matches regular cf and euclid on 1000 rationals"):
        rng = rng_for("acceptance-1")
        start = time.monotonic()
        for _ in range(1000):
            p = rng.randint(1, 10**6)
            q = rng.randint(1, 10**6)
            x = Fraction(p, q)
            via_cf = regular_cf(x, 128)
            via_jpa = jpa_expand([1, x], 128)
            assert via_cf.blocks == via_jpa.blocks
            assert via_cf.tail.kind == via_jpa.tail.kind == "terminated"
            g = euclid_gcd([q, p])
            assert g == math.gcd(p, q)
            pk = prefix_product(via_jpa, via_jpa.depth)
            v = intmat.mat_vec(intmat.inverse_unimodular(pk), [q, p])
            assert v == [0, g]
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, "took %.2fs" % elapsed


def test_criterion_2_reconstruction_identity():
    with criterion(2, "exact reconstruction and unimodularity, 200 vectors, depth <= 30"):
        rng = rng_for("acceptance-2")
        for i in range(200):
            n = 2 + (i % 5)
            theta = ScalarVector(
                [rational(1)]
                + [
                    rational(rng.randint(1, 9999), rng.randint(1, 9999))
                    for _ in range(n - 1)
                ]
            )
            exp = jpa_expand(theta, 30)
            p = intmat.identity(n)
            for k in range(1, exp.depth + 1):
                p = intmat.mat_mul(p, step_matrix(exp.blocks[k - 1]))
                assert abs(intmat.det(p)) == 1
                if k < len(exp.states):
                    assert projectively_equal(
                        scalar_mat_vec(p, exp.states[k].entries), theta.entries
                    )
            if exp.tail.kind == "terminated":
                assert projectively_equal(
                    scalar_mat_vec(p, exp.residual), theta.entries
                )


def test_criterion_3_periodic_fixed_point():
    with criterion(3, "tribonacci digits, certified period and exact fixed point"):
        theta = tribonacci_vector()
        exp = jpa_expand(theta, 50)
        assert exp.blocks == ((1, 1),) * 50
        verdict = detect_period(theta, 16)
        assert verdict.is_periodic and verdict.certified
        assert verdict.preperiod == 0 and verdict.period == ((1, 1),)
        m = step_matrix((1, 1))
        assert projectively_equal(scalar_mat_vec(m, theta.entries), theta.entries)


def test_criterion_4_convergent_accuracy():
    with criterion(4, "tribonacci convergent at depth 25 within 1e-6"):
        start = time.monotonic()
        theta = tribonacci_vector()
        exp = jpa_expand(theta, 25)
        _col, bound = convergent(exp, 25)
        assert bound is not None
        assert bound < Fraction(1, 10**6)
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, "took %.2fs" % elapsed


def _random_primitive_period(rng, rank, max_len=4):
    while True:
        period = tuple(
            tuple(rng.randint(0, 3) for _ in range(rank - 1))
            for _ in range(rng.randint(1, max_len))
        )
        if primitive_period(period) == period:
            return period


def _periodic_exp(prefix, period, rank):
    period = tuple(tuple(b) for b in period)
    prefix = tuple(tuple(b) for b in prefix)
    return Expansion(
        rank=rank, blocks=prefix + period, tail=Tail.periodic(len(prefix), period)
    )


def _rotations(period):
    return {tuple(period[i:] + period[:i]) for i in range(len(period))}


def test_criterion_5_stable_isomorphism_laws():
    with criterion(5, "tail equivalence laws on 500 eventually-periodic pairs"):
        rng = rng_for("acceptance-5")
        for trial in range(500):
            rank = rng.randint(2, 4)
            period = _random_primitive_period(rng, rank)
            if trial % 2 == 0:
                rot = rng.randrange(len(period))
                second = period[rot:] + period[:rot]
            else:
                second = _random_primitive_period(rng, rank)
            pre1 = [
                tuple(rng.randint(0, 3) for _ in range(rank - 1))
                for _ in range(rng.randint(0, 8))
            ]
            pre2 = [
                tuple(rng.randint(0, 3) for _ in range(rank - 1))
                for _ in range(rng.randint(0, 8))
            ]
            e1 = _periodic_exp(pre1, period, rank)
            e2 = _periodic_exp(pre2, second, rank)
            d12 = tail_equivalent(e1, e2)
            d21 = tail_equivalent(e2, e1)
            expected = (
                "equivalent"
                if _rotations(period) == _rotations(second)
                else "not_equivalent"
            )
            assert d12.verdict == d21.verdict == expected
            assert d12.certified and d21.certified
            assert tail_equivalent(e1, e1).verdict == "equivalent"
            # prefix invariance: prepending blocks never changes the class
            bigger = _periodic_exp(
                [tuple(rng.randint(0, 3) for _ in range(rank - 1))] + pre1,
                period,
                rank,
            )
            assert tail_equivalent(bigger, e2).verdict == expected
            assert tail_equivalent(e1, bigger).verdict == "equivalent"
            # transitivity on a same-class triple
            e3 = _periodic_exp(
                [tuple(rng.randint(0, 3) for _ in range(rank - 1))], period, rank
            )
            if d12.verdict == "equivalent":
                assert tail_equivalent(e2, e3).verdict == "equivalent"
            assert tail_equivalent(e1, e3).verdict == "equivalent"


def _admissible_base(rng, rank):
    while True:
        theta = ScalarVector(
            [rational(1)]
            + [
                rational(rng.randint(1, 40), rng.randint(1, 40))
                for _ in range(rank - 1)
            ]
        )
        exp = jpa_expand(theta, 3)
        if (
            exp.tail.kind != "terminated"
            and exp.states
            and len(exp.states) >= 3
            and exp.states[2].is_positive() is True
        ):
            return exp.states[2]


def _admissible_block(rng, rank):
    body = [rng.randint(0, 2) for _ in range(rank - 2)]
    return tuple(body + [max(body, default=0) + rng.randint(1, 2)])


def test_criterion_6_representation_laws():
    with criterion(6, "exact image reconstruction and word multiplicativity"):
        rng = rng_for("acceptance-6")
        words_checked = 0
        for rank in range(2, 7):
            for _ in range(3):
                base = _admissible_base(rng, rank)
                m_count = rng.randint(1, 4)
                actions = []
                for gi in range(m_count):
                    blocks = [
                        _admissible_block(rng, rank)
                        for _ in range(rng.randint(1, 4))
                    ]
                    matrix = intmat.identity(rank)
                    for b in reversed(blocks):
                        matrix = intmat.mat_mul(step_matrix(b), matrix)
                    actions.append(GeneratorAction("g%d" % gi, matrix=matrix))
                rep = build_representation(base, actions, depth_budget=40)
                assert rep.report.all_ok
                assert rep.theta_max is not None
                for name in rep.matrices:
                    a = rep.matrices[name]
                    assert abs(intmat.det(a)) == 1
                    assert projectively_equal(
                        scalar_mat_vec(a, rep.theta_max.entries),
                        rep.images[name].entries,
                    )
                names = list(rep.matrices)
                for _ in range(10):
                    w1 = [
                        (rng.choice(names), rng.randint(-2, 2))
                        for _ in range(rng.randint(0, 3))
                    ]
                    w2 = [
                        (rng.choice(names), rng.randint(-2, 2))
                        for _ in range(rng.randint(0, 3))
                    ]
                    lhs = evaluate_word(rep, list(w1) + list(w2))
                    rhs = intmat.mat_mul(
                        evaluate_word(rep, w1), evaluate_word(rep, w2)
                    )
                    assert intmat.mat_eq(lhs, rhs)
                    assert abs(intmat.det(lhs)) == 1
                    words_checked += 1
        assert words_checked >= 100
        # depth-bounded variant: long rational tails truncated well before
        # termination, so the alignment itself is only depth-certified while
        # the reconstruction contract still holds exactly
        for rank in (2, 3, 4):
            base = _deep_base(rng, rank)
            actions = []
            for gi in range(2):
                blocks = [_sentinel_block(rng, rank, 500 + 100 * gi)]
                matrix = step_matrix(blocks[0])
                actions.append(GeneratorAction("h%d" % gi, matrix=matrix))
            rep = build_representation(base, actions, depth_budget=6)
            assert rep.certification == "depth_bounded"
            assert rep.report.all_ok
            for name in rep.matrices:
                assert projectively_equal(
                    scalar_mat_vec(rep.matrices[name], rep.theta.entries),
                    rep.images[name].entries,
                )


def _deep_base(rng, rank):
    while True:
        theta = ScalarVector(
            [rational(1)]
            + [
                rational(rng.randint(10**5, 10**6), rng.randint(10**5, 10**6))
                for _ in range(rank - 1)
            ]
        )
        exp = jpa_expand(theta, 16)
        if (
            exp.tail.kind == "truncated"
            and exp.states
            and exp.states[2].is_positive() is True
        ):
            return exp.states[2]


def _sentinel_block(rng, rank, floor_value):
    body = [rng.randint(0, 2) for _ in range(rank - 2)]
    return tuple(body + [floor_value + rng.randint(0, 9)])


def test_criterion_7_stationary_negative_control():
    with criterion(7, "stationary tail and period-matrix generator are both flagged"):
        theta = tribonacci_vector()
        rep = build_representation(
            theta,
            [GeneratorAction("p", matrix=step_matrix((1, 1)))],
            depth_budget=10,
        )
        report = verify(rep, budget=16)
        assert report.stationary is True
        assert report.has_flag("aperiodicity")
        assert report.faithfulness == "not_guaranteed"
        assert report.has_flag("fixes_theta_max", generator="p")


def test_criterion_8_genus_dictionary():
    with criterion(8, "genus ranks 2/6/12 and the rank-6 root fan-out"):
        assert genus_rank(1) == 2
        assert genus_rank(2) == 6
        assert genus_rank(3) == 12
        exp = Expansion(
            rank=genus_rank(2), blocks=((1, 1, 1, 1, 1),), tail=Tail.truncated()
        )
        diag = build_diagram(exp)
        dot = to_dot(diag)
        assert dot.count("root ->") == 6
        assert dimension_vectors(diag, 1) == [[1] * 6]


def test_criterion_9_functor_laws():
    with criterion(9, "action functoriality, projection kernel, module equality"):
        rng = rng_for("acceptance-9")
        frame = CoordinateFrame(["1", "t", "t^2"])
        pl = PseudoLattice(
            frame,
            [(1, 0, 0), (Fraction(1, 2), 1, 0), (0, Fraction(2, 3), 1)],
        )
        ident = intmat.identity(3)
        for _ in range(500):
            t1 = random_unimodular(rng, 3)
            t2 = random_unimodular(rng, 3)
            assert act(ident, pl).vectors == pl.vectors
            assert (
                act(intmat.mat_mul(t1, t2), pl).vectors
                == act(t2, act(t1, pl)).vectors
            )
        positive = PseudoLattice(
            frame, [(1, 0, 0), (0, Fraction(3, 7), 0), (0, 0, Fraction(5, 2))]
        )
        for _ in range(100):
            c = Fraction(rng.randint(1, 60), rng.randint(1, 60))
            assert project(scale(c, positive)).vectors == project(positive).vectors
        for _ in range(200):
            t = random_unimodular(rng, 3)
            moved = act(t, pl)
            res = pl_isomorphic(pl, moved)
            assert res
            assert act(res.witness, pl).vectors == moved.vectors
