from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    fraction_project,
    fraction_rank,
    random_positive_fraction,
    random_unimodular,
    reference_pl_isomorphic,
    reference_ppl_isomorphic,
    rng_for,
)
from jperron import intmat
from jperron import polynomials as poly
from jperron.errors import (
    FrameMismatch,
    InvalidGenus,
    MalformedInput,
    NonInvertibleLeadingEntry,
    NotUnimodular,
)
from jperron.intmat import det, identity, mat_mul
from jperron.lattices import (
    CoordinateFrame,
    ProjectivePseudoLattice,
    PseudoLattice,
    act,
    frame_from_json,
    frame_to_json,
    genus_rank,
    lattice_from_json,
    lattice_to_json,
    pl_contains,
    pl_isomorphic,
    ppl_isomorphic,
    project,
    projective_from_json,
    scale,
)
from jperron.scalars import AlgebraicScalar, Ordering, compare

FRAME2 = CoordinateFrame(["1", "t"])
FRAME3 = CoordinateFrame(["1", "t", "t^2"])


def unit_lattice(frame):
    d = frame.dimension
    return PseudoLattice(
        frame, [tuple(int(i == j) for j in range(d)) for i in range(d)]
    )


# ---------------------------------------------------------------- act


def test_act_identity():
    pl = unit_lattice(FRAME3)
    assert act(identity(3), pl).vectors == pl.vectors


def test_act_index_convention():
    pl = unit_lattice(FRAME2)
    out = act([[1, 1], [0, 1]], pl)
    # lambda'_1 = lambda_1, lambda'_2 = lambda_1 + lambda_2
    assert out.vectors == ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)))


def test_act_requires_unimodular():
    with pytest.raises(NotUnimodular):
        act([[2, 0], [0, 1]], unit_lattice(FRAME2))
    with pytest.raises(NotUnimodular):
        act([[1, 0], [0, Fraction(1, 2)]], unit_lattice(FRAME2))


def test_act_composition_random():
    rng = rng_for("act-composition")
    pl = PseudoLattice(FRAME3, [(1, 0, 0), (Fraction(1, 2), 1, 0), (0, Fraction(2, 3), 1)])
    for _ in range(60):
        t1 = random_unimodular(rng, 3)
        t2 = random_unimodular(rng, 3)
        assert act(mat_mul(t1, t2), pl).vectors == act(t2, act(t1, pl)).vectors


def test_act_builds_what_the_constructor_builds_without_a_hermite_form(monkeypatch):
    # the represent_audit catalog's field-frame lattices and generators,
    # and a symbolic frame, whose positivity stays undecided
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    audit = workloads.RepresentAudit()
    cases = []
    for spec in audit.generate(1):
        if spec["kind"] != "readme":
            p = audit.prepare(spec)
            pl = PseudoLattice(p["frame"], p["vectors"])
            cases.extend((m, pl) for _, m in spec["generators"])
    rng = rng_for("act-without-hnf")
    field_pl = cases[0][1]
    cases.extend((random_unimodular(rng, field_pl.rank), field_pl) for _ in range(8))
    pl = PseudoLattice(FRAME3, [(1, 0, 0), (Fraction(1, 2), 1, 0), (0, Fraction(2, 3), 1)])
    cases.extend((random_unimodular(rng, 3), pl) for _ in range(8))
    calls = []
    hnf = intmat.hnf
    monkeypatch.setattr(intmat, "hnf", lambda *a: calls.append(a) or hnf(*a))
    results = [act(m, pl) for m, pl in cases]
    assert calls == [] and len(cases) >= 100
    assert {r.positive for r in results} == {True, False, None}
    for (_, pl), got in zip(cases, results):
        assert got == PseudoLattice(pl.frame, got.vectors)
        assert all(type(x) is Fraction for v in got.vectors for x in v)


# ---------------------------------------------------------------- project


def test_project_divides_out_rational_head():
    pl = PseudoLattice(FRAME3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    pp = project(pl)
    assert pp.vectors == ((Fraction(1), Fraction(0), Fraction(0)),
                          (Fraction(0), Fraction(1), Fraction(0)),
                          (Fraction(0), Fraction(0), Fraction(1)))


def test_project_kernel_is_positive_scaling():
    pl = PseudoLattice(FRAME3, [(1, 0, 0), (0, Fraction(3, 7), 0), (0, 0, Fraction(5, 2))])
    for c in (Fraction(1, 3), Fraction(7, 5), 4):
        assert project(scale(c, pl)).vectors == project(pl).vectors


def test_project_identity_when_head_is_one():
    pl = PseudoLattice(FRAME3, [(1, 0, 0), (Fraction(7, 5), 1, 0), (Fraction(11, 5), 0, 1)])
    assert project(pl).vectors == pl.vectors


def test_project_needs_unit_or_field():
    pl = PseudoLattice(FRAME2, [(0, 1), (1, 1)])  # head is t, no field declared
    with pytest.raises(NonInvertibleLeadingEntry):
        project(pl)


def test_project_over_number_field():
    frame = CoordinateFrame(["1", "phi"], modulus=[-1, -1, 1], root=(1, 2))
    pl = PseudoLattice(frame, [(0, 1), (1, 1)])  # (phi, 1 + phi)
    pp = project(pl)
    # (1 + phi)/phi = phi exactly, because 1/phi = phi - 1
    assert pp.vectors == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


# monic, non-monic and reducible moduli; the last two pin sqrt 3 and the
# rational root 2 of (x - 2)(x^2 - 3)
_PROJECT_FIELDS = [
    ([-2, 0, 0, 1], (1, 2)),
    ([-1, 2, 0, 7], (0, 1)),
    ([6, -3, -2, 1], (Fraction(17, 10), Fraction(18, 10))),
    ([6, -3, -2, 1], (Fraction(19, 10), Fraction(21, 10))),
]


def _project_outcome(fn, pl):
    try:
        return fn(pl).vectors
    except (ZeroDivisionError, MalformedInput) as exc:
        # a zero-divisor head is inverted modulo a factor of the modulus, so
        # its quotient by itself is not reduced to 1 modulo the whole modulus
        return type(exc).__name__, str(exc)


def test_project_matches_fraction_reference():
    rng = rng_for("project-field-kernel")
    zero_divisors = projected = 0
    for modulus, root in _PROJECT_FIELDS:
        frame = CoordinateFrame(["1", "g", "g^2"], modulus=modulus, root=root)
        for k in range(60):
            rank = 2 + k % 2
            vectors = [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]
                for _ in range(rank)
            ]
            zero_divisor = modulus == _PROJECT_FIELDS[2][0] and k % 4 == 0
            if zero_divisor:
                # a head sharing a factor with the modulus: x - 2 or x^2 - 3
                vectors[0] = [Fraction(-2), Fraction(1), Fraction(0)]
                if k % 8 == 0:
                    vectors[0] = [Fraction(-3), Fraction(0), Fraction(1)]
                zero_divisors += 1
            if all(x == 0 for x in vectors[0]):
                continue
            try:
                pl = PseudoLattice(frame, vectors)
            except MalformedInput:
                continue  # dependent vectors
            if zero_divisor and frame.sign_of(vectors[0]) != 0:
                # the oracle's head times inverse, reduced modulo the whole
                # modulus, is not 1; check each value at the root instead
                field = frame.field
                head = AlgebraicScalar(field, vectors[0])
                for p, v in zip(project(pl).vectors, pl.vectors):
                    value = AlgebraicScalar(field, p) * head
                    assert compare(value, AlgebraicScalar(field, v)) is Ordering.EQ
                projected += 1
                continue
            got = _project_outcome(project, pl)
            assert got == _project_outcome(fraction_project, pl), (modulus, vectors)
            if not isinstance(got[0], str):
                assert all(type(x) is Fraction for v in got for x in v)
                projected += 1
    assert zero_divisors >= 20 and projected >= 150


def test_project_makes_no_polynomial_division(monkeypatch):
    lattices = [
        PseudoLattice(
            CoordinateFrame(["1", "g", "g^2"], modulus=modulus, root=root),
            [(1, 2, 3), (0, -1, 5), (Fraction(1, 2), 0, 4)],
        )
        for modulus, root in _PROJECT_FIELDS
    ]
    calls = []
    div_mod = poly.div_mod
    monkeypatch.setattr(poly, "div_mod", lambda *a: calls.append(a) or div_mod(*a))
    for pl in lattices:
        project(pl)
    assert calls == []


def test_field_frame_certifies_positivity():
    frame = CoordinateFrame(["1", "r"], modulus=[-2, 0, 1], root=(1, 2))
    assert PseudoLattice(frame, [(0, 1), (-1, 1)]).positive  # sqrt2 - 1 > 0
    assert PseudoLattice(frame, [(0, 1), (-2, 1)]).positive is False  # sqrt2 - 2 < 0


# ---------------------------------------------------------------- invariants


def test_lattice_validation():
    with pytest.raises(MalformedInput):
        PseudoLattice(FRAME2, [(0, 0), (0, 1)])  # lambda_1 = 0
    with pytest.raises(MalformedInput):
        PseudoLattice(FRAME2, [(1, 0), (2, 0)])  # dependent
    with pytest.raises(MalformedInput):
        ProjectivePseudoLattice(FRAME2, [(2, 0), (0, 1)])  # head not 1


# ---------------------------------------------------------------- isomorphism


def test_pl_isomorphic_self():
    pl = unit_lattice(FRAME3)
    res = pl_isomorphic(pl, pl)
    assert res and res.witness == identity(3)


def test_pl_isomorphic_after_action_random():
    rng = rng_for("pl-iso")
    pl = PseudoLattice(FRAME3, [(1, 0, 0), (Fraction(1, 3), 1, 0), (0, 0, Fraction(2, 5))])
    for _ in range(60):
        t = random_unimodular(rng, 3)
        q = act(t, pl)
        res = pl_isomorphic(pl, q)
        assert res
        assert act(res.witness, pl).vectors == q.vectors


def test_pl_isomorphic_distinguishes_index_two():
    p = PseudoLattice(FRAME2, [(1, 0), (0, 1)])
    q = PseudoLattice(FRAME2, [(1, 0), (0, 2)])
    assert not pl_isomorphic(p, q)


def test_pl_isomorphic_frame_mismatch():
    with pytest.raises(FrameMismatch):
        pl_isomorphic(unit_lattice(FRAME2), unit_lattice(CoordinateFrame(["1", "u"])))


def test_ppl_isomorphic_self():
    pp = ProjectivePseudoLattice(FRAME2, [(1, 0), (0, 1)])
    res = ppl_isomorphic(pp, pp)
    assert res and res.scale == 1 and res.witness == identity(2)


def test_ppl_isomorphic_constructed():
    pp = ProjectivePseudoLattice(FRAME2, [(1, 0), (0, 1)])
    # act by [[1,1],[0,1]] keeps the head at 1: images (1, 1 + t)
    moved = ProjectivePseudoLattice(FRAME2, [(1, 0), (1, 1)])
    res = ppl_isomorphic(pp, moved)
    assert res and res.scale == 1
    acted = act(res.witness, PseudoLattice(FRAME2, pp.vectors))
    scaled = tuple(tuple(res.scale * x for x in row) for row in acted.vectors)
    assert scaled == moved.vectors


def test_ppl_isomorphic_rejects_half_shift():
    pp = ProjectivePseudoLattice(FRAME2, [(1, 0), (0, 1)])
    shifted = ProjectivePseudoLattice(FRAME2, [(1, 0), (Fraction(1, 2), 1)])
    assert not ppl_isomorphic(pp, shifted)


def test_ppl_isomorphic_equivalence_spot_checks():
    rng = rng_for("ppl-laws")
    base = ProjectivePseudoLattice(FRAME3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    reps = [base]
    for _ in range(8):
        t = random_unimodular(rng, 3)
        # keep the head fixed: first column must be e_1
        for i in range(1, 3):
            t[i][0] = 0
        t[0][0] = 1
        if abs(det(t)) != 1:
            continue
        moved = act(t, PseudoLattice(FRAME3, base.vectors))
        reps.append(ProjectivePseudoLattice(FRAME3, moved.vectors))
    for a in reps:
        assert ppl_isomorphic(a, a)
        for b in reps:
            ab = ppl_isomorphic(a, b)
            ba = ppl_isomorphic(b, a)
            assert bool(ab) == bool(ba)
            for c in reps:
                if ab and ppl_isomorphic(b, c):
                    assert ppl_isomorphic(a, c)


def test_pl_contains():
    p = PseudoLattice(FRAME2, [(1, 0), (0, 1)])
    q = PseudoLattice(FRAME2, [(2, 0), (0, 3)])
    assert pl_contains(p, q)
    assert not pl_contains(q, p)


def _in_row_span(rows, v):
    # solve x * rows = v over Q and check integrality (square full rank)
    n = len(rows)
    aug = [[Fraction(rows[i][j]) for i in range(n)] + [Fraction(v[j])] for j in range(n)]
    col = 0
    for r in range(n):
        pivot = next((i for i in range(r, n) if aug[i][col] != 0), None)
        if pivot is None:
            return False
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][col]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        col += 1
    return all(aug[i][n].denominator == 1 for i in range(n))


def test_pl_isomorphic_against_membership_oracle():
    # independent oracle: module equality as two-way row membership
    rng = rng_for("hnf-oracle")
    frame = CoordinateFrame(["a", "b", "c"])
    for trial in range(80):
        base = None
        while base is None:
            rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            try:
                base = PseudoLattice(frame, rows)
            except Exception:
                base = None
        if trial % 2 == 0:
            other = act(random_unimodular(rng, 3), base)
        else:
            scaled = [list(r) for r in base.vectors]
            idx = rng.randrange(3)
            scaled[idx] = [2 * x for x in scaled[idx]]
            other = PseudoLattice(frame, scaled)
        verdict = bool(pl_isomorphic(base, other))
        p_rows = [[int(x) for x in r] for r in base.vectors]
        q_rows = [[int(x) for x in r] for r in other.vectors]
        oracle = all(_in_row_span(p_rows, v) for v in q_rows) and all(
            _in_row_span(q_rows, v) for v in p_rows
        )
        assert verdict == oracle, (base.vectors, other.vectors)


def _random_lattice(rng, frame, rank):
    while True:
        rows = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(frame.dimension)]
            for _ in range(rank)
        ]
        try:
            return PseudoLattice(frame, rows)
        except MalformedInput:
            continue


_ISO_FRAMES = [
    CoordinateFrame(["1", "t", "t^2"]),
    CoordinateFrame(["a", "b", "c", "d"]),
    CoordinateFrame(["1", "g", "g^2"], modulus=[-2, 0, 0, 1], root=(1, 2)),
    CoordinateFrame(["1", "g", "g^2"], modulus=[-1, 2, 0, 7], root=(0, 1)),
]


def test_pl_and_ppl_match_reference_on_random_pairs():
    rng = rng_for("pl-ppl-reference")
    related = isomorphic = 0
    for trial in range(240):
        frame = _ISO_FRAMES[trial % len(_ISO_FRAMES)]
        rank = rng.randint(2, frame.dimension)
        p = _random_lattice(rng, frame, rank)
        if trial % 3 == 2:
            q = _random_lattice(rng, frame, rank)
        else:
            related += 1
            c = 1 if trial % 3 == 0 else random_positive_fraction(rng, 12, 12)
            q = scale(c, act(random_unimodular(rng, rank), p))
        got, want = ppl_isomorphic(p, q), reference_ppl_isomorphic(p, q)
        assert (got.isomorphic, got.scale, got.witness) == (
            want.isomorphic,
            want.scale,
            want.witness,
        )
        got, want = pl_isomorphic(p, q), reference_pl_isomorphic(p, q)
        assert (got.isomorphic, got.witness) == (want.isomorphic, want.witness)
        isomorphic += got.isomorphic
    assert related == 160 and isomorphic >= 80


def _random_projective(rng, frame):
    head = (1,) + (0,) * (frame.dimension - 1)
    while True:
        rows = [head] + list(_random_lattice(rng, frame, frame.dimension).vectors[1:])
        try:
            PseudoLattice(frame, rows)
        except MalformedInput:
            continue
        return ProjectivePseudoLattice(frame, rows)


def test_ppl_matches_reference_on_projective_pairs():
    rng = rng_for("ppl-projective-reference")
    isomorphic = 0
    for trial in range(60):
        frame = _ISO_FRAMES[2 * (trial % 2)]
        p = _random_projective(rng, frame)
        t = random_unimodular(rng, frame.dimension)
        for i in range(1, frame.dimension):
            t[i][0] = 0
        t[0][0] = 1
        if trial % 2 == 0 and abs(det(t)) == 1:
            moved = act(t, PseudoLattice(frame, p.vectors))
            q = ProjectivePseudoLattice(frame, moved.vectors)
        else:
            q = _random_projective(rng, frame)
        got, want = ppl_isomorphic(p, q), reference_ppl_isomorphic(p, q)
        assert (got.isomorphic, got.scale, got.witness) == (
            want.isomorphic,
            want.scale,
            want.witness,
        )
        isomorphic += got.isomorphic
    assert isomorphic >= 5


# ---------------------------------------------------------------- genus


@pytest.mark.parametrize("g,expected", [(1, 2), (2, 6), (3, 12), (5, 24)])
def test_genus_rank(g, expected):
    assert genus_rank(g) == expected


def test_genus_rank_invalid():
    with pytest.raises(InvalidGenus):
        genus_rank(0)
    with pytest.raises(InvalidGenus):
        genus_rank(-3)


# ---------------------------------------------------------------- json


def test_lattice_json_round_trip():
    pl = PseudoLattice(FRAME3, [(1, 0, 0), (Fraction(1, 3), 1, 0), (0, 0, Fraction(2, 5))])
    back = lattice_from_json(lattice_to_json(pl))
    assert back.vectors == pl.vectors
    assert back.frame.symbols == pl.frame.symbols


def test_field_frame_json_round_trip():
    frame = CoordinateFrame(["1", "phi"], modulus=[-1, -1, 1], root=(1, 2))
    back = frame_from_json(frame_to_json(frame))
    assert back.field is not None and back.field.same_root(frame.field)
    pl = PseudoLattice(frame, [(0, 1), (1, 1)])
    rt = lattice_from_json(lattice_to_json(pl))
    assert rt.vectors == pl.vectors and rt.positive


def test_projective_json():
    pp = ProjectivePseudoLattice(FRAME2, [(1, 0), (Fraction(2, 3), 1)])
    obj = lattice_to_json(PseudoLattice(FRAME2, pp.vectors))
    back = projective_from_json(obj)
    assert back.vectors == pp.vectors


def test_independence_check_matches_fraction_rank():
    # the rank now comes from the Hermite form of the integerized rows
    rng = rng_for("lattice-rank")
    dependent = 0
    for _ in range(300):
        dim = rng.randint(1, 5)
        n = rng.randint(2, 5)
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(dim)]
            for _ in range(n)
        ]
        if rng.random() < 0.4:
            i = rng.randrange(n)
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)]
            rows[i] = [
                sum(c * r[k] for j, (c, r) in enumerate(zip(coeffs, rows)) if j != i)
                for k in range(dim)
            ]
        frame = CoordinateFrame(["s%d" % k for k in range(dim)])
        expected = fraction_rank(rows) == n
        dependent += not expected
        try:
            PseudoLattice(frame, rows)
            accepted = True
        except MalformedInput:
            accepted = False
        assert accepted == expected
    assert 60 < dependent < 300
