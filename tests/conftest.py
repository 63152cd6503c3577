import dataclasses
import random
import zlib
from fractions import Fraction
from math import lcm

import pytest

import jperron
from jperron import cli
from jperron import polynomials as poly
from jperron import representation as representation_module
from jperron.bratteli import StationaryVerdict, TailDecision
from jperron.cf import (
    PERIODIC,
    TERMINATED,
    TRUNCATED,
    Expansion,
    PeriodVerdict,
    Tail,
    canonical_periodic,
    detect_period,
    jpa_expand,
    jpa_step,
)
from jperron.cf import _stepped, prefix_product, projectively_equal, scalar_mat_vec
from jperron.cli import _theta_from_obj
from jperron.errors import (
    BudgetExceeded,
    JperronError,
    MalformedInput,
    NoCommonTail,
    RankMismatch,
)
from jperron.intmat import (
    check_unimodular,
    hnf,
    identity,
    inverse_unimodular,
    mat_eq,
    mat_mul,
    transpose,
)
from jperron.lattices import (
    PlIsomorphism,
    PplIsomorphism,
    ProjectivePseudoLattice,
    _integerized,
)
from jperron.representation import (
    DEPTH_BOUNDED,
    EXACT,
    ReportEntry,
    TailAlignment,
    VerificationReport,
    build_representation,
    evaluate_word,
    verify,
)
from jperron.scalars import (
    AlgebraicScalar,
    IntervalScalar,
    Ordering,
    RationalScalar,
    ScalarVector,
    _elem_is_zero,
    algebraic,
    compare,
    rational,
)


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


def fraction_inverse(c, modulus):
    """Euclid over Q, splitting off the factor a zero divisor shares with a
    reducible modulus: the oracle for ``scalars._elem_inverse``, which
    runs fraction-free and carries one cofactor."""
    g, u, _ = fraction_extended_gcd(c, modulus)
    if poly.degree(g) == 0:
        return u
    cofactor = poly.div_mod(modulus, g)[0]
    return fraction_inverse(poly.div_mod(c, cofactor)[1], cofactor)


def fraction_gcd(p, q):
    """Euclid over Q with Fraction coefficients: the oracle for
    ``poly.gcd``, which runs fraction-free."""
    a, b = poly.trim(p), poly.trim(q)
    while b:
        a, b = b, poly.div_mod(a, b)[1]
    if not a:
        return poly.ZERO
    lead = Fraction(a[-1])
    return tuple(Fraction(c) / lead for c in a)


def termwise_mat_vec(m, vec):
    """Integer matrix times scalar vector, one reduced sum per term: the
    oracle for ``cf.scalar_mat_vec``, which reduces once per row."""
    out = []
    for row in m:
        acc = rational(0)
        for c, x in zip(row, vec):
            if c:
                acc = acc + x * c
        out.append(acc)
    return tuple(out)


def fraction_project(pl):
    """The field branch of ``lattices.project`` with Fraction polynomial
    division by the modulus: the oracle for the field-kernel version."""
    field = pl.frame.field
    head = poly.trim(pl.vectors[0])
    if _elem_is_zero(head, field):
        raise ZeroDivisionError("division by zero field element")
    inv = fraction_inverse(head, field.modulus)
    d = pl.frame.dimension
    new = []
    for v in pl.vectors:
        prod = poly.div_mod(poly.mul(poly.trim(v), inv), field.modulus)[1]
        coords = list(prod) + [Fraction(0)] * (d - len(prod))
        new.append(tuple(Fraction(x) for x in coords))
    return ProjectivePseudoLattice(pl.frame, tuple(new))


def fraction_inverse_unimodular(a):
    """Gauss-Jordan over Q with Fraction entries: the oracle for
    ``intmat.inverse_unimodular``, which runs in integers."""
    check_unimodular(a)
    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if work[i][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        pv = work[col][col]
        work[col] = [x / pv for x in work[col]]
        for i in range(n):
            if i != col and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return [[int(work[i][n + j]) for j in range(n)] for i in range(n)]


def fraction_rank(rows):
    """Gauss-Jordan over Q with Fraction entries: the oracle for the rank
    test of ``lattices.PseudoLattice``, which runs ``intmat.hnf``."""
    work = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][c]
        for i in range(len(work)):
            if i != rank and work[i][c] != 0:
                f = work[i][c] / pv
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


# ------------------------------------------------------ certified decisions
# ``scalars.compare`` runs one enclosure race for interval operands and for
# two fields with different roots, and a zero test or ``same_root`` reads
# the signs of a factor of the modulus at the ends of the root enclosure.
# The functions below are the bodies they replaced: one refinement loop
# each for intervals and across fields, and Sturm counts on the enclosure.


def reference_compare(x, y):
    """``compare`` with its two refinement loops."""
    if isinstance(x, (int, Fraction)):
        x = RationalScalar(x)
    if isinstance(y, (int, Fraction)):
        y = RationalScalar(y)
    if isinstance(x, IntervalScalar) or isinstance(y, IntervalScalar):
        for _ in range(4096):
            xlo, xhi = x.enclosure()
            ylo, yhi = y.enclosure()
            if xhi < ylo:
                return Ordering.LT
            if yhi < xlo:
                return Ordering.GT
            if xlo == xhi == ylo == yhi:
                return Ordering.EQ
            if isinstance(x, IntervalScalar) and xlo < ylo and yhi < xhi:
                break
            if isinstance(y, IntervalScalar) and ylo < xlo and xhi < yhi:
                break
            progressed = False
            for side in (x, y):
                if isinstance(side, AlgebraicScalar) and side.field._exact_root is None:
                    side.field.refine_once()
                    progressed = True
            if not progressed:
                break
        return Ordering.INDETERMINATE
    if isinstance(x, AlgebraicScalar) and isinstance(y, AlgebraicScalar):
        if not (x.field is y.field or sturm_same_root(x.field, y.field)):
            return _reference_compare_cross_field(x, y)
    s = (x - y).sign()
    return Ordering(min(max(s, -1), 1))


def _reference_compare_cross_field(x, y):
    px = x.annihilator()
    py = y.annihilator()
    common = poly.to_int_poly(poly.gcd(px, py))
    chains = None
    if poly.degree(common) >= 1:
        chains = [poly.sturm_chain(p) for p in (px, py, common)]
        polys = (px, py, common)
    for _ in range(4096):
        xlo, xhi = x.enclosure()
        ylo, yhi = y.enclosure()
        if xhi < ylo:
            return Ordering.LT
        if yhi < xlo:
            return Ordering.GT
        if chains is not None:
            lo, hi = min(xlo, ylo), max(xhi, yhi)
            if all(
                poly.evaluate(p, lo) != 0 and poly.evaluate(p, hi) != 0
                for p in polys
            ):
                counts = [poly.count_roots(ch, lo, hi) for ch in chains]
                if counts[0] == 1 and counts[1] == 1 and counts[2] == 1:
                    return Ordering.EQ
        x.field.refine_once()
        y.field.refine_once()
    raise BudgetExceeded("cross-field comparison did not settle")


def sturm_same_root(field, other):
    """``NumberField.same_root`` by a Sturm count of the modulus on the
    common part of the two enclosures."""
    if other is field:
        return True
    if other.modulus != field.modulus:
        return False
    (lo, hi), (olo, ohi) = field.enclosure(), other.enclosure()
    lo, hi = max(lo, olo), min(hi, ohi)
    if lo > hi:
        return False
    if lo == hi:
        return poly.evaluate(field.modulus, lo) == 0
    return poly.count_roots(poly.sturm_chain(field.modulus), lo, hi) == 1


def sturm_is_zero(c, field):
    """``_elem_is_zero`` by a Sturm count of gcd(c, modulus) on the root
    enclosure, with no enclosure shortcut."""
    c = poly.trim(c)
    if not c:
        return True
    lo, hi = field.enclosure()
    if lo == hi:
        return poly.evaluate(c, lo) == 0
    g = poly.gcd(c, field.modulus)
    if poly.degree(g) < 1:
        return False
    return poly.count_roots(poly.sturm_chain(g), lo, hi) == 1


# ------------------------------------------------------- recurrence search
# ``cf._expand`` looks for a recurring state through enclosure filters and
# can resume a stored run.  The functions below step every state with
# ``jpa_step`` and compare each new state exactly with every earlier one,
# as the library did before, and serve as oracles for both.


def reference_find_recurrence(states, candidate):
    """First index of a state equal to ``candidate``, by exact compares."""
    for j, st in enumerate(states):
        if all(
            compare(a, b) is Ordering.EQ for a, b in zip(st.entries, candidate.entries)
        ):
            return j
    return None


def reference_expand(state, depth, search):
    """The Jacobi-Perron loop from a normalized state, searched for exact
    recurrence in its first ``search`` steps."""
    exact = all(e.is_exact() for e in state.entries)
    states = [state]
    blocks = []
    tail = Tail.truncated()
    residual = None
    for k in range(max(depth, search)):
        digits, nxt = jpa_step(state)
        blocks.append(digits)
        if nxt is None:
            tail = Tail.terminated()
            fracs = [x - b for x, b in zip(state.entries[1:], digits)]
            residual = tuple(fracs + [rational(1)])
            break
        j = reference_find_recurrence(states, nxt) if exact and k < search else None
        state = nxt
        states.append(state)
        if j is not None:
            tail = Tail.periodic(j, blocks[j:])
            break
    return Expansion(
        rank=state.rank,
        blocks=tuple(blocks),
        tail=tail,
        theta=states[0],
        states=tuple(states),
        residual=residual,
    )


def reference_detect_period(theta, max_preperiod, max_period):
    """``detect_period`` of an exact positive vector over ``reference_expand``."""
    budget = max_preperiod + max_period
    exp = reference_expand(ScalarVector.coerce(theta).normalized(), 0, budget)
    if exp.tail.kind == TERMINATED:
        return PeriodVerdict(
            TERMINATED,
            exp.depth,
            certified=True,
            note="expansion terminated (rationally dependent input)",
        )
    if exp.tail.kind == PERIODIC:
        return PeriodVerdict(
            PERIODIC,
            exp.depth,
            exp.tail.preperiod,
            exp.tail.period,
            certified=True,
            note="state recurrence certified exactly",
        )
    return PeriodVerdict(
        "aperiodic_up_to",
        budget,
        certified=False,
        note="no exact recurrence within the searched depth",
    )


def reference_expand_certified(theta, depth, max_preperiod, max_period):
    """``expand_certified`` of an exact positive vector over ``reference_expand``."""
    exp = reference_expand(
        ScalarVector.coerce(theta).normalized(), depth, max_preperiod + max_period
    )
    if exp.tail.kind != TRUNCATED or exp.depth <= depth:
        return exp
    return Expansion(
        rank=exp.rank,
        blocks=exp.blocks[:depth],
        tail=exp.tail,
        theta=exp.theta,
        states=exp.states[:depth + 1],
    )


def reference_verify(rep, relations=(), budget=32):
    """``verify`` with the periodicity search run from scratch on
    ``rep.theta_max``: the representation keeps a copy of its base run,
    which ``_expand`` did not step and so does not join, with the same
    states for the check that ``theta_max`` is in line."""
    run = rep.base_run and dataclasses.replace(rep.base_run)
    return verify(dataclasses.replace(rep, base_run=run), relations, budget)


# ------------------------------------------------------------ verify oracle
# ``verify`` reads faithfulness off the report it builds.  ``flag_verify``
# is the body it replaced, which threaded three flags to the verdict; the
# two must agree on every entry and on ``stationary``, and on faithfulness
# except where a reconstruction entry failed: the flags missed that failure
# and left faithfulness conditional.


def reference_reconstruction_checks(rep):
    """The two reconstruction checks ``verify`` made before it made one:
    {generator: (A*theta is the image, P_g(k)*theta_max is the image)},
    projectively, each in field arithmetic; the second is "unchecked"
    without a tail vector.  Generators without an exact image are left
    out."""
    checks = {}
    for name, a in rep.matrices.items():
        image = rep.images.get(name)
        if image is None:
            continue
        ok_base = projectively_equal(
            scalar_mat_vec(a, rep.theta.entries), image.entries
        )
        ok_tail = "unchecked"
        if rep.theta_max is not None:
            q = prefix_product(rep.expansions[name], rep.offsets[name])
            ok_tail = projectively_equal(
                scalar_mat_vec(q, rep.theta_max.entries), image.entries
            )
        checks[name] = (ok_base, ok_tail)
    return checks


def reference_reconstruction_entries(rep):
    """The reconstruction entries over both checks, with their old
    failure text."""
    checks = reference_reconstruction_checks(rep)
    entries = []
    for name in rep.matrices:
        if name not in checks:
            entries.append(ReportEntry(
                "reconstruction",
                True,
                name,
                "no exact image vector supplied; contract unchecked",
            ))
            continue
        ok_base, ok_tail = checks[name]
        ok = ok_base and ok_tail is not False
        entries.append(ReportEntry(
            "reconstruction",
            ok,
            name,
            "A*theta matches the image exactly"
            if ok
            else "image reconstruction failed (base %s, tail %s)" % (ok_base, ok_tail),
        ))
    return entries


def reference_tail_subject(rep):
    """What ``verify`` handed to ``detect_period`` before its search joined
    the base run: the stored base run from ``theta_offset`` on, cut by
    hand, when ``_expand`` stepped it, ``base_expansion`` was cut from it
    and its state at ``theta_offset`` is the very object ``theta_max``;
    else ``theta_max`` itself, searched from scratch."""
    run, t = rep.base_run, rep.theta_offset
    cut = getattr(run, "_stepped", False) and run.theta is rep.base_expansion.theta
    states = run.states[t:] if cut else ()
    if not states or states[0] is not rep.theta_max:
        return rep.theta_max
    return _stepped(Expansion(
        rank=run.rank,
        blocks=run.blocks[t:len(run.states) - 1],
        tail=Tail.truncated(),
        theta=rep.theta_max,
        states=states,
    ), run._boxes[t:])


def flag_verify(rep, relations=(), budget=32):
    """``verify`` with faithfulness decided by three flags, over the two
    reconstruction checks and the hand-cut tail subject."""
    ident = identity(rep.rank)
    names = list(rep.matrices)
    entries = reference_reconstruction_entries(rep)

    for idx, word in enumerate(relations):
        value = evaluate_word(rep, word)
        ok = mat_eq(value, ident)
        entries.append(
            ReportEntry(
                "relation",
                ok,
                None,
                "relation %d %s" % (idx, "holds" if ok else "does NOT evaluate to I"),
            )
        )

    stationary = None
    aperiodic_within_budget = False
    hypotheses_ok = True
    if rep.theta_max is None:
        entries.append(
            ReportEntry(
                "alignment",
                True,
                None,
                "tail entry state unavailable (alignment consumed the whole "
                "base stream); fixed-point checks are skipped",
            )
        )
        entries.append(
            ReportEntry(
                "aperiodicity",
                True,
                None,
                "tail vector unavailable; aperiodicity unchecked",
            )
        )
        hypotheses_ok = False
    else:
        verdict = detect_period(reference_tail_subject(rep), budget)
        if verdict.is_periodic:
            stationary = True
            hypotheses_ok = False
            entries.append(
                ReportEntry(
                    "aperiodicity",
                    False,
                    None,
                    "stationary: not in the aperiodic class (period %r certified "
                    "at preperiod %d)" % (list(verdict.period), verdict.preperiod),
                )
            )
        elif verdict.kind == TERMINATED:
            stationary = False
            hypotheses_ok = False
            entries.append(
                ReportEntry(
                    "aperiodicity",
                    False,
                    None,
                    "tail vector is rationally dependent (terminated stream); "
                    "the aperiodicity hypothesis does not apply",
                )
            )
        else:
            stationary = False
            aperiodic_within_budget = True
            entries.append(
                ReportEntry(
                    "aperiodicity",
                    True,
                    None,
                    "no period found up to depth %d (depth-bounded)" % verdict.depth,
                )
            )

    if rep.theta_max is not None:
        tail_entries = rep.theta_max.entries
        for nm in names:
            a = rep.matrices[nm]
            computed_is_identity = mat_eq(a, ident)
            if not computed_is_identity:
                if projectively_equal(scalar_mat_vec(a, tail_entries), tail_entries):
                    hypotheses_ok = False
                    entries.append(
                        ReportEntry(
                            "fixes_theta_max",
                            False,
                            nm,
                            "computed matrix fixes the tail vector projectively",
                        )
                    )
                    if aperiodic_within_budget:
                        entries.append(
                            ReportEntry(
                                "internal_inconsistency",
                                False,
                                nm,
                                "matrix fixes a tail vector that showed no period "
                                "within budget; data or alignment is inconsistent",
                            )
                        )
                else:
                    entries.append(
                        ReportEntry(
                            "fixed_point",
                            True,
                            nm,
                            "matrix does not fix the tail vector",
                        )
                    )
            m = rep.supplied.get(nm)
            if m is not None and not mat_eq(m, ident):
                if projectively_equal(scalar_mat_vec(m, tail_entries), tail_entries):
                    hypotheses_ok = False
                    entries.append(
                        ReportEntry(
                            "fixes_theta_max",
                            False,
                            nm,
                            "supplied action fixes the tail vector projectively",
                        )
                    )
            image = rep.images.get(nm)
            if image is not None and projectively_equal(image.entries, tail_entries):
                acts_nontrivially = (
                    m is not None and not mat_eq(m, ident)
                ) or not computed_is_identity
                if acts_nontrivially:
                    hypotheses_ok = False
                    entries.append(
                        ReportEntry(
                            "free_action",
                            False,
                            nm,
                            "generator fixes the base algebra but is not the "
                            "identity: the free-action hypothesis fails",
                        )
                    )

    if not hypotheses_ok:
        faithfulness = "not_guaranteed"
    elif rep.certification == EXACT:
        faithfulness = "conditional_on_aperiodicity"
    else:
        faithfulness = "conditional_depth_bounded"
    return VerificationReport(
        entries=tuple(entries), stationary=stationary, faithfulness=faithfulness
    )


RECONSTRUCTION_FAILED = "image reconstruction failed: A*theta is not the image"


def _tail_vector_in_line(rep):
    """Is theta = lambda * P_theta(t) * theta_max, the expansion's
    reconstruction contract, for the representation as given?"""
    q = prefix_product(rep.base_expansion, rep.theta_offset)
    return projectively_equal(
        scalar_mat_vec(q, rep.theta_max.entries), rep.theta.entries
    )


def reference_out_of_line(rep):
    """Is there a tail vector that is not the base run's state at
    ``theta_offset``, compared coordinate by coordinate?"""
    if rep.theta_max is None:
        return False
    states = rep.base_run.states if rep.base_run is not None else ()
    if rep.theta_offset >= len(states):
        return True
    state = states[rep.theta_offset]
    return len(state) != len(rep.theta_max) or any(
        compare(a, b) is not Ordering.EQ for a, b in zip(state, rep.theta_max)
    )


STABILIZER = "U = M^-1*A = %s fixes theta projectively: the free-action hypothesis fails"


def reference_stabilizers(rep):
    """{generator: U = M^-1*A} for each supplied M unequal to its A where
    A*theta is the image: U then fixes theta projectively."""
    out = {}
    for name, (ok_base, _) in reference_reconstruction_checks(rep).items():
        m, a = rep.supplied.get(name), rep.matrices[name]
        if ok_base and m is not None and not mat_eq(m, a):
            u = mat_mul(inverse_unimodular(m), a)
            assert projectively_equal(scalar_mat_vec(u, rep.theta.entries), rep.theta.entries)
            out[name] = u
    return out


def assert_agrees_with_flag_verify(report, want, rep):
    """``verify`` against ``flag_verify``.  The one reconstruction check is
    the old A*theta check.  The old tail check, P_g(k)*theta_max, is the
    same vector up to a scalar while theta_max is in line with
    ``theta_offset``, and only a failure's text changed.  A tail vector
    out of line with the base run gets one failing ``alignment`` entry,
    and a supplied M unequal to a reconstructing A one failing
    ``stabilizer`` entry; ``flag_verify`` made neither."""
    checks = reference_reconstruction_checks(rep)
    in_line = rep.theta_max is None or _tail_vector_in_line(rep)
    entries = list(report.entries)
    out_of_line = [e for e in entries if e.kind == "alignment" and not e.ok]
    assert len(out_of_line) == reference_out_of_line(rep)
    for e in out_of_line:
        assert e.message.startswith("tail vector is not the base state at theta_offset")
        entries.remove(e)
    stabilizers = [e for e in entries if e.kind == "stabilizer"]
    assert [e.generator for e in stabilizers] == list(reference_stabilizers(rep))
    for e, u in zip(stabilizers, reference_stabilizers(rep).values()):
        assert not e.ok and e.message == STABILIZER % [list(r) for r in u]
        entries.remove(e)
    assert len(entries) == len(want.entries)
    for got, old in zip(entries, want.entries):
        if got.kind == "reconstruction" and got.generator in checks:
            ok_base, ok_tail = checks[got.generator]
            assert got.ok == ok_base
            if in_line:
                assert ok_tail in (ok_base, "unchecked")
            message = "A*theta matches the image exactly" if got.ok else (
                RECONSTRUCTION_FAILED
            )
            assert got == dataclasses.replace(old, ok=got.ok, message=message)
        else:
            assert got == old
    assert report.stationary == want.stationary
    if report.has_flag("reconstruction") or out_of_line or stabilizers:
        assert report.faithfulness == "not_guaranteed"
    else:
        assert report.faithfulness == want.faithfulness


# Every representation a test builds, and every ``verify`` call a test
# makes (directly or through ``cli.main``), is logged here and checked
# against ``flag_verify`` when the test ends.  The library's names are
# wrapped at import, before the test modules import them.
_VERIFY_LOG = []


def _logged_build(*args, **kwargs):
    rep = build_representation(*args, **kwargs)
    _VERIFY_LOG.append((rep, (), 32, None))
    return rep


def _logged_verify(rep, relations=(), budget=32):
    relations = list(relations)
    report = verify(rep, relations, budget)
    _VERIFY_LOG.append((rep, relations, budget, report))
    return report


for _module in (jperron, representation_module, cli):
    _module.build_representation = _logged_build
    _module.verify = _logged_verify


def _outcome(fn, *args):
    try:
        return fn(*args)
    except JperronError as exc:
        return type(exc), str(exc)


@pytest.fixture(autouse=True)
def verify_agrees_with_flag_verify():
    _VERIFY_LOG.clear()
    yield
    for rep, relations, budget, report in _VERIFY_LOG:
        if report is None:
            report = _outcome(verify, rep, relations, budget)
        want = _outcome(flag_verify, rep, relations, budget)
        if isinstance(want, tuple):
            assert report == want
        else:
            assert_agrees_with_flag_verify(report, want, rep)
    _VERIFY_LOG.clear()


# ---------------------------------------------------------------- references
# ``bratteli.tail_equivalent`` is the two-stream case of
# ``representation.common_tail``, whose bounded branch searches through
# the longest suffix, and ``cli._expand_one`` and ``build_representation``
# make one ``cf.expand_certified`` expansion.  The functions below decide,
# align and expand on their own, as the library did before, and serve as
# oracles for all three.


def _reference_stream(exp):
    if exp.tail.kind == PERIODIC:
        pre, per = canonical_periodic(exp.blocks[:exp.tail.preperiod], exp.tail.period)
        return list(pre), list(per)
    return list(exp.blocks), None


def _reference_block(pre, per, i):
    if i < len(pre):
        return pre[i]
    return per[(i - len(pre)) % len(per)]


def _reference_rotation(period, target):
    for r in range(len(period)):
        if tuple(period[r:] + period[:r]) == tuple(target):
            return r
    return None


def reference_tail_equivalent(e1, e2, depth_budget=16):
    """The two-stream tail decision ``bratteli.tail_equivalent`` made on
    its own: exact for terminated and periodic pairs, a bounded offset
    search when either stream is truncated."""
    if e1.rank != e2.rank:
        raise RankMismatch("ranks %d and %d differ" % (e1.rank, e2.rank))
    k1, k2 = e1.tail.kind, e2.tail.kind
    if TRUNCATED in (k1, k2):
        return _reference_truncated(e1, e2, depth_budget)
    if k1 != k2:
        return TailDecision(
            TailDecision.NOT_EQUIVALENT,
            certified=True,
            note="a finite stream shares no tail with an infinite one",
        )
    if k1 == TERMINATED:
        b1, b2 = list(e1.blocks), list(e2.blocks)
        s = 0
        while s < min(len(b1), len(b2)) and b1[-1 - s] == b2[-1 - s]:
            s += 1
        return TailDecision(
            TailDecision.EQUIVALENT,
            offsets=(len(b1) - s, len(b2) - s),
            compared_depth=s,
            certified=True,
            note="finite streams; longest common suffix has %d blocks" % s,
        )
    pre1, per1 = _reference_stream(e1)
    pre2, per2 = _reference_stream(e2)
    if len(per1) != len(per2):
        return TailDecision(
            TailDecision.NOT_EQUIVALENT,
            certified=True,
            note="primitive periods have different lengths",
        )
    r = _reference_rotation(per2, per1)
    if r is None:
        return TailDecision(
            TailDecision.NOT_EQUIVALENT,
            certified=True,
            note="primitive periods differ under all rotations",
        )
    length = len(per1)
    best = None
    for t in range(length):
        p = len(pre1) + t
        q = len(pre2) + ((r + t) % length)
        while p > 0 and q > 0 and (
            _reference_block(pre1, per1, p - 1) == _reference_block(pre2, per2, q - 1)
        ):
            p -= 1
            q -= 1
        if best is None or (p + q, p) < (best[0] + best[1], best[0]):
            best = (p, q)
    return TailDecision(
        TailDecision.EQUIVALENT,
        offsets=best,
        certified=True,
        note="periodic streams aligned exactly",
    )


def _reference_truncated(e1, e2, depth_budget):
    need = max(e1.depth, e2.depth) + depth_budget
    b1 = e1.realize(need)
    b2 = e2.realize(need)
    best = None
    for total in range(0, 2 * depth_budget + 1):
        for p in range(0, min(total, depth_budget) + 1):
            q = total - p
            if q > depth_budget or p > len(b1) or q > len(b2):
                continue
            overlap = min(len(b1) - p, len(b2) - q)
            if overlap < 1:
                continue
            if b1[p:p + overlap] == b2[q:q + overlap]:
                best = (p, q, overlap)
                break
        if best:
            break
    if best:
        p, q, overlap = best
        return TailDecision(
            TailDecision.INCONCLUSIVE,
            offsets=(p, q),
            compared_depth=overlap,
            certified=False,
            note="truncated data: streams agree at all %d compared depths" % overlap,
        )
    return TailDecision(
        TailDecision.INCONCLUSIVE,
        compared_depth=0,
        certified=False,
        note="truncated data: no alignment within offset budget %d" % depth_budget,
    )


def _compositions(total, parts, cap):
    if parts == 1:
        if total <= cap:
            yield (total,)
        return
    for first in range(min(total, cap) + 1):
        for rest in _compositions(total - first, parts - 1, cap):
            yield (first,) + rest


def reference_common_tail_bounded(exps, depth_budget):
    """The bounded branch of ``representation.common_tail`` as an
    enumeration of every cut vector in order of total, then lexicographic
    order, over a memo of pairwise agreements (cost (b+1)^m)."""
    need = max(e.depth for e in exps) + depth_budget + 8
    realized = [e.realize(need) for e in exps]
    lengths = [len(b) for b in realized]
    m = len(exps)
    cache = {}

    def agree(i, j, ci, cj):
        key = (i, j, ci, cj)
        hit = cache.get(key)
        if hit is None:
            overlap = min(lengths[i] - ci, lengths[j] - cj)
            hit = overlap >= 1 and realized[i][ci:ci + overlap] == realized[j][cj:cj + overlap]
            cache[key] = hit
        return hit

    # cheap pre-check: every stream must align with the first one somehow
    for j in range(1, m):
        if not any(
            agree(0, j, c0, cj)
            for c0 in range(depth_budget + 1)
            for cj in range(depth_budget + 1)
        ):
            raise NoCommonTail(
                "stream %d never aligns with stream 0 within budget %d"
                % (j, depth_budget)
            )
    for total in range(m * depth_budget + 1):
        for cuts in _compositions(total, m, depth_budget):
            if any(cuts[i] >= lengths[i] for i in range(m)):
                continue
            if all(
                agree(i, j, cuts[i], cuts[j])
                for i in range(m)
                for j in range(i + 1, m)
            ):
                compared = min(lengths[i] - cuts[i] for i in range(m))
                tail = Expansion(
                    rank=exps[0].rank,
                    blocks=tuple(realized[0][cuts[0]:]),
                    tail=Tail.truncated(),
                )
                return TailAlignment(
                    tuple(cuts), tail, DEPTH_BOUNDED, compared_depth=compared
                )
    raise NoCommonTail("no joint alignment within budget %d" % depth_budget)


def reference_expand_tagged(vec, depth_budget):
    """Period search, then a fresh expansion when none is certified."""
    verdict = detect_period(vec, 2 * depth_budget)
    if verdict.expansion is not None:
        return verdict.expansion
    return jpa_expand(vec, depth_budget)


def reference_expand_one(theta_obj, mode, depth, pre_budget, per_budget):
    """``jperron expand`` of one vector as a period search followed by a
    fresh expansion; the input must be strictly positive."""
    theta = _theta_from_obj(theta_obj, mode)
    if depth < 0:
        raise MalformedInput("depth must be non-negative")
    exact = all(e.is_exact() for e in theta.entries)
    if exact and pre_budget > 0 and per_budget > 0:
        verdict = detect_period(theta, pre_budget + per_budget)
        if verdict.is_periodic:
            certified = verdict.expansion
            return Expansion(
                rank=certified.rank,
                blocks=tuple(certified.realize(max(depth, certified.depth))),
                tail=certified.tail,
                theta=certified.theta,
            )
        if verdict.kind == "terminated" and verdict.expansion is not None:
            exp = verdict.expansion
            if exp.depth <= depth:
                return exp
    return jpa_expand(theta, depth)


# ------------------------------------------------- stationarity and lattices
# ``bratteli.is_stationary`` is ``detect_period``'s verdict for every tail
# kind, and ``lattices.pl_isomorphic`` is ``ppl_isomorphic`` at scale 1,
# which compares the two Hermite forms each divided by the gcd of its
# entries.  The functions below are the bodies they replaced: tagged tails
# decided on their own, and each lattice scaled by its own lcm with the
# scale read off the first non-zero Hermite pivot.


def reference_is_stationary(exp, max_preperiod=16, max_period=16):
    """``is_stationary`` with its own branches for periodic and terminated
    tags."""
    if exp.tail.kind == PERIODIC:
        pre, _per = canonical_periodic(
            exp.blocks[:exp.tail.preperiod], exp.tail.period
        )
        return StationaryVerdict(
            stationary=True,
            periodic_from_start=(len(pre) == 0),
            certified=True,
            note="periodic tail",
        )
    if exp.tail.kind == TERMINATED:
        return StationaryVerdict(
            stationary=False,
            certified=True,
            note="terminated: a finite diagram is not an infinite periodic one",
        )
    verdict = detect_period(exp, max_preperiod + max_period)
    if verdict.is_periodic:
        return StationaryVerdict(
            stationary=True,
            periodic_from_start=(verdict.preperiod == 0),
            certified=verdict.certified,
            note=verdict.note,
        )
    return StationaryVerdict(
        stationary=False,
        certified=verdict.kind == TERMINATED and verdict.certified,
        note="no period found up to depth %d" % verdict.depth,
    )


def reference_pl_isomorphic(p, q):
    """``pl_isomorphic`` as an equality test of the two Hermite forms."""
    lp, lq = _integerized(p.vectors, q.vectors)
    hp, up = hnf(lp)
    hq, uq = hnf(lq)
    if not mat_eq(hp, hq):
        return PlIsomorphism(False)
    w = mat_mul(inverse_unimodular(uq), up)
    return PlIsomorphism(True, transpose(w))


def reference_ppl_isomorphic(p, q):
    """``ppl_isomorphic`` with each lattice scaled by its own lcm and the
    scale read off matching Hermite pivots."""
    dp = lcm(*[x.denominator for row in p.vectors for x in row])
    dq = lcm(*[x.denominator for row in q.vectors for x in row])
    lp = [[int(x * dp) for x in row] for row in p.vectors]
    lq = [[int(x * dq) for x in row] for row in q.vectors]
    hp, up = hnf(lp)
    hq, uq = hnf(lq)
    ratio = None
    for rp, rq in zip(hp, hq):
        for a, b in zip(rp, rq):
            if (a == 0) != (b == 0):
                return PplIsomorphism(False)
            if a != 0 and ratio is None:
                ratio = Fraction(b, a)
    if ratio is None or ratio <= 0:
        return PplIsomorphism(False)
    for rp, rq in zip(hp, hq):
        if any(Fraction(b, 1) != ratio * a for a, b in zip(rp, rq)):
            return PplIsomorphism(False)
    c = ratio * Fraction(dp, dq)
    w = mat_mul(inverse_unimodular(uq), up)
    return PplIsomorphism(True, c, transpose(w))
