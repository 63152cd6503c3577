"""The Euclidean algorithm, regular continued fractions and the
Jacobi-Perron algorithm over exact scalars.

The expansion of a positive vector (1, x_1, ..., x_{n-1}) emits one digit
block b = (floor x_1, ..., floor x_{n-1}) per step and moves to the state
(1, f_2/f_1, ..., f_{n-1}/f_1, 1/f_1), where f_i are the fractional
parts.  A fractional part f_1 = 0 terminates the expansion (this is the
multidimensional shape of a rational input).  Each step has a companion
unimodular matrix; the running product of those matrices reconstructs the
input vector from any later state, exactly, which is the contract most of
the tests in this package lean on.  Rational input runs in integers, on
the vector scaled to a common denominator, and gives the same digits and
states as the scalar step.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import intmat
from .errors import (
    DepthExceeded,
    EmptyInput,
    IndeterminateFloor,
    MalformedInput,
    NonPositiveEntry,
    NonPositiveState,
)
from .scalars import (
    AlgebraicScalar,
    Ordering,
    RationalScalar,
    Scalar,
    ScalarVector,
    _int_mat_vec,
    compare,
    floor_exact,
    int_from_json,
    rational,
    refine,
    vector_from_json,
    vector_to_json,
)

TERMINATED = "terminated"
TRUNCATED = "truncated"
PERIODIC = "periodic"


def _as_digit_block(b, rank=None):
    block = tuple(int(x) for x in b)
    if not block:
        raise MalformedInput("digit block must be non-empty")
    if any(x < 0 for x in block):
        raise MalformedInput("digit entries must be non-negative")
    if rank is not None and len(block) != rank - 1:
        raise MalformedInput(
            "digit block %r does not match rank %d" % (block, rank)
        )
    return block


def primitive_period(period):
    """Shortest block sequence whose repetition generates ``period``."""
    period = list(period)
    n = len(period)
    for q in range(1, n + 1):
        if n % q == 0 and period == period[:q] * (n // q):
            return tuple(period[:q])
    return tuple(period)


@dataclass(frozen=True)
class Tail:
    """Tail tag of an expansion: terminated, truncated, or periodic."""

    kind: str
    preperiod: Optional[int] = None
    period: Optional[tuple] = None

    @staticmethod
    def terminated():
        return Tail(TERMINATED)

    @staticmethod
    def truncated():
        return Tail(TRUNCATED)

    @staticmethod
    def periodic(preperiod, period):
        period = tuple(_as_digit_block(b) for b in period)
        if not period:
            raise MalformedInput("periodic tail needs a non-empty period")
        if primitive_period(period) != period:
            raise MalformedInput("period %r is not primitive" % (period,))
        return Tail(PERIODIC, int(preperiod), period)


@dataclass(frozen=True)
class Expansion:
    """A finite or eventually-periodic Jacobi-Perron digit stream.

    ``blocks`` are the explicitly stored digit blocks.  A periodic tail
    declares the stream to continue as blocks[:preperiod] + period
    repeated forever; the stored blocks must agree with that declaration.
    ``states`` (when present) hold the exact state after each step, and a
    terminated expansion records the final fractional ``residual``.
    """

    rank: int
    blocks: tuple
    tail: Tail
    theta: Optional[ScalarVector] = None
    states: Optional[tuple] = None
    residual: Optional[tuple] = None

    def __post_init__(self):
        if self.rank < 2:
            raise MalformedInput("rank must be at least 2")
        object.__setattr__(
            self,
            "blocks",
            tuple(_as_digit_block(b, self.rank) for b in self.blocks),
        )
        if self.tail.kind == PERIODIC:
            p, per = self.tail.preperiod, self.tail.period
            if p < 0 or p > len(self.blocks):
                raise MalformedInput("preperiod outside stored blocks")
            for b in per:
                _as_digit_block(b, self.rank)
            for i in range(p, len(self.blocks)):
                if self.blocks[i] != per[(i - p) % len(per)]:
                    raise MalformedInput(
                        "stored blocks disagree with the declared period"
                    )

    @property
    def depth(self):
        return len(self.blocks)

    def available_depth(self):
        """Stored depth, or infinity for a periodic tail."""
        return math.inf if self.tail.kind == PERIODIC else len(self.blocks)

    def block_at(self, i):
        if i < len(self.blocks):
            return self.blocks[i]
        if self.tail.kind == PERIODIC:
            p, per = self.tail.preperiod, self.tail.period
            return per[(i - p) % len(per)]
        raise DepthExceeded("block %d beyond available depth" % i)

    def realize(self, depth):
        """First ``depth`` blocks (cycling a periodic tail as needed)."""
        if self.tail.kind != PERIODIC:
            depth = min(depth, len(self.blocks))
        return [self.block_at(i) for i in range(depth)]

    def is_exact_tail(self):
        return self.tail.kind in (TERMINATED, PERIODIC)


def step_matrix(b):
    """The unimodular companion matrix of one digit block.

    First row (0, ..., 0, 1); row i+1 is the i-th unit row with b_i
    appended in the last column.  Its determinant is (-1)^(n+1).
    """
    b = _as_digit_block(b)
    n = len(b) + 1
    m = [[0] * n for _ in range(n)]
    m[0][n - 1] = 1
    for i, digit in enumerate(b):
        m[i + 1][i] = 1
        m[i + 1][n - 1] = digit
    return m


def scalar_mat_vec(m, vec):
    """Integer matrix times scalar vector."""
    out = _int_mat_vec(m, vec)
    if out is not None:
        return out
    out = []
    for row in m:
        acc = rational(0)
        for c, x in zip(row, vec):
            if c:
                acc = acc + x * c
        out.append(acc)
    return tuple(out)


def projectively_equal(u, v):
    """Exact proportionality of two scalar vectors via cross products."""
    if len(u) != len(v):
        return False
    u = tuple(u)
    v = tuple(v)
    for i in range(1, len(u)):
        if not (u[i] * v[0]) == (v[i] * u[0]):
            return False
    return True


def _check_state(state):
    # Interior states may carry exact zeros (a coordinate whose fractional
    # part vanished on an earlier step); only negative or uncertifiable
    # entries are rejected here.  Strict positivity of the original input
    # is enforced by jpa_expand.
    state = ScalarVector.coerce(state)
    if compare(state[0], rational(1)) is not Ordering.EQ:
        raise MalformedInput("state vector must be normalized to leading 1")
    for x in state:
        s = x.sign()
        if s is None:
            raise NonPositiveState("cannot certify the sign of %r" % (x,))
        if s < 0:
            raise NonPositiveState("state entry %r is negative" % (x,))
    return state


def jpa_step(state):
    """One Jacobi-Perron step.

    Returns (digit block, next state); the next state is None when the
    first fractional part vanishes and the expansion terminates.
    """
    digits, _, nxt = _step(_check_state(state))
    return digits, nxt


def _step(state):
    """(digits, parts, next state) of ``jpa_step`` for a valid state (head
    1, entries >= 0), as is every state a step builds, even where interval
    data cannot certify a sign.  ``parts`` are the fractional parts
    (f_1, ..., f_{n-1}, 1): the next state normalizes them, and a
    terminated step keeps them as its residual."""
    digits = tuple(floor_exact(x) for x in state.entries[1:])
    parts = ScalarVector(
        [x - b for x, b in zip(state.entries[1:], digits)] + [rational(1)]
    )
    s0 = parts[0].sign()
    if s0 is None:
        raise IndeterminateFloor("cannot decide termination of %r" % (state,))
    return digits, parts, (parts.normalized() if s0 else None)


def _all_rational(state):
    return all(isinstance(e, RationalScalar) for e in state.entries)


def _rational_expand(state, max_depth):
    """``jpa_expand`` of a normalized all-rational state, in integers.

    Scaled once to the common denominator, the state is an integer vector
    v; a step divides every coordinate by the head v_0, emits the
    quotients and continues from the remainders with v_0 rotated to the
    back.  A zero first remainder terminates.  Digits, states and residual
    equal those of the ``jpa_step`` loop.
    """
    values = [x.value for x in state.entries]
    scale = math.lcm(*(x.denominator for x in values))
    vec = [x.numerator * (scale // x.denominator) for x in values]
    one = rational(1)
    states = [state]
    blocks = []
    tail = Tail.truncated()
    residual = None
    for _ in range(max_depth):
        head = vec[0]
        digits, rest = zip(*[divmod(v, head) for v in vec[1:]])
        blocks.append(digits)
        if rest[0] == 0:
            tail = Tail.terminated()
            residual = tuple(rational(r, head) for r in rest) + (one,)
            break
        vec = [*rest, head]
        states.append(ScalarVector([one] + [Fraction(v, rest[0]) for v in vec[1:]]))
    return Expansion(
        rank=state.rank,
        blocks=tuple(blocks),
        tail=tail,
        theta=state,
        states=tuple(states),
        residual=residual,
    )


def _positive_state(theta):
    vec = ScalarVector.coerce(theta)
    pos = vec.is_positive()
    if pos is None:
        raise NonPositiveState("cannot certify positivity of the input vector")
    if not pos:
        raise NonPositiveState("input vector must be strictly positive")
    return vec.normalized()


def _stepped(exp, boxes=None):
    """Mark ``exp`` as stepped from its ``theta`` by ``_expand``, so a period
    search may replay its states and a run may join it; ``boxes`` are the
    recurrence boxes of its first states, kept for the runs that join it.
    ``dataclasses.replace`` builds a new instance, which carries neither."""
    object.__setattr__(exp, "_stepped", True)
    object.__setattr__(exp, "_boxes", boxes or ())
    return exp


def _expand(state, depth, search=0, join=None):
    """The Jacobi-Perron loop from a normalized state, for ``jpa_expand``,
    ``detect_period`` and ``expand_certified``.

    Runs up to max(depth, search) steps and stops at termination; a
    rational state runs in integers.  In the first ``search`` steps an
    exact state that recurs stops it with a certified periodic tail.  An
    indeterminate floor is raised within the first ``depth`` steps; after
    them it stops the loop, leaving a truncated tail.

    The caller checks ``state``; later states are valid by construction.

    ``join`` is a run of exact states, used only if ``_expand`` stepped
    it (a run rebuilt with ``dataclasses.replace`` is not).  Until the
    loop meets it, each exact state is looked up among ``join.states``
    with the recurrence search's test.  From a state equal to
    ``join.states[j]`` on, ``join``'s blocks and states from j are
    replayed instead of stepped, and stepping resumes past its last
    stepped state.  The recurrence search runs over the replayed states
    as over stepped ones, so blocks, states and tail are those of the
    loop without ``join``.  A run stepped from ``state`` itself is met at
    j = 0 and extended.  A rational state needs no search, so its kernel
    starts over.
    """
    if _all_rational(state):
        # a rational state never recurs: the integer heads strictly
        # decrease and the unimodular steps keep the gcd of the vector
        return _stepped(_rational_expand(state, max(depth, search)))
    exact = all(e.is_exact() for e in state.entries)
    if not exact or not getattr(join, "_stepped", False):
        join = None  # no exact equality, or a run the loop did not step
    states = [state]
    blocks = []
    tail = Tail.truncated()
    residual = None
    box = _box(state) if exact and (search or join) else None
    boxes = [box] if exact and search else None
    # ``at``: the index in ``join`` of the current state, once they met
    at = None
    if join is not None:
        jboxes = list(join._boxes)
        jboxes += [None] * (len(join.states) - len(jboxes))
        replay = min(len(join.blocks), len(join.states) - 1)
        at = _find_state(join.states, jboxes, state, box)
    for k in range(max(depth, search)):
        if at is not None and at < replay:
            digits, nxt = join.blocks[at], join.states[at + 1]
            at += 1
            box = jboxes[at]
        else:
            box = None
            try:
                digits, parts, nxt = _step(state)
            except IndeterminateFloor:
                if k < depth:
                    raise
                break
        blocks.append(digits)
        if nxt is None:
            # only a stepped state terminates: a replayed one has a successor
            tail = Tail.terminated()
            residual = parts.entries
            break
        searching = exact and k < search
        looking = join is not None and at is None
        if box is None and (searching or looking):
            box = _box(nxt)
        if looking:
            at = _find_state(join.states, jboxes, nxt, box)
        j = None
        if searching:
            j = _find_state(states, boxes, nxt, box)
            boxes.append(box)
        state = nxt
        states.append(state)
        if j is not None:
            # the period is primitive: if the product P of a shorter
            # period q fixed states[j] projectively, states[j + q], which
            # P maps onto states[j], would equal it and recur earlier
            tail = Tail.periodic(j, blocks[j:])
            break
    return _stepped(Expansion(
        rank=state.rank,
        blocks=tuple(blocks),
        tail=tail,
        theta=states[0],
        states=tuple(states),
        residual=residual,
    ), boxes)


def jpa_expand(theta, max_depth):
    """Expand a positive vector for up to ``max_depth`` digit blocks."""
    return _expand(_positive_state(theta), max_depth)


def _check_budget(budget):
    if budget < 0:
        raise MalformedInput("period search budget %d is negative" % budget)


def expand_certified(theta, depth, budget):
    """Expand a positive vector once, certifying its tail when possible.

    Exact input runs max(depth, budget) steps and is searched for state
    recurrence during the first ``budget`` of them.  A periodic or
    terminated expansion found in those steps is returned whole;
    otherwise the result is the first ``depth`` blocks with their states
    and a truncated tail, as ``jpa_expand`` gives them.  Interval input is
    not searched and expands to ``depth``.
    """
    _check_budget(budget)
    return _certified_run(_positive_state(theta), depth, budget)[0]


def _certified_run(state, depth, budget, join=None):
    """(``expand_certified`` result, the whole run it was cut from) for a
    normalized positive state, joining the run ``join`` (see ``_expand``)
    when given."""
    exact = all(e.is_exact() for e in state.entries)
    run = _expand(state, depth, budget if exact else 0, join=join)
    if run.tail.kind != TRUNCATED or run.depth <= depth:
        return run, run
    exp = Expansion(
        rank=run.rank,
        blocks=run.blocks[:depth],
        tail=run.tail,
        theta=run.theta,
        states=run.states[:depth + 1],
    )
    return _stepped(exp), run


def regular_cf(x, max_depth):
    """Regular continued fraction of a positive scalar, as a rank-2 expansion.

    This is the classical floor/reciprocal loop, deliberately independent
    of jpa_expand; at rank 2 the two must agree digit for digit, and the
    test suite holds them to that.
    """
    if isinstance(x, (int, Fraction)):
        x = rational(x)
    if not isinstance(x, Scalar):
        raise MalformedInput("regular_cf expects a scalar")
    s = x.sign()
    if s is None:
        raise NonPositiveState("cannot certify positivity of %r" % (x,))
    if s <= 0:
        raise NonPositiveState("regular_cf needs a positive value")
    source = ScalarVector([rational(1), x])
    states = [source]
    blocks = []
    tail = Tail.truncated()
    residual = None
    cur = x
    for _ in range(max_depth):
        b = floor_exact(cur)
        blocks.append((b,))
        frac = cur - b
        sf = frac.sign()
        if sf is None:
            raise IndeterminateFloor("cannot decide termination of %r" % (cur,))
        if sf == 0:
            tail = Tail.terminated()
            residual = (frac, rational(1))
            break
        cur = rational(1) / frac
        states.append(ScalarVector([rational(1), cur]))
    return Expansion(
        rank=2,
        blocks=tuple(blocks),
        tail=tail,
        theta=source,
        states=tuple(states),
        residual=residual,
    )


def euclid_chain(a, b):
    """Remainder-chain gcd of two positive integers with its quotients."""
    if a <= 0 or b <= 0:
        raise NonPositiveEntry("inputs must be positive")
    quotients = []
    while b:
        quotients.append(a // b)
        a, b = b, a % b
    return a, quotients


def euclid_gcd(values):
    """Gcd of two or more positive integers.

    Runs the integer form of the Jacobi-Perron step (reduce every entry
    modulo the head, then rotate the head to the back) until a single
    value survives; for two values this is the remainder chain of
    ``euclid_chain``.
    """
    vals = [int(v) for v in values]
    if len(vals) < 2:
        raise EmptyInput("need at least two integers")
    if any(v <= 0 for v in vals):
        raise NonPositiveEntry("all entries must be positive")
    while len(vals) > 1:
        while vals[0] != 0:
            head = vals[0]
            vals = [v % head for v in vals[1:]] + [head]
        vals = [v for v in vals if v != 0]
    return vals[0]


def _times_step(m, block):
    """``m`` times ``step_matrix(block)`` in O(n^2): every row shifts left
    by one and ends in row[0] + sum(b_i * row[i])."""
    terms = [(i, b) for i, b in enumerate(block, 1) if b]
    out = []
    for row in m:
        last = row[0]
        for i, b in terms:
            last += b * row[i]
        rest = row[1:]
        rest.append(last)
        out.append(rest)
    return out


def prefix_product(exp, k):
    """Product of the first ``k`` step matrices."""
    if k < 0 or (k > exp.available_depth()):
        raise DepthExceeded("depth %d beyond available expansion" % k)
    out = intmat.identity(exp.rank)
    for i in range(k):
        out = _times_step(out, exp.block_at(i))
    return out


def convergent(exp, k, bound_eps=Fraction(1, 10**15)):
    """k-th convergent column with an optional exact error bound.

    Returns (integer vector, bound); the bound is a rational upper bound
    on the sup-norm distance between the normalized convergent and the
    stored source vector, or None when no exact source is available or
    the convergent cannot be normalized.  Computing the bound refines
    each source entry to width ``bound_eps``, which must be positive
    (``MalformedInput`` otherwise).
    """
    p = prefix_product(exp, k)
    col = [row[-1] for row in p]
    bound = None
    if (
        exp.theta is not None
        and col[0] != 0
        and all(e.is_exact() for e in exp.theta)
    ):
        bound = Fraction(0)
        for ci, ti in zip(col, exp.theta):
            lo, hi = refine(ti, bound_eps).enclosure()
            c = Fraction(ci, col[0])
            bound = max(bound, abs(c - lo), abs(c - hi))
    return col, bound


def canonical_periodic(preperiod_blocks, period):
    """Minimal preperiod and primitive period describing the same stream."""
    pre = [tuple(b) for b in preperiod_blocks]
    per = list(primitive_period([tuple(b) for b in period]))
    while pre and pre[-1] == per[-1]:
        per = [per[-1]] + per[:-1]
        pre.pop()
    return pre, per


@dataclass(frozen=True)
class PeriodVerdict:
    """Outcome of a periodicity search.

    ``kind`` is "terminated", "periodic" or "aperiodic_up_to".  Certified
    verdicts come from exact state recurrence (or exact termination);
    uncertified ones only say what the searched depth showed.
    """

    kind: str
    depth: int
    preperiod: Optional[int] = None
    period: Optional[tuple] = None
    certified: bool = False
    note: str = ""
    expansion: Optional[Expansion] = None

    @property
    def is_periodic(self):
        return self.kind == PERIODIC


def _box(state):
    """The state's coordinate enclosures, as outward-rounded floats.

    No field is refined: a box read at an older, wider field enclosure
    still contains the coordinate.  The coordinates are taken last first,
    so the leading 1 of a normalized state, which never tells two states
    apart, is looked at last.
    """
    return tuple(_outward(x) for x in reversed(state.entries))


def _outward(x):
    # int true division, like float() of a Fraction, rounds to nearest, so
    # one ulp outward encloses
    try:
        if isinstance(x, AlgebraicScalar):
            lo, hi, den = x._bounds()
            lo, hi = lo / den, hi / den
        else:
            lo, hi = x.enclosure()
            lo, hi = float(lo), float(hi)
        return math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    except OverflowError:
        return -math.inf, math.inf


def _disjoint(a, b):
    for (alo, ahi), (blo, bhi) in zip(a, b):
        if ahi < blo or bhi < alo:
            return True
    return False


def _find_state(states, boxes, candidate, box):
    """Index of the first state in ``states`` equal to ``candidate``, whose
    box is ``box``, or None.  ``boxes[j]`` is the box of ``states[j]``, or
    None when it was not read yet.

    The candidate itself is equal at once.  A state whose box misses the
    candidate's in some coordinate cannot equal it.  A box that meets it
    is read again, at the field's current enclosure (a box stored early
    is wide), and exact vector equality runs only if they still meet.
    The reduced coordinates are never compared as data: over a reducible
    modulus equal values can be stored differently.
    """
    for j, st in enumerate(states):
        if st is candidate:
            return j
        if boxes[j] is not None and _disjoint(boxes[j], box):
            continue
        boxes[j] = _box(st)
        if _disjoint(boxes[j], box):
            continue
        if st == candidate:
            return j
    return None


def detect_period(subject, budget=32):
    """Certified periodicity detection for exact vectors and expansions.

    The search takes at most ``budget`` steps.  For an exact
    (rational/algebraic) vector the verdict rests on exact recurrence of
    the expansion state, which also certifies the primitive period.
    Terminated means the input was rationally dependent.  When nothing
    recurs within the searched depth the verdict is an honest "aperiodic
    up to depth", never a certificate.  A truncated expansion with exact
    ``theta`` gets the verdict of its ``theta``; the search joins the
    expansion (see ``_expand``), so a run that ``_expand`` stepped from
    ``theta`` is extended instead of expanded again.
    """
    _check_budget(budget)
    if not isinstance(subject, Expansion):
        return _period_verdict(subject, budget)
    if subject.tail.kind != TRUNCATED:
        tagged = "expansion carries a %s tag"
        return _tail_verdict(subject, True, tagged % TERMINATED, tagged % PERIODIC)
    if subject.theta is not None and all(e.is_exact() for e in subject.theta):
        return _period_verdict(subject.theta, budget, join=subject)
    return PeriodVerdict(
        kind="aperiodic_up_to",
        depth=subject.depth,
        note="truncated digit data cannot certify periodicity",
    )


def _tail_verdict(exp, certified, terminated_note, periodic_note):
    """The verdict of an expansion with a terminated or periodic tail, the
    periodic tail in canonical form; ``certified`` applies to termination."""
    if exp.tail.kind == TERMINATED:
        return PeriodVerdict(
            kind=TERMINATED,
            depth=exp.depth,
            certified=certified,
            note=terminated_note,
            expansion=exp,
        )
    pre, per = canonical_periodic(exp.blocks[:exp.tail.preperiod], exp.tail.period)
    return PeriodVerdict(
        kind=PERIODIC,
        depth=exp.depth,
        preperiod=len(pre),
        period=tuple(per),
        certified=True,
        note=periodic_note,
        expansion=exp,
    )


def _period_verdict(subject, depth_budget, join=None):
    """The verdict of a ``depth_budget``-step search from the vector
    ``subject``, joining the run ``join`` (see ``_expand``) when given.
    It checks ``subject`` once: its head divides out, and if a step is
    taken, no entry is negative."""
    _check_budget(depth_budget)
    vec = ScalarVector.coerce(subject)
    if not vec[0].sign():  # zero, or an interval containing zero
        raise NonPositiveState("cannot divide by the leading entry %r" % (vec[0],))
    state = vec.normalized()
    if depth_budget:
        _check_state(state)
    exp = _expand(state, 0, depth_budget, join=join)
    if exp.tail.kind == TRUNCATED:
        # the search stops short of its budget only where a floor of
        # interval data became indeterminate
        return PeriodVerdict(
            kind="aperiodic_up_to",
            depth=exp.depth,
            note="floor became indeterminate; interval data exhausted"
            if exp.depth < depth_budget
            else "no exact recurrence within the searched depth",
        )
    return _tail_verdict(
        exp,
        all(e.is_exact() for e in state.entries),
        "expansion terminated (rationally dependent input)",
        "state recurrence certified exactly",
    )


def expansion_to_json(exp, include_theta=True):
    tail = {"kind": exp.tail.kind}
    if exp.tail.kind == PERIODIC:
        tail["preperiod"] = exp.tail.preperiod
        tail["period"] = [list(b) for b in exp.tail.period]
    out = {
        "rank": exp.rank,
        "blocks": [list(b) for b in exp.blocks],
        "tail": tail,
    }
    if include_theta and exp.theta is not None:
        out["theta"] = vector_to_json(exp.theta)
    return out


def expansion_from_json(obj):
    if not isinstance(obj, dict):
        raise MalformedInput("expansion must be a JSON object")
    try:
        rank = int_from_json(obj["rank"])
        blocks = [tuple(int_from_json(x) for x in b) for b in obj["blocks"]]
        tail_obj = obj["tail"]
        kind = tail_obj["kind"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput("bad expansion encoding: %s" % exc) from exc
    if kind == TERMINATED:
        tail = Tail.terminated()
    elif kind == TRUNCATED:
        tail = Tail.truncated()
    elif kind == PERIODIC:
        try:
            tail = Tail.periodic(
                int_from_json(tail_obj["preperiod"]),
                [tuple(int_from_json(x) for x in b) for b in tail_obj["period"]],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInput("bad periodic tail: %s" % exc) from exc
    else:
        raise MalformedInput("unknown tail kind %r" % kind)
    theta = None
    if obj.get("theta") is not None:
        theta = vector_from_json(obj["theta"])
    return Expansion(rank=rank, blocks=tuple(blocks), tail=tail, theta=theta)
