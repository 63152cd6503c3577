"""Matrix representations of groups acting on expansion vectors.

Given an exact positive vector (1, theta) and named generators acting by
unimodular matrices (or by explicitly supplied digit streams), every image
vector is expanded, the streams are aligned on their maximal common tail,
and each generator is assigned the unimodular quotient of prefix products

    A_g = B(b_g^(1)) ... B(b_g^(p_g)) * (B(b^(1)) ... B(b^(p)))^{-1},

where p_g and p are the aligned prefix lengths of the generator's stream
and of the base stream.  The tail-entry state theta_max is kept along with
the matrices so every claim (image reconstruction, fixed points, the
aperiodicity hypothesis behind faithfulness) can be re-checked exactly and
reported instead of assumed.
"""

from dataclasses import dataclass
from typing import Optional

from . import intmat
from .cf import (
    PERIODIC,
    TERMINATED,
    TRUNCATED,
    Expansion,
    Tail,
    _certified_run,
    _period_verdict,
    canonical_periodic,
    expansion_from_json,
    prefix_product,
    projectively_equal,
    scalar_mat_vec,
)
from .errors import (
    MalformedInput,
    NoCommonTail,
    NonPositiveImage,
    RankMismatch,
    UnknownGenerator,
)
from .scalars import (
    ScalarVector,
    _digit_limit,
    _text,
    int_from_json,
    vector_from_json,
    vector_to_json,
)

EXACT = "exact"
DEPTH_BOUNDED = "depth_bounded"


@dataclass(frozen=True)
class GeneratorAction:
    """A named generator given either by a unimodular matrix acting on the
    column (1, theta), or by an explicit expansion of its image vector."""

    name: str
    matrix: Optional[list] = None
    expansion: Optional[Expansion] = None

    def __post_init__(self):
        if (self.matrix is None) == (self.expansion is None):
            raise MalformedInput(
                "generator %r needs exactly one of matrix or expansion" % self.name
            )
        if self.matrix is not None:
            intmat.check_unimodular(self.matrix)


@dataclass(frozen=True)
class TailAlignment:
    """Result of aligning several streams on a shared tail."""

    offsets: tuple
    tail: Expansion
    certification: str
    compared_depth: Optional[int] = None


def _stream_block(pre, per, i):
    if i < len(pre):
        return pre[i]
    return per[(i - len(pre)) % len(per)]


def _rotation_index(reference, candidate):
    for r in range(len(reference)):
        if tuple(reference[r:] + reference[:r]) == tuple(candidate):
            return r
    return None


def _periodic_alignment(streams):
    """Minimal-total-offset alignment of canonical periodic streams."""
    pres = [s[0] for s in streams]
    pers = [s[1] for s in streams]
    length = len(pers[0])
    if any(len(p) != length for p in pers):
        raise NoCommonTail("primitive periods have different lengths")
    rotations = []
    for per in pers:
        r = _rotation_index(pers[0], per)
        if r is None:
            raise NoCommonTail("primitive periods differ under all rotations")
        rotations.append(r)
    best = None
    for phase in range(length):
        cuts = [
            len(pre) + ((phase - rot) % length)
            for pre, rot in zip(pres, rotations)
        ]
        while all(c > 0 for c in cuts):
            previous = [_stream_block(p, q, c - 1) for p, q, c in zip(pres, pers, cuts)]
            if any(b != previous[0] for b in previous):
                break
            cuts = [c - 1 for c in cuts]
        key = (sum(cuts), tuple(cuts))
        if best is None or key < best[0]:
            best = (key, tuple(cuts))
    return best[1]


def common_tail(expansions, depth_budget=16):
    """Align streams on their maximal common tail.

    Maximality means the smallest total removed prefix length, with ties
    broken by the lexicographically smallest offset vector.  Inputs whose
    tails are all exact (terminated or periodic tags) get an exact
    decision; any truncated input limits the search to ``depth_budget``
    offsets per stream and the result is labeled depth-bounded.  That
    search goes through the longest aligned suffix: for each stream and
    cut that may give it, every other stream takes its least cut whose
    suffix is a prefix of that one, so m streams cost at most
    m^2 (depth_budget + 1)^2 prefix tests, and no more for a budget
    beyond the data.
    """
    if depth_budget < 0:
        raise MalformedInput("depth budget %d is negative" % depth_budget)
    exps = list(expansions)
    if not exps:
        raise MalformedInput("need at least one expansion")
    rank = exps[0].rank
    if any(e.rank != rank for e in exps):
        raise RankMismatch("expansions have mixed ranks")
    if len(exps) == 1:
        e = exps[0]
        cert = EXACT if e.is_exact_tail() else DEPTH_BOUNDED
        return TailAlignment((0,), e, cert, compared_depth=e.depth)
    kinds = {e.tail.kind for e in exps}
    if TRUNCATED in kinds:
        return _common_tail_bounded(exps, depth_budget)
    if kinds == {TERMINATED}:
        blocks = [list(e.blocks) for e in exps]
        s = 0
        while all(s < len(b) for b in blocks):
            last = [b[len(b) - 1 - s] for b in blocks]
            if any(x != last[0] for x in last):
                break
            s += 1
        offsets = tuple(len(b) - s for b in blocks)
        tail = Expansion(
            rank=rank,
            blocks=tuple(blocks[0][offsets[0]:]),
            tail=Tail.terminated(),
        )
        return TailAlignment(offsets, tail, EXACT, compared_depth=s)
    if kinds == {PERIODIC}:
        streams = [
            canonical_periodic(e.blocks[:e.tail.preperiod], e.tail.period)
            for e in exps
        ]
        cuts = _periodic_alignment(streams)
        pre0, per0 = streams[0]
        c0 = cuts[0]
        raw_pre = pre0[c0:]
        shift = max(0, c0 - len(pre0)) % len(per0)
        raw_per = per0[shift:] + per0[:shift]
        tail_pre, tail_per = canonical_periodic(raw_pre, raw_per)
        tail = Expansion(
            rank=rank,
            blocks=tuple(tail_pre) + tuple(tail_per),
            tail=Tail.periodic(len(tail_pre), tail_per),
        )
        return TailAlignment(tuple(cuts), tail, EXACT)
    raise NoCommonTail("terminated and periodic streams share no tail")


def _agree(a, ca, b, cb):
    """Do the suffixes a[ca:] and b[cb:] overlap and agree on the overlap?"""
    overlap = min(len(a) - ca, len(b) - cb)
    return overlap >= 1 and a[ca:ca + overlap] == b[cb:cb + overlap]


def _common_tail_bounded(exps, depth_budget):
    # A stream's cuts stop where its data does: a finite suffix is empty
    # from the stored length on, and a periodic one repeats from preperiod
    # + period length on, at a larger total.  Realized this far, each
    # periodic stream outlasts every finite suffix, and two periodic
    # suffixes that agree on their overlap agree for ever (Fine and Wilf).
    cycles = [
        e.tail.preperiod + len(e.tail.period) if e.tail.kind == PERIODIC else 0
        for e in exps
    ]
    realized = [e.realize(max(e.depth for e in exps) + 3 * max(cycles)) for e in exps]
    caps = [min(depth_budget + 1, c or len(s)) for c, s in zip(cycles, realized)]

    # Suffixes that agree pairwise are all prefixes of the longest one.  So
    # try each stream and cut for the longest suffix: every stream then
    # takes, on its own, its least cut whose suffix is a prefix of that one.
    best = (float("inf"), None)
    for longest, cap in zip(realized, caps):
        for ck in range(cap):
            if ck > best[0]:
                break
            room = len(longest) - ck
            cuts = []
            for s, cap_s in zip(realized, caps):
                fits = range(max(0, len(s) - room), cap_s)
                c = next((c for c in fits if _agree(s, c, longest, ck)), None)
                if c is None:
                    break
                cuts.append(c)
            else:
                best = min(best, (sum(cuts), tuple(cuts)))
    cuts = best[1]
    if cuts is None:
        # name a stream that never aligns with stream 0, if there is one
        # (after a found alignment there is none: any two of its suffixes
        # are prefixes of the longest one, so they agree)
        for j in range(1, len(realized)):
            if not any(
                _agree(realized[0], c0, realized[j], cj)
                for c0 in range(caps[0])
                for cj in range(caps[j])
            ):
                raise NoCommonTail(
                    "stream %d never aligns with stream 0 within budget %d"
                    % (j, depth_budget)
                )
        raise NoCommonTail("no joint alignment within budget %d" % depth_budget)
    compared = min(len(s) - c for s, c in zip(realized, cuts))
    tail = Expansion(
        rank=exps[0].rank,
        blocks=tuple(realized[0][cuts[0]:]),
        tail=Tail.truncated(),
    )
    return TailAlignment(cuts, tail, DEPTH_BOUNDED, compared_depth=compared)


prefix_matrix = prefix_product


@dataclass(frozen=True)
class ReportEntry:
    kind: str
    ok: bool
    generator: Optional[str] = None
    message: str = ""


def _no_tail_entry():
    """The report entry of an alignment that consumed the whole base
    stream, which leaves no tail vector."""
    return ReportEntry(
        "alignment",
        True,
        None,
        "tail entry state unavailable (alignment consumed the whole "
        "base stream); fixed-point checks are skipped",
    )


@dataclass(frozen=True)
class VerificationReport:
    entries: tuple
    stationary: Optional[bool] = None
    faithfulness: str = "unchecked"

    def failures(self, kind=None):
        return [
            e
            for e in self.entries
            if not e.ok and (kind is None or e.kind == kind)
        ]

    def has_flag(self, kind, generator=None):
        return any(
            generator is None or e.generator == generator for e in self.failures(kind)
        )

    @property
    def all_ok(self):
        return all(e.ok for e in self.entries)

    def to_json(self):
        return {
            "entries": [
                {
                    "kind": e.kind,
                    "ok": e.ok,
                    "generator": e.generator,
                    "message": e.message,
                }
                for e in self.entries
            ],
            "stationary": self.stationary,
            "faithfulness": self.faithfulness,
        }


@dataclass(frozen=True)
class Representation:
    """Generator-to-matrix assignment together with its audit trail."""

    rank: int
    theta: ScalarVector
    matrices: dict
    supplied: dict
    images: dict
    expansions: dict
    base_expansion: Expansion
    theta_max: Optional[ScalarVector]
    theta_offset: int
    offsets: dict
    certification: str
    alignment: TailAlignment
    report: VerificationReport
    # the whole base run the period search stepped through, of which
    # base_expansion keeps the first depth_budget blocks; verify extends it
    base_run: Optional[Expansion] = None

    def matrix(self, name):
        if name not in self.matrices:
            raise UnknownGenerator("no generator named %r" % name)
        return self.matrices[name]


def _reconstruction_entries(matrices, supplied, images, theta):
    """One entry per generator: is A*theta its image, projectively?  An
    A equal to the supplied M needs no field arithmetic: the image is
    M*theta.  (P_g(k)*theta_max is A*theta up to a scalar.)"""
    entries = []
    for name, a in matrices.items():
        image = images.get(name)
        if image is None:
            entries.append(
                ReportEntry(
                    "reconstruction",
                    True,
                    name,
                    "no exact image vector supplied; contract unchecked",
                )
            )
            continue
        m = supplied.get(name)
        ok = (m is not None and intmat.mat_eq(a, m)) or projectively_equal(
            scalar_mat_vec(a, theta.entries), image.entries
        )
        entries.append(
            ReportEntry(
                "reconstruction",
                ok,
                name,
                "A*theta matches the image exactly"
                if ok
                else "image reconstruction failed: A*theta is not the image",
            )
        )
    return entries


def build_representation(theta, actions, depth_budget=24):
    """Assemble generator matrices from aligned expansions.

    ``theta`` must be exact (rational or algebraic entries).  Matrix
    actions are applied to the column (1, theta) and must land in the
    positive cone.  The certification level records whether the alignment
    rested on exact tail tags or only on depth-bounded data.
    """
    if depth_budget < 0:
        raise MalformedInput("depth budget %d is negative" % depth_budget)
    vec = ScalarVector.coerce(theta)
    if not all(e.is_exact() for e in vec.entries):
        raise MalformedInput("theta must be exact for representation building")
    pos = vec.is_positive()
    if not pos:
        raise MalformedInput("theta must be strictly positive")
    base = vec.normalized()
    n = base.rank

    actions = list(actions)
    names = []
    for a in actions:
        if not isinstance(a, GeneratorAction):
            raise MalformedInput("actions must be GeneratorAction values")
        if a.name in names:
            raise MalformedInput("duplicate generator name %r" % a.name)
        names.append(a.name)

    exp_theta, base_run = _certified_run(base, depth_budget, 2 * depth_budget)
    exps = {}
    images = {}
    supplied = {}
    for a in actions:
        if a.matrix is not None:
            if len(a.matrix) != n:
                raise RankMismatch(
                    "generator %r matrix is %dx%d but rank is %d"
                    % (a.name, len(a.matrix), len(a.matrix[0]), n)
                )
            img = scalar_mat_vec(a.matrix, base.entries)
            img_vec = ScalarVector(img)
            if img_vec.is_positive() is not True:
                raise NonPositiveImage(
                    "generator %r maps theta outside the positive cone" % a.name
                )
            img_vec = img_vec.normalized()
            exps[a.name] = _certified_run(
                img_vec, depth_budget, 2 * depth_budget, join=base_run
            )[0]
            images[a.name] = img_vec
            supplied[a.name] = a.matrix
        else:
            if a.expansion.rank != n:
                raise RankMismatch(
                    "generator %r expansion has rank %d, expected %d"
                    % (a.name, a.expansion.rank, n)
                )
            exps[a.name] = a.expansion
            theta_i = a.expansion.theta
            if theta_i is not None and all(e.is_exact() for e in theta_i.entries):
                images[a.name] = theta_i.normalized()
            else:
                images[a.name] = None
            supplied[a.name] = None

    alignment = common_tail([exp_theta] + [exps[nm] for nm in names], depth_budget)
    theta_offset = alignment.offsets[0]
    offsets = {nm: alignment.offsets[i + 1] for i, nm in enumerate(names)}

    q_theta = prefix_product(exp_theta, theta_offset)
    q_theta_inv = intmat.inverse_unimodular(q_theta)
    matrices = {
        nm: intmat.mat_mul(prefix_product(exps[nm], offsets[nm]), q_theta_inv)
        for nm in names
    }

    theta_max = None
    if exp_theta.states is not None and theta_offset < len(exp_theta.states):
        theta_max = exp_theta.states[theta_offset]

    entries = _reconstruction_entries(matrices, supplied, images, base)
    refuted = [e.generator for e in entries if not e.ok]
    if refuted and alignment.certification == DEPTH_BOUNDED:
        # the exact check refutes a bounded alignment (an exact one stands
        # on its tags, and the report says what the check found)
        raise NoCommonTail(
            "generator %r: the depth-bounded alignment is false (A*theta is "
            "not the image)" % refuted[0]
        )
    if theta_max is None:
        entries.append(_no_tail_entry())
    report = VerificationReport(entries=tuple(entries))
    return Representation(
        rank=n,
        theta=base,
        matrices=matrices,
        supplied=supplied,
        images=images,
        expansions=exps,
        base_expansion=exp_theta,
        theta_max=theta_max,
        theta_offset=theta_offset,
        offsets=offsets,
        certification=alignment.certification,
        alignment=alignment,
        report=report,
        base_run=base_run,
    )


def evaluate_word(rep, word):
    """Ordered product of generator powers; inverses are exact because
    every matrix is unimodular."""
    out = intmat.identity(rep.rank)
    for item in word:
        name, exponent = item
        if name not in rep.matrices:
            raise UnknownGenerator("no generator named %r" % name)
        out = intmat.mat_mul(out, intmat.mat_pow(rep.matrices[name], int(exponent)))
    return out


def verify(rep, relations=(), budget=32):
    """Audit a representation and return the full report.

    Checks, in order: exact image reconstruction for every generator, a
    supplied M unequal to a reconstructing A (a ``stabilizer`` entry
    carries U = M^-1*A, which fixes theta projectively), every supplied
    relation word evaluating to the identity, periodicity of the tail
    vector, fixed points of non-identity matrices on the tail vector, and
    the free-action bookkeeping for generators whose image equals the
    tail vector.  Nothing is assumed: every failed check lands in the
    report.  Without a tail vector the report says so (the
    build's ``alignment`` entry) in place of the tail checks; a tail
    vector that is not exactly the base run's state at ``theta_offset``
    gets a failing ``alignment`` entry.

    Faithfulness is read off the report: "not_guaranteed" without a tail
    vector or when any entry other than a relation failed, else
    conditional on aperiodicity (exact alignment) or depth-bounded.  A
    relation is a question asked of the matrices; its entry answers it.

    The periodicity search on the tail vector takes ``budget`` steps.  It
    joins the base run that ``build_representation`` already searched
    (see ``cf._expand``): from a state equal to ``theta_max`` on, the
    run's states are replayed, not recomputed.  The verdict is that of a
    search from scratch either way.
    """
    ident = intmat.identity(rep.rank)
    entries = _reconstruction_entries(rep.matrices, rep.supplied, rep.images, rep.theta)

    def add(kind, ok, generator, message):
        entries.append(ReportEntry(kind, ok, generator, message))

    for e in list(entries):
        m, a = rep.supplied.get(e.generator), rep.matrices[e.generator]
        if e.ok and m is not None and not intmat.mat_eq(m, a):
            # A*theta and M*theta are one image, so U = M^-1*A fixes theta
            u = intmat.mat_mul(intmat.inverse_unimodular(m), a)
            u = ", ".join("[%s]" % ", ".join(map(_text, row)) for row in u)
            add("stabilizer", False, e.generator, "U = M^-1*A = [%s] fixes theta "
                "projectively: the free-action hypothesis fails" % u)
    for idx, word in enumerate(relations):
        ok = intmat.mat_eq(evaluate_word(rep, word), ident)
        outcome = "holds" if ok else "does NOT evaluate to I"
        add("relation", ok, None, "relation %d %s" % (idx, outcome))
    if rep.theta_max is None:
        entries.append(_no_tail_entry())
        message = "tail vector unavailable; aperiodicity unchecked"
        add("aperiodicity", True, None, message)
        return VerificationReport(tuple(entries), None, "not_guaranteed")
    # the build stores that very state, so identity decides it for free
    t, run = rep.theta_offset, rep.base_run
    state = run.states[t] if run is not None and t < len(run.states) else None
    if state is not rep.theta_max and (state is None or state != rep.theta_max):
        message = "tail vector is not the base state at theta_offset %d" % t
        add("alignment", False, None, message)

    verdict = _period_verdict(rep.theta_max, budget, join=rep.base_run)
    aperiodic = not verdict.is_periodic and verdict.kind != TERMINATED
    if verdict.is_periodic:
        message = (
            "stationary: not in the aperiodic class (period %r certified "
            "at preperiod %d)" % (list(verdict.period), verdict.preperiod)
        )
    elif verdict.kind == TERMINATED:
        message = (
            "tail vector is rationally dependent (terminated stream); "
            "the aperiodicity hypothesis does not apply"
        )
    else:
        message = "no period found up to depth %d (depth-bounded)" % verdict.depth
    add("aperiodicity", aperiodic, None, message)

    tail = rep.theta_max.entries

    def fixes_tail(m):
        return projectively_equal(scalar_mat_vec(m, tail), tail)

    for nm, a in rep.matrices.items():
        moves = not intmat.mat_eq(a, ident)
        fixed = moves and fixes_tail(a)
        m = rep.supplied.get(nm)
        supplied_moves = m is not None and not intmat.mat_eq(m, ident)
        same = m is not None and intmat.mat_eq(m, a)
        supplied_fixed = fixed if same else supplied_moves and fixes_tail(m)
        if fixed:
            add(
                "fixes_theta_max", False, nm,
                "computed matrix fixes the tail vector projectively",
            )
            if aperiodic:
                add(
                    "internal_inconsistency", False, nm,
                    "matrix fixes a tail vector that showed no period "
                    "within budget; data or alignment is inconsistent",
                )
        elif moves:
            add("fixed_point", True, nm, "matrix does not fix the tail vector")
        if supplied_fixed:
            add(
                "fixes_theta_max", False, nm,
                "supplied action fixes the tail vector projectively",
            )
        image = rep.images.get(nm)
        if (moves or supplied_moves) and image is not None and (
            projectively_equal(image.entries, tail)
        ):
            add(
                "free_action", False, nm,
                "generator fixes the base algebra but is not the "
                "identity: the free-action hypothesis fails",
            )

    if any(not e.ok and e.kind != "relation" for e in entries):
        faithfulness = "not_guaranteed"
    elif rep.certification == EXACT:
        faithfulness = "conditional_on_aperiodicity"
    else:
        faithfulness = "conditional_depth_bounded"
    return VerificationReport(tuple(entries), verdict.is_periodic, faithfulness)


def representation_to_json(rep):
    out = {
        "rank": rep.rank,
        "certification": rep.certification,
        "theta_offset": rep.theta_offset,
        "offsets": dict(rep.offsets),
        "matrices": {nm: [list(r) for r in m] for nm, m in rep.matrices.items()},
        "report": rep.report.to_json(),
    }
    if rep.theta_max is not None:
        out["theta_max"] = vector_to_json(rep.theta_max)
    return out


def action_from_json(obj):
    if not isinstance(obj, dict) or "name" not in obj:
        raise MalformedInput("generator entry needs a name")
    name = str(obj["name"])
    if "matrix" in obj:
        try:
            matrix = [[int_from_json(x) for x in row] for row in obj["matrix"]]
        except (TypeError, ValueError) as exc:
            raise MalformedInput(
                "bad matrix of generator %r: %s" % (name, exc)
            ) from exc
        if not matrix or any(len(row) != len(matrix) for row in matrix):
            raise MalformedInput("matrix of generator %r is not square" % name)
        return GeneratorAction(name=name, matrix=matrix)
    if "expansion" in obj:
        return GeneratorAction(name=name, expansion=expansion_from_json(obj["expansion"]))
    raise MalformedInput("generator %r needs a matrix or an expansion" % name)


def job_from_json(obj):
    """Parse {"rank", "theta", "generators", "relations"} into inputs."""
    if not isinstance(obj, dict):
        raise MalformedInput("group action input must be a JSON object")
    try:
        theta = vector_from_json(obj["theta"])
    except KeyError as exc:
        raise MalformedInput("missing theta") from exc
    try:
        actions = [action_from_json(g) for g in obj.get("generators", [])]
        relations = [
            [(str(g), int_from_json(k)) for g, k in word]
            for word in obj.get("relations", [])
        ]
        rank = int_from_json(obj.get("rank", theta.rank))
    except (TypeError, ValueError) as exc:
        raise MalformedInput("bad group action encoding: %s" % exc) from exc
    # each entry of a power grows linearly with the exponent
    limit = _digit_limit()
    for word in relations:
        for _, k in word:
            if abs(k) > limit:
                raise MalformedInput(
                    "relation exponent %d exceeds the limit of %d" % (k, limit)
                )
    if rank != theta.rank:
        raise MalformedInput("declared rank disagrees with theta length")
    return theta, actions, relations
