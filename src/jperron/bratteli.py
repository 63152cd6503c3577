"""Bratteli diagrams built from digit streams, dimension growth, and tail
equivalence of streams (the combinatorial face of stable isomorphism of
the limit algebras).

A depth-K diagram has a root, K+1 columns of ``rank`` vertices, and the
k-th block's step matrix as the edge-multiplicity matrix between columns
k and k+1 (entry [i][j] counts edges from vertex i of column k to vertex
j of column k+1).  The root fans out to every column-1 vertex with a
single edge, so the first dimension vector is all ones and each next one
is the transpose of the step matrix applied to the previous.
"""

import json as _json
from dataclasses import dataclass
from typing import Optional

from . import intmat
from .cf import (
    PERIODIC,
    TERMINATED,
    TRUNCATED,
    Expansion,
    detect_period,
    expansion_from_json,
    expansion_to_json,
    step_matrix,
)
from .errors import DepthExceeded, MalformedInput, NoCommonTail, RankMismatch
from .representation import common_tail


@dataclass(frozen=True)
class BratteliDiagram:
    """Leveled multiplicity data read off an expansion."""

    expansion: Expansion

    @property
    def rank(self):
        return self.expansion.rank

    @property
    def depth(self):
        return self.expansion.depth

    @property
    def tail(self):
        return self.expansion.tail

    def level_matrix(self, k):
        """Multiplicity matrix between vertex columns k and k+1 (0-based)."""
        return step_matrix(self.expansion.block_at(k))


def build_diagram(exp):
    """Diagram with one edge level per digit block of the expansion."""
    if not isinstance(exp, Expansion):
        raise MalformedInput("build_diagram expects an Expansion")
    return BratteliDiagram(exp)


def dimension_vectors(diag, k):
    """Dimension vectors d(1), ..., d(k) of the first k vertex columns.

    d(1) is all ones (single edges from the root); column j+1 carries the
    transpose of the j-th multiplicity matrix applied to d(j).
    """
    if k < 1:
        raise DepthExceeded("need at least one level")
    if k - 1 > diag.expansion.available_depth():
        raise DepthExceeded("level %d beyond available depth" % k)
    dims = [[1] * diag.rank]
    for j in range(k - 1):
        m = diag.level_matrix(j)
        dims.append(intmat.mat_vec(intmat.transpose(m), dims[-1]))
    return dims


@dataclass(frozen=True)
class TailDecision:
    """Outcome of a tail-equivalence comparison.

    Exact streams (terminated or periodic tags) get certified equivalent /
    not-equivalent verdicts with witness offsets.  Truncated streams only
    ever get an inconclusive verdict: ``offsets`` then point at the best
    alignment found and ``compared_depth`` says how many blocks agreed.
    """

    verdict: str
    offsets: Optional[tuple] = None
    compared_depth: Optional[int] = None
    certified: bool = False
    note: str = ""

    EQUIVALENT = "equivalent"
    NOT_EQUIVALENT = "not_equivalent"
    INCONCLUSIVE = "inconclusive"

    def __bool__(self):
        return self.verdict == self.EQUIVALENT


def tail_equivalent(e1, e2, depth_budget=16):
    """Do two digit streams agree from some offsets (p, q) onward?

    This is the two-stream case of ``representation.common_tail``.  For a
    pair of eventually-periodic (or terminated) streams it is an exact
    decision; any truncated input demotes the verdict to inconclusive,
    reporting the deepest agreement found within budget.
    """
    if e1.rank != e2.rank:
        raise RankMismatch("ranks %d and %d differ" % (e1.rank, e2.rank))
    kinds = {e1.tail.kind, e2.tail.kind}
    try:
        found = common_tail([e1, e2], depth_budget)
    except NoCommonTail as exc:
        if TRUNCATED in kinds:
            return TailDecision(
                TailDecision.INCONCLUSIVE,
                compared_depth=0,
                note="truncated data: no alignment within offset budget %d"
                % depth_budget,
            )
        if len(kinds) > 1:
            note = "a finite stream shares no tail with an infinite one"
        else:
            note = str(exc)
        return TailDecision(TailDecision.NOT_EQUIVALENT, certified=True, note=note)
    if TRUNCATED in kinds:
        verdict = TailDecision.INCONCLUSIVE
        note = "truncated data: streams agree at all %d compared depths" % (
            found.compared_depth
        )
    elif kinds == {TERMINATED}:
        verdict = TailDecision.EQUIVALENT
        note = "finite streams; longest common suffix has %d blocks" % (
            found.compared_depth
        )
    else:
        verdict = TailDecision.EQUIVALENT
        note = "periodic streams aligned exactly"
    return TailDecision(
        verdict,
        offsets=found.offsets,
        compared_depth=found.compared_depth,
        certified=TRUNCATED not in kinds,
        note=note,
    )


@dataclass(frozen=True)
class StationaryVerdict:
    stationary: bool
    periodic_from_start: Optional[bool] = None
    certified: bool = False
    note: str = ""

    def __bool__(self):
        return self.stationary


def is_stationary(exp, budget=32):
    """Is the limit algebra stationary, i.e. is the stream eventually
    periodic?  This is ``detect_period``'s verdict within ``budget`` steps;
    terminated streams are finite, hence not stationary."""
    verdict = detect_period(exp, budget)
    note = verdict.note
    if verdict.kind == "aperiodic_up_to":
        note = "no period found up to depth %d" % verdict.depth
    return StationaryVerdict(
        stationary=verdict.is_periodic,
        periodic_from_start=verdict.preperiod == 0 if verdict.is_periodic else None,
        certified=verdict.certified,
        note=note,
    )


def to_dot(diag, depth=None):
    """Graphviz text, drawn left to right with integer multiplicity labels."""
    if depth is None:
        if diag.tail.kind == PERIODIC:
            depth = diag.tail.preperiod + 2 * len(diag.tail.period)
            depth = max(depth, diag.depth)
        else:
            depth = diag.depth
    elif depth < 0:
        raise MalformedInput("depth %d is negative" % depth)
    depth = int(min(depth, diag.expansion.available_depth()))
    n = diag.rank
    lines = ["digraph bratteli {", "  rankdir=LR;", '  node [shape=circle];',
             '  root [shape=point];']
    if depth == 0:
        lines.append("}")
        return "\n".join(lines) + "\n"
    for col in range(1, depth + 2):
        for i in range(n):
            lines.append("  c%d_%d [label=\"\"];" % (col, i))
    for i in range(n):
        lines.append("  root -> c1_%d;" % i)
    for k in range(depth):
        m = diag.level_matrix(k)
        for i in range(n):
            for j in range(n):
                if m[i][j]:
                    lines.append(
                        "  c%d_%d -> c%d_%d [label=\"%d\"];"
                        % (k + 1, i, k + 2, j, m[i][j])
                    )
    lines.append("}")
    return "\n".join(lines) + "\n"


def diagram_to_json(diag):
    out = expansion_to_json(diag.expansion)
    out["diagram"] = {"levels": diag.depth}
    return out


def diagram_from_json(obj):
    if not isinstance(obj, dict):
        raise MalformedInput("diagram must be a JSON object")
    exp = expansion_from_json(obj)
    return build_diagram(exp)


def export(diag, format="dot"):
    """Serialized diagram as bytes, either Graphviz DOT or JSON."""
    if format == "dot":
        return to_dot(diag).encode("utf-8")
    if format == "json":
        return _json.dumps(diagram_to_json(diag), sort_keys=True).encode("utf-8")
    raise MalformedInput("unknown export format %r" % format)
