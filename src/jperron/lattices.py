"""Pseudo-lattices over a declared coordinate frame and their projective
classes.

Real numbers are replaced by rational coordinate vectors over a frame of
declared Q-linearly independent symbols, which makes Z-module equality
decidable by Hermite normal form.  A frame may optionally declare itself
a power basis of a real number field (a modulus polynomial plus a root
interval); that unlocks exact division and sign decisions, which plain
symbolic frames cannot offer.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from . import intmat
from .errors import (
    FrameMismatch,
    InvalidGenus,
    MalformedInput,
    NonInvertibleLeadingEntry,
)
from .scalars import (
    AlgebraicScalar,
    NumberField,
    ScalarVector,
    _fraction_from_json,
    _fraction_to_json,
    int_from_json,
)


class CoordinateFrame:
    """Declared basis of Q-independent reals, optionally a field power basis.

    With a modulus, the symbols are read as (1, g, g^2, ...) for g the
    isolated root, so the first symbol always denotes the real number 1.
    Without one, the user asserts independence and a symbol literally
    named "1" (if any) is taken to denote unity.
    """

    __slots__ = ("symbols", "field")

    def __init__(self, symbols, modulus=None, root=None):
        symbols = tuple(str(s) for s in symbols)
        if len(symbols) < 1:
            raise MalformedInput("frame needs at least one symbol")
        if len(set(symbols)) != len(symbols):
            raise MalformedInput("frame symbols must be distinct")
        field = None
        if modulus is not None:
            if root is None:
                raise MalformedInput("a field frame needs a root interval")
            field = NumberField(modulus, root[0], root[1])
            if field.degree != len(symbols):
                raise MalformedInput(
                    "frame has %d symbols but the field has degree %d"
                    % (len(symbols), field.degree)
                )
        self.symbols = symbols
        self.field = field

    @property
    def dimension(self):
        return len(self.symbols)

    @property
    def unit_index(self):
        if self.field is not None:
            return 0
        try:
            return self.symbols.index("1")
        except ValueError:
            return None

    def compatible(self, other):
        if self.symbols != other.symbols:
            return False
        if (self.field is None) != (other.field is None):
            return False
        if self.field is not None and not self.field.same_root(other.field):
            return False
        return True

    def sign_of(self, coords):
        """Exact sign of a coordinate vector's value, None if undecidable."""
        if self.field is None:
            return None
        return AlgebraicScalar(self.field, coords).sign()

    def __repr__(self):
        return "CoordinateFrame(%r%s)" % (
            list(self.symbols),
            "" if self.field is None else ", field=%r" % self.field,
        )


def _as_coords(vec, dim):
    coords = tuple(Fraction(x) for x in vec)
    if len(coords) != dim:
        raise MalformedInput("coordinate vector has wrong length")
    return coords


@dataclass(frozen=True)
class PseudoLattice:
    """Rank-n Z-module in the frame's coordinate space, given by the images
    lambda_1, ..., lambda_n of a basis."""

    frame: CoordinateFrame
    vectors: tuple
    positive: Optional[bool] = None

    def __post_init__(self):
        vecs = tuple(_as_coords(v, self.frame.dimension) for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        if len(vecs) < 2:
            raise MalformedInput("a pseudo-lattice needs rank at least 2")
        if all(x == 0 for x in vecs[0]):
            raise MalformedInput("lambda_1 must be non-zero")
        (rows,) = _integerized(vecs)
        if len(intmat.nonzero_rows(intmat.hnf(rows)[0])) != len(vecs):
            raise MalformedInput("lattice vectors are not Q-linearly independent")
        if self.positive is None:
            object.__setattr__(self, "positive", _positive(self.frame, vecs))

    @property
    def rank(self):
        return len(self.vectors)


def _positive(frame, vectors):
    """Whether every vector is positive, decided over a field frame only."""
    if frame.field is None:
        return None
    return all(frame.sign_of(v) > 0 for v in vectors)


@dataclass(frozen=True)
class ProjectivePseudoLattice:
    """A pseudo-lattice normalized so its first vector is the real number 1."""

    frame: CoordinateFrame
    vectors: tuple

    def __post_init__(self):
        vecs = tuple(_as_coords(v, self.frame.dimension) for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        if len(vecs) < 2:
            raise MalformedInput("rank must be at least 2")
        unit = self.frame.unit_index
        if unit is None:
            raise MalformedInput("frame has no unit symbol to normalize against")
        expected = tuple(
            Fraction(1) if i == unit else Fraction(0)
            for i in range(self.frame.dimension)
        )
        if vecs[0] != expected:
            raise MalformedInput("first entry of a projective lattice must be 1")

    @property
    def rank(self):
        return len(self.vectors)


def act(a, pl):
    """Unimodular change of basis: the j-th new vector is sum_i a[i][j] * lambda_i."""
    intmat.check_unimodular(a)
    n = pl.rank
    if len(a) != n or any(len(r) != n for r in a):
        raise MalformedInput("matrix size does not match lattice rank")
    d = pl.frame.dimension
    new = []
    for j in range(n):
        coords = [Fraction(0)] * d
        for i in range(n):
            c = a[i][j]
            if c:
                coords = [x + c * y for x, y in zip(coords, pl.vectors[i])]
        new.append(tuple(coords))
    # a unimodular change of basis keeps the vectors independent, so the
    # Hermite form of ``__post_init__`` is not run again
    out = object.__new__(PseudoLattice)
    positive = _positive(pl.frame, new)
    vars(out).update(frame=pl.frame, vectors=tuple(new), positive=positive)
    return out


def scale(c, pl):
    """Multiply every vector by a positive rational."""
    c = Fraction(c)
    if c <= 0:
        raise MalformedInput("scale factor must be positive")
    return PseudoLattice(
        pl.frame,
        tuple(tuple(c * x for x in v) for v in pl.vectors),
        positive=pl.positive,
    )


def project(pl):
    """Divide out lambda_1, collapsing the positive-scaling kernel.

    Works when lambda_1 is a rational multiple of the unit symbol, or over
    a field frame where exact division is always available.
    """
    frame = pl.frame
    head = pl.vectors[0]
    unit = frame.unit_index
    if frame.field is not None:
        vec = ScalarVector([AlgebraicScalar(frame.field, v) for v in pl.vectors])
        pad = (Fraction(0),) * frame.dimension
        new = []
        for x in vec.normalized():
            coords = x.coeffs if isinstance(x, AlgebraicScalar) else (x.value,)
            new.append(coords + pad[len(coords):])
        return ProjectivePseudoLattice(frame, tuple(new))
    if unit is not None and all(x == 0 for i, x in enumerate(head) if i != unit):
        c = head[unit]  # not 0: lambda_1 is a non-zero vector
        return ProjectivePseudoLattice(
            frame, tuple(tuple(x / c for x in v) for v in pl.vectors)
        )
    raise NonInvertibleLeadingEntry(
        "lambda_1 is not a rational multiple of the unit symbol and the frame "
        "declares no field structure"
    )


def _require_common_frame(p, q):
    if not p.frame.compatible(q.frame):
        raise FrameMismatch("lattices live over different frames")
    if p.rank != q.rank:
        raise FrameMismatch("lattices have different ranks")


def _integerized(*row_sets):
    """The row sets with each column scaled by the lcm of its denominators
    over all of them, as lists of integer rows."""
    scales = [
        lcm(*[row[c].denominator for rows in row_sets for row in rows])
        for c in range(len(row_sets[0][0]))
    ]
    return [
        [[int(x * s) for x, s in zip(row, scales)] for row in rows] for rows in row_sets
    ]


@dataclass(frozen=True)
class PlIsomorphism:
    isomorphic: bool
    witness: Optional[list] = None

    def __bool__(self):
        return self.isomorphic


@dataclass(frozen=True)
class PplIsomorphism:
    isomorphic: bool
    scale: Optional[Fraction] = None
    witness: Optional[list] = None

    def __bool__(self):
        return self.isomorphic


def pl_isomorphic(p, q):
    """Equality of the two Z-modules, with a unimodular witness T such
    that act(T, p) == q when they coincide."""
    found = ppl_isomorphic(p, q)
    if found.scale != 1:
        return PlIsomorphism(False)
    return PlIsomorphism(True, found.witness)


def ppl_isomorphic(p, q):
    """Equality up to a positive rational scale and unimodular basis change.

    Returns the scale c and witness T with q = c * act(T, p).  Both row
    sets are scaled to integers by the same column factors, so q's Hermite
    form is c times p's; each form divided by the gcd of its entries must
    match, and c is the ratio of the two gcds.
    """
    _require_common_frame(p, q)
    lp, lq = _integerized(p.vectors, q.vectors)
    hp, up = intmat.hnf(lp)
    hq, uq = intmat.hnf(lq)
    flat_p = [x for row in hp for x in row]
    flat_q = [x for row in hq for x in row]
    gp, gq = gcd(*flat_p), gcd(*flat_q)
    if [x // gp for x in flat_p] != [x // gq for x in flat_q]:
        return PplIsomorphism(False)
    w = intmat.mat_mul(intmat.inverse_unimodular(uq), up)
    return PplIsomorphism(True, Fraction(gq, gp), intmat.transpose(w))


def pl_contains(p, q):
    """Is the module of q contained in the module of p?"""
    _require_common_frame(p, q)
    lp, lq = _integerized(p.vectors, q.vectors)
    hp, _ = intmat.hnf(lp)
    stacked, _ = intmat.hnf(lp + lq)
    return intmat.nonzero_rows(stacked) == intmat.nonzero_rows(hp)


def genus_rank(g):
    """Rank of the coordinate vector attached to a genus-g surface."""
    g = int(g)
    if g < 1:
        raise InvalidGenus("genus must be at least 1, got %d" % g)
    return 2 if g == 1 else 6 * g - 6


def frame_to_json(frame):
    out = {"frame": list(frame.symbols)}
    if frame.field is not None:
        lo, hi = frame.field.enclosure()
        out["modulus"] = list(frame.field.modulus)
        out["root"] = {"lo": _fraction_to_json(lo), "hi": _fraction_to_json(hi)}
    return out


def frame_from_json(obj):
    symbols = obj.get("frame")
    if not symbols:
        raise MalformedInput("missing frame symbols")
    modulus = obj.get("modulus")
    root = None
    if modulus is not None:
        r = obj.get("root")
        if not r:
            raise MalformedInput("field frame JSON needs a root interval")
        modulus = [int_from_json(c) for c in modulus]
        root = (_fraction_from_json(r["lo"]), _fraction_from_json(r["hi"]))
    return CoordinateFrame(symbols, modulus=modulus, root=root)


def lattice_to_json(pl):
    out = frame_to_json(pl.frame)
    out["vectors"] = [[_fraction_to_json(x) for x in row] for row in pl.vectors]
    return out


def _vectors_from_json(obj):
    rows = obj.get("vectors")
    if not isinstance(rows, list):
        raise MalformedInput("missing lattice vectors")
    return tuple(tuple(_fraction_from_json(x) for x in row) for row in rows)


def lattice_from_json(obj):
    return PseudoLattice(frame_from_json(obj), _vectors_from_json(obj))


def projective_from_json(obj):
    return ProjectivePseudoLattice(frame_from_json(obj), _vectors_from_json(obj))
