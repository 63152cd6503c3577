"""Exact and certified-approximate real scalars.

Three representations share one interface:

* rational -- ``fractions.Fraction``, exact and decidable everywhere;
* algebraic -- an element of a declared real number field Q(g), stored as a
  polynomial in the generator g, where g is fixed by an integer
  polynomial and an isolating interval.  The polynomial is kept as integer
  numerators over one positive denominator, reduced modulo the field
  modulus exactly once per operation (pseudo-reduction when the modulus is
  not monic); the inverse runs the fraction-free remainder loop, carrying
  one Bezout cofactor.  Equality, sign, floor and comparison are all
  decided exactly (the modulus only needs to be square-free; zero
  divisors are handled through gcd splitting);
* interval -- a rational enclosure with no refinement oracle, good enough
  for ingesting decimal data but refused wherever a certified answer is
  required.

Signs, zero tests and floors of algebraic values are decided from the
field's current root enclosure first, read as integer bounds over one
denominator; a polynomial gcd with the modulus runs only when the
enclosure contains the candidate (0, or the one integer a floor could
be).

Values are immutable.  The only internal mutations are the monotone
shrinking of a field's root enclosure, which never changes the value any
scalar represents (the enclosure is replaced as one tuple, so every read
sees a valid enclosure), and a vector's cached box of float enclosures.
"""

import math
import sys
from enum import Enum
from fractions import Fraction
from math import floor as _floor
from math import gcd, lcm

from . import polynomials as poly
from .errors import BudgetExceeded, IndeterminateFloor, MalformedInput

DEFAULT_REFINE_BUDGET = 256
_SIGN_BUDGET = 4096


class Ordering(Enum):
    LT = -1
    EQ = 0
    GT = 1
    INDETERMINATE = 2


class NumberField:
    """The real field Q(g), g the unique root of ``modulus`` in (lo, hi).

    ``modulus`` is an integer polynomial (constant term first).  It is
    reduced to its square-free part on construction and the interval is
    checked, by Sturm count, to isolate exactly one real root.
    """

    __slots__ = ("modulus", "_enclosure", "_positive_at_hi")

    def __init__(self, modulus, lo, hi):
        mod = poly.to_int_poly(poly.square_free_part(poly.trim(modulus)))
        if poly.degree(mod) < 2:
            raise MalformedInput("field modulus must have degree >= 2")
        lo = Fraction(lo)
        hi = Fraction(hi)
        if not lo < hi:
            raise MalformedInput("isolating interval is empty")
        if poly.evaluate(mod, lo) == 0 or poly.evaluate(mod, hi) == 0:
            raise MalformedInput("isolating interval endpoints must not be roots")
        if poly.count_roots(poly.sturm_chain(mod), lo, hi) != 1:
            raise MalformedInput("interval does not isolate exactly one root")
        self.modulus = mod
        # (lo, hi) is replaced as a whole, so every read sees a valid
        # enclosure; the modulus keeps its sign at hi while hi moves toward
        # the isolated root, since no other root lies in between
        self._enclosure = (lo, hi)
        self._positive_at_hi = poly.evaluate(mod, hi) > 0

    @property
    def degree(self):
        return poly.degree(self.modulus)

    def enclosure(self):
        return self._enclosure

    def refine_once(self):
        """One bisection step on the root enclosure, which stays open with
        ends that are not roots."""
        lo, hi = self._enclosure
        mid = (lo + hi) / 2
        v = poly.evaluate(self.modulus, mid)
        if v == 0:
            # mid is the isolated root, so (lo, mid) holds no root
            mid = (lo + mid) / 2
            v = poly.evaluate(self.modulus, mid)
        if (v > 0) == self._positive_at_hi:
            self._enclosure = (lo, mid)
        else:
            self._enclosure = (mid, hi)

    def same_root(self, other):
        """Whether ``other`` holds the same real root of the same modulus."""
        if other is self:
            return True
        if not isinstance(other, NumberField) or other.modulus != self.modulus:
            return False
        (lo, hi), (olo, ohi) = self._enclosure, other._enclosure
        lo = max(lo, olo)
        hi = min(hi, ohi)
        if lo >= hi:
            return False
        # each enclosure isolates one root and ends at none, so the common
        # part holds their root iff the modulus changes sign across it
        m = self.modulus
        return (poly.evaluate(m, lo) > 0) != (poly.evaluate(m, hi) > 0)

    def __repr__(self):
        lo, hi = self.enclosure()
        return "NumberField(%r, %s, %s)" % (list(self.modulus), _text(lo), _text(hi))


def _split(coeffs):
    """Rational coefficients as (trimmed integer numerators, one denominator)."""
    return poly._over_one_den(poly.trim(Fraction(c) for c in coeffs))


def _reduced(modulus, num, den):
    """num/den reduced modulo an integer modulus, as (num, den) in lowest terms.

    This is pseudo-reduction: before a top term c*x^k is cancelled by a
    multiple of x^k*modulus, the numerator is scaled by lead/gcd(c, lead),
    ``lead`` the leading coefficient of the modulus, and that factor is
    folded into ``den``.  ``lead`` is positive, so ``den`` stays positive;
    a monic modulus never scales.
    """
    lead = modulus[-1]
    while len(num) >= len(modulus):
        c = num[-1]
        g = gcd(c, lead)
        s = lead // g
        num = poly._cancel_step(num, modulus, s, c // g, len(num) - len(modulus))
        den *= s
    g = gcd(den, *num)
    if g != 1:
        return tuple(x // g for x in num), den // g
    return tuple(num), den


def _sum(a, da, b, db):
    """(num, den) of a/da + b/db, scaled to a common denominator if needed."""
    if da == db:
        return poly.add(a, b), da
    g = gcd(da, db)
    return poly.add(poly.scale(a, db // g), poly.scale(b, da // g)), da // g * db


def _elem_is_zero(coeffs, field):
    c = poly.trim(coeffs)
    if not c:
        return True
    if poly.degree(c) == 0:
        return False
    vlo, vhi, _ = poly._interval_bounds(c, *field.enclosure())
    if vlo > 0 or vhi < 0:
        return False
    g = poly.gcd(c, field.modulus)
    if poly.degree(g) < 1:
        return False
    # c vanishes at the generator iff gcd(c, modulus) does (square-free
    # modulus keeps this decidable even when the modulus is reducible).
    # The gcd divides the modulus, whose one root in the enclosure is the
    # generator, so it vanishes there iff it changes sign across it.
    lo, hi = field.enclosure()
    return (poly.evaluate(g, lo) > 0) != (poly.evaluate(g, hi) > 0)


def _elem_sign(coeffs, field):
    # the first pass decides most signs before any exact zero test
    for attempt in range(_SIGN_BUDGET):
        vlo, vhi, _ = poly._interval_bounds(coeffs, *field.enclosure())
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        if attempt == 0 and _elem_is_zero(coeffs, field):
            return 0
        field.refine_once()
    raise BudgetExceeded("sign refinement did not settle")


def _elem_inverse(coeffs, field):
    """1/c as (integer numerators, denominator > 0) in lowest terms, of
    degree below the field's; c has int or Fraction coefficients."""
    c = poly.trim(coeffs)
    if _elem_is_zero(c, field):
        raise ZeroDivisionError("division by zero field element")
    return _inv_mod(c, field.modulus)


def _inv_mod(c, modulus):
    # the remainder loop carries only the cofactor u of u*dc*c + v*modulus
    # = r, dc the common denominator of c; u has degree below the modulus,
    # so it needs no further reduction
    (r, u), dc = poly._remainders(c, modulus, 1)
    if len(r) == 1:
        s = dc if r[0] > 0 else -dc
        num = [s * x for x in u]
        den = abs(r[0])
        g = gcd(den, *num)
        return tuple(x // g for x in num), den // g
    # c is a zero divisor modulo a reducible square-free modulus but does
    # not vanish at the generator: invert modulo the cofactor instead.
    cofactor = poly.div_mod(modulus, r)[0]
    return _inv_mod(poly.div_mod(c, cofactor)[1], cofactor)


class Scalar:
    """Common base for the three scalar representations."""

    __slots__ = ()

    def sign(self):
        raise NotImplementedError

    def enclosure(self):
        raise NotImplementedError

    def is_exact(self):
        return True

    def __pos__(self):
        return self

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (rational(1) / self) ** (-n)
        out = rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


class RationalScalar(Scalar):
    __slots__ = ("value",)

    def __init__(self, value):
        # a Fraction is immutable, so an exact one is kept rather than copied
        self.value = value if type(value) is Fraction else Fraction(value)

    def sign(self):
        v = self.value
        return (v > 0) - (v < 0)

    def enclosure(self):
        return self.value, self.value

    def __add__(self, other):
        if isinstance(other, RationalScalar):
            return RationalScalar(self.value + other.value)
        if isinstance(other, (int, Fraction)):
            return RationalScalar(self.value + other)
        if isinstance(other, Scalar):
            return other + self
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return RationalScalar(-self.value)

    def __mul__(self, other):
        if isinstance(other, RationalScalar):
            return RationalScalar(self.value * other.value)
        if isinstance(other, (int, Fraction)):
            return RationalScalar(self.value * other)
        if isinstance(other, Scalar):
            # 1 * x is x itself, with no arithmetic in x's kind
            return other if self.value == 1 else other * self
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RationalScalar):
            return RationalScalar(self.value / other.value)
        if isinstance(other, (int, Fraction)):
            return RationalScalar(self.value / Fraction(other))
        if isinstance(other, Scalar):
            return other.__rtruediv__(self.value)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalScalar(Fraction(other) / self.value)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, RationalScalar):
            return self.value == other.value
        if isinstance(other, (int, Fraction)):
            return self.value == other
        if isinstance(other, AlgebraicScalar):
            return other == self
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return "RationalScalar(%s)" % _text(self.value)


class AlgebraicScalar(Scalar):
    """An element of a :class:`NumberField`, as a polynomial in the generator.

    The polynomial is held as integer numerators ``num`` over one positive
    denominator ``den``, reduced modulo the field modulus and in lowest
    terms (``gcd(den, *num) == 1``).
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field, coeffs):
        self.field = field
        self.num, self.den = _reduced(field.modulus, *_split(coeffs))

    @classmethod
    def _of(cls, field, num, den):
        """An element from numerators and denominator already in normal form."""
        x = object.__new__(cls)
        x.field = field
        x.num = num
        x.den = den
        return x

    @property
    def coeffs(self):
        """The coefficients as Fractions, constant term first."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def _operand(self, other):
        """(num, den) of ``other`` in self's field, or None."""
        if isinstance(other, AlgebraicScalar):
            if other.field is self.field or self.field.same_root(other.field):
                return other.num, other.den
            raise MalformedInput("operands live in different number fields")
        if isinstance(other, RationalScalar):
            other = other.value
        elif isinstance(other, int):
            return ((other,) if other else ()), 1
        elif not isinstance(other, Fraction):
            return None
        return ((other.numerator,) if other else ()), other.denominator

    @staticmethod
    def _make(field, num, den):
        """num/den reduced once; degree below 1 demotes to a RationalScalar."""
        num, den = _reduced(field.modulus, num, den)
        if len(num) < 2:
            return RationalScalar(Fraction(num[0], den) if num else Fraction(0))
        return AlgebraicScalar._of(field, num, den)

    def sign(self):
        return _elem_sign(self.num, self.field)

    def _bounds(self):
        """The enclosure at the field's current one as integers (lo, hi,
        den), den > 0; nothing is refined."""
        lo, hi, den = poly._interval_bounds(self.num, *self.field.enclosure())
        return lo, hi, den * self.den

    def enclosure(self, eps=None):
        """Interval around the value, refined to width <= ``eps`` when
        given (``eps`` must be positive)."""
        if eps is not None:
            eps = Fraction(eps)
            if eps <= 0:
                raise MalformedInput("eps must be positive")
        while True:
            vlo, vhi, den = self._bounds()
            vlo, vhi = Fraction(vlo, den), Fraction(vhi, den)
            if eps is None or vhi - vlo <= eps:
                return vlo, vhi
            self.field.refine_once()

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._make(self.field, *_sum(self.num, self.den, *o))

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicScalar._of(self.field, poly.neg(self.num), self.den)

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        onum, oden = o
        return self._make(self.field, poly.mul(self.num, onum), self.den * oden)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        onum, oden = o
        inum, iden = _elem_inverse(onum, self.field)
        # (num/den) / (onum/oden) = num * oden * (1/onum) / den
        return self._make(
            self.field, poly.mul(poly.scale(self.num, oden), inum), self.den * iden
        )

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return AlgebraicScalar(self.field, (Fraction(other),)) / self
        return NotImplemented

    def __eq__(self, other):
        try:
            o = self._operand(other)
        except MalformedInput:
            return compare(self, other) is Ordering.EQ
        if o is None:
            return NotImplemented
        onum, oden = o
        return _elem_is_zero(_sum(self.num, self.den, poly.neg(onum), oden)[0], self.field)

    __hash__ = None

    def annihilator(self):
        """Square-free integer polynomial vanishing at the value.

        This is the minimal polynomial whenever the field modulus is
        irreducible; for a reducible square-free modulus it may pick up
        factors from the other components, which is harmless for root
        isolation and comparison.
        """
        d = self.field.degree
        pivots = []  # (pivot index, vector, combination) rows in echelon form
        power, power_den = (1,), 1
        for k in range(d + 1):
            vec = [Fraction(c, power_den) for c in power]
            vec += [Fraction(0)] * (d - len(power))
            combo = [Fraction(0)] * (d + 1)
            combo[k] = Fraction(1)
            for pidx, pvec, pcombo in pivots:
                if vec[pidx] != 0:
                    f = vec[pidx]
                    vec = [a - f * b for a, b in zip(vec, pvec)]
                    combo = [a - f * b for a, b in zip(combo, pcombo)]
            nz = next((i for i, a in enumerate(vec) if a != 0), None)
            if nz is None:
                return poly.to_int_poly(poly.square_free_part(poly.trim(combo)))
            inv = 1 / vec[nz]
            vec = [a * inv for a in vec]
            combo = [a * inv for a in combo]
            pivots.append((nz, vec, combo))
            power, power_den = _reduced(
                self.field.modulus, poly.mul(power, self.num), power_den * self.den
            )
        raise AssertionError("no dependency among field element powers")

    def __repr__(self):
        return "AlgebraicScalar(%r, %r)" % (self.field, [_text(c) for c in self.coeffs])


class IntervalScalar(Scalar):
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = Fraction(lo)
        hi = Fraction(hi)
        if lo > hi:
            raise MalformedInput("interval lower endpoint exceeds upper")
        self.lo = lo
        self.hi = hi

    def is_exact(self):
        return self.lo == self.hi

    def sign(self):
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == self.hi == 0:
            return 0
        return None

    def enclosure(self):
        return self.lo, self.hi

    def width(self):
        return self.hi - self.lo

    def _coerce(self, other):
        if isinstance(other, IntervalScalar):
            return other
        if isinstance(other, RationalScalar):
            return IntervalScalar(other.value, other.value)
        if isinstance(other, (int, Fraction)):
            return IntervalScalar(other, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return IntervalScalar(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self):
        return IntervalScalar(-self.hi, -self.lo)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        cands = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return IntervalScalar(min(cands), max(cands))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.lo <= 0 <= o.hi:
            raise ZeroDivisionError("division by an interval containing zero")
        return self * IntervalScalar(1 / o.hi, 1 / o.lo)

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return IntervalScalar(other, other) / self
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, IntervalScalar):
            return self.lo == other.lo and self.hi == other.hi
        return NotImplemented

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return "IntervalScalar(%s, %s)" % (_text(self.lo), _text(self.hi))


def rational(num, den=1):
    return RationalScalar(Fraction(num, den))


def algebraic(modulus, lo, hi):
    """The root of ``modulus`` isolated by (lo, hi), as a scalar.

    Degree-one input demotes to the rational root itself.
    """
    mod = poly.to_int_poly(poly.square_free_part(poly.trim(modulus)))
    if poly.degree(mod) < 1:
        raise MalformedInput("modulus must be non-constant")
    if poly.degree(mod) == 1:
        return RationalScalar(Fraction(-mod[0], mod[1]))
    field = NumberField(mod, lo, hi)
    return AlgebraicScalar(field, (Fraction(0), Fraction(1)))


def interval(lo, hi):
    return IntervalScalar(lo, hi)


def floor_exact(x):
    """Exact floor of a scalar.

    Algebraic values refine their isolating interval until no integer is
    left inside the value's enclosure; once a single integer k is left, one
    exact test of x == k runs.  Plain intervals that straddle an integer
    raise :class:`IndeterminateFloor` since they carry no refinement
    oracle.
    """
    if isinstance(x, RationalScalar):
        return _floor(x.value)
    if isinstance(x, IntervalScalar):
        flo = _floor(x.lo)
        if flo == _floor(x.hi) or x.lo == x.hi:
            return flo
        raise IndeterminateFloor("interval %r straddles an integer" % x)
    if isinstance(x, AlgebraicScalar):
        tested = None
        for _ in range(DEFAULT_REFINE_BUDGET):
            lo, hi, den = x._bounds()
            flo, fhi = lo // den, hi // den
            if flo == fhi:
                return flo
            if fhi == flo + 1 and fhi != tested:
                if x == fhi:
                    return fhi
                tested = fhi
            x.field.refine_once()
        raise IndeterminateFloor("floor refinement budget exhausted for %r" % x)
    raise MalformedInput("floor_exact expects a Scalar, got %r" % (x,))


def _demoted(v):
    """``v`` as a Scalar: a number, or a constant field element, becomes
    a RationalScalar."""
    if isinstance(v, AlgebraicScalar) and len(v.num) < 2:
        v = Fraction(v.num[0], v.den) if v.num else 0
    return RationalScalar(v) if isinstance(v, (int, Fraction)) else v


def compare(x, y):
    """Exact ordering of two scalars; INDETERMINATE only for fuzzy intervals.

    With an interval operand, each side is read as its ends (a, b) and
    (c, d), an exact value v as (v, v): LT when c - b is positive, GT when
    a - d is, EQ when both sides are one point, else INDETERMINATE.  Each
    end sign is an exact same-field decision, so no enclosure is raced.
    A constant field element compares as the rational it is.  Values of
    one field, or of two fields holding one root, compare by the sign of
    their difference.  Only two fields with different roots race their
    enclosures, refining both until they separate; a common root of
    the two annihilators that is, by Sturm count, the only root of each in
    the joint enclosure (whose ends are no root) is EQ.
    """
    x, y = map(_demoted, (x, y))
    if isinstance(x, IntervalScalar) or isinstance(y, IntervalScalar):
        (a, b), (c, d) = (
            (RationalScalar(v.lo), RationalScalar(v.hi))
            if isinstance(v, IntervalScalar) else (v, v)
            for v in (x, y)
        )
        if (c - b).sign() > 0:
            return Ordering.LT
        if (a - d).sign() > 0:
            return Ordering.GT
        return Ordering.EQ if x.is_exact() and y.is_exact() else Ordering.INDETERMINATE
    if not (isinstance(x, AlgebraicScalar) and isinstance(y, AlgebraicScalar)) or (
        x.field is y.field or x.field.same_root(y.field)
    ):
        return Ordering((x - y).sign())
    px, py = x.annihilator(), y.annihilator()
    common = poly.to_int_poly(poly.gcd(px, py))
    chains = ()
    if poly.degree(common) >= 1:
        chains = [(p, poly.sturm_chain(p)) for p in (px, py, common)]
    for _ in range(_SIGN_BUDGET):
        xlo, xhi = x.enclosure()
        ylo, yhi = y.enclosure()
        if xhi < ylo:
            return Ordering.LT
        if yhi < xlo:
            return Ordering.GT
        lo, hi = min(xlo, ylo), max(xhi, yhi)
        if chains and all(
            poly.evaluate(p, lo) and poly.evaluate(p, hi)
            and poly.count_roots(c, lo, hi) == 1
            for p, c in chains
        ):
            return Ordering.EQ
        x.field.refine_once()
        y.field.refine_once()
    raise BudgetExceeded("cross-field comparison did not settle")


def refine(x, eps):
    """Tighten the enclosure of ``x`` to width <= eps where an oracle exists.

    Rational values are returned unchanged; algebraic values refine their
    field's root interval in place (a monotone cache) and are returned;
    plain intervals have nothing to refine against and come back as-is.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise MalformedInput("eps must be positive")
    if isinstance(x, AlgebraicScalar):
        x.enclosure(eps)
    return x


def _int_mat_vec(m, entries):
    """Integer matrix times rational and algebraic entries, or None.

    With every algebraic entry in one field object, each row is summed as
    integer numerators over the entries' common denominator and reduced
    once; the normal form is unique, so the result equals term-by-term
    addition.  Interval entries or several field objects give None.
    """
    field = None
    parts = []
    for x in entries:
        if isinstance(x, AlgebraicScalar):
            if field is None:
                field = x.field
            elif x.field is not field:
                return None
            parts.append((x.num, x.den))
        elif isinstance(x, RationalScalar):
            v = x.value
            parts.append(((v.numerator,) if v else (), v.denominator))
        else:
            return None
    den = lcm(*(d for _, d in parts))
    nums = [poly.scale(n, den // d) for n, d in parts]
    out = []
    for row in m:
        acc = ()
        for c, n in zip(row, nums):
            if c:
                acc = poly.add(acc, poly.scale(n, c))
        if field is None:
            out.append(RationalScalar(Fraction(acc[0] if acc else 0, den)))
        else:
            out.append(AlgebraicScalar._make(field, acc, den))
    return tuple(out)


class ScalarVector:
    """An ordered tuple of scalars, used for (1, theta_1, ..., theta_{n-1})."""

    __slots__ = ("entries", "_box")

    def __init__(self, entries):
        entries = tuple(
            RationalScalar(e) if isinstance(e, (int, Fraction)) else e for e in entries
        )
        if len(entries) < 2:
            raise MalformedInput("a scalar vector needs at least two entries")
        for e in entries:
            if not isinstance(e, Scalar):
                raise MalformedInput("vector entry %r is not a Scalar" % (e,))
        kinds = set(map(type, entries))
        if IntervalScalar in kinds and AlgebraicScalar in kinds:
            raise MalformedInput("a vector cannot mix interval and algebraic entries")
        self.entries = entries
        self._box = None

    @classmethod
    def coerce(cls, value):
        return value if isinstance(value, cls) else cls(value)

    @property
    def rank(self):
        return len(self.entries)

    def is_positive(self):
        """True/False when decidable, None when an interval straddles zero."""
        out = True
        for e in self.entries:
            s = e.sign()
            if s is None:
                out = None
            elif s <= 0:
                return False
        return out

    def normalized(self):
        """The vector divided by its head, which becomes exactly 1 (also a
        zero divisor, inverted modulo the factor the generator lies on).
        The head is inverted once; an entry 1 times it is the inverse."""
        head = self.entries[0]
        if isinstance(head, RationalScalar) and head.value == 1:
            return self
        inv = rational(1) / head
        return ScalarVector((rational(1),) + tuple(e * inv for e in self.entries[1:]))

    def box(self, fresh=False):
        """The coordinate enclosures, as outward-rounded floats, read once
        and kept; ``fresh`` reads them again.

        No field is refined: a box read at an older, wider field enclosure
        still contains the coordinate, and a fresh one is tighter.  The
        coordinates are taken last first, so the leading 1 of a normalized
        state, which never tells two states apart, is looked at last.
        """
        if fresh or self._box is None:
            self._box = tuple(_outward(x) for x in reversed(self.entries))
        return self._box

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        if not isinstance(other, ScalarVector):
            return NotImplemented
        return len(self) == len(other) and all(
            compare(a, b) is Ordering.EQ for a, b in zip(self, other)
        )

    __hash__ = None

    def __repr__(self):
        return "ScalarVector(%r)" % (list(self.entries),)


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


def _text(f):
    """str(f) of a Fraction or an int, or its sign and bit lengths past
    Python's int/str digit limit, so every repr and message prints."""
    try:
        return str(f)
    except ValueError:
        n, d = f.numerator, f.denominator
        return "-" * (n < 0) + "<%d bits>/<%d bits>" % (n.bit_length(), d.bit_length())


def _fraction_to_json(f):
    f = Fraction(f)
    return [f.numerator, f.denominator]


def _digit_limit():
    """Python's int/str digit limit, or its default when the limit is off."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def _check_exponent(text):
    # Fraction("1e999999999") builds the whole power of ten before any
    # other check runs; bound the exponent as int() bounds its digits
    _, marker, exponent = text.lower().partition("e")
    if not marker:
        return
    try:
        exponent = int(exponent)
    except ValueError:
        return  # not a number at all: Fraction rejects it
    limit = _digit_limit()
    if abs(exponent) > limit:
        raise MalformedInput(
            "decimal exponent %d exceeds the limit of %d" % (exponent, limit)
        )


def int_from_json(x):
    """A JSON integer: an int that is not a bool; other numbers and strings
    fail."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise MalformedInput(
        "expected a JSON integer, got %s" % (x if isinstance(x, Fraction) else repr(x))
    )


def _fraction_from_json(obj):
    try:
        num, den = obj
        return Fraction(int_from_json(num), int_from_json(den))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise MalformedInput("bad rational pair %r" % (obj,)) from exc


def scalar_to_json(x):
    if isinstance(x, RationalScalar):
        return {"rat": _fraction_to_json(x.value)}
    if isinstance(x, AlgebraicScalar):
        lo, hi = x.field.enclosure()
        body = {
            "poly": list(x.field.modulus),
            "lo": _fraction_to_json(lo),
            "hi": _fraction_to_json(hi),
        }
        # the bare form means "the isolated root itself"; anything else
        # carries its coordinates in the declared field
        if x.coeffs != (Fraction(0), Fraction(1)):
            body["coeffs"] = [_fraction_to_json(c) for c in x.coeffs]
        return {"alg": body}
    if isinstance(x, IntervalScalar):
        return {"ivl": {"lo": _fraction_to_json(x.lo), "hi": _fraction_to_json(x.hi)}}
    raise MalformedInput("cannot encode %r" % (x,))


def scalar_from_json(obj):
    """Decode a scalar; accepts {"rat": ...} objects or ["rat", ...] pairs,
    and bare numbers: an int, a decimal string, or a ``Fraction`` (the
    exact value of a JSON number with a fraction or an exponent)."""
    if isinstance(obj, (list, tuple)) and len(obj) == 2 and isinstance(obj[0], str):
        obj = {obj[0]: obj[1]}
    if isinstance(obj, bool):
        raise MalformedInput("booleans are not scalars")
    if isinstance(obj, (int, Fraction)):
        return rational(obj)
    if isinstance(obj, str):
        _check_exponent(obj)
        try:
            return RationalScalar(Fraction(obj))
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInput("cannot read %r as a number" % (obj,)) from exc
    if not isinstance(obj, dict) or len(obj) != 1:
        raise MalformedInput("bad scalar encoding %r" % (obj,))
    (tag, body), = obj.items()
    if tag == "rat":
        return RationalScalar(_fraction_from_json(body))
    if tag == "alg":
        try:
            mod = [int_from_json(c) for c in body["poly"]]
            lo = _fraction_from_json(body["lo"])
            hi = _fraction_from_json(body["hi"])
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInput("bad algebraic encoding %r" % (obj,)) from exc
        if "coeffs" in body:
            try:
                coeffs = [_fraction_from_json(c) for c in body["coeffs"]]
            except (TypeError, ValueError) as exc:
                raise MalformedInput("bad coeffs in %r" % (obj,)) from exc
            field = NumberField(mod, lo, hi)
            return AlgebraicScalar._make(field, *_split(coeffs))
        return algebraic(mod, lo, hi)
    if tag == "ivl":
        try:
            return IntervalScalar(
                _fraction_from_json(body["lo"]), _fraction_from_json(body["hi"])
            )
        except (KeyError, TypeError) as exc:
            raise MalformedInput("bad interval encoding %r" % (obj,)) from exc
    raise MalformedInput("unknown scalar tag %r" % tag)


def vector_to_json(vec):
    return [scalar_to_json(e) for e in ScalarVector.coerce(vec)]


def vector_from_json(obj):
    if not isinstance(obj, (list, tuple)):
        raise MalformedInput("theta must be a JSON array")
    entries = [scalar_from_json(e) for e in obj]
    # entries decoded from identical field declarations should share one
    # NumberField object, so that arithmetic between them is direct
    shared = {}
    for i, e in enumerate(entries):
        if isinstance(e, AlgebraicScalar):
            lo, hi = e.field.enclosure()
            key = (e.field.modulus, lo, hi)
            if key in shared:
                entries[i] = AlgebraicScalar._of(shared[key], e.num, e.den)
            else:
                shared[key] = e.field
    return ScalarVector(entries)
