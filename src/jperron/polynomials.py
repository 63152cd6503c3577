"""Dense univariate polynomial helpers over the rationals.

Polynomials are tuples of coefficients, constant term first.  Everything
here is exact: coefficients are ints or ``fractions.Fraction``, and root
counting goes through Sturm chains so that isolating intervals can be
certified rather than guessed.
"""

from fractions import Fraction
from math import gcd as int_gcd

ZERO = ()


def trim(coeffs):
    """Drop trailing zero coefficients; the zero polynomial is ()."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p):
    return len(p) - 1


def add(p, q):
    n = max(len(p), len(q))
    return trim(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    )


def neg(p):
    return tuple(-c for c in p)


def sub(p, q):
    return add(p, neg(q))


def mul(p, q):
    if not p or not q:
        return ZERO
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def scale(p, c):
    if c == 0:
        return ZERO
    return tuple(a * c for a in p)


def div_mod(p, q):
    """Polynomial division over Q; returns (quotient, remainder)."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in p]
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    lead = Fraction(q[-1])
    dq = len(q) - 1
    for i in range(len(rem) - 1, dq - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        f = c / lead
        quo[i - dq] = f
        for j, b in enumerate(q):
            rem[i - dq + j] -= f * b
    return trim(quo), trim(rem)


def _over_one_den(p):
    """(integer numerators, least common denominator) of int/Fraction p."""
    den = 1
    for c in p:
        den = den // int_gcd(den, c.denominator) * c.denominator
    return [c.numerator * (den // c.denominator) for c in p], den


def _cancel_step(p, q, s, t, k):
    """s*p - t*x^k*q on integer coefficient lists, trimmed."""
    out = [s * c for c in p]
    out.extend([0] * (len(q) + k - len(out)))
    for j, c in enumerate(q):
        out[j + k] -= t * c
    while out and out[-1] == 0:
        out.pop()
    return out


def _remainders(p, q, cofactors):
    """Last nonzero row (r, u, v) of the fraction-free remainder sequence.

    With P = dp*p and Q = dq*q integral, every row (r, u, v) satisfies
    r = u*P + v*Q in integers: r is reduced by the next row through
    one-term pseudo-division (both scaled so that the leading terms cancel)
    and then divided by the content of the whole row.  The remainder over
    Q is unique, so each row is a nonzero rational multiple of the
    Euclidean row.  Without ``cofactors`` u and v stay empty and each
    remainder is divided by its own content.  Returns (r, u, v, dp, dq).
    """
    a, dp = _over_one_den(trim(p))
    b, dq = _over_one_den(trim(q))
    ua, va, ub, vb = ([1], [], [], [1]) if cofactors else ([], [], [], [])
    while b:
        lb = b[-1]
        while len(a) >= len(b):
            c = a[-1]
            g = int_gcd(c, lb)
            s, t, k = lb // g, c // g, len(a) - len(b)
            a = _cancel_step(a, b, s, t, k)
            if cofactors:
                ua = _cancel_step(ua, ub, s, t, k)
                va = _cancel_step(va, vb, s, t, k)
        g = int_gcd(*a, *ua, *va)
        if g != 1:
            a = [c // g for c in a]
            ua = [c // g for c in ua]
            va = [c // g for c in va]
        a, b = b, a
        ua, ub = ub, ua
        va, vb = vb, va
    return a, ua, va, dp, dq


def gcd(p, q):
    """Monic polynomial gcd over Q."""
    a = _remainders(p, q, False)[0]
    return tuple(Fraction(c, a[-1]) for c in a)


def extended_gcd(p, q):
    """Return (g, u, v) with u*p + v*q = g and g monic.

    Runs fraction-free (``_remainders``); dividing the last row by the
    leading coefficient of r gives the same g, u and v as Euclid over Q.
    """
    a, ua, va, dp, dq = _remainders(p, q, True)
    if not a:
        return ZERO, ZERO, ZERO
    lead = a[-1]
    return (
        tuple(Fraction(c, lead) for c in a),
        tuple(Fraction(c * dp, lead) for c in ua),
        tuple(Fraction(c * dq, lead) for c in va),
    )


def derivative(p):
    return trim(i * c for i, c in enumerate(p) if i > 0)


def square_free_part(p):
    """p with repeated roots collapsed to simple ones."""
    p = trim(p)
    if degree(p) < 1:
        return p
    g = gcd(p, derivative(p))
    if degree(g) < 1:
        return p
    return div_mod(p, g)[0]


def content(p):
    c = 0
    for a in p:
        c = int_gcd(c, abs(a))
    return c


def to_int_poly(p):
    """Clear denominators and content; normalize the leading sign to +."""
    p = trim(p)
    if not p:
        return ZERO
    den = 1
    for c in p:
        den = den * Fraction(c).denominator // int_gcd(den, Fraction(c).denominator)
    ints = [int(Fraction(c) * den) for c in p]
    g = content(ints)
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def evaluate(p, x):
    """Horner evaluation at a rational point."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def evaluate_interval(p, lo, hi):
    """Enclosure of p over [lo, hi] by interval Horner; exact endpoints.

    Runs in integers: with the coefficients over their common denominator
    d and the endpoints over theirs, q, the accumulator after k
    coefficients is kept scaled by d * q^(k-1).  Scaling by a positive
    factor keeps the min/max choices, so the result equals interval Horner
    over Fractions.
    """
    if not p:
        return Fraction(0), Fraction(0)
    lo = Fraction(lo)
    hi = Fraction(hi)
    nums, d = _over_one_den(p[::-1])
    q = lo.denominator // int_gcd(lo.denominator, hi.denominator) * hi.denominator
    a = lo.numerator * (q // lo.denominator)
    b = hi.numerator * (q // hi.denominator)
    acc_lo = acc_hi = nums[0]
    qk = 1
    for c in nums[1:]:
        qk *= q
        cands = (acc_lo * a, acc_lo * b, acc_hi * a, acc_hi * b)
        acc_lo = min(cands) + c * qk
        acc_hi = max(cands) + c * qk
    den = d * qk
    return Fraction(acc_lo, den), Fraction(acc_hi, den)


def sturm_chain(p):
    chain = [trim(p)]
    d = derivative(p)
    if d:
        chain.append(d)
        while True:
            rem = div_mod(chain[-2], chain[-1])[1]
            if not rem:
                break
            chain.append(neg(rem))
    return chain


def _variations(chain, x):
    count = 0
    prev = 0
    for q in chain:
        s = evaluate(q, x)
        s = (s > 0) - (s < 0)
        if s != 0:
            if prev != 0 and s != prev:
                count += 1
            prev = s
    return count


def count_roots(chain, lo, hi):
    """Number of distinct real roots in (lo, hi]; endpoints must be rational."""
    if lo >= hi:
        return 0
    return _variations(chain, lo) - _variations(chain, hi)
