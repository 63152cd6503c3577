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
    """Last nonzero row of the fraction-free remainder sequence.

    With P = dp*p and Q = dq*q integral, every row (r, u, v) satisfies
    r = u*P + v*Q in integers: r is reduced by the next row through
    one-term pseudo-division (both scaled so that the leading terms cancel)
    and then divided by the content of the whole row.  The remainder over
    Q is unique, so each row is a nonzero rational multiple of the
    Euclidean row.  Only the first 1 + ``cofactors`` entries of a row are
    carried: r alone (0), r and u (1), or r, u and v (2); an entry left
    out does not take part in the content.  Returns (row, dp, dq).
    """
    a, dp = _over_one_den(trim(p))
    b, dq = _over_one_den(trim(q))
    ra = [a, [1], []][:cofactors + 1]
    rb = [b, [], [1]][:cofactors + 1]
    while rb[0]:
        lb = rb[0][-1]
        while len(ra[0]) >= len(rb[0]):
            c = ra[0][-1]
            g = int_gcd(c, lb)
            s, t, k = lb // g, c // g, len(ra[0]) - len(rb[0])
            ra = [_cancel_step(x, y, s, t, k) for x, y in zip(ra, rb)]
        g = int_gcd(*[c for x in ra for c in x])
        if g != 1:
            ra = [[c // g for c in x] for x in ra]
        ra, rb = rb, ra
    return ra, dp, dq


def gcd(p, q):
    """Monic polynomial gcd over Q."""
    (a,), _, _ = _remainders(p, q, 0)
    return tuple(Fraction(c, a[-1]) for c in a)


def extended_gcd(p, q):
    """Return (g, u, v) with u*p + v*q = g and g monic.

    Runs fraction-free (``_remainders``); dividing the last row by the
    leading coefficient of r gives the same g, u and v as Euclid over Q.
    """
    (a, ua, va), dp, dq = _remainders(p, q, 2)
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
    """Enclosure of p over [lo, hi] by interval Horner; exact endpoints."""
    vlo, vhi, den = _interval_bounds(p, Fraction(lo), Fraction(hi))
    return Fraction(vlo, den), Fraction(vhi, den)


def _interval_bounds(p, lo, hi):
    """``evaluate_interval`` as integers (vlo, vhi, den), den > 0.

    With the coefficients over their common denominator d and the
    endpoints (ints or Fractions) over theirs, q, the accumulator after k
    coefficients is kept scaled by d * q^(k-1).  Scaling by a positive
    factor keeps the min/max choices, so vlo/den and vhi/den are the
    bounds of interval Horner over Fractions.
    """
    if not p:
        return 0, 0, 1
    nums = p[::-1]
    # field numerators are ints already: no common denominator to find
    if all(isinstance(c, int) for c in nums):
        d = 1
    else:
        nums, d = _over_one_den(nums)
    lq, hq = lo.denominator, hi.denominator
    q = lq // int_gcd(lq, hq) * hq
    a = lo.numerator * (q // lq)
    b = hi.numerator * (q // hq)
    acc_lo = acc_hi = nums[0]
    qk = 1
    for c in nums[1:]:
        qk *= q
        cands = (acc_lo * a, acc_lo * b, acc_hi * a, acc_hi * b)
        acc_lo = min(cands) + c * qk
        acc_hi = max(cands) + c * qk
    return acc_lo, acc_hi, d * qk


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
