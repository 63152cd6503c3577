"""Independent checks of the library's outputs, written without jperron.

* ``integer_jpa`` runs the Jacobi-Perron algorithm on a positive integer
  vector with integer division only (the oracle for rational inputs);
* ``reconstructs`` checks, with its own polynomial arithmetic modulo the
  field polynomial, that a digit stream and the state it ends in rebuild
  the input vector up to a common factor;
* ``AlgebraicDigits`` computes the digits of an algebraic vector with
  outward-rounded fixed-point interval arithmetic, so every digit it
  returns is certified;
* ``digest`` hashes canonical JSON, for outputs recorded in ``golden.json``.
"""

import hashlib
import json
from fractions import Fraction


def integer_jpa(vec):
    """Digit blocks and terminal integer vector of integer JPA.

    Each step emits (a_1 // a_0, ..., a_{n-1} // a_0) and moves to
    (a_1 % a_0, ..., a_{n-1} % a_0, a_0); it stops once a_1 % a_0 = 0,
    returning the terminal vector (0, a_2 % a_0, ..., a_{n-1} % a_0, a_0).
    """
    a = list(vec)
    digits = []
    while True:
        head = a[0]
        digits.append(tuple(x // head for x in a[1:]))
        rem = [x % head for x in a[1:]]
        if rem[0] == 0:
            return digits, [0] + rem[1:] + [head]
        a = rem + [head]


def step_matrix(block):
    n = len(block) + 1
    m = [[0] * n for _ in range(n)]
    m[0][n - 1] = 1
    for i, digit in enumerate(block):
        m[i + 1][i] = 1
        m[i + 1][n - 1] = digit
    return m


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def prefix_product(blocks, rank):
    out = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for b in blocks:
        out = mat_mul(out, step_matrix(b))
    return out


def det(a):
    """Fraction-free (Bareiss) determinant of an integer matrix."""
    m = [list(r) for r in a]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def reduce_mod(p, modulus):
    """Remainder of a rational polynomial (constant term first) by ``modulus``."""
    p = [Fraction(c) for c in p]
    d = len(modulus) - 1
    lead = Fraction(modulus[-1])
    for top in range(len(p) - 1, d - 1, -1):
        c = p[top] / lead
        if c:
            for i, m in enumerate(modulus):
                p[top - d + i] -= c * m
    return _trim(p[:d])


def mul_mod(p, q, modulus):
    out = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return reduce_mod(out, modulus)


def reconstructs(theta, blocks, last_state, modulus):
    """Is P * last_state proportional to theta, with P = B(b_1)...B(b_k)
    unimodular?  Field elements are coefficient tuples in the generator;
    ``theta`` must start with the rational 1."""
    rank = len(theta)
    p = prefix_product(blocks, rank)
    if abs(det(p)) != 1:
        return False
    image = []
    for row in p:
        acc = [Fraction(0)] * len(modulus)
        for c, x in zip(row, last_state):
            for i, a in enumerate(x):
                acc[i] += c * a
        image.append(reduce_mod(acc, modulus))
    scale = image[0]
    if _trim(reduce_mod(theta[0], modulus)) != (Fraction(1),):
        return False
    return all(
        image[i] == mul_mod(scale, theta[i], modulus) for i in range(1, rank)
    )


def _fixed(c, p):
    """Fixed-point enclosure [lo, hi] of a rational, scaled by 2**p."""
    c = Fraction(c)
    return (c.numerator << p) // c.denominator, -((-c.numerator << p) // c.denominator)


def _imul(x, y, p):
    prods = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
    return min(prods) >> p, -((-max(prods)) >> p)


def _idiv(x, y, p):
    """x / y for x >= 0 and y > 0."""
    return (x[0] << p) // y[1], -((-(x[1] << p)) // y[0])


class AlgebraicDigits:
    """Certified JPA digits of vectors in real number fields.

    The root is enclosed by integer bisection to 2**-p (cached per field,
    so the cost is paid once per field); every later operation rounds
    outward.  When an enclosure straddles an integer the expansion stops,
    and the precision is doubled until every requested digit is decided.
    """

    PRECISION = 4096
    MAX_PRECISION = 1 << 16

    def __init__(self):
        self._roots = {}

    def _root(self, modulus, lo, hi, p):
        key = (tuple(modulus), Fraction(lo), Fraction(hi), p)
        if key not in self._roots:
            d = len(modulus) - 1

            def sign(m):  # sign of modulus(m / 2**p)
                v = modulus[d]
                for i in range(d - 1, -1, -1):
                    v = v * m + (modulus[i] << (p * (d - i)))
                return (v > 0) - (v < 0)

            a, b = _fixed(lo, p)[0], _fixed(hi, p)[1]
            sa = sign(a)
            while b - a > 1:
                mid = (a + b) // 2
                s = sign(mid)
                if s == 0:
                    a = b = mid
                elif s == sa:
                    a = mid
                else:
                    b = mid
            self._roots[key] = (a, b)
        return self._roots[key]

    def digits(self, modulus, root, entries, depth):
        """First ``depth`` digit blocks of (1, entries[1], ...), where the
        entries are coefficient tuples in the generator."""
        p = self.PRECISION
        while True:
            g = self._root(modulus, root[0], root[1], p)
            xs = []
            for coeffs in entries[1:]:
                acc = _fixed(coeffs[-1], p)
                for c in reversed(coeffs[:-1]):
                    lo, hi = _imul(acc, g, p)
                    clo, chi = _fixed(c, p)
                    acc = lo + clo, hi + chi
                xs.append(acc)
            out = self._expand(xs, depth, p)
            if len(out) == depth or 2 * p > self.MAX_PRECISION:
                return out
            p *= 2

    @staticmethod
    def _expand(xs, depth, p):
        one = 1 << p
        out = []
        for _ in range(depth):
            block = tuple(lo >> p for lo, _ in xs)
            if any(hi >> p != b for (_, hi), b in zip(xs, block)):
                return out
            fr = [(lo - b * one, hi - b * one) for (lo, hi), b in zip(xs, block)]
            if fr[0][0] <= 0:
                return out
            out.append(block)
            xs = [_idiv(f, fr[0], p) for f in fr[1:]] + [_idiv((one, one), fr[0], p)]
        return out


def canonical(obj):
    """JSON-ready copy: fractions become strings, tuples become lists."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    return obj


def digest(obj):
    text = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
