"""Exact integer matrix helpers: products, determinants, unimodular
inverses and the row Hermite normal form with its transform.

Matrices are lists of lists of Python ints; nothing here ever rounds.
"""

from .errors import NotUnimodular


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            v = ai[t]
            if v == 0:
                continue
            bt = b[t]
            for j in range(m):
                oi[j] += v * bt[j]
    return out

def mat_vec(a, v):
    return [sum(r[j] * v[j] for j in range(len(v))) for r in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_eq(a, b):
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def copy(a):
    return [list(r) for r in a]


def det(a):
    """Determinant by fraction-free Bareiss elimination."""
    n = len(a)
    m = copy(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_integer_matrix(a):
    return all(isinstance(x, int) for row in a for x in row)


def check_unimodular(a):
    if not a or any(len(row) != len(a) for row in a):
        raise NotUnimodular("matrix must be square and non-empty")
    if not is_integer_matrix(a):
        raise NotUnimodular("matrix entries must be integers")
    d = det(a)
    if d not in (1, -1):
        raise NotUnimodular("determinant is %d, not +-1" % d)
    return d


def inverse_unimodular(a):
    """Exact inverse of a matrix with determinant +-1, in integers.

    The Hermite normal form of a unimodular matrix is the identity, so its
    transform U, with U*A = I, is the inverse.
    """
    check_unimodular(a)
    return hnf(a)[1]


def mat_pow(a, k):
    n = len(a)
    if k < 0:
        return mat_pow(inverse_unimodular(a), -k)
    out = identity(n)
    base = copy(a)
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        k >>= 1
    return out


def hnf(a):
    """Row Hermite normal form.

    Returns (H, U) with U unimodular, U*A = H, pivots positive, zeros
    below each pivot and entries above a pivot reduced into [0, pivot).
    Rows of H span the same Z-module as rows of A; zero rows sink to the
    bottom, so equal row modules give identical H.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    h = copy(a)
    u = identity(rows)
    r = 0
    for c in range(cols):
        if r == rows:
            break
        # gather the column gcd into row r by remainder exchanges
        while True:
            nz = [i for i in range(r, rows) if h[i][c] != 0]
            if not nz:
                break
            pivot = min(nz, key=lambda i: abs(h[i][c]))
            if pivot != r:
                h[r], h[pivot] = h[pivot], h[r]
                u[r], u[pivot] = u[pivot], u[r]
            cleared = True
            for i in range(r + 1, rows):
                if h[i][c] != 0:
                    q = h[i][c] // h[r][c]
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                    if h[i][c] != 0:
                        cleared = False
            if cleared:
                break
        if h[r][c] != 0:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
                u[r] = [-x for x in u[r]]
            for i in range(r):
                q = h[i][c] // h[r][c]
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
            r += 1
    return h, u


def nonzero_rows(h):
    return [row for row in h if any(x != 0 for x in row)]
