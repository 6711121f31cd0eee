"""Exact rational arithmetic: polynomials over Fraction, determinants, power sums.

Used wherever a result must be a provably exact integer (field discriminants,
order discriminants, algebraic norms).  Geometry elsewhere runs in doubles.
"""

from fractions import Fraction


def poly_trim(p):
    """Drop trailing zero coefficients (ascending order)."""
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return poly_trim(out)


def poly_mod(a, m):
    """Remainder of a modulo the monic polynomial m (both ascending)."""
    assert m[-1] == 1, "modulus must be monic"
    a = list(a)
    deg_m = len(m) - 1
    while len(a) - 1 >= deg_m and len(a) > 1:
        lead = a[-1]
        if lead != 0:
            shift = len(a) - 1 - deg_m
            for i in range(deg_m + 1):
                a[shift + i] -= lead * m[i]
        a.pop()
    return poly_trim(a)


def power_sums(min_poly, upto):
    """Newton power sums p_m = sum of roots^m, m = 0..upto, for a monic
    integer/rational polynomial given in ascending order."""
    deg = len(min_poly) - 1
    assert min_poly[-1] == 1
    # e_i = (-1)^i * coefficient of x^{deg-i}
    e = [Fraction(0)] * (deg + 1)
    for i in range(deg + 1):
        e[i] = Fraction((-1) ** i) * Fraction(min_poly[deg - i])
    p = [Fraction(deg)]
    for m in range(1, upto + 1):
        if m <= deg:
            acc = Fraction((-1) ** (m - 1) * m) * e[m]
            for i in range(1, m):
                acc += Fraction((-1) ** (m - 1 + i)) * e[m - i] * p[i]
        else:
            acc = Fraction(0)
            for i in range(1, deg + 1):
                acc += Fraction((-1) ** (i - 1)) * e[i] * p[m - i]
        p.append(acc)
    return p


def bareiss_det(matrix):
    """Exact determinant of a square matrix of Fractions (fraction-free path
    is not needed; plain fraction elimination is fine at catalog sizes)."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        pivot = m[col][col]
        det *= pivot
        inv = 1 / pivot
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor == 0:
                continue
            row_r = m[r]
            row_c = m[col]
            for c in range(col, n):
                row_r[c] -= factor * row_c[c]
    return det


def solve_exact(matrix, rhs):
    """Solve A x = b exactly over the rationals.  A must be square invertible."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            raise ZeroDivisionError("singular system")
        m[col], m[pivot_row] = m[pivot_row], m[col]
        pivot = m[col][col]
        for c in range(col, n + 1):
            m[col][c] /= pivot
        for r in range(n):
            if r == col or m[r][col] == 0:
                continue
            factor = m[r][col]
            for c in range(col, n + 1):
                m[r][c] -= factor * m[col][c]
    return [m[r][n] for r in range(n)]


def invert_exact(matrix):
    """Exact inverse of a square rational matrix, column by column."""
    n = len(matrix)
    cols = []
    for j in range(n):
        rhs = [Fraction(1) if i == j else Fraction(0) for i in range(n)]
        cols.append(solve_exact(matrix, rhs))
    return [[cols[j][i] for j in range(n)] for i in range(n)]
