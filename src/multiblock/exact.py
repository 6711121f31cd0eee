"""Exact arithmetic on Python integers: polynomials, power sums,
determinants and inverses.

A rational vector or matrix is held as integer numerators over one common
denominator, so the hot paths build no per-coefficient Fraction; a Fraction
appears only where a result leaves as one.  Determinants and inverses take
integer rows (an inverse also their one denominator) and use fraction-free
elimination (Bareiss 1968; Cohen, *A Course in Computational Algebraic
Number Theory*, Alg. 2.2.6), whose every division is exact.  A row whose
multiplier is 0 while the pivot equals the previous one is skipped, since
that step gives it back unchanged: the identity, the basis matrix of every
catalog field, costs O(n^2).  Used
wherever a result must be a provably exact integer (field discriminants,
order discriminants, algebraic norms).  Geometry elsewhere runs in doubles.
"""

import math
import numbers
from fractions import Fraction


def common_denominator(values):
    """(numerators, denominator) of a sequence of rationals: integer
    numerators over the least positive common denominator."""
    fracs = [v if type(v) is int
             else int(v) if isinstance(v, numbers.Integral) else Fraction(v)
             for v in values]
    den = math.lcm(*(v.denominator for v in fracs)) if fracs else 1
    return [v.numerator * (den // v.denominator) for v in fracs], den


def poly_mul(a, b):
    """Product of two polynomials (ascending, untrimmed): integer ones in
    exact arithmetic, float ones in the irreducibility screen."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def poly_mod(a, m):
    """Remainder of the integer polynomial a modulo the monic integer
    polynomial m (both ascending), padded to exactly deg m coefficients."""
    if m[-1] != 1:
        raise ValueError("modulus must be monic")
    deg_m = len(m) - 1
    a = list(a)
    for top in range(len(a) - 1, deg_m - 1, -1):
        lead = a[top]
        if lead:
            base = top - deg_m
            for i in range(deg_m):
                a[base + i] -= lead * m[i]
    out = a[:deg_m]
    return out + [0] * (deg_m - len(out))


def power_sums(min_poly, upto):
    """Newton power sums p_m = sum of roots^m, m = 0..upto, of a monic
    integer polynomial given in ascending order (integers, because the
    roots are algebraic integers)."""
    deg = len(min_poly) - 1
    if min_poly[-1] != 1:
        raise ValueError("polynomial must be monic")
    # e_i = (-1)^i * coefficient of x^{deg-i}
    e = [(-1) ** i * int(min_poly[deg - i]) for i in range(deg + 1)]
    p = [deg]
    for m in range(1, upto + 1):
        if m <= deg:
            acc = (-1) ** (m - 1) * m * e[m]
            for i in range(1, m):
                acc += (-1) ** (m - 1 + i) * e[m - i] * p[i]
        else:
            acc = 0
            for i in range(1, deg + 1):
                acc += (-1) ** (i - 1) * e[i] * p[m - i]
        p.append(acc)
    return p


def _pivot(a, k):
    """Bring a row with a nonzero entry in column k into row k, searching
    rows k, k+1, ...: 1 if row k already had one, -1 after a swap, 0 if the
    column is zero from row k down."""
    if a[k][k]:
        return 1
    for r in range(k + 1, len(a)):
        if a[r][k]:
            a[k], a[r] = a[r], a[k]
            return -1
    return 0


def bareiss_det(rows):
    """Exact determinant of a square matrix of integers, as an int.

    Every entry must be an int: a rational matrix is passed as its integer
    numerators over one denominator d, and its determinant is this one over
    d^n.  Fraction-free Bareiss elimination: every entry of the trailing
    block is a minor of the matrix, so each division by the previous pivot
    is exact and no entry outgrows the minors."""
    a = [list(row) for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        swap = _pivot(a, k)
        if not swap:
            return 0
        sign *= swap
        p, row_k = a[k][k], a[k]
        for row_i in a[k + 1:]:
            f = row_i[k]
            if f or p != prev:      # else the step gives the row back
                for j in range(k + 1, n):
                    row_i[j] = (p * row_i[j] - f * row_k[j]) // prev
        prev = p
    return sign * a[n - 1][n - 1] if n else 1


def inverse(rows, den):
    """Exact inverse of the invertible rational matrix rows / den (integer
    rows, a nonzero integer den) as (integer numerator rows, positive
    denominator) in lowest terms.

    Fraction-free Gauss-Jordan on [A | I], A the integer rows: each step
    divides exactly by the previous pivot, and at the end the left block is
    d*I and the right block d*A^-1, d = det of the row-permuted A, so
    (A / den)^-1 = den * (right block) / d.  Raises ZeroDivisionError when A
    is singular."""
    n = len(rows)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for k in range(n):
        if not _pivot(a, k):
            raise ZeroDivisionError("singular matrix")
        p, row_k = a[k][k], a[k]
        for i, row_i in enumerate(a):
            if i == k:
                continue
            f = row_i[k]
            if not f and p == prev:     # the step gives the row back
                continue
            for j in range(2 * n):
                if j != k:
                    row_i[j] = (p * row_i[j] - f * row_k[j]) // prev
            row_i[k] = 0
        prev = p
    det = prev
    nums = [[den * x for x in row[n:]] for row in a]
    if det < 0:
        det, nums = -det, [[-x for x in row] for row in nums]
    g = math.gcd(det, *(x for row in nums for x in row))
    return [[x // g for x in row] for row in nums], det // g
