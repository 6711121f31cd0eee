"""Test-side brute-force oracles, deliberately independent of the package's
enumeration machinery and of its integer exact arithmetic."""

import itertools
import math
from fractions import Fraction

import numpy as np

from multiblock import channel, codebook, ratecalc
from multiblock.codebook import Codebook, count_points_in_ball, scaling_alpha
from multiblock.decoder import LatticeDecoder, faded_decodes_to, ml_decode
from multiblock.errors import BudgetExceeded, CarveFailed
from multiblock.lattice import LLL_DELTA, LLL_ETA
from multiblock.rng import philox
from witnesses import multiblock_embed


def brute_shortest(basis_rows, box=3):
    """Exhaustive SVP over the coordinate box [-box, box]^r."""
    B = np.asarray(basis_rows, dtype=float)
    r = B.shape[0]
    grid = np.array(list(itertools.product(range(-box, box + 1), repeat=r)))
    grid = grid[np.any(grid != 0, axis=1)]
    norms = np.sum((grid @ B) ** 2, axis=1)
    idx = int(np.argmin(norms))
    return float(norms[idx]), grid[idx]


def brute_closest(basis_rows, target):
    """Exhaustive CVP: search the integer box around the least-squares
    solution whose half-width r0 / sigma_min provably contains the optimum
    (r0 = Babai residual, sigma_min = smallest singular value)."""
    B = np.asarray(basis_rows, dtype=float)
    t = np.asarray(target, dtype=float)
    z_babai = np.rint(np.linalg.pinv(B.T) @ t)
    r0 = np.linalg.norm(z_babai @ B - t)
    best = (float("inf"), None)
    for Z in _box_chunks(B, t, r0):
        best = _scan(Z, B, t, best)
    assert best[1] is not None
    return best


def brute_ball(basis_rows, center, radius2):
    """Exhaustive ball: the coordinates z, as a set of tuples, of every point
    with ||z B - center||^2 <= radius2, from the integer box that provably
    holds them."""
    B = np.asarray(basis_rows, dtype=float)
    t = np.asarray(center, dtype=float)
    found = set()
    for Z in _box_chunks(B, t, math.sqrt(max(radius2, 0.0))):
        d = Z @ B - t
        found.update(map(tuple, Z[np.sum(d * d, axis=1) <= radius2].tolist()))
    return found


def _box_chunks(B, t, radius):
    """The integer points z of the box |z_i - z_ls_i| <= radius ||row_i||
    (z_ls = pinv t the least-squares solution, row_i a row of the
    pseudoinverse), in chunks of at most 65536 rows: the box holds every z
    with ||z B - t|| <= radius."""
    pinv = np.linalg.pinv(B.T)          # maps ambient -> coordinates
    z_ls = pinv @ t
    widths = radius * np.linalg.norm(pinv, axis=1) + 1e-9
    ranges = [range(int(np.ceil(z - w)), int(np.floor(z + w)) + 1)
              for z, w in zip(z_ls, widths)]
    chunk = []
    for cand in itertools.product(*ranges):
        chunk.append(cand)
        if len(chunk) == 65536:
            yield np.array(chunk)
            chunk = []
    if chunk:
        yield np.array(chunk)


def _scan(Z, B, t, best):
    d = Z @ B - t
    norms = np.sum(d * d, axis=1)
    idx = int(np.argmin(norms))
    if norms[idx] < best[0]:
        return float(norms[idx]), Z[idx]
    return best


def reference_lll(basis, delta=LLL_DELTA, eta=LLL_ETA):
    """LLL that recomputes the whole Gram-Schmidt orthogonalization after
    every size reduction and swap: the slow, obviously correct reference for
    the incremental lattice.lll_reduce.  Returns (reduced, U) with U a list
    of integer rows."""
    b = np.array(basis, dtype=float)
    r = b.shape[0]
    U = [[1 if i == j else 0 for j in range(r)] for i in range(r)]

    def gso():
        ortho = np.zeros_like(b)
        mu = np.zeros((r, r))
        norms = np.zeros(r)
        for i in range(r):
            v = b[i].copy()
            for j in range(i):
                mu[i, j] = (b[i] @ ortho[j]) / norms[j] if norms[j] > 0 else 0.0
                v -= mu[i, j] * ortho[j]
            ortho[i] = v
            norms[i] = v @ v
        return mu, norms

    mu, norms = gso()
    k = 1
    while k < r:
        for j in range(k - 1, -1, -1):
            if abs(mu[k, j]) > eta:
                q = round(mu[k, j])
                b[k] -= q * b[j]
                U[k] = [uk - q * uj for uk, uj in zip(U[k], U[j])]
                mu, norms = gso()
        if norms[k] >= (delta - mu[k, k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[[k, k - 1]] = b[[k - 1, k]]
            U[k], U[k - 1] = U[k - 1], U[k]
            mu, norms = gso()
            k = max(k - 1, 1)
    return b, U


def reference_enumerate(rows, diag, y, radius2, budget, leaf):
    """Depth-first Schnorr-Euchner walk over the z with ||R z - y||^2 <= C,
    given the rows and the diagonal of the upper triangular R and the target
    y as lists of floats, from C = radius2.  At each leaf z (a list the walk
    goes on to change) with metric m <= C it calls leaf(z, m), which returns
    the squared radius C to continue under, or None to stop.  Returns the
    nodes visited; BudgetExceeded when the walk would visit more than
    `budget`.  The reference for lattice._enumerate, which generates this
    loop per rank with the same float operations in the same order: one
    walk over lists, with an O(r) loop for each center."""
    r = len(diag)
    C = radius2
    z = [0] * r
    step = [0] * r
    dist = [0.0] * r      # accumulated metric from levels above
    center = [0.0] * r
    nodes = 0
    level = r
    new_dist = 0.0
    while True:
        # descend one level: center the new level on the partial point above
        level -= 1
        dist[level] = new_dist
        p = y[level]
        row = rows[level]
        for j in range(level + 1, r):
            p -= row[j] * z[j]
        c = p / diag[level]
        center[level] = c
        zl = round(c)
        z[level] = zl
        step[level] = 1 if c >= zl else -1
        while True:
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"enumeration exceeded {budget} nodes")
            t = (center[level] - z[level]) * diag[level]
            new_dist = dist[level] + t * t
            if new_dist <= C:
                if level > 0:
                    break
                C = leaf(z, new_dist)
                if C is None:
                    return nodes
            else:
                level += 1
                if level == r:
                    return nodes
            # next sibling, zig-zagging outward from the center
            s = step[level]
            z[level] += s
            step[level] = -s - (1 if s > 0 else -1)


def reference_trial_loop(lat, model, alpha, book, trials, seed, decoders,
                         budget, noiseless):
    """The trial loop that one trial at a time samples, transmits and
    decodes: the slow, obviously correct reference for the chunked
    sim._trial_loop.  A constant channel's trials share one LLL decoder; a
    fading trial is prepared on its own, by the stacked QR of a stack of one.
    Returns {decoder: [errors, nodes, budget hits]}."""
    tally = {d: [0, 0, 0] for d in decoders}
    if book is None:
        word = np.zeros((lat.k, lat.n, lat.n), dtype=complex)
    else:
        pick = philox(seed, 0xC0)
    H = dec = None
    for t in range(trials):
        if book is not None:
            idx = int(pick.integers(len(book)))
            word = book.matrices[idx]
        if H is None or model.kind != "constant":
            H = channel.sample(model, lat.k, (seed, t))
            if "lattice" in decoders and model.kind == "constant":
                dec = LatticeDecoder(H, alpha, lat)
        y = channel.transmit(word, H, (seed, t), noiseless=noiseless)
        if "ml" in decoders:
            res = ml_decode(y[None], H[None], book)
            tally["ml"][0] += res.index[0] != idx
            tally["ml"][1] += res.nodes
        if "lattice" in decoders:
            W = (y - H @ word)[None]
            if dec is not None:
                ((ok, nodes),) = dec.decodes_to(W, budget)
            else:
                [[(ok, nodes)]] = faded_decodes_to(H[None], lat,
                                                   [(alpha, np.arange(1), W)],
                                                   budget)
            tally["lattice"][0] += not ok
            tally["lattice"][1] += nodes
            tally["lattice"][2] += ok is None
    return tally


def reference_carve(lat, P, R, trials, seed, budget):
    """The carve of one power with its own shift search at its own radius
    sqrt(Pnk) / alpha: the reference for codebook.carve, which searches one
    radius for a whole SNR grid.  Raises what carve raises or returns at
    this power."""
    n, k = lat.n, lat.k
    if math.isfinite(R) and R * n * k >= int(budget).bit_length():
        raise BudgetExceeded(f"rate {R} exceeds budget {budget}")
    alpha = scaling_alpha(P, R, n, k, lat.volume)
    radius = math.sqrt(P * n * k)
    target = 2 ** math.floor(R * n * k)
    gen = philox(seed, 0xCA)
    best = None
    for _ in range(trials):
        u = lat.point(gen.random(lat.rank))
        count, coords, _ = count_points_in_ball(lat, u, radius / alpha, budget)
        if best is None or count > best[0]:
            best = (count, alpha * u, coords)
    count, shift, coords = best
    if count < target:
        raise CarveFailed(f"best shift packs {count}", best_count=count)
    mats = shift[None, :, :, :] + alpha * lat.points(coords)
    energies = np.sum(np.abs(mats) ** 2, axis=(1, 2, 3))
    keep = energies <= P * n * k
    coords, mats, energies = coords[keep], mats[keep], energies[keep]
    if len(coords) < target:
        raise CarveFailed(f"power filter left {len(coords)}",
                          best_count=int(len(coords)))
    cap = 2 ** (math.ceil(R * n * k) + codebook.TRUNCATE_MARGIN)
    if len(coords) > cap:
        order = np.sort(np.argsort(energies, kind="stable")[:cap])
        coords, mats = coords[order], mats[order]
    return Codebook(lattice=lat, alpha=alpha, shift=shift, rate_target=R,
                    power=P, coords=coords, matrices=mats)


# ---------------------------------------------------------------------------
# Philox4x64-10 one stream key and one lane at a time: the engine that
# multiblock.rng replaced with column-wise key hashing and both lanes in one
# array multiply, kept as the slow, obviously correct reference.

_MASK64 = (1 << 64) - 1
_LOW32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def reference_key(seed, stream):
    """Philox key (seed, hash) of one stream path, the hash folded in Python
    integers modulo 2^64 one index at a time."""
    acc = 0
    for s in stream:
        acc = (acc * 1000003 + int(s) + 1) & _MASK64
    return int(seed) & _MASK64, acc


def _mulhilo(m, x):
    """High and low words of the 128-bit products m * x of uint64s, from
    32-bit halves and one shared middle sum."""
    m_hi, m_lo = m >> _32, m & _LOW32
    x_hi, x_lo = x >> _32, x & _LOW32
    lo_lo, hi_lo, lo_hi = m_lo * x_lo, m_hi * x_lo, m_lo * x_hi
    mid = (lo_lo >> _32) + (hi_lo & _LOW32) + (lo_hi & _LOW32)
    hi = m_hi * x_hi + (hi_lo >> _32) + (lo_hi >> _32) + (mid >> _32)
    return hi, m * x


def reference_words(keys, count):
    """The first `count` outputs of Philox4x64-10 under each row (key0,
    key1) of the uint64 array `keys`, the four words of a block as four
    arrays and the two multiplies of a round as two calls."""
    m0, m1 = np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157)
    w0, w1 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B)
    blocks = -(-count // 4)
    x0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64),
                         (len(keys), blocks))
    x1 = x2 = x3 = np.zeros_like(x0)
    k0, k1 = keys[:, :1], keys[:, 1:]
    for r in range(10):
        if r:
            k0, k1 = k0 + w0, k1 + w1
        hi0, lo0 = _mulhilo(m0, x0)
        hi1, lo1 = _mulhilo(m1, x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    words = np.stack((x0, x1, x2, x3), axis=-1).reshape(len(keys), 4 * blocks)
    return words[:, :count]


# ---------------------------------------------------------------------------
# Exact arithmetic on per-coefficient Fractions: the theta-polynomial route
# that multiblock.numfield replaced with integer numerators over a common
# denominator, kept as the slow, obviously correct reference.

def _poly_trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _poly_trim(out)


def _poly_mod(a, m):
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
    return _poly_trim(a)


def _power_sums(min_poly, upto):
    """Newton power sums p_m = sum of roots^m, m = 0..upto."""
    deg = len(min_poly) - 1
    e = [Fraction((-1) ** i) * Fraction(min_poly[deg - i]) for i in range(deg + 1)]
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


def fraction_det(matrix):
    """Determinant by plain Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        pivot = m[col][col]
        det *= pivot
        for r in range(col + 1, n):
            factor = m[r][col] / pivot
            if factor == 0:
                continue
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


def fraction_solve(matrix, rhs):
    """Solve A x = b over the rationals by Gauss-Jordan on Fractions."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
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


def fraction_inverse(matrix):
    """Inverse of an invertible rational matrix as rows of Fractions, one
    fraction_solve per column."""
    n = len(matrix)
    cols = [fraction_solve(matrix, [int(i == j) for i in range(n)])
            for j in range(n)]
    return [[col[i] for col in cols] for i in range(n)]


def _theta_poly(field, coords):
    n = field.degree
    out = [Fraction(0)] * n
    for w, c in zip(field.basis, coords):
        for i, b in enumerate(w):
            out[i] += b * c
    return _poly_trim(out)


def reference_field_mul(field, a, b):
    """a * b by Fraction theta polynomials: multiply, reduce modulo
    min_poly, and solve for coordinates over the integral basis."""
    n = field.degree
    mp = [Fraction(c) for c in field.min_poly]
    prod = _poly_mod(_poly_mul(_theta_poly(field, a.coords),
                               _theta_poly(field, b.coords)), mp)
    prod = prod + [Fraction(0)] * (n - len(prod))
    basis_cols = [[Fraction(w[i]) if i < len(w) else Fraction(0)
                   for w in field.basis] for i in range(n)]
    return field.element(fraction_solve(basis_cols, prod))


def reference_trace(field, x):
    """Tr(x) from the Fraction theta polynomial and Newton power sums."""
    traces = _power_sums([Fraction(c) for c in field.min_poly], 2 * (field.degree - 1))
    return sum(c * traces[i] for i, c in enumerate(_theta_poly(field, x.coords)))


def reference_discriminant(field):
    """det(Tr(w_i w_j)) from Fraction products and Fraction traces."""
    n = field.degree
    units = [field.element([int(i == j) for j in range(n)]) for i in range(n)]
    gram = [[reference_trace(field, reference_field_mul(field, units[i], units[j]))
             for j in range(n)] for i in range(n)]
    return fraction_det(gram)


def _flat_coords(a):
    """The rational coordinates of an algebra element: those of each center
    coefficient of each of its E-coefficients, in turn."""
    return [q for x in a for c in x for q in c.coords]


def z_basis(order):
    """The z-basis u^j c_i of a natural order, u^0 block first, c_i = e w_a
    the N = n deg(K) elements of the O_E basis: the basis on which the
    order's lattice, coordinates and discriminant are defined, as algebra
    elements."""
    alg = order.algebra
    return tuple(alg._u_times(j, c) for j in range(alg.n) for c in order._cs)


def reference_order_lattice(order):
    """The blocks of `order_lattice(order)` by the per-element route, one
    `witnesses.multiblock_embed` per z-basis element: each entry sigma^c(c_i)
    and gamma sigma^c(c_i) recomputed and re-embedded in every row that
    holds it."""
    return np.array([multiblock_embed(order.algebra, b) for b in z_basis(order)])


def reference_coordinates(order, a):
    """The z-coordinates of the algebra element a over z_basis(order), as
    Fractions, by Gauss-Jordan on the flat rational coordinates of the
    z-basis; a lies in the order iff every one is an integer."""
    cols = [_flat_coords(b) for b in z_basis(order)]
    return fraction_solve([list(row) for row in zip(*cols)], _flat_coords(a))


def reference_z_discriminant(order):
    """det Tr_{K/Q}(Trd(b_i b_j)) over an order's z-basis from all
    r(r+1)/2 algebra products, reference_trace and a Fraction determinant
    (no trace form of the package): the pairwise Gram that
    NaturalOrder.z_discriminant replaced by its closed form d^n
    N_{K/Q}(gamma)^(n(n-1)).  Witnesses that the closed form, with its
    integer denominators, is the determinant of the reduced-trace form, the
    order discriminant on which the paper's gap to capacity depends."""
    alg, K = order.algebra, order.algebra.center
    basis = z_basis(order)
    r = len(basis)
    gram = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            val = reference_trace(K, alg.reduced_trace(alg.product(basis[i], basis[j])[0]))
            gram[i][j] = gram[j][i] = val
    return fraction_det(gram)


def reference_gauss_markov_capacity(model, P, samples, seed):
    """ratecalc.ergodic_capacity_mc on a correlated model as it drew its
    chains, one `channel.sample` at a time: the reference for the stacked
    draw.  Each chain's log-dets are ratecalc's own `_log2det_hpd`, so the
    reference pins the stacking, not the elimination.  Returns (estimate,
    standard error)."""
    n = model.n
    chains = max(8, min(64, samples // 64))
    length = max(1, samples // chains)
    means = []
    for c in range(chains):
        H = channel.sample(model, length, (seed, c))
        grams = np.eye(n) + (P / n) * (H.conj().swapaxes(1, 2) @ H)
        means.append(ratecalc._log2det_hpd(grams).mean())
    means = np.array(means)
    return float(means.mean()), float(means.std(ddof=1) / math.sqrt(chains))


def reference_logdet_statistic(H):
    """channel.logdet_statistic by the Gram route: (1/k) sum_i log2 det of
    H_i^dag H_i when n_r >= n, else of H_i H_i^dag, each by slogdet.  The
    reference for the singular-value route; it checks no rank."""
    k, n_r, n = H.shape
    Hh = H.conj().swapaxes(1, 2)
    grams = Hh @ H if n_r >= n else H @ Hh
    _, logdets = np.linalg.slogdet(grams)
    return float(np.sum(logdets) / math.log(2.0) / k)
