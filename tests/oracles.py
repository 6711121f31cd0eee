"""Test-side brute-force oracles, deliberately independent of the package's
enumeration machinery."""

import itertools

import numpy as np

from multiblock.lattice import LLL_DELTA, LLL_ETA


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
    r = B.shape[0]
    pinv = np.linalg.pinv(B.T)          # maps ambient -> coordinates
    z_ls = pinv @ t
    z_babai = np.rint(z_ls)
    r0 = np.linalg.norm(z_babai @ B - t)
    # per-coordinate containment: |z_i - z_ls_i| <= r0 * ||row_i(pinv)||
    widths = r0 * np.linalg.norm(pinv, axis=1) + 1e-9
    ranges = [range(int(np.ceil(z - w)), int(np.floor(z + w)) + 1)
              for z, w in zip(z_ls, widths)]
    best = (float("inf"), None)
    chunk = []
    for cand in itertools.product(*ranges):
        chunk.append(cand)
        if len(chunk) == 65536:
            best = _scan(np.array(chunk), B, t, best)
            chunk = []
    if chunk:
        best = _scan(np.array(chunk), B, t, best)
    assert best[1] is not None
    return best


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
