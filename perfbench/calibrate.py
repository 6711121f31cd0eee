"""A fixed reference computation that measures how fast the host runs right now.

On a shared host the speed available to one process swings by up to a factor
of two within seconds, in CPU time as much as in wall time, so raw seconds
from runs minutes apart are not comparable.  The worker times this kernel
before and after every command of a workload and scales the command's
seconds by REFERENCE_S / (mean kernel seconds around it): a command that ran
while the host was slow is brought back to the host's reference speed.

The kernel uses no code of the program under test, so a change to the
program moves the workload's seconds and not the kernel's; it mixes the same
kinds of work as the program (pure-Python float loops, numpy calls on short
vectors, exact rational arithmetic), because the host's slowdowns do not hit
every kind of work alike.  Its inputs are fixed, so it does the same work in
every run.
"""

import random
import time
from fractions import Fraction

import numpy as np

# Seconds one call of kernel() takes at the reference speed: one thread of a
# shared 2-core Intel Xeon host in its faster state, Python 3.11, numpy 2.4.
REFERENCE_S = 0.03

_rnd = random.Random(20240601)
_DIM = 8
_BASIS = np.array([[_rnd.randint(-9, 9) for _ in range(_DIM)] for _ in range(_DIM)],
                  dtype=float) + 10.0 * np.eye(_DIM)
_POINTS = [[_rnd.gauss(0.0, 1.0) for _ in range(_DIM)] for _ in range(60)]
_RATIONAL = [[Fraction(_rnd.randint(-20, 20), _rnd.randint(1, 9)) for _ in range(6)]
             for _ in range(6)]


def _numpy_rows(b):
    # Gram-Schmidt over rows, one short-vector numpy call at a time
    ortho = np.zeros_like(b)
    norms = np.zeros(len(b))
    for i in range(len(b)):
        v = b[i].copy()
        for j in range(i):
            v -= ((b[i] @ ortho[j]) / norms[j]) * ortho[j]
        ortho[i] = v
        norms[i] = v @ v
    return float(norms.sum())


def _python_floats(points):
    # nearest-integer search in pure Python lists
    acc = 0.0
    for p in points:
        for q in points:
            s = 0.0
            for a, b in zip(p, q):
                t = a - b - round(a - b)
                s += t * t
            acc += s
    return acc


def _fractions(m):
    # exact determinant by fraction-valued elimination
    m = [row[:] for row in m]
    det = Fraction(1)
    for i in range(len(m)):
        piv = next((r for r in range(i, len(m)) if m[r][i] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, len(m)):
            f = m[r][i] / m[i][i]
            m[r] = [x - f * y for x, y in zip(m[r], m[i])]
    return det


def kernel():
    """One fixed unit of reference work; returns a checksum."""
    acc = 0.0
    for _ in range(80):
        acc += _numpy_rows(_BASIS)
    for _ in range(2):
        acc += _python_floats(_POINTS)
    for _ in range(40):
        acc += float(_fractions(_RATIONAL))
    return acc


def time_kernel():
    """Seconds one call of kernel() takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scaled(seconds, kernel_s):
    """`seconds` measured while the kernel took `kernel_s`, at the reference
    speed."""
    return seconds * REFERENCE_S / kernel_s
