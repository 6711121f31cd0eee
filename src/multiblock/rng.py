"""Counter-based reproducible random streams.

Every stochastic routine in the package derives its stream from
(seed, *indices) through Philox4x64-10 (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11), so identical configurations reproduce
bit-identical runs and independent trials can be generated independently.
Philox is a pure function of (key, counter), so `complex_gaussian_streams`
computes the draws of many streams at once, as array arithmetic over their
keys and counters; each stream's draws are still the pure function of
(seed, *indices), bit for bit those of `philox(seed, *indices)`.
"""

import numpy as np

_MASK = (1 << 64) - 1

# Philox4x64-10 as numpy's Philox runs it: two multipliers, two Weyl
# increments added to the key between rounds, and the first block of a
# fresh generator at counter 1.
_M0, _M1 = np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157)
_W0, _W1 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B)
_ROUNDS = 10
_LOW32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _key(seed, stream):
    acc = 0
    for s in stream:
        acc = (acc * 1000003 + int(s) + 1) & _MASK
    return int(seed) & _MASK, acc


def philox(seed, *stream):
    """Generator on an independent Philox stream keyed by (seed, stream)."""
    key = np.array(_key(seed, stream), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _box_muller(u1, u2):
    """Box-Muller of u1 in (0, 1] and u2 in [0, 1)."""
    return np.sqrt(-np.log(u1)) * np.exp(2j * np.pi * u2)


def complex_gaussian(gen, shape):
    """Circular symmetric complex Gaussian, unit variance per complex
    dimension, via the Box-Muller transform on uniforms."""
    u1 = 1.0 - gen.random(shape)  # (0, 1]
    return _box_muller(u1, gen.random(shape))


def _mulhilo(m, x):
    """High and low words of the 128-bit products m * x of uint64s, from
    32-bit halves."""
    m_hi, m_lo = m >> _32, m & _LOW32
    x_hi, x_lo = x >> _32, x & _LOW32
    lo_lo, hi_lo, lo_hi = m_lo * x_lo, m_hi * x_lo, m_lo * x_hi
    mid = (lo_lo >> _32) + (hi_lo & _LOW32) + (lo_hi & _LOW32)
    hi = m_hi * x_hi + (hi_lo >> _32) + (lo_hi >> _32) + (mid >> _32)
    return hi, m * x


def _words(keys, count):
    """The first `count` 64-bit outputs of Philox4x64-10 under each row
    (key0, key1) of the uint64 array `keys`: shape (len(keys), count)."""
    blocks = -(-count // 4)
    x0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64),
                         (len(keys), blocks))
    x1 = x2 = x3 = np.zeros_like(x0)
    k0, k1 = keys[:, :1], keys[:, 1:]
    for r in range(_ROUNDS):
        if r:
            k0, k1 = k0 + _W0, k1 + _W1
        hi0, lo0 = _mulhilo(_M0, x0)
        hi1, lo1 = _mulhilo(_M1, x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    words = np.stack((x0, x1, x2, x3), axis=-1).reshape(len(keys), 4 * blocks)
    return words[:, :count]


def complex_gaussian_streams(seed, streams, shape):
    """complex_gaussian(philox(seed, *s), shape) for every stream path s in
    `streams`, stacked into an array of shape (len(streams),) + shape, with
    the same bits."""
    shape = tuple(int(d) for d in np.atleast_1d(shape))
    m = int(np.prod(shape))
    keys = np.array([_key(seed, s) for s in streams],
                    dtype=np.uint64).reshape(len(streams), 2)
    # a double is the top 53 bits of a word; the first m make u1, the next m u2
    u = (_words(keys, 2 * m) >> np.uint64(11)) * (1.0 / 9007199254740992.0)
    full = (len(streams),) + shape
    return _box_muller(1.0 - u[:, :m].reshape(full), u[:, m:].reshape(full))
