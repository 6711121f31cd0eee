"""Counter-based reproducible random streams.

Every stochastic routine in the package derives its stream from
(seed, *indices) through Philox4x64-10 (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11), so identical configurations reproduce
bit-identical runs and independent trials can be generated independently.
A stream path (the indices) is a row of an integer array, each index in
[0, 2^63); its key is a hash of the path's columns.  Philox is a pure
function of (key, counter), so `complex_gaussian_streams` computes the draws
of many streams at once, as array arithmetic over their keys and counters;
each stream's draws are still the pure function of (seed, *indices), bit
for bit those of `philox(seed, *indices)`; the rounds run in place.
`gaussian_energies` reads the squared norm of a stream's draws from its
radius words alone.
"""

import numpy as np

_MASK = (1 << 64) - 1

# Philox4x64-10 as numpy's Philox runs it: two multipliers, two Weyl
# increments added to the key between rounds, and the first block of a
# fresh generator at counter 1.  Lane 0 multiplies x0, lane 1 multiplies x2.
_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157],
              dtype=np.uint64).reshape(2, 1, 1)
_W0, _W1 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B)
_ROUNDS = 10
_LOW32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_HASH, _ONE = np.uint64(1000003), np.uint64(1)


def _keys(seed, paths):
    """Philox keys (seed, hash of the path), a uint64 array (S, 2), of the
    stream paths: the rows of the integer array `paths` (S, L), into which
    a list of equal-length tuples converts.  The hash runs over the columns
    in wrapping uint64 arithmetic, acc * 1000003 + index + 1.  ValueError
    for an index that is not an integer in [0, 2^63)."""
    paths = np.asarray(paths)
    if paths.size == 0:
        paths = np.zeros((len(paths), 0), dtype=np.int64)
    elif (paths.ndim != 2 or paths.dtype.kind not in "iu"
            or int(paths.min()) < 0 or int(paths.max()) >= 1 << 63):
        raise ValueError("stream path indices must be integers in [0, 2^63)")
    acc = np.zeros(len(paths), dtype=np.uint64)
    for col in paths.T.astype(np.uint64):
        acc = acc * _HASH + col + _ONE
    keys = np.empty((len(paths), 2), dtype=np.uint64)
    keys[:, 0], keys[:, 1] = int(seed) & _MASK, acc
    return keys


def philox(seed, *stream):
    """Generator on an independent Philox stream keyed by (seed, stream)."""
    return np.random.Generator(np.random.Philox(key=_keys(seed, [stream])[0]))


def _box_muller(u1, u2):
    """Box-Muller of u1 in (0, 1] and u2 in [0, 1)."""
    return np.sqrt(-np.log(u1)) * np.exp(2j * np.pi * u2)


def complex_gaussian(gen, shape):
    """Circular symmetric complex Gaussian, unit variance per complex
    dimension, via the Box-Muller transform on uniforms."""
    u1 = 1.0 - gen.random(shape)  # (0, 1]
    return _box_muller(u1, gen.random(shape))


def _rounds(keys, blocks):
    """Philox's rounds on every stream's first `blocks` blocks: the state
    (a, b), a holding (x0, x2) and b (x1, x3), each (2, blocks, streams).
    M, its halves and the round keys are full arrays of that shape (numpy
    copies a broadcast operand), and each step writes out= into buffers
    allocated once per call.  Lanes swap by reversing two operands, one
    the output, with no copy."""
    shape = (2, blocks, len(keys))
    a, b = np.zeros(shape, dtype=np.uint64), np.zeros(shape, dtype=np.uint64)
    a[0] = np.arange(1, blocks + 1, dtype=np.uint64)[:, None]
    lo, m, m_hi, m_lo, k, hi, al, u, v = (
        np.empty(shape, dtype=np.uint64) for _ in range(9))
    m[:] = _M
    np.right_shift(m, _32, out=m_hi)
    np.bitwise_and(m, _LOW32, out=m_lo)
    k[:] = keys.T[:, None, :]
    for _ in range(_ROUNDS):
        # the 128-bit products M a from 32-bit halves, high word by carries
        np.right_shift(a, _32, out=hi)
        np.bitwise_and(a, _LOW32, out=al)
        np.multiply(m_lo, al, out=v)
        v >>= _32
        np.multiply(m_hi, al, out=u)
        u += v
        np.multiply(m_lo, hi, out=v)
        np.bitwise_and(u, _LOW32, out=al)
        v += al
        hi *= m_hi
        u >>= _32
        hi += u
        v >>= _32
        hi += v
        # new a = hi[::-1] ^ b ^ k and new b = (M a)[::-1]
        np.multiply(m[::-1], a[::-1], out=lo)
        np.bitwise_xor(hi, b[::-1], out=a[::-1])
        a ^= k
        b, lo = lo, b
        # the key of round r is key + r * W
        k[0] += _W0
        k[1] += _W1
    return a, b


def _words(keys, count):
    """The first `count` 64-bit outputs of Philox4x64-10 under each row
    (key0, key1) of the uint64 array `keys`: shape (len(keys), count).
    The rounds' buffers, 5.5 words per word drawn, are freed first."""
    blocks = -(-count // 4)
    a, b = _rounds(keys, blocks)
    # word 4 j + i of a stream is x_i of its block j
    words = np.empty((len(keys), blocks, 4), dtype=np.uint64)
    words[:, :, 0::2] = a.transpose(2, 1, 0)
    words[:, :, 1::2] = b.transpose(2, 1, 0)
    return words.reshape(len(keys), 4 * blocks)[:, :count]


def _uniforms(keys, count):
    """The first `count` doubles in [0, 1) of each key's stream: a double is
    the top 53 bits of a word."""
    return (_words(keys, count) >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def complex_gaussian_streams(seed, streams, shape):
    """complex_gaussian(philox(seed, *s), shape) for every stream path s,
    a row of `streams`, stacked into an array of shape (len(streams),) +
    shape, with the same bits."""
    shape = tuple(int(d) for d in np.atleast_1d(shape))
    m = int(np.prod(shape))
    # the first m doubles make u1, the next m u2
    u = _uniforms(_keys(seed, streams), 2 * m)
    full = (len(u),) + shape
    return _box_muller(1.0 - u[:, :m].reshape(full), u[:, m:].reshape(full))


def gaussian_energies(seed, streams, m):
    """The squared norm of the first m draws of each stream path s, a row of
    `streams`: sum |z|^2 of complex_gaussian_streams(seed, streams, shape)
    for any shape of m entries, as an array (len(streams),).  Box-Muller
    gives |z|^2 = -ln u1 whatever the angle (Box and Muller 1958), so only
    the stream's first m words, its radii, are drawn; each float |z|^2 is
    -ln u1 to within a few ulps (a rounded sqrt squared, times the squared
    modulus of a rounded unit exponential), and a sum of positive terms
    keeps that relative error."""
    return -np.log(1.0 - _uniforms(_keys(seed, streams), m)).sum(axis=1)
