"""Property tests for the batched Philox streams.

rng.complex_gaussian_streams draws many streams at once, from array
arithmetic on their keys and counters; every stream must be bit for bit the
scalar complex_gaussian(philox(seed, *path), shape).  The WER drivers draw the
codeword picks of a run chunk by chunk from one generator; the concatenated
chunks must be the draws of one trial at a time.  Hypothesis runs
derandomized, so every process draws the same examples.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiblock import rng
from multiblock.rng import complex_gaussian, complex_gaussian_streams, philox

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)
SEEDS = st.integers(0, 2 ** 64 - 1)


@st.composite
def stream_paths(draw):
    """Paths of one length in 1..3 (a tag and fixed indices, then a running
    index), over an index range that need not start at 0."""
    length = draw(st.integers(1, 3))
    head = (draw(st.integers(0, 2 ** 16)),
            draw(st.integers(0, 2 ** 40)))[:length - 1]
    start = draw(st.integers(0, 2 ** 32))
    count = draw(st.integers(1, 48))
    return [head + (t,) for t in range(start, start + count)]


SHAPES = st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(
    lambda dims: math.prod(dims) <= 16).map(tuple)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@PROPERTY
@given(SEEDS, stream_paths(), SHAPES)
def test_batched_streams_equal_scalar_philox(seed, paths, shape):
    scalar = np.stack([complex_gaussian(philox(seed, *p), shape) for p in paths])
    batched = complex_gaussian_streams(seed, paths, shape)
    assert batched.shape == (len(paths),) + shape
    assert np.array_equal(bits(batched), bits(scalar))


@pytest.mark.parametrize("shape", [(2, 3), (1,), (0,)])
def test_no_streams_draw_an_empty_stack(shape):
    empty = complex_gaussian_streams(5, [], shape)
    assert empty.shape == (0,) + shape and empty.dtype == complex


@PROPERTY
@given(SEEDS, stream_paths(), st.integers(1, 33))
def test_philox_words_equal_numpy_philox(seed, paths, count):
    keys = np.array([rng._key(seed, p) for p in paths], dtype=np.uint64)
    raw = np.stack([philox(seed, *p).bit_generator.random_raw(count)
                    for p in paths])
    assert np.array_equal(rng._words(keys, count), raw)


@PROPERTY
@given(SEEDS, st.integers(1, 2 ** 20), st.integers(1, 300),
       st.integers(1, 64))
def test_pick_stream_in_chunks_equals_one_draw_per_trial(seed, m, trials, chunk):
    gen = philox(seed, 0xC0)
    scalar = [int(gen.integers(m)) for _ in range(trials)]
    gen = philox(seed, 0xC0)
    chunked = np.concatenate([gen.integers(m, size=min(chunk, trials - start))
                              for start in range(0, trials, chunk)])
    assert chunked.tolist() == scalar
