"""Property tests for the batched Philox streams.

rng.complex_gaussian_streams draws many streams at once, from array
arithmetic on their keys and counters; every stream must be bit for bit the
scalar complex_gaussian(philox(seed, *path), shape).  The keys hashed by
column and the words of both lanes in one array must be bit for bit those of
the one-key, one-lane references in tests/oracles.py and of numpy's own
Philox, also at the shapes the commands draw, where the engine's peak
memory must stay within the figure the trial loop sizes its chunks by.
The squared norm of a stream's draws, read from its radius words
alone, must be that of the drawn complex Gaussians to within a few ulps.
The WER drivers draw the codeword picks of a run chunk by chunk
from one generator; the concatenated chunks must be the draws of one trial
at a time.  Hypothesis runs derandomized, so every process draws the same
examples.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiblock import rng, sim
from multiblock.rng import complex_gaussian, complex_gaussian_streams, philox
from oracles import reference_key, reference_words

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)
SEEDS = st.integers(0, 2 ** 64 - 1)


INDEX_MAX = 2 ** 63 - 1


@st.composite
def stream_paths(draw):
    """Paths of one length in 1..4 (a tag and fixed indices, then a running
    index), over an index range that need not start at 0 and may end at
    2^63 - 1."""
    length = draw(st.integers(1, 4))
    head = tuple(draw(st.integers(0, INDEX_MAX)) for _ in range(length - 1))
    count = draw(st.integers(1, 48))
    start = draw(st.integers(0, 2 ** 32) | st.just(INDEX_MAX + 1 - count))
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
    keys = rng._keys(seed, np.array(paths))
    assert keys.dtype == np.uint64
    assert keys.tolist() == [list(reference_key(seed, p)) for p in paths]
    assert np.array_equal(rng._keys(seed, paths), keys)
    words = rng._words(keys, count)
    assert np.array_equal(words, reference_words(keys, count))
    raw = np.stack([philox(seed, *p).bit_generator.random_raw(count)
                    for p in paths])
    assert np.array_equal(words, raw)


@pytest.mark.parametrize("streams, count", [
    (1500, 8), (111, 16), (2016, 8), (1, 40000)])
def test_philox_words_at_the_commands_shapes_equal_numpy_philox(streams,
                                                                count):
    # a certification chunk's radius words, a search batch's noise, a full
    # certification chunk and one long stream
    keys = rng._keys(1729, np.arange(streams)[:, None])
    words = rng._words(keys, count)
    assert np.array_equal(words, reference_words(keys, count))
    raw = np.stack([philox(1729, t).bit_generator.random_raw(count)
                    for t in range(streams)])
    assert np.array_equal(words, raw)


def test_a_philox_draw_peaks_within_the_chunks_figure():
    # by tracemalloc, at a certification chunk's 1,500 x 8 words
    keys = rng._keys(1729, np.arange(1500)[:, None])
    rng._words(keys, 8)
    tracemalloc.start()
    try:
        rng._words(keys, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sim.DRAW_WORDS * 8 * 1500 * 8


@pytest.mark.parametrize("count", [1, 4, 33])
def test_an_empty_stack_has_no_keys_and_no_words(count):
    keys = rng._keys(3, np.zeros((0, 2), dtype=np.int64))
    assert keys.shape == (0, 2) and keys.dtype == np.uint64
    assert rng._keys(3, []).shape == (0, 2)
    assert rng._words(keys, count).shape == (0, count)
    assert reference_words(keys, count).shape == (0, count)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 16])
@PROPERTY
@given(seed=SEEDS, paths=stream_paths())
def test_energies_are_the_squared_norms_of_the_streams_draws(m, seed, paths):
    # read from the radius words alone, within a few ulps of sum |z|^2
    z = complex_gaussian_streams(seed, paths, (m,))
    direct = np.sum(np.abs(z) ** 2, axis=1)
    energies = rng.gaussian_energies(seed, paths, m)
    assert energies.shape == (len(paths),)
    assert np.all(np.abs(energies - direct) <= 1e-14 * direct)


def test_no_streams_have_an_empty_stack_of_energies():
    assert rng.gaussian_energies(5, [], 4).shape == (0,)
    assert rng.gaussian_energies(5, np.zeros((0, 2), dtype=np.int64),
                                 1).shape == (0,)


@PROPERTY
@given(SEEDS)
def test_an_empty_path_keys_like_numpy_philox_on_the_seed_alone(seed):
    assert rng._keys(seed, [()]).tolist() == [[seed, 0]]
    key = np.array([seed, 0], dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw(5)
    assert np.array_equal(philox(seed).bit_generator.random_raw(5), raw)


@pytest.mark.parametrize("paths", [
    [(-1,)],
    [(0, 2 ** 63)],
    [(2 ** 64 - 1,)],
    [(2 ** 64,)],
    [(3,), (-2 ** 70,)],
    np.array([[7, -1]]),
    np.array([[2 ** 63]], dtype=np.uint64),
    [(1.5,)],
    np.array([[1.0]]),
    [("a",)],
    [(True,)],
    np.array([1, 2]),
])
def test_a_path_index_outside_0_to_2_63_or_not_an_integer_is_refused(paths):
    with pytest.raises(ValueError, match=r"integers in \[0, 2\^63\)"):
        rng._keys(5, paths)
    with pytest.raises(ValueError, match=r"integers in \[0, 2\^63\)"):
        rng.gaussian_energies(5, paths, 3)


def test_philox_refuses_a_path_index_outside_its_domain():
    with pytest.raises(ValueError, match="2\\^63"):
        philox(5, -1)
    with pytest.raises(ValueError, match="2\\^63"):
        philox(5, 0xC0, 2 ** 63)


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
