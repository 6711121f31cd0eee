"""The generated Schnorr-Euchner walk, and the zero-path descent that
decides a batch of searches without it, against the reference walk.

`lattice._enumerate` runs a walk generated and compiled once per rank;
`oracles.reference_enumerate` is the list-based loop it replaces.  Both
must visit the same nodes, call the leaf rule with the same leaves and
metrics, and stop or run out of budget at the same node: on every search
that two digest command lines make, and on Hypothesis factors of ranks
1-40, whose walks above rank 16 run in nested segments.  Every search that
`lattice.zero_path` decides must be one whose walk finds no closer point in
exactly 2 r - 1 nodes: on the same factors, and on every search of four
command lines.
"""

import contextlib
import io
import math
import os
import subprocess
import sys
import textwrap
import tokenize
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multiblock import cli, decoder, lattice, sim
from multiblock.cyclic_algebra import NaturalOrder, order_lattice
from multiblock.errors import BudgetExceeded
from multiblock.rng import philox

from oracles import reference_enumerate

WALKS = {"generated": lattice._enumerate, "reference": reference_enumerate}


def _logged(leaf):
    """leaf, and the list of (z, metric, returned radius) of its calls."""
    log = []

    def logging_leaf(z, metric):
        out = leaf(z, metric)
        log.append((tuple(z), metric, out))
        return out
    return logging_leaf, log


def _run(walk, rows, diag, y, radius2, budget, leaf):
    """(nodes or "budget", leaf log) of one walk under a leaf rule."""
    leaf, log = _logged(leaf)
    try:
        return walk(rows, diag, y, radius2, budget, leaf), log
    except BudgetExceeded:
        return "budget", log


# ---------------------------------------------------------------------------
# replayed searches

# The W1 and W3 digest command lines at the smallest trial counts that still
# make an `exists_closer` walk (W1 also carves its codebook by `ball`): the
# zero-path descent decides W3's first 2,333 searched trials
REPLAYED = {
    "W1": "simulate --algebra golden --model iid_rayleigh --nr 2 --snr-db "
          "8,12,16 --rate 1 --trials 1 --seed 7",
    "W3": "simulate --field cyclo32 --model constant --snr-db 20 --rate 3.74 "
          "--trials 2334 --seed 1729 --decoder lattice --infinite",
}
# leaf rules whose returned radius depends only on (z, metric), so that a
# recorded search can be replayed with its own leaf
STATELESS_RULES = {"PreparedCVP.exists_closer.<locals>.leaf",
                   "PreparedCVP.ball.<locals>.leaf"}


@pytest.mark.parametrize("name", sorted(REPLAYED))
def test_replayed_searches_match_reference(name, monkeypatch):
    calls = []
    dispatch = lattice._enumerate

    def record(rows, diag, y, radius2, budget, leaf):
        logging_leaf, log = _logged(leaf)
        nodes = dispatch(rows, diag, y, radius2, budget, logging_leaf)
        calls.append((rows, diag, list(y), radius2, budget, leaf, nodes, log))
        return nodes
    monkeypatch.setattr(lattice, "_enumerate", record)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(REPLAYED[name].split()) == 0
    monkeypatch.undo()

    rules = {call[5].__qualname__ for call in calls}
    assert rules <= STATELESS_RULES
    assert "PreparedCVP.exists_closer.<locals>.leaf" in rules
    for rows, diag, y, radius2, budget, leaf, nodes, log in calls:
        for walk in WALKS.values():
            assert _run(walk, rows, diag, y, radius2, budget, leaf) == (nodes, log)


# Command lines whose searches the descent decides in part: (line, searches
# it decides, searches)
DESCENT_REPLAYED = {
    "W1": ("simulate --algebra golden --model iid_rayleigh --nr 2 --snr-db "
           "8,12,16 --rate 1 --trials 2000 --seed 7", 401, 1799),
    "W3": ("simulate --field cyclo32 --model constant --snr-db 20 --rate 3.74 "
           "--trials 1500 --seed 1729 --decoder lattice --infinite", 111, 111),
    "Z": ("simulate --algebra zeta20 --model iid_rayleigh --nr 2 --snr-db 6,10 "
          "--rate 1 --trials 1000 --seed 1 --decoder lattice --infinite",
          482, 1988),
    "cyclo8": ("simulate --field cyclo8 --model constant --snr-db 4,8,12 "
               "--rate 1 --trials 3000 --seed 5 --decoder lattice --infinite",
               759, 2174),
}


@pytest.mark.parametrize("name", sorted(DESCENT_REPLAYED))
def test_replayed_descents_decide_as_the_walk(name, monkeypatch):
    # each `lattice_decisions` call of the command, replayed with a descent
    # that decides nothing, walks every search to the same outcomes and
    # node counts
    line, want_decided, want_searches = DESCENT_REPLAYED[name]
    decide, descend = sim.lattice_decisions, decoder.zero_path
    decided = []

    def counting(*args):
        decided.append(descend(*args))
        return decided[-1]

    def deciding_nothing(Y, diag, thr, budget):
        return np.zeros(len(Y), dtype=bool)

    def replaying(*args):
        got = decide(*args)
        monkeypatch.setattr(decoder, "zero_path", deciding_nothing)
        assert decide(*args) == got
        monkeypatch.setattr(decoder, "zero_path", counting)
        return got

    monkeypatch.setattr(decoder, "zero_path", counting)
    monkeypatch.setattr(sim, "lattice_decisions", replaying)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(line.split()) == 0
    assert sum(int(d.sum()) for d in decided) == want_decided
    assert sum(len(d) for d in decided) == want_searches


# ---------------------------------------------------------------------------
# Hypothesis factors of ranks 1-40

@st.composite
def triangular_factors(draw):
    """(rows, diag, y) of an upper triangular R with diagonal in [0.7, 1.6]
    and entries above it in [-0.5, 0.5], and a target y, as lists: factors
    whose walks stay small up to rank 40.  Wider than `full_rank_bases`
    (test_lll_properties.py), which stops at rank 10."""
    r = draw(st.integers(1, 40))
    upper = draw(arrays(np.float64, (r, r), elements=st.floats(-0.5, 0.5)))
    diag = draw(arrays(np.float64, r, elements=st.floats(0.7, 1.6)))
    y = draw(arrays(np.float64, r, elements=st.floats(-4.0, 4.0)))
    R = np.triu(upper, 1) + np.diag(diag)
    return R.tolist(), diag.tolist(), y.tolist()


def _fixed_factors(r, seed):
    gen = philox(seed, 0xA2)
    R = np.triu(gen.uniform(-0.5, 0.5, (r, r)), 1) + np.diag(gen.uniform(0.7, 1.6, r))
    return R.tolist(), np.diag(R).tolist(), gen.uniform(-4.0, 4.0, r).tolist()


def _least_leaf(radius2, nonzero):
    return lattice._least_leaf(radius2, nonzero)[0]


def _rules(diag, y):
    """(name, radius2, leaf factory) of each leaf rule the package uses: a
    ball, the least leaf from infinity (`closest`), the least nonzero leaf
    (`shortest`'s rule, here from ||y||^2) and the first nonzero leaf
    (`exists_closer`)."""
    y2 = math.fsum(v * v for v in y)
    ball2 = math.fsum(d * d for d in diag) / 16

    def first_nonzero(z, metric):
        return None if any(z) else y2
    return [("ball", ball2, lambda: (lambda z, metric: ball2)),
            ("least", math.inf, lambda: _least_leaf(math.inf, False)),
            ("least nonzero", y2, lambda: _least_leaf(y2, True)),
            ("first nonzero", y2, lambda: first_nonzero)]


def assert_walks_agree(rows, diag, y, budget_fraction=0.5):
    r = len(diag)
    for name, radius2, rule in _rules(diag, y):
        runs = [_run(walk, rows, diag, y, radius2, 10 ** 8, rule())
                for walk in WALKS.values()]
        assert runs[0] == runs[1], name
        nodes = runs[0][0]
        # a budget cut inside the walk and one at its last node
        cuts = {max(int(budget_fraction * nodes), 1), nodes - 1}
        for budget in sorted(cuts):
            cut = [_run(walk, rows, diag, y, radius2, budget, rule())
                   for walk in WALKS.values()]
            assert cut[0] == cut[1], (name, budget)
            assert cut[0][0] == ("budget" if budget < nodes else nodes)
    for walk in WALKS.values():
        # from infinity the first descent passes every level, so node r is
        # the first leaf: a budget of r - 1 raises before any leaf and a
        # budget of r just after the first, so the walk stops at node
        # budget + 1, in the lowest segment above rank 16
        assert _run(walk, rows, diag, y, math.inf, r - 1,
                    _least_leaf(math.inf, False)) == ("budget", [])
        raised, log = _run(walk, rows, diag, y, math.inf, r,
                           _least_leaf(math.inf, False))
        assert raised == "budget" and len(log) == 1


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(triangular_factors(), st.floats(0.05, 0.95))
@example(_fixed_factors(17, 17), 0.5)
@example(_fixed_factors(33, 33), 0.9)
@example(_fixed_factors(40, 40), 0.1)
def test_generated_walk_matches_reference(factors, budget_fraction):
    assert_walks_agree(*factors, budget_fraction=budget_fraction)


def test_walk_matches_reference_on_degree_three_algebra(cube2):
    # rank 18: two levels in the top segment, sixteen in the one below
    lat = order_lattice(NaturalOrder(cube2))
    assert lat.rank == 18
    gen = philox(18, 0xA1)
    for target in gen.standard_normal((3, lat.real_basis.shape[1])):
        y, _ = lat.cvp.project(target)
        assert_walks_agree(lat.cvp._rows, lat.cvp._diag, y.tolist())


# ---------------------------------------------------------------------------
# the zero-path descent against the reference walk

def _closer_walk(rows, diag, y, thr, budget):
    """(found, nodes) of `exists_closer`'s search under threshold thr, on
    the reference walk; "budget" when the walk runs out."""
    found = []

    def leaf(z, metric):
        found.append(any(z))
        return None if found[-1] else thr
    try:
        nodes = reference_enumerate(rows, diag, y, thr, budget, leaf)
    except BudgetExceeded:
        return "budget"
    return any(found), nodes


def _descend(Y, diag, budget):
    """The thresholds of the targets Y and the descent's decisions on them,
    with the one diagonal shared and as one row per target, which must
    agree; a numpy warning fails the test."""
    Y = np.array(Y, dtype=float).reshape(len(Y), len(diag))
    thr = lattice.closer_thresholds(Y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decided = lattice.zero_path(Y, np.array(diag), thr, budget)
        per_row = lattice.zero_path(Y, np.tile(diag, (len(Y), 1)), thr,
                                    budget)
    assert decided.tolist() == per_row.tolist()
    return thr, decided.tolist()


def assert_descent_is_the_walk(rows, diag, y):
    """Every target the descent decides is one whose walk finds no closer
    point in exactly 2 r - 1 nodes; y = 0, centers tied at +-0.5 above
    level 0, a top center just past 0.5, targets whose squares overflow and
    every target under a budget below 2 r - 1 go to the walk, and a small
    target near 0 does not."""
    r = len(diag)
    small = [0.01 * d for d in diag]
    ties = [0.1 * diag[0]] + [(-0.5 if l % 2 else 0.5) * diag[l]
                              for l in range(1, r)]
    past = small[:-1] + [0.55 * diag[-1]]
    far = [1e160 * (v + 5.0) for v in y]     # each square overflows
    targets = [y, [0.01 * v for v in y], small, [0.0] * r, ties, past, far]
    thr, decided = _descend(targets, diag, 10 ** 8)
    assert decided[2]
    assert not decided[3]
    assert not decided[4] or r == 1
    assert not decided[5] and not decided[6]
    for target, th, done in zip(targets, thr, decided):
        if done:
            assert _closer_walk(rows, diag, target, th, 10 ** 8) == \
                (False, 2 * r - 1)
    _, decided = _descend(targets, diag, 2 * r - 2)
    assert not any(decided)
    assert _closer_walk(rows, diag, small, thr[2], 2 * r - 2) == "budget"


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(triangular_factors())
@example(_fixed_factors(17, 17))
@example(_fixed_factors(40, 40))
def test_zero_path_decides_only_searches_the_walk_ends_at_once(factors):
    assert_descent_is_the_walk(*factors)


# near sqrt(max double) = 1.34e154 a square overflows; two squares above
# max / 2 are finite and their sum is not
BIG = st.sampled_from([1.0e154, 1.2e154, 1.3e154, 1.34e154, 1.35e154,
                       1e200, 1.7e308])


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(st.lists(st.one_of(st.floats(allow_nan=False,
                                             allow_infinity=False),
                                   BIG, BIG.map(lambda v: -v)),
                         min_size=4, max_size=4),
                min_size=1, max_size=6))
@example([[1.3e154, 1.3e154, 0.0, 0.0]])        # fsum refuses: inf
@example([[1.35e154, 0.0, 0.0, 0.0]])           # the square is inf
@example([[1e-200, 1e-200, 1.0, -0.0]])         # underflowing squares
def test_thresholds_from_one_array_are_the_per_element_form(rows):
    # Y * Y holds, bit for bit, Python's products y_i * y_i, so fsum over
    # its rows gives each target's threshold as fsum over a generator of
    # squares did, overflow to inf included, and numpy warns of nothing
    def per_element(y):
        try:
            norm2 = math.fsum(v * v for v in y)
        except OverflowError:
            norm2 = math.inf
        return norm2 * (1 - 1e-12)

    Y = np.array(rows, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lattice.closer_thresholds(Y)
    want = [per_element(y) for y in rows]
    assert np.array(got).view(np.uint64).tolist() == \
        np.array(want).view(np.uint64).tolist()


# ---------------------------------------------------------------------------
# compilation

def test_walk_source_is_a_pure_function_of_rank_without_float_literals():
    for r in (1, 8, 16, 17, 33):
        text = lattice._walk_source(r)
        assert text == lattice._walk_source(r)
        numbers = [tok.string for tok in
                   tokenize.generate_tokens(io.StringIO(text).readline)
                   if tok.type == tokenize.NUMBER]
        assert numbers and all(n.isdigit() for n in numbers)
        # one `while` loop per level, at most 16 in one function
        assert text.count("while True:") == r
        assert text.count("    def seg") == (r - 1) // lattice._SEGMENT


def test_each_rank_compiles_once_per_process_and_not_at_setup():
    script = textwrap.dedent("""
        import multiblock
        from multiblock import lattice
        from multiblock.lattice import field_lattice

        cat = multiblock.load_catalog()
        lat = field_lattice(cat.field("cyclo32"))
        multiblock.order_lattice(multiblock.NaturalOrder(cat.algebra("golden")))
        assert lattice._walk.cache_info().currsize == 0
        small = field_lattice(cat.field("q_i"))
        for _ in range(3):
            lat.cvp.shortest()
            small.cvp.shortest()
            lat.cvp.ball([0.0] * 16, 1.5)
        info = lattice._walk.cache_info()
        assert (info.misses, info.currsize, info.hits) == (2, 2, 7), info
        assert lattice._walk(16) is lattice._walk(16)
    """)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=os.environ, timeout=120)
    assert done.returncode == 0, done.stderr
