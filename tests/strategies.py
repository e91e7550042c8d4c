"""Hypothesis strategies shared by the property tests."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from plrank import Dataset, Observation


@st.composite
def cutoff_datasets(draw, max_items=8, max_m=6, max_obs=5):
    """Datasets with mixed edge sizes 2..max_m and random cutoffs."""
    n = draw(st.integers(2, max_items))
    observations = []
    for _ in range(draw(st.integers(1, max_obs))):
        m = draw(st.integers(2, min(max_m, n)))
        ranking = draw(st.permutations(range(n)))[:m]
        observations.append(Observation(tuple(ranking), draw(st.integers(1, m))))
    return Dataset(n, observations)


def utilities(n, bound=5.0):
    return st.lists(st.floats(-bound, bound), min_size=n, max_size=n).map(np.array)


@st.composite
def subset_draws(draw, max_items=30, max_batch=40):
    """(items, m, batch, seed) for the edge sampler: distinct, unsorted,
    possibly negative item labels and any m from 0 to len(items)."""
    items = draw(st.lists(st.integers(-100, 10**6), min_size=1, max_size=max_items, unique=True))
    m = draw(st.integers(0, len(items)))
    return np.array(items, dtype=np.int64), m, draw(st.integers(0, max_batch)), draw(st.integers(0, 2**32 - 1))


@st.composite
def edge_lists(draw, max_items=9, max_m=6, max_edges=12):
    """(n, edges): edges of mixed sizes 2..max_m, items in any order, some
    edges repeated."""
    n = draw(st.integers(2, max_items))
    edge = st.integers(2, min(max_m, n)).flatmap(lambda m: st.permutations(range(n)).map(lambda p: tuple(p[:m])))
    edges = draw(st.lists(edge, max_size=max_edges))
    repeats = draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    return n, edges + repeats
