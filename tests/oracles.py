"""Reference implementations the tests compare the library against.

They are deliberately direct (Python loops over observations and prefixes,
one rebuild per left-out item), so they are slow and only meant for small
inputs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from plrank import Dataset, apply_estimator_cutoff, quasi_hessian


def prefix_weights(u_edge: np.ndarray, prefix: tuple[int, ...]) -> tuple[float, np.ndarray]:
    """PL probability of an ordered prefix (by local position) and the suffix
    score sums S_1..S_y encountered along it. Each S_j is summed over the
    positions still unranked rather than kept as a running difference, so
    edges with widely spread scores lose no precision to cancellation."""
    a = np.exp(u_edge - u_edge.max())
    left = list(range(len(a)))
    prob = 1.0
    s_vals = np.empty(len(prefix))
    for j, pos in enumerate(prefix):
        s_vals[j] = a[left].sum()
        prob *= a[pos] / s_vals[j]
        left.remove(pos)
    return prob, s_vals


def expected_marginal_hessian_loop(u, dataset: Dataset) -> np.ndarray:
    """Dense expected marginal Hessian by a per-edge, per-prefix loop over
    every ordered top-``y`` prefix."""
    u = np.asarray(u, dtype=float)
    h = np.zeros((dataset.n, dataset.n))
    for obs in dataset.observations:
        edge = obs.edge
        m, y = obs.m, obs.cutoff
        u_edge = u[list(edge)]
        a = np.exp(u_edge - u_edge.max())
        local = np.zeros((m, m))
        for prefix in itertools.permutations(range(m), y):
            prob, s_vals = prefix_weights(u_edge, prefix)
            rank = np.full(m, y)  # local effective rank r ^ y (1-based)
            for j, pos in enumerate(prefix):
                rank[pos] = j + 1
            inv2 = np.cumsum(1.0 / s_vals**2)
            for p in range(m):
                for q in range(p + 1, m):
                    val = prob * a[p] * a[q] * inv2[min(rank[p], rank[q]) - 1]
                    local[p, q] += val
                    local[q, p] += val
        idx = np.asarray(edge)
        h[np.ix_(idx, idx)] += local
    np.fill_diagonal(h, h.diagonal() - h.sum(axis=1))
    return h


def expected_neg_hessian_loop(dataset: Dataset, u, estimator: str) -> np.ndarray:
    """Dense -E[Hessian] for an estimator kind: the pairwise-broken Hessian
    for qmle, the looped expected marginal Hessian otherwise."""
    effective = apply_estimator_cutoff(dataset, estimator)
    if estimator == "qmle":
        return -quasi_hessian(u, effective).toarray()
    return -expected_marginal_hessian_loop(u, effective)


def leave_one_out_gap_rebuild(dataset: Dataset, u, estimator: str) -> float:
    """Worst leave-one-out lambda_2, rebuilding the Laplacian without each
    item's edges from scratch."""
    worst = math.inf
    for k in range(dataset.n):
        sub = Dataset(dataset.n, [obs for obs in dataset.observations if k not in obs.ranking])
        keep = np.arange(dataset.n) != k
        lap = expected_neg_hessian_loop(sub, u, estimator)[np.ix_(keep, keep)]
        eigs = np.linalg.eigvalsh(lap)
        worst = min(worst, float(eigs[1]) if eigs.size > 1 else 0.0)
    return worst
