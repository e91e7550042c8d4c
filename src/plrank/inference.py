"""Plug-in asymptotic standard errors and confidence intervals.

Marginal-family estimators (full, choice-one, choice-two, general cutoffs) use
the inverse-variance built from ordered-prefix enumeration per edge; the QMLE
uses the sandwich built from pairwise and triple-wise selection probabilities
only. Cost is counted in enumerated terms and budget-capped: the full-MLE
variance on wide edges is exactly the expensive case, and exceeding the budget
is an error so callers can switch estimator instead of silently degrading.
"""

from __future__ import annotations

import itertools
import math
import statistics
from dataclasses import dataclass

import numpy as np

from .estimators import FitResult, apply_estimator_cutoff
from .likelihood import _bradley_terry_block, _by_spread, _check_prefix_budget, _prefix_walk, _row_chunks
from .model import Dataset, Observation, _pairs, _triples, check_utilities, grouped_rankings

#: Default cap on the enumerated prefixes of any one edge in an inference call.
DEFAULT_PREFIX_BUDGET = 10**7


def normal_quantile(p: float) -> float:
    """Standard normal inverse CDF (:meth:`statistics.NormalDist.inv_cdf`,
    Wichura's AS241)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    return statistics.NormalDist().inv_cdf(p)


def z_for_level(level: float) -> float:
    """Two-sided critical value of a confidence level in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    return normal_quantile((1.0 + level) / 2.0)


def _edge_utilities(u, edge, k: int) -> tuple[np.ndarray, int]:
    """One edge's utilities and k's position in it. The edge is checked as an
    :class:`plrank.model.Observation`'s ranking is, and against ``u``."""
    u, edge = check_utilities(u), Observation(tuple(edge)).ranking
    if max(edge) >= u.shape[0]:
        raise ValueError(f"item {max(edge)} outside [0, {u.shape[0]})")
    if k not in edge:
        raise ValueError(f"item {k} not in edge {edge}")
    return u[list(edge)], edge.index(k)


def marginal_info_term(u, edge, y: int, k: int) -> float:
    """Information contribution of one edge for item ``k`` at observed depth ``y``:
    the probability of each ordered (y-1)-prefix followed by k, times one minus
    the probability that k is first among the items left. Zero when y = m.
    It sums the depth-y prefixes of the far branch of :func:`plrank.likelihood._prefix_walk`."""
    vals, pos = _edge_utilities(u, edge, k)
    m = len(vals)
    if not 1 <= y <= m:
        raise ValueError(f"depth {y} outside [1, {m}]")
    if y == m:
        return 0.0
    _check_prefix_budget({(m, y): (np.zeros(1, dtype=np.int64), None)}, _prefix_cost, DEFAULT_PREFIX_BUDGET, "inverse-variance")
    *_, (tables, prob, rest, parent_rest) = _prefix_walk(vals[:, None], y, far=True)
    return float(np.sum((prob * rest / parent_rest)[tables["last"] == pos]))


def marginal_info_term_bruteforce(u, edge, y: int, k: int) -> float:
    """Oracle: full m! permutation sum of 1{r(k)=y} x (1 - P(k first | rest))."""
    from .model import pl_log_probability

    u = check_utilities(u)
    edge = tuple(edge)
    m = len(edge)
    a = {i: math.exp(u[i]) for i in edge}
    out = 0.0
    for perm in itertools.permutations(edge):
        if perm[y - 1] != k:
            continue
        rest = perm[y - 1:]
        p_first = a[k] / sum(a[i] for i in rest)
        out += math.exp(pl_log_probability(u, Observation(perm))) * (1.0 - p_first)
    return out


def marginal_inverse_variance(u, dataset: Dataset, k: int) -> float:
    """Inverse asymptotic variance of the marginal-family estimate of item k:
    entry k of :func:`batch_marginal_inverse_variance` on the observations
    that contain k, whose edges alone meet the prefix budget."""
    return float(batch_marginal_inverse_variance(u, _item_dataset(dataset, k, _prefix_cost))[0][k])


def _item_dataset(dataset: Dataset, k: int, cost=None) -> Dataset:
    """The stored rows that contain item k, numbered group by group: groups and
    rows keep their order, so a batch kernel adds k's terms in the whole
    dataset's order. With ``cost``, the default prefix budget is checked on
    these rows under their own observation indices."""
    if not 0 <= k < dataset.n:
        raise ValueError(f"item {k} outside [0, {dataset.n})")
    blocks = {key: (idx[has_k], rankings[has_k]) for key, (idx, rankings) in grouped_rankings(dataset).items()
              for has_k in [(rankings == k).any(axis=1)]}
    if cost is not None:
        _check_prefix_budget(blocks, cost, DEFAULT_PREFIX_BUDGET, "inverse-variance")
    starts = itertools.accumulate((len(idx) for idx, _ in blocks.values()), initial=0)
    return Dataset.from_blocks(dataset.n, {key: (np.arange(lo, lo + len(r)), r) for (key, (_, r)), lo in zip(blocks.items(), starts)})


def _prefix_cost(m: int, cutoff: int) -> int:
    return sum(math.perm(m, d) for d in range(1, min(cutoff, m - 1) + 1))


def batch_marginal_inverse_variance(u, dataset: Dataset, prefix_budget: int = DEFAULT_PREFIX_BUDGET):
    """All items at once: (inverse-variance vector, enumerated-prefix count).

    Enumerates ordered depth-d position tuples once per (edge size, cutoff)
    group; the tuple's last slot identifies the item, so one pass covers every
    k (:func:`_prefix_info`). Raises :class:`EnumerationBudgetError` (with
    per-edge counts) if some edge needs more than ``prefix_budget`` prefixes;
    the dataset's total is not capped, and rows are batched by the per-edge
    prefix count (:func:`plrank.likelihood._row_chunks`). Edges whose utilities
    spread by more than :data:`plrank.likelihood._RESCUE_SPREAD` take the same
    walk with every stage on its own scale.
    """
    u = check_utilities(u, dataset.n)
    groups = grouped_rankings(dataset)
    _check_prefix_budget(groups, _prefix_cost, prefix_budget, "inverse-variance")

    rho2 = np.zeros(dataset.n)
    total_cost = 0
    for (m, cutoff), (_, rankings) in groups.items():
        edges = np.sort(rankings, axis=1)
        total_cost += edges.shape[0] * _prefix_cost(m, cutoff)
        depth = min(cutoff, m - 1)
        by_pos = _by_spread(u, edges, lambda v, far=False: _prefix_info(v, depth, far))
        rho2 += np.bincount(edges.ravel(), by_pos.ravel(), minlength=dataset.n)
    return rho2, total_cost


def _prefix_info(v: np.ndarray, depth: int, far: bool = False) -> np.ndarray:
    """Inverse-variance terms (n_e, m) of the positions of the
    :func:`plrank.likelihood._prefix_walk` rows ``v`` (n_e, m) over depths
    1..``depth``: a depth-d prefix ending at k adds P(prefix) (1 - a_k/S) to k,
    the last factor taken as ``rest / parent_rest``, reduced by last position.
    Rows are batched on the P(m, depth) deepest prefixes."""
    n_e, m = v.shape
    out = np.zeros((n_e, m))
    for rows in _row_chunks(n_e, math.perm(m, depth)):
        walk = _prefix_walk(np.ascontiguousarray(v[rows].T), depth, far)
        for tables, prob, rest, parent_rest in itertools.islice(walk, 1, None):  # depths 1..depth
            terms = np.take(prob * rest / parent_rest, tables["by_last"], axis=0)
            out[rows] += np.add.reduceat(terms, np.arange(0, len(terms), len(terms) // m), axis=0).T
    return out


def _edge_moments(u, edge, k: int) -> tuple[float, float]:
    """Item k's entries of :func:`_qmle_moments` on the one observation ``edge``."""
    vals, pos = _edge_utilities(u, edge, k)
    m = len(vals)
    info, var, _ = _qmle_moments(vals, Dataset.from_blocks(m, {(m, m): ([0], np.arange(m)[None])}))
    return float(info[pos]), float(var[pos])


def pairwise_info_term(u, edge, k: int) -> float:
    """Pairwise Bradley-Terry information of item k within one edge:
    sum over the other items j of e^{u_k+u_j} / (e^{u_k}+e^{u_j})^2."""
    return _edge_moments(u, edge, k)[0]


def pairwise_var_term(u, edge, k: int) -> float:
    """Variance of item k's pairwise score within one edge: the pairwise
    information plus cross terms over item pairs {j, t} capturing the
    dependence of broken pairs from the same ranking."""
    return _edge_moments(u, edge, k)[1]


def qmle_inverse_variance(u, dataset: Dataset, k: int) -> float:
    """Sandwich inverse variance of the QMLE for item k,
    (sum of pairwise info)^2 / (sum of pairwise score variances): entry k of
    :func:`batch_qmle_inverse_variance` on the observations that contain k."""
    return float(batch_qmle_inverse_variance(u, _item_dataset(dataset, k))[0][k])


def batch_qmle_inverse_variance(u, dataset: Dataset):
    """All items at once: (inverse-variance vector, evaluated-term count), the
    sandwich info * (info / var) of :func:`_qmle_moments` (info**2 underflows)."""
    u = check_utilities(u, dataset.n)
    info, var, cost = _qmle_moments(u, dataset)
    return info * np.divide(info, var, out=np.zeros(dataset.n), where=var > 0), cost


def _qmle_moments(u, dataset: Dataset):
    """Per-item pairwise information, score variance and evaluated-term count:
    the information adds the Bradley-Terry weight of each edge's
    :func:`plrank.model._pairs` rows to both items; the score variance adds,
    besides, the cross term of each :func:`plrank.model._triples` row to its
    centre (:func:`_cross_terms`), at any utility spread, both in row batches
    of m**2 elements per edge. An edge costs two terms per pair and one per
    triple."""
    info, var = np.zeros((2, dataset.n))
    cost = 0
    for (m, _), (_, rankings) in grouped_rankings(dataset).items():
        edges = np.sort(rankings, axis=1)
        pairs, triples = _pairs(m), _triples(m)
        w, cross = np.empty((edges.shape[0], len(pairs))), np.empty((m, edges.shape[0]))
        for rows in _row_chunks(edges.shape[0], m * m):
            w[rows] = _bradley_terry_block(u, edges[rows], m)
            cross[:, rows] = _cross_terms(np.ascontiguousarray(u[edges[rows].T]))
        for col in pairs.T:
            info += np.bincount(np.take(edges, col, axis=1).ravel(), w.ravel(), minlength=dataset.n)
        var += np.bincount(edges.T.ravel(), cross.ravel(), minlength=dataset.n)
        cost += edges.shape[0] * (2 * len(pairs) + len(triples))
    return info, var + info, cost


def _cross_terms(v: np.ndarray) -> np.ndarray:
    """Score-variance cross terms (m, n_e) from utilities (m, n_e): position k
    sums 2 a_k a_q a_r / ((a_k+a_q+a_r)(a_k+a_q)(a_k+a_r)) over its
    :func:`plrank.model._triples` rows (k, q, r), taken as
    2 / ((1 + e_kq + e_kr)(1 + e_qk)(1 + e_rk)) with e_ij = exp(v_j - v_i):
    nothing is subtracted, no score underflows, and an e_ij that overflows
    makes its term 0, its limit."""
    terms = np.zeros_like(v)
    with np.errstate(over="ignore"):
        e = np.exp(v[None, :, :] - v[:, None, :])  # e[i, j] = e_ij
        one_plus = 1.0 + e
        for k, q, r in _triples(v.shape[0]).tolist():
            terms[k] += 1.0 / ((one_plus[k, q] + e[k, r]) * one_plus[q, k] * one_plus[r, k])
    return 2.0 * terms


@dataclass
class InferenceReport:
    """Per-item plug-in uncertainty at a given confidence level.

    ``sigma`` is the plug-in asymptotic standard deviation 1/rho;
    ``theta_cost`` counts enumerated terms (ordered prefixes for the marginal
    family, pair/triple terms for the QMLE).
    """

    estimator: str
    level: float
    estimate: np.ndarray
    sigma: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    n_k: np.ndarray
    theta_cost: int

    @property
    def n(self) -> int:
        return self.estimate.shape[0]

    def covers(self, truth) -> np.ndarray:
        truth = np.asarray(truth, dtype=float)
        return (self.ci_low <= truth) & (truth <= self.ci_high)

    def to_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("item,estimate,sigma,ci_low,ci_high,n_k\n")
            for k in range(self.n):
                f.write(
                    f"{k},{float(self.estimate[k])!r},{float(self.sigma[k])!r},"
                    f"{float(self.ci_low[k])!r},{float(self.ci_high[k])!r},{int(self.n_k[k])}\n"
                )


def standard_errors(
    fit: FitResult,
    dataset: Dataset,
    level: float = 0.95,
    prefix_budget: int = DEFAULT_PREFIX_BUDGET,
) -> InferenceReport:
    """Plug-in standard errors and CIs at the fitted utilities.

    Marginal-family fits use the prefix-enumeration inverse variance with the
    same cutoffs the fit consumed; QMLE fits use the pairwise sandwich. The
    fit must have converged.
    """
    if not fit.converged:
        raise ValueError("standard errors require a converged fit")
    u = check_utilities(fit.estimate, dataset.n)
    effective = apply_estimator_cutoff(dataset, fit.estimator, fit.y_override)
    if fit.estimator == "qmle":
        rho2, cost = batch_qmle_inverse_variance(u, effective)
    else:
        rho2, cost = batch_marginal_inverse_variance(u, effective, prefix_budget)
    if np.any(rho2 <= 0):
        bad = int(np.flatnonzero(rho2 <= 0)[0])
        raise ValueError(f"item {bad} has no information (zero inverse variance)")
    sigma = 1.0 / np.sqrt(rho2)
    z = z_for_level(level)
    return InferenceReport(
        estimator=fit.estimator,
        level=level,
        estimate=u.copy(),
        sigma=sigma,
        ci_low=u - z * sigma,
        ci_high=u + z * sigma,
        n_k=effective.degrees(),
        theta_cost=int(cost),
    )
