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
from .likelihood import _bradley_terry_block, _check_prefix_budget, _prefixes
from .model import Dataset, _edge_scores, _pairs, _triples, check_utilities, grouped_rankings

#: Default cap on the enumerated prefixes of any one edge in an inference call.
DEFAULT_PREFIX_BUDGET = 10**7
_PREFIX_CHUNK = 1 << 21  # elements the temporaries of a prefix batch hold, about


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


def marginal_info_term(u, edge, y: int, k: int) -> float:
    """Information contribution of one edge for item ``k`` at observed depth ``y``:
    the probability of each ordered (y-1)-prefix followed by k, times one minus
    the probability that k is first among the items left. Zero when y = m."""
    u = check_utilities(u)
    edge = tuple(edge)
    if k not in edge:
        raise ValueError(f"item {k} not in edge {edge}")
    m = len(edge)
    if not 1 <= y <= m:
        raise ValueError(f"depth {y} outside [1, {m}]")
    if y == m:
        return 0.0
    a = {i: math.exp(u[i] - u[list(edge)].max()) for i in edge}
    others = [i for i in edge if i != k]
    total_all = sum(a.values())
    out = 0.0
    for prefix in itertools.permutations(others, y - 1):
        prob = 1.0
        total = total_all
        for i in prefix:
            prob *= a[i] / total
            total -= a[i]
        p_k = a[k] / total
        out += prob * p_k * (1.0 - p_k)
    return out


def marginal_info_term_bruteforce(u, edge, y: int, k: int) -> float:
    """Oracle: full m! permutation sum of 1{r(k)=y} x (1 - P(k first | rest))."""
    from .model import Observation, pl_log_probability

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
    sum of :func:`marginal_info_term` over containing edges and depths up to
    each observation's cutoff."""
    u = check_utilities(u, dataset.n)
    out = 0.0
    for obs in dataset.observations:
        if k in obs.ranking:
            for y in range(1, min(obs.cutoff, obs.m - 1) + 1):
                out += marginal_info_term(u, obs.edge, y, k)
    return out


def _prefix_cost(m: int, cutoff: int) -> int:
    return sum(math.perm(m, d) for d in range(1, min(cutoff, m - 1) + 1))


def batch_marginal_inverse_variance(u, dataset: Dataset, prefix_budget: int = DEFAULT_PREFIX_BUDGET):
    """All items at once: (inverse-variance vector, enumerated-prefix count).

    Enumerates ordered depth-d position tuples once per (edge size, cutoff)
    group; the tuple's last slot identifies the item, so one pass covers every
    k. Raises :class:`EnumerationBudgetError` (with per-edge counts) if some
    edge needs more than ``prefix_budget`` prefixes; the dataset's total is
    bounded only through memory, by chunking. Scores are shifted by each
    edge's own maximum (every term is a ratio within one edge). The remaining
    mass ``totals - removed`` and the stage term ``1 - a/S`` are formed by
    subtraction, so an entry loses about eps·e^Δu of relative accuracy when
    one item leads its edge by Δu (1.4e-3 for item 1 of u = [30, 0, -1] on
    one 3-item edge).
    """
    u = check_utilities(u, dataset.n)
    groups = grouped_rankings(dataset)
    _check_prefix_budget(groups, _prefix_cost, prefix_budget, "inverse-variance")

    rho2 = np.zeros(dataset.n)
    total_cost = 0
    for (m, cutoff), (_, rankings) in groups.items():
        edges = np.sort(rankings, axis=1)
        total_cost += edges.shape[0] * _prefix_cost(m, cutoff)
        scores = _edge_scores(u, edges)
        totals = scores.sum(axis=1)
        for depth in range(1, min(cutoff, m - 1) + 1):
            perms = _prefixes(m, depth)
            n_p = perms.shape[0]
            rows_per_chunk = max(1, _PREFIX_CHUNK // max(1, n_p * depth))
            for lo in range(0, edges.shape[0], rows_per_chunk):
                sl = slice(lo, lo + rows_per_chunk)
                g = scores[sl][:, perms]  # (ne, np, depth)
                removed = np.zeros_like(g)
                if depth > 1:
                    removed[..., 1:] = np.cumsum(g[..., :-1], axis=-1)
                z = totals[sl, None, None] - removed
                probs = np.prod(g / z, axis=-1)
                term = probs * (1.0 - g[..., -1] / z[..., -1])
                for pos in range(m):
                    sel = np.flatnonzero(perms[:, -1] == pos)
                    if sel.size:
                        np.add.at(rho2, edges[sl, pos], term[:, sel].sum(axis=1))
    return rho2, total_cost


def pairwise_info_term(u, edge, k: int) -> float:
    """Pairwise Bradley-Terry information of item k within one edge:
    sum over the other items j of e^{u_k+u_j} / (e^{u_k}+e^{u_j})^2."""
    u = check_utilities(u)
    edge = tuple(edge)
    if k not in edge:
        raise ValueError(f"item {k} not in edge {edge}")
    out = 0.0
    for j in edge:
        if j != k:
            q = math.exp(-abs(u[j] - u[k]))  # p (1 - p) = q / (1 + q)**2 for p = 1 / (1 + e^{u_j - u_k})
            out += q / (1.0 + q) ** 2
    return out


def pairwise_var_term(u, edge, k: int) -> float:
    """Variance of item k's pairwise score within one edge: the pairwise
    information plus cross terms over item pairs {j, t} capturing the
    dependence of broken pairs from the same ranking."""
    u = check_utilities(u)
    edge = tuple(edge)
    if k not in edge:
        raise ValueError(f"item {k} not in edge {edge}")
    others = [j for j in edge if j != k]
    shift = max(u[list(edge)])
    a = {i: math.exp(u[i] - shift) for i in edge}
    out = pairwise_info_term(u, edge, k)
    for j, t in itertools.combinations(others, 2):
        out += 2.0 * (
            a[k] / (a[k] + a[j] + a[t]) - a[k] ** 2 / ((a[k] + a[j]) * (a[k] + a[t]))
        )
    return out


def qmle_inverse_variance(u, dataset: Dataset, k: int) -> float:
    """Sandwich inverse variance of the QMLE for item k:
    (sum of pairwise info)^2 / (sum of pairwise score variances)."""
    u = check_utilities(u, dataset.n)
    info = 0.0
    var = 0.0
    for obs in dataset.observations:
        if k in obs.ranking:
            info += pairwise_info_term(u, obs.edge, k)
            var += pairwise_var_term(u, obs.edge, k)
    if var == 0.0:
        return 0.0
    return info**2 / var


def batch_qmle_inverse_variance(u, dataset: Dataset):
    """All items at once: (inverse-variance vector, evaluated-term count).

    The information adds the Bradley-Terry weight of each edge's
    :func:`plrank.model._pairs` rows to both items; the score variance adds,
    besides, the cross term of each :func:`plrank.model._triples` row to its
    centre. An edge costs two terms per pair and one per triple."""
    u = check_utilities(u, dataset.n)
    info, var = np.zeros((2, dataset.n))
    cost = 0
    for (m, _), (_, rankings) in grouped_rankings(dataset).items():
        edges = np.sort(rankings, axis=1)
        pairs, triples = _pairs(m), _triples(m)
        w = _bradley_terry_block(u, edges, m).ravel()
        for col in pairs.T:
            info += np.bincount(np.take(edges, col, axis=1).ravel(), w, minlength=dataset.n)
        a = _edge_scores(u, edges).T.copy()  # (m, n_e): one contiguous row per position
        terms = np.zeros_like(a)
        for k, q, r in triples.tolist():
            terms[k] += 2.0 * (a[k] / (a[k] + a[q] + a[r]) - a[k] ** 2 / ((a[k] + a[q]) * (a[k] + a[r])))
        var += np.bincount(edges.T.ravel(), terms.ravel(), minlength=dataset.n)
        cost += edges.shape[0] * (2 * len(pairs) + len(triples))
    var += info
    return np.divide(info**2, var, out=np.zeros(dataset.n), where=var > 0), cost


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
