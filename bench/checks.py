"""Reference computations the benchmark checks plrank's outputs against.

Everything here is written from the model's definitions with numpy only; no
function of plrank is called, so a fault in plrank cannot hide itself by
being reused in its own check.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np
from scipy.special import expit

CI_TARGET = 0.95


def coverage_band(n_intervals: int) -> float:
    """Allowed |coverage - 0.95| for ``n_intervals`` nominal-95% intervals.

    Five binomial standard errors, floored at 0.02 (the acceptance suite's
    band) because intervals that share one fit are correlated.
    """
    se = math.sqrt(CI_TARGET * (1.0 - CI_TARGET) / max(1, n_intervals))
    return max(0.02, 5.0 * se)


def check_coverage(label: str, hits: int, total: int) -> list[str]:
    cov = hits / total
    band = coverage_band(total)
    if abs(cov - CI_TARGET) > band:
        return [f"{label}: CI coverage {cov:.4f} over {total} intervals is outside 0.95 +- {band:.4f}"]
    return []


def check_sigma_order(label: str, sigma: dict) -> list[str]:
    """The paper's efficiency ordering full < qmle < choice2 < choice1."""
    order = ("full", "qmle", "choice2", "choice1")
    if all(sigma[a] < sigma[b] for a, b in zip(order, order[1:])):
        return []
    detail = ", ".join(f"{k}={sigma[k]:.4f}" for k in order)
    return [f"{label}: sigma ordering full < qmle < choice2 < choice1 broken ({detail})"]


# ---------------------------------------------------------------------------
# Estimating equations
# ---------------------------------------------------------------------------


def rankings_by_size(rankings) -> dict[int, np.ndarray]:
    """Group best-first rankings (sequences of item ids) into (rows, m) arrays."""
    groups: dict[int, list] = {}
    for r in rankings:
        groups.setdefault(len(r), []).append(r)
    return {m: np.asarray(rows, dtype=np.int64) for m, rows in groups.items()}


def marginal_score(u, groups: dict[int, np.ndarray], y: int | None) -> np.ndarray:
    """Gradient of the top-``y`` sequential-choice log-likelihood (``y=None``
    means the full ranking).

    For item k at 0-based position p of a ranking with suffix score sums S_j:
    ``1{p < y} - exp(u_k) * sum_{j <= p, j < y} 1 / S_j``. Scores are shifted
    per row, so no row underflows whatever the spread of ``u``.
    """
    u = np.asarray(u, dtype=float)
    score = np.zeros(u.shape[0])
    for m, r in groups.items():
        cut = m if y is None else min(y, m)
        v = u[r]
        a = np.exp(v - v.max(axis=1, keepdims=True))
        s = np.cumsum(a[:, ::-1], axis=1)[:, ::-1]
        observed = np.arange(m) < cut
        csum = np.cumsum(np.where(observed, 1.0 / s, 0.0), axis=1)
        contrib = observed[None, :] - a * csum
        score += np.bincount(r.ravel(), weights=contrib.ravel(), minlength=u.shape[0])
    return score


def pairwise_score(u, groups: dict[int, np.ndarray]) -> np.ndarray:
    """Bradley-Terry rank-matching residuals of the fully broken rankings:
    each (winner, loser) pair adds P(loser beats winner) to the winner and
    subtracts it from the loser."""
    u = np.asarray(u, dtype=float)
    score = np.zeros(u.shape[0])
    for m, r in groups.items():
        for j, t in itertools.combinations(range(m), 2):
            w, l = r[:, j], r[:, t]
            p = expit(u[l] - u[w])
            score += np.bincount(w, weights=p, minlength=u.shape[0])
            score -= np.bincount(l, weights=p, minlength=u.shape[0])
    return score


def check_certified(label: str, score: np.ndarray, n_obs: int, tol: float) -> list[str]:
    """Normalized score sup-norm must be within the fit tolerance."""
    sup = float(np.abs(score).max()) / n_obs
    # 1e-6 relative slack covers summation-order differences only
    if not sup <= tol * (1.0 + 1e-6):
        return [f"{label}: normalized score sup-norm {sup:.3e} exceeds tol {tol:.0e}"]
    return []


def theta_cost(kind: str, sizes) -> int:
    """Enumerated-term count of the SE computation, in closed form per edge:
    ordered prefixes sum_{d<=min(y, m-1)} m!/(m-d)! for the marginal family,
    m(m-1) pair terms plus m(m-1)(m-2)/2 triple terms for the QMLE."""
    total = 0
    for m in sizes:
        if kind == "qmle":
            total += m * (m - 1) + m * (m - 1) * (m - 2) // 2
        else:
            y = {"full": m, "choice1": 1, "choice2": 2}[kind]
            total += sum(math.perm(m, d) for d in range(1, min(y, m - 1) + 1))
    return total


# ---------------------------------------------------------------------------
# Expected-Hessian Laplacians at u = 0
# ---------------------------------------------------------------------------


def pair_weight_at_zero(m: int, y: int) -> float:
    """Expected marginal-Hessian weight of one item pair in an m-edge at u = 0.

    Direct average over all m! equally likely orderings of
    ``sum_{j <= min(r_p, r_q, y)} 1 / S_j^2`` with S_j = m - j + 1.
    """
    total = 0.0
    for perm in itertools.permutations(range(m)):
        depth = min(perm.index(0), perm.index(1), y - 1) + 1
        total += sum(1.0 / (m - j) ** 2 for j in range(depth))
    return total / math.factorial(m)


def laplacian_at_zero(edges, n: int, kind: str, weights: dict) -> np.ndarray:
    """Negative expected Hessian at u = 0 for full observations of ``edges``.

    The QMLE weighs every broken pair 1/4 (the Bradley-Terry variance at
    equal scores); the marginal kinds use :func:`pair_weight_at_zero`.
    """
    lap = np.zeros((n, n))
    for e in edges:
        m = len(e)
        if kind == "qmle":
            w = 0.25
        else:
            y = {"full": m, "choice1": 1}[kind]
            if (m, y) not in weights:
                weights[(m, y)] = pair_weight_at_zero(m, y)
            w = weights[(m, y)]
        idx = np.asarray(e)
        lap[np.ix_(idx, idx)] -= w
        lap[idx, idx] += w * m
    return lap


def spectral_reference(edges, n: int, kind: str, leave_one_out: bool, weights: dict):
    """(normalized eigenvalues, s_gap, worst leave-one-out lambda_2)."""
    lap = laplacian_at_zero(edges, n, kind, weights)
    inv_sqrt = 1.0 / np.sqrt(np.diag(lap))
    eigs = np.linalg.eigvalsh(lap * inv_sqrt[:, None] * inv_sqrt[None, :])
    s_gap = float(min(eigs[1], 2.0 - eigs[-1]))
    leave = None
    if leave_one_out:
        leave = math.inf
        for k in range(n):
            rest = [e for e in edges if k not in e]
            keep = np.arange(n) != k
            sub = laplacian_at_zero(rest, n, kind, weights)[np.ix_(keep, keep)]
            leave = min(leave, float(np.linalg.eigvalsh(sub)[1]))
    return eigs, s_gap, leave


def close(a, b, rtol: float = 1e-9) -> bool:
    return a is not None and b is not None and abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Race results
# ---------------------------------------------------------------------------


def read_dataset_csv(path) -> list[tuple[int, ...]]:
    """Rankings from a plrank dataset CSV (obs_id, rank, item), in file order."""
    rows: dict[str, list[tuple[int, int]]] = {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            rows.setdefault(row["obs_id"], []).append((int(row["rank"]), int(row["item"])))
    return [tuple(item for _, item in sorted(entries)) for entries in rows.values()]


def restrict(races, kept) -> list[tuple]:
    """Races with only the ``kept`` horses, dropping those left with < 2."""
    out = [tuple(h for h in race if h in kept) for race in races]
    return [r for r in out if len(r) >= 2]


def violations(races, kept, min_races: int) -> dict[str, set]:
    """Kept horses that ran fewer than ``min_races`` kept races, or won or
    lost every kept race they ran."""
    count = dict.fromkeys(kept, 0)
    wins = dict.fromkeys(kept, 0)
    losses = dict.fromkeys(kept, 0)
    for r in restrict(races, kept):
        for pos, h in enumerate(r):
            count[h] += 1
            wins[h] += pos == 0
            losses[h] += pos == len(r) - 1
    return {
        "ran fewer races than the cutoff": {h for h in kept if count[h] < min_races},
        "won every race": {h for h in kept if count[h] and wins[h] == count[h]},
        "lost every race": {h for h in kept if count[h] and losses[h] == count[h]},
    }


def largest_clean_set(races, min_races: int) -> set:
    """The largest horse set with no violations. It is unique: the union of
    two clean sets is clean (race counts only grow, and a horse keeps the
    rival that beat it and the rival it beat), so removing violators until
    none remain reaches it in any removal order."""
    kept = {h for race in races for h in race}
    while True:
        bad = set().union(*violations(races, kept, min_races).values())
        if not bad:
            return kept
        kept -= bad


def cleaning_errors(races, kept_ids: list[int], observations, min_races: int) -> list[str]:
    """Race-ingestion invariants recomputed from the generated races.

    ``races`` lists each generated race's horse ids best-first, in race-id
    order; ``kept_ids`` maps item index -> horse id; ``observations`` are the
    ingested rankings as item indices.
    """
    errors = []
    kept = set(kept_ids)
    generated = {h for race in races for h in race}
    if not kept <= generated or len(kept) != len(kept_ids):
        return ["races-cli: kept ids are not distinct generated horses"]
    for rule, horses in violations(races, kept, min_races).items():
        if horses:
            errors.append(f"races-cli: {len(horses)} kept horses {rule}")
    expected = largest_clean_set(races, min_races)
    if kept != expected:
        errors.append(f"races-cli: kept {len(kept)} horses, the largest clean set has {len(expected)}")
    if [tuple(kept_ids[i] for i in obs) for obs in observations] != restrict(races, kept):
        errors.append("races-cli: ingested races differ from the generated races restricted to the kept horses")
    return errors
