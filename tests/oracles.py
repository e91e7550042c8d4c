"""Reference implementations the tests compare the library against.

They are deliberately direct (Python loops over observations and prefixes,
one rebuild per left-out item, dict and set rebuilds of whole races), so
they are slow and only meant for small inputs.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from plrank import (
    DataFormatError,
    Dataset,
    Observation,
    apply_estimator_cutoff,
    check_utilities,
    marginal_hessian,
    marginal_info_term,
    quasi_hessian,
)
from plrank.harness import IngestResult
from plrank.model import _redraw, grouped_rankings, sidecar_path


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


def expected_marginal_hessian_mc(u, dataset: Dataset, n_samples: int = 10**4, rng=None):
    """Monte Carlo expected marginal Hessian: average of outcome Hessians with
    entrywise standard errors. Returns (mean, se) as dense arrays."""
    u = np.asarray(u, dtype=float)
    rng = np.random.default_rng(rng)
    edges = Dataset.from_blocks(dataset.n, {key: (idx, np.sort(rk, axis=1)) for key, (idx, rk) in grouped_rankings(dataset).items()})
    acc = np.zeros((dataset.n, dataset.n))
    acc2 = np.zeros((dataset.n, dataset.n))
    for _ in range(n_samples):
        hh = marginal_hessian(u, _redraw(u, edges, rng)).toarray()
        acc += hh
        acc2 += hh**2
    mean = acc / n_samples
    var = np.maximum(acc2 / n_samples - mean**2, 0.0)
    se = np.sqrt(var / n_samples)
    return mean, se


def hessian_to_coo_csv(h, path) -> None:
    """Dump a (sparse) matrix as ``row,col,value`` rows for debugging."""
    import scipy.sparse as sp

    coo = sp.coo_matrix(h)
    with open(path, "w") as f:
        f.write("row,col,value\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            f.write(f"{int(r)},{int(c)},{float(v)!r}\n")


def marginal_inverse_variance_loop(u, dataset: Dataset, k: int) -> float:
    """Inverse asymptotic variance of the marginal-family estimate of item k:
    sum of :func:`plrank.marginal_info_term` (the log-domain walk, which
    shares no code with the batch kernel's fast path) over containing edges
    and depths up to each observation's cutoff."""
    u = check_utilities(u, dataset.n)
    out = 0.0
    for obs in dataset.observations:
        if k in obs.ranking:
            for y in range(1, min(obs.cutoff, obs.m - 1) + 1):
                out += marginal_info_term(u, obs.edge, y, k)
    return out


def pairwise_info_term_loop(u, edge, k: int) -> float:
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


def pairwise_var_term_loop(u, edge, k: int) -> float:
    """Variance of item k's pairwise score within one edge: the pairwise
    information plus cross terms over item pairs {j, t} capturing the
    dependence of broken pairs from the same ranking."""
    u = check_utilities(u)
    edge = tuple(edge)
    if k not in edge:
        raise ValueError(f"item {k} not in edge {edge}")
    others = [j for j in edge if j != k]

    def share(*items):  # probability that items[0] is chosen first, scores shifted by the items' maximum
        top = max(u[i] for i in items)
        return math.exp(u[items[0]] - top) / sum(math.exp(u[i] - top) for i in items)

    out = pairwise_info_term_loop(u, edge, k)
    for j, t in itertools.combinations(others, 2):
        out += 2.0 * share(k, j, t) * share(j, k) * share(t, k)  # a_k a_j a_t / ((a_k+a_j+a_t)(a_k+a_j)(a_k+a_t))
    return out


def qmle_inverse_variance_loop(u, dataset: Dataset, k: int) -> float:
    """Sandwich inverse variance of the QMLE for item k:
    (sum of pairwise info)^2 / (sum of pairwise score variances)."""
    u = check_utilities(u, dataset.n)
    info = 0.0
    var = 0.0
    for obs in dataset.observations:
        if k in obs.ranking:
            info += pairwise_info_term_loop(u, obs.edge, k)
            var += pairwise_var_term_loop(u, obs.edge, k)
    if var == 0.0:
        return 0.0
    return info * (info / var)  # info**2 underflows where info is below 1e-154


def _exact_scores(mpmath, u, edge):
    return {i: mpmath.exp(mpmath.mpf(float(u[i]))) for i in edge}


def exact_marginal_inverse_variance(mpmath, u, dataset: Dataset) -> np.ndarray:
    """Every item's marginal-family inverse variance in mpmath at its current
    precision, rounded to double once: over observations, depths d up to
    min(cutoff, m - 1) and ordered depth-d prefixes ending at k, the sum of
    P(first d - 1 choices) p_k (1 - p_k), p_k being k's probability to be
    chosen next and 1 - p_k the others' (summed: no precision suffices for
    the difference at spreads of hundreds)."""
    out = [mpmath.mpf(0)] * dataset.n
    for obs in dataset.observations:
        a = _exact_scores(mpmath, u, obs.edge)
        for d in range(1, min(obs.cutoff, obs.m - 1) + 1):
            for prefix in itertools.permutations(obs.edge, d):
                prob, left = mpmath.mpf(1), set(obs.edge)
                for i in prefix[:-1]:
                    prob *= a[i] / mpmath.fsum(a[j] for j in left)
                    left.remove(i)
                k = prefix[-1]
                total = mpmath.fsum(a[j] for j in left)
                out[k] += prob * a[k] / total * mpmath.fsum(a[j] for j in left if j != k) / total
    return np.array([float(x) for x in out])


def exact_expected_pair_weights(mpmath, u, dataset: Dataset) -> np.ndarray:
    """Off-diagonal entries (n, n) of the expected marginal Hessian in mpmath:
    for each observation and pair {p, q}, a_p a_q times the sum over depths
    d < min(cutoff, m - 1) and ordered depth-d prefixes leaving both unranked
    of P(prefix) / S**2."""
    out = [[mpmath.mpf(0)] * dataset.n for _ in range(dataset.n)]
    for obs in dataset.observations:
        a = _exact_scores(mpmath, u, obs.edge)
        for d in range(min(obs.cutoff, obs.m - 1)):
            for prefix in itertools.permutations(obs.edge, d):
                prob, left = mpmath.mpf(1), set(obs.edge)
                for i in prefix:
                    prob *= a[i] / mpmath.fsum(a[j] for j in left)
                    left.remove(i)
                s = mpmath.fsum(a[j] for j in left)
                for p, q in itertools.combinations(sorted(left), 2):
                    w = prob * a[p] * a[q] / s**2
                    out[p][q] += w
                    out[q][p] += w
    return np.array([[float(x) for x in row] for row in out])


def exact_marginal_hessian(mpmath, u, dataset: Dataset) -> np.ndarray:
    """The observed marginal Hessian (n, n) in mpmath: for each observation
    and positions p < q of its ranking, the weight a_p a_q times the sum over
    stages j <= min(p, cutoff - 1) of 1 / S_j**2, S_j the scores from
    position j on, off the diagonal, and minus the row sums on it."""
    out = [[mpmath.mpf(0)] * dataset.n for _ in range(dataset.n)]
    for obs in dataset.observations:
        a = _exact_scores(mpmath, u, obs.ranking)
        s = [mpmath.fsum(a[i] for i in obs.ranking[j:]) for j in range(obs.m)]
        for p, q in itertools.combinations(range(obs.m), 2):
            i, k = obs.ranking[p], obs.ranking[q]
            w = a[i] * a[k] * mpmath.fsum(1 / s[j] ** 2 for j in range(min(p, obs.cutoff - 1) + 1))
            out[i][k] += w
            out[k][i] += w
            out[i][i] -= w
            out[k][k] -= w
    return np.array([[float(x) for x in row] for row in out])


def exact_qmle_inverse_variance(mpmath, u, dataset: Dataset) -> np.ndarray:
    """Every item's QMLE sandwich inverse variance in mpmath, rounded to
    double once: info**2 / (info + cross) with the Bradley-Terry information
    a_k a_j / (a_k + a_j)**2 and the cross terms
    2 a_k a_j a_t / ((a_k+a_j+a_t)(a_k+a_j)(a_k+a_t)) of every observation."""
    info = [mpmath.mpf(0)] * dataset.n
    var = [mpmath.mpf(0)] * dataset.n
    for obs in dataset.observations:
        a = _exact_scores(mpmath, u, obs.edge)
        for k in obs.edge:
            others = [j for j in obs.edge if j != k]
            for j in others:
                info[k] += a[k] * a[j] / (a[k] + a[j]) ** 2
            for j, t in itertools.combinations(others, 2):
                var[k] += 2 * a[k] * a[j] * a[t] / ((a[k] + a[j] + a[t]) * (a[k] + a[j]) * (a[k] + a[t]))
    return np.array([float(i**2 / (i + v)) if i + v > 0 else 0.0 for i, v in zip(info, var)])


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


def shared_edges_reference(edges) -> dict[tuple[int, int], int]:
    """Co-occurrence counts N_jk of the item pairs j < k of every edge, one
    dict update per pair."""
    counts: dict[tuple[int, int], int] = {}
    for e in edges:
        for j, k in itertools.combinations(sorted(e), 2):
            counts[(j, k)] = counts.get((j, k), 0) + 1
    return counts


def edge_sharing_ratio_reference(edges) -> float:
    """max of N_jk / N_j and N_jk / N_k over the pairs of
    :func:`shared_edges_reference`, with degrees counted edge by edge."""
    degree: dict[int, int] = {}
    for e in edges:
        for k in e:
            degree[k] = degree.get(k, 0) + 1
    best = 0.0
    for (j, k), njk in shared_edges_reference(edges).items():
        best = max(best, njk / degree[j], njk / degree[k])
    return best


@dataclass(frozen=True)
class RaceRecord:
    """One finish-line row: a horse's position (1 = winner) within a race."""

    race_id: str
    horse_id: str
    finish_position: int

    def __post_init__(self):
        if self.finish_position < 1:
            raise ValueError("finish_position starts at 1")


def _reference_id_key(value: str):
    return (0, int(value), "") if value.isdigit() else (1, 0, value)


def ingest_races_reference(path, min_races: int = 10) -> IngestResult:
    """Race ingestion with one record object per row and dict/set rebuilds of
    the races on every removal pass; :func:`plrank.harness.ingest_races` must
    agree with it field by field.

    Horses appearing in fewer than ``min_races`` races, and horses that won or
    lost every race they ran, are removed; removal passes repeat until a fixed
    point since each removal changes race compositions. Races reduced below
    two horses are dropped. Remaining horses are renumbered densely.
    """
    path = Path(path)
    races: dict[str, list[RaceRecord]] = {}
    errors = []
    seen_pairs = set()
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        required = {"race_id", "horse_id", "finish_position"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise DataFormatError(f"{path}: expected columns {sorted(required)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                record = RaceRecord(
                    race_id=row["race_id"].strip(),
                    horse_id=row["horse_id"].strip(),
                    finish_position=int(row["finish_position"]),
                )
                if not record.race_id or not record.horse_id:
                    raise ValueError
            except (ValueError, AttributeError, TypeError):
                errors.append(lineno)
                continue
            if (record.race_id, record.horse_id) in seen_pairs:
                errors.append(lineno)
                continue
            seen_pairs.add((record.race_id, record.horse_id))
            races.setdefault(record.race_id, []).append(record)
    if errors:
        shown = ", ".join(map(str, errors[:10]))
        raise DataFormatError(f"{path}: {len(errors)} malformed/duplicate rows (lines {shown}{'...' if len(errors) > 10 else ''})")

    n_races_in = len(races)
    all_horses = {r.horse_id for entries in races.values() for r in entries}
    # de-duplicate positions: stable sort keeps file order within a tie, then
    # the list order is the dense ranking
    tie_broken = 0
    ordered: dict[str, list[str]] = {}
    for rid, entries in races.items():
        entries.sort(key=lambda r: r.finish_position)
        if len({r.finish_position for r in entries}) != len(entries):
            tie_broken += 1
        ordered[rid] = [r.horse_id for r in entries]

    removed_low, removed_wins, removed_losses = set(), set(), set()
    races_dropped = 0
    while True:
        small = [rid for rid, horses in ordered.items() if len(horses) < 2]
        for rid in small:
            del ordered[rid]
        races_dropped += len(small)

        counts: dict[str, int] = {}
        for horses in ordered.values():
            for h in horses:
                counts[h] = counts.get(h, 0) + 1
        low = {h for h, c in counts.items() if c < min_races}
        if low:
            removed_low |= low
            ordered = {rid: [h for h in horses if h not in low] for rid, horses in ordered.items()}
            continue

        first_only, last_only = set(counts), set(counts)
        for horses in ordered.values():
            first_only -= set(horses[1:])
            last_only -= set(horses[:-1])
        if first_only or last_only:
            removed_wins |= first_only
            removed_losses |= last_only
            gone = first_only | last_only
            ordered = {rid: [h for h in horses if h not in gone] for rid, horses in ordered.items()}
            continue
        break

    kept = sorted({h for horses in ordered.values() for h in horses}, key=_reference_id_key)
    index = {h: i for i, h in enumerate(kept)}
    observations = [
        Observation(tuple(index[h] for h in horses))
        for rid, horses in sorted(ordered.items(), key=lambda kv: _reference_id_key(kv[0]))
    ]
    dataset = Dataset(max(len(kept), 1), observations)
    return IngestResult(
        dataset=dataset,
        horse_ids=kept,
        n_races_in=n_races_in,
        n_horses_in=len(all_horses),
        removed_low_count=sorted(removed_low, key=_reference_id_key),
        removed_all_wins=sorted(removed_wins, key=_reference_id_key),
        removed_all_losses=sorted(removed_losses, key=_reference_id_key),
        races_dropped_small=races_dropped,
        tie_broken_races=tie_broken,
    )


def load_dataset_reference(path) -> Dataset:
    """Dataset reading with one ``csv.DictReader`` dict per row, a dict of
    lists per obs_id and one ``Observation`` per observation;
    :func:`plrank.load_dataset` must give the same blocks and ``n``, or the
    same error. A short row is a bad row (its missing cells read as None)."""
    path = Path(path)
    rows: dict[str, list[tuple[int, int]]] = {}
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None or not {"obs_id", "rank", "item"} <= set(reader.fieldnames):
            raise DataFormatError(f"{path}: expected header obs_id,rank,item")
        for lineno, row in enumerate(reader, start=2):
            try:
                oid = row["obs_id"].strip()
                rank = int(row["rank"])
                item = int(row["item"])
            except (ValueError, AttributeError, TypeError) as exc:
                raise DataFormatError(f"{path}:{lineno}: bad row {row}") from exc
            rows.setdefault(oid, []).append((rank, item))

    side = sidecar_path(path)
    meta = {}
    if side.exists():
        with open(side) as f:
            meta = json.load(f)
    cutoffs = meta.get("cutoffs", {})

    observations = []
    for oid, entries in rows.items():
        entries.sort()
        ranks = [r for r, _ in entries]
        if ranks != list(range(1, len(entries) + 1)):
            raise DataFormatError(f"{path}: observation {oid} ranks {ranks} are not 1..m")
        ranking = tuple(item for _, item in entries)
        y = int(cutoffs.get(str(oid), len(ranking)))
        observations.append(Observation(ranking, y))

    n = int(meta.get("n", 1 + max(max(o.ranking) for o in observations))) if observations else int(meta.get("n", 1))
    return Dataset(n, observations)
