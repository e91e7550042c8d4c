"""Core Plackett-Luce model: ranking probabilities, sampling, marginalization,
pairwise breaking, and dataset serialization.

Items are integers ``0..n-1``. A comparison edge is a sorted tuple of items;
an observed ranking is a tuple listing the edge's items best-to-worst. Each
observation carries a cutoff ``y``: only the top-``y`` positions are treated
as observed, the rest matter only through set membership. Utilities are plain
length-``n`` float arrays; the model is shift-invariant and estimates are
identified by the sum-to-zero convention (see :func:`center`).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

Edge = tuple[int, ...]
Ranking = tuple[int, ...]

#: Default cap on edge size for exact permutation enumeration (8! = 40320).
MAX_ENUMERATION_SIZE = 8


class DataFormatError(ValueError):
    """Malformed external data (CSV rows, sidecar JSON)."""


def check_utilities(u, n: int | None = None) -> np.ndarray:
    """Validate and return utilities as a float array.

    Raises ValueError on non-finite entries or length mismatch with ``n``.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError(f"utilities must be a vector, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("utilities must be finite")
    if n is not None and u.shape[0] != n:
        raise ValueError(f"utilities have length {u.shape[0]}, expected {n}")
    return u


def center(u) -> np.ndarray:
    """Return a sum-to-zero copy of ``u`` (the identified representative)."""
    u = check_utilities(u)
    return u - u.mean()


@dataclass(frozen=True)
class Observation:
    """One multiway comparison: a ranking of an edge plus a top-``y`` cutoff.

    ``ranking`` lists the edge's items best-to-worst. ``cutoff`` is the number
    of top positions actually observed (``cutoff == m`` means the full
    ranking). Positions past the cutoff are carried but consumers truncate.
    """

    ranking: Ranking
    cutoff: int = -1  # -1 sentinel: full observation

    def __post_init__(self):
        ranking = tuple(int(k) for k in self.ranking)
        object.__setattr__(self, "ranking", ranking)
        m = len(ranking)
        if m < 2:
            raise ValueError("an edge needs at least 2 items")
        if len(set(ranking)) != m:
            raise ValueError(f"ranking {ranking} has duplicate items (ties are not modeled)")
        if any(k < 0 for k in ranking):
            raise ValueError("item indices must be nonnegative")
        cutoff = m if self.cutoff == -1 else int(self.cutoff)
        if not 1 <= cutoff <= m:
            raise ValueError(f"cutoff {cutoff} outside [1, {m}]")
        object.__setattr__(self, "cutoff", cutoff)

    @property
    def m(self) -> int:
        return len(self.ranking)

    @property
    def edge(self) -> Edge:
        return tuple(sorted(self.ranking))

    @property
    def is_full(self) -> bool:
        return self.cutoff == self.m

    def with_cutoff(self, y) -> "Observation":
        """Copy with the cutoff replaced by ``min(y, m)`` ("full" resets it);
        ``self`` when the cutoff is unchanged (observations are immutable)."""
        m = len(self.ranking)
        cutoff = m if y == "full" or y is None else min(int(y), m)
        if cutoff == self.cutoff:
            return self
        if not 1 <= cutoff <= m:
            return Observation(self.ranking, cutoff)  # validates (-1 means full)
        # the ranking is already validated: set the fields without re-checking
        out = object.__new__(Observation)
        object.__setattr__(out, "ranking", self.ranking)
        object.__setattr__(out, "cutoff", cutoff)
        return out


@dataclass
class Dataset:
    """``n`` items plus independent comparison observations.

    The comparison hypergraph is implied by the observation edges; repeated
    edges are legitimate (independent comparisons) and count with multiplicity.
    """

    n: int
    observations: list[Observation] = field(default_factory=list)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        for obs in self.observations:
            if max(obs.ranking) >= self.n:
                raise ValueError(f"observation {obs.ranking} references item >= n={self.n}")

    def __len__(self) -> int:
        return len(self.observations)

    @property
    def edges(self) -> list[Edge]:
        return [obs.edge for obs in self.observations]

    def degrees(self) -> np.ndarray:
        """Per-item comparison counts N_k."""
        items = [k for obs in self.observations for k in obs.ranking]
        return np.bincount(np.asarray(items, dtype=np.int64), minlength=self.n)

    def with_cutoff(self, y) -> "Dataset":
        """New dataset with every cutoff replaced (``y`` int or ``"full"``)."""
        if y in ("full", None) and all(obs.is_full for obs in self.observations):
            return self
        return Dataset(self.n, [obs.with_cutoff(y) for obs in self.observations])


def _suffix_logsumexp(values: np.ndarray) -> np.ndarray:
    """logsumexp over suffixes: out[j] = log sum_{t>=j} exp(values[t])."""
    return np.logaddexp.accumulate(values[..., ::-1], axis=-1)[..., ::-1]


def pl_log_probability(u, obs: Observation) -> float:
    """Log-probability of the top-``cutoff`` portion of ``obs`` under ``u``.

    Sequential-choice form: sum over observed positions j of
    ``u[pi(j)] - log sum_{t>=j} exp(u[pi(t)])``. For a full observation this
    is the exact log-mass of the ranking.
    """
    u = check_utilities(u)
    if max(obs.ranking) >= u.shape[0]:
        raise ValueError("observation references item outside the utility vector")
    vals = u[list(obs.ranking)]
    lse = _suffix_logsumexp(vals)
    return float(np.sum(vals[: obs.cutoff] - lse[: obs.cutoff]))


def sample_ranking(u, edge, rng: np.random.Generator) -> Ranking:
    """Draw a full ranking of ``edge`` from the model (best first).

    Equivalent to sequentially picking each next item with probability
    proportional to exp(u); implemented as a Gumbel-max argsort.
    """
    return _draw_ranking(check_utilities(u), tuple(edge), rng)


def _draw_ranking(u: np.ndarray, edge: tuple, rng: np.random.Generator) -> Ranking:
    keys = u[list(edge)] + rng.gumbel(size=len(edge))
    order = np.argsort(-keys, kind="stable")
    return tuple(edge[i] for i in order)


def sample_rankings(u, edges, rng: np.random.Generator, cutoff=None) -> "Dataset":
    """Sample one observation per edge; ``cutoff`` as in ``with_cutoff``."""
    u = check_utilities(u)
    n = u.shape[0]
    obs = [Observation(_draw_ranking(u, tuple(e), rng)).with_cutoff(cutoff) for e in edges]
    return Dataset(n, obs)


def marginal_probability(u, edge, relative_order, max_size: int = MAX_ENUMERATION_SIZE) -> float:
    """Probability that ``relative_order`` items appear in that order within a
    full ranking of ``edge``.

    Exact brute force over all permutations of the edge (internal-consistency
    oracle, so the edge size is capped).
    """
    u = check_utilities(u)
    edge = tuple(sorted(edge))
    order = tuple(relative_order)
    if len(set(order)) != len(order):
        raise ValueError("relative_order has duplicates")
    if not set(order) <= set(edge):
        raise ValueError("relative_order items must belong to the edge")
    if len(edge) > max_size:
        raise ValueError(f"edge size {len(edge)} exceeds enumeration cap {max_size}")
    pos = {k: i for i, k in enumerate(order)}
    total = 0.0
    for perm in itertools.permutations(edge):
        ranks = [r for r, k in enumerate(perm) if k in pos]
        if [pos[perm[r]] for r in ranks] == list(range(len(order))):
            total += math.exp(pl_log_probability(u, Observation(perm)))
    return total


def full_breaking(obs: Observation) -> list[tuple[int, int]]:
    """All implied (winner, loser) pairs with the winner inside the cutoff."""
    pi, y = obs.ranking, obs.cutoff
    return [(pi[j], pi[t]) for j in range(min(y, obs.m - 1)) for t in range(j + 1, obs.m)]


def broken_pairs(dataset: Dataset) -> np.ndarray:
    """(n_pairs, 2) winner/loser array from full-breaking every observation:
    the rows of :func:`full_breaking`, concatenated in observation order.

    Each (edge size, cutoff) group of :func:`grouped_rankings` fills its rows
    from one (winner position, loser position) template.
    """
    groups = grouped_rankings(dataset)
    templates = {}
    counts = np.zeros(len(dataset), dtype=np.int64)
    for (m, y), (idx, _) in groups.items():
        win, lose = np.triu_indices(m, 1)  # j < t, j-major as in full_breaking
        keep = win < y  # winners inside the cutoff (win <= m - 2 always)
        templates[m, y] = win[keep], lose[keep]
        counts[idx] = keep.sum()
    starts = np.cumsum(counts) - counts
    pairs = np.empty((int(counts.sum()), 2), dtype=np.int64)
    for (m, y), (idx, rankings) in groups.items():
        win, lose = templates[m, y]
        rows = starts[idx][:, None] + np.arange(win.size)
        pairs[rows, 0] = rankings[:, win]
        pairs[rows, 1] = rankings[:, lose]
    return pairs


def grouped_rankings(dataset: Dataset) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
    """Group observations by (edge size m, cutoff y), in order of first
    appearance: (m, y) -> (observation indices (n_g,), rankings (n_g, m)).

    The one grouping every vectorized consumer iterates (likelihood engine,
    pair breaking, Hessians, variance sums); sorted edges are
    ``np.sort(rankings, axis=1)``.
    """
    buckets: dict[tuple[int, int], tuple[list, list]] = {}
    for i, obs in enumerate(dataset.observations):
        idx, rk = buckets.setdefault((len(obs.ranking), obs.cutoff), ([], []))
        idx.append(i)
        rk.append(obs.ranking)
    return {
        key: (np.asarray(idx, dtype=np.int64), np.asarray(rk, dtype=np.int64))
        for key, (idx, rk) in buckets.items()
    }


# ---------------------------------------------------------------------------
# Serialization: CSV of (obs_id, rank, item) rows plus a JSON sidecar carrying
# n and any non-full cutoffs. A missing cutoff entry means y = m.
# ---------------------------------------------------------------------------


def sidecar_path(path) -> Path:
    return Path(path).with_suffix(".json")


def save_dataset(dataset: Dataset, path) -> None:
    path = Path(path)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["obs_id", "rank", "item"])
        for i, obs in enumerate(dataset.observations):
            for rank, item in enumerate(obs.ranking, start=1):
                writer.writerow([i, rank, item])
    cutoffs = {str(i): obs.cutoff for i, obs in enumerate(dataset.observations) if not obs.is_full}
    with open(sidecar_path(path), "w") as f:
        json.dump({"n": dataset.n, "cutoffs": cutoffs}, f, indent=0, sort_keys=True)


def load_dataset(path) -> Dataset:
    """Read a dataset CSV (+ optional sidecar). Observation order follows the
    first appearance of each obs_id; ranks must form 1..m."""
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
            except (ValueError, AttributeError) as exc:
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
