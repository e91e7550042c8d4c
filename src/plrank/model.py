"""Core Plackett-Luce model: ranking probabilities, sampling, marginalization,
pairwise breaking, and dataset serialization.

Items are integers ``0..n-1``. A comparison edge is a sorted tuple of items;
an observed ranking is a tuple listing the edge's items best-to-worst. Each
observation carries a cutoff ``y``: only the top-``y`` positions are treated
as observed, the rest matter only through set membership. Utilities are plain
length-``n`` float arrays; the model is shift-invariant and estimates are
identified by the sum-to-zero convention (see :func:`center`).

A :class:`Dataset` stores only its (edge size, cutoff) blocks of rankings
(:func:`grouped_rankings`); its ``observations`` are a list built on each
access, so mutating that list does not change the dataset.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
from dataclasses import dataclass
from operator import itemgetter
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
        cutoff = _resolve_cutoff(y, self.m)
        return self if cutoff == self.cutoff else Observation(self.ranking, cutoff)


def _resolve_cutoff(y, m: int) -> int:
    """The cutoff ``y`` ("full" or None: no cutoff) gives an m-item edge."""
    return m if y == "full" or y is None else min(int(y), m)


class Dataset:
    """``n`` items plus independent comparison observations.

    The comparison hypergraph is implied by the observation edges; repeated
    edges are legitimate (independent comparisons) and count with multiplicity.
    A dataset stores only its (edge size, cutoff) blocks, which
    :func:`grouped_rankings` returns. ``observations`` and ``edges`` are lists
    built on each access, so changing them does not change the dataset.
    """

    def __init__(self, n: int, observations=()):
        buckets: dict[tuple[int, int], tuple[list, list]] = {}
        for i, obs in enumerate(observations):
            idx, rankings = buckets.setdefault((obs.m, obs.cutoff), ([], []))
            idx.append(i)
            rankings.append(obs.ranking)
        self.n, self._blocks = int(n), _checked_blocks(n, buckets)

    @classmethod
    def from_blocks(cls, n: int, blocks) -> "Dataset":
        """Dataset of (m, y) -> (observation indices, rankings (n_g, m))
        blocks, in any group and row order; the indices number the
        observations 0..N-1. Raises the ``ValueError`` that ``Observation``
        and ``Dataset(n, observations)`` raise on the same rankings."""
        dataset = cls.__new__(cls)
        dataset.n, dataset._blocks = int(n), _checked_blocks(n, blocks)
        return dataset

    def __len__(self) -> int:
        return sum(len(idx) for idx, _ in self._blocks.values())

    def _rows(self, sort: bool) -> list[tuple[int, tuple]]:
        """(cutoff, items) of every observation in order; items sorted when ``sort``."""
        out = [None] * len(self)
        for (_, y), (idx, rankings) in self._blocks.items():
            for i, row in zip(idx.tolist(), (np.sort(rankings, axis=1) if sort else rankings).tolist()):
                out[i] = y, tuple(row)
        return out

    @property
    def observations(self) -> list[Observation]:
        return [Observation(ranking, y) for y, ranking in self._rows(sort=False)]

    @property
    def edges(self) -> list[Edge]:
        return [edge for _, edge in self._rows(sort=True)]

    def degrees(self) -> np.ndarray:
        """Per-item comparison counts N_k."""
        deg = np.zeros(self.n, dtype=np.int64)
        for _, rankings in self._blocks.values():
            deg += np.bincount(rankings.ravel(), minlength=self.n)
        return deg

    def with_cutoff(self, y) -> "Dataset":
        """Dataset with every cutoff replaced (``y`` int or ``"full"``) as in
        :meth:`Observation.with_cutoff`; ``self`` when no cutoff changes."""
        if all(_resolve_cutoff(y, m) == old for m, old in self._blocks):
            return self
        merged: dict[tuple[int, int], list] = {}
        for (m, _), block in self._blocks.items():
            merged.setdefault((m, _resolve_cutoff(y, m)), []).append(block)
        return Dataset.from_blocks(self.n, {key: [np.concatenate(a) for a in zip(*parts)] for key, parts in merged.items()})


def _checked_blocks(n: int, blocks) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
    """Validated read-only copies of the blocks, ordered as :func:`grouped_rankings` says."""
    if n < 1:
        raise ValueError("n must be positive")
    out = {}
    for (m, y), (idx, rankings) in blocks.items():
        if len(idx) == 0:
            continue
        order = np.argsort(idx, kind="stable")
        idx, rankings = np.asarray(idx, dtype=np.int64)[order], np.asarray(rankings, dtype=np.int64).reshape(len(idx), m)[order]
        ordered = np.sort(rankings, axis=1)
        bad = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1) | (ordered[:, :1] < 0).any(axis=1))
        if m < 2 or not 1 <= y <= m or bad.size:
            Observation(tuple(rankings[bad[0] if bad.size else 0].tolist()), y)  # raises the row's error
            raise ValueError(f"cutoff {y} outside [1, {m}]")  # y = -1, which Observation reads as full
        bad = np.flatnonzero(ordered[:, -1] >= n)
        if bad.size:
            raise ValueError(f"observation {tuple(rankings[bad[0]].tolist())} references item >= n={n}")
        idx.flags.writeable = rankings.flags.writeable = False
        out[int(m), int(y)] = idx, rankings
    every = np.sort(np.concatenate([np.empty(0, np.int64), *(idx for idx, _ in out.values())]))
    if not np.array_equal(every, np.arange(len(every))):
        raise ValueError("observation indices must number the observations 0..N-1, each once")
    return dict(sorted(out.items(), key=lambda group: group[1][0][0]))


def _edge_scores(u: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """exp(u) of the items of each row of ``edges``, shifted by the row's own
    maximum: ratios within an edge are exact, and no row underflows whole."""
    vals = u[edges]
    return np.exp(vals - functools.reduce(np.maximum, vals.T)[:, None])


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
    u, edge = check_utilities(u), tuple(edge)
    keys = u[list(edge)] + rng.gumbel(size=len(edge))
    return tuple(edge[i] for i in np.argsort(-keys, kind="stable"))


def sample_rankings(u, edges, rng: np.random.Generator, cutoff=None) -> "Dataset":
    """Sample one observation per edge; ``cutoff`` as in ``with_cutoff``.

    Draws the same random numbers as a :func:`sample_ranking` call per edge,
    in edge order, with one Gumbel vector for the whole call.
    """
    u = check_utilities(u)
    return _redraw(u, _edge_dataset(edges, u.shape[0]), rng).with_cutoff(cutoff)


def _edge_dataset(edges, n: int | None = None) -> Dataset:
    """Full observations that rank each edge's items in the given order;
    ``n`` defaults to one more than the largest item."""
    edges = list(edges)
    sizes = np.fromiter(map(len, edges), dtype=np.int64, count=len(edges))
    blocks = {}
    for m in dict.fromkeys(sizes.tolist()):
        idx = np.flatnonzero(sizes == m)
        items = itertools.chain.from_iterable(map(edges.__getitem__, idx.tolist()))
        blocks[m, m] = idx, np.fromiter(items, dtype=np.int64, count=len(idx) * m).reshape(-1, m)
    if n is None and not blocks:
        raise ValueError("cannot infer n from an empty edge list; pass n")
    n = 1 + max(int(rankings.max()) for _, rankings in blocks.values()) if n is None else n
    return Dataset.from_blocks(n, blocks)


def _row_starts(blocks, width) -> tuple[np.ndarray, int]:
    """First row of each observation, and the row count, when observations
    of the (m, y) blocks take ``width(m, y)`` consecutive rows in order."""
    widths = np.zeros(sum(len(idx) for idx, _ in blocks.values()), dtype=np.int64)
    for (m, y), (idx, _) in blocks.items():
        widths[idx] = width(m, y)
    return np.cumsum(widths) - widths, int(widths.sum())


def _redraw(u: np.ndarray, dataset: Dataset, rng: np.random.Generator) -> Dataset:
    """``dataset`` with each ranking's items drawn again in model order,
    cutoffs kept: one Gumbel key per position in observation order, and
    each row sorted by descending utility plus key (as :func:`sample_ranking`)."""
    groups = grouped_rankings(dataset)
    starts, total = _row_starts(groups, lambda m, y: m)
    gumbel = rng.gumbel(size=total)
    blocks = {}
    for (m, y), (idx, items) in groups.items():
        keys = u[items] + gumbel[starts[idx][:, None] + np.arange(m)]
        blocks[m, y] = idx, np.take_along_axis(items, np.argsort(-keys, axis=1, kind="stable"), axis=1)
    return Dataset.from_blocks(dataset.n, blocks)


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


@functools.lru_cache(maxsize=None)
def _pairs(m: int) -> np.ndarray:
    """Position pairs (p, q), p < q, of an m-edge, p-major as in :func:`full_breaking`
    (read-only): the per-edge pair table of every pairwise consumer."""
    out = np.asarray(list(itertools.combinations(range(m), 2)), dtype=np.int64).reshape(-1, 2)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=None)
def _triples(m: int) -> np.ndarray:
    """Position triples (k, q, r) of an m-edge, a centre k and a pair q < r of
    the other positions, centre-major (read-only): the QMLE's cross terms."""
    rows = [(k, q, r) for k in range(m) for q, r in itertools.combinations([i for i in range(m) if i != k], 2)]
    out = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
    out.flags.writeable = False
    return out


def broken_pairs(dataset: Dataset) -> np.ndarray:
    """(n_pairs, 2) winner/loser array from full-breaking every observation:
    the rows of :func:`full_breaking`, concatenated in observation order.

    Each (edge size, cutoff) group fills its rows from the :func:`_pairs`
    rows whose winner is inside the cutoff.
    """
    groups = grouped_rankings(dataset)
    starts, total = _row_starts(groups, lambda m, y: int((_pairs(m)[:, 0] < y).sum()))
    pairs = np.empty((total, 2), dtype=np.int64)
    for (m, y), (idx, rankings) in groups.items():
        win, lose = _pairs(m)[_pairs(m)[:, 0] < y].T
        rows = starts[idx][:, None] + np.arange(len(win))
        pairs[rows, 0] = rankings[:, win]
        pairs[rows, 1] = rankings[:, lose]
    return pairs


def _dominance_arcs(dataset: Dataset) -> np.ndarray:
    """(n_arcs, 2) loser/winner arcs, m - 1 per observation, with the
    reachability of :func:`broken_pairs`: position p = 1..m-1 of an (m, y)
    group points to position min(p, y) - 1, the item just above it inside
    the cutoff, else the last observed winner. Each arc is a broken pair,
    and every broken pair's loser reaches its winner along the arcs."""
    arcs = [np.empty((0, 2), dtype=np.int64)]
    for (m, y), (_, rankings) in grouped_rankings(dataset).items():
        loser = np.arange(1, m)
        arcs.append(np.stack([rankings[:, loser], rankings[:, np.minimum(loser, y) - 1]], axis=2).reshape(-1, 2))
    return np.concatenate(arcs)


#: Frontier rounds after which :func:`_reaches_all` gives up (:func:`_sink_component` then asks csgraph).
SWEEP_ROUNDS = 64


def _reaches_all(arcs: np.ndarray, n: int) -> bool:
    """Whether item 0 reaches all ``n`` items along the (tail, head) rows of
    ``arcs`` within :data:`SWEEP_ROUNDS` frontier rounds; False when a round
    adds no item (some item is unreachable) or the rounds run out (undecided)."""
    tail, head = np.ascontiguousarray(arcs.T)
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    for _ in range(SWEEP_ROUNDS):
        reached = np.count_nonzero(seen)
        seen[head[seen[tail]]] = True
        if np.count_nonzero(seen) in (n, reached):
            break
    return bool(seen.all())


def _sink_component(arcs: np.ndarray, n: int) -> np.ndarray | None:
    """None when the (tail, head) rows of ``arcs`` connect all ``n`` items
    strongly, else the items of a strong component that no arc leaves (a
    sink of the condensation). Numpy sweeps from item 0 along and against
    the arcs decide most inputs; scipy's strong components decide the rest."""
    if _reaches_all(arcs, n) and _reaches_all(arcs[:, ::-1], n):
        return None
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    adj = sp.coo_matrix((np.ones(len(arcs)), (arcs[:, 0], arcs[:, 1])), shape=(n, n)).tocsr()
    n_comp, labels = connected_components(adj, directed=True, connection="strong")
    tail, head = labels[arcs[:, 0]], labels[arcs[:, 1]]
    sinks = np.setdiff1d(np.arange(n_comp), tail[tail != head])
    return None if n_comp == 1 else np.flatnonzero(labels == sinks[0])


def grouped_rankings(dataset: Dataset) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
    """The dataset's stored blocks: (edge size m, cutoff y) -> (observation
    indices (n_g,), rankings (n_g, m)), groups in order of first appearance,
    rows in observation order, arrays read-only. Do not modify the dict.

    The one grouping every vectorized consumer iterates (likelihood engine,
    pair breaking, Hessians, variance sums); sorted edges are
    ``np.sort(rankings, axis=1)``.
    """
    return dataset._blocks


# ---------------------------------------------------------------------------
# Serialization: CSV of (obs_id, rank, item) rows plus a JSON sidecar carrying
# n and any non-full cutoffs. A missing cutoff entry means y = m.
# ---------------------------------------------------------------------------


def sidecar_path(path) -> Path:
    return Path(path).with_suffix(".json")


def save_dataset(dataset: Dataset, path) -> None:
    groups = grouped_rankings(dataset)
    starts, total = _row_starts(groups, lambda m, y: m)
    rows = np.empty((total, 3), dtype=np.int64)  # obs_id, rank, item
    for (m, _), (idx, rankings) in groups.items():
        rows[starts[idx][:, None] + np.arange(m)] = np.stack(np.broadcast_arrays(idx[:, None], np.arange(1, m + 1), rankings), axis=2)
    cutoffs = {str(i): y for (m, y), (idx, _) in groups.items() if y < m for i in idx.tolist()}
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["obs_id", "rank", "item"])
        writer.writerows(rows.tolist())
    with open(sidecar_path(path), "w") as f:
        json.dump({"n": dataset.n, "cutoffs": cutoffs}, f, indent=0, sort_keys=True)


def load_dataset(path) -> Dataset:
    """Read a dataset CSV (+ optional sidecar). Observation order follows the
    first appearance of each obs_id; ranks must form 1..m.

    The cells are read as columns, and one lexsort orders them by
    observation, rank and item. Errors come as a row-by-row reader meets
    them: the first row that does not parse, then the first observation
    whose ranks are not 1..m or whose ranking or cutoff is invalid.
    """
    path = Path(path)
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or not {"obs_id", "rank", "item"} <= set(header):
            raise DataFormatError(f"{path}: expected header obs_id,rank,item")
        rows = list(filter(None, reader))  # blank lines are skipped
    column = {name: i for i, name in enumerate(header)}  # a repeated name means its last cell
    try:
        oids = [row[column["obs_id"]].strip() for row in rows]
        ranks, items = (np.fromiter(map(int, map(itemgetter(column[name]), rows)), dtype=np.int64, count=len(rows)) for name in ("rank", "item"))
    except (ValueError, IndexError):
        _raise_bad_row(path)

    side = sidecar_path(path)
    meta = {}
    if side.exists():
        with open(side) as f:
            meta = json.load(f)
    cutoffs = meta.get("cutoffs", {})

    ids = list(dict.fromkeys(oids))
    obs = _codes(oids, ids)
    order = np.lexsort((items, ranks, obs))
    obs, ranks, items = obs[order], ranks[order], items[order]
    sizes = np.bincount(obs, minlength=len(ids))
    starts = np.cumsum(sizes) - sizes
    try:
        if (ranks != np.arange(len(obs)) - starts[obs] + 1).any():
            raise ValueError("ranks are not 1..m")
        y = np.array([int(cutoffs.get(oid, m)) for oid, m in zip(ids, sizes.tolist())], dtype=np.int64)
        y = np.where(y == -1, sizes, y)  # Observation's sentinel for a full ranking
        n = int(meta.get("n", 1 + int(items.max()))) if len(ids) else int(meta.get("n", 1))
        blocks = {}
        for m, cutoff in dict.fromkeys(zip(sizes.tolist(), y.tolist())):
            idx = np.flatnonzero((sizes == m) & (y == cutoff))
            blocks[m, cutoff] = idx, items[starts[idx][:, None] + np.arange(m)]
        return Dataset.from_blocks(n, blocks)
    except (TypeError, ValueError, OverflowError):
        # raise the error that checking observation by observation meets first
        for oid, ranks_k, items_k in zip(ids, np.split(ranks, starts[1:]), np.split(items, starts[1:])):
            if ranks_k.tolist() != list(range(1, len(ranks_k) + 1)):
                raise DataFormatError(f"{path}: observation {oid} ranks {ranks_k.tolist()} are not 1..m") from None
            Observation(items_k.tolist(), int(cutoffs.get(oid, len(ranks_k))))
        raise


def _codes(values, ids) -> np.ndarray:
    """Index of each value in ``ids``."""
    index = {v: i for i, v in enumerate(ids)}
    return np.fromiter(map(index.__getitem__, values), dtype=np.int64, count=len(values))


def _raise_bad_row(path):
    """Raise the DataFormatError of the first row whose obs_id, rank or item
    cell is missing or not an integer, naming the row as csv.DictReader reads it."""
    with open(path, newline="") as f:
        for lineno, row in enumerate(csv.DictReader(f), start=2):
            try:
                row["obs_id"].strip(), int(row["rank"]), int(row["item"])
            except (AttributeError, TypeError, ValueError) as exc:  # None: a short row's missing cell
                raise DataFormatError(f"{path}:{lineno}: bad row {row}") from exc
