"""Random comparison-hypergraph generators and topology diagnostics.

Generators: per-size Bernoulli / fixed-count hypergraphs with optionally
nonuniform edge probabilities, and a block model where within-community and
cross-community edges have different probabilities. Both take an explicit
seeded generator and are deterministic given (config, seed). The two edge
samplers are one draw routine (:func:`_draw_edges`) of uniform m-subsets,
optionally only community-crossing ones; it counts the eligible subsets by
arithmetic, and raises before drawing when too few exist or an item repeats
or is negative.

Diagnostics, each of a Dataset or an edge list: degree extremes, shared-edge
counts and the edge-sharing ratio, the subset-boundary Cheeger constant and
the admissible-chain expansion bound (exact scans of all 2^n subsets over
one table of distinct edge masks), spectral gaps of the normalized
expected-Hessian Laplacian and leave-one-out gaps (that Laplacian downdated
by each item's edges). Repeated edges count with multiplicity throughout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .estimators import apply_estimator_cutoff
from .likelihood import _bradley_terry_block, _expected_pair_weights, _laplacian, _pair_items, _pair_weights, _row_chunks
from .model import Dataset, Edge, _as_dataset, _dominance_arcs, _sink_component, check_utilities, grouped_rankings

DEFAULT_CHEEGER_CAP = 20
DEFAULT_CHAIN_CAP = 10


class CapExceededError(RuntimeError):
    """Exact enumeration requested beyond the configured vertex cap."""


class IsolatedVertexError(RuntimeError):
    def __init__(self, vertex: int):
        self.vertex = int(vertex)
        super().__init__(f"vertex {vertex} has no incident edges")


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeSizeRule:
    """How to include size-``m`` edges: ``constant`` includes each candidate
    independently with probability ``p``; ``uniform`` draws each candidate's
    own probability from [p, q] first (nonuniform model), which includes it
    with probability (p + q) / 2; ``fixed`` returns exactly ``count`` distinct
    uniform edges."""

    m: int
    mode: str  # "constant" | "uniform" | "fixed"
    p: float = 0.0
    q: float = 0.0
    count: int = 0

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("edge size must be >= 2")
        if self.mode not in ("constant", "uniform", "fixed"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode in ("constant", "uniform") and not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        if self.mode == "uniform" and not self.p <= self.q <= 1.0:
            raise ValueError("need p <= q <= 1")
        if self.mode == "fixed" and self.count < 0:
            raise ValueError("count must be >= 0")


@dataclass(frozen=True)
class RandomHypergraphConfig:
    """Union of independent per-size random hypergraphs on ``n`` vertices."""

    n: int
    rules: tuple[EdgeSizeRule, ...]

    def __post_init__(self):
        for rule in self.rules:
            if rule.m > self.n:
                raise ValueError(f"edge size {rule.m} exceeds n={self.n}")
            if rule.mode == "fixed" and rule.count > math.comb(self.n, rule.m):
                raise ValueError(f"cannot draw {rule.count} distinct size-{rule.m} edges from {math.comb(self.n, rule.m)} candidates")


@dataclass(frozen=True)
class BlockModelConfig:
    """m-uniform block model: ``community_sizes`` partition [0, n) into
    contiguous blocks; an edge inside block i appears with probability
    ``omega_within[i]``, any community-straddling edge with ``omega_cross``."""

    m: int
    community_sizes: tuple[int, ...]
    omega_within: tuple[float, ...] = ()
    omega_cross: float = 0.0

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"edge size m={self.m} must be >= 2")
        if any(s <= 0 for s in self.community_sizes):
            raise ValueError("community sizes must be positive")
        if len(self.omega_within) != len(self.community_sizes):
            raise ValueError("omega_within needs one probability per community")
        if any(not 0.0 <= w <= 1.0 for w in (*self.omega_within, self.omega_cross)):
            raise ValueError("probabilities must be in [0, 1]")

    @property
    def n(self) -> int:
        return int(sum(self.community_sizes))


def _random_subsets(items: np.ndarray, m: int, batch: int, rng: np.random.Generator) -> np.ndarray:
    """``batch`` uniform random m-subsets of ``items`` as sorted rows, by
    Floyd's algorithm run column by column over the batch: step j draws t
    uniform in [0, j] and keeps t, or j when t is already picked. O(batch m)
    memory and m bounded integer draws per row, with no rejection."""
    n = len(items)
    picks = np.empty((batch, m), dtype=np.int64)
    for k, j in enumerate(range(n - m, n)):
        t = rng.integers(0, j + 1, size=batch)
        picks[:, k] = np.where((picks[:, :k] == t[:, None]).any(axis=1), j, t)
    return np.sort(items[picks], axis=1)


def _eligible_count(items: np.ndarray, m: int, crossing) -> int:
    """How many m-subsets of ``items`` a draw accepts: all C(|items|, m), or
    with ``crossing`` bounds, C(|items|, m) minus sum over communities c of
    C(|items in c|, m)."""
    total = math.comb(len(items), m)
    if crossing is None:
        return total
    return total - sum(math.comb(int(k), m) for k in np.bincount(np.searchsorted(crossing, items, side="right")))


def _draw_edges(items, m: int, count: int, rng: np.random.Generator, crossing, distinct: bool) -> list[Edge]:
    """``count`` uniform m-subsets of ``items`` (distinct ones, or repeats
    allowed), keeping with ``crossing`` bounds only those whose first and last
    items fall in different communities [b_i, b_i+1): one batch when no subset
    can be rejected, else batched rejection. Raises ValueError before any draw
    when m < 2, count < 0, an item repeats or is negative, or too few subsets
    are eligible."""
    items = np.asarray(items, dtype=np.int64)
    if m < 2 or count < 0:
        raise ValueError(f"need edge size m >= 2 and count >= 0, got m={m}, count={count}")
    if (items < 0).any() or np.unique(items).size < items.size:
        raise ValueError("edge items must be distinct and nonnegative")
    eligible = _eligible_count(items, m, crossing)
    if (count > eligible) if distinct else (count > 0 and eligible == 0):
        raise ValueError(f"only {eligible} eligible size-{m} edges, {count} requested")
    if count and not distinct and crossing is None:  # nothing to reject: one batch
        return list(map(tuple, _random_subsets(items, m, count, rng).tolist()))
    out: list[Edge] = []
    seen: set[Edge] = set()
    while len(out) < count:
        need = count - len(out)
        picks = _random_subsets(items, m, max(32, need + need // 4), rng)
        if crossing is not None:
            picks = picks[np.searchsorted(crossing, picks[:, 0], side="right")
                          != np.searchsorted(crossing, picks[:, -1], side="right")]
        for pick in map(tuple, picks.tolist()):
            if distinct and pick in seen:
                continue
            seen.add(pick)
            out.append(pick)
            if len(out) == count:
                break
    return out


def sample_distinct_edges(items, m: int, count: int, rng: np.random.Generator, crossing=None) -> list[Edge]:
    """``count`` distinct uniform m-subsets of ``items``, only community-crossing
    ones when ``crossing`` gives the community bounds b_0 < b_1 < ...; raises
    ValueError when fewer eligible subsets exist (see :func:`_draw_edges`)."""
    return _draw_edges(items, m, count, rng, crossing, distinct=True)


def sample_uniform_edges(items, m: int, count: int, rng: np.random.Generator, crossing=None) -> list[Edge]:
    """``count`` i.i.d. uniform m-subsets of ``items`` (repeats allowed), as for
    independently assembled comparisons, only community-crossing ones when
    ``crossing`` gives the community bounds; raises ValueError when no subset
    is eligible (see :func:`_draw_edges`)."""
    return _draw_edges(items, m, count, rng, crossing, distinct=False)


def sample_random_hypergraph(config: RandomHypergraphConfig, rng: np.random.Generator) -> list[Edge]:
    """Draw the per-size random hypergraph.

    The Bernoulli modes avoid enumerating the candidate set: the edge count is
    Binomial(C(n, m), p) and then that many distinct edges are uniform (the
    same law as per-candidate coin flips). A ``uniform`` rule's candidates are
    i.i.d. Bernoulli((p + q) / 2), so it takes that path at p = (p + q) / 2.
    """
    edges: list[Edge] = []
    for rule in config.rules:
        count = rule.count
        if rule.mode != "fixed":
            p = (rule.p + rule.q) / 2 if rule.mode == "uniform" else rule.p
            count = int(rng.binomial(math.comb(config.n, rule.m), p)) if p > 0 else 0
        edges.extend(sample_distinct_edges(range(config.n), rule.m, count, rng))
    return edges


def sample_block_model(config: BlockModelConfig, rng: np.random.Generator) -> list[Edge]:
    """Draw the block-model hypergraph: a Binomial count per edge type, then
    that many distinct uniform edges of the type."""
    candidates = [math.comb(s, config.m) for s in config.community_sizes]
    candidates.append(math.comb(config.n, config.m) - sum(candidates))
    counts = [
        int(rng.binomial(c, w)) if c and w > 0 else 0
        for c, w in zip(candidates, (*config.omega_within, config.omega_cross))
    ]
    return _block_edges(config.community_sizes, config.m, counts, rng, sample_distinct_edges)


def _block_edges(community_sizes, m: int, counts, rng: np.random.Generator, draw) -> list[Edge]:
    """``counts`` (per community..., cross) m-item edges: uniform inside each
    contiguous community, then uniform community-straddling edges over all
    items, each type drawn by ``draw`` (:func:`sample_distinct_edges`, or
    :func:`sample_uniform_edges` when repeats are independent comparisons)."""
    bounds = np.cumsum((0, *community_sizes))
    edges: list[Edge] = []
    for lo, hi, count in zip(bounds[:-1], bounds[1:], counts[:-1]):
        edges.extend(draw(np.arange(lo, hi), m, int(count), rng))
    edges.extend(draw(range(int(bounds[-1])), m, int(counts[-1]), rng, crossing=bounds))
    return edges


# ---------------------------------------------------------------------------
# Degree-level diagnostics
# ---------------------------------------------------------------------------


def degree_stats(edges, n: int):
    """(per-vertex degree vector, min degree, max degree), with multiplicity;
    ``edges`` is an edge list or a Dataset."""
    deg = _as_dataset(edges, n).degrees()
    return deg, int(deg.min()), int(deg.max())


def _pair_counts(dataset: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Co-occurring item pairs j < k with their counts N_jk, in (j, k) order:
    one ``np.unique`` over the codes min n + max of every ranking's pairs."""
    j, k, _ = _pair_items(grouped_rankings(dataset))
    codes, counts = np.unique(np.minimum(j, k) * dataset.n + np.maximum(j, k), return_counts=True)
    return *np.divmod(codes, dataset.n), counts


def shared_edges(edges, n: int) -> dict[tuple[int, int], int]:
    """Co-occurrence counts N_jk over unordered vertex pairs j < k
    (multiplicity), keys in (j, k) order; ``edges`` is an edge list or a
    Dataset."""
    j, k, counts = _pair_counts(_as_dataset(edges, n))
    return dict(zip(zip(j.tolist(), k.tolist()), counts.tolist()))


def edge_sharing_ratio(edges, n: int) -> float:
    """max over ordered vertex pairs of N_jk / N_j (correlation strength of
    the per-item estimates; <= 1/min-degree on simple pairwise graphs), 0.0
    without edges; ``edges`` is an edge list or a Dataset."""
    dataset = _as_dataset(edges, n)
    j, k, counts = _pair_counts(dataset)
    deg = dataset.degrees()
    return float(max((counts / deg[j]).max(initial=0.0), (counts / deg[k]).max(initial=0.0)))


def boundary_edges(edges, subset) -> list[Edge]:
    """Edges meeting both ``subset`` and its complement (multiplicity kept)."""
    s = set(subset)
    return [e for e in edges if any(v in s for v in e) and any(v not in s for v in e)]


def is_connected(edges, n: int) -> bool:
    """Whether the hypergraph is connected; ``edges`` is an edge list or a
    Dataset (each observation's dominance arcs span its edge): whether the
    arcs taken both ways connect the items strongly."""
    arcs = _dominance_arcs(_as_dataset(edges, n))
    return _sink_component(np.concatenate([arcs, arcs[:, ::-1]]), n) is None


def _edge_cuts(dataset: Dataset):
    """``cut(subsets) -> (boundary, inside)``, flags (subsets, distinct edge
    bitmasks of ``dataset``) of each edge meeting both the subset and its
    complement or lying inside it, and ``counts``, how many edges have each."""
    masks = [np.bitwise_or.reduce(1 << rankings, axis=1) for _, rankings in grouped_rankings(dataset).values()]
    masks, counts = np.unique(np.concatenate([np.empty(0, np.int64), *masks]), return_counts=True)

    def cut(subsets):
        inter = subsets[:, None] & masks
        return (inter != 0) & (inter != masks), inter == masks

    return cut, counts


def modified_cheeger(edges, n: int, cap: int = DEFAULT_CHEEGER_CAP) -> float:
    """min over nonempty proper subsets U of |boundary(U)| / min(|U|, |U^c|) in
    an edge list or Dataset, by exact scan of all subsets (positive iff
    connected). ``n`` is capped."""
    dataset = _as_dataset(edges, n)
    n = dataset.n
    if n > cap:
        raise CapExceededError(f"exact subset scan needs n <= {cap}, got {n}")
    if n < 2:
        raise ValueError("need at least 2 vertices")
    cut, counts = _edge_cuts(dataset)
    # U and its complement give the same value: scan the proper subsets containing vertex 0
    subsets = np.arange(1, (1 << n) - 1, 2)
    best = math.inf
    for rows in _row_chunks(subsets.size, max(1, counts.size)):
        u = subsets[rows]
        sizes = np.bitwise_count(u)
        best = min(best, float((cut(u)[0] @ counts / np.minimum(sizes, n - sizes)).min()))
    return best


def modified_cheeger_bruteforce(edges, n: int) -> float:
    """Oracle: direct loop over subsets via boundary_edges (tiny n only)."""
    best = math.inf
    vertices = list(range(n))
    for size in range(1, n):
        for u in itertools.combinations(vertices, size):
            best = min(best, len(boundary_edges(edges, u)) / min(size, n - size))
    return best


# ---------------------------------------------------------------------------
# Spectral diagnostics
# ---------------------------------------------------------------------------


@dataclass
class SpectralDiagnostics:
    eigenvalues: np.ndarray  # of the normalized Laplacian, ascending
    s_gap: float  # min(lambda_2, 2 - lambda_n)
    lambda2_leave: float | None  # worst leave-one-out unnormalized gap


def _estimator_pair_weights(dataset: Dataset, u, estimator: str):
    """Per-edge blocks of -E[Hessian] for an estimator kind, as pair weights
    ``(i, j, w, obs)`` (see :func:`plrank.likelihood._pair_weights`): the
    Bradley-Terry weight of every item pair for qmle (its full-ranking
    expectation, whatever the stored cutoffs), the enumerated expected
    marginal blocks at the kind's cutoff
    (:func:`plrank.estimators.apply_estimator_cutoff`) otherwise."""
    if estimator == "qmle":
        return _pair_weights(u, grouped_rankings(dataset), _bradley_terry_block)
    return _expected_pair_weights(u, apply_estimator_cutoff(dataset, estimator))


def spectral_diagnostics(
    dataset_or_edges,
    u=None,
    estimator: str = "qmle",
    leave_one_out: bool = True,
    n: int | None = None,
) -> SpectralDiagnostics:
    """Spectrum of the normalized expected-Hessian Laplacian.

    Accepts a Dataset or a bare edge list (edges are then treated as full
    observations; the expectation never depends on outcomes). ``u`` defaults
    to all zeros. Raises :class:`IsolatedVertexError` on zero-degree vertices.

    Every edge's pair weights are built once per call, and so is the dense
    Laplacian L. Item k's leave-one-out Laplacian is L minus the Laplacian
    of the pairs of the edges that contain k, with row and column k dropped.
    """
    dataset = _as_dataset(dataset_or_edges, n)
    n = dataset.n
    u = np.zeros(n) if u is None else check_utilities(u, n)
    i, j, w, obs = _estimator_pair_weights(dataset, u, estimator)
    lap = _laplacian(n, i, j, w)
    d = np.diag(lap)
    if np.any(d <= 0):
        raise IsolatedVertexError(int(np.flatnonzero(d <= 0)[0]))
    inv_sqrt = 1.0 / np.sqrt(d)
    eigs = np.linalg.eigvalsh(lap * inv_sqrt[:, None] * inv_sqrt[None, :])
    s_gap = float(min(eigs[1], 2.0 - eigs[-1]))
    lam_leave = None
    if leave_one_out:
        import scipy.linalg

        lam_leave = math.inf
        for k in range(n):
            rows = np.isin(obs, obs[(i == k) | (j == k)])
            keep = np.arange(n) != k
            lap_k = (lap - _laplacian(n, i[rows], j[rows], w[rows]))[np.ix_(keep, keep)]
            lam_k = scipy.linalg.eigvalsh(lap_k, subset_by_index=[1, 1])[0] if n > 2 else 0.0
            lam_leave = min(lam_leave, float(lam_k))
    return SpectralDiagnostics(eigenvalues=eigs, s_gap=s_gap, lambda2_leave=lam_leave)


# ---------------------------------------------------------------------------
# Admissible-chain expansion bound
# ---------------------------------------------------------------------------


def expansion_chain_bound(edges, n: int, cap: int = DEFAULT_CHAIN_CAP) -> float:
    """Worst-case sum of sqrt(log n / h(A_j)) over admissible chains.

    A chain of strictly increasing vertex subsets is admissible when, at every
    step, at least half of the current boundary edges land inside the next
    set; the final set contributes no summand. Exact dynamic program over all
    subsets of an edge list or Dataset, so ``n`` is tightly capped. Errors on
    disconnected graphs (some h(A) would be zero).
    """
    dataset = _as_dataset(edges, n)
    n = dataset.n
    if n > cap:
        raise CapExceededError(f"admissible-chain enumeration needs n <= {cap}, got {n}")
    if not is_connected(dataset, n):
        raise ValueError("expansion bound undefined on a disconnected graph")
    cut, counts = _edge_cuts(dataset)
    sets = np.arange(1 << n)
    inside = cut(sets)[1].T.astype(float)
    # f(A) = best chain total from A, levels n - 1 down to 1, f(full) = 0; held @ inside
    # counts A's boundary edges inside each B exactly (float sums of integers < 2**53)
    f = np.zeros(sets.size)
    for k in range(n - 1, 0, -1):
        level = sets[np.bitwise_count(sets) == k]
        for rows in _row_chunks(level.size, sets.size):
            a = level[rows, None]
            held = cut(a[:, 0])[0] * counts
            bd = held.sum(axis=1, keepdims=True)
            follows = (sets & a == a) & (sets != a) & (2 * (held @ inside) >= bd)
            weight = np.sqrt(math.log(n) / (bd[:, 0] / min(k, n - k)))  # h > 0: the graph is connected
            f[a[:, 0]] = np.maximum(0.0, weight + np.where(follows, f, -np.inf).max(axis=1))
    return float(f.max())


def enumerate_admissible_chains(edges, n: int, cap: int = DEFAULT_CHAIN_CAP):
    """Oracle helper: yield every admissible chain (as tuples of frozensets).

    Exponential; for cross-checking :func:`expansion_chain_bound` at tiny n.
    """
    if n > cap:
        raise CapExceededError(f"chain enumeration needs n <= {cap}, got {n}")
    full = (1 << n) - 1
    edge_masks = [sum(1 << v for v in set(e)) for e in edges]

    def to_set(mask):
        return frozenset(v for v in range(n) if mask >> v & 1)

    def extend(chain_masks):
        yield tuple(chain_masks)
        last = chain_masks[-1]
        if last == full:
            return
        bd = [i for i, em in enumerate(edge_masks) if em & last and em & ~last & full]
        rest = full & ~last
        sub = rest
        while sub:
            nxt = last | sub
            inside = sum(1 for i in bd if edge_masks[i] & ~nxt & full == 0)
            if 2 * inside >= len(bd):
                yield from extend(chain_masks + [nxt])
            sub = (sub - 1) & rest

    for a in range(1, full + 1):
        for chain in extend([a]):
            yield tuple(to_set(mask) for mask in chain)


def chain_score(edges, n: int, chain) -> float:
    """Sum of sqrt(log n / h(A_j)) over all but the last set of a chain."""
    total = 0.0
    for a in list(chain)[:-1]:
        h = len(boundary_edges(edges, a)) / min(len(a), n - len(a))
        total += math.sqrt(math.log(n) / h)
    return total


# ---------------------------------------------------------------------------
# Bundled report
# ---------------------------------------------------------------------------


@dataclass
class GraphDiagnostics:
    n: int
    n_edges: int
    degree_min: int
    degree_max: int
    r_ratio: float
    connected: bool
    s_gap: float | None = None
    lambda2_leave: float | None = None
    cheeger: float | None = None
    gamma_re: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def graph_diagnostics(
    dataset_or_edges,
    n: int | None = None,
    u=None,
    estimator: str = "qmle",
    exact_cheeger: bool = False,
    chain_bound: bool = False,
    cheeger_cap: int = DEFAULT_CHEEGER_CAP,
    chain_cap: int = DEFAULT_CHAIN_CAP,
    spectral: bool = True,
) -> GraphDiagnostics:
    """One-call bundle of the topology quantities governing estimator quality."""
    dataset = _as_dataset(dataset_or_edges, n)
    _, dmin, dmax = degree_stats(dataset, dataset.n)
    out = GraphDiagnostics(
        n=dataset.n,
        n_edges=len(dataset),
        degree_min=dmin,
        degree_max=dmax,
        r_ratio=edge_sharing_ratio(dataset, dataset.n),
        connected=is_connected(dataset, dataset.n),
    )
    if spectral and dmin > 0:
        spectrum = spectral_diagnostics(dataset, u, estimator)
        out.s_gap = spectrum.s_gap
        out.lambda2_leave = spectrum.lambda2_leave
    if exact_cheeger:
        out.cheeger = modified_cheeger(dataset, dataset.n, cap=cheeger_cap)
    if chain_bound:
        out.gamma_re = expansion_chain_bound(dataset, dataset.n, cap=chain_cap)
    return out
