"""Log-likelihoods, scores, Hessians, and expected Hessians.

One engine serves every estimator. Observations are grouped by (edge size m,
cutoff y) (:func:`plrank.model.grouped_rankings`), and the marginal
log-likelihood sums the observed top-``y`` sequential-choice log-masses of
every group. The QMLE's quasi log-likelihood is the same objective on one
(2, 1) group: the Bradley-Terry pairs of :func:`plrank.model.broken_pairs`
(full rank breaking). Scores sum to zero within each edge, and Hessians are
negatives of weighted graph Laplacians on co-edge pairs, assembled from
per-edge weights on one pair table (:func:`_pair_items`, the position pairs
of each stored ranking): sparsely, with the diagonal set to minus the row
sums, or densely (:func:`_laplacian`) for spectral work.

Scores and the fit's stage sums exponentiate ``u - max(u)`` with one global
shift, so an observation whose items all sit more than about 745 below the
largest utility underflows to a zero score sum; Hessian blocks shift each
edge by its own maximum instead, and an edge whose utilities spread by more
than :data:`_RESCUE_SPREAD` goes through a log-domain walk
(:func:`_rescued_pair_weights`).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .model import Dataset, _edge_scores, _pairs, _suffix_logsumexp, broken_pairs, check_utilities, grouped_rankings

_HESSIAN_CHUNK = 1 << 16  # elements the temporaries of an expected-Hessian batch hold, about
#: Within-edge utility spread up to which every per-edge shifted score, and
#: the square of every stage sum, is a normal double (exp(-600) > 2.2e-308).
_RESCUE_SPREAD = 300.0


class EnumerationBudgetError(RuntimeError):
    """Exact enumeration would exceed the configured budget.

    ``per_edge`` maps observation index -> required enumeration count.
    """

    def __init__(self, message, per_edge=None):
        super().__init__(message)
        self.per_edge = dict(per_edge or {})


def _pair_block(dataset: Dataset) -> dict:
    """The QMLE's data as the engine's one (edge size 2, cutoff 1) group: the
    winner/loser rows of :func:`broken_pairs`, indexed by pair row (a range,
    so the index costs no memory during a fit)."""
    pairs = broken_pairs(dataset)
    return {(2, 1): (range(len(pairs)), pairs)}


def _marginal_pass(u, groups, work: dict | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pass over the (m, y) groups at ``u``: (score, V, L).

    Position p of a group holds item k = ranking[p] with score
    a_p = exp(u_k - max u); with suffix sums S_j = sum_{t >= j} a_t, k adds
    1{p < y}/S_p to V (1/S summed over the stages k wins) and the running
    sum sum_{j < min(p, y)} 1/S_j to L (over the stages k is chosen
    against). V + L is the MM denominator, and the score is
    ``wins - a * (V + L)``, wins counting the observed positions. Each
    group's scratch arrays (the scores, and the 1/S_j rows, whose first row
    also carries the running S) and the win counts live in ``work``; a fit
    passes one dict to all its passes, so only the first allocates.
    """
    e = np.exp(u - u.max())
    v, lose = np.zeros((2, u.shape[0]))
    work = {} if work is None else work
    wins = work.setdefault("wins", np.zeros(u.shape[0], dtype=np.int64))
    for (m, y), (_, rankings) in groups.items():
        if (m, y) not in work:  # a fit's first pass: allocate, and count wins
            work[m, y] = np.empty((m, len(rankings))), np.empty((y, len(rankings)))
            wins += np.bincount(rankings[:, :y].ravel(), minlength=u.shape[0])
        a, t = work[m, y]
        for p in range(m):
            np.take(e, rankings[:, p], out=a[p], mode="clip")
        s = t[0]
        s[:] = a[m - 1]
        if y == m:
            np.divide(1.0, s, out=t[m - 1])
        for j in range(m - 2, -1, -1):
            s += a[j]
            if j < y:
                np.divide(1.0, s, out=t[j])  # at j = 0, S_0 turns into 1/S_0
        c = t[0]  # becomes the running sum over the stages before p
        for p in range(m):
            if p:
                np.add.at(lose, rankings[:, p], c)
            if p < y:
                np.add.at(v, rankings[:, p], t[p])
                if p:
                    c += t[p]
    return wins - e * (v + lose), v, lose


def _marginal_loglik_from_groups(u, groups) -> float:
    total = 0.0
    for (_, y), (_, rankings) in groups.items():
        vals = u[rankings]
        total += float(np.sum(vals[:, :y] - _suffix_logsumexp(vals)[:, :y]))
    return total


def marginal_log_likelihood(u, dataset: Dataset) -> float:
    """Sum of top-``y`` sequential-choice log-masses over all observations."""
    u = check_utilities(u, dataset.n)
    return _marginal_loglik_from_groups(u, grouped_rankings(dataset))


def quasi_log_likelihood(u, dataset: Dataset) -> float:
    """Bradley-Terry log-likelihood of the fully broken pairwise outcomes: the
    marginal log-likelihood of the (2, 1) broken-pairs group."""
    u = check_utilities(u, dataset.n)
    return _marginal_loglik_from_groups(u, _pair_block(dataset))


def marginal_score(u, dataset: Dataset) -> np.ndarray:
    """Gradient of :func:`marginal_log_likelihood`.

    Entry k accumulates, over observations containing k,
    ``1{r(k) <= y} - sum_{j <= r(k) ^ y} exp(u_k) / S_j`` with S_j the score
    sum over ranks >= j. Within each observation the entries sum to zero.
    """
    u = check_utilities(u, dataset.n)
    return _marginal_pass(u, grouped_rankings(dataset))[0]


def quasi_score(u, dataset: Dataset) -> np.ndarray:
    """Gradient of :func:`quasi_log_likelihood` (rank-matching residuals).

    For full observations entry k equals
    ``sum_i (E_u[r_i(k)] - r_i(k))`` over observations containing k.
    """
    u = check_utilities(u, dataset.n)
    return _marginal_pass(u, _pair_block(dataset))[0]


def _observed_hessian_block(u, rankings: np.ndarray, y: int) -> np.ndarray:
    """Minus-Hessian pair weights of same-size rankings (n_g, m) at cutoff
    ``y``, one column per position pair (p, q), p < q, of :func:`_pairs`:
    ``a_p a_q sum_{j <= min(p, y-1)} 1/S_j**2``, with scores shifted by each
    row's own maximum (the shift cancels)."""
    a = _edge_scores(u, rankings)
    s = np.cumsum(a[:, ::-1], axis=1)[:, ::-1][:, :y]
    c2 = np.cumsum(1.0 / s**2, axis=1)
    p, q = _pairs(rankings.shape[1]).T
    return a[:, p] * a[:, q] * c2[:, np.minimum(p, y - 1)]


def _sparse_hessian(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> scipy.sparse.csr_matrix:
    """Negative weighted Laplacian of pair weights (repeats add), sparse: w
    off the diagonal, and the diagonal is minus the row sums. Repeats are
    summed once, in the upper triangle, so the matrix is exactly symmetric."""
    import scipy.sparse as sp

    upper = sp.coo_matrix((w, (np.minimum(i, j), np.maximum(i, j))), shape=(n, n)).tocsr()
    off = upper + upper.T
    return (off - sp.diags(np.asarray(off.sum(axis=1)).ravel())).tocsr()


def _hessian(u, groups, n: int) -> scipy.sparse.csr_matrix:
    i, j, w, _ = _pair_weights(u, groups, _observed_hessian_block)
    return _sparse_hessian(n, i, j, w)


def marginal_hessian(u, dataset: Dataset) -> scipy.sparse.csr_matrix:
    """Hessian of the marginal log-likelihood (sparse, co-edge support).

    Off-diagonal (k, k') sums ``exp(u_k + u_k') / S_j**2`` over shared
    observations and positions ``j <= r(k) ^ r(k') ^ y``; the diagonal makes
    every row sum to zero (negative weighted Laplacian). For cutoff 1 the
    matrix does not depend on the ranking outcomes.
    """
    u = check_utilities(u, dataset.n)
    return _hessian(u, grouped_rankings(dataset), dataset.n)


def quasi_hessian(u, dataset: Dataset) -> scipy.sparse.csr_matrix:
    """Hessian of the quasi log-likelihood (the marginal Hessian of the
    broken pairs): off-diagonal (k, k') counts broken co-occurrences weighted
    by ``exp(u_k + u_k')/(exp(u_k) + exp(u_k'))**2``. Outcome-independent for
    full observations."""
    u = check_utilities(u, dataset.n)
    return _hessian(u, _pair_block(dataset), dataset.n)


@functools.lru_cache(maxsize=None)
def _prefixes(m: int, depth: int) -> np.ndarray:
    """Ordered ``depth``-tuples of distinct local positions of an m-edge, in
    lexicographic order (read-only; shared by every enumerating caller)."""
    out = np.asarray(list(itertools.permutations(range(m), depth)), dtype=np.int64)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=None)
def _unranked_maps(m: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """0/1 maps of the depth-``d`` prefixes of :func:`_prefixes`: the positions
    a prefix leaves unranked (n_p, m), and the position pairs of
    :func:`_pairs` it leaves both unranked (n_p, n_pairs). Read-only."""
    prefixes = _prefixes(m, d)
    unranked = np.ones((prefixes.shape[0], m), dtype=bool)
    unranked[np.arange(prefixes.shape[0])[:, None], prefixes] = False
    pairs = _pairs(m)
    left = unranked.astype(float)
    both = (unranked[:, pairs[:, 0]] & unranked[:, pairs[:, 1]]).astype(float)
    left.flags.writeable = False
    both.flags.writeable = False
    return left, both


def _by_spread(u, edges: np.ndarray, fast, rescue) -> np.ndarray:
    """Rows of ``fast(edges)`` for the edges whose utilities spread by at most
    :data:`_RESCUE_SPREAD`, and of ``rescue(u[edges])`` for the others."""
    vals = u[edges]
    far = functools.reduce(np.maximum, vals.T) - functools.reduce(np.minimum, vals.T) > _RESCUE_SPREAD
    if not far.any():
        return fast(edges)
    near = fast(edges[~far])
    out = np.empty((edges.shape[0],) + near.shape[1:])
    out[~far], out[far] = near, rescue(vals[far])
    return out


def _rescued_pair_weights(vals: np.ndarray, y: int) -> np.ndarray:
    """:func:`_expected_hessian_block` of edges with utilities ``vals`` (n_r,
    m) at any spread: the same walk in the log domain. A prefix's stage sum is
    log S = max + log sum exp(v - max) over its unranked utilities, and each
    choice probability exp(v - log S) is formed before anything is
    exponentiated. A prefix adds ``P(prefix) (a_p/S) (a_q/S)`` to the pair (p,
    q), one slice (n_r, depth, n_pairs) per depth; row sums are the positions'
    marginal inverse variances."""
    m = vals.shape[1]
    p, q = _pairs(m).T
    out = np.zeros((vals.shape[0], min(y, m - 1), len(p)))
    prob = np.ones((vals.shape[0], 1))
    for d in range(min(y, m - 1)):
        left = _unranked_maps(m, d)[0] > 0
        if d:
            parent = np.arange(left.shape[0]) // (m - d + 1)
            prob = prob[:, parent] * choice[:, parent, _prefixes(m, d)[:, -1]]
        v = np.where(left, vals[:, None, :], -np.inf)
        choice = np.exp(v - v.max(axis=2, keepdims=True))
        choice /= choice.sum(axis=2, keepdims=True)
        out[:, d] = np.einsum("rt,rtk->rk", prob, choice[..., p] * choice[..., q])
    return out


def _expected_hessian_block(u, edges: np.ndarray, y: int) -> np.ndarray:
    """Off-diagonal expected-Hessian weights of same-size edges (n_e, m) at
    cutoff ``y``: one column per position pair of :func:`_pairs`.

    The weight of (p, q) is ``a_p a_q E[sum_{j <= r_p ^ r_q ^ y} 1/S_j**2]``,
    i.e. the sum over depths d < y and ordered depth-d prefixes that leave both
    p and q unranked of ``P(prefix) / S**2``, S being the unranked score sum.
    Depth by depth, prefix probabilities extend their parents' (prefixes are
    lexicographic, so a parent's m - d + 1 children are contiguous), S is a
    product with the 0/1 unranked map (a sum of positive scores, no
    cancellation), and one product with the 0/1 pair map adds the depth to
    every edge's block. Scores are shifted by each edge's own maximum (the
    shift cancels), and temporaries hold about :data:`_HESSIAN_CHUNK` elements.
    """
    m = edges.shape[1]
    depth = min(y, m - 1)  # depth m - 1 leaves one item: no unranked pair
    pairs = _pairs(m)
    a = _edge_scores(u, edges)
    out = np.zeros((edges.shape[0], len(pairs)))
    rows = max(1, _HESSIAN_CHUNK // max(math.perm(m, depth - 1), len(pairs)))
    for lo in range(0, edges.shape[0], rows):
        ac = a[lo:lo + rows]
        prob = np.ones((ac.shape[0], 1))
        for d in range(depth):
            left, both = _unranked_maps(m, d)
            if d:
                parent = np.arange(left.shape[0]) // (m - d + 1)
                prob = prob[:, parent] * ac[:, _prefixes(m, d)[:, -1]] / rest[:, parent]
            rest = ac @ left.T
            out[lo:lo + rows] += (prob / rest**2) @ both
    return out * a[:, pairs[:, 0]] * a[:, pairs[:, 1]]


def _bradley_terry_block(u, edges: np.ndarray, y: int) -> np.ndarray:
    """Bradley-Terry weight ``e^{u_p+u_q}/(e^{u_p}+e^{u_q})**2`` of every item
    pair of same-size edges (the QMLE's block; the cutoff is unused)."""
    p, q = _pairs(edges.shape[1]).T
    vals = u[edges]
    d = np.exp(-np.abs(vals[:, p] - vals[:, q]))
    return d / (1.0 + d) ** 2


def _check_prefix_budget(groups, cost, budget: int, what: str) -> None:
    """Raise :class:`EnumerationBudgetError` naming every observation whose
    per-edge prefix count ``cost(m, y)`` exceeds ``budget``."""
    over = {}
    for (m, y), (idx, _) in groups.items():
        count = cost(m, y)
        if count > budget:
            over.update(dict.fromkeys(idx.tolist(), count))
    if over:
        raise EnumerationBudgetError(
            f"{len(over)} edges exceed the per-edge {what} prefix budget {budget} "
            f"(largest needs {max(over.values())}); switch estimator or raise the budget",
            over,
        )


def _joined(parts):
    """``parts`` (an empty head, then one array per group) as one array; a lone group is not copied."""
    return parts[-1] if len(parts) <= 2 else np.concatenate(parts)


def _pair_items(groups):
    """Items i, j at the positions of every :func:`_pairs` row of every
    ranking, and its observation index, group by group: ``(i, j, obs)``.
    Pairs keep the stored ranking order (i ranked above j), not i < j."""
    parts = [(np.empty(0, dtype=np.int64),) * 3]
    for (m, _), (idx, rankings) in groups.items():
        p, q = _pairs(m).T
        parts.append((rankings[:, p].ravel(), rankings[:, q].ravel(), np.repeat(idx, len(p))))
    return tuple(map(_joined, zip(*parts)))


def _pair_weights(u, groups, block):
    """Per-edge pair weights ``(i, j, w, obs)``: the :func:`_pair_items`
    with the weight w of each pair from ``block(u, rankings, y)``."""
    i, j, obs = _pair_items(groups)
    w = [np.empty(0)] + [block(u, rankings, y).ravel() for (_, y), (_, rankings) in groups.items()]
    return i, j, _joined(w), obs


def _expected_pair_weights(u, dataset: Dataset, max_prefixes_per_edge: int = 10**6):
    """Pair weights of the expected marginal Hessian's per-edge blocks, after
    the per-edge prefix budget check; edges beyond :data:`_RESCUE_SPREAD` go
    through :func:`_rescued_pair_weights`."""
    groups = grouped_rankings(dataset)
    _check_prefix_budget(groups, math.perm, max_prefixes_per_edge, "expected-Hessian")
    return _pair_weights(u, groups, lambda u, edges, y: _by_spread(
        u, edges, lambda e: _expected_hessian_block(u, e, y), lambda v: _rescued_pair_weights(v, y).sum(axis=1)))


def _laplacian(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Dense weighted graph Laplacian of the pair weights; repeats add. Each
    off-diagonal weight goes to (min, max) first, so the matrix is exactly
    symmetric whatever the order of i and j."""
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    flat = np.concatenate([lo * n + hi, hi * n + lo, i * (n + 1), j * (n + 1)])
    vals = np.concatenate([-w, -w, w, w])
    return np.bincount(flat, vals, minlength=n * n).reshape(n, n)


def expected_marginal_hessian(u, dataset: Dataset, max_prefixes_per_edge: int = 10**6) -> scipy.sparse.csr_matrix:
    """Expectation of :func:`marginal_hessian` over ranking outcomes drawn at
    the same ``u``, by exact enumeration of ordered top-``y`` prefixes.

    Depends on the dataset only through edges and cutoffs. Each (edge size,
    cutoff) group is enumerated once, as a batch over its edges: cached
    per-depth prefix tables turn prefix probabilities and ``1/S**2`` into
    every edge's off-diagonal block with one matrix product per depth (see
    :func:`_expected_hessian_block`). Raises :class:`EnumerationBudgetError` when some edge needs more
    than ``max_prefixes_per_edge`` ordered prefixes (m!/(m-y)!).
    """
    u = check_utilities(u, dataset.n)
    i, j, w, _ = _expected_pair_weights(u, dataset, max_prefixes_per_edge)
    return _sparse_hessian(dataset.n, i, j, w)
