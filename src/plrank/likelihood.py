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
largest utility underflows to a zero score sum. The observed Hessian shifts
every stage by its own maximum; the expected Hessian and the SE walks shift
each edge by its own maximum, and every stage of an edge whose utilities
spread by more than :data:`_RESCUE_SPREAD` (:func:`_by_spread`).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .model import Dataset, _edge_scores, _pairs, _suffix_logsumexp, broken_pairs, check_utilities, grouped_rankings

_CHUNK = 1 << 16  # elements (512 KB of doubles) of the widest temporary of a row batch (:func:`_row_chunks`)
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


def _row_chunks(n_rows: int, widest_per_row: int) -> list[slice]:
    """Slices of ``n_rows`` rows, as many per slice as keep ``widest_per_row``
    elements per row within :data:`_CHUNK` (or one). Elementwise kernels
    compute each row alone, so they do not depend on the budget."""
    rows = max(1, _CHUNK // widest_per_row)
    return [slice(lo, lo + rows) for lo in range(0, n_rows, rows)]


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
    """Sum of the groups' (rows, y) log-mass terms, filled in row batches."""
    total = 0.0
    for (m, y), (_, rankings) in groups.items():
        terms = np.empty((len(rankings), y))
        for rows in _row_chunks(len(rankings), m):
            vals = u[rankings[rows]]
            terms[rows] = vals[:, :y] - _suffix_logsumexp(vals)[:, :y]
        total += float(np.sum(terms))
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


def _observed_hessian_block(vals: np.ndarray, y: int) -> np.ndarray:
    """Minus-Hessian pair weights of same-size rankings with utilities ``vals``
    (n_g, m) at cutoff ``y``, one column per position pair (p, q), p < q, of
    :func:`_pairs`: ``sum_{j <= min(p, y-1)} (a_p/S_j)(a_q/S_j)``, the products
    of stage j's choice probabilities, each stage shifted by its own maximum
    (exact at any spread)."""
    m = vals.shape[1]
    p, q = _pairs(m).T
    out = np.empty((vals.shape[0], len(p)))
    for rows in _row_chunks(vals.shape[0], y * len(p)):
        v = np.where(np.arange(m) >= np.arange(y)[:, None], vals[rows, None, :], -np.inf)
        share = np.exp(v - v.max(axis=2, keepdims=True))
        share /= share.sum(axis=2, keepdims=True)
        out[rows] = np.sum(share[:, :, p] * share[:, :, q], axis=1)
    return out


def _sparse_hessian(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> scipy.sparse.csr_matrix:
    """Negative weighted Laplacian of pair weights (repeats add), sparse: w
    off the diagonal, and the diagonal is minus the row sums. Repeats are
    summed once, in the upper triangle, so the matrix is exactly symmetric."""
    import scipy.sparse as sp

    upper = sp.coo_matrix((w, (np.minimum(i, j), np.maximum(i, j))), shape=(n, n)).tocsr()
    off = upper + upper.T
    return (off - sp.diags(np.asarray(off.sum(axis=1)).ravel())).tocsr()


def _hessian(u, groups, n: int) -> scipy.sparse.csr_matrix:
    i, j, w, _ = _pair_weights(u, groups, lambda u, rankings, y: _observed_hessian_block(u[rankings], y))
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
def _prefix_tables(m: int, d: int) -> dict[str, np.ndarray]:
    """Read-only index tables of the P(m, d) ordered ``d``-tuples of distinct
    local positions of an m-edge (prefixes), in lexicographic order:
    ``unranked``, the positions a prefix leaves, ascending (n_p, m - d), and for
    d >= 1 ``parent``, its row at depth d - 1, ``last``, its last position, and
    ``by_last``, their stable argsort. Built from depth d - 1: a parent's
    m - d + 1 children are contiguous, child j ranking its j-th unranked position."""
    if d == 0:
        tables = {"unranked": np.arange(m)[None]}
    else:
        up, width = _prefix_tables(m, d - 1)["unranked"], m - d + 1
        kept = np.nonzero(~np.eye(width, dtype=bool))[1].reshape(width, width - 1)  # the columns child j keeps
        tables = {"unranked": up[:, kept].reshape(-1, m - d), "parent": np.arange(up.size) // width,
                  "last": up.ravel(), "by_last": np.argsort(up, axis=None, kind="stable")}
    for table in tables.values():
        table.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=None)
def _pair_prefixes(m: int, d: int) -> np.ndarray:
    """Read-only (P(m - 2, d), n_pairs) table: column r lists, ascending, the
    depth-``d`` prefixes of :func:`_prefix_tables` that leave both positions of
    the :func:`_pairs` row r unranked."""
    unranked = _prefix_tables(m, d)["unranked"]
    left = np.zeros((len(unranked), m), dtype=bool)
    left[np.arange(len(unranked))[:, None], unranked] = True
    out = np.stack([np.flatnonzero(left[:, p] & left[:, q]) for p, q in _pairs(m)], axis=1)
    out.flags.writeable = False
    return out


def _by_spread(u, edges: np.ndarray, block) -> np.ndarray:
    """Rows of ``block(scores)`` (:func:`plrank.model._edge_scores`) for the edges
    whose utilities spread by at most :data:`_RESCUE_SPREAD`, and of
    ``block(u[edges], far=True)`` for the others."""
    vals = u[edges]
    far = functools.reduce(np.maximum, vals.T) - functools.reduce(np.minimum, vals.T) > _RESCUE_SPREAD
    if not far.any():
        return block(_edge_scores(u, edges))
    near = block(_edge_scores(u, edges[~far]))
    out = np.empty((edges.shape[0],) + near.shape[1:])
    out[~far], out[far] = near, block(vals[far], far=True)
    return out


def _stage_scale(v: np.ndarray, unranked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each stage's own scale for utilities ``v`` (m, n_r): the largest utility of the
    positions ``unranked`` (n_p, m - d) leaves, and ``sum exp(v - shift)`` over them."""
    shift = functools.reduce(np.maximum, (np.take(v, c, axis=0) for c in unranked.T))
    return shift, functools.reduce(np.add, (np.exp(np.take(v, c, axis=0) - shift) for c in unranked.T))


def _prefix_walk(v: np.ndarray, depth: int, far: bool = False):
    """Ordered prefixes of rows (m, n_r) of scores shifted by each row's maximum:
    yields, for d = 0..``depth``, the :func:`_prefix_tables` and (n_p, n_r)
    arrays ``prob`` (the parent's times ``score[last] / parent_rest``), ``rest``
    and ``parent_rest`` (None at d = 0), the sums of the scores a prefix and its
    parent leave. With ``far``, ``v`` holds utilities and each parent scores on
    its own scale (:func:`_stage_scale`). Nothing is subtracted, no result depends
    on the row batching, and there is no BLAS (its threads oversubscribe a pool)."""

    def scores(cols, shift):
        return np.exp(np.take(v, cols, axis=0) - shift) if far else np.take(v, cols, axis=0)

    tables, prob = _prefix_tables(v.shape[0], 0), np.ones((1, v.shape[1]))
    rest = _stage_scale(v, tables["unranked"])[1] if far else functools.reduce(np.add, v)[None]
    yield tables, prob, rest, None
    for d in range(1, depth + 1):
        if far:  # the parents' own scale
            shift, rest = _stage_scale(v, tables["unranked"])
        tables = _prefix_tables(v.shape[0], d)
        shift = np.take(shift, tables["parent"], axis=0) if far else None
        parent_rest = np.take(rest, tables["parent"], axis=0)
        prob = np.take(prob, tables["parent"], axis=0) * scores(tables["last"], shift) / parent_rest
        rest = functools.reduce(np.add, (scores(c, shift) for c in tables["unranked"].T))
        yield tables, prob, rest, parent_rest


def _expected_hessian_block(v: np.ndarray, y: int, far: bool = False) -> np.ndarray:
    """Off-diagonal expected-Hessian weights (n_e, n_pairs) of same-size edges
    at cutoff ``y`` from :func:`_prefix_walk` rows ``v`` (n_e, m). The weight of
    the :func:`_pairs` row (p, q), ``a_p a_q E[sum_{j <= r_p ^ r_q ^ y} 1/S_j**2]``,
    adds ``P(prefix) / S**2`` over the prefixes of depths d < y that leave p and
    q (:func:`_pair_prefixes`) in a fixed order, times ``a_p a_q`` (with ``far``,
    term by term on each stage's own scale). Rows are batched on the deepest
    depth's C(m, 2) P(m - 2, depth - 1) terms."""
    n_e, m = v.shape
    depth = min(y, m - 1)  # depth m - 1 leaves one item: no unranked pair
    p, q = _pairs(m).T
    out = np.zeros((len(p), n_e))
    for rows in _row_chunks(n_e, len(p) * math.perm(m - 2, depth - 1)):
        vt = np.ascontiguousarray(v[rows].T)
        for d, (tables, prob, rest, _) in enumerate(_prefix_walk(vt, depth - 1, far)):
            at = _pair_prefixes(m, d)
            if far:  # each stage on its own scale: its pair products inside the sum
                shift, rest = _stage_scale(vt, tables["unranked"])
                pair = np.exp(vt[p] - np.take(shift, at, axis=0)) * np.exp(vt[q] - np.take(shift, at, axis=0))
            terms = np.take(prob / rest**2, at, axis=0)  # (P(m - 2, d), n_pairs, rows)
            # numpy sums pairwise only along the fast axis, which axis 0 is not
            # (n_pairs > 1 when P(m - 2, d) > 1): prefixes add in order at any batching
            out[:, rows] += (terms * pair if far else terms).sum(axis=0)
    return out.T if far else out.T * v[:, p] * v[:, q]


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
    the per-edge prefix budget check."""
    groups = grouped_rankings(dataset)
    _check_prefix_budget(groups, math.perm, max_prefixes_per_edge, "expected-Hessian")
    return _pair_weights(u, groups, lambda u, edges, y: _by_spread(
        u, edges, lambda v, far=False: _expected_hessian_block(v, y, far)))


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
    cutoff) group is enumerated once, as a batch over its edges, by one prefix
    walk that adds ``P/S**2`` over the prefixes leaving each pair in a fixed
    order (:func:`_expected_hessian_block`). Raises :class:`EnumerationBudgetError`
    when some edge needs more than ``max_prefixes_per_edge`` ordered prefixes
    (m!/(m-y)!).
    """
    u = check_utilities(u, dataset.n)
    i, j, w, _ = _expected_pair_weights(u, dataset, max_prefixes_per_edge)
    return _sparse_hessian(dataset.n, i, j, w)
