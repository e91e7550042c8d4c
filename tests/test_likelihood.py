import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import expected_marginal_hessian_loop, expected_marginal_hessian_mc, hessian_to_coo_csv
from strategies import cutoff_datasets, utilities

import plrank.likelihood
from plrank import graphs
from plrank import (
    Dataset,
    Observation,
    batch_marginal_inverse_variance,
    batch_qmle_inverse_variance,
    broken_pairs,
    center,
    expected_marginal_hessian,
    fit,
    marginal_hessian,
    marginal_log_likelihood,
    marginal_score,
    pl_log_probability,
    quasi_hessian,
    quasi_log_likelihood,
    quasi_score,
    sample_rankings,
)
from plrank.likelihood import EnumerationBudgetError

FD_STEP = 1e-5


def fd_gradient(fun, u, h=FD_STEP):
    n = len(u)
    out = np.zeros(n)
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        out[k] = (fun(u + e) - fun(u - e)) / (2 * h)
    return out


def fd_jacobian(fun, u, h=FD_STEP):
    n = len(u)
    cols = []
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        cols.append((fun(u + e) - fun(u - e)) / (2 * h))
    return np.column_stack(cols)


class TestValues:
    def test_single_pairwise(self):
        ds = Dataset(2, [Observation((0, 1))])
        assert marginal_log_likelihood(np.zeros(2), ds) == pytest.approx(math.log(0.5))

    def test_additivity(self):
        obs = Observation((2, 0, 1), 2)
        one = marginal_log_likelihood(np.array([0.2, -0.1, -0.1]), Dataset(3, [obs]))
        many = marginal_log_likelihood(np.array([0.2, -0.1, -0.1]), Dataset(3, [obs] * 7))
        assert many == pytest.approx(7 * one)

    def test_agreement_with_model(self, mixed_cutoff_dataset):
        u_star, ds = mixed_cutoff_dataset
        direct = sum(pl_log_probability(u_star, o) for o in ds.observations)
        assert marginal_log_likelihood(u_star, ds) == pytest.approx(direct, abs=1e-10)

    def test_quasi_equals_marginal_on_pairs(self):
        ds = Dataset(2, [Observation((1, 0)), Observation((0, 1))])
        u = np.array([0.3, -0.3])
        assert quasi_log_likelihood(u, ds) == pytest.approx(marginal_log_likelihood(u, ds))

    def test_quasi_uniform_triple(self):
        ds = Dataset(3, [Observation((0, 1, 2))])
        assert quasi_log_likelihood(np.zeros(3), ds) == pytest.approx(3 * math.log(0.5))

    def test_quasi_hand_evaluation(self):
        a = 0.7
        u = np.array([a, 0.0, -a])
        ds = Dataset(3, [Observation((0, 1, 2))])
        want = (
            a - math.log(math.exp(a) + 1.0)
            + a - math.log(math.exp(a) + math.exp(-a))
            + 0.0 - math.log(1.0 + math.exp(-a))
        )
        assert quasi_log_likelihood(u, ds) == pytest.approx(want, abs=1e-12)


class TestGradients:
    def test_marginal_fd(self, mixed_cutoff_dataset):
        _, ds = mixed_cutoff_dataset
        rng = np.random.default_rng(21)
        for _ in range(3):
            u = center(rng.uniform(-1, 1, ds.n))
            g = marginal_score(u, ds)
            fd = fd_gradient(lambda v: marginal_log_likelihood(v, ds), u)
            assert np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(g))) < 1e-6

    def test_quasi_fd(self, mixed_cutoff_dataset):
        _, ds = mixed_cutoff_dataset
        rng = np.random.default_rng(22)
        for _ in range(3):
            u = center(rng.uniform(-1, 1, ds.n))
            g = quasi_score(u, ds)
            fd = fd_gradient(lambda v: quasi_log_likelihood(v, ds), u)
            assert np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(g))) < 1e-6

    def test_quasi_score_rank_residuals(self):
        # full observation (0,1,2) at u = 0: ranks (1,2,3) against expected 2
        ds = Dataset(3, [Observation((0, 1, 2))])
        assert quasi_score(np.zeros(3), ds) == pytest.approx([1.0, 0.0, -1.0])

    def test_within_edge_sums_vanish(self, mixed_cutoff_dataset):
        _, ds = mixed_cutoff_dataset
        rng = np.random.default_rng(23)
        u = center(rng.uniform(-1, 1, ds.n))
        for obs in ds.observations:
            single = Dataset(ds.n, [obs])
            assert abs(marginal_score(u, single).sum()) < 1e-12
            assert abs(quasi_score(u, single).sum()) < 1e-12

    def test_score_mean_zero_at_truth(self):
        # Monte Carlo over outcome draws: E[score at truth] = 0 entrywise
        rng = np.random.default_rng(24)
        n = 5
        u_star = center(rng.uniform(-0.5, 0.5, n))
        edges = [(0, 1, 2), (1, 2, 3, 4), (0, 3), (2, 3, 4)]
        reps = 10000
        sums = {"marginal": np.zeros(n), "quasi": np.zeros(n)}
        sq = {"marginal": np.zeros(n), "quasi": np.zeros(n)}
        for _ in range(reps):
            ds = sample_rankings(u_star, edges, rng)
            ds = Dataset(n, [o.with_cutoff(y) for o, y in zip(ds.observations, (2, 3, 1, 3))])
            for name, fn in (("marginal", marginal_score), ("quasi", quasi_score)):
                g = fn(u_star, ds)
                sums[name] += g
                sq[name] += g**2
        for name in sums:
            mean = sums[name] / reps
            se = np.sqrt(np.maximum(sq[name] / reps - mean**2, 1e-12) / reps)
            assert np.all(np.abs(mean) <= 4 * se), (name, mean, se)


class TestHessians:
    def test_marginal_fd(self, mixed_cutoff_dataset):
        _, ds = mixed_cutoff_dataset
        rng = np.random.default_rng(31)
        u = center(rng.uniform(-1, 1, ds.n))
        h = marginal_hessian(u, ds).toarray()
        fd = fd_jacobian(lambda v: marginal_score(v, ds), u)
        assert np.max(np.abs(h - fd)) / max(1.0, np.max(np.abs(h))) < 1e-5

    def test_quasi_fd(self, mixed_cutoff_dataset):
        _, ds = mixed_cutoff_dataset
        rng = np.random.default_rng(32)
        u = center(rng.uniform(-1, 1, ds.n))
        h = quasi_hessian(u, ds).toarray()
        fd = fd_jacobian(lambda v: quasi_score(v, ds), u)
        assert np.max(np.abs(h - fd)) / max(1.0, np.max(np.abs(h))) < 1e-5

    def test_laplacian_structure(self, mixed_cutoff_dataset):
        _, ds = mixed_cutoff_dataset
        rng = np.random.default_rng(33)
        for _ in range(3):
            u = center(rng.uniform(-1, 1, ds.n))
            for hess in (marginal_hessian(u, ds), quasi_hessian(u, ds)):
                dense = hess.toarray()
                assert np.max(np.abs(dense.sum(axis=1))) < 1e-9
                off = dense - np.diag(np.diag(dense))
                assert np.min(off) >= 0.0
                assert np.linalg.eigvalsh(dense).max() <= 1e-9

    def test_choice_one_hessian_outcome_independent(self):
        rng = np.random.default_rng(34)
        u = center(rng.normal(size=5) * 0.4)
        edges = [(0, 1, 2), (1, 3, 4), (0, 2, 3, 4)]
        a = sample_rankings(u, edges, rng).with_cutoff(1)
        b = Dataset(5, [Observation(o.ranking[::-1], 1) for o in a.observations])
        assert np.array_equal(marginal_hessian(u, a).toarray(), marginal_hessian(u, b).toarray())

    def test_quasi_hessian_outcome_independent(self):
        rng = np.random.default_rng(35)
        u = center(rng.normal(size=5) * 0.4)
        edges = [(0, 1, 2), (1, 3, 4), (0, 2, 3, 4)]
        a = sample_rankings(u, edges, rng)
        b = Dataset(5, [Observation(o.ranking[::-1]) for o in a.observations])
        assert np.array_equal(quasi_hessian(u, a).toarray(), quasi_hessian(u, b).toarray())

    def test_coo_export(self, tmp_path):
        ds = Dataset(3, [Observation((0, 1, 2))])
        path = tmp_path / "h.csv"
        hessian_to_coo_csv(quasi_hessian(np.zeros(3), ds), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "row,col,value"
        assert len(lines) == 1 + 9  # fully dense 3x3 here


class TestExpectedHessian:
    def test_choice_one_is_exact(self):
        rng = np.random.default_rng(41)
        u = center(rng.normal(size=4) * 0.5)
        ds = sample_rankings(u, [(0, 1, 2), (1, 2, 3), (0, 3)], rng).with_cutoff(1)
        got = expected_marginal_hessian(u, ds).toarray()
        assert np.max(np.abs(got - marginal_hessian(u, ds).toarray())) < 1e-15

    def test_triple_edge_brute_force(self):
        ds = Dataset(3, [Observation((0, 1, 2))])
        got = expected_marginal_hessian(np.zeros(3), ds).toarray()
        acc = np.zeros((3, 3))
        for perm in itertools.permutations(range(3)):
            w = math.exp(pl_log_probability(np.zeros(3), Observation(perm)))
            acc += w * marginal_hessian(np.zeros(3), Dataset(3, [Observation(perm)])).toarray()
        assert np.max(np.abs(got - acc)) < 1e-14
        off = [got[0, 1], got[0, 2], got[1, 2]]
        assert np.ptp(off) < 1e-14

    def test_monte_carlo_mean_matches(self):
        rng = np.random.default_rng(42)
        u = center(rng.uniform(-0.5, 0.5, 4))
        ds = Dataset(4, [Observation((0, 1, 2, 3)), Observation((1, 0, 3), 2)])
        exact = expected_marginal_hessian(u, ds).toarray()
        mean, se = expected_marginal_hessian_mc(u, ds, n_samples=10000, rng=rng)
        gap = np.abs(mean - exact)
        assert np.all(gap <= 4 * se + 1e-12)

    def test_rescue_path_unused_within_the_threshold(self, monkeypatch):
        # utilities spread by 300 at most never reach the log-domain walks
        import plrank.inference
        import plrank.likelihood

        def fail(*args):
            raise AssertionError("rescue path taken")

        monkeypatch.setattr(plrank.likelihood, "_stage_scale", fail)  # the prefix walk's far branch
        rng = np.random.default_rng(43)
        ds = sample_rankings(np.zeros(8), [tuple(rng.permutation(8)[:m]) for m in (3, 4, 5, 6) for _ in range(3)], rng)
        for u in (np.zeros(8), np.linspace(-150.0, 150.0, 8)):
            assert np.all(np.isfinite(expected_marginal_hessian(u, ds).toarray()))
            assert np.all(np.isfinite(marginal_hessian(u, ds).toarray()))
            assert np.all(np.isfinite(plrank.inference.batch_marginal_inverse_variance(u, ds)[0]))
            assert np.all(np.isfinite(plrank.inference.batch_qmle_inverse_variance(u, ds)[0]))

    def test_budget_error(self):
        ds = Dataset(9, [Observation(tuple(range(9)))])
        with pytest.raises(EnumerationBudgetError) as err:
            expected_marginal_hessian(np.zeros(9), ds, max_prefixes_per_edge=1000)
        assert err.value.per_edge == {0: math.factorial(9)}


class TestBatchedExpectedHessian:
    """The per-(m, y) batched enumeration against the per-prefix loop."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_loop_oracle(self, data):
        ds = data.draw(cutoff_datasets())
        u = data.draw(utilities(ds.n))
        got = expected_marginal_hessian(u, ds).toarray()
        want = expected_marginal_hessian_loop(u, ds)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_laplacian_structure(self, data):
        ds = data.draw(cutoff_datasets())
        h = expected_marginal_hessian(data.draw(utilities(ds.n)), ds).toarray()
        assert np.array_equal(h, h.T)
        assert np.all(np.abs(h.sum(axis=1)) <= 1e-12 * np.abs(np.diag(h)).max())
        off = h[~np.eye(ds.n, dtype=bool)]
        assert np.all(off >= 0)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_finite_far_below_global_max(self, data):
        ds = data.draw(cutoff_datasets(max_items=6))
        u = data.draw(utilities(ds.n, bound=2.0))
        # two extra items, compared with each other only, set the global max
        far = np.concatenate([u - 800.0, [0.0, 0.0]])
        wide = Dataset(ds.n + 2, ds.observations + [Observation((ds.n, ds.n + 1))])
        got = expected_marginal_hessian(far, wide).toarray()
        assert np.all(np.isfinite(got))
        want = expected_marginal_hessian(u, ds).toarray()
        np.testing.assert_allclose(got[: ds.n, : ds.n], want, rtol=1e-12, atol=0)


class TestOneEngine:
    """The QMLE's objective is the marginal engine on the broken pairs."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_quasi_is_marginal_of_broken_pairs(self, data):
        ds = data.draw(cutoff_datasets())
        u = data.draw(utilities(ds.n))
        pairs = Dataset(ds.n, [Observation((w, l), 1) for w, l in broken_pairs(ds).tolist()])
        assert quasi_log_likelihood(u, ds) == pytest.approx(marginal_log_likelihood(u, pairs), rel=1e-12, abs=0)
        np.testing.assert_allclose(quasi_score(u, ds), marginal_score(u, pairs), rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            quasi_hessian(u, ds).toarray(), marginal_hessian(u, pairs).toarray(), rtol=1e-12, atol=0
        )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_marginal_hessian_laplacian_structure(self, data):
        ds = data.draw(cutoff_datasets())
        h = marginal_hessian(data.draw(utilities(ds.n)), ds).toarray()
        assert np.array_equal(h, h.T)
        assert np.all(np.abs(h.sum(axis=1)) <= 1e-12 * np.abs(np.diag(h)))
        assert np.all(h[~np.eye(ds.n, dtype=bool)] >= 0)


class TestFisherIdentity:
    """Moment identity for the top-y likelihood; it must fail for the
    pairwise-broken objective on a multiway edge."""

    def _mc_moments(self, u, edges, cutoffs, score_fn, reps, seed):
        rng = np.random.default_rng(seed)
        n = len(u)
        acc = np.zeros((n, n))
        acc2 = np.zeros((n, n))
        for _ in range(reps):
            ds = sample_rankings(u, edges, rng)
            ds = Dataset(n, [o.with_cutoff(y) for o, y in zip(ds.observations, cutoffs)])
            g = score_fn(u, ds)
            outer = np.outer(g, g)
            acc += outer
            acc2 += outer**2
        mean = acc / reps
        se = np.sqrt(np.maximum(acc2 / reps - mean**2, 1e-12) / reps)
        return mean, se

    def test_marginal_identity_holds(self):
        rng = np.random.default_rng(50)
        u = center(rng.uniform(-0.5, 0.5, 4))
        edges = [(0, 1, 2), (1, 2, 3)]
        cutoffs = (3, 2)
        ds = Dataset(4, [Observation(e).with_cutoff(y) for e, y in zip(edges, cutoffs)])
        expected = -expected_marginal_hessian(u, ds).toarray()
        mean, se = self._mc_moments(u, edges, cutoffs, marginal_score, 10000, 51)
        assert np.all(np.abs(mean - expected) <= 4 * se)

    def test_quasi_identity_fails(self):
        # designed m=3 instance: score covariance != negative expected Hessian
        u = center(np.array([0.3, 0.0, -0.3]))
        edges = [(0, 1, 2)]
        ds = Dataset(3, [Observation((0, 1, 2))])
        neg_hess = -quasi_hessian(u, ds).toarray()  # outcome-independent
        mean, se = self._mc_moments(u, edges, (3,), quasi_score, 10000, 52)
        assert np.any(np.abs(mean - neg_hess) > 4 * se)


def test_kl_projection_population_score_zero():
    # connected design: the population pairwise-broken score vanishes exactly
    # at the generating utilities (enumeration over all outcomes)
    u = center(np.array([0.5, -0.2, -0.1]))
    acc = np.zeros(3)
    for perm in itertools.permutations(range(3)):
        w = math.exp(pl_log_probability(u, Observation(perm)))
        acc += w * quasi_score(u, Dataset(3, [Observation(perm)]))
    assert np.max(np.abs(acc)) < 1e-14


class TestRowBatches:
    """Every row-batched kernel cuts its rows by one element budget
    (``likelihood._CHUNK``); results do not depend on it, and the working set
    of a large dataset is set by the edge size, not the row count."""

    @staticmethod
    def outputs(u, ds):
        # a directed cycle of pairwise wins makes every fit exist
        fittable = Dataset(ds.n, ds.observations + [Observation((i, (i + 1) % ds.n)) for i in range(ds.n)])
        rho, cost = batch_marginal_inverse_variance(u, ds)
        rho_q, cost_q = batch_qmle_inverse_variance(u, ds)
        return {
            "full SE": rho, "full cost": cost, "qmle SE": rho_q, "qmle cost": cost_q,
            "marginal log-likelihood": marginal_log_likelihood(u, ds),
            "quasi log-likelihood": quasi_log_likelihood(u, ds),
            "expected Hessian": expected_marginal_hessian(u, ds).toarray(),
            **{f"{kind} final_log_lik": fit(fittable, kind).final_log_lik for kind in ("full", "choice1", "qmle")},
        }

    @settings(max_examples=40, deadline=None)
    @given(cutoff_datasets(max_items=8, max_m=6, max_obs=12), utilities(8))
    def test_results_do_not_depend_on_the_budget(self, ds, u):
        u = u[: ds.n]
        default = self.outputs(u, ds)
        for chunk in (1, 7):  # one row per batch, and batches that end inside a group
            with mock.patch.object(plrank.likelihood, "_CHUNK", chunk):
                other = self.outputs(u, ds)
            for name, value in default.items():
                assert np.array_equal(other[name], value), (chunk, name)

    @staticmethod
    def far_spread(n_e, n=50, m=6, seed=18):
        """``n_e`` full m-item edges that each hold item 0, which sits 400 above
        the rest: every row takes the log-domain rescue walks."""
        rng = np.random.default_rng(seed)
        u = rng.normal(size=n)
        u[0] += 400.0
        edges = np.column_stack([np.zeros(n_e, dtype=np.int64), 1 + np.argsort(rng.random((n_e, n - 1)), axis=1)[:, : m - 1]])
        return u, Dataset.from_blocks(n, {(m, m): (np.arange(n_e), edges)})

    def test_rescued_rows_do_not_depend_on_the_budget(self):
        u, ds = self.far_spread(40)
        kernels = {
            "full SE": lambda: batch_marginal_inverse_variance(u, ds)[0],
            "expected Hessian": lambda: expected_marginal_hessian(u, ds).toarray(),
            "Hessian": lambda: marginal_hessian(u, ds).toarray(),
        }
        default = {name: kernel() for name, kernel in kernels.items()}
        for chunk in (1, 7):  # one row per batch, and batches that end inside a group
            with mock.patch.object(plrank.likelihood, "_CHUNK", chunk):
                for name, kernel in kernels.items():
                    assert np.array_equal(kernel(), default[name]), (chunk, name)

    def test_working_set_is_set_by_the_edge_size(self):
        n, n_e, m = 2000, 40_000, 5
        rng = np.random.default_rng(17)
        u = rng.normal(size=n)
        ds = sample_rankings(u, graphs.sample_uniform_edges(range(n), m, n_e, rng), rng)
        n_b = len(broken_pairs(ds))
        u_far, ds_far = self.far_spread(4000)
        n_f, m_f, pairs = len(ds_far), 6, math.comb(6, 2)
        kept = [  # bytes of the per-row arrays a kernel holds at any budget
            (u, ds, batch_marginal_inverse_variance, 8 * n_e * 3 * m),  # sorted edges, shifted scores, terms
            (u, ds, batch_qmle_inverse_variance, 8 * n_e * (2 * m + math.comb(m, 2))),  # sorted edges, cross terms, pair weights
            (u, ds, quasi_log_likelihood, 8 * n_b * 3),  # broken pairs and their terms
            (u_far, ds_far, batch_marginal_inverse_variance, 8 * n_f * 5 * m_f),  # sorted edges, utilities (all and far), terms, positions
            # utilities (all and far); pair items and observations, the block's weights and the rescued rows'
            (u_far, ds_far, expected_marginal_hessian, 8 * n_f * (2 * m_f + 5 * pairs)),
        ]
        for u, ds, kernel, kept_bytes in kept:
            kernel(u, ds)  # fill the per-(m, d) table caches
            tracemalloc.start()
            try:
                kernel(u, ds)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the whole-dataset temporaries this replaces took 20-34 MB beyond
            # the kept arrays on the five-way edges, and 600 MB on the rescued ones
            assert peak - kept_bytes < 8 * 2**20, (kernel.__name__, len(ds), peak / 2**20)

    def test_wide_ranking_memory(self):
        # one full nine-item ranking, 623,529 prefixes: dense per-prefix maps of
        # the positions and pairs left took a 292 MiB cold peak, 275 MiB of it
        # cached, and the far-spread rows' pair products 163 MiB more
        rng = np.random.default_rng(19)
        near = rng.normal(size=9)
        far = near + 400.0 * (np.arange(9) == 0)
        ds = Dataset(9, [Observation(tuple(range(9)))])
        plrank.likelihood._prefix_tables.cache_clear()  # the first run builds the tables inside the trace
        for u, bound in ((near, 48), (far, 32)):
            tracemalloc.start()
            try:
                batch_marginal_inverse_variance(u, ds)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * 2**20, (u[0], peak / 2**20)
