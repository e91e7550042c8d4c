import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from oracles import (
    exact_expected_pair_weights,
    exact_marginal_hessian,
    exact_marginal_inverse_variance,
    exact_qmle_inverse_variance,
    marginal_inverse_variance_loop,
    pairwise_info_term_loop,
    pairwise_var_term_loop,
    qmle_inverse_variance_loop,
)
from scipy.stats import norm
from strategies import cutoff_datasets, utilities

import plrank.likelihood
from plrank import (
    Dataset,
    FitConfig,
    FitResult,
    Observation,
    center,
    expected_marginal_hessian,
    fit_marginal_mle,
    fit_qmle,
    marginal_hessian,
    marginal_info_term,
    marginal_inverse_variance,
    marginal_score,
    normal_quantile,
    pairwise_info_term,
    pairwise_var_term,
    qmle_inverse_variance,
    sample_rankings,
    standard_errors,
    z_for_level,
)
from plrank.inference import (
    _prefix_info,
    _qmle_moments,
    batch_marginal_inverse_variance,
    batch_qmle_inverse_variance,
    marginal_info_term_bruteforce,
)
from plrank.likelihood import EnumerationBudgetError
from plrank.model import grouped_rankings


class TestInfoTerm:
    def test_symmetric_triple_values(self):
        u = np.zeros(3)
        assert marginal_info_term(u, (0, 1, 2), 1, 0) == pytest.approx(2 / 9)
        assert marginal_info_term(u, (0, 1, 2), 2, 0) == pytest.approx(1 / 6)
        assert marginal_info_term(u, (0, 1, 2), 3, 0) == 0.0

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_prefix_formula_vs_permutation_oracle(self, m):
        rng = np.random.default_rng(m * 7)
        for _ in range(4):
            u = center(rng.uniform(-1, 1, m))
            edge = tuple(range(m))
            k = int(rng.integers(0, m))
            for y in range(1, m + 1):
                a = marginal_info_term(u, edge, y, k)
                b = marginal_info_term_bruteforce(u, edge, y, k)
                assert abs(a - b) < 1e-12

    def test_term_in_unit_interval(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            u = rng.uniform(-2, 2, m)
            y = int(rng.integers(1, m + 1))
            val = marginal_info_term(u, tuple(range(m)), y, 0)
            assert 0.0 <= val <= 1.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(72)
        u = rng.uniform(-1, 1, 4)
        for c in (-3.0, 11.0):
            assert marginal_info_term(u, (0, 1, 2, 3), 2, 1) == pytest.approx(
                marginal_info_term(u + c, (0, 1, 2, 3), 2, 1), abs=1e-12
            )
        assert pairwise_info_term(u, (0, 1, 2, 3), 1) == pytest.approx(
            pairwise_info_term(u + 5.0, (0, 1, 2, 3), 1), abs=1e-12
        )
        assert pairwise_var_term(u, (0, 1, 2, 3), 1) == pytest.approx(
            pairwise_var_term(u + 5.0, (0, 1, 2, 3), 1), abs=1e-12
        )

    def test_requires_membership(self):
        with pytest.raises(ValueError):
            marginal_info_term(np.zeros(4), (0, 1, 2), 1, 3)
        with pytest.raises(ValueError):
            pairwise_info_term(np.zeros(4), (0, 1, 2), 3)

    @pytest.mark.parametrize("term", [
        pytest.param(lambda u, edge, k: marginal_info_term(u, edge, 1, k), id="marginal_info_term"),
        pytest.param(pairwise_info_term, id="pairwise_info_term"),
        pytest.param(pairwise_var_term, id="pairwise_var_term"),
    ])
    @pytest.mark.parametrize("edge, match", [
        ((0, 0, 1), "duplicate"), ((0, 1, 3), "item 3 outside"), ((0, -1, 2), "nonnegative"), ((0,), "at least 2"),
    ])
    def test_bad_edge_is_a_value_error(self, term, edge, match):
        # checked as an Observation's ranking is, and against the utilities
        with pytest.raises(ValueError, match=match):
            term(np.zeros(3), edge, 0)


class TestPairwiseTerms:
    def test_symmetric_values(self):
        u = np.zeros(3)
        assert pairwise_info_term(u, (0, 1, 2), 0) == pytest.approx(0.5)
        assert pairwise_var_term(u, (0, 1, 2), 0) == pytest.approx(2 / 3)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_symmetric_general_m(self, m):
        u = np.zeros(m)
        assert pairwise_info_term(u, tuple(range(m)), 0) == pytest.approx((m - 1) / 4)

    def test_pairwise_edge_var_equals_info(self):
        rng = np.random.default_rng(73)
        u = rng.uniform(-1, 1, 2)
        assert pairwise_var_term(u, (0, 1), 0) == pytest.approx(pairwise_info_term(u, (0, 1), 0))

    def test_positive(self):
        rng = np.random.default_rng(74)
        for _ in range(10):
            u = rng.uniform(-2, 2, 5)
            assert pairwise_info_term(u, tuple(range(5)), 2) > 0
            assert pairwise_var_term(u, tuple(range(5)), 2) > 0


class TestInverseVariances:
    def test_single_triple_edge(self):
        ds = Dataset(3, [Observation((0, 1, 2))])
        assert marginal_inverse_variance(np.zeros(3), ds, 0) == pytest.approx(7 / 18)
        assert qmle_inverse_variance(np.zeros(3), ds, 0) == pytest.approx(3 / 8)

    def test_additivity_and_efficiency_ordering(self):
        n_copies = 11
        ds = Dataset(3, [Observation((0, 1, 2))] * n_copies)
        rho1 = marginal_inverse_variance(np.zeros(3), ds, 0)
        rho2 = qmle_inverse_variance(np.zeros(3), ds, 0)
        assert rho1 == pytest.approx(n_copies * 7 / 18)
        assert rho2 == pytest.approx(n_copies * 3 / 8)
        assert rho2 < rho1  # full likelihood is the more efficient one

    def test_pairwise_design_collapse(self):
        # both formulas reduce to the same pairwise information sum
        rng = np.random.default_rng(75)
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (0, 3), (1, 3), (0, 1)]
        ds = sample_rankings(center(rng.normal(size=4) * 0.5), edges, rng)
        u = center(rng.normal(size=4) * 0.5)
        for k in range(4):
            r1 = marginal_inverse_variance(u, ds, k)
            r2 = qmle_inverse_variance(u, ds, k)
            direct = sum(pairwise_info_term(u, e, k) for e in edges if k in e)
            assert abs(r1 - r2) < 1e-12
            assert r1 == pytest.approx(direct, abs=1e-12)

    def test_batch_matches_per_item(self, mixed_cutoff_dataset):
        # the per-item names are views of the batch kernels: compare with the loop oracles
        _, ds = mixed_cutoff_dataset
        rng = np.random.default_rng(76)
        u = center(rng.uniform(-0.8, 0.8, ds.n))
        got, cost = batch_marginal_inverse_variance(u, ds)
        want = np.array([marginal_inverse_variance_loop(u, ds, k) for k in range(ds.n)])
        assert np.max(np.abs(got - want)) < 1e-12
        assert cost == sum(
            sum(math.factorial(o.m) // math.factorial(o.m - d) for d in range(1, min(o.cutoff, o.m - 1) + 1))
            for o in ds.observations
        )
        full = ds.with_cutoff("full")
        got_q, _ = batch_qmle_inverse_variance(u, full)
        want_q = np.array([qmle_inverse_variance_loop(u, full, k) for k in range(ds.n)])
        assert np.max(np.abs(got_q - want_q)) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(cutoff_datasets(max_obs=8), utilities(8))
    def test_batch_matches_per_item_property(self, ds, u):
        u = u[: ds.n]
        got, _ = batch_marginal_inverse_variance(u, ds)
        want = [marginal_inverse_variance_loop(u, ds, k) for k in range(ds.n)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)
        got_q, cost = batch_qmle_inverse_variance(u, ds)
        want_q = [qmle_inverse_variance_loop(u, ds, k) for k in range(ds.n)]
        np.testing.assert_allclose(got_q, want_q, rtol=1e-13, atol=1e-300)
        assert cost == sum(o.m * (o.m - 1) + o.m * (o.m - 1) * (o.m - 2) // 2 for o in ds.observations)
        edge = ds.edges[0]
        for name, view, loop in [("info", pairwise_info_term, pairwise_info_term_loop), ("var", pairwise_var_term, pairwise_var_term_loop)]:
            np.testing.assert_allclose([view(u, edge, k) for k in edge], [loop(u, edge, k) for k in edge], rtol=1e-13, atol=0, err_msg=name)

    def test_edges_far_below_the_largest_utility(self):
        # item 0 sits 800 above the rest: exp(u - max u) underflows on the
        # edges without it, and exp(u_0 - u_1) overflows
        u = np.array([800.0, 0.0, -1.0, 0.5])
        ds = Dataset(4, [Observation((1, 2)), Observation((2, 3, 1)), Observation((0, 1))])
        got, _ = batch_marginal_inverse_variance(u, ds)
        assert got.tolist()[0] == 0.0 and np.all(np.isfinite(got))
        assert got[1:] == pytest.approx([0.554, 0.461, 0.326], abs=5e-4)
        np.testing.assert_allclose(got, [marginal_inverse_variance_loop(u, ds, k) for k in range(4)], rtol=1e-13, atol=0)
        assert pairwise_info_term(u, (0, 1), 0) == 0.0
        got_q, _ = batch_qmle_inverse_variance(u, ds)
        assert got_q.tolist()[0] == 0.0 and np.all(got_q[1:] > 0)
        np.testing.assert_allclose(got_q, [qmle_inverse_variance_loop(u, ds, k) for k in range(4)], rtol=1e-13, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(cutoff_datasets(max_obs=12), utilities(8))
    def test_per_item_views_are_batch_entries(self, ds, u):
        # each view runs the batch kernel on k's observations alone, adding
        # k's terms in the same order, so the entries are bitwise the same
        u = u[: ds.n]
        got, got_q = batch_marginal_inverse_variance(u, ds)[0], batch_qmle_inverse_variance(u, ds)[0]
        assert np.array_equal([marginal_inverse_variance(u, ds, k) for k in range(ds.n)], got)
        assert np.array_equal([qmle_inverse_variance(u, ds, k) for k in range(ds.n)], got_q)
        edge = ds.edges[0]
        info, var, _ = _qmle_moments(u, Dataset(ds.n, [Observation(edge)]))
        assert [pairwise_info_term(u, edge, k) for k in edge] == info[list(edge)].tolist()
        assert [pairwise_var_term(u, edge, k) for k in edge] == var[list(edge)].tolist()

    @pytest.mark.parametrize("view", [marginal_inverse_variance, qmle_inverse_variance])
    @pytest.mark.parametrize("k", [-1, 3])
    def test_item_outside_the_dataset(self, view, k):
        ds = Dataset(3, [Observation((0, 1, 2))])
        with pytest.raises(ValueError, match=f"item {k} outside"):
            view(np.zeros(3), ds, k)

    def test_wide_edge_budget(self):
        # P(11, 9) is about 2e7 prefixes: raise before anything is enumerated
        u = np.zeros(12)
        with pytest.raises(EnumerationBudgetError):
            marginal_info_term(u, tuple(range(11)), 10, 0)
        assert marginal_info_term(u, tuple(range(11)), 11, 0) == 0.0
        # the view checks only the edges that hold k, and names them by their own index
        small = [Observation((11, 0)), Observation((1, 11, 2))]
        ds = Dataset(12, small[:1] + [Observation(tuple(range(11)))] + small[1:])
        with pytest.raises(EnumerationBudgetError) as err:
            marginal_inverse_variance(u, ds, 0)
        assert err.value.per_edge == {1: sum(math.perm(11, d) for d in range(1, 11))}
        assert marginal_inverse_variance(u, ds, 11) == batch_marginal_inverse_variance(u, Dataset(12, small))[0][11]
        assert qmle_inverse_variance(u, ds, 0) > 0

    def test_wide_edges(self):
        # P(8, 7) = 40,320 prefixes: a full 8-item ranking fills a row batch alone
        rng = np.random.default_rng(80)
        n = 12
        u = center(rng.uniform(-10.0, 10.0, n))  # a spread of about 20, inside the fast path
        edges = [tuple(rng.choice(n, 8, replace=False).tolist()) for _ in range(6)]
        ds = Dataset(n, [Observation(e).with_cutoff(y) for e, y in zip(edges, (8, 8, 8, 3, 3, 3))])
        got, cost = batch_marginal_inverse_variance(u, ds)
        want = np.zeros(n)
        for (m, y), (_, rankings) in grouped_rankings(ds).items():
            np.add.at(want, rankings, _prefix_info(u[rankings], min(y, m - 1), far=True))  # the far branch, forced
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        assert cost == 3 * sum(math.perm(8, d) for d in range(1, 8)) + 3 * sum(math.perm(8, d) for d in range(1, 4))
        with mock.patch.object(plrank.likelihood, "_CHUNK", 1):  # one row per batch
            assert np.array_equal(batch_marginal_inverse_variance(u, ds)[0], got)

    def test_monotonicity_in_data(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            n = 6
            u = center(rng.uniform(-1, 1, n))
            base_edges = [tuple(sorted(rng.choice(n, size=3, replace=False).tolist())) for _ in range(4)]
            k = int(rng.integers(0, n))
            extra = tuple(sorted([k] + [int(v) for v in rng.choice([x for x in range(n) if x != k], 2, replace=False)]))
            ds = sample_rankings(u, base_edges, rng)
            ds_plus = sample_rankings(u, base_edges + [extra], rng)
            assert marginal_inverse_variance(u, ds_plus, k) > marginal_inverse_variance(u, ds, k)
            info_base = sum(pairwise_info_term(u, e, k) for e in base_edges if k in e)
            info_plus = info_base + pairwise_info_term(u, extra, k)
            assert info_plus > info_base

    def test_monotonicity_in_cutoff(self):
        rng = np.random.default_rng(78)
        u = center(rng.uniform(-1, 1, 5))
        edges = [(0, 1, 2, 3, 4), (0, 1, 2), (1, 2, 3, 4)]
        ds = sample_rankings(u, edges, rng)
        prev = np.zeros(5)
        for y in range(1, 6):
            cur = np.array([marginal_inverse_variance(u, ds.with_cutoff(y), k) for k in range(5)])
            assert np.all(cur >= prev - 1e-15)
            prev = cur

    def test_monte_carlo_score_variance(self):
        # inverse variance equals Var(score entry) at the truth (moment identity)
        rng = np.random.default_rng(79)
        n = 5
        u_star = center(rng.uniform(-0.5, 0.5, n))
        edges = [(0, 1, 2), (1, 2, 3, 4), (0, 3), (2, 3, 4), (0, 1, 4)]
        cutoffs = (2, 3, 1, 3, 1)
        ds = Dataset(n, [Observation(e).with_cutoff(y) for e, y in zip(edges, cutoffs)])
        want = np.array([marginal_inverse_variance(u_star, ds, k) for k in range(n)])
        reps = 10000
        vals = np.zeros((reps, n))
        for r in range(reps):
            drawn = sample_rankings(u_star, edges, rng)
            drawn = Dataset(n, [o.with_cutoff(y) for o, y in zip(drawn.observations, cutoffs)])
            vals[r] = marginal_score(u_star, drawn)
        var = vals.var(axis=0)
        # standard error of a sample variance via fourth moments
        m4 = ((vals - vals.mean(axis=0)) ** 4).mean(axis=0)
        se = np.sqrt(np.maximum(m4 - var**2, 0) / reps)
        assert np.all(np.abs(var - want) <= 4 * se)


class TestExactValues:
    """Every inverse variance, expected-Hessian weight and observed-Hessian
    entry against 50-digit mpmath, within 1e-13 relative."""

    @staticmethod
    def check(u, ds, rtol=1e-13):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            rho = exact_marginal_inverse_variance(mpmath, u, ds)
            rho_q = exact_qmle_inverse_variance(mpmath, u, ds)
            weights = exact_expected_pair_weights(mpmath, u, ds)
            hessian = exact_marginal_hessian(mpmath, u, ds)
        got = {
            "batch": batch_marginal_inverse_variance(u, ds)[0],
            "per-item": [marginal_inverse_variance(u, ds, k) for k in range(ds.n)],
            "qmle batch": batch_qmle_inverse_variance(u, ds)[0],
            "qmle per-item": [qmle_inverse_variance(u, ds, k) for k in range(ds.n)],
            "expected Hessian": expected_marginal_hessian(u, ds).toarray() * (1 - np.eye(ds.n)),
            "Hessian": marginal_hessian(u, ds).toarray(),
        }
        want = {"batch": rho, "per-item": rho, "qmle batch": rho_q, "qmle per-item": rho_q, "expected Hessian": weights,
                "Hessian": hessian}
        for name, value in got.items():
            assert np.all(np.isfinite(value)), name
            np.testing.assert_allclose(value, want[name], rtol=rtol, atol=0, err_msg=name)

    @settings(max_examples=40, deadline=None)
    @given(cutoff_datasets(max_items=6, max_m=5, max_obs=4), utilities(6, bound=30.0))
    def test_mpmath_oracle_property(self, ds, u):
        self.check(u[: ds.n], ds)

    @pytest.mark.parametrize("u, observations", [
        # one item leads by 30: the subtracted forms were 1.4e-3 off
        ([30.0, 0.0, -1.0], [(0, 1, 2)]),
        ([5.0, 5.0, 1.77, 2.5, -1.0, -5.0],
         [(2, 5, 4, 1, 3, 0), (3, 5, 0, 2), (3, 0, 4, 1, 5), (4, 2, 5, 1), (0, 5, 3, 4, 2, 1), (2, 3, 5, 1)]),
        # the QMLE cross term of item 0 was 1.1e-11 off
        ([12.0, 0.0, 0.5, -1.0], [(0, 1, 2, 3)]),
        # utility spreads beyond the rescue threshold: the stage sums left after
        # item 0 is ranked, or their squares, underflow on the per-edge shift
        # (NaN and zero SEs, an inf or NaN expected Hessian, a NaN observed
        # Hessian from spread 354 on); item 0's own inverse variances, about
        # 3 e^-800, are below the double range
        ([0.0, -800.0, -800.0, -800.0], [(0, 1, 2, 3)]),
        ([0.0, -400.0, -400.0], [(0, 1, 2)]),
        ([0.0, -800.0, -800.0], [(0, 1, 2)]),
    ])
    def test_regressions(self, u, observations):
        u = np.array(u)
        self.check(u, Dataset(len(u), [Observation(o) for o in observations]))


class TestQuantiles:
    def test_table_values(self):
        assert z_for_level(0.95) == pytest.approx(1.959963984540054, abs=1e-9)
        assert z_for_level(0.90) == pytest.approx(1.6448536269514722, abs=1e-9)
        assert z_for_level(0.99) == pytest.approx(2.5758293035489004, abs=1e-9)

    def test_against_scipy(self):
        grid = np.concatenate([
            np.linspace(1e-8, 0.02, 60),
            np.linspace(0.02, 0.98, 200),
            np.linspace(0.98, 1 - 1e-8, 60),
        ])
        for p in grid:
            assert abs(normal_quantile(float(p)) - norm.ppf(p)) < 1e-8

    def test_arbitrary_level(self):
        assert z_for_level(0.935) == pytest.approx(norm.ppf((1 + 0.935) / 2), abs=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            normal_quantile(0.0)
        with pytest.raises(ValueError):
            z_for_level(1.0)


class TestStandardErrors:
    def test_two_item_hand_check(self):
        ds = Dataset(2, [Observation((0, 1))] * 3 + [Observation((1, 0))])
        res = fit_qmle(ds, FitConfig(tol_grad_inf=1e-12, max_iter=20000))
        report = standard_errors(res, ds, level=0.95)
        gap = res.estimate[0] - res.estimate[1]
        p = 1.0 / (1.0 + math.exp(-gap))
        sigma = 1.0 / math.sqrt(4 * p * (1 - p))
        assert report.sigma[0] == pytest.approx(sigma, rel=1e-9)
        assert np.all(report.ci_low < report.estimate)
        assert np.all(report.estimate < report.ci_high)
        width = report.ci_high - report.ci_low
        assert width[0] == pytest.approx(2 * 1.959963984540054 * sigma, rel=1e-9)

    def test_covers(self, small_dataset):
        u_star, ds = small_dataset
        res = fit_qmle(ds)
        report = standard_errors(res, ds, level=0.95)
        hits = report.covers(u_star)
        assert hits.shape == (ds.n,)
        assert hits.dtype == bool

    def test_marginal_family_uses_fit_cutoffs(self, small_dataset):
        _, ds = small_dataset
        res = fit_marginal_mle(ds, 1, FitConfig(tol_grad_inf=1e-9))
        report = standard_errors(res, ds)
        want, _ = batch_marginal_inverse_variance(res.estimate, ds.with_cutoff(1))
        assert np.allclose(report.sigma, 1 / np.sqrt(want), rtol=1e-12)
        assert report.n_k.tolist() == ds.degrees().tolist()

    def test_budget_error_lists_edges(self, small_dataset):
        _, ds = small_dataset
        res = fit_marginal_mle(ds, "full", FitConfig(tol_grad_inf=1e-9))
        with pytest.raises(EnumerationBudgetError) as err:
            standard_errors(res, ds, prefix_budget=3)
        assert err.value.per_edge

    def test_budget_is_per_edge(self):
        # 50,000 five-way edges need 205 prefixes each, 10.25 M in total: over
        # the default budget as a dataset total, well within it per edge
        rng = np.random.default_rng(77)
        n, count = 2000, 50_000
        starts = rng.integers(0, n, count)
        edges = (starts[:, None] + np.arange(5)) % n
        ds = Dataset(n, [Observation(tuple(e)) for e in edges.tolist()])
        u = center(rng.uniform(-0.5, 0.5, n))
        fitted = FitResult(u, "full", 0.0, 1, True, 0.0)
        report = standard_errors(fitted, ds)
        assert report.theta_cost == 205 * count
        assert np.all(np.isfinite(report.sigma))
        with pytest.raises(EnumerationBudgetError) as err:
            standard_errors(fitted, ds, prefix_budget=204)
        assert len(err.value.per_edge) == count

    def test_requires_convergence(self, small_dataset):
        _, ds = small_dataset
        res = fit_marginal_mle(ds, None, FitConfig(tol_grad_inf=1e-13, max_iter=1))
        with pytest.raises(ValueError, match="converged"):
            standard_errors(res, ds)

    def test_csv_output(self, tmp_path, small_dataset):
        _, ds = small_dataset
        res = fit_qmle(ds)
        report = standard_errors(res, ds)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "item,estimate,sigma,ci_low,ci_high,n_k"
        assert len(lines) == 1 + ds.n
