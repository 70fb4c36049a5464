import math
import time

import numpy as np
import pytest
from scipy import stats

from relaygeom import montecarlo, validation
from relaygeom.validation import _ks_statistic, binomial_consistent


class TestBinomialConsistent:
    def test_normal_regime_matches_z_band(self):
        n, p0 = 100_000, 0.1
        sigma = math.sqrt(n * p0 * (1 - p0))
        inside = int(n * p0 + 2.9 * sigma)
        outside = int(n * p0 + 3.1 * sigma) + 1
        assert binomial_consistent(inside, n, p0)[0]
        assert not binomial_consistent(outside, n, p0)[0]

    def test_zscore_sign_and_scale(self):
        n, p0 = 10_000, 0.25
        ok, z = binomial_consistent(2500, n, p0)
        assert ok and z == 0.0
        _, z_hi = binomial_consistent(2600, n, p0)
        assert z_hi == pytest.approx(100 / math.sqrt(n * 0.25 * 0.75))

    def test_exact_regime_against_scipy_tails(self):
        # var < 25 forces the exact branch; compare against scipy's tails at
        # the same 0.27% two-sided confidence
        alpha = 0.0026997960632601866
        for n, p0 in ((100_000, 1e-5), (100_000, 1.5e-4), (5000, 1e-3), (400, 0.01)):
            dist = stats.binom(n, p0)
            for count in range(0, min(n, 30)):
                lower = float(dist.cdf(count))
                upper = float(dist.sf(count - 1))
                expected = (lower if count <= n * p0 else upper) >= alpha / 2.0
                got, _ = binomial_consistent(count, n, p0)
                assert got == expected, (n, p0, count, lower, upper)

    def test_extreme_rates(self):
        assert binomial_consistent(0, 1000, 0.0)[0]
        assert not binomial_consistent(1, 1000, 0.0)[0]
        assert binomial_consistent(1000, 1000, 1.0)[0]
        assert not binomial_consistent(999, 1000, 1.0)[0]
        # p0 near 1: flipped to the complement side
        assert binomial_consistent(100_000, 100_000, 1.0 - 1e-6)[0]
        assert not binomial_consistent(100_000 - 20, 100_000, 1.0 - 1e-6)[0]

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            binomial_consistent(1, 10, 1.5)


class TestKsStatistic:
    def test_matches_scipy_on_proper_distribution(self):
        rng = np.random.default_rng(7)
        samples = np.sort(rng.random(500))
        mine = _ks_statistic(samples, samples, 1.0, samples.size)  # F(x) = x on [0, 1]
        ref = stats.kstest(samples, "uniform").statistic
        assert mine == pytest.approx(ref, rel=1e-12)

    def test_defective_distribution_counts_missing_mass(self):
        # half the draws "never happened"; the model says everything arrives
        samples = np.linspace(0.0, 1.0, 50)
        n = 100
        d = _ks_statistic(samples, samples, 1.0, n)
        assert d == pytest.approx(0.5, abs=0.02)


class TestStatCsiRecords:
    def test_records_cover_grid_and_explain_verdict(self, monkeypatch):
        # the check records where it asks for the rank-joint diagnostic
        grid, trials = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0), 4000
        joint_calls = []
        full = validation.exact_ranked_outage

        def recording_joint(k, cell, radio):
            joint_calls.append((k, radio.snr_db))
            return full(k, cell, radio)

        monkeypatch.setattr(validation, "exact_ranked_outage", recording_joint)
        estimates = montecarlo.estimate_outage_grid(
            validation.DEFAULT_CELL, validation._STAT_CSI_ROWS, trials, 42, workers=1
        )
        result = validation.check_stat_csi_outage(estimates)
        points = result.records
        assert [(p.k, p.snr_db) for p in points] == [(k, s) for k in (1, 2, 3) for s in grid]
        assert all(p.trials == trials and p.p_hat == p.outage_count / trials for p in points)
        rejected = [(p.k, p.snr_db) for p in points if p.rejected]
        assert rejected, "expected the k=3 product-form gap at 25 dB"
        assert joint_calls == rejected
        for p in points:
            assert (p.rank_joint is not None) == p.rejected
            assert (p.rank_joint_zscore is not None) == p.rejected
        direction_ok = all(p.p_hat >= p.product for p in points if p.k >= 2 and p.snr_db == 0.0)
        assert result.passed == (not rejected and direction_ok)
        assert result.detail.count("MISMATCH (rank-joint exact=") == len(rejected)


def _kind(request) -> tuple:
    """A request as ``(rows or kind, trials)``."""
    if isinstance(request, montecarlo.OutageGridRequest):
        return len(request.rows), request.trials
    return type(request).__name__, request.trials


class TestRunAllSharesDraws:
    """``run_all`` judges criteria 3, 4, 6 and 7 on one Monte Carlo pass;
    each result must be the check applied to its sampler's results on their
    own, and nothing may carry over from one call to the next."""

    SIZES = {"trials": 600, "samples": 300, "mean_count_trials": 200, "seed": 42}
    #: passes of one run: criteria 3, 4, 6 and 7 together at the run's seed,
    #: then criterion 9's 9-row sweep at 1 and at 2 workers
    RUN = [
        (42, [(4 + 21, 600), ("KthDistancesRequest", 300), ("MeanCountRequest", 200)]),
        (7, [(9, 2000)]),
        (7, [(9, 2000)]),
    ]

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        run = montecarlo.run_requests

        def counting_run(requests, seed, **kwargs):
            calls.append((seed, [_kind(r) for r in requests]))
            return run(requests, seed, **kwargs)

        monkeypatch.setattr(montecarlo, "run_requests", counting_run)
        return calls

    @staticmethod
    def _standalone(trials, samples, mean_count_trials, workers):
        """Criteria 3, 4, 6 and 7, each judged on its own sampler's run at seed 42."""
        cell, theta = validation.DEFAULT_CELL, validation.THETA_15DB
        return [
            validation.check_exact_csi_outage(
                montecarlo.estimate_outage_grid(
                    cell, validation._EXACT_CSI_ROWS, trials, 42, workers=workers
                )
            ),
            validation.check_stat_csi_outage(
                montecarlo.estimate_outage_grid(
                    cell, validation._STAT_CSI_ROWS, trials, 42, workers=workers
                )
            ),
            validation.check_fk_distribution(
                montecarlo.kth_nearest_qualified_distances(cell, theta, 3, samples, 42, workers=workers)
            ),
            validation.check_mean_count_curves(
                montecarlo.empirical_mean_count(
                    validation._MEAN_COUNT_RADII, cell, theta, mean_count_trials, 42, workers=workers
                ),
                mean_count_trials,
            ),
        ]

    @staticmethod
    def _assert_shared_equal_alone(shared_results, alone):
        results = {r.name: r for r in shared_results}
        for check in alone:
            shared = results[check.name]
            note = "" if check.name.startswith("stat_csi") else validation._SHARED_DRAW_NOTE
            assert (shared.passed, shared.detail, shared.records) == (
                check.passed,
                check.detail + note,
                check.records,
            )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_equal_standalone_checks(self, workers, passes):
        results = validation.run_all(**self.SIZES, workers=workers)
        assert passes == self.RUN
        self._assert_shared_equal_alone(results, self._standalone(600, 300, 200, workers))
        by_name = {r.name: r for r in results}
        assert len(by_name["stat_csi_outage_mc_vs_analytic"].records) == 21
        for res in results:
            assert math.isfinite(res.seconds) and res.seconds >= 0

    @pytest.mark.parametrize(
        "sizes",
        [
            {"trials": 90, "samples": 200, "mean_count_trials": 60},
            {"trials": 90, "samples": 50, "mean_count_trials": 170},
        ],
        ids=["samples_beyond_trials", "mean_counts_beyond_trials"],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_prefixes_equal_standalone_checks(self, sizes, workers, monkeypatch):
        # each check reads its own first trials of the pass; the worker split
        # and the block edges fall inside some check's prefix
        alone = self._standalone(**sizes, workers=1)
        for block in (1, 7, 64, 1000):
            monkeypatch.setattr(montecarlo, "_BLOCK_TRIALS", block)
            shared = validation._monte_carlo_checks(**sizes, seed=42, workers=workers)
            self._assert_shared_equal_alone(shared, alone)

    def test_one_pass_per_run_and_no_memo(self, passes):
        first = validation.run_all(**self.SIZES, workers=1)
        assert passes == self.RUN
        assert [seed for seed, _ in passes].count(42) == 1
        second = validation.run_all(**self.SIZES, workers=1)
        assert passes == self.RUN + self.RUN
        assert [(r.passed, r.detail) for r in first] == [(r.passed, r.detail) for r in second]

    def test_shared_draw_is_timed_in_criterion_4_only(self, monkeypatch):
        run = montecarlo.run_requests

        def slow_run(requests, seed, **kwargs):
            # only the shared pass sleeps, not criterion 9's sweeps
            if seed == self.SIZES["seed"]:
                time.sleep(0.5)
            return run(requests, seed, **kwargs)

        monkeypatch.setattr(montecarlo, "run_requests", slow_run)
        results = {r.name: r for r in validation.run_all(**self.SIZES, workers=1)}
        assert results["stat_csi_outage_mc_vs_analytic"].seconds >= 0.5
        for name in (
            "exact_csi_outage_mc_vs_analytic",
            "kth_nearest_distance_ks",
            "mean_count_curves",
        ):
            assert results[name].seconds < 0.5
            assert results[name].detail.endswith(validation._SHARED_DRAW_NOTE)
