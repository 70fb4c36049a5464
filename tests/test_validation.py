import contextlib
import hashlib
import math
import multiprocessing
import time

import numpy as np
import pytest
from scipy import stats

from relaygeom import analytic, cli, montecarlo, validation
from relaygeom.model import CellGeometry
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


class TestInnerIntegralCheck:
    """Criterion 1 checks ``analytic._inner_core`` at the scales that
    ``lambda_q_quadrature`` and the mass oracle ``_angular_mass`` run."""

    @staticmethod
    def _slices(monkeypatch, run) -> set:
        seen = set()
        core = analytic._inner_core

        def recording(r_jd, phi, r_d, theta, log_scale):
            seen.add((r_d, theta, log_scale))
            return core(r_jd, phi, r_d, theta, log_scale)

        with monkeypatch.context() as patch:
            patch.setattr(analytic, "_inner_core", recording)
            run()
        return seen

    def test_covers_the_slices_its_callers_run(self, monkeypatch):
        checked = self._slices(monkeypatch, validation.check_inner_integral)

        def callers():
            for r_d in (0.0, 2.0, 5.0):
                cell = CellGeometry(cell_radius=20.0, dest_distance=r_d, relay_intensity=0.5)
                for theta in (0.01, 0.1, 1.0):
                    analytic.lambda_q_quadrature(cell, theta)
                    validation._angular_mass(10.0, cell, theta)

        production = self._slices(monkeypatch, callers)
        assert len(production) == 18
        assert production <= checked

    def test_fails_when_a_scaled_slice_is_off(self, monkeypatch):
        # wrong by 1e-6 relative only away from log_scale = 0, the one scale
        # the unscaled public wrapper used to reach
        core = analytic._inner_core

        def skewed(r_jd, phi, r_d, theta, log_scale):
            value = core(r_jd, phi, r_d, theta, log_scale)
            return value * (1.0 + 1e-6) if log_scale != 0.0 else value

        monkeypatch.setattr(analytic, "_inner_core", skewed)
        result = validation.check_inner_integral()
        assert not result.passed
        assert "worst relative error 1.00e-06" in result.detail

    def test_integrates_each_distinct_reference_once(self, monkeypatch):
        # 450 closed values; at r_d = 0 all five bearings share a = 0, so
        # those 150 values take one quadrature per (theta, slice, r_jd): 30
        integrate, calls = validation.integrate_1d, []

        def counting(*args):
            calls.append(args)
            return integrate(*args)

        monkeypatch.setattr(validation, "integrate_1d", counting)
        assert validation.check_inner_integral().passed
        assert len(calls) == 330


class TestMeanCountCurves:
    def test_detail_reads_the_trials_from_the_curves(self):
        empirical = montecarlo.empirical_mean_count(
            validation._MEAN_COUNT_RADII, validation.DEFAULT_CELL, validation.THETA_15DB, 200, 42
        )
        result = validation.check_mean_count_curves(empirical)
        assert result.detail.startswith("grid 0..25 step 1, trials=200; ")

    def test_rejects_a_destination_point_past_the_inner_radius(self):
        # r = 20 lies past R - r_d = 15, where the circle leaves the cell;
        # the analytic curve is exact there at 15 dB and the point is judged
        empirical = montecarlo.empirical_mean_count(
            validation._MEAN_COUNT_RADII, validation.DEFAULT_CELL, validation.THETA_15DB, 200, 42
        )
        assert validation.check_mean_count_curves(empirical).passed
        point = empirical["dest"][20]
        assert point.radius == 20.0
        off = point._replace(mean=point.mean + 10.0 * point.stderr)
        empirical["dest"] = [*empirical["dest"][:20], off, *empirical["dest"][21:]]
        result = validation.check_mean_count_curves(empirical)
        assert not result.passed
        assert "dest at r=20: " in result.detail

    @staticmethod
    def _judge(monkeypatch, dest_curve):
        """Criterion 7 on empirical curves equal to the analytic ones, with the
        analytic destination view replaced by ``dest_curve(bs, dest)``."""
        cell, theta, grid = validation.DEFAULT_CELL, validation.THETA_15DB, validation._MEAN_COUNT_RADII
        bs = np.asarray(analytic.mean_count_from_bs(grid, cell, theta))
        dest = dest_curve(bs, np.asarray(analytic.lambda_prime(grid, cell, theta)))
        monkeypatch.setattr(validation.analytic, "lambda_prime", lambda *args: dest)
        empirical = {
            who: [montecarlo.MeanCountPoint(r, m, 0.0, 200) for r, m in zip(grid, curve.tolist())]
            for who, curve in (("bs", bs), ("dest", dest))
        }
        return validation.check_mean_count_curves(empirical)

    def test_fails_when_dest_exceeds_bs_inside_the_offset(self, monkeypatch):
        result = self._judge(monkeypatch, lambda bs, dest: 1.01 * bs)
        assert not result.passed
        assert "; analytic dest > bs at r=1; empirical dest > bs at r=1;" in result.detail
        assert "curves differ" not in result.detail

    def test_fails_on_a_far_edge_gap(self, monkeypatch):
        result = self._judge(monkeypatch, lambda bs, dest: np.append(dest[:-1], 0.95 * bs[-1]))
        assert not result.passed
        assert result.detail.endswith("; curves differ at far edge: analytic 0.0500, empirical 0.0500")


class TestCliSweep:
    def test_sweep_bytes_are_pinned(self):
        output = validation._cli_sweep(1).output
        assert len(output) == 1012
        assert hashlib.sha256(output).hexdigest() == (
            "e7afdc6ae59c0226baca4eebc6aef71af8f9f163e30a79100894efae7735b8c1"
        )


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
        running = montecarlo.running_requests

        def counting_running(requests, seed, **kwargs):
            calls.append((seed, [_kind(r) for r in requests]))
            return running(requests, seed, **kwargs)

        monkeypatch.setattr(montecarlo, "running_requests", counting_running)
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
                )
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
            with validation._monte_carlo_checks(**sizes, seed=42, workers=workers) as judge:
                self._assert_shared_equal_alone(judge(), alone)

    def test_one_pass_per_run_and_no_memo(self, passes):
        first = validation.run_all(**self.SIZES, workers=1)
        assert passes == self.RUN
        assert [seed for seed, _ in passes].count(42) == 1
        second = validation.run_all(**self.SIZES, workers=1)
        assert passes == self.RUN + self.RUN
        assert [(r.passed, r.detail) for r in first] == [(r.passed, r.detail) for r in second]

    def test_shared_draw_is_timed_in_criterion_4_only(self, monkeypatch):
        running = montecarlo.running_requests

        @contextlib.contextmanager
        def slow_running(requests, seed, **kwargs):
            with running(requests, seed, **kwargs) as results:

                def slow_results():
                    # only the shared pass sleeps, not criterion 9's sweeps
                    if seed == self.SIZES["seed"]:
                        time.sleep(0.5)
                    return results()

                yield slow_results

        monkeypatch.setattr(montecarlo, "running_requests", slow_running)
        results = {r.name: r for r in validation.run_all(**self.SIZES, workers=1)}
        assert results["stat_csi_outage_mc_vs_analytic"].seconds >= 0.5
        for name in (
            "exact_csi_outage_mc_vs_analytic",
            "kth_nearest_distance_ks",
            "mean_count_curves",
        ):
            assert results[name].seconds < 0.5
            assert results[name].detail.endswith(validation._SHARED_DRAW_NOTE)


class TestPassWindow:
    """``run_all`` runs its serial checks while the pass's workers draw."""

    SIZES = TestRunAllSharesDraws.SIZES

    def test_serial_checks_run_while_the_workers_draw(self, monkeypatch):
        events = []

        start, inner, running = (
            montecarlo._start,
            validation.check_inner_integral,
            montecarlo.running_requests,
        )

        def spy_start(*args):
            events.append("start")
            return start(*args)

        def spy_inner():
            events.append("criterion 1 starts")
            result = inner()
            events.append("criterion 1 ends")
            return result

        @contextlib.contextmanager
        def spy_running(requests, seed, **kwargs):
            with running(requests, seed, **kwargs) as results:

                def read():
                    events.append(f"results of seed {seed} read")
                    return results()

                yield read

        monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 2)
        monkeypatch.setattr(montecarlo, "_start", spy_start)
        monkeypatch.setattr(validation, "check_inner_integral", spy_inner)
        monkeypatch.setattr(montecarlo, "running_requests", spy_running)
        validation.run_all(**self.SIZES, workers=2)
        # criterion 9's sweeps at seed 7: one worker in the window, then two
        assert events == [
            "start",
            "start",
            "criterion 1 starts",
            "criterion 1 ends",
            "results of seed 7 read",
            "results of seed 42 read",
            "start",
            "start",
            "results of seed 7 read",
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_worker_outlives_a_check_that_raises(self, workers, monkeypatch):
        def broken():
            raise RuntimeError("criterion 8 broke")

        monkeypatch.setattr(validation, "check_normalization", broken)
        with pytest.raises(RuntimeError, match="criterion 8 broke"):
            validation.run_all(**self.SIZES, workers=workers)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failing", [1, 2])
    def test_failed_sweep_names_its_worker_count(self, failing, monkeypatch):
        main = cli.main

        def flaky_main(argv):
            return 2 if argv[-2:] == ["--workers", str(failing)] else main(argv)

        monkeypatch.setattr(cli, "main", flaky_main)
        result = validation.check_cli_determinism(validation._cli_sweep(1), validation._cli_sweep(2))
        assert result.line().startswith("[FAIL] cli_determinism")
        assert result.detail == f"sweep exited with code 2 at {failing} workers"
