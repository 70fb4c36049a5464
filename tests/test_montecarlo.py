import contextlib
import hashlib
import math
import multiprocessing
import os
import signal
import threading
import tracemalloc
import weakref
from collections.abc import Sequence
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import sample_field
from relaygeom import montecarlo as mc
from relaygeom import cli, validation
from relaygeom.montecarlo import sq_dists_to_dest
from relaygeom.model import CellGeometry, RadioParams, Thresholds, compute_thresholds
from relaygeom.quadrature import integrate_1d


class TestTrialRng:
    def test_same_trial_same_stream(self):
        a = mc.trial_rng(42, 7).random(5)
        b = mc.trial_rng(42, 7).random(5)
        assert np.array_equal(a, b)

    def test_trials_and_seeds_are_distinct(self):
        base = mc.trial_rng(42, 7).random(5)
        assert not np.array_equal(base, mc.trial_rng(42, 8).random(5))
        assert not np.array_equal(base, mc.trial_rng(43, 7).random(5))

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            mc.trial_rng(1, -1)

    @pytest.mark.parametrize(
        ("seed", "trial_index", "named"),
        [
            (5.7, 2, "seed"),
            (7.9, 0, "seed"),
            (math.nan, 0, "seed"),
            ("12", 0, "seed"),
            (True, 0, "seed"),
            (np.True_, 0, "seed"),
            (5, 2.9, "trial_index"),
            (5, 2.0, "trial_index"),
            (5, "3", "trial_index"),
            (5, False, "trial_index"),
            (5, -1, "trial_index"),
        ],
    )
    def test_refuses_a_seed_or_index_that_is_not_an_integer(self, seed, trial_index, named):
        with pytest.raises(ValueError, match=f"^{named} must be an integer"):
            mc.trial_rng(seed, trial_index)

    def test_numpy_integers_draw_what_ints_draw(self):
        want = mc.trial_rng(7, 3).random(5)
        for seed, t in ((np.int64(7), 3), (7, np.int64(3)), (np.uint8(7), np.int32(3))):
            assert mc.trial_rng(seed, t).random(5).tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, -1, 2**64 + 5, 2**128 - 1])
    def test_reset_stream_is_the_trial_stream(self, seed):
        # a generator moved onto trial t draws what the documented stream
        # and trial_rng draw, whatever it drew before: three raw 32-bit words
        # leave half a 64-bit word pending, and five doubles part of a block
        def draws(g):
            return [
                g.random(5),
                g.integers(0, 2**32, size=3, dtype=np.uint32),
                g.poisson(628.3),
                g.standard_exponential(6),
                g.random(1),
            ]

        rng = mc.trial_rng(3, 9)
        for t in (0, 1, 7, 2**32 + 1, 2**40):
            draws(rng)
            rng.bit_generator.state = mc._trial_state(seed, t)
            moved = draws(rng)
            documented = np.random.Philox(key=seed % 2**128, counter=[0, 0, 0, t])
            for reference in (np.random.Generator(documented), mc.trial_rng(seed, t)):
                for a, b in zip(moved, draws(reference), strict=True):
                    assert np.array_equal(a, b)


def _qualified(cell: CellGeometry, theta: float, rng) -> tuple:
    """The source distances and squared destination distances of one trial's
    relays qualified at ``theta``."""
    return mc._draw_block(cell, mc._Plan.of([theta]), [rng])[2:4]


def _kept_fraction(ring_field, radius: float, theta: float, n: int, rng) -> float:
    ring_field(radius, n)
    cell = CellGeometry(cell_radius=radius + 1.0, dest_distance=0.0, relay_intensity=0.5)
    return _qualified(cell, theta, rng)[0].size / n


class TestFadingGain:
    """Fading gains are unit-mean exponentials. A relay at the source keeps
    its first hop iff its gain reaches the threshold, so the kept fraction
    reads the gain law's tail off the simulation path itself."""

    def test_unit_mean(self, ring_field, rng):
        # Exp with mean m: P(g >= theta) = exp(-theta / m), so m = -theta / log p
        n, theta = 200_000, 1.0
        p = _kept_fraction(ring_field, 0.0, theta, n, rng)
        mean = -theta / math.log(p)
        # delta method: sd(mean) = mean^2 / theta * sd(p) / p
        sd = mean * mean / theta * math.sqrt(p * (1 - p) / n) / p
        assert abs(mean - 1.0) < 3 * sd

    def test_exponential_tail(self, ring_field, rng):
        n = 100_000
        p = _kept_fraction(ring_field, 0.0, 0.3, n, rng)
        target = math.exp(-0.3)  # 0.7408
        assert abs(p - target) < 3 * math.sqrt(target * (1 - target) / n)
        assert _kept_fraction(ring_field, 0.0, 0.0, 1000, rng) == 1.0  # gains are >= 0


class TestQualifyRelays:
    def test_zero_threshold_keeps_all(self, default_cell):
        for t in range(20):
            radii, angles = sample_field(default_cell, mc.trial_rng(0, t))
            kept_r, kept_d2 = _qualified(default_cell, 0.0, mc.trial_rng(0, t))
            d2 = sq_dists_to_dest(radii, angles, default_cell.dest_distance)
            assert np.array_equal(kept_r, radii) and np.array_equal(kept_d2, d2)

    @pytest.mark.parametrize("radius, theta", [(0.5, 0.5), (1.5, 0.3), (3.0, 0.1)])
    def test_keep_probability_at_fixed_radius(self, radius, theta, ring_field, rng):
        n = 20_000
        kept = _kept_fraction(ring_field, radius, theta, n, rng)
        p = math.exp(-theta * (1 + radius**2))
        assert abs(kept - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_survivor_mean_count_matches_quadrature(self, rng):
        # thinned mean over the cell: 2 pi lam int r exp(-theta(1+r^2)) dr
        cell = CellGeometry(cell_radius=10.0, dest_distance=0.0, relay_intensity=0.5)
        theta = 0.2
        oracle = (
            2.0
            * math.pi
            * cell.relay_intensity
            * integrate_1d(lambda r: r * np.exp(-theta * (1 + r * r)), 0.0, cell.cell_radius)
        )
        trials = 3000
        counts = np.array([_qualified(cell, theta, rng)[0].size for _ in range(trials)])
        sem = counts.std(ddof=1) / math.sqrt(trials)
        assert abs(counts.mean() - oracle) < 3 * sem


def _qualified_count(cell: CellGeometry, theta_first: float, seed: int, t: int) -> int:
    return _qualified(cell, theta_first, mc.trial_rng(seed, t))[0].size


class TestTrials:
    def test_zero_thresholds_outage_iff_empty(self):
        # lam pi R^2 = 5 -> outage rate ~ exp(-5)
        cell = CellGeometry(
            cell_radius=10.0, dest_distance=3.0, relay_intensity=5.0 / (math.pi * 100.0)
        )
        th = Thresholds(0.0, 0.0)
        n = 20_000
        outages = 0
        for t in range(n):
            outage = mc.trial_exact_csi(cell, th, mc.trial_rng(3, t))
            outages += outage
            assert outage == (sample_field(cell, mc.trial_rng(3, t))[0].size == 0)
        p = math.exp(-5.0)
        assert abs(outages / n - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_outcome_invariants(self, default_cell):
        th = compute_thresholds(RadioParams(snr_db=12.0, target_rate=1.0, num_relays=2))
        empty = 0
        for t in range(300):
            ranked = mc.trial_stat_csi(default_cell, th, 2, mc.trial_rng(11, t))
            exact = mc.trial_exact_csi(default_cell, th, mc.trial_rng(11, t))
            assert type(ranked) is bool and type(exact) is bool
            if _qualified_count(default_cell, th.theta_first, 11, t) == 0:
                empty += 1
                assert ranked and exact
        assert 0 < empty < 300

    def test_statistical_selection_never_beats_full_knowledge(self, default_cell):
        # same trial stream -> same field and same channel draws; selecting
        # only the nearest relay can then never rescue a lost frame
        th = compute_thresholds(RadioParams(snr_db=14.0, target_rate=1.0, num_relays=1))
        for t in range(2000):
            exact = mc.trial_exact_csi(default_cell, th, mc.trial_rng(5, t))
            ranked = mc.trial_stat_csi(default_cell, th, 1, mc.trial_rng(5, t))
            if exact:
                assert ranked

    def test_vanishing_intensity_forces_outage(self):
        cell = CellGeometry(cell_radius=5.0, dest_distance=1.0, relay_intensity=1e-6)
        th = Thresholds(0.1, 0.1)
        outcomes = [mc.trial_exact_csi(cell, th, mc.trial_rng(1, t)) for t in range(500)]
        assert np.mean(outcomes) > 0.99

    def test_stat_rejects_bad_k(self, default_cell):
        with pytest.raises(ValueError):
            mc.trial_stat_csi(default_cell, Thresholds(0.1, 0.1), 0, mc.trial_rng(0, 0))


class TestGoldenStreams:
    """Exact outputs at fixed seeds. They pin the per-trial streams and the
    draw order; a deliberate change of the stream contract updates them."""

    @pytest.mark.parametrize(
        "strategy, k, snr_db, alpha, outages",
        [
            ("exact", 1, 15.0, 2.0, 371),
            ("stat", 1, 20.0, 2.0, 209),
            ("stat", 3, 25.0, 2.0, 396),
            ("exact", 1, 30.0, 2.0, 0),
            ("stat", 2, 25.0, 3.0, 822),
        ],
    )
    def test_outage_counts(self, strategy, k, snr_db, alpha, outages):
        cell = CellGeometry(20.0, 5.0, 0.5, path_loss_exponent=alpha)
        radio = RadioParams(snr_db=snr_db, target_rate=1.0, num_relays=k)
        assert mc.estimate_outage(strategy, cell, radio, 3000, 42).outage_count == outages

    def test_kth_nearest_distances(self, default_cell):
        out = mc.kth_nearest_qualified_distances(default_cell, 0.0948, 3, 500, 42)
        assert out[0].tolist() == [1.8394964623456862, 1.9738090294123836, 2.6397332987177]
        assert out[7].tolist() == [2.2373290391034537, 2.5770023822156816, 3.286535550673617]
        assert out[499].tolist() == [1.919468838401105, 2.471839025001385, 4.064440794033619]
        digest = hashlib.sha256(out.tobytes()).hexdigest()
        assert digest == "bf46bc4b7fb3c99f89f57e47bfcdc362abe785b27c764c5e65511862ead34e41"

    @pytest.mark.parametrize(
        "observer, at_2_5, at_5, sha",
        [
            (
                "bs",
                (6.722, 0.11300873394519466),
                (13.582, 0.16627039329770882),
                "8aaabab18768699461a5d4ba1348d5c599df7ddfdabfbc18a4c7d18013ea4361",
            ),
            (
                "dest",
                (1.114, 0.05050851631597271),
                (6.136, 0.11993237907713748),
                "c2dceba77a80fb67c7638ed5b46889a84ac1c18474ed07739939579ded42aa8d",
            ),
        ],
    )
    def test_empirical_mean_counts(self, observer, at_2_5, at_5, sha, default_cell):
        grid = [0.0, 0.5, 1.0, 2.5, 5.0, 10.0, 15.0, 20.0, 25.0]
        out = mc.empirical_mean_count(grid, default_cell, 0.0948, 500, 42)[observer]
        assert (out[3].mean, out[3].stderr) == at_2_5
        assert (out[4].mean, out[4].stderr) == at_5
        table = np.array([(p.radius, p.mean, p.stderr) for p in out])
        assert hashlib.sha256(table.tobytes()).hexdigest() == sha


class TestEstimateOutage:
    def test_fixed_seed_reproducible(self, default_cell, radio_15db):
        a = mc.estimate_outage("exact", default_cell, radio_15db, 2000, 42)
        b = mc.estimate_outage("exact", default_cell, radio_15db, 2000, 42)
        assert a == b

    def test_worker_count_invariance(self, default_cell, radio_15db):
        serial = mc.estimate_outage("stat", default_cell, radio_15db, 2000, 9, workers=1)
        parallel = mc.estimate_outage("stat", default_cell, radio_15db, 2000, 9, workers=3)
        assert serial == parallel

    def test_stderr_formula(self):
        est = mc.OutageEstimate.from_counts(10_000, 100_000)
        assert est.p_hat == 0.1
        assert est.stderr == pytest.approx(math.sqrt(0.1 * 0.9 / 100_000), rel=1e-12, abs=0)
        assert est.stderr == pytest.approx(9.5e-4, abs=1e-5)

    @pytest.mark.parametrize("count, trials", [(-1, 50), (51, 50), (0, 0)])
    def test_from_counts_refuses_impossible_counts(self, count, trials):
        with pytest.raises(ValueError, match="outage_count <= trials"):
            mc.OutageEstimate.from_counts(count, trials)

    @pytest.mark.parametrize("seed", [7.9, "12", True, math.nan])
    def test_refuses_a_seed_that_is_not_an_integer(self, seed, default_cell, radio_15db):
        # 7.9 and True once drew seeds 7 and 1, "12" seed 12
        with pytest.raises(ValueError, match="^seed must be an integer"):
            mc.estimate_outage("stat", default_cell, radio_15db, 300, seed)

    def test_numpy_integer_seed_draws_what_the_int_draws(self, default_cell, radio_15db):
        want = mc.estimate_outage("stat", default_cell, radio_15db, 300, 7)
        assert mc.estimate_outage("stat", default_cell, radio_15db, 300, np.int64(7)) == want

    def test_open_network_outage_is_void_probability(self):
        # thresholds ~ 0 via huge SNR: outage iff the field is empty
        cell = CellGeometry(
            cell_radius=10.0, dest_distance=3.0, relay_intensity=5.0 / (math.pi * 100.0)
        )
        radio = RadioParams(snr_db=500.0, target_rate=1.0, num_relays=1)
        est = mc.estimate_outage("exact", cell, radio, 20_000, 42)
        p = math.exp(-5.0)
        assert abs(est.p_hat - p) < 3 * math.sqrt(p * (1 - p) / est.trials)

    def test_validation(self, default_cell, radio_15db):
        with pytest.raises(ValueError):
            mc.estimate_outage("bogus", default_cell, radio_15db, 10, 0)
        with pytest.raises(ValueError):
            mc.estimate_outage("exact", default_cell, radio_15db, 0, 0)
        with pytest.raises(ValueError):
            mc.estimate_outage(
                "exact",
                default_cell,
                RadioParams(snr_db=10.0, target_rate=1.0, num_relays=2),
                10,
                0,
            )
        with pytest.raises(ValueError):
            mc.estimate_outage("exact", default_cell, radio_15db, 10, 0, workers=0)


@pytest.mark.parametrize(
    "name, call",
    [
        ("trials", lambda cell, radio: mc.estimate_outage("exact", cell, radio, True, 0)),
        (
            "workers",
            lambda cell, radio: mc.estimate_outage("exact", cell, radio, 9, 0, workers=True),
        ),
        (
            "k",
            lambda cell, radio: mc.trial_stat_csi(
                cell, compute_thresholds(radio), True, mc.trial_rng(0, 0)
            ),
        ),
        ("k_max", lambda cell, radio: mc.kth_nearest_qualified_distances(cell, 0.1, True, 9, 0)),
    ],
    ids=["trials", "workers", "k", "k_max"],
)
def test_bool_count_is_refused_by_name(name, call, default_cell, radio_15db):
    # Python counts a bool an int; no count may be one
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got True$"):
        call(default_cell, radio_15db)


class TestWorkerCap:
    """The pass never starts more processes than this process may run on.
    A stand-in for the worker start records each pass's worker count and
    runs the ranges inline, so these tests start no process."""

    @pytest.fixture
    def pools(self, monkeypatch):
        sizes = []

        def inline_start(requests, seed, lo, hi):
            if lo == 0:  # a pass's first range
                sizes.append(0)
            sizes[-1] += 1
            parts = mc._pass(requests, seed, lo, hi)
            worker = SimpleNamespace(terminate=lambda: None, join=lambda: None)
            return worker, SimpleNamespace(recv=lambda: (True, parts), close=lambda: None)

        monkeypatch.setattr(mc, "_start", inline_start)
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        return sizes

    def test_flag_is_capped_at_usable_cpus(self, pools, default_cell):
        rows = _mixed_rows((10.0, 25.0))
        capped = mc.estimate_outage_grid(default_cell, rows, 50, 3, workers=5000)
        assert pools == [3]
        assert capped == mc.estimate_outage_grid(default_cell, rows, 50, 3, workers=1)
        assert pools == [3]

    def test_trials_cap_below_cpus(self, pools, default_cell):
        mc.empirical_mean_count([1.0], default_cell, 0.2, 2, 1, workers=8)
        assert pools == [2]

    def test_library_calls_fork_nothing_by_default(self, pools, default_cell, radio_15db):
        # one worker unless asked for more, so a script that calls the
        # library starts no process of its own accord
        mc.estimate_outage("exact", default_cell, radio_15db, 80, 3)
        mc.estimate_outage_grid(default_cell, _mixed_rows((10.0,)), 80, 3)
        mc.empirical_mean_count([1.0, 5.0], default_cell, 0.2, 80, 3)
        mc.kth_nearest_qualified_distances(default_cell, 0.2, 2, 80, 3)
        mc.run_requests([mc.KthDistancesRequest(default_cell, 0.2, 2, 80)], 3)
        with mc.running_requests([mc.KthDistancesRequest(default_cell, 0.2, 2, 80)], 3) as results:
            results()
        config = cli.parse_config(overrides={"trials": 80, "snr_grid_db": "10"})
        assert not any(row.error for row in cli.run_outage_sweep(config))
        assert not any(row.error for row in cli.run_mean_count(config, [1.0, 5.0], 15.0))
        assert pools == []

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(mc.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 4)
        assert mc.usable_cpus() == 4
        monkeypatch.setattr(mc.os, "cpu_count", lambda: None)
        assert mc.usable_cpus() == 1


def _mixed_rows(snrs=(5.0, 15.0, 25.0)):
    rows = []
    for snr in snrs:
        rows.append(("exact", RadioParams(snr_db=snr, target_rate=1.0, num_relays=1)))
        rows.extend(
            ("stat", RadioParams(snr_db=snr, target_rate=1.0, num_relays=k)) for k in (1, 2, 3)
        )
    return rows


class TestOutageGrid:
    """One draw per trial decides every row; each row's count must equal what
    the row gets on its own, which the draw-order replay and the golden
    streams pin to the documented per-trial stream."""

    def test_exponential_draws_are_prefixes(self):
        # a row with J qualified relays reads the first J of the union's gains
        for n, total in ((0, 4), (1, 1), (7, 7), (7, 500), (300, 301)):
            short = mc.trial_rng(5, n).standard_exponential(n)
            long = mc.trial_rng(5, n).standard_exponential(total)
            assert np.array_equal(short, long[:n])

    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    def test_matches_one_row_calls(self, alpha):
        cell = CellGeometry(20.0, 5.0, 0.5, path_loss_exponent=alpha)
        rows = _mixed_rows()
        # a duplicate row, out of order: the rows sharing a first-hop
        # threshold (the duplicate and its original, each SNR's exact and
        # stat k = 1 rows) are then not all adjacent
        rows.insert(3, rows[5])
        grid = mc.estimate_outage_grid(cell, rows, 300, 17)
        alone = [mc.estimate_outage(s, cell, r, 300, 17) for s, r in rows]
        assert grid == alone
        assert grid[3] == grid[6]
        # the rows disagree, so equal lists are not all-or-nothing by chance
        assert len({e.outage_count for e in grid}) > 4

    def test_zero_threshold_row_in_the_union(self):
        # theta_first = 0 qualifies every relay, so the union is the field
        cell = CellGeometry(cell_radius=20.0, dest_distance=5.0, relay_intensity=0.01)
        rows = [
            Thresholds(0.0, 0.05),
            Thresholds(0.02, 0.08),
            Thresholds(0.0, 0.05),
            Thresholds(0.05, 0.02),
        ]
        ks = [0, 2, 1, 3]
        grid_rows = [mc._Row(th.theta_first, th.theta_second, k) for th, k in zip(rows, ks)]
        seen = set()
        for t in range(300):
            outages = mc._trial_outages(cell, grid_rows, mc.trial_rng(8, t))
            alone = [
                mc.trial_stat_csi(cell, th, k, mc.trial_rng(8, t))
                if k
                else mc.trial_exact_csi(cell, th, mc.trial_rng(8, t))
                for th, k in zip(rows, ks)
            ]
            assert outages == alone
            seen.update(enumerate(outages))
        assert len(seen) == 8  # every row has both outcomes

    def test_ties_go_to_the_earlier_relay(self, ring_field):
        # every relay is equidistant from the destination, so ranking is by
        # input index alone, in every row of the grid as on its own
        ring_field(2.0, 6)
        cell = CellGeometry(cell_radius=3.0, dest_distance=0.0, relay_intensity=0.5)
        rows = [
            (s, RadioParams(snr_db=snr, target_rate=1.0, num_relays=k))
            for snr in (12.0, 20.0, 28.0)
            for s, k in (("exact", 1), ("stat", 1), ("stat", 2), ("stat", 3))
        ]
        grid = mc.estimate_outage_grid(cell, rows, 400, 6, workers=1)
        alone = [mc.estimate_outage(s, cell, r, 400, 6, workers=1) for s, r in rows]
        assert grid == alone
        assert len({e.outage_count for e in grid}) > 3

    def test_worker_count_invariance(self, default_cell):
        rows = _mixed_rows((10.0, 20.0))
        runs = [mc.estimate_outage_grid(default_cell, rows, 600, 23, workers=w) for w in (1, 2, 3)]
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("trials", [1, 31, 32, 33, 65, 100])
    def test_counts_do_not_depend_on_blocks(self, trials, default_cell, monkeypatch):
        # the rows' first-hop thresholds nest, each SNR's exact and stat
        # k = 1 rows sharing one; workers split
        # the trials at edges that are not multiples of the block size, and
        # a block of 1000 holds the whole run
        rows = _mixed_rows((10.0, 25.0))
        runs = []
        blocks = ((1, 1), (7, 1), (32, 1), (64, 1), (1000, 1), (7, 2), (64, 2), (7, 3), (32, 3))
        for block, workers in blocks:
            monkeypatch.setattr(mc, "_BLOCK_TRIALS", block)
            runs.append(mc.estimate_outage_grid(default_cell, rows, trials, 31, workers=workers))
        assert all(run == runs[0] for run in runs)
        if trials == 100:
            assert len({e.outage_count for e in runs[0]}) > 3

    def test_sort_free_rank_matches_sorted_oracle(self):
        # few distinct distances force exact ties, which go to the earlier relay
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            trial = np.repeat(np.arange(n), rng.integers(0, 7, n))
            d2 = rng.integers(0, 4, trial.size).astype(float)
            succ = rng.random(trial.size) < 0.4
            for k in (1, 2, 3, 10):
                want = []
                for t in range(n):
                    relays = np.flatnonzero(trial == t).tolist()
                    chosen = sorted(relays, key=lambda i: (d2[i], i))[:k]
                    want.append(not succ[chosen].any())
                assert mc._ranked_outages(d2, succ, trial, n, k).tolist() == want

    def test_rejects_what_one_row_rejects(self, default_cell, radio_15db):
        # a bad relay count never gets this far: RadioParams refuses it
        two = RadioParams(snr_db=15.0, target_rate=1.0, num_relays=2)
        for strategy, radio in (("bogus", radio_15db), ("exact", two)):
            with pytest.raises(ValueError):
                mc.estimate_outage(strategy, default_cell, radio, 10, 0)
            with pytest.raises(ValueError):
                mc.estimate_outage_grid(default_cell, [("stat", two), (strategy, radio)], 10, 0)
        with pytest.raises(ValueError):
            mc.estimate_outage_grid(default_cell, [], 10, 0)


class TestRunRequests:
    """One pass serves requests with their own thresholds and trial counts;
    each result must equal its sampler's on its own."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_equals_each_request_alone(self, workers, default_cell, monkeypatch):
        # the k-th nearest request's threshold falls inside the grid rows'
        # range and the mean-count request's at its tight end; the three
        # trial counts end in different blocks and, at 2 workers, in
        # different ranges, and each block size puts the block edges
        # elsewhere in the prefixes
        rows, grid = _mixed_rows((10.0, 25.0)), [0.0, 2.0, 7.5, 25.0]
        kth_alone = mc.kth_nearest_qualified_distances(default_cell, 0.01, 3, 130, 5)
        outage_alone = mc.estimate_outage_grid(default_cell, rows, 70, 5)
        counts_alone = mc.empirical_mean_count(grid, default_cell, 1.5, 40, 5)
        for block in (1, 7, 64, 1000):
            monkeypatch.setattr(mc, "_BLOCK_TRIALS", block)
            kth, outage, counts = mc.run_requests(
                [
                    mc.KthDistancesRequest(default_cell, 0.01, 3, 130),
                    mc.OutageGridRequest(default_cell, rows, 70),
                    mc.MeanCountRequest(grid, default_cell, 1.5, 40),
                ],
                5,
                workers=workers,
            )
            assert kth.tobytes() == kth_alone.tobytes(), block
            assert outage == outage_alone, block
            assert counts == counts_alone, block

    def test_rejects_no_request_and_mixed_cells(self, default_cell):
        with pytest.raises(ValueError, match="nonempty"):
            mc.run_requests([], 0)
        other = CellGeometry(cell_radius=10.0, dest_distance=5.0, relay_intensity=0.5)
        requests = [mc.KthDistancesRequest(cell, 0.1, 1, 5) for cell in (default_cell, other)]
        with pytest.raises(ValueError, match="one cell"):
            mc.run_requests(requests, 0)


class TestRunningRequests:
    """The pass as a ``with`` block: its workers draw while the block runs,
    and none outlives it."""

    @staticmethod
    def _requests(cell):
        return [
            mc.OutageGridRequest(cell, _mixed_rows((10.0, 25.0)), 70),
            mc.KthDistancesRequest(cell, 0.01, 3, 130),
            mc.MeanCountRequest([0.0, 7.5, 25.0], cell, 1.5, 40),
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_equal_run_requests(self, workers, default_cell):
        alone = mc.run_requests(self._requests(default_cell), 5, workers=workers)
        with mc.running_requests(self._requests(default_cell), 5, workers=workers) as results:
            outage, kth, counts = results()
        assert outage == alone[0]
        assert kth.tobytes() == alone[1].tobytes()
        assert counts == alone[2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_body_error_propagates_and_no_worker_outlives_it(self, workers, default_cell):
        with pytest.raises(RuntimeError, match="in the block"):
            with mc.running_requests(self._requests(default_cell), 5, workers=workers):
                raise RuntimeError("in the block")
        assert multiprocessing.active_children() == []

    def test_workers_start_no_thread(self, default_cell, monkeypatch):
        # each worker holds its range from the fork: no thread hands it on
        monkeypatch.setattr(mc, "usable_cpus", lambda: 2)
        before = threading.active_count()
        with mc.running_requests(self._requests(default_cell), 5, workers=2) as results:
            assert threading.active_count() == before
            results()

    @pytest.mark.parametrize("seed", [7.9, "12", True])
    def test_bad_seed_is_refused_before_any_worker_is_forked(self, seed, default_cell, monkeypatch):
        def no_start(*args):
            raise AssertionError("a worker was started")

        monkeypatch.setattr(mc, "usable_cpus", lambda: 2)
        monkeypatch.setattr(mc, "_start", no_start)
        with pytest.raises(ValueError, match="^seed must be an integer"):
            with mc.running_requests(self._requests(default_cell), seed, workers=2) as results:
                results()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_cell_past_the_relay_bound_is_refused_before_any_draw(self, workers, monkeypatch):
        # R = 1e6 holds ~1.6e12 relays per trial at lam = 0.5, a 45.7 TiB field
        def no_draw(*args, **kwargs):
            raise AssertionError("a field was drawn or a worker started")

        monkeypatch.setattr(mc, "usable_cpus", lambda: 2)
        monkeypatch.setattr(mc, "_start", no_draw)
        monkeypatch.setattr(mc, "_draw_fields", no_draw)
        cell = CellGeometry(cell_radius=1e6, dest_distance=5.0, relay_intensity=0.5)
        match = r"^mean_relay_count 1\.571e\+12 exceeds MAX_MEAN_RELAYS = 16777216: "
        assert mc.MAX_MEAN_RELAYS == 2**24
        with pytest.raises(ValueError, match=match):
            with mc.running_requests(self._requests(cell), 5, workers=workers) as results:
                results()
        with pytest.raises(ValueError, match=match):
            mc.estimate_outage("exact", cell, RadioParams(snr_db=10.0, target_rate=1.0), 1, 5)

    def test_worker_exception_is_raised_by_results(self, default_cell, monkeypatch):
        monkeypatch.setattr(mc, "usable_cpus", lambda: 2)
        requests = [_ChildFaultRequest(default_cell, _raise_value_error)]
        with _deadline(60), pytest.raises(ValueError, match="^read in a worker$"):
            with mc.running_requests(requests, 5, workers=2) as results:
                results()
        assert multiprocessing.active_children() == []

    def test_worker_exit_names_its_range(self, default_cell, monkeypatch):
        monkeypatch.setattr(mc, "usable_cpus", lambda: 2)
        requests = [_ChildFaultRequest(default_cell, _exit_3)]
        match = r"^worker for trials 0 \.\. 64 exited without a result$"
        with _deadline(60), pytest.raises(RuntimeError, match=match):
            with mc.running_requests(requests, 5, workers=2) as results:
                results()
        assert multiprocessing.active_children() == []


class _ChildFaultRequest(mc.KthDistancesRequest):
    """A 130-trial distance request whose ``read`` calls ``fault`` in a
    worker process only, never in the process that made it."""

    def __init__(self, cell, fault):
        super().__init__(cell, 0.01, 3, 130)
        self.fault, self.parent = fault, os.getpid()

    def read(self, plan, block):
        if os.getpid() != self.parent:
            self.fault()
        return super().read(plan, block)


def _raise_value_error():
    raise ValueError("read in a worker")


def _exit_3():
    os._exit(3)


@contextlib.contextmanager
def _deadline(seconds: int):
    """Raise ``TimeoutError`` in this thread if the block outlasts
    ``seconds``, so a wait that would hang fails instead."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestEmptyViews:
    def test_no_thinning_or_ranking_after_a_view_empties(self, monkeypatch, default_cell):
        # criteria 3 and 4's 25 rows on 64 trials: the tightest first-hop
        # thresholds keep no relay, and a view tighter than an empty one is
        # empty too, so neither it nor its rows cost a numpy call
        thin, ranked, empty = mc._thin, mc._ranked_outages, []

        def counting_thin(block, view, theta_first):
            assert not empty, "_thin called after a view emptied"
            out = thin(block, view, theta_first)
            if out[1].size == 0:
                empty.append(theta_first)
            return out

        def counting_ranked(d2, succ, trial, n, k):
            assert not empty and d2.size, "_ranked_outages called on an empty view"
            return ranked(d2, succ, trial, n, k)

        monkeypatch.setattr(mc, "_thin", counting_thin)
        monkeypatch.setattr(mc, "_ranked_outages", counting_ranked)
        rows = validation._EXACT_CSI_ROWS + validation._STAT_CSI_ROWS
        mc.estimate_outage_grid(default_cell, rows, 64, 42, workers=1)
        assert len(empty) == 1


class TestQualifiedView:
    def test_equals_the_draw_at_each_threshold(self, default_cell):
        # every first-hop threshold of criteria 3 and 4's 25-row plan: the
        # view thinned from the plan's block is the block a draw at that
        # threshold alone gives, column for column, second-hop gains included
        rows = validation._EXACT_CSI_ROWS + validation._STAT_CSI_ROWS
        thetas = sorted({mc._grid_row(s, r).theta_first for s, r in rows})
        plan = mc._Plan.of(thetas)
        assert len(rows) == 25 and len(thetas) == 21 and plan.nested
        (block,) = mc._blocks(default_cell, plan, 9, 40, 57)
        for theta in thetas:
            (alone,) = mc._blocks(default_cell, mc._Plan.of([theta]), 9, 40, 57)
            view = mc._qualified(plan, theta, block)
            assert len(view) == len(alone) == 5, theta
            for got, want in zip(view, alone):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), theta


    def test_each_view_thins_from_the_looser_one(self, default_cell):
        # criteria 3 and 4's thresholds, loosest first: thinning the view
        # at the threshold before gives the view thinned from the block
        rows = validation._EXACT_CSI_ROWS + validation._STAT_CSI_ROWS
        thetas = sorted({mc._grid_row(s, r).theta_first for s, r in rows})
        plan = mc._Plan.of(thetas)
        (block,) = mc._blocks(default_cell, plan, 9, 40, 104)
        view = block
        for theta in thetas[1:]:
            view = mc._thin(block, view, theta)
            for got, want in zip(view, mc._thin(block, block, theta), strict=True):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), theta


#: Cells for the block pins: one where most trials draw no relay
#: (lambda pi R^2 = 0.31), a destination outside the cell at alpha = 2.5, and
#: the default cell at alpha = 3.
_BLOCK_CELLS = {
    "sparse": CellGeometry(cell_radius=1.0, dest_distance=0.5, relay_intensity=0.31 / math.pi),
    "rim": CellGeometry(cell_radius=10.0, dest_distance=15.0, relay_intensity=0.5, path_loss_exponent=2.5),
    "alpha3": CellGeometry(cell_radius=20.0, dest_distance=5.0, relay_intensity=0.5, path_loss_exponent=3.0),
}
#: A flat plan, a nested one and one under which no relay qualifies.
_BLOCK_PLANS = (
    mc._Plan.of([0.0949]),
    mc._Plan.of([0.01, 0.3, 3.0]),
    mc._Plan.of([50.0]),
)


class TestBlocksGolden:
    """Every column of ``_blocks``, values and dtypes, for trials 3 .. 138 at
    seed 5, under three plans and three block sizes, pinned bit for bit. A
    change of how a block is drawn keeps them."""

    SHA = {
        "sparse": "7515116c48157760abebb3ad510d10fd111ff4b1e56700cb125180b5a2a683fd",
        "rim": "3713993023d4c01338ee6a12820a06349ba25ace5671d3acd9ad8cd1feb8f7fe",
        "alpha3": "b3e7373043064229603c7aa41e1ec1a9955c6fec0205cf9363379f781d1b80d7",
    }

    @pytest.mark.parametrize("name", sorted(_BLOCK_CELLS))
    def test_columns(self, name, monkeypatch):
        digest = hashlib.sha256()
        for plan in _BLOCK_PLANS:
            for size in (1, 7, 64):
                monkeypatch.setattr(mc, "_BLOCK_TRIALS", size)
                for block in mc._blocks(_BLOCK_CELLS[name], plan, 5, 3, 139):
                    assert len(block) == (7 if plan.nested else 5)
                    for col in block:
                        digest.update(col.dtype.str.encode())
                        digest.update(col.tobytes())
        assert digest.hexdigest() == self.SHA[name]


def _replay_trial(cell: CellGeometry, plan, seed: int, t: int) -> tuple[int, list]:
    """Trial ``t`` drawn by hand on a fresh ``trial_rng(seed, t)`` in the
    documented order: the relay count ``n``, ``random(n)`` radius variates,
    ``random(n)`` angle variates, ``standard_exponential(n)`` first-hop
    gains, then ``standard_exponential(J)`` for the ``J`` relays qualified
    under the plan's loosest threshold. Returns ``n`` and the trial's block
    columns after the trial index."""
    rng = mc.trial_rng(seed, t)
    n = rng.poisson(cell.mean_relay_count)
    radii = cell.cell_radius * np.sqrt(rng.random(n))
    angles = 2.0 * math.pi * rng.random(n)
    gains = rng.standard_exponential(n)
    alpha = cell.path_loss_exponent
    loss = 1.0 + (radii * radii if alpha == 2.0 else radii**alpha)
    keep = gains >= plan.theta_min * loss
    g2 = rng.standard_exponential(int(keep.sum()))
    d2 = sq_dists_to_dest(radii[keep], angles[keep], cell.dest_distance)
    first = [gains[keep], loss[keep]] if plan.nested else []
    return n, [radii[keep], d2, g2, *first]


class TestBlockReplay:
    @pytest.mark.parametrize("size", [1, 7, 64])
    @pytest.mark.parametrize("name", sorted(_BLOCK_CELLS))
    def test_each_trial_is_its_own_stream(self, name, size, monkeypatch):
        # trials 3 .. 138: the first and last blocks start and end mid-way
        # through the block size's multiples
        cell, seed = _BLOCK_CELLS[name], 5
        monkeypatch.setattr(mc, "_BLOCK_TRIALS", size)
        shapes = set()
        for plan in _BLOCK_PLANS:
            t = 3
            for sizes, trial, *cols in mc._blocks(cell, plan, seed, 3, 139):
                assert trial.tolist() == np.repeat(np.arange(sizes.size), sizes).tolist()
                assert len(cols) == (5 if plan.nested else 3)
                ends = np.cumsum(sizes).tolist()
                for i, end in enumerate(ends):
                    n, want = _replay_trial(cell, plan, seed, t)
                    begin = end - sizes[i]
                    for got, col in zip(want, cols, strict=True):
                        assert col[begin:end].tobytes() == got.tobytes(), (plan, t)
                    shapes.add((n > 0, sizes[i] > 0, plan.nested))
                    t += 1
            assert t == 139
        # trials with no relay (sparse cell), with relays of which none
        # qualifies, and with qualified relays under the nested plan
        want = {"sparse": {(False, False, False)}, "rim": set(), "alpha3": set()}[name]
        assert want | {(True, False, False), (True, True, True)} <= shapes


def test_pass_releases_each_block_before_the_next_draw(monkeypatch, default_cell, radio_15db):
    # a block is ~1 MB on the default cell; holding the previous one while the
    # next is drawn raises the peak memory of every Monte Carlo pass
    draw, alive, live = mc._draw_block, [], []

    def tracked(*args):
        live.append(sum(ref() is not None for ref in alive))
        block = draw(*args)
        alive.append(weakref.ref(block[1]))  # the trial-id column
        return block

    monkeypatch.setattr(mc, "_draw_block", tracked)
    mc.estimate_outage("stat", default_cell, radio_15db, 300, 9, workers=1)
    assert live == [0] * 5


def _recorded_fields(monkeypatch) -> list:
    """The field rows of every ``_draw_fields`` call the simulator makes
    from here on, in call order."""
    sample, rows = mc._draw_fields, []

    def recorded(*args, **kwargs):
        ends, fields = sample(*args, **kwargs)
        rows.append(fields)
        return ends, fields

    monkeypatch.setattr(mc, "_draw_fields", recorded)
    return rows


class TestFieldBuffer:
    """One ``_blocks`` call draws the fields of every block after the first
    into one buffer, and hands on blocks that do not depend on it."""

    PLAN = mc._Plan.of([0.01, 0.3])

    def test_every_block_after_the_first_draws_into_one_buffer(self, monkeypatch, default_cell):
        fields = _recorded_fields(monkeypatch)
        for _ in mc._blocks(default_cell, self.PLAN, 7, 0, 300):
            pass
        assert len(fields) == 5
        assert not np.shares_memory(fields[0], fields[1])
        assert all(np.shares_memory(a, b) for a, b in zip(fields[1:], fields[2:]))

    def test_no_block_is_a_view_of_the_buffer(self, monkeypatch, default_cell):
        fields = _recorded_fields(monkeypatch)
        listed = list(mc._blocks(default_cell, self.PLAN, 7, 0, 300))
        # each block copied before the next is drawn
        blocks = mc._blocks(default_cell, self.PLAN, 7, 0, 300)
        one_at_a_time = [[col.copy() for col in block] for block in blocks]
        assert len(listed) == len(one_at_a_time) == 5
        for block, copies in zip(listed, one_at_a_time):
            assert len(block) == len(copies) == 7
            for col, copy in zip(block, copies):
                assert col.dtype == copy.dtype and col.tobytes() == copy.tobytes()
                assert not any(np.shares_memory(col, rows) for rows in fields)

    def test_fields_that_do_not_fit_draw_into_their_own_array(self, monkeypatch, default_cell):
        want = list(mc._blocks(default_cell, self.PLAN, 7, 0, 300))
        sample = mc._draw_fields

        def small_buffer(*args, out, **kwargs):
            return sample(*args, out=None if out is None else out[:100], **kwargs)

        monkeypatch.setattr(mc, "_draw_fields", small_buffer)
        fields = _recorded_fields(monkeypatch)
        got = list(mc._blocks(default_cell, self.PLAN, 7, 0, 300))
        assert len(fields) == 5
        assert not any(np.shares_memory(a, b) for a, b in zip(fields, fields[1:]))
        for block, copies in zip(got, want, strict=True):
            for col, copy in zip(block, copies, strict=True):
                assert col.dtype == copy.dtype and col.tobytes() == copy.tobytes()


def test_a_small_relay_budget_draws_smaller_blocks_with_the_same_counts(monkeypatch, default_cell):
    # the default cell holds ~628 relays per trial: a budget of 2,000 relays
    # gives blocks of 3 trials, one below a trial's mean gives blocks of 1
    rows, grid = _mixed_rows((10.0, 25.0)), [0.0, 2.0, 7.5, 25.0]

    def requests():
        return [
            mc.KthDistancesRequest(default_cell, 0.01, 3, 50),
            mc.OutageGridRequest(default_cell, rows, 70),
            mc.MeanCountRequest(grid, default_cell, 1.5, 40),
        ]

    kth, outage, counts = mc.run_requests(requests(), 5)
    plan = TestFieldBuffer.PLAN
    assert [block[0].size for block in mc._blocks(default_cell, plan, 5, 0, 70)] == [64, 6]
    for budget, size in ((2000, 3), (100, 1)):
        monkeypatch.setattr(mc, "_BLOCK_RELAYS", budget)
        sizes = [block[0].size for block in mc._blocks(default_cell, plan, 5, 0, 70)]
        assert sizes == [size] * (70 // size) + [70 % size] * (70 % size > 0)
        got_kth, got_outage, got_counts = mc.run_requests(requests(), 5)
        assert got_kth.tobytes() == kth.tobytes() and got_outage == outage and got_counts == counts


def test_blocks_compute_distances_once_per_block_through_the_module_name(
    monkeypatch, default_cell
):
    # a profiler that wraps montecarlo.sq_dists_to_dest sees every distance
    # computation of a pass, one call per block, and changes no column
    plan = TestFieldBuffer.PLAN
    want = list(mc._blocks(default_cell, plan, 7, 0, 300))
    dists, calls = mc.sq_dists_to_dest, []

    def spy(*args):
        calls.append(len(args[0]))
        return dists(*args)

    monkeypatch.setattr(mc, "sq_dists_to_dest", spy)
    got = list(mc._blocks(default_cell, plan, 7, 0, 300))
    assert len(calls) == 5
    assert calls == [block[2].size for block in want]
    for block, copies in zip(got, want, strict=True):
        for col, copy in zip(block, copies, strict=True):
            assert col.dtype == copy.dtype and col.tobytes() == copy.tobytes()


class TestRunRequestsGolden:
    """``run_all``'s one pass at reduced sizes, pinned bit for bit: the
    outage counts of criteria 3 and 4, criterion 6's k-th distance rows and
    criterion 7's mean-count curves. A refactor of the block loop, the
    thinning or the decision keeps them."""

    COUNTS = [
        2000, 1935, 256, 0, 2000, 2000, 1944, 838, 132, 40, 6, 2000, 2000,
        2000, 1937, 571, 36, 1, 2000, 2000, 2000, 2000, 1837, 260, 2,
    ]
    SHA = {
        "counts": "4497ba0f350eed68c2c046bb3f22770bad71f7563a1eb52496a98ad0f0854f93",
        "kth": "0c4ea4c803b8f9eacb19bd4194951110954feeda5735dc9c301a23024da99201",
        "curves": "9fcbe3b9f59dbb5da6296e2ba8181b43c9251d18eb82ffe5840c2cea17a56313",
    }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_gate_pass(self, workers):
        cell, theta = validation.DEFAULT_CELL, validation.THETA_15DB
        estimates, kth, curves = mc.run_requests(
            [
                mc.OutageGridRequest(cell, validation._EXACT_CSI_ROWS + validation._STAT_CSI_ROWS, 2000),
                mc.KthDistancesRequest(cell, theta, 3, 1000),
                mc.MeanCountRequest(validation._MEAN_COUNT_RADII, cell, theta, 700),
            ],
            42,
            workers=workers,
        )
        counts = np.array([e.outage_count for e in estimates], dtype=np.int64)
        table = np.array([point for o in mc.OBSERVERS for point in curves[o]], dtype=float)
        assert counts.tolist() == self.COUNTS
        assert kth.shape == (1000, 3)
        digests = {
            name: hashlib.sha256(arr.tobytes()).hexdigest()
            for name, arr in (("counts", counts), ("kth", kth), ("curves", table))
        }
        assert digests == self.SHA


class TestEmpiricalMeanCount:
    THETA = 0.09486832980505139

    def test_zero_radius_counts_nothing(self, default_cell):
        out = mc.empirical_mean_count([0.0, 5.0], default_cell, self.THETA, 200, 1)["bs"]
        assert out[0].mean == 0.0
        assert out[0].stderr == 0.0

    def test_counts_relays_at_the_radius(self, ring_field):
        # "within r" includes distance exactly r, from either observer
        ring_field(3.0, 8)
        cell = CellGeometry(cell_radius=20.0, dest_distance=0.0, relay_intensity=0.5)
        curves = mc.empirical_mean_count([0.0, 2.5, 3.0, 3.5], cell, 0.0, 20, 1)
        for curve in curves.values():
            assert [(p.mean, p.stderr) for p in curve] == [(0, 0), (0, 0), (8, 0), (8, 0)]

    def test_one_curve_per_observer(self, default_cell):
        curves = mc.empirical_mean_count([0.0, 5.0, 25.0], default_cell, self.THETA, 50, 1)
        assert tuple(curves) == mc.OBSERVERS
        for curve in curves.values():
            assert [p.radius for p in curve] == [0.0, 5.0, 25.0]
        # both views count the same realizations, whole at the far edge
        assert curves["bs"][-1] == curves["dest"][-1]

    def test_source_view_matches_closed_form(self, default_cell):
        from relaygeom.analytic import mean_count_from_bs

        out = mc.empirical_mean_count([2.0, 5.0, 10.0, 20.0], default_cell, self.THETA, 2000, 3)
        for point in out["bs"]:
            ref = mean_count_from_bs(point.radius, default_cell, self.THETA)
            assert abs(point.mean - ref) < 3 * point.stderr

    def test_worker_count_invariance(self, default_cell):
        grid = [1.0, 3.0, 9.0]
        a = mc.empirical_mean_count(grid, default_cell, self.THETA, 600, 5, workers=1)
        b = mc.empirical_mean_count(grid, default_cell, self.THETA, 600, 5, workers=2)
        assert a == b

    def test_validation(self, default_cell):
        with pytest.raises(ValueError):
            mc.empirical_mean_count([2.0, 1.0], default_cell, self.THETA, 10, 0)
        with pytest.raises(ValueError):
            mc.empirical_mean_count([1.0, 30.0], default_cell, self.THETA, 10, 0)
        with pytest.raises(ValueError):
            mc.empirical_mean_count([], default_cell, self.THETA, 10, 0)
        with pytest.raises(ValueError):
            mc.empirical_mean_count([1.0], default_cell, self.THETA, 0, 0)

    @pytest.mark.parametrize("grid", [[math.nan], [1.0, math.nan, 2.0]])
    def test_rejects_nan_radii(self, grid, default_cell):
        # NaN compares false both ways, so it must fail the range check itself
        with pytest.raises(ValueError, match=r"radii must be finite and lie in \[0, 25.0\]"):
            mc.empirical_mean_count(grid, default_cell, self.THETA, 10, 0)

    @pytest.mark.parametrize("theta", [-1.0, math.nan, math.inf, -math.inf])
    def test_rejects_bad_theta_first(self, theta, default_cell):
        # -1 would qualify every relay, NaN and inf none
        with pytest.raises(ValueError, match="theta_first"):
            mc.empirical_mean_count([1.0], default_cell, theta, 10, 0)
        with pytest.raises(ValueError, match="theta_first"):
            mc.kth_nearest_qualified_distances(default_cell, theta, 1, 10, 0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_grid_past_the_radius_bound_is_refused_unread(self, workers, default_cell, monkeypatch):
        class Unread(Sequence):
            """MAX_RADII + 1 radii that are never built: reading one fails."""

            def __len__(self):
                return mc.MAX_RADII + 1

            def __getitem__(self, index):
                raise AssertionError("the grid was read")

        def no_draw(*args, **kwargs):
            raise AssertionError("a field was drawn or a worker started")

        monkeypatch.setattr(mc, "usable_cpus", lambda: 2)
        monkeypatch.setattr(mc, "_start", no_draw)
        monkeypatch.setattr(mc, "_draw_fields", no_draw)
        assert mc.MAX_RADII == 2**17
        with pytest.raises(ValueError, match=r"^radii must hold at most MAX_RADII = 131072 points, got 131073$"):
            mc.empirical_mean_count(Unread(), default_cell, self.THETA, 10, 0, workers=workers)
        grid = np.linspace(0.0, default_cell.outer_radius, mc.MAX_RADII)
        assert len(mc.MeanCountRequest(grid, default_cell, self.THETA, 10).grid) == mc.MAX_RADII


class TestMonotoneProperties:
    def test_denser_field_never_hurts(self, default_cell):
        # more candidate relays -> more qualified relays -> fewer outages
        from dataclasses import replace

        denser = replace(default_cell, relay_intensity=0.8)
        for strategy, k in (("exact", 1), ("stat", 1), ("stat", 2)):
            radio = RadioParams(snr_db=15.0, target_rate=1.0, num_relays=k)
            sparse = mc.estimate_outage(strategy, default_cell, radio, 8000, 21)
            dense = mc.estimate_outage(strategy, denser, radio, 8000, 21)
            slack = 3.0 * math.hypot(sparse.stderr, dense.stderr)
            assert dense.p_hat <= sparse.p_hat + slack

    def test_outage_non_increasing_in_snr(self, default_cell):
        for strategy, k in (("exact", 1), ("stat", 2)):
            estimates = [
                mc.estimate_outage(
                    strategy,
                    default_cell,
                    RadioParams(snr_db=s, target_rate=1.0, num_relays=k),
                    6000,
                    13,
                )
                for s in (10.0, 15.0, 20.0, 25.0)
            ]
            for lo, hi in zip(estimates, estimates[1:]):
                slack = 3.0 * math.hypot(lo.stderr, hi.stderr)
                assert hi.p_hat <= lo.p_hat + slack

    def test_mean_count_curves_monotone_in_radius(self, default_cell):
        grid = [0.0, 2.0, 5.0, 10.0, 18.0, 25.0]
        for curve in mc.empirical_mean_count(grid, default_cell, 0.2, 400, 2).values():
            means = [p.mean for p in curve]
            assert all(b >= a for a, b in zip(means, means[1:]))


class TestExactRankedOracle:
    """The independence-free ranked-outage formula used as a diagnostic
    yardstick must agree with the first-rank closed path and with the
    simulation (the product form does neither at these settings)."""

    def test_reduces_to_first_rank_failure(self, default_cell):
        from relaygeom.analytic import p_fail_jth
        from relaygeom.validation import exact_ranked_outage

        radio = RadioParams(snr_db=18.0, target_rate=1.0, num_relays=1)
        th = compute_thresholds(radio)
        a = exact_ranked_outage(1, default_cell, radio)
        assert a == pytest.approx(p_fail_jth(1, default_cell, th), abs=1e-5)

    def test_matches_simulation_where_product_form_does_not(self, default_cell):
        from relaygeom.validation import exact_ranked_outage

        radio = RadioParams(snr_db=20.0, target_rate=1.0, num_relays=2)
        exact = exact_ranked_outage(2, default_cell, radio)
        est = mc.estimate_outage("stat", default_cell, radio, 20_000, 11)
        sigma = math.sqrt(exact * (1 - exact) / est.trials)
        assert abs(est.p_hat - exact) < 3 * sigma


class TestKthNearestDistances:
    def test_shape_and_padding(self, default_cell):
        out = mc.kth_nearest_qualified_distances(default_cell, 5.0, 4, 200, 8)
        assert out.shape == (200, 4)
        # strong thinning: some trials must lack a 4th qualified relay
        assert np.isinf(out[:, 3]).any()

    def test_rows_sorted_across_k(self, default_cell):
        out = mc.kth_nearest_qualified_distances(default_cell, 0.2, 3, 300, 8)
        finite = np.isfinite(out)
        for row, mask in zip(out, finite):
            vals = row[mask]
            assert np.all(np.diff(vals) >= 0)

    def test_deterministic(self, default_cell):
        a = mc.kth_nearest_qualified_distances(default_cell, 0.2, 2, 50, 8)
        b = mc.kth_nearest_qualified_distances(default_cell, 0.2, 2, 50, 8)
        assert np.array_equal(a, b)

    def test_worker_count_invariance(self, default_cell):
        # 37 trials split at edges that are not multiples of the block size
        serial = mc.kth_nearest_qualified_distances(default_cell, 0.0948, 3, 37, 42, workers=1)
        parallel = mc.kth_nearest_qualified_distances(default_cell, 0.0948, 3, 37, 42, workers=2)
        assert np.array_equal(serial, parallel)
        assert serial.tobytes() == parallel.tobytes()

    def test_rows_pair_with_the_outage_grid(self, default_cell):
        # row t lists the nearest of the relays that the outage grid's
        # loosest row qualifies in trial t, so the two estimators pair by trial
        rows = _mixed_rows((10.0, 25.0))
        plan = mc._Plan.of(mc._grid_row(s, r).theta_first for s, r in rows)
        assert plan.nested  # so the grid's draw differs in shape from the sampler's
        k_max, seed = 4, 42
        out = mc.kth_nearest_qualified_distances(default_cell, plan.theta_min, k_max, 40, seed)
        for t in (0, 1, 15, 16, 17, 39):
            d2 = mc._draw_block(default_cell, plan, [mc.trial_rng(seed, t)])[3]
            d = np.sort(np.sqrt(d2))
            assert d.size >= k_max
            assert out[t].tolist() == d[:k_max].tolist()

    @pytest.mark.parametrize("trials", [1, 15, 16, 17, 40, 65])
    def test_rows_do_not_depend_on_blocks(self, trials, default_cell, monkeypatch):
        # a block of 1000 holds the whole run
        runs, grid = [], [0.0, 2.0, 7.5, 25.0]
        for block in (1, 3, 16, 64, 1000):
            monkeypatch.setattr(mc, "_BLOCK_TRIALS", block)
            runs.append(mc.kth_nearest_qualified_distances(default_cell, 1.5, 4, trials, 3))
            runs.append(mc.empirical_mean_count(grid, default_cell, 1.5, trials, 3))
        assert all(np.array_equal(run, runs[0]) for run in runs[0::2])
        assert all(run == runs[1] for run in runs[1::2])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_row_per_block_on_two_workers(self, workers, default_cell, monkeypatch):
        # 150 one-trial blocks, so each worker's part joins 75 row blocks in
        # trial order; the rows are pinned bit for bit
        monkeypatch.setattr(mc, "usable_cpus", lambda: 2)
        monkeypatch.setattr(mc, "_BLOCK_TRIALS", 1)
        out = mc.kth_nearest_qualified_distances(default_cell, 0.0948, 3, 150, 42, workers=workers)
        assert out.shape == (150, 3)
        assert out[149].tolist() == [3.0844215113488698, 4.28704460279355, 4.364365997957316]
        digest = hashlib.sha256(out.tobytes()).hexdigest()
        assert digest == "ae9810fee2fec4614bacbee8f722225224e2ae2e70c9da8ec4620998a2236175"

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "k_max, trials, refusal",
        [
            (2**10 + 1, 1, r"^k_max must be at most MAX_RANK = 1024, got 1025$"),
            (10**6, 10**6, r"^k_max must be at most MAX_RANK = 1024, got 1000000$"),
            (
                3,
                2**24 // 3 + 1,
                r"^trials must be at most 5592405 at 3 ranks \(MAX_DISTANCES = 16777216 distances\), got 5592406$",
            ),
        ],
    )
    def test_a_sample_past_the_size_bounds_is_refused_before_any_draw(
        self, k_max, trials, refusal, workers, default_cell, monkeypatch
    ):
        def no_draw(*args, **kwargs):
            raise AssertionError("a field was drawn or a worker started")

        monkeypatch.setattr(mc, "usable_cpus", lambda: 2)
        monkeypatch.setattr(mc, "_start", no_draw)
        monkeypatch.setattr(mc, "_draw_fields", no_draw)
        assert (mc.MAX_RANK, mc.MAX_DISTANCES) == (2**10, 2**24)
        with pytest.raises(ValueError, match=refusal):
            mc.kth_nearest_qualified_distances(default_cell, 0.0948, k_max, trials, 0, workers=workers)
        request = mc.KthDistancesRequest(default_cell, 0.0948, mc.MAX_RANK, mc.MAX_DISTANCES // mc.MAX_RANK)
        assert (request.k_max, request.trials) == (1024, 16384)

    def test_read_sorts_each_trial_of_a_hand_built_block(self, default_cell):
        # four trials: ties within a trial, an empty trial, one relay fewer
        # than k_max, and a trial whose distances all lie below the first's,
        # so a sort that did not key on the trial first would mix the rows
        k_max = 4
        slices = [[9.0, 1.0, 4.0, 1.0, 4.0], [], [2.0], [0.25, 0.04, 0.25, 0.01, 0.04, 0.09]]
        sizes = np.array([len(d2) for d2 in slices])
        trial = np.repeat(np.arange(sizes.size), sizes)
        d2 = np.array([v for d in slices for v in d])
        block = (sizes, trial, np.sqrt(d2), d2, np.ones(d2.size))
        request = mc.KthDistancesRequest(default_cell, 0.1, k_max, sizes.size)
        (out,) = request.read(mc._Plan.of([0.1]), block)
        assert out.shape == (sizes.size, k_max)
        for row, values in zip(out, slices):
            want = np.full(k_max, np.inf)
            kept = np.sort(np.sqrt(np.array(values)))[:k_max]
            want[: kept.size] = kept
            assert row.tobytes() == want.tobytes()


class TestCheckDistances:
    """The one rule of a k-th-distance sample's size, named by its caller."""

    @pytest.mark.parametrize(
        "k_max, trials",
        [(2**10, 2**24 // 2**10), (1, 2**24), (2**10, 1), (3, 2**24 // 3)],
    )
    def test_samples_at_the_bounds_pass(self, k_max, trials):
        assert (mc.MAX_RANK, mc.MAX_DISTANCES) == (2**10, 2**24)
        got = mc.check_distances("--k-max", k_max, "--samples", trials)
        assert got == (k_max, trials) and all(type(v) is int for v in got)

    @pytest.mark.parametrize(
        "k_max, trials, refusal",
        [
            (2**10 + 1, 1, r"^--k-max must be at most MAX_RANK = 1024, got 1025$"),
            (
                2**10,
                2**24 // 2**10 + 1,
                r"^--samples must be at most 16384 at 1024 ranks \(MAX_DISTANCES = 16777216 distances\), got 16385$",
            ),
            (
                1,
                2**24 + 1,
                r"^--samples must be at most 16777216 at 1 ranks \(MAX_DISTANCES = 16777216 distances\), got 16777217$",
            ),
        ],
    )
    def test_one_past_a_bound_is_refused_by_the_callers_name(self, k_max, trials, refusal):
        with pytest.raises(ValueError, match=refusal):
            mc.check_distances("--k-max", k_max, "--samples", trials)

    @pytest.mark.parametrize(
        "k_max, trials, name",
        [
            (True, 10, "--k-max"),
            (3.0, 10, "--k-max"),
            (3, False, "--samples"),
            (3, 10.0, "--samples"),
        ],
    )
    def test_a_bool_or_a_float_is_refused(self, k_max, trials, name):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 1, got "):
            mc.check_distances("--k-max", k_max, "--samples", trials)


class TestPassMemory:
    """A pass keeps one running part per request: its memory does not grow
    with the trials it draws."""

    def test_a_mean_count_pass_holds_one_part(self):
        # 2^14 radii: a block's sums are 2 x 2 x 2^14 int64, 512 KiB; a pass
        # that kept every block's sums held 19 more at 1280 trials (~9.5
        # MiB). The cell is small (~6 relays per trial) so that the field
        # buffer, which a one-block pass makes only after its read, is too.
        cell = CellGeometry(cell_radius=2.0, dest_distance=1.0, relay_intensity=0.5)
        radii = np.linspace(0.0, cell.outer_radius, 2**14)

        def peak(trials: int) -> int:
            request = mc.MeanCountRequest(radii, cell, 0.05, trials)
            tracemalloc.start()
            try:
                mc.run_requests([request], 3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert abs(peak(1280) - peak(64)) < 512 * 1024

    def test_a_mean_count_block_holds_one_count_array(self):
        # one 64-trial block at 2^14 radii: its per-trial counts are one
        # (trials x (radii + 1)) int64 array, ~8 MiB, whose running sums are
        # taken in place and whose squares are summed without a copy; a read
        # that copied the running sums and squared them held three (~24 MiB).
        # The cell is the small one above.
        cell = CellGeometry(cell_radius=2.0, dest_distance=1.0, relay_intensity=0.5)
        trials, size = 64, 2**14
        request = mc.MeanCountRequest(np.linspace(0.0, cell.outer_radius, size), cell, 0.05, trials)
        tracemalloc.start()
        try:
            mc.run_requests([request], 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * trials * (size + 1) * 8
