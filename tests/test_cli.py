import argparse
import hashlib
import json
import math
import re
import shlex
import time
import xml.dom.minidom
from pathlib import Path

import pytest

from relaygeom import analytic, cli, montecarlo, validation
from relaygeom.cli import (
    ConfigError,
    MeanCountRow,
    SweepRow,
    parse_config,
    run_mean_count,
    run_outage_sweep,
    write_csv,
    write_svg,
)
from relaygeom.model import RadioParams, compute_thresholds


SWEEP_HEADER = "snr_db,strategy,k,p_analytic,p_mc,stderr_mc,trials,error"

#: JSON values that are not integers: bools, fractions, non-finite numbers
#: (Python's json module reads NaN and Infinity) and non-numbers.
_NOT_INTEGERS = ["true", "false", "2.7", "1.5", "NaN", "Infinity", "-Infinity", '"5"', "null", "[3]"]


class TestParseConfig:
    def test_empty_gives_defaults(self):
        config = parse_config()
        assert config.cell.cell_radius == 20.0
        assert config.cell.dest_distance == 5.0
        assert config.cell.relay_intensity == 0.5
        assert config.rate == 1.0
        assert config.snr_grid_db[0] == 0.0 and config.snr_grid_db[-1] == 30.0
        assert config.strategies == ("exact", "stat")
        assert config.k_values == (1, 2, 3)
        assert config.trials == 100_000
        assert config.seed == 42

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"cell_radius": 10, "bogus_key": 1}')
        with pytest.raises(ConfigError, match="bogus_key"):
            parse_config(str(path))

    def test_unordered_grid_rejected(self):
        with pytest.raises(ConfigError, match="snr_grid_db"):
            parse_config(overrides={"snr_grid_db": (5.0, 3.0)})

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"trials": 5000, "seed": 1}')
        config = parse_config(str(path), overrides={"trials": 1000})
        assert config.trials == 1000
        assert config.seed == 1

    def test_strategies_canonical_order_and_validation(self):
        config = parse_config(overrides={"strategies": ("stat", "exact")})
        assert config.strategies == ("exact", "stat")
        with pytest.raises(ConfigError, match="strategies"):
            parse_config(overrides={"strategies": ("exact", "magic")})

    def test_k_values_deduplicated_sorted(self):
        config = parse_config(overrides={"k_values": (3, 1, 3)})
        assert config.k_values == (1, 3)
        with pytest.raises(ConfigError, match="k_values"):
            parse_config(overrides={"k_values": (0,), "strategies": ("stat",)})

    def test_k_values_refuse_non_integers(self, tmp_path):
        # each entry takes the integer rule of trials/seed instead of int()
        path = tmp_path / "cfg.json"
        path.write_text('{"k_values": [2.7, true]}')
        with pytest.raises(ConfigError, match="k_values"):
            parse_config(str(path))

    def test_list_settings_split_comma_strings(self):
        config = parse_config(
            overrides={"snr_grid_db": "5, 10", "strategies": "stat,exact", "k_values": "3, 1"}
        )
        assert config.snr_grid_db == (5.0, 10.0)
        assert config.strategies == ("exact", "stat")
        assert config.k_values == (1, 3)

    def test_cell_invariants_reported(self):
        with pytest.raises(ConfigError, match="relay_intensity"):
            parse_config(overrides={"relay_intensity": -1.0})

    def test_malformed_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            parse_config(str(path))

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read config file"),
            ("[1, 2]", "config file must contain a JSON object"),
            ('{"snr_grid_db": []}', "snr_grid_db must be nonempty"),
            ('{"strategies": []}', "strategies must be a nonempty subset"),
            ('{"k_values": 3}', "k_values must be a list, got 3"),
        ],
    )
    def test_file_errors_name_their_cause(self, text, message, tmp_path):
        path = tmp_path / "cfg.json"
        if text is not None:  # None: the file does not exist
            path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            parse_config(str(path))

    @pytest.mark.parametrize("key", ["trials", "seed"])
    @pytest.mark.parametrize("text", _NOT_INTEGERS)
    def test_integer_fields_refuse_non_integers(self, key, text, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"{key}": {text}}}')
        with pytest.raises(ConfigError, match=key):
            parse_config(str(path))
        value = json.loads(text)
        if value is not None:  # a None override means "flag not given"
            with pytest.raises(ConfigError, match=key):
                parse_config(overrides={key: value})

    @pytest.mark.parametrize("key", ["trials", "seed"])
    def test_integer_fields_accept_integral_numbers(self, key, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"{key}": 1e5}}')
        value = getattr(parse_config(str(path)), key)
        assert value == 100_000 and type(value) is int
        assert getattr(parse_config(overrides={key: 7}), key) == 7
        assert getattr(parse_config(overrides={key: 12.0}), key) == 12

    @pytest.mark.parametrize(
        "key", ["rate", "cell_radius", "dest_distance", "relay_intensity", "path_loss_exponent"]
    )
    @pytest.mark.parametrize("text", ["true", '"20"', "null", "NaN", "[3]"])
    def test_float_fields_take_json_numbers(self, key, text, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"{key}": {text}}}')
        with pytest.raises(ConfigError, match=key):
            parse_config(str(path))

    @pytest.mark.parametrize("text", ['{"csv": 1}', '{"svg": true}', '{"csv": ["a.csv"]}'])
    def test_output_paths_take_strings(self, text, tmp_path):
        # a number here was once opened as a file descriptor
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=next(iter(json.loads(text)))):
            parse_config(str(path))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"trials": 0}, "trials must be an integer >= 1, got 0"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"rate": -1.0}, "rate must be finite and > 0, got -1.0"),
            ({"snr_grid_db": [5.0, 5.0]}, "snr_grid_db must be strictly increasing"),
            ({"strategies": ["exact", "both"]}, "strategies must be one of ('exact', 'stat'), got 'both'"),
        ],
    )
    def test_refusals_are_the_library_rules(self, overrides, message):
        # each setting is checked by model's rule for it, with the rule's text
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(overrides=overrides)

    def test_flag_text_reads_like_json(self):
        args = cli._build_parser().parse_args(["outage-sweep", "--trials", "1e5", "--seed", "1e3"])
        config = cli._config(args)
        assert (config.trials, config.seed) == (100_000, 1000)

    def test_defaults_argument_sets_the_base(self, tmp_path):
        base = {**cli.DEFAULTS, "trials": 4000}
        assert parse_config(defaults=base).trials == 4000
        path = tmp_path / "cfg.json"
        path.write_text('{"trials": 50}')
        assert parse_config(str(path), defaults=base).trials == 50


@pytest.fixture(scope="module")
def sweep_rows():
    """Default grid, analytic values intact, negligible Monte Carlo cost."""
    config = parse_config(overrides={"trials": 2})
    return config, run_outage_sweep(config)


class TestRunOutageSweep:
    def test_row_order_and_shape(self, sweep_rows):
        config, rows = sweep_rows
        per_snr = 1 + len(config.k_values)
        assert len(rows) == len(config.snr_grid_db) * per_snr
        for i, snr in enumerate(config.snr_grid_db):
            block = rows[i * per_snr : (i + 1) * per_snr]
            assert all(r.snr_db == snr for r in block)
            assert [r.strategy for r in block] == ["exact", "stat", "stat", "stat"]
            assert [r.k for r in block] == [1, 1, 2, 3]
        assert all(not r.error for r in rows)

    def test_ranked_selection_never_beats_full_knowledge(self, sweep_rows):
        _, rows = sweep_rows
        by_snr = {}
        for r in rows:
            by_snr.setdefault(r.snr_db, {})[(r.strategy, r.k)] = r
        for snr, entries in by_snr.items():
            exact = entries[("exact", 1)]
            ranked = entries[("stat", 1)]
            assert ranked.p_analytic >= exact.p_analytic - 1e-12
            # shared seed couples the trials draw for draw
            assert ranked.p_mc >= exact.p_mc

    def test_analytic_curves_non_increasing_in_snr(self, sweep_rows):
        config, rows = sweep_rows
        for key in [("exact", 1)] + [("stat", k) for k in config.k_values]:
            curve = [r.p_analytic for r in rows if (r.strategy, r.k) == key]
            assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_multi_relay_crossover_exists_on_default_grid(self, sweep_rows):
        config, rows = sweep_rows
        p = {
            k: [r.p_analytic for r in rows if (r.strategy, r.k) == ("stat", k)]
            for k in (1, 2, 3)
        }
        assert any(a < b for a, b in zip(p[2], p[1]))
        assert any(a < b for a, b in zip(p[3], p[1]))
        # and the crossover is a high-SNR phenomenon: at the grid bottom the
        # single-relay frame wins
        assert p[2][0] >= p[1][0] - 1e-12
        assert p[3][0] >= p[1][0] - 1e-12

    def test_row_errors_recorded_not_raised(self):
        # general path-loss exponents: simulable, and the doubly-connected
        # mean still has a quadrature, but the ranked-selection closed forms
        # require the squared-distance law and must fail per row
        config = parse_config(
            overrides={
                "trials": 2,
                "path_loss_exponent": 3.0,
                "snr_grid_db": (10.0,),
                "k_values": (1,),
            }
        )
        rows = run_outage_sweep(config)
        exact = [r for r in rows if r.strategy == "exact"]
        ranked = [r for r in rows if r.strategy == "stat"]
        assert all(not r.error and r.p_analytic is not None for r in exact)
        assert all(r.error and r.p_analytic is None for r in ranked)
        assert all(r.error.startswith("analytic: ") for r in ranked)
        assert all("path_loss_exponent" in r.error for r in ranked)
        # the simulation runs independently of the failed closed form
        assert all(r.p_mc is not None and 0.0 <= r.p_mc <= 1.0 for r in ranked)
        assert all(math.isfinite(r.stderr_mc) for r in ranked)

    def test_sweep_reaches_an_estimator_patched_after_import(self, monkeypatch):
        # cli calls the simulator through its module, so it sees later patches
        calls = []
        grid = montecarlo.estimate_outage_grid

        def counting_grid(cell, rows, *args, **kwargs):
            calls.append(len(rows))
            return grid(cell, rows, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "estimate_outage_grid", counting_grid)
        config = parse_config(overrides={"trials": 20, "snr_grid_db": (15.0,), "k_values": (1, 2)})
        rows = run_outage_sweep(config)
        assert calls == [3]
        assert [(r.strategy, r.k) for r in rows] == [("exact", 1), ("stat", 1), ("stat", 2)]

    def test_failed_sides_named_in_error(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("simulated failure")

        config = parse_config(
            overrides={
                "trials": 2,
                "path_loss_exponent": 3.0,
                "snr_grid_db": (10.0,),
                "k_values": (1,),
            }
        )
        monkeypatch.setattr(montecarlo, "estimate_outage_grid", broken)
        rows = run_outage_sweep(config)
        exact, ranked = rows
        assert exact.error == "mc: simulated failure"
        assert exact.p_analytic is not None and exact.p_mc is None and exact.stderr_mc is None
        assert ranked.error.startswith("analytic: ")
        assert ranked.error.endswith("; mc: simulated failure")
        assert ranked.p_analytic is None and ranked.p_mc is None


class TestWriters:
    def test_csv_contract(self, tmp_path, sweep_rows):
        config, rows = sweep_rows
        path = tmp_path / "out.csv"
        write_csv(rows, str(path), config)
        text = path.read_bytes()
        assert b"\r" not in text
        lines = text.decode().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert meta[0] == "# relaygeom outage-sweep"
        assert any(l.startswith("# seed = ") for l in meta)
        assert lines[len(meta)] == SWEEP_HEADER
        first = lines[len(meta) + 1].split(",")
        assert first[0] == "0.0000000000e+00"
        assert first[1] == "exact"

    def test_csv_metadata_lists_the_sweep_settings(self, tmp_path, sweep_rows):
        # the first-hop rule and the k-th-nearest density are no settings,
        # so no line records them
        config, rows = sweep_rows
        path = tmp_path / "out.csv"
        write_csv(rows, str(path), config)
        meta = [line for line in path.read_text().splitlines() if line.startswith("#")]
        assert meta == [
            "# relaygeom outage-sweep",
            "# cell_radius = 2.0000000000e+01",
            "# dest_distance = 5.0000000000e+00",
            "# relay_intensity = 5.0000000000e-01",
            "# path_loss_exponent = 2.0000000000e+00",
            "# rate = 1.0000000000e+00",
            "# trials = 2",
            "# seed = 42",
        ]

    def test_csv_byte_reproducible(self, tmp_path, sweep_rows):
        config, rows = sweep_rows
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(rows, str(a), config)
        write_csv(rows, str(b), config)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_refuses_empty(self, tmp_path):
        path = tmp_path / "never.csv"
        with pytest.raises(ValueError):
            write_csv([], str(path))
        assert not path.exists()

    def test_csv_sanitizes_error_text(self, tmp_path):
        rows = [SweepRow(1.0, "exact", 1, None, None, None, 5, "boom, with\ncommas")]
        path = tmp_path / "err.csv"
        write_csv(rows, str(path))
        body = path.read_text().splitlines()[1]
        assert body.count(",") == 7
        assert "boom; with commas" in body

    def test_mean_count_csv(self, tmp_path):
        rows = [
            MeanCountRow("bs", 0.0, 0.0, 0.0, 0.0, 10),
            MeanCountRow("dest", 5.0, 1.25, 1.3, 0.1, 10),
        ]
        path = tmp_path / "mean.csv"
        write_csv(rows, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "observer,radius,analytic,empirical,stderr_empirical,trials,error"
        assert lines[1].startswith("bs,0.0000000000e+00")

    def test_svg_well_formed(self, tmp_path, sweep_rows):
        _, rows = sweep_rows
        path = tmp_path / "chart.svg"
        write_svg(rows, str(path))
        doc = xml.dom.minidom.parse(str(path))
        polylines = doc.getElementsByTagName("polyline")
        assert len(polylines) >= 4
        assert write_svg(rows, str(path)) is None  # idempotent overwrite

    def test_svg_plots_the_surviving_side(self, tmp_path):
        # analytic failed on every row; the Monte Carlo curve is still drawn
        rows = [
            SweepRow(snr, "stat", 1, None, p, 0.01, 100, "analytic: no closed form")
            for snr, p in ((10.0, 0.5), (20.0, 0.05))
        ]
        path = tmp_path / "mc_only.svg"
        write_svg(rows, str(path))
        polylines = xml.dom.minidom.parse(str(path)).getElementsByTagName("polyline")
        assert len(polylines) == 1
        assert polylines[0].getAttribute("stroke-dasharray")

    def test_svg_refuses_empty(self, tmp_path):
        with pytest.raises(ValueError):
            write_svg([], str(tmp_path / "no.svg"))


class TestChartGolden:
    """The chart's bytes pinned by sha256: a small sweep, and hand-built rows
    with a missing side, a series wholly below the chart floor and a
    single-SNR series. A refactor of :func:`write_svg` keeps them."""

    @staticmethod
    def _digest(rows, tmp_path) -> str:
        path = tmp_path / "chart.svg"
        write_svg(rows, str(path))
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_small_sweep(self, tmp_path):
        overrides = {"snr_grid_db": [5.0, 15.0, 25.0], "k_values": [1, 2], "trials": 20, "seed": 42}
        rows = run_outage_sweep(parse_config(overrides=overrides))
        assert self._digest(rows, tmp_path) == "1dc27cb1f066bc5c035f11e40636d59f3548dbc212594fa8bdcdfafdd34d4ce2"

    def test_hand_built_rows(self, tmp_path):
        rows = [
            SweepRow(0.0, "exact", 1, 0.9, 0.85, 0.01, 100),
            SweepRow(10.0, "exact", 1, 0.2, None, None, 100, "mc: failed"),
            SweepRow(20.0, "exact", 1, 1e-3, 2e-3, 1e-3, 100),
            SweepRow(0.0, "stat", 1, 1e-13, 1e-14, 0.0, 100),
            SweepRow(10.0, "stat", 1, 1e-20, 0.0, 0.0, 100),
            SweepRow(10.0, "stat", 2, 0.4, 0.35, 0.02, 100),
            SweepRow(30.0, "stat", 3, None, None, None, 100, "analytic: x; mc: y"),
        ]
        assert self._digest(rows, tmp_path) == "11eb8561948aaca94a705c96b5b64e2847281b41bff5f2e47dcbd3996d771f28"


class TestMeanCountCommand:
    def test_rows_and_zero_radius(self):
        config = parse_config(overrides={"trials": 300, "seed": 3})
        rows = run_mean_count(config, [0.0, 5.0, 25.0], snr_db=15.0)
        assert [r.observer for r in rows] == ["bs", "bs", "bs", "dest", "dest", "dest"]
        for r in rows:
            if r.radius == 0.0:
                assert r.analytic == 0.0
                assert r.empirical == 0.0
            assert not r.error

    def test_far_edge_views_agree(self):
        config = parse_config(overrides={"trials": 400, "seed": 3})
        rows = run_mean_count(config, [25.0], snr_db=15.0)
        bs, dest = rows[0], rows[1]
        assert bs.empirical == dest.empirical  # the cell fits in both disks
        assert abs(bs.analytic - dest.analytic) / bs.analytic < 0.02

    def test_source_view_stops_at_the_cell_edge(self):
        # a disk of radius 4 about the source holds only the radius-3 cell
        config = parse_config(
            overrides={"cell_radius": 3.0, "dest_distance": 1.0, "trials": 2000, "seed": 3}
        )
        at_edge, beyond = run_mean_count(config, [3.0, 4.0], snr_db=15.0)[:2]
        assert beyond.analytic == at_edge.analytic
        assert beyond.empirical == at_edge.empirical
        assert abs(beyond.empirical - beyond.analytic) < 3 * beyond.stderr_empirical

    def test_one_profile_per_run(self, monkeypatch):
        built = []

        class CountingProfile(analytic.MassProfile):
            def __post_init__(self):
                built.append(self.theta)
                super().__post_init__()

        monkeypatch.setattr(analytic, "MassProfile", CountingProfile)
        config = parse_config(overrides={"trials": 2})
        rows = run_mean_count(config, [0.1 * i for i in range(251)], snr_db=15.0)
        assert len(rows) == 502 and not any(r.error for r in rows)
        assert len(built) == 1

    @staticmethod
    def _command_rows(argv, capsys):
        code = cli.main(["mean-count", "--trials", "50", "--radius-step", "5", *argv])
        header, *lines = capsys.readouterr().out.splitlines()
        return code, [dict(zip(header.split(","), line.split(","))) for line in lines]

    def test_failed_simulation_keeps_the_analytic_columns(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("pool died")

        monkeypatch.setattr(montecarlo, "empirical_mean_count", broken)
        code, rows = self._command_rows([], capsys)
        assert code == 2 and len(rows) == 12
        for row in rows:
            assert row["error"] == "mc: pool died"
            assert row["analytic"] and not row["empirical"] and not row["stderr_empirical"]

    def test_refused_closed_form_keeps_the_empirical_columns(self, capsys):
        # both closed forms assume alpha = 2; the simulation takes any exponent
        code, rows = self._command_rows(["--path-loss-exponent", "3"], capsys)
        assert code == 2 and [row["observer"] for row in rows] == ["bs"] * 6 + ["dest"] * 6
        for row in rows:
            assert row["error"].startswith("analytic: ")
            assert "path_loss_exponent == 2" in row["error"]
            assert not row["analytic"] and row["empirical"] and row["stderr_empirical"]
        assert float(rows[1]["empirical"]) > 0.0  # r = 5 about the source


    def test_rim_refuses_the_destination_curve(self, capsys):
        # at 30 dB the qualified mass outside the cell (157) would inflate
        # every dest circle that crosses the rim; those rows are refused, and
        # the circles up to R - r_d = 15, inside the cell, keep their values
        code, rows = self._command_rows(["--snr-db", "30"], capsys)
        assert code == 2 and [row["observer"] for row in rows] == ["bs"] * 6 + ["dest"] * 6
        for row in rows[:10]:
            assert row["analytic"] and row["empirical"] and not row["error"]
        for row in rows[10:]:
            assert row["error"].startswith("analytic: lambda_prime is unclipped at the cell edge")
            assert not row["analytic"] and row["empirical"]
        assert [float(row["radius"]) for row in rows[10:]] == [20.0, 25.0]
        theta = compute_thresholds(RadioParams(snr_db=30.0, target_rate=1.0)).theta_first
        inside = analytic.lambda_prime([0.0, 5.0, 10.0, 15.0], validation.DEFAULT_CELL, theta)
        assert [row["analytic"] for row in rows[6:10]] == ["%.10e" % v for v in inside]

    def test_rim_refusal_is_per_radius_in_any_order(self):
        # the simulation refuses a descending grid; the analytic side goes per radius
        config = parse_config(overrides={"trials": 2})
        rows = run_mean_count(config, [20.0, 5.0, 0.0], snr_db=30.0)
        refused = [(r.observer, r.radius, r.analytic is None, "analytic:" in r.error) for r in rows]
        assert refused == [
            ("bs", 20.0, False, False),
            ("bs", 5.0, False, False),
            ("bs", 0.0, False, False),
            ("dest", 20.0, True, True),
            ("dest", 5.0, False, False),
            ("dest", 0.0, False, False),
        ]

    def test_csv_records_snr_and_radius_step(self, tmp_path):
        out = tmp_path / "mean.csv"
        argv = ["--trials", "5", "--radius-step", "12.5", "--snr-db", "17.5", "--csv", str(out)]
        assert cli.main(["mean-count", *argv]) == 0
        meta = [line for line in out.read_text().splitlines() if line.startswith("#")]
        assert meta[-2:] == ["# snr_db = 1.7500000000e+01", "# radius_step = 1.2500000000e+01"]
        assert not any(line.startswith(("# fk_form", "# first_hop")) for line in meta)


class TestMeanCountGolden:
    """The mean-count numbers pinned bit for bit: both analytic curves over
    the default 0..25 grid at 15 dB (as ``float.hex``) and the command's
    stdout. A refactor of the mean-count path keeps them."""

    GRID = [float(r) for r in range(26)]
    BS = (
        "0x0.0p+0 0x1.5cea9f7a6ed59p+0 0x1.30573bb093e5ep+2 0x1.14b50bd437091p+3 "
        "0x1.7845c6d25e3f1p+3 0x1.b4eb5ab6ece6cp+3 0x1.d20d1ae551cbcp+3 0x1.dd468a6451cb2p+3 "
        "0x1.e0c7249e1fd2ep+3 0x1.e1ab10c66e195p+3 0x1.e1da741fdd6e9p+3 0x1.e1e288acb465fp+3 "
        "0x1.e1e3aa815437fp+3 0x1.e1e3cbec1324ep+3 0x1.e1e3cf189d56ap+3 0x1.e1e3cf583e6d0p+3 "
        "0x1.e1e3cf5c5ac88p+3 0x1.e1e3cf5c92e6cp+3 0x1.e1e3cf5c955f6p+3 0x1.e1e3cf5c95766p+3 "
        "0x1.e1e3cf5c95771p+3 0x1.e1e3cf5c95771p+3 0x1.e1e3cf5c95771p+3 0x1.e1e3cf5c95771p+3 "
        "0x1.e1e3cf5c95771p+3 0x1.e1e3cf5c95771p+3"
    ).split()
    DEST = (
        "0x0.0p+0 0x1.226cebddc548dp-3 0x1.51fa74e7c2916p-1 0x1.c472b9ce1ee45p+0 "
        "0x1.cefb2f37f4e5bp+1 0x1.86eb14dbcbe4ep+2 0x1.1ad491b656e32p+3 0x1.69303ef461e44p+3 "
        "0x1.a2e447bebb0a1p+3 0x1.c5dd83fe64928p+3 0x1.d7570bc43aef5p+3 0x1.de8bdd58c04bap+3 "
        "0x1.e1004a7384021p+3 0x1.e1b13a8f4e4a0p+3 0x1.e1da6cb658bb7p+3 0x1.e1e25bdf37690p+3 "
        "0x1.e1e39f8ecea11p+3 0x1.e1e3ca3f3ab5ap+3 0x1.e1e3cee831892p+3 0x1.e1e3cf53fe52ep+3 "
        "0x1.e1e3cf5c0ec3dp+3 0x1.e1e3cf5c8e9edp+3 0x1.e1e3cf5c952d2p+3 0x1.e1e3cf5c95746p+3 "
        "0x1.e1e3cf5c9576ep+3 0x1.e1e3cf5c9576fp+3"
    ).split()

    def test_analytic_curves(self):
        cell, theta = validation.DEFAULT_CELL, validation.THETA_15DB
        bs = analytic.mean_count_from_bs(self.GRID, cell, theta)
        dest = analytic.lambda_prime(self.GRID, cell, theta)
        assert [float(v).hex() for v in bs] == self.BS
        assert [float(v).hex() for v in dest] == self.DEST

    def test_command_stdout(self, capsys):
        assert cli.main(["mean-count", "--trials", "200", "--radius-step", "5"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "03cd435695684193774cc76c5511d117f5e000bc9277d790f1afe53348416317"


class TestMainEntry:
    def test_validation_error_exit_code(self, capsys):
        rc = cli.main(["outage-sweep", "--snr-grid-db", "5,3", "--trials", "2"])
        assert rc == 1
        assert "snr_grid_db" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, key",
        [("--k-values", "1.5", "k_values"), ("--snr-grid-db", "5,x", "snr_grid_db")],
    )
    def test_malformed_list_flag_exit_code(self, flag, value, key, capsys):
        # a configuration error (exit 1), not a runtime error (exit 2)
        assert cli.main(["outage-sweep", flag, value, "--trials", "2"]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["outage-sweep", "mean-count"])
    @pytest.mark.parametrize(
        "flag, value, key",
        [
            ("--trials", "1.5", "trials"),
            ("--rate", "x", "rate"),
            ("--cell-radius", "abc", "cell_radius"),
            ("--seed", "true", "seed"),
        ],
    )
    def test_malformed_flag_exit_code(self, command, flag, value, key, capsys):
        # one checker for flags and file alike: exit 1, naming the key
        assert cli.main([command, flag, value]) == 1
        assert key in capsys.readouterr().err

    def test_validate_reads_trials_like_the_sweep(self, monkeypatch):
        seen = {}
        monkeypatch.setattr(cli.validation, "run_all", lambda **kw: seen.update(kw) or [])
        assert cli.main(["validate", "--trials", "1e5", "--seed", "7"]) == 0
        assert seen == {
            "trials": 100_000, "samples": 10_000, "mean_count_trials": 4000, "seed": 7,
            "workers": montecarlo.usable_cpus(),
        }
        assert type(seen["trials"]) is int

    @pytest.mark.parametrize(
        "argv",
        [
            ["outage-sweep", "--trials", "2", "--snr-grid-db", "10", "--strategies", "exact"],
            ["mean-count", "--trials", "2", "--radius-step", "25"],
            ["validate"],
            ["fk-check"],
        ],
    )
    def test_commands_default_to_the_cpu_cap(self, argv, monkeypatch):
        # without --workers, each command's one pass gets what usable_cpus reads
        seen = []

        def record(*args, workers, **kwargs):
            seen.append(workers)
            raise RuntimeError("recorded")

        monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 3)
        monkeypatch.setattr(montecarlo, "run_requests", record)
        monkeypatch.setattr(cli.validation, "run_all", record)
        cli.main(argv)
        assert seen == [3]

    def test_threads_variable_is_not_read(self, monkeypatch):
        # the environment variable that once set the worker count, named from
        # the package: "abc" in it made `relaygeom validate` exit 1
        retired = cli.__package__.upper() + "_THREADS"
        seen = []
        monkeypatch.setattr(cli.validation, "run_all", lambda **kw: seen.append(kw) or [])
        assert cli.main(["validate"]) == 0
        monkeypatch.setenv(retired, "abc")
        assert cli.main(["validate"]) == 0
        assert seen[0] == seen[1]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["validate", "--samples", "x"], "--samples"),
            (["validate", "--mean-count-trials", "0"], "--mean-count-trials"),
            (["validate", "--seed", "1.5"], "--seed"),
            (["validate", "--workers", "2.5"], "--workers"),
            (["fk-check", "--samples", "0"], "--samples"),
            (["fk-check", "--k-max", "-1"], "--k-max"),
            (["mean-count", "--snr-db", "nan"], "--snr-db"),
            (["mean-count", "--radius-step", "0"], "--radius-step"),
            (["mean-count", "--workers", "0"], "--workers"),
            (["outage-sweep", "--workers", "0", "--trials", "2"], "--workers"),
        ],
    )
    def test_malformed_command_flag_exit_code(self, argv, flag, capsys):
        # refused before any work, as a configuration error naming the flag
        assert cli.main(argv) == 1
        assert f"configuration error: {flag} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["1e-300", "5e-324", repr(25 / 2**17)])
    def test_radius_step_past_the_grid_bound(self, step, monkeypatch, capsys):
        # the count comes from the step: nothing is built or run
        def no_run(*args, **kwargs):
            raise AssertionError("the grid was built and run")

        monkeypatch.setattr(cli, "run_mean_count", no_run)
        t0 = time.perf_counter()
        assert cli.main(["mean-count", "--radius-step", step]) == 1
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err == (
            "configuration error: --radius-step must give at most MAX_RADII = 131072 radii "
            f"on [0, 25], got {float(step)!r}\n"
        )

    def test_radius_step_at_the_grid_bound(self, monkeypatch):
        # 25 / step lies just below 2^17: floor(25 / step) + 1 = MAX_RADII radii
        seen = []
        monkeypatch.setattr(cli, "run_mean_count", lambda config, radii, **kw: seen.append(radii) or [])
        monkeypatch.setattr(cli, "_emit", lambda rows, config, settings: 0)
        assert cli.main(["mean-count", "--radius-step", repr(25 / (2**17 - 0.5))]) == 0
        assert len(seen[0]) == montecarlo.MAX_RADII

    @pytest.mark.parametrize(
        "argv, refusal",
        [
            (["outage-sweep", "--snr-grid-db", "1e308"], "snr_grid_db must give finite decoding thresholds"),
            (["outage-sweep", "--snr-grid-db", "-4000"], "snr_grid_db must give finite decoding thresholds"),
            (["outage-sweep", "--rate", "600"], "rate must give finite decoding thresholds"),
            (["outage-sweep", "--rate", "300", "--k-values", "1,3"], "rate must give finite decoding thresholds"),
            (["mean-count", "--snr-db", "1e308"], "--snr-db must give finite decoding thresholds"),
            (["mean-count", "--rate", "600"], "rate must give finite decoding thresholds"),
        ],
    )
    def test_thresholds_past_a_float_are_configuration_errors(self, argv, refusal, monkeypatch, capsys):
        # each radio the command runs is built before anything runs
        def no_run(*args, **kwargs):
            raise AssertionError("the command ran")

        monkeypatch.setattr(cli, "run_outage_sweep", no_run)
        monkeypatch.setattr(cli, "run_mean_count", no_run)
        t0 = time.perf_counter()
        assert cli.main(argv) == 1
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err.startswith(f"configuration error: {refusal}")

    @pytest.mark.parametrize(
        "argv",
        [
            ["outage-sweep", "--rate", "300", "--strategies", "exact", "--k-values", "3"],  # runs one relay only
            ["mean-count", "--rate", "300"],  # one relay, whatever the sweep's frame sizes
            ["outage-sweep", "--snr-grid-db", "3000"],
        ],
    )
    def test_radios_the_command_does_not_run_are_not_refused(self, argv, monkeypatch):
        monkeypatch.setattr(cli, "run_outage_sweep", lambda config, **kw: [])
        monkeypatch.setattr(cli, "run_mean_count", lambda config, radii, **kw: [])
        monkeypatch.setattr(cli, "_emit", lambda *args: 0)
        assert cli.main(argv) == 0

    def test_parse_config_builds_each_radio_of_the_sweep(self):
        # at -3075 dB one relay's thresholds are finite and two relays' are not
        refusal = r"^snr_grid_db must give finite decoding thresholds at rate 1\.0, num_relays 2, got -3075\.0$"
        with pytest.raises(ConfigError, match=refusal):
            parse_config(overrides={"snr_grid_db": "-3075,0"})
        assert parse_config(overrides={"snr_grid_db": "-3075,0", "strategies": "exact"}).snr_grid_db == (-3075.0, 0.0)

    @pytest.mark.parametrize(
        "argv, refusal",
        [
            (["fk-check", "--k-max", "1000000"], "--k-max must be at most MAX_RANK = 1024, got 1000000"),
            (
                ["fk-check", "--k-max", "1024", "--samples", "16385"],
                "--samples must be at most 16384 at 1024 ranks (MAX_DISTANCES = 16777216 distances), got 16385",
            ),
            (
                ["validate", "--samples", "1e9"],
                "--samples must be at most 5592405 at 3 ranks (MAX_DISTANCES = 16777216 distances), got 1000000000",
            ),
        ],
    )
    def test_distance_samples_past_their_bounds(self, argv, refusal, monkeypatch, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("the command ran")

        monkeypatch.setattr(montecarlo, "kth_nearest_qualified_distances", no_run)
        monkeypatch.setattr(cli.validation, "run_all", no_run)
        t0 = time.perf_counter()
        assert cli.main(argv) == 1
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err == f"configuration error: {refusal}\n"

    @pytest.mark.parametrize(
        "argv",
        [["fk-check", "--k-max", "1024", "--samples", "16384"], ["validate", "--samples", "5592405"]],
    )
    def test_distance_samples_at_their_bounds(self, argv, monkeypatch):
        seen = []
        monkeypatch.setattr(montecarlo, "kth_nearest_qualified_distances", lambda *a, **kw: seen.append(a))
        monkeypatch.setattr(validation, "check_fk_distribution", lambda draws: validation.CheckResult("", True, "", 0.0))
        monkeypatch.setattr(cli.validation, "run_all", lambda **kw: seen.append(kw) or [])
        assert cli.main(argv) == 0
        assert len(seen) == 1

    def test_defaults_are_the_gate_scenario(self):
        config = parse_config()
        assert (config.cell, config.rate) == (validation.DEFAULT_CELL, validation.DEFAULT_RATE)
        flags = {name: default for name, (_, default, _) in cli._COMMAND_FLAGS["validate"].items()}
        sizes = (validation.TRIALS, validation.SAMPLES, validation.MEAN_COUNT_TRIALS)
        assert (flags["trials"], flags["samples"], flags["mean-count-trials"]) == sizes
        fk = cli._COMMAND_FLAGS["fk-check"]
        assert (fk["samples"][1], fk["k-max"][1]) == (validation.SAMPLES, validation.K_MAX)

    @pytest.mark.parametrize("text", ['"x"', "null"])
    def test_malformed_rate_in_file_exit_code(self, text, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"rate": {text}}}')
        assert cli.main(["outage-sweep", "--config", str(path)]) == 1
        assert "rate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", ["--snr-grid-db", "--strategies", "--k-values", "--fk-form", "--first-hop-threshold", "--svg"]
    )
    def test_mean_count_refuses_flags_it_does_not_read(self, flag, capsys):
        assert cli.main(["mean-count", flag, "1"]) == 1
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command"),
            (["sweep"], "invalid choice: 'sweep'"),
            (["validate", "--trials"], "argument --trials: expected one argument"),
            (
                ["outage-sweep", "--first-hop-threshold", "base_rate"],
                "unrecognized arguments: --first-hop-threshold base_rate",
            ),
            (["outage-sweep", "--fk-form", "quadratic"], "unrecognized arguments: --fk-form quadratic"),
        ],
        ids=["no-command", "unknown-command", "missing-value", "first-hop-flag", "fk-form-flag"],
    )
    def test_malformed_command_line_exit_code(self, argv, message, capsys):
        # a configuration error (exit 1) like the same refusal in the file,
        # not argparse's exit 2, which is the runtime-error code here
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err

    def test_overflowing_cell_is_a_configuration_error(self, capsys):
        # every field is finite, but the cell's mean relay count overflows
        assert cli.main(["outage-sweep", "--cell-radius", "1e200", "--trials", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "mean_relay_count" in err

    def test_help_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["outage-sweep", "-h"])
        assert exc.value.code == 0
        assert "--snr-grid-db" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "key, text",
        [("first_hop_threshold", '"frame_rate"'), ("fk_form", '"exact"')],
        ids=["first_hop_threshold", "fk_form"],
    )
    def test_retired_key_is_refused_in_the_file(self, key, text, tmp_path, capsys):
        # relays qualify at the frame's per-slot rate and rank by the thinned
        # field's order-statistic density; neither is a setting
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"{key}": {text}}}')
        assert cli.main(["outage-sweep", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"config key {key} is not one this command's file takes" in err

    @pytest.mark.parametrize(
        "key, text",
        [
            ("svg", '"never.svg"'),
            ("strategies", '["exact"]'),
            ("k_values", "[9]"),
            ("fk_form", '"quadratic"'),
            ("snr_db", "20"),
            ("radius_step", "1"),
        ],
    )
    def test_mean_count_refuses_file_keys_it_does_not_read(self, key, text, tmp_path, capsys):
        # what the command refuses as a flag it refuses in the file too, and
        # its own settings (snr_db, radius_step) are flags only
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"{key}": {text}}}')
        assert cli.main(["mean-count", "--config", str(path)]) == 1
        takes = "cell_radius, dest_distance, relay_intensity, path_loss_exponent, rate, trials, seed, csv"
        message = f"configuration error: config key {key} is not one this command's file takes: {takes}\n"
        assert message in capsys.readouterr().err

    def test_validate_prints_each_check_and_fails_on_any(self, monkeypatch, capsys):
        results = [
            validation.CheckResult("first", True, "fine", 0.5),
            validation.CheckResult("second", False, "off", 1.5),
        ]
        monkeypatch.setattr(cli.validation, "run_all", lambda **kw: results)
        assert cli.main(["validate"]) == 2
        assert capsys.readouterr().out == "[PASS] first (0.5s): fine\n[FAIL] second (1.5s): off\n"
        monkeypatch.setattr(cli.validation, "run_all", lambda **kw: results[:1])
        assert cli.main(["validate"]) == 0
        assert capsys.readouterr().out == "[PASS] first (0.5s): fine\n"

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        # the sweep runs, then its CSV cannot be opened
        csv = tmp_path / "missing" / "o.csv"
        argv = ["outage-sweep", "--snr-grid-db", "15", "--k-values", "1", "--trials", "2", "--csv", str(csv)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_sweep_writes_svg(self, tmp_path):
        svg = tmp_path / "o.svg"
        argv = ["outage-sweep", "--snr-grid-db", "5,15", "--k-values", "1", "--trials", "20", "--svg", str(svg)]
        assert cli.main(argv + ["--csv", str(tmp_path / "o.csv")]) == 0
        assert xml.dom.minidom.parse(str(svg)).documentElement.tagName == "svg"

    def test_sweep_without_plottable_rows_writes_csv_and_no_svg(self, tmp_path, capsys):
        # one exact row at 30 dB: both sides fall below the chart's floor
        csv, svg = tmp_path / "a.csv", tmp_path / "a.svg"
        argv = ["outage-sweep", "--strategies", "exact", "--snr-grid-db", "30", "--trials", "10"]
        assert cli.main(argv + ["--csv", str(csv), "--svg", str(svg)]) == 2
        assert capsys.readouterr().err == "error: no plottable rows for SVG\n"
        assert csv.read_text().splitlines()[-1].startswith("3.0000000000e+01,exact,1,")
        assert not svg.exists()

    def test_row_error_exit_code(self, tmp_path, capsys):
        rc = cli.main(
            [
                "outage-sweep",
                "--path-loss-exponent",
                "3.0",
                "--snr-grid-db",
                "10",
                "--k-values",
                "1",
                "--trials",
                "2",
                "--csv",
                str(tmp_path / "o.csv"),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize("key", ["trials", "seed"])
    @pytest.mark.parametrize("text", ["true", "2.7", "NaN", '"5"'])
    def test_non_integer_config_exit_code(self, key, text, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"{key}": {text}}}')
        # refused while parsing, before any row runs
        assert cli.main(["outage-sweep", "--config", str(path)]) == 1
        assert key in capsys.readouterr().err

    def test_sweep_to_stdout(self, capsys):
        rc = cli.main(
            ["outage-sweep", "--snr-grid-db", "15", "--k-values", "1", "--trials", "50",
             "--strategies", "exact"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == SWEEP_HEADER
        assert ",exact,1," in out

    def test_mean_count_command(self, tmp_path):
        out = tmp_path / "mean.csv"
        rc = cli.main(
            ["mean-count", "--trials", "200", "--radius-step", "5", "--csv", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# relaygeom mean-count"
        assert sum(1 for l in lines if l.startswith("bs,")) == 6

    def test_mean_count_reads_trials_from_file(self, tmp_path):
        cfg, out = tmp_path / "cfg.json", tmp_path / "mean.csv"
        cfg.write_text('{"trials": 50}')
        assert cli.main(["mean-count", "--config", str(cfg), "--radius-step", "25", "--csv", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert "# trials = 50" in lines
        assert all(l.split(",")[5] == "50" for l in lines if l.startswith(("bs,", "dest,")))

    def test_mean_count_default_trials(self, tmp_path):
        out = tmp_path / "mean.csv"
        assert cli.main(["mean-count", "--radius-step", "25", "--csv", str(out)]) == 0
        assert "# trials = 4000" in out.read_text().splitlines()

    def test_fk_check_command(self, capsys):
        rc = cli.main(["fk-check", "--samples", "1500", "--k-max", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "KS(exact)" in out and "KS(quadratic)" in out

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fk_check_judges_as_the_gate(self, workers, capsys):
        # same cell, threshold, seed and check as criterion 6 inside run_all
        rc = cli.main(["fk-check", "--samples", "300", "--seed", "42", "--workers", str(workers)])
        out = capsys.readouterr().out
        status, detail = re.fullmatch(r"(\[\w+\]) \S+ \([\d.]+s\): (.*)\n", out).groups()
        results = montecarlo.run_requests(validation._pass_requests(50, 300, 50), 42, workers=workers)
        gate = validation._judge_pass(results, 0.0)[2]
        assert gate.name == "kth_nearest_distance_ks"
        assert detail == gate.detail.removesuffix(validation._SHARED_DRAW_NOTE)
        assert (status, rc) == (("[PASS]", 0) if gate.passed else ("[FAIL]", 2))

    def test_fk_check_time_covers_sampling(self, capsys, monkeypatch):
        sample = montecarlo.kth_nearest_qualified_distances

        def slow_sample(*args, **kwargs):
            time.sleep(0.3)
            return sample(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "kth_nearest_qualified_distances", slow_sample)
        assert cli.main(["fk-check", "--samples", "300"]) == 0
        assert float(re.search(r"\(([\d.]+)s\)", capsys.readouterr().out).group(1)) >= 0.3


_WORKERS_HELP = "worker processes (default: the CPUs this process may use); results do not depend on it"
_CELL_FLAGS = [
    ("--config", "JSON configuration file"),
    ("--cell-radius", "default: 20.0"),
    ("--dest-distance", "default: 5.0"),
    ("--relay-intensity", "default: 0.5"),
    ("--path-loss-exponent", "default: 2.0"),
    ("--rate", "default: 1.0"),
]


def test_command_surface():
    # every subcommand's help line, then each option and its help line, in order
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    surface = {
        name: [helps[name]]
        + [
            (" ".join(a.option_strings), a.help)
            for a in p._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        for name, p in sub.choices.items()
    }
    assert list(surface) == ["outage-sweep", "mean-count", "validate", "fk-check"]
    assert surface["outage-sweep"] == [
        "analytic + Monte Carlo outage over an SNR grid",
        *_CELL_FLAGS,
        ("--snr-grid-db", "default: 0.0,2.5,5.0,7.5,10.0,12.5,15.0,17.5,20.0,22.5,25.0,27.5,30.0"),
        ("--strategies", "default: exact,stat"),
        ("--k-values", "default: 1,2,3"),
        ("--trials", "default: 100000"),
        ("--seed", "default: 42"),
        ("--csv", "default: None"),
        ("--svg", "default: None"),
        ("--workers", _WORKERS_HELP),
    ]
    assert surface["mean-count"] == [
        "qualified-relay mean-count curves, both observers",
        *_CELL_FLAGS,
        ("--trials", "default: 4000"),
        ("--seed", "default: 42"),
        ("--csv", "default: None"),
        ("--snr-db", "operating SNR (default: 15.0)"),
        ("--radius-step", "radius grid step (default: 1.0)"),
        ("--workers", _WORKERS_HELP),
    ]
    assert surface["validate"] == [
        "run the full consistency gate",
        ("--trials", "Monte Carlo trials of criteria 3 and 4 (default: 100000)"),
        ("--samples", "sampled distances of criterion 6 (default: 10000)"),
        ("--mean-count-trials", "realizations of criterion 7 (default: 4000)"),
        ("--seed", "seed of every Monte Carlo check (default: 42)"),
        ("--workers", _WORKERS_HELP),
    ]
    assert surface["fk-check"] == [
        "k-th nearest distance law vs sampled distances",
        ("--samples", "sampled distances (default: 10000)"),
        ("--seed", "sampling seed (default: 42)"),
        ("--k-max", "largest rank k (default: 3)"),
        ("--workers", _WORKERS_HELP),
    ]


def _readme_commands() -> list[list[str]]:
    """The arguments of every ``relaygeom ...`` line in README's code blocks."""
    commands, fenced = [], False
    readme = Path(__file__).resolve().parents[1] / "README.md"
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("relaygeom "):
            commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_has_commands():
    assert {argv[0] for argv in _readme_commands()} == {
        "outage-sweep", "mean-count", "validate", "fk-check"
    }


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_parses(argv):
    # the documented flags exist on the subcommand that documents them
    cli._build_parser().parse_args(argv)
