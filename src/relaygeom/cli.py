"""Batch front end: configuration parsing, sweeps and CSV/SVG artifacts.

Subcommands
-----------
``outage-sweep``
    Pair analytic and Monte Carlo outage values over an SNR grid and write
    them as CSV (and optionally a log-scale SVG chart).
``mean-count``
    Mean number of qualified relays within a radius, seen from the source
    and from the destination, analytic vs empirical.
``validate``
    Run the full oracle/property gate and print one pass/fail line per
    check.
``fk-check``
    Compare the two k-th-nearest-distance density variants against sampled
    distances (KS statistic per k).

Exit codes: 0 success, 1 configuration error, 2 runtime/numerical error
(including any row of a sweep failing). Output files are byte-reproducible
for a fixed configuration and seed, independent of ``RELAYGEOM_THREADS``.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
from dataclasses import dataclass

from . import validation
from .analytic import F_K_FORMS, lambda_prime, mean_count_from_bs, outage_exact_csi, outage_stat
from .model import FIRST_HOP_RULES, CellGeometry, RadioParams, compute_thresholds
from .montecarlo import STRATEGIES, THREADS_ENV, empirical_mean_count, estimate_outage

#: Documented defaults for every configuration key. These are repository
#: choices for a desk-scale scenario, not values with any outside authority;
#: they are echoed into the CSV metadata comments of each artifact.
DEFAULTS: dict = {
    "cell_radius": 20.0,
    "dest_distance": 5.0,
    "relay_intensity": 0.5,
    "path_loss_exponent": 2.0,
    "rate": 1.0,
    "snr_grid_db": tuple(0.0 + 2.5 * i for i in range(13)),  # 0 .. 30 dB
    "strategies": ("exact", "stat"),
    "k_values": (1, 2, 3),
    "trials": 100_000,
    "seed": 42,
    "fk_form": "exact",
    "first_hop_threshold": "frame_rate",
    "csv": None,
    "svg": None,
}

CSV_HEADER = "snr_db,strategy,k,p_analytic,p_mc,stderr_mc,trials,error"
MEAN_COUNT_HEADER = "observer,radius,analytic,empirical,stderr_empirical,trials,error"


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass(frozen=True)
class SweepConfig:
    """Validated configuration of one sweep run."""

    cell: CellGeometry
    rate: float
    snr_grid_db: tuple[float, ...]
    strategies: tuple[str, ...]
    k_values: tuple[int, ...]
    trials: int
    seed: int
    fk_form: str
    first_hop_threshold: str
    csv: str | None
    svg: str | None


@dataclass(frozen=True)
class SweepRow:
    """One (snr, strategy, k) record pairing analytic and empirical outage."""

    snr_db: float
    strategy: str
    k: int
    p_analytic: float | None
    p_mc: float | None
    stderr_mc: float | None
    trials: int
    error: str = ""


@dataclass(frozen=True)
class MeanCountRow:
    observer: str
    radius: float
    analytic: float | None
    empirical: float | None
    stderr_empirical: float | None
    trials: int
    error: str = ""


def parse_config(path: str | None = None, overrides: dict | None = None) -> SweepConfig:
    """Merge defaults, an optional JSON file and flag overrides, then validate.

    Precedence: flags > file > defaults. Unknown keys are rejected and every
    invariant violation is reported with the field name.
    """
    data = dict(DEFAULTS)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must contain a JSON object")
        for key in loaded:
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key: {key}")
        data.update(loaded)
    for key, value in (overrides or {}).items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key: {key}")
        if value is not None:
            data[key] = value

    try:
        cell = CellGeometry(
            cell_radius=float(data["cell_radius"]),
            dest_distance=float(data["dest_distance"]),
            relay_intensity=float(data["relay_intensity"]),
            path_loss_exponent=float(data["path_loss_exponent"]),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    rate = float(data["rate"])
    if not (math.isfinite(rate) and rate > 0):
        raise ConfigError("rate must be finite and > 0")

    grid = tuple(_listed(data, "snr_grid_db", float))
    if not grid:
        raise ConfigError("snr_grid_db must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("snr_grid_db must be strictly increasing")

    strategies = tuple(_listed(data, "strategies", str))
    if not strategies or any(s not in STRATEGIES for s in strategies):
        raise ConfigError(f"strategies must be a nonempty subset of {STRATEGIES}")
    strategies = tuple(s for s in STRATEGIES if s in strategies)  # canonical order

    k_values = tuple(sorted(set(_listed(data, "k_values", _integer_item))))
    if "stat" in strategies and (not k_values or any(k < 1 for k in k_values)):
        raise ConfigError("k_values must be a nonempty set of integers >= 1 when 'stat' is selected")

    trials = _integer(data["trials"], "trials")
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    seed = _integer(data["seed"], "seed")
    if data["fk_form"] not in F_K_FORMS:
        raise ConfigError(f"fk_form must be one of {F_K_FORMS}")
    if data["first_hop_threshold"] not in FIRST_HOP_RULES:
        raise ConfigError(f"first_hop_threshold must be one of {FIRST_HOP_RULES}")

    return SweepConfig(
        cell=cell,
        rate=rate,
        snr_grid_db=grid,
        strategies=strategies,
        k_values=k_values,
        trials=trials,
        seed=seed,
        fk_form=str(data["fk_form"]),
        first_hop_threshold=str(data["first_hop_threshold"]),
        csv=data["csv"],
        svg=data["svg"],
    )


def _listed(data: dict, key: str, parse) -> list:
    """Setting ``key`` as a list of ``parse(item)``; a string (a flag's value)
    is split at commas first. A non-list, or an item that ``parse`` refuses,
    is a :class:`ConfigError` naming ``key``."""
    value = data[key]
    items = [v.strip() for v in value.split(",")] if isinstance(value, str) else value
    try:
        return [parse(item) for item in items]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key}: {exc}") from exc


def _integer_item(value) -> int:
    """A list entry under the :func:`_integer` rule; text (from a flag) is
    read as a decimal integer first."""
    return _integer(int(value) if isinstance(value, str) else value, "entry")


def _integer(value, key: str) -> int:
    """``value`` of setting ``key`` as an int; integral finite floats (``1e5``
    in JSON) pass, while bools, fractions, NaN, infinities and non-numbers
    are refused."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integral and not (
        isinstance(value, float) and math.isfinite(value) and value.is_integer()
    ):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def run_outage_sweep(config: SweepConfig, workers: int | None = None) -> list[SweepRow]:
    """Run the sweep: one row per (snr, strategy, k), in that order.

    Every row reuses ``config.seed``, so strategies at the same SNR share
    realizations and channel draws (paired comparison). The analytic and
    the Monte Carlo value of a row are computed independently: a side that
    fails leaves its columns empty and its message, prefixed ``analytic:``
    or ``mc:``, in the ``error`` column (both joined by ``; ``), and the
    sweep continues.
    """
    rows: list[SweepRow] = []
    for snr in config.snr_grid_db:
        for strategy in config.strategies:
            ks = (1,) if strategy == "exact" else config.k_values
            for k in ks:
                radio = RadioParams(snr_db=snr, target_rate=config.rate, num_relays=k)
                p_an = p_mc = stderr = None
                errors = []
                try:
                    if strategy == "exact":
                        p_an = outage_exact_csi(config.cell, radio, "quadrature")
                    else:
                        p_an = outage_stat(
                            k, config.cell, radio, config.fk_form, config.first_hop_threshold
                        )
                except Exception as exc:  # noqa: BLE001 - per-row error contract
                    errors.append(f"analytic: {exc}")
                try:
                    est = estimate_outage(
                        strategy,
                        config.cell,
                        radio,
                        config.trials,
                        config.seed,
                        first_hop=config.first_hop_threshold,
                        workers=workers,
                    )
                    p_mc, stderr = est.p_hat, est.stderr
                except Exception as exc:  # noqa: BLE001 - per-row error contract
                    errors.append(f"mc: {exc}")
                rows.append(
                    SweepRow(snr, strategy, k, p_an, p_mc, stderr, config.trials, "; ".join(errors))
                )
    return rows


def run_mean_count(
    config: SweepConfig,
    radii: list[float],
    snr_db: float = 15.0,
    trials: int | None = None,
    workers: int | None = None,
) -> list[MeanCountRow]:
    """Mean-count curves from both observers over a radius grid.

    The qualification threshold is the single-relay one at ``snr_db`` and
    ``config.rate``. Rows are ordered by observer ("bs" first), then radius.
    """
    trials = config.trials if trials is None else trials
    theta = compute_thresholds(
        RadioParams(snr_db=snr_db, target_rate=config.rate, num_relays=1)
    ).theta_first
    rows: list[MeanCountRow] = []
    for observer in ("bs", "dest"):
        try:
            empirical = empirical_mean_count(
                observer, radii, config.cell, theta, trials, config.seed, workers=workers
            )
        except Exception as exc:  # noqa: BLE001
            rows.extend(
                MeanCountRow(observer, r, None, None, None, trials, str(exc)) for r in radii
            )
            continue
        for point in empirical:
            try:
                if observer == "bs":
                    an = mean_count_from_bs(point.radius, config.cell.relay_intensity, theta)
                else:
                    an = lambda_prime(point.radius, config.cell, theta)
                rows.append(
                    MeanCountRow(observer, point.radius, an, point.mean, point.stderr, trials)
                )
            except Exception as exc:  # noqa: BLE001
                rows.append(
                    MeanCountRow(observer, point.radius, None, point.mean, point.stderr, trials, str(exc))
                )
    return rows


def _fmt(value: float | None) -> str:
    return "" if value is None else "%.10e" % value


def _sanitize(text: str) -> str:
    return text.replace(",", ";").replace("\n", " ").replace("\r", " ")


def _metadata_lines(config: SweepConfig, command: str) -> list[str]:
    return [
        f"# relaygeom {command}",
        f"# cell_radius = {_fmt(config.cell.cell_radius)}",
        f"# dest_distance = {_fmt(config.cell.dest_distance)}",
        f"# relay_intensity = {_fmt(config.cell.relay_intensity)}",
        f"# path_loss_exponent = {_fmt(config.cell.path_loss_exponent)}",
        f"# rate = {_fmt(config.rate)}",
        f"# trials = {config.trials}",
        f"# seed = {config.seed}",
        f"# fk_form = {config.fk_form}",
        f"# first_hop_threshold = {config.first_hop_threshold}",
    ]


def _write_lines(lines: list[str], path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _sweep_line(r: SweepRow) -> str:
    return ",".join(
        [
            _fmt(r.snr_db),
            r.strategy,
            str(r.k),
            _fmt(r.p_analytic),
            _fmt(r.p_mc),
            _fmt(r.stderr_mc),
            str(r.trials),
            _sanitize(r.error),
        ]
    )


def _mean_count_line(r: MeanCountRow) -> str:
    return ",".join(
        [
            r.observer,
            _fmt(r.radius),
            _fmt(r.analytic),
            _fmt(r.empirical),
            _fmt(r.stderr_empirical),
            str(r.trials),
            _sanitize(r.error),
        ]
    )


def write_csv(rows: list[SweepRow], path: str, config: SweepConfig | None = None) -> None:
    """Write sweep rows as CSV: fixed header, %.10e floats, LF endings.

    Byte-reproducible for identical rows; refuses empty input (no file is
    created). Metadata comment lines carry the configuration when given.
    """
    if not rows:
        raise ValueError("refusing to write CSV without rows")
    lines = _metadata_lines(config, "outage-sweep") if config is not None else []
    lines.append(CSV_HEADER)
    lines.extend(_sweep_line(r) for r in rows)
    _write_lines(lines, path)


def write_mean_count_csv(
    rows: list[MeanCountRow], path: str, config: SweepConfig | None = None
) -> None:
    """CSV writer for mean-count rows; same conventions as :func:`write_csv`."""
    if not rows:
        raise ValueError("refusing to write CSV without rows")
    lines = _metadata_lines(config, "mean-count") if config is not None else []
    lines.append(MEAN_COUNT_HEADER)
    lines.extend(_mean_count_line(r) for r in rows)
    _write_lines(lines, path)


_SVG_COLORS = ("#1b6ca8", "#c03221", "#2e7d32", "#7b1fa2", "#e65100", "#455a64")
_SVG_W, _SVG_H = 720, 480
_SVG_ML, _SVG_MR, _SVG_MT, _SVG_MB = 70, 20, 30, 50
_SVG_FLOOR = 1e-12


def write_svg(rows: list[SweepRow], path: str) -> None:
    """Log-scale outage chart, one series per (strategy, k): analytic solid,
    Monte Carlo dashed. Presentation only; every number shown is in the CSV.
    Missing values (the failed side of a row) and nonpositive probabilities
    (below chart floor) are skipped."""
    if not rows:
        raise ValueError("refusing to write SVG without rows")
    ok_rows = [r for r in rows if r.p_analytic is not None or r.p_mc is not None]
    series_keys = sorted({(r.strategy, r.k) for r in ok_rows})
    xs = sorted({r.snr_db for r in ok_rows})
    ys = [
        v
        for r in ok_rows
        for v in (r.p_analytic, r.p_mc)
        if v is not None and v > _SVG_FLOOR
    ]
    if not xs or not ys:
        raise ValueError("no plottable rows for SVG")
    x_lo, x_hi = min(xs), max(xs)
    y_lo = 10.0 ** math.floor(math.log10(min(ys)))
    y_hi = 1.0
    span_x = max(x_hi - x_lo, 1e-9)
    span_y = max(math.log10(y_hi) - math.log10(y_lo), 1e-9)
    plot_w = _SVG_W - _SVG_ML - _SVG_MR
    plot_h = _SVG_H - _SVG_MT - _SVG_MB

    def px(x: float) -> float:
        return _SVG_ML + (x - x_lo) / span_x * plot_w

    def py(p: float) -> float:
        return _SVG_MT + (math.log10(y_hi) - math.log10(p)) / span_y * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_ML}" y="18" font-size="14">outage probability vs transmit SNR</text>',
    ]
    decade = int(math.log10(y_lo))
    for d in range(decade, 1):
        y = py(10.0**d)
        parts.append(
            f'<line x1="{_SVG_ML}" y1="{y:.2f}" x2="{_SVG_W - _SVG_MR}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(f'<text x="8" y="{y + 4:.2f}">1e{d}</text>')
    for x in xs:
        parts.append(
            f'<text x="{px(x) - 8:.2f}" y="{_SVG_H - _SVG_MB + 18}">{x:g}</text>'
        )
    parts.append(
        f'<text x="{_SVG_ML + plot_w / 2 - 30:.2f}" y="{_SVG_H - 12}">SNR (dB)</text>'
    )
    parts.append(
        f'<rect x="{_SVG_ML}" y="{_SVG_MT}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333"/>'
    )
    for idx, (strategy, k) in enumerate(series_keys):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        label = "exact" if strategy == "exact" else f"stat k={k}"
        for which, dash in (("p_analytic", ""), ("p_mc", ' stroke-dasharray="5,4"')):
            pts = [
                (r.snr_db, getattr(r, which))
                for r in ok_rows
                if (r.strategy, r.k) == (strategy, k)
                and getattr(r, which) is not None
                and getattr(r, which) > _SVG_FLOOR
            ]
            if len(pts) >= 2:
                coords = " ".join(f"{px(x):.2f},{py(p):.2f}" for x, p in sorted(pts))
                parts.append(
                    f'<polyline fill="none" stroke="{color}" stroke-width="1.6"{dash} '
                    f'points="{coords}"/>'
                )
        ly = _SVG_MT + 16 + 16 * idx
        parts.append(
            f'<line x1="{_SVG_W - _SVG_MR - 150}" y1="{ly - 4}" x2="{_SVG_W - _SVG_MR - 120}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{_SVG_W - _SVG_MR - 114}" y="{ly}">{label} (mc dashed)</text>')
    parts.append("</svg>")
    _write_lines(parts, path)


# ----------------------------------------------------------------------
# argument parsing and dispatch
# ----------------------------------------------------------------------

def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON configuration file")
    parser.add_argument("--cell-radius", type=float, dest="cell_radius")
    parser.add_argument("--dest-distance", type=float, dest="dest_distance")
    parser.add_argument("--relay-intensity", type=float, dest="relay_intensity")
    parser.add_argument("--path-loss-exponent", type=float, dest="path_loss_exponent")
    parser.add_argument("--rate", type=float)
    parser.add_argument(
        "--snr-grid-db",
        dest="snr_grid_db",
        help="comma-separated SNR grid in dB, strictly increasing",
    )
    parser.add_argument("--strategies", help="comma-separated subset of exact,stat")
    parser.add_argument("--k-values", dest="k_values", help="comma-separated relay counts")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--fk-form", dest="fk_form", choices=F_K_FORMS)
    parser.add_argument(
        "--first-hop-threshold", dest="first_hop_threshold", choices=FIRST_HOP_RULES
    )
    parser.add_argument("--csv", metavar="PATH", help="output CSV path (default: stdout)")
    parser.add_argument("--svg", metavar="PATH", help="optional SVG chart path")
    parser.add_argument(
        "--workers",
        type=int,
        help=f"worker processes (default: ${THREADS_ENV} or 1); results do not depend on it",
    )


def _overrides_from_args(args: argparse.Namespace) -> dict:
    # parse_config skips the None of a flag not given and splits list flags
    return {key: getattr(args, key, None) for key in DEFAULTS}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaygeom",
        description="Outage analysis of opportunistic relaying over a Poisson relay field",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("outage-sweep", help="analytic + Monte Carlo outage over an SNR grid")
    _add_config_flags(p_sweep)

    p_mean = sub.add_parser("mean-count", help="qualified-relay mean-count curves, both observers")
    _add_config_flags(p_mean)
    p_mean.add_argument("--snr-db", type=float, default=15.0, help="operating SNR (default 15)")
    p_mean.add_argument(
        "--radius-step", type=float, default=1.0, help="radius grid step (default 1.0)"
    )

    p_val = sub.add_parser("validate", help="run the full consistency gate")
    p_val.add_argument("--trials", type=int, default=100_000)
    p_val.add_argument("--samples", type=int, default=10_000)
    p_val.add_argument("--mean-count-trials", type=int, default=4000)
    p_val.add_argument("--seed", type=int, default=validation.DEFAULT_SEED)
    p_val.add_argument("--workers", type=int)

    p_fk = sub.add_parser("fk-check", help="k-th nearest distance law vs sampled distances")
    p_fk.add_argument("--samples", type=int, default=10_000)
    p_fk.add_argument("--seed", type=int, default=validation.DEFAULT_SEED)
    p_fk.add_argument("--k-max", type=int, default=3, dest="k_max")
    return parser


def _cmd_outage_sweep(args: argparse.Namespace) -> int:
    config = parse_config(args.config, _overrides_from_args(args))
    rows = run_outage_sweep(config, workers=args.workers)
    if config.csv:
        write_csv(rows, config.csv, config)
    else:
        print(CSV_HEADER)
        for r in rows:
            print(_sweep_line(r))
    if config.svg:
        write_svg(rows, config.svg)
    return 0 if all(not r.error for r in rows) else 2


def _cmd_mean_count(args: argparse.Namespace) -> int:
    config = parse_config(args.config, _overrides_from_args(args))
    step = args.radius_step
    if not step > 0:
        raise ConfigError("radius-step must be > 0")
    upper = config.cell.cell_radius + config.cell.dest_distance
    radii = [i * step for i in range(int(math.floor(upper / step)) + 1)]
    trials = args.trials if args.trials is not None else 4000
    rows = run_mean_count(config, radii, snr_db=args.snr_db, trials=trials, workers=args.workers)
    if config.csv:
        write_mean_count_csv(rows, config.csv, config)
    else:
        print(MEAN_COUNT_HEADER)
        for r in rows:
            print(_mean_count_line(r))
    return 0 if all(not r.error for r in rows) else 2


def _cmd_validate(args: argparse.Namespace) -> int:
    results = validation.run_all(
        trials=args.trials,
        samples=args.samples,
        mean_count_trials=args.mean_count_trials,
        seed=args.seed,
        workers=args.workers,
    )
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 2


def _cmd_fk_check(args: argparse.Namespace) -> int:
    result = validation.check_fk_distribution(args.samples, args.seed, args.k_max)
    print(result.line())
    return 0 if result.passed else 2


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "outage-sweep": _cmd_outage_sweep,
        "mean-count": _cmd_mean_count,
        "validate": _cmd_validate,
        "fk-check": _cmd_fk_check,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
