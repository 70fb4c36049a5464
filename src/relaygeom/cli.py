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
    Compare the k-th-nearest-distance law against sampled distances (KS
    statistic per k, with the unthinned-field law's as a contrast).

Every configuration key is listed once, in :data:`DEFAULTS`, and the first
two subcommands get one flag per key they read and refuse every other key,
in the file as on the command line. :func:`parse_config` is the
only reader and checker of settings: a flag's text means what the same text
means in the JSON file (``--trials 1e5`` passes, ``--trials 1.5`` does not).
It checks JSON types itself; every range and choice is checked by the rule
:mod:`relaygeom.model` holds for the library, with the rule's text.
The flags that are not configuration keys (``validate``'s sizes and seed,
...) are listed in :data:`_COMMAND_FLAGS`; every command also takes
``--workers``. They are read by the same rules, so a malformed value is a
configuration error naming the flag.
Both row types are written by :func:`write_csv`, headed by their field names.

Exit codes: 0 success, 1 configuration error (a malformed setting, from a
flag or the file, or a malformed command line), 2 runtime/numerical error
(including any row of a sweep failing). Output files are byte-reproducible
for a fixed configuration and seed, independent of the worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
import time
from dataclasses import astuple, dataclass, fields, replace
from typing import ClassVar

from . import montecarlo, validation
from .analytic import lambda_prime, mean_count_from_bs, outage_exact_csi, outage_stat
from .model import CellGeometry, RadioParams, compute_thresholds
from .model import check_choice, check_finite, check_increasing, check_integer, check_thresholds
from .montecarlo import OBSERVERS, STRATEGIES
from .montecarlo import estimate_outage  # noqa: F401 - perfbench's tracer wraps this name

_CELL_KEYS = ("cell_radius", "dest_distance", "relay_intensity", "path_loss_exponent")

#: Documented defaults for every configuration key. These are repository
#: choices for a desk-scale scenario, not values with any outside authority;
#: they are echoed into the CSV metadata comments of each artifact. The cell
#: and the rate are the gate's (:data:`relaygeom.validation.DEFAULT_CELL`).
DEFAULTS: dict = {
    **{key: getattr(validation.DEFAULT_CELL, key) for key in _CELL_KEYS},
    "rate": validation.DEFAULT_RATE,
    "snr_grid_db": tuple(0.0 + 2.5 * i for i in range(13)),  # 0 .. 30 dB
    "strategies": STRATEGIES,
    "k_values": (1, 2, 3),
    "trials": 100_000,
    "seed": 42,
    "csv": None,
    "svg": None,
}

#: Per configuration command: the keys it reads, each with its flag, and
#: their defaults. ``mean-count`` runs criterion 7's trials.
_COMMAND_SETTINGS = {
    "outage-sweep": DEFAULTS,
    "mean-count": {key: DEFAULTS[key] for key in _CELL_KEYS + ("rate", "trials", "seed", "csv")}
    | {"trials": validation.MEAN_COUNT_TRIALS},
}


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
    csv: str | None
    svg: str | None


@dataclass(frozen=True)
class SweepRow:
    """One (snr, strategy, k) record pairing analytic and empirical outage."""

    command: ClassVar[str] = "outage-sweep"
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
    """One (observer, radius) record pairing analytic and empirical mean count."""

    command: ClassVar[str] = "mean-count"
    observer: str
    radius: float
    analytic: float | None
    empirical: float | None
    stderr_empirical: float | None
    trials: int
    error: str = ""


def parse_config(
    path: str | None = None, overrides: dict | None = None, defaults: dict = DEFAULTS
) -> SweepConfig:
    """Merge ``defaults``, an optional JSON file and flag overrides, then validate.

    Precedence: flags > file > defaults. ``defaults`` holds the keys the
    command reads; a key it lacks keeps its :data:`DEFAULTS` value and is
    refused from the file and the overrides. An override holds what the
    file would (a flag's text is first read by :func:`_flag_value`);
    ``None`` is a flag not given. A list setting also takes a
    comma-separated string. Every malformed value is a :class:`ConfigError`
    naming its key.
    """
    data = {**DEFAULTS, **defaults}
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
        data.update(_known(loaded, defaults))
    data.update({key: v for key, v in _known(overrides or {}, defaults).items() if v is not None})

    cell = _checked(lambda: CellGeometry(**{key: _number(data[key], key) for key in _CELL_KEYS}))
    rate = _positive(data["rate"], "rate")
    grid = _checked(lambda: check_increasing("snr_grid_db", _listed(data, "snr_grid_db", _number)))

    chosen = _listed(data, "strategies", lambda s, key: _checked(lambda: check_choice(key, s, STRATEGIES)))
    if not chosen:
        raise ConfigError(f"strategies must be a nonempty subset of {STRATEGIES}")
    strategies = tuple(s for s in STRATEGIES if s in chosen)  # canonical order

    k_values = tuple(sorted(set(_listed(data, "k_values", _integer))))
    if "stat" in strategies and (not k_values or any(k < 1 for k in k_values)):
        raise ConfigError("k_values must be a nonempty set of integers >= 1 when 'stat' is selected")
    if "snr_grid_db" in defaults:  # a command that reads the grid sweeps it: check each radio it builds
        frames = ({1} if "exact" in strategies else set()) | (set(k_values) if "stat" in strategies else set())
        for k in sorted(frames):
            for snr in grid:
                _checked(lambda: check_thresholds("snr_grid_db", snr, "rate", rate, k))

    trials = _count(data["trials"], "trials")

    return SweepConfig(
        cell=cell,
        rate=rate,
        snr_grid_db=grid,
        strategies=strategies,
        k_values=k_values,
        trials=trials,
        seed=_integer(data["seed"], "seed"),
        csv=_path(data["csv"], "csv"),
        svg=_path(data["svg"], "svg"),
    )


def _known(settings: dict, read: dict) -> dict:
    for key in settings:
        if key not in read:
            raise ConfigError(f"config key {key} is not one this command's file takes: {', '.join(read)}")
    return settings


def _literal(text: str):
    """``text`` read as a JSON literal (``1e5``, ``true``), or the text itself
    where it is none or is ``null`` (an override of None means "not given");
    the setting's own rule then accepts or refuses it."""
    try:
        value = json.loads(text)
    except ValueError:
        return text
    return text if value is None else value


def _listed(data: dict, key: str, item) -> list:
    """Setting ``key`` as a list of ``item(entry, key)``; a string is split at
    commas and each piece read by :func:`_literal`."""
    value = data[key]
    if isinstance(value, str):
        value = [_literal(piece.strip()) for piece in value.split(",")]
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list, got {value!r}")
    return [item(entry, key) for entry in value]


def _number(value, key: str) -> float:
    """``value`` of setting ``key`` as a float; a finite JSON number passes,
    while bools, strings, null and non-finite numbers are refused."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and abs(value) <= sys.float_info.max):  # NaN and ints beyond a float fail too
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, key: str, least: int | None = None) -> int:
    """``value`` of setting ``key`` by :func:`~relaygeom.model.check_integer`;
    an integral float (``1e5`` in JSON) is read as its int first."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return _checked(lambda: check_integer(key, value, least))


def _count(value, key: str) -> int:
    """``value`` of setting ``key`` as an integer >= 1 (see :func:`_integer`)."""
    return _integer(value, key, 1)


def _positive(value, key: str) -> float:
    """``value`` of setting ``key`` as a number > 0 (see :func:`_number`)."""
    return _checked(lambda: check_finite(key, _number(value, key), 0, strict=True))


def _checked(check):
    """``check()``; a ``ValueError`` it raises (a :mod:`~relaygeom.model`
    rule's refusal) is raised as a :class:`ConfigError` with the same text."""
    try:
        return check()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _path(value, key: str) -> str | None:
    if not (value is None or isinstance(value, str)):
        raise ConfigError(f"{key} must be a path string or null, got {value!r}")
    return value


def _side(name: str, compute):
    """``(compute(), [])``, or ``(None, ["name: message"])`` when it raises.

    The per-side error rule of ``outage-sweep`` and ``mean-count`` rows: the
    analytic and the Monte Carlo side are computed independently, a side
    that fails leaves its columns empty, and the ``error`` column names it
    (``analytic: ...``, ``mc: ...``, joined by ``; ``).
    """
    try:
        return compute(), []
    except Exception as exc:  # noqa: BLE001 - a failed side never discards the other
        return None, [f"{name}: {exc}"]


def run_outage_sweep(config: SweepConfig, workers: int = 1) -> list[SweepRow]:
    """Run the sweep: one row per (snr, strategy, k), in that order.

    Every row reuses ``config.seed``, so strategies at the same SNR share
    realizations and channel draws (paired comparison); one
    :func:`~relaygeom.montecarlo.estimate_outage_grid` call draws each trial
    once for all rows. A failed side is recorded per row by the rule of
    :func:`_side`, and the sweep continues.
    """
    mc_rows = [
        (strategy, RadioParams(snr_db=snr, target_rate=config.rate, num_relays=k))
        for snr in config.snr_grid_db
        for strategy in config.strategies
        for k in ((1,) if strategy == "exact" else config.k_values)
    ]
    estimates, mc_errors = _side(
        "mc",
        lambda: montecarlo.estimate_outage_grid(
            config.cell, mc_rows, config.trials, config.seed, workers=workers
        ),
    )
    rows: list[SweepRow] = []
    for (strategy, radio), est in zip(mc_rows, estimates or [None] * len(mc_rows)):
        k = radio.num_relays
        p_an, errors = _side(
            "analytic",
            lambda: outage_exact_csi(config.cell, radio)
            if strategy == "exact"
            else outage_stat(k, config.cell, radio),
        )
        p_mc, stderr = (None, None) if est is None else (est.p_hat, est.stderr)
        error = "; ".join(errors + mc_errors)
        rows.append(SweepRow(radio.snr_db, strategy, k, p_an, p_mc, stderr, config.trials, error))
    return rows


def run_mean_count(
    config: SweepConfig,
    radii: list[float],
    snr_db: float,
    workers: int = 1,
) -> list[MeanCountRow]:
    """Mean-count curves from both observers over a radius grid, both
    averaged over the same ``config.trials`` realizations.

    The qualification threshold is the single-relay one at ``snr_db`` and
    ``config.rate``. One Monte Carlo pass serves both observers, and each
    observer's analytic curve is one call (:func:`mean_count_from_bs` or
    :func:`lambda_prime`). A failed side is recorded by the rule of
    :func:`_side`; when an analytic call is refused, a second call on the
    radii up to ``cell.inner_radius``, whose circles stay inside the cell,
    gives those rows their values, and only the other rows carry the error.
    Rows are ordered by observer ("bs" first), then radius.
    """
    cell, trials = config.cell, config.trials
    theta = compute_thresholds(
        RadioParams(snr_db=snr_db, target_rate=config.rate, num_relays=1)
    ).theta_first
    curves, mc_errors = _side(
        "mc",
        lambda: montecarlo.empirical_mean_count(radii, cell, theta, trials, config.seed, workers=workers),
    )
    rows: list[MeanCountRow] = []
    for observer in OBSERVERS:
        count = mean_count_from_bs if observer == "bs" else lambda_prime
        values, errors = _side("analytic", lambda: count(radii, cell, theta).tolist())
        if errors:  # a refusal at the cell edge leaves the radii inside it their values
            inside = [r for r in radii if r <= cell.inner_radius]
            kept, _ = _side("analytic", lambda: iter(count(inside, cell, theta).tolist()))
            if kept is not None:
                values = [next(kept) if r <= cell.inner_radius else None for r in radii]
        for i, r in enumerate(radii):
            an = None if values is None else values[i]
            point = None if curves is None else curves[observer][i]
            mean, stderr = (None, None) if point is None else (point.mean, point.stderr)
            error = "; ".join((errors if an is None else []) + mc_errors)
            rows.append(MeanCountRow(observer, float(r), an, mean, stderr, trials, error))
    return rows


def _field(value) -> str:
    """One CSV field: empty when missing, %.10e for a float, an integer as
    is, and text with its commas and line breaks replaced."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value.replace(",", ";").replace("\n", " ").replace("\r", " ")
    if isinstance(value, numbers.Integral):
        return str(value)
    return "%.10e" % value


def _csv_lines(rows: list, config: SweepConfig | None, settings: dict | None = None) -> list[str]:
    if not rows:
        raise ValueError("refusing to write CSV without rows")
    kind = type(rows[0])
    lines = [] if config is None else [
        f"# relaygeom {kind.command}",
        *(f"# {key} = {_field(getattr(config.cell, key))}" for key in _CELL_KEYS),
        f"# rate = {_field(config.rate)}",
        f"# trials = {config.trials}",
        f"# seed = {config.seed}",
        *(f"# {key} = {_field(value)}" for key, value in (settings or {}).items()),
    ]
    lines.append(",".join(f.name for f in fields(kind)))
    lines.extend(",".join(map(_field, astuple(r))) for r in rows)
    return lines


def _write_lines(lines: list[str], path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def write_csv(
    rows: list[SweepRow] | list[MeanCountRow],
    path: str,
    config: SweepConfig | None = None,
    settings: dict | None = None,
) -> None:
    """Write sweep or mean-count rows as CSV: the row's field names as the
    header, %.10e floats, LF endings.

    Byte-reproducible for identical rows; refuses empty input (no file is
    created). Metadata comment lines carry the configuration when given,
    then the command's own ``settings`` (``mean-count``: its ``snr_db`` and
    ``radius_step``).
    """
    _write_lines(_csv_lines(rows, config, settings), path)


def _emit(rows: list, config: SweepConfig, settings: dict | None = None) -> int:
    """Send rows to ``config.csv`` (with metadata, see :func:`write_csv`) or
    to stdout (without); the exit code is 2 when some row recorded an error."""
    if config.csv:
        write_csv(rows, config.csv, config, settings)
    else:
        print("\n".join(_csv_lines(rows, None)))
    return 0 if all(not r.error for r in rows) else 2


_SVG_COLORS = ("#1b6ca8", "#c03221", "#2e7d32", "#7b1fa2", "#e65100", "#455a64")
_SVG_W, _SVG_H = 720, 480
_SVG_ML, _SVG_MR, _SVG_MT, _SVG_MB = 70, 20, 30, 50
_SVG_FLOOR = 1e-12


def write_svg(rows: list[SweepRow], path: str) -> None:
    """Log-scale outage chart, one series per (strategy, k): analytic solid,
    Monte Carlo dashed. Presentation only; every number shown is in the CSV.
    Missing values (the failed side of a row) and nonpositive probabilities
    (below chart floor) are skipped; a row with either side present still
    adds its SNR to the x ticks and its series to the legend."""
    if not rows:
        raise ValueError("refusing to write SVG without rows")
    xs, series = set(), {}
    for r in rows:
        if r.p_analytic is None and r.p_mc is None:
            continue
        xs.add(r.snr_db)
        sides = series.setdefault((r.strategy, r.k), ([], []))
        for pts, p in zip(sides, (r.p_analytic, r.p_mc)):
            if p is not None and p > _SVG_FLOOR:
                pts.append((r.snr_db, p))
    low = min((p for sides in series.values() for pts in sides for _, p in pts), default=None)
    if low is None:
        raise ValueError("no plottable rows for SVG")
    x_lo, decade = min(xs), math.floor(math.log10(low))  # the chart spans 10^decade .. 1
    span_x, span_y = max(max(xs) - x_lo, 1e-9), max(-decade, 1e-9)
    plot_w, plot_h = _SVG_W - _SVG_ML - _SVG_MR, _SVG_H - _SVG_MT - _SVG_MB

    def px(x: float) -> float:
        return _SVG_ML + (x - x_lo) / span_x * plot_w

    def py(p: float) -> float:
        return _SVG_MT - math.log10(p) / span_y * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_ML}" y="18" font-size="14">outage probability vs transmit SNR</text>',
    ]
    for d in range(decade, 1):
        y = py(10.0**d)
        parts.append(
            f'<line x1="{_SVG_ML}" y1="{y:.2f}" x2="{_SVG_W - _SVG_MR}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(f'<text x="8" y="{y + 4:.2f}">1e{d}</text>')
    parts.extend(f'<text x="{px(x) - 8:.2f}" y="{_SVG_H - _SVG_MB + 18}">{x:g}</text>' for x in sorted(xs))
    parts.append(f'<text x="{_SVG_ML + plot_w / 2 - 30:.2f}" y="{_SVG_H - 12}">SNR (dB)</text>')
    parts.append(
        f'<rect x="{_SVG_ML}" y="{_SVG_MT}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333"/>'
    )
    for idx, ((strategy, k), sides) in enumerate(sorted(series.items())):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        for pts, dash in zip(sides, ("", ' stroke-dasharray="5,4"')):
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
        label = "exact" if strategy == "exact" else f"stat k={k}"
        parts.append(f'<text x="{_SVG_W - _SVG_MR - 114}" y="{ly}">{label} (mc dashed)</text>')
    parts.append("</svg>")
    _write_lines(parts, path)


# ----------------------------------------------------------------------
# argument parsing and dispatch
# ----------------------------------------------------------------------

def _add_config_flags(parser: argparse.ArgumentParser, command: str) -> None:
    """``--config`` and one flag per key ``command`` reads; each flag keeps its
    text for :func:`parse_config`, the one checker of settings."""
    parser.add_argument("--config", metavar="PATH", help="JSON configuration file")
    for key, default in _COMMAND_SETTINGS[command].items():
        shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
        parser.add_argument("--" + key.replace("_", "-"), dest=key, help=f"default: {shown}")


def _flag_value(key: str, text: str | None):
    """A flag's text as the file would hold it: a number setting reads it as
    JSON (see :func:`_literal`); any other setting takes the text itself."""
    return _literal(text) if text is not None and isinstance(DEFAULTS[key], (int, float)) else text


def _config(args: argparse.Namespace) -> SweepConfig:
    defaults = _COMMAND_SETTINGS[args.command]
    overrides = {key: _flag_value(key, getattr(args, key)) for key in defaults}
    return parse_config(args.config, overrides, defaults)


_WORKERS_HELP = "worker processes (default: the CPUs this process may use); results do not depend on it"

#: Per command, the flags that are neither configuration keys nor
#: ``--workers``, which every command takes: name -> (reader, default, help).
#: Each flag's text is read as JSON (see :func:`_literal`) and checked by the
#: reader :func:`parse_config` uses for settings, so a malformed value is a
#: :class:`ConfigError` naming the flag.
_COMMAND_FLAGS = {
    "outage-sweep": {},
    "mean-count": {
        "snr-db": (_number, validation.OPERATING_SNR_DB, "operating SNR"),
        "radius-step": (_positive, 1.0, "radius grid step"),
    },
    "validate": {
        "trials": (_count, validation.TRIALS, "Monte Carlo trials of criteria 3 and 4"),
        "samples": (_count, validation.SAMPLES, "sampled distances of criterion 6"),
        "mean-count-trials": (_count, validation.MEAN_COUNT_TRIALS, "realizations of criterion 7"),
        "seed": (_integer, validation.DEFAULT_SEED, "seed of every Monte Carlo check"),
    },
    "fk-check": {
        "samples": (_count, validation.SAMPLES, "sampled distances"),
        "seed": (_integer, validation.DEFAULT_SEED, "sampling seed"),
        "k-max": (_count, validation.K_MAX, "largest rank k"),
    },
}


def _read_flags(args: argparse.Namespace) -> None:
    """Replace the text of each of the command's non-configuration flags by
    its checked value, or by its default when the flag is not given. An
    absent ``--workers`` takes the CPUs this process may use
    (:func:`~relaygeom.montecarlo.usable_cpus`), the cap every pass
    applies."""
    for name, (reader, default, _) in _COMMAND_FLAGS[args.command].items():
        dest = name.replace("-", "_")
        text = getattr(args, dest)
        setattr(args, dest, default if text is None else reader(_literal(text), "--" + name))
    text = args.workers
    args.workers = montecarlo.usable_cpus() if text is None else _count(_literal(text), "--workers")


class _Parser(argparse.ArgumentParser):
    """A malformed command line is a :class:`ConfigError` (exit 1), as the
    same refusal in the file is; subcommand parsers inherit the class."""

    def error(self, message: str):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="relaygeom",
        description="Outage analysis of opportunistic relaying over a Poisson relay field",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text) in _COMMANDS.items():
        p_cmd = sub.add_parser(command, help=text)
        if command in _COMMAND_SETTINGS:
            _add_config_flags(p_cmd, command)
        for name, (_, default, hint) in _COMMAND_FLAGS[command].items():
            p_cmd.add_argument("--" + name, help=f"{hint} (default: {default})")
        p_cmd.add_argument("--workers", help=_WORKERS_HELP)
    return parser


def _cmd_outage_sweep(args: argparse.Namespace) -> int:
    config = _config(args)
    rows = run_outage_sweep(config, workers=args.workers)
    code = _emit(rows, config)
    if config.svg:
        write_svg(rows, config.svg)
    return code


def _cmd_mean_count(args: argparse.Namespace) -> int:
    config = _config(args)
    step, outer = args.radius_step, config.cell.outer_radius
    if outer / step >= montecarlo.MAX_RADII:  # floor(outer / step) + 1 radii, counted before any is built
        raise ConfigError(
            f"--radius-step must give at most MAX_RADII = {montecarlo.MAX_RADII} radii on [0, {outer:g}], got {step!r}"
        )
    _checked(lambda: check_thresholds("--snr-db", args.snr_db, "rate", config.rate, 1))
    radii = [i * step for i in range(int(math.floor(outer / step)) + 1)]
    rows = run_mean_count(config, radii, snr_db=args.snr_db, workers=args.workers)
    return _emit(rows, config, {"snr_db": args.snr_db, "radius_step": step})


def _cmd_validate(args: argparse.Namespace) -> int:
    _checked(lambda: montecarlo.check_distances("k_max", validation.K_MAX, "--samples", args.samples))
    # validate's flags are run_all's keyword arguments, one for one
    flags = [name.replace("-", "_") for name in _COMMAND_FLAGS["validate"]]
    results = validation.run_all(**{flag: getattr(args, flag) for flag in flags}, workers=args.workers)
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 2


def _cmd_fk_check(args: argparse.Namespace) -> int:
    _checked(lambda: montecarlo.check_distances("--k-max", args.k_max, "--samples", args.samples))
    t0 = time.perf_counter()
    draws = montecarlo.kth_nearest_qualified_distances(
        validation.DEFAULT_CELL, validation.THETA_15DB, args.k_max, args.samples, args.seed,
        workers=args.workers,
    )
    # the printed time covers sampling as well as judging
    result = replace(validation.check_fk_distribution(draws), seconds=time.perf_counter() - t0)
    print(result.line())
    return 0 if result.passed else 2


#: Each subcommand's handler and help line.
_COMMANDS = {
    "outage-sweep": (_cmd_outage_sweep, "analytic + Monte Carlo outage over an SNR grid"),
    "mean-count": (_cmd_mean_count, "qualified-relay mean-count curves, both observers"),
    "validate": (_cmd_validate, "run the full consistency gate"),
    "fk-check": (_cmd_fk_check, "k-th nearest distance law vs sampled distances"),
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _read_flags(args)
        return _COMMANDS[args.command][0](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
