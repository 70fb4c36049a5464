"""End-to-end consistency checks pairing the closed forms with Monte Carlo.

Each ``check_*`` function judges one criterion at its stated tolerance and
returns a :class:`CheckResult`; a check takes results, never a seed,
worker count, grid or tolerance. :func:`run_all` runs the whole gate, and
both the CLI ``validate`` subcommand and the acceptance test suite call it,
so there is a single source of truth for pass/fail logic. The Monte Carlo
checks (criteria 3, 4, 6 and 7) draw nothing: :func:`run_all` draws their
trials in one :func:`~relaygeom.montecarlo.running_requests` pass and hands
each check its results. That pass is this module's one Monte Carlo call
outside criterion 9, whose sweeps run the command line. While its workers
draw, :func:`run_all` runs criteria 1, 2, 5 and 8 and criterion 9's
one-worker sweep in this process.

Statistical comparisons use the null-hypothesis standard error
``sqrt(p0 (1 - p0) / n)`` (not the estimate's own, which degenerates at
observed rates of 0 or 1) at 3 sigma, and fall back to an exact binomial
central region at the matching confidence when the normal approximation is
unsound.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import analytic, montecarlo
from .analytic import exact_ranked_outage
from .model import CellGeometry, RadioParams, compute_thresholds
from .quadrature import QuadratureSpec, integrate_1d

#: Scenario used by the desk-scale checks; the CLI's defaults read it.
DEFAULT_CELL = CellGeometry(
    cell_radius=20.0, dest_distance=5.0, relay_intensity=0.5, path_loss_exponent=2.0
)
DEFAULT_RATE = 1.0
DEFAULT_SEED = 42
#: The gate's sizes at :func:`run_all`'s defaults: Monte Carlo trials of
#: criteria 3 and 4, criterion 6's sampled distances at ranks 1..``K_MAX``
#: and criterion 7's realizations. ``relaygeom validate``, ``fk-check`` and
#: ``mean-count`` default to them.
TRIALS = 100_000
SAMPLES = 10_000
K_MAX = 3
MEAN_COUNT_TRIALS = 4000

#: Two-sided tail mass of a 3-sigma normal band.
_ALPHA_3SIGMA = 0.0026997960632601866
#: Asymptotic Kolmogorov-Smirnov critical coefficient at the 1% level.
_KS_CRIT_1PCT = 1.62762

#: Rows of criterion 3 (exact CSI at 5-20 dB) and of criterion 4 (stat
#: CSI, k = 1..3, at 0-30 dB): the Monte Carlo estimates these checks judge
#: are for these rows, in this order.
_EXACT_CSI_ROWS = tuple(
    ("exact", RadioParams(snr_db=snr, target_rate=DEFAULT_RATE, num_relays=1))
    for snr in (5.0, 10.0, 15.0, 20.0)
)
_STAT_CSI_ROWS = tuple(
    ("stat", RadioParams(snr_db=snr, target_rate=DEFAULT_RATE, num_relays=k))
    for k in (1, 2, 3)
    for snr in (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
)
#: Operating point of criteria 6, 7 and 8; ``mean-count`` defaults to it.
OPERATING_SNR_DB = 15.0
#: First-hop threshold of criteria 6, 7 and 8: the operating point, one relay.
THETA_15DB = compute_thresholds(
    RadioParams(snr_db=OPERATING_SNR_DB, target_rate=DEFAULT_RATE, num_relays=1)
).theta_first
#: Criterion 7's radii: 0 to the far edge ``R + r_d`` in steps of 1.
_MEAN_COUNT_RADII = tuple(float(i) for i in range(int(DEFAULT_CELL.outer_radius) + 1))
#: Appended by :func:`run_all` to the details of criteria 3, 6 and 7, whose
#: trials its pass draws and criterion 4's ``seconds`` time.
_SHARED_DRAW_NOTE = (
    "; trials drawn in the pass shared with stat_csi_outage_mc_vs_analytic (timed there)"
)


@dataclass(frozen=True)
class OutagePoint:
    """One grid point of criterion 4: Monte Carlo vs the product form.

    ``in_band`` is the band test against ``product`` (computed at every
    point); ``tested`` says whether ``product`` reaches the check's floor,
    so that the point counts toward the verdict. ``zscore`` uses the null
    standard error at ``product``. ``rank_joint`` and ``rank_joint_zscore``
    hold :func:`exact_ranked_outage` and the Monte Carlo
    z-score against it; they are computed only at rejected points and are
    ``None`` elsewhere.
    """

    k: int
    snr_db: float
    trials: int
    outage_count: int
    p_hat: float
    product: float
    in_band: bool
    tested: bool
    zscore: float
    rank_joint: float | None = None
    rank_joint_zscore: float | None = None

    @property
    def rejected(self) -> bool:
        return self.tested and not self.in_band


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    #: Per-grid-point comparisons, for checks that record them.
    records: tuple[OutagePoint, ...] = ()

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({self.seconds:.1f}s): {self.detail}"


def _finish(
    name: str, passed: bool, detail: str, t0: float, records: tuple[OutagePoint, ...] = ()
) -> CheckResult:
    return CheckResult(name, passed, detail, time.perf_counter() - t0, records)


def _binom_logpmf(i: int, n: int, p: float) -> float:
    return (
        math.lgamma(n + 1)
        - math.lgamma(i + 1)
        - math.lgamma(n - i + 1)
        + i * math.log(p)
        + (n - i) * math.log1p(-p)
    )


def binomial_consistent(count: int, n: int, p0: float) -> tuple[bool, float]:
    """Is an observed success count consistent with rate ``p0`` at 3 sigma?

    Returns ``(ok, zscore)`` where ``zscore`` uses the null standard error.
    When ``n p0 (1 - p0) < 25`` the normal band is unreliable, so the
    decision switches to the exact binomial two-sided test at the tail mass
    of a 3-sigma band, 0.27%: reject iff the tail at or beyond the
    observation is rarer than half that mass.
    """
    if not 0.0 <= p0 <= 1.0:
        raise ValueError("p0 must lie in [0, 1]")
    var = n * p0 * (1.0 - p0)
    if var > 0:
        zscore = (count - n * p0) / math.sqrt(var)
    else:
        zscore = 0.0 if count == n * p0 else math.inf
    if var >= 25.0:
        return abs(count - n * p0) <= 3.0 * math.sqrt(var), zscore
    if p0 == 0.0:
        return count == 0, zscore
    if p0 == 1.0:
        return count == n, zscore
    # Exact tail test; flip to the small-mean side so the sums stay short
    # (var < 25 and p0 <= 1/2 imply a mean below 50).
    if p0 > 0.5:
        count, p0 = n - count, 1.0 - p0
    mean = n * p0
    if count <= mean:
        tail = sum(math.exp(_binom_logpmf(i, n, p0)) for i in range(count + 1))
    else:
        tail = 0.0
        for i in range(count, n + 1):
            term = math.exp(_binom_logpmf(i, n, p0))
            tail += term
            if i > mean and term < 1e-18:
                break
    return tail >= _ALPHA_3SIGMA / 2.0, zscore


# ----------------------------------------------------------------------
# criterion 1: the scaled radial slice against direct quadrature
# ----------------------------------------------------------------------

def check_inner_integral() -> CheckResult:
    """The scaled closed radial slice ``analytic._inner_core`` vs
    ``exp(log_scale)`` times adaptive quadrature of its unscaled integrand,
    at both slices :func:`~relaygeom.analytic._disk_mass` integrates, over a
    theta/offset/bearing/range grid: ``"mass"``, the slice ``(theta, r_d)``
    at scale ``-theta (1 + r_d^2)`` (:func:`_angular_mass`), and
    ``"lambda_q"``, the slice ``(2 theta, r_d / 2)`` at scale ``-theta (2 +
    r_d^2)`` (:func:`~relaygeom.analytic.lambda_q_quadrature`). The relative
    error must stay below 1e-8."""
    t0 = time.perf_counter()
    tol = 1e-8
    tight = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-12, max_subdivisions=512)
    worst = 0.0
    worst_at = None
    phis = np.linspace(0.0, math.pi, 5)
    ranges = (0.5, 2.0, 5.0, 10.0, 25.0)
    for theta in (0.01, 0.1, 1.0):
        for r_d in (0.0, 2.0, 5.0):
            for family, th, off, scale in (
                ("mass", theta, r_d, -theta * (1.0 + r_d * r_d)),
                ("lambda_q", 2.0 * theta, 0.5 * r_d, -theta * (2.0 + r_d * r_d)),
            ):
                for r_jd in ranges:
                    closed = analytic._inner_core(r_jd, phis, off, th, scale)
                    direct = {}  # one quadrature per distinct a: at r_d = 0 every bearing has a = 0
                    for phi, value in zip(phis, closed):
                        a = 2.0 * off * math.cos(phi)
                        if a not in direct:
                            direct[a] = math.exp(scale) * integrate_1d(
                                lambda r: r * np.exp(-th * (r * r - a * r)), 0.0, r_jd, tight
                            )
                        rel = abs(float(value) - direct[a]) / max(abs(direct[a]), 1e-300)
                        if rel > worst:
                            worst, worst_at = rel, (family, theta, r_d, round(float(phi), 3), r_jd)
    return _finish(
        "inner_integral_closed_form",
        worst <= tol,
        f"worst relative error {worst:.2e} at (slice, theta, r_d, phi, r_jd) = {worst_at} (tol {tol:.0e})",
        t0,
    )


# ----------------------------------------------------------------------
# criterion 2: far-field doubly-connected mean vs finite-cell quadrature
# ----------------------------------------------------------------------

def check_far_field_mean() -> CheckResult:
    """Far-field closed mean within 1% of the finite-cell quadrature at
    R = 50 and within 0.1% at R = 100 (theta = 0.1, offset 5); the closed
    form integrates over the whole plane, so its residual is nonnegative."""
    t0 = time.perf_counter()
    details = []
    passed = True
    for big_r, bound in ((50.0, 1e-2), (100.0, 1e-3)):
        cell = replace(DEFAULT_CELL, cell_radius=big_r)
        closed = analytic.lambda_q_closed(cell, 0.1)
        quad = analytic.lambda_q_quadrature(cell, 0.1)
        rel = abs(closed - quad) / quad
        passed &= rel <= bound
        details.append(f"R={big_r:g}: |closed-quad|/quad = {rel:.2e} (bound {bound:.0e})")
    # Where the cell is small relative to the kernel the direction resolves
    # clearly: the plane integral exceeds the cell integral.
    small = analytic.lambda_q_closed(DEFAULT_CELL, 0.003)
    small_quad = analytic.lambda_q_quadrature(DEFAULT_CELL, 0.003)
    passed &= small > small_quad
    details.append(
        f"residual direction: closed - quad = {small - small_quad:+.3f} at theta=0.003, R=20 (closed is the plane-wide overcount)"
    )
    return _finish("far_field_mean_vs_quadrature", passed, "; ".join(details), t0)


# ----------------------------------------------------------------------
# criterion 3: exact-knowledge outage, Monte Carlo vs void probability
# ----------------------------------------------------------------------

def check_exact_csi_outage(estimates: list[montecarlo.OutageEstimate]) -> CheckResult:
    """Monte Carlo outage within the 3-sigma binomial band of the
    finite-cell void probability at 5, 10, 15 and 20 dB.

    ``estimates`` are the Monte Carlo estimates of ``_EXACT_CSI_ROWS``, in
    order, on :data:`DEFAULT_CELL`.
    """
    t0 = time.perf_counter()
    details = []
    passed = True
    for (_, radio), est in zip(_EXACT_CSI_ROWS, estimates, strict=True):
        p0 = analytic.outage_exact_csi(DEFAULT_CELL, radio)
        ok, zscore = binomial_consistent(est.outage_count, est.trials, p0)
        passed &= ok
        details.append(
            f"{radio.snr_db:g}dB: mc={est.p_hat:.5f} analytic={p0:.5f} z={zscore:+.2f}"
        )
    return _finish("exact_csi_outage_mc_vs_analytic", passed, "; ".join(details), t0)


# ----------------------------------------------------------------------
# criterion 4: ranked-selection outage, Monte Carlo vs product form
# ----------------------------------------------------------------------

def check_stat_csi_outage(estimates: list[montecarlo.OutageEstimate]) -> CheckResult:
    """For k in {1, 2, 3}: Monte Carlo within max(3 sigma, 5% relative) of
    the product form (exact density) wherever the analytic outage is at
    least 1e-3; at the lowest SNR the fixed-frame protocol (slots may stay
    silent when fewer than k relays qualify) must put simulation at or above
    the product form for k >= 2.

    Known to fail for k >= 2 beyond ~15 dB at the default density: the
    product form multiplies per-rank failure probabilities as if they were
    independent, but the ranked distances share one realization. At every
    rejected point :func:`exact_ranked_outage` and the Monte Carlo z-score
    against it are computed, recorded and printed in the detail; they show
    the simulation is the faithful side. The check is kept at its stated
    tolerance rather than loosened to hide that gap.

    ``estimates`` are the Monte Carlo estimates of ``_STAT_CSI_ROWS``, in
    order, on :data:`DEFAULT_CELL`. The result carries one
    :class:`OutagePoint` per (k, SNR) in ``records``, so a caller can tell a
    rank-dependence gap from any other mismatch.
    """
    t0 = time.perf_counter()
    details = []
    records = []
    passed = True
    low_snr = min(radio.snr_db for _, radio in _STAT_CSI_ROWS)
    trials = estimates[0].trials
    for (_, radio), est in zip(_STAT_CSI_ROWS, estimates, strict=True):
        k, snr = radio.num_relays, radio.snr_db
        p0 = analytic.outage_stat(k, DEFAULT_CELL, radio)
        in_band, zscore = binomial_consistent(est.outage_count, trials, p0)
        if not in_band:
            in_band = abs(est.p_hat - p0) <= 0.05 * p0
        point = OutagePoint(
            k, snr, trials, est.outage_count, est.p_hat, p0, in_band, p0 >= 1e-3, zscore
        )
        if point.rejected:
            joint = exact_ranked_outage(k, DEFAULT_CELL, radio)
            _, joint_z = binomial_consistent(est.outage_count, trials, joint)
            point = replace(point, rank_joint=joint, rank_joint_zscore=joint_z)
            details.append(
                f"k={k} {snr:g}dB: mc={est.p_hat:.5f} vs product={p0:.5f} "
                f"z={zscore:+.2f} MISMATCH (rank-joint exact={joint:.5f} z={joint_z:+.2f})"
            )
            passed = False
        records.append(point)
        if k >= 2 and snr == low_snr:
            direction_ok = est.p_hat >= p0
            passed &= direction_ok
            details.append(
                f"k={k} {snr:g}dB: mc={est.p_hat:.6f} >= analytic={p0:.6f}: {direction_ok}"
            )
    if passed:
        details.insert(0, f"all grid points within max(3 sigma, 5%) where p >= 1e-3 (n={trials})")
    return _finish("stat_csi_outage_mc_vs_analytic", passed, "; ".join(details), t0, tuple(records))


# ----------------------------------------------------------------------
# criterion 5: high-SNR slopes (diversity order)
# ----------------------------------------------------------------------

def check_diversity_order() -> CheckResult:
    """On the analytic curves, the ranked-selection k=1 slope of
    log10(outage) per decade of SNR must be -1 +- 0.15 over 20-30 dB; the
    exact-knowledge slope must be strictly steeper on the same grid."""
    t0 = time.perf_counter()
    snr_grid = (20.0, 22.5, 25.0, 27.5, 30.0)
    decades = np.array(snr_grid) / 10.0
    p_stat = [
        analytic.outage_stat(
            1, DEFAULT_CELL, RadioParams(snr_db=s, target_rate=DEFAULT_RATE, num_relays=1)
        )
        for s in snr_grid
    ]
    p_exact = [
        analytic.outage_exact_csi(DEFAULT_CELL, RadioParams(snr_db=s, target_rate=DEFAULT_RATE, num_relays=1))
        for s in snr_grid
    ]
    slope_stat = float(np.polyfit(decades, np.log10(p_stat), 1)[0])
    slope_exact = float(np.polyfit(decades, np.log10(p_exact), 1)[0])
    ok = abs(slope_stat + 1.0) <= 0.15 and slope_exact < slope_stat
    return _finish(
        "diversity_order_slopes",
        ok,
        f"ranked k=1 slope {slope_stat:+.3f} (target -1 +- 0.15); exact-knowledge slope {slope_exact:+.1f} (steeper)",
        t0,
    )


# ----------------------------------------------------------------------
# criterion 6: k-th nearest qualified distance distribution (KS)
# ----------------------------------------------------------------------

def _ks_statistic(samples: np.ndarray, cdf_at_samples: np.ndarray, cdf_at_sup: float, n: int) -> float:
    """Two-sided KS distance for a possibly defective distribution.

    ``samples`` are the sorted finite observations out of ``n`` total (the
    missing ones sit at infinity); ``cdf_at_sup`` is the model CDF at the
    supremum of the support.
    """
    m = samples.size
    idx = np.arange(m)
    d_hi = np.max(np.abs(cdf_at_samples - (idx + 1) / n)) if m else 0.0
    d_lo = np.max(np.abs(cdf_at_samples - idx / n)) if m else 0.0
    return max(d_hi, d_lo, abs(cdf_at_sup - m / n))


def check_fk_distribution(draws: np.ndarray) -> CheckResult:
    """KS distance between sampled k-th-nearest-qualified-relay distances
    (destination observer, 15 dB) and :func:`~relaygeom.analytic.kth_nearest_cdf`
    must stay below the 1% critical value for every sampled rank k. As a
    contrast, the KS distance of the homogeneous k-th-nearest law is reported
    alongside: the same order-statistic density with ``dM/dr`` replaced by
    ``2 M / r``, exact only for an unthinned field (quadratic ``M``).

    ``draws`` is a ``(samples, k_max)`` array of distances, ``inf`` where a
    trial has fewer than k qualified relays, as
    :func:`~relaygeom.montecarlo.kth_nearest_qualified_distances` samples
    them on :data:`DEFAULT_CELL` at :data:`THETA_15DB`.
    """
    t0 = time.perf_counter()
    samples, k_max = draws.shape
    profile = analytic.MassProfile(DEFAULT_CELL, THETA_15DB)
    quadratic = analytic._order_densities(profile.M, 2.0 * profile.M / profile.r, k_max)
    crit = _KS_CRIT_1PCT / math.sqrt(samples)
    details = [f"critical value {crit:.5f} (1% level, n={samples})"]
    passed = True
    upper = DEFAULT_CELL.outer_radius
    for k in range(1, k_max + 1):
        finite = np.sort(draws[:, k - 1][np.isfinite(draws[:, k - 1])])
        # the order-statistic CDF at the samples and at the far edge
        cdf = analytic.kth_nearest_cdf(np.append(finite, upper), k, DEFAULT_CELL, THETA_15DB)
        ks_exact = _ks_statistic(finite, cdf[:-1], cdf[-1], samples)
        # the homogeneous law: its density integrated on the profile
        dens = quadratic[k - 1]
        ks_quad = _ks_statistic(
            finite, profile.cumulative_at(dens, finite), profile.total(dens), samples
        )
        passed &= ks_exact <= crit
        details.append(f"k={k}: KS(exact)={ks_exact:.5f} KS(quadratic)={ks_quad:.5f}")
    return _finish("kth_nearest_distance_ks", passed, "; ".join(details), t0)


# ----------------------------------------------------------------------
# criterion 7: mean-count curves from both observers
# ----------------------------------------------------------------------

def check_mean_count_curves(empirical: dict) -> CheckResult:
    """Destination-view mean-count curve below the source-view curve out to
    the destination offset, the two views within 2% of each other at the
    far edge, and analytic vs empirical within 3 sigma at every radius, for
    both observers.

    ``empirical`` holds both observers' curves over ``_MEAN_COUNT_RADII``
    on :data:`DEFAULT_CELL` at :data:`THETA_15DB`, as
    :func:`~relaygeom.montecarlo.empirical_mean_count` returns them; each
    point carries the number of realizations it averages.
    """
    t0 = time.perf_counter()
    cell = DEFAULT_CELL
    theta = THETA_15DB
    emp_bs, emp_dest = empirical["bs"], empirical["dest"]
    grid = [point.radius for point in emp_bs]
    an_bs = analytic.mean_count_from_bs(grid, cell, theta)
    # lambda_prime refuses wherever the cell edge could move a value, so both
    # curves are exact at every radius it returns
    an_dest = analytic.lambda_prime(grid, cell, theta)
    passed = True
    issues = []
    for i, r in enumerate(grid):
        if r <= cell.dest_distance:
            if an_dest[i] > an_bs[i] + 1e-9:
                passed = False
                issues.append(f"analytic dest > bs at r={r:g}")
            slack = 3.0 * math.hypot(emp_bs[i].stderr, emp_dest[i].stderr)
            if emp_dest[i].mean > emp_bs[i].mean + slack:
                passed = False
                issues.append(f"empirical dest > bs at r={r:g}")
        for emp, ref, who in ((emp_bs[i], an_bs[i], "bs"), (emp_dest[i], an_dest[i], "dest")):
            if abs(emp.mean - ref) > max(3.0 * emp.stderr, 1e-9):
                passed = False
                issues.append(f"{who} at r={r:g}: |{emp.mean:.3f} - {ref:.3f}| > 3*{emp.stderr:.4f}")
    conv_an = abs(an_bs[-1] - an_dest[-1]) / max(an_bs[-1], 1e-300)
    conv_emp = abs(emp_bs[-1].mean - emp_dest[-1].mean) / max(emp_bs[-1].mean, 1e-300)
    if conv_an > 0.02 or conv_emp > 0.02:
        passed = False
        issues.append(f"curves differ at far edge: analytic {conv_an:.4f}, empirical {conv_emp:.4f}")
    detail = (
        f"grid 0..{cell.outer_radius:g} step 1, trials={emp_bs[0].trials}; "
        f"far-edge gap analytic {conv_an:.2e}, empirical {conv_emp:.2e}"
        + ("; " + "; ".join(issues) if issues else "")
    )
    return _finish("mean_count_curves", passed, detail, t0)


# ----------------------------------------------------------------------
# criterion 8: nearest-distance density integrates to the void probability
# ----------------------------------------------------------------------

def _angular_mass(r_jd: float, cell: CellGeometry, theta: float) -> float:
    """Oracle for the destination-view mean measure ``M(r_jd)``, independent
    of :class:`~relaygeom.analytic.MassProfile`: the closed radial slice
    about the destination integrated adaptively over the bearing
    (:func:`~relaygeom.analytic._disk_mass`, at the scale ``-theta (1 +
    r_d^2)`` that keeps every exponent nonpositive). Its absolute tolerance
    of 1e-13 costs relative accuracy at low SNR.
    """
    r_d = cell.dest_distance
    scale = -theta * (1.0 + r_d * r_d)
    mass = analytic._disk_mass(cell.relay_intensity, r_jd, r_d, theta, scale, analytic._INNER_SPEC)
    return max(mass, 0.0)


def check_normalization() -> CheckResult:
    """The exact nearest-distance density integrated to x must equal
    1 - exp(-mass(x)) within 1e-6 at x = 1, 5 and the far edge; the density
    reads the mass profile, the mass is the oracle :func:`_angular_mass`."""
    t0 = time.perf_counter()
    tol = 1e-6
    cell = DEFAULT_CELL
    theta = THETA_15DB
    spec = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-9, max_subdivisions=512)

    worst = 0.0
    for x in (1.0, 5.0, cell.outer_radius):
        integral = integrate_1d(lambda rs: analytic.f_k_pdf(rs, 1, cell, theta), 0.0, x, spec)
        target = 1.0 - math.exp(-_angular_mass(x, cell, theta))
        worst = max(worst, abs(integral - target))
    return _finish(
        "nearest_distance_normalization",
        worst <= tol,
        f"worst |integral - (1 - exp(-mass))| = {worst:.2e} (tol {tol:.0e})",
        t0,
    )


# ----------------------------------------------------------------------
# criterion 9: byte-identical CSV across worker counts
# ----------------------------------------------------------------------

class Sweep(NamedTuple):
    """One of criterion 9's sweeps (:func:`_cli_sweep`): its worker count,
    the CSV it wrote or, when it failed, its exit code, and its seconds."""

    workers: int
    output: bytes | int
    seconds: float


def _cli_sweep(workers: int) -> Sweep:
    """Criterion 9's 2000-trial, 9-row ``outage-sweep`` at seed 7, run
    through ``cli.main`` with ``--workers`` set to ``workers``."""
    from . import cli  # deferred: cli imports this module for `validate`

    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "sweep.csv")
        flags = "--trials 2000 --seed 7 --snr-grid-db 5,15,25 --k-values 1,2 --strategies exact,stat"
        output = cli.main(["outage-sweep", *flags.split(), "--csv", out, "--workers", str(workers)])
        if output == 0:
            with open(out, "rb") as fh:
                output = fh.read()
    return Sweep(workers, output, time.perf_counter() - t0)


def check_cli_determinism(one: Sweep, two: Sweep) -> CheckResult:
    """Criterion 9's sweeps (:func:`_cli_sweep`), ``one`` with ``--workers
    1`` and ``two`` with ``--workers 2``, must write byte-identical CSVs.
    The result's ``seconds`` are the two sweeps' own."""
    seconds = one.seconds + two.seconds
    for sweep in (one, two):
        if isinstance(sweep.output, int):
            detail = f"sweep exited with code {sweep.output} at {sweep.workers} workers"
            return CheckResult("cli_determinism", False, detail, seconds)
    same = one.output == two.output
    return CheckResult(
        "cli_determinism",
        same,
        f"{len(one.output)} bytes, {one.workers} vs {two.workers} workers: {'identical' if same else 'DIFFER'}",
        seconds,
    )


def run_all(
    trials: int = TRIALS,
    samples: int = SAMPLES,
    mean_count_trials: int = MEAN_COUNT_TRIALS,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> list[CheckResult]:
    """Run every check and return the results in criterion order.

    One :func:`~relaygeom.montecarlo.running_requests` pass at ``seed``
    over ``max(trials, samples, mean_count_trials)`` trials draws what
    criteria 3, 4, 6 and 7 judge: criteria 3 and 4 read its first ``trials``
    trials, criterion 6 its first ``samples`` and criterion 7 its first
    ``mean_count_trials``. ``workers`` sets the pass's worker processes; no
    result depends on it. At the default of 1 the pass runs in this process
    after the other checks; with more, while they draw, this process runs
    criteria 1, 2, 5 and 8 and criterion 9's one-worker sweep. Criterion
    9's two-worker sweep runs after the pass's workers have been joined:
    moved into the window, it gave no gain (perfbench ``gate`` 0.850 s
    against 0.857 s per body on 2 vCPUs).

    Each check keeps its own seconds. The pass is timed in criterion 4's
    only, from opening it to reading its results, and the details of
    criteria 3, 6 and 7 say so. That span holds the checks run while the
    workers draw, so the seconds of a run no longer add up to its wall
    time.
    """
    with _monte_carlo_checks(trials, samples, mean_count_trials, seed, workers) as judge:
        inner, far_field = check_inner_integral(), check_far_field_mean()
        slopes, normalization = check_diversity_order(), check_normalization()
        one_worker = _cli_sweep(1)
        exact, stat, fk, mean_count = judge()
    determinism = check_cli_determinism(one_worker, _cli_sweep(2))
    return [inner, far_field, exact, stat, slopes, fk, mean_count, normalization, determinism]


@contextmanager
def _monte_carlo_checks(
    trials: int, samples: int, mean_count_trials: int, seed: int, workers: int
):
    """Start the pass of :func:`run_all` and yield ``judge()``, which waits
    for it and returns criteria 3, 4, 6 and 7 judged on it, as
    :func:`run_all` says; the workers draw until the block ends."""
    t0 = time.perf_counter()
    requests = [
        montecarlo.OutageGridRequest(DEFAULT_CELL, _EXACT_CSI_ROWS + _STAT_CSI_ROWS, trials),
        montecarlo.KthDistancesRequest(DEFAULT_CELL, THETA_15DB, K_MAX, samples),
        montecarlo.MeanCountRequest(_MEAN_COUNT_RADII, DEFAULT_CELL, THETA_15DB, mean_count_trials),
    ]
    with montecarlo.running_requests(requests, seed, workers=workers) as results:

        def judge() -> list[CheckResult]:
            estimates, draws, empirical = results()
            drawn = time.perf_counter() - t0
            split = len(_EXACT_CSI_ROWS)
            stat = check_stat_csi_outage(estimates[split:])

            def shared(result: CheckResult) -> CheckResult:
                return replace(result, detail=result.detail + _SHARED_DRAW_NOTE)

            return [
                shared(check_exact_csi_outage(estimates[:split])),
                replace(stat, seconds=stat.seconds + drawn),
                shared(check_fk_distribution(draws)),
                shared(check_mean_count_curves(empirical)),
            ]

        yield judge
