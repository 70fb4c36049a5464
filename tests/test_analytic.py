import math
from dataclasses import replace

import numpy as np
import pytest

from relaygeom import analytic, validation
from relaygeom.model import CellGeometry, RadioParams, Thresholds, compute_thresholds
from relaygeom.quadrature import QuadratureError, QuadratureSpec, integrate_1d

TIGHT = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-12, max_subdivisions=1024)
#: The three cells of ``tests/golden_order_statistics.json``.
GOLDEN_CELLS = [
    CellGeometry(cell_radius=20.0, dest_distance=5.0, relay_intensity=0.5),
    CellGeometry(cell_radius=100.0, dest_distance=30.0, relay_intensity=5.0),
    CellGeometry(cell_radius=5.0, dest_distance=2.0, relay_intensity=2.0),
]


def total_qualified_mass(lam: float, theta: float) -> float:
    return math.pi * lam / theta * math.exp(-theta)


def slice_families(theta: float, r_d: float) -> dict:
    """The ``(offset, theta, log_scale)`` slices ``analytic._disk_mass``
    integrates: the mass oracle's about the destination and
    ``lambda_q_quadrature``'s about the source."""
    return {
        "mass": (r_d, theta, -theta * (1.0 + r_d * r_d)),
        "lambda_q": (0.5 * r_d, 2.0 * theta, -theta * (2.0 + r_d * r_d)),
    }


class TestInnerIntegral:
    def test_empty_range(self):
        phis = np.linspace(0.0, math.pi, 7)
        for offset, theta, scale in slice_families(0.3, 5.0).values():
            values = analytic._inner_core(0.0, phis, offset, theta, scale)
            # exactly 0 up to the rounding of exp(scale + alf^2 - alf^2)
            assert np.all(np.abs(values) <= 1e-15 * math.exp(scale))
            mass = analytic._disk_mass(0.5, 0.0, offset, theta, scale, analytic._INNER_SPEC)
            assert abs(mass) <= 1e-15

    def test_centered_observer_reduction(self):
        # at r_d = 0 the slice collapses to exp(scale) (1 - exp(-theta r^2)) / (2 theta)
        for offset, theta, scale in slice_families(0.1, 0.0).values():
            val = float(analytic._inner_core(2.0, np.array([0.9]), offset, theta, scale)[0])
            closed = math.exp(scale) * -math.expm1(-4.0 * theta) / (2.0 * theta)
            assert val == pytest.approx(closed, rel=1e-14)
        # the mass family integrated over the bearing: the source-view mean count
        cell = CellGeometry(cell_radius=20.0, dest_distance=0.0, relay_intensity=0.5)
        offset, theta, scale = slice_families(0.1, 0.0)["mass"]
        mass = analytic._disk_mass(0.5, 2.0, offset, theta, scale, analytic._INNER_SPEC)
        assert mass == pytest.approx(analytic.mean_count_from_bs(2.0, cell, 0.1), rel=1e-12)

    @pytest.mark.parametrize("theta", [0.01, 0.1, 1.0])
    @pytest.mark.parametrize("r_d", [0.0, 2.0, 5.0])
    def test_matches_quadrature(self, theta, r_d):
        for offset, th, scale in slice_families(theta, r_d).values():
            for phi in (0.0, 1.1, math.pi / 2, 2.7, math.pi):
                for r_jd in (0.5, 3.0, 12.0):
                    a = 2.0 * offset * math.cos(phi)
                    direct = math.exp(scale) * integrate_1d(
                        lambda r: r * np.exp(-th * (r * r - a * r)), 0.0, r_jd, TIGHT
                    )
                    closed = float(analytic._inner_core(r_jd, np.array([phi]), offset, th, scale)[0])
                    assert closed == pytest.approx(direct, rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("theta", [300.0, 1e4])
    def test_production_scales_stay_finite(self, theta):
        # unscaled, the slice toward the destination is exp(2700) at theta = 300;
        # folded into the exponents, the scales of both callers keep them <= 0
        phis = np.linspace(0.0, math.pi, 7)
        with np.errstate(over="raise", invalid="raise"):
            for offset, th, scale in slice_families(theta, 5.0).values():
                for r_jd in (0.5, 1.0, 12.0):
                    values = analytic._inner_core(r_jd, phis, offset, th, scale)
                    assert np.all(np.isfinite(values) & (values >= 0.0))

    @pytest.mark.parametrize("theta", [0.01, 1.0, 300.0])
    def test_array_phi_equals_scalar_calls(self, theta):
        phis = np.linspace(0.0, math.pi, 7)
        for offset, th, scale in slice_families(theta, 5.0).values():
            for r_jd in (0.0, 0.5, 1.0, 12.0):
                values = analytic._inner_core(r_jd, phis, offset, th, scale)
                alone = [analytic._inner_core(r_jd, phis[i : i + 1], offset, th, scale)[0] for i in range(phis.size)]
                assert values.shape == phis.shape
                assert np.array_equal(values, alone)


class TestLambdaPrime:
    def test_zero_radius(self, default_cell):
        assert analytic.lambda_prime(0.0, default_cell, 0.1) == 0.0

    def test_centered_observer_closed_form(self):
        cell = CellGeometry(cell_radius=20.0, dest_distance=0.0, relay_intensity=0.5)
        for theta in (0.05, 0.3, 1.0):
            for r in (1.0, 5.0, 15.0):
                closed = total_qualified_mass(0.5, theta) * (1.0 - math.exp(-theta * r * r))
                assert analytic.lambda_prime(r, cell, theta) == pytest.approx(closed, rel=1e-9)

    def test_homogeneous_limit(self, default_cell):
        # as theta -> 0 qualification is certain and the mass is just lam * area
        theta = 1e-8
        for r in (2.0, 7.0):
            val = analytic.lambda_prime(r, default_cell, theta)
            assert val == pytest.approx(0.5 * math.pi * r * r, rel=1e-5)

    def test_monotone_and_bounded(self, default_cell):
        theta = 0.2
        total = total_qualified_mass(default_cell.relay_intensity, theta)
        grid = np.linspace(0.0, 25.0, 26)
        vals = [analytic.lambda_prime(float(r), default_cell, theta) for r in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(v <= total * (1 + 1e-9) for v in vals)

    def test_displaced_observer_sees_fewer_nearby(self, default_cell):
        # the destination sits in a thinner part of the qualified field
        theta = 0.09486832980505139
        for r in (1.0, 2.0, 5.0, 10.0, 25.0):
            bs_view = analytic.mean_count_from_bs(r, default_cell, theta)
            dest_view = analytic.lambda_prime(r, default_cell, theta)
            assert dest_view <= bs_view + 1e-9

    def test_domain_validation(self, default_cell):
        with pytest.raises(ValueError):
            analytic.lambda_prime(26.0, default_cell, 0.1)
        with pytest.raises(ValueError):
            analytic.lambda_prime(1.0, default_cell, 0.0)
        with pytest.raises(ValueError):
            analytic.lambda_prime(1.0, replace(default_cell, path_loss_exponent=3.0), 0.1)

    def test_deterministic(self, default_cell):
        a = analytic.lambda_prime(7.3, default_cell, 0.17)
        b = analytic.lambda_prime(7.3, default_cell, 0.17)
        assert a == b

    @pytest.mark.parametrize("theta", [30.0, 300.0])
    def test_plane_total_at_low_snr(self, default_cell, theta):
        # at these thresholds every qualified relay sits near the source, well
        # inside R + r_d of the destination, so M there is the plane total of
        # ~1e-15 and ~1e-133; an absolute quadrature tolerance loses it
        total = total_qualified_mass(default_cell.relay_intensity, theta)
        mass = analytic.lambda_prime(25.0, default_cell, theta)
        assert mass == pytest.approx(total, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("snr_db", [-20.0, -30.0])
    def test_finite_at_large_theta(self, default_cell, snr_db):
        # theta = 300 and 3000: exp(-theta (1 + r_d^2)) underflows while the
        # radial exponent toward the source overflows; the result is finite
        theta = compute_thresholds(RadioParams(snr_db=snr_db, target_rate=1.0)).theta_first
        total = total_qualified_mass(default_cell.relay_intensity, theta)
        for r in (0.5, 5.0, 25.0):
            val = analytic.lambda_prime(r, default_cell, theta)
            assert math.isfinite(val) and 0.0 <= val <= total


class TestLambdaPrimeDerivative:
    def test_zero_radius(self, default_cell):
        assert analytic.lambda_prime_derivative(0.0, default_cell, 0.1) == 0.0

    def test_central_difference(self, default_cell):
        theta = 0.09486832980505139
        h = 1e-4
        for r in (1.0, 5.0, 12.0, 20.0):
            fd = (
                analytic.lambda_prime(r + h, default_cell, theta)
                - analytic.lambda_prime(r - h, default_cell, theta)
            ) / (2 * h)
            deriv = analytic.lambda_prime_derivative(r, default_cell, theta)
            assert abs(fd - deriv) < 1e-6

    def test_centered_observer_closed_form(self):
        cell = CellGeometry(cell_radius=20.0, dest_distance=0.0, relay_intensity=0.5)
        theta = 0.3
        for r in (0.5, 2.0, 9.0):
            closed = 2 * math.pi * 0.5 * r * math.exp(-theta * (1 + r * r))
            assert analytic.lambda_prime_derivative(r, cell, theta) == pytest.approx(
                closed, rel=1e-9
            )

    @pytest.mark.parametrize("theta", [0.015, 0.15, 1.5, 15.0])
    def test_matches_scaled_angular_quadrature(self, default_cell, theta):
        # dM/dr = 2 lam r exp(-theta (1 + (r - r_d)^2))
        #         * integral_0^pi exp(-2 theta r_d r (1 - cos(phi))) dphi,
        # whose integrand lies in (0, 1] and is integrated independently here
        lam, r_d = default_cell.relay_intensity, default_cell.dest_distance
        for r in (0.5, 2.0, 5.0, 12.0, 25.0):
            z = 2.0 * theta * r_d * r
            angular = integrate_1d(
                lambda phi: np.exp(-z * (1.0 - np.cos(phi))), 0.0, math.pi, TIGHT
            )
            oracle = 2.0 * lam * r * math.exp(-theta * (1.0 + (r - r_d) ** 2)) * angular
            closed = analytic.lambda_prime_derivative(r, default_cell, theta)
            assert closed == pytest.approx(oracle, rel=1e-12, abs=1e-300)

    def test_array_matches_scalar_calls(self, default_cell):
        rs = np.array([[0.0, 0.3, 2.0], [5.0, 11.0, 25.0]])
        for theta in (0.003, 0.2, 30.0):
            batch = analytic.lambda_prime_derivative(rs, default_cell, theta)
            assert isinstance(batch, np.ndarray) and batch.shape == rs.shape
            scalars = [analytic.lambda_prime_derivative(float(r), default_cell, theta) for r in rs.ravel()]
            assert [float(v).hex() for v in batch.ravel()] == [v.hex() for v in scalars]

    def test_array_validation(self, default_cell):
        for bad in ([1.0, -0.5], [1.0, math.inf], [math.nan]):
            with pytest.raises(ValueError, match="r_jd must be finite and >= 0"):
                analytic.lambda_prime_derivative(bad, default_cell, 0.1)


class TestMassProfile:
    @pytest.mark.parametrize("theta", [0.003, 0.0949, 0.3, 3.0])
    @pytest.mark.parametrize(
        "cell",
        [
            CellGeometry(cell_radius=20.0, dest_distance=5.0, relay_intensity=0.5),
            CellGeometry(cell_radius=20.0, dest_distance=0.0, relay_intensity=0.5),
            CellGeometry(cell_radius=50.0, dest_distance=30.0, relay_intensity=5.0),
        ],
    )
    def test_mass_matches_lambda_prime(self, cell, theta):
        # against validation's angular quadrature of the closed radial slice,
        # the mass implementation independent of the profile
        prof = analytic.MassProfile(cell, theta)
        upper = cell.cell_radius + cell.dest_distance
        m_total = validation._angular_mass(upper, cell, theta)
        assert prof.total_mass == pytest.approx(m_total, rel=1e-10)
        for r, m in zip(prof.r.ravel()[::5], prof.M.ravel()[::5]):
            ref = validation._angular_mass(float(r), cell, theta)
            if ref >= 1e-12 * m_total:
                assert m == pytest.approx(ref, rel=1e-10)
            else:
                assert abs(m - ref) <= 1e-14 * m_total

    def test_panels_cover_the_range_with_open_nodes(self, default_cell):
        prof = analytic.MassProfile(default_cell, 0.1)
        assert prof.edges[0] == 0.0 and prof.edges[-1] == 25.0
        assert np.all(np.diff(prof.edges) > 0)
        assert prof.r.min() > 0.0 and prof.r.max() < 25.0
        assert np.all(np.diff(prof.r.ravel()) > 0)
        assert prof.r.shape == prof.M.shape == prof.density.shape

    def test_arbitrary_points_agree_with_nodes(self, default_cell):
        prof = analytic.MassProfile(default_cell, 0.1)
        mass_at = lambda x: prof.cumulative_at(prof.density, x)
        assert abs(mass_at(0.0)) <= 1e-15 * prof.total_mass
        assert mass_at(25.0) == pytest.approx(prof.total_mass, rel=1e-14)
        # two evaluations of one polynomial per panel: they differ by rounding
        assert np.max(np.abs(mass_at(prof.r) - prof.M)) <= 1e-15 * prof.total_mass
        f = prof.density * np.exp(-prof.M)
        assert np.max(np.abs(prof.cumulative_at(f, prof.r) - prof.cumulative(f))) <= 1e-15

    def test_error_estimate_within_budget(self, default_cell):
        prof = analytic.MassProfile(default_cell, 0.0949)
        assert 0.0 <= prof.error <= max(1e-10, 1e-8 * prof.total_mass)

    def test_unresolved_integrand_raises(self, default_cell):
        prof = analytic.MassProfile(default_cell, 0.1)
        step = (prof.r > 3.3).astype(float)
        with pytest.raises(QuadratureError) as info:
            prof.total(step)
        assert info.value.error > 1e-8 * abs(info.value.estimate)

    def test_immutable_and_deterministic(self, default_cell):
        a = analytic.MassProfile(default_cell, 0.17)
        b = analytic.MassProfile(default_cell, 0.17)
        for name in ("edges", "r", "density", "M"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert a.total_mass == b.total_mass and a.error == b.error
        with pytest.raises(AttributeError):
            a.theta = 0.2
        with pytest.raises(ValueError):
            a.M[0, 0] = 1.0

    def test_domain_validation(self, default_cell):
        with pytest.raises(ValueError):
            analytic.MassProfile(default_cell, 0.0)
        with pytest.raises(ValueError):
            analytic.MassProfile(replace(default_cell, path_loss_exponent=3.0), 0.1)

    @pytest.mark.parametrize("theta", [1e-4, 3e-3, 0.0949, 1.0, 30.0])
    @pytest.mark.parametrize("cell", GOLDEN_CELLS)
    def test_reused_density_as_from_scratch(self, cell, theta):
        # the refined pass copies dM/dr on the panels that the first pass
        # sampled; every node still holds the closed form's value
        prof = analytic.MassProfile(cell, theta)
        density = analytic.lambda_prime_derivative(prof.r, cell, theta)
        assert np.array_equal(prof.density, density)
        assert np.array_equal(prof.M, prof.cumulative(density))
        assert prof.total_mass == prof.total(density)

    @pytest.mark.parametrize("theta", [1e-4, 3e-3, 0.0949, 1.0, 30.0])
    @pytest.mark.parametrize("cell", GOLDEN_CELLS)
    def test_stacked_totals_match_one_at_a_time(self, cell, theta):
        prof = analytic.MassProfile(cell, theta)
        success = np.exp(-theta * (1.0 + prof.r * prof.r))
        terms = analytic._order_densities(prof.M, prof.density, 3, success)
        assert prof.total(terms).tolist() == [prof.total(term) for term in terms]

    def test_stacked_total_raises_for_any_unresolved_member(self, default_cell):
        prof = analytic.MassProfile(default_cell, 0.1)
        step = (prof.r > 3.3).astype(float)
        with pytest.raises(QuadratureError) as alone:
            prof.total(step)
        with pytest.raises(QuadratureError) as stacked:
            prof.total(np.stack([prof.density, step]))
        assert stacked.value.estimate == alone.value.estimate
        assert stacked.value.error == pytest.approx(alone.value.error, rel=1e-12)


def homogeneous_pdf(r, k, cell, theta) -> float:
    """Criterion 6's contrast: :func:`analytic.f_k_pdf` with ``dM/dr``
    replaced by ``2 M / r``, the homogeneous k-th-nearest law."""
    mass = analytic.lambda_prime(r, cell, theta)
    return float(analytic._order_densities(mass, 2.0 * mass / r, k)[-1])


class TestFkPdf:
    def test_variant_ratio_identity(self, default_cell):
        # quadratic / exact == 2 M(r) / (r dM/dr) for every k
        theta = 0.2
        for k in (1, 2, 3):
            for r in (1.0, 4.0, 9.0):
                exact = analytic.f_k_pdf(r, k, default_cell, theta)
                quad = homogeneous_pdf(r, k, default_cell, theta)
                mass = analytic.lambda_prime(r, default_cell, theta)
                deriv = analytic.lambda_prime_derivative(r, default_cell, theta)
                assert quad / exact == pytest.approx(2 * mass / (r * deriv), rel=1e-9)

    def test_variants_coincide_for_unthinned_field(self, default_cell):
        # theta -> 0: the mass grows quadratically and both variants give the
        # homogeneous k-th-nearest law
        theta = 1e-8
        lam = default_cell.relay_intensity
        for k in (1, 2, 3):
            for r in (0.8, 2.0):
                mass = lam * math.pi * r * r
                law = (
                    2
                    * lam
                    * math.pi
                    * r
                    * math.exp(-mass)
                    * mass ** (k - 1)
                    / math.factorial(k - 1)
                )
                for val in (
                    analytic.f_k_pdf(r, k, default_cell, theta),
                    homogeneous_pdf(r, k, default_cell, theta),
                ):
                    assert val == pytest.approx(law, rel=1e-4)

    def test_cdf_matches_density_integral(self, default_cell):
        theta = 0.25
        k = 2

        def density(rs):
            return analytic.f_k_pdf(rs, k, default_cell, theta)

        integral = integrate_1d(density, 0.0, 5.0, QuadratureSpec(1e-10, 1e-9, 512))
        assert integral == pytest.approx(
            analytic.kth_nearest_cdf(5.0, k, default_cell, theta), abs=1e-6
        )

    def test_array_matches_scalar_calls(self, default_cell):
        rs = np.array([0.3, 2.0, 5.0, 11.0, 25.0])
        batch = analytic.f_k_pdf(rs, 3, default_cell, 0.2)
        assert batch.shape == rs.shape
        for r, val in zip(rs, batch):
            assert analytic.f_k_pdf(float(r), 3, default_cell, 0.2) == val

    def test_cdf_array_matches_scalar_calls(self, default_cell):
        xs = np.array([-1.0, 0.0, 0.3, 2.0, 5.0, 11.0, 25.0])
        for k in (1, 3):
            batch = analytic.kth_nearest_cdf(xs, k, default_cell, 0.2)
            assert isinstance(batch, np.ndarray) and batch.shape == xs.shape
            scalars = [analytic.kth_nearest_cdf(float(x), k, default_cell, 0.2) for x in xs]
            assert all(isinstance(v, float) for v in scalars)
            assert [float(v).hex() for v in batch] == [v.hex() for v in scalars]
            assert batch[0] == batch[1] == 0.0

    def test_rejects_distances_past_the_far_edge(self, default_cell):
        # the mass profile clips its argument to [0, R + r_d]; the callers may not
        for x in (25.001, 26.0, math.inf):
            with pytest.raises(ValueError, match="cell_radius"):
                analytic.kth_nearest_cdf(x, 1, default_cell, 0.1)
            with pytest.raises(ValueError, match="cell_radius"):
                analytic.f_k_pdf(x, 1, default_cell, 0.1)
            with pytest.raises(ValueError, match="cell_radius"):
                analytic.f_k_pdf(np.array([1.0, x]), 1, default_cell, 0.1)

    def test_validation(self, default_cell):
        with pytest.raises(ValueError):
            analytic.f_k_pdf(1.0, 0, default_cell, 0.1)
        # no relay lies closer than distance 0: the density vanishes there
        for k in (1, 2, 3):
            assert analytic.f_k_pdf(0.0, k, default_cell, 0.1) == 0.0
            assert analytic.f_k_pdf(np.zeros(2), k, default_cell, 0.1).tolist() == [0.0, 0.0]


class TestPFail:
    def test_everything_fails_at_huge_threshold(self, default_cell):
        th = Thresholds(theta_first=0.1, theta_second=1e6)
        assert analytic.p_fail_jth(1, default_cell, th) == pytest.approx(1.0, abs=1e-12)

    def test_centered_observer_reduces_to_1d(self):
        # with the destination at the source the mass function is closed, so
        # p_fail_jth must match its direct 1-d reduction
        cell = CellGeometry(cell_radius=20.0, dest_distance=0.0, relay_intensity=0.5)
        th = Thresholds(theta_first=0.09486832980505139, theta_second=0.09486832980505139)
        lam, t1, t2 = 0.5, th.theta_first, th.theta_second
        total = total_qualified_mass(lam, t1)
        j = 1

        def mass(r):
            return total * (1.0 - np.exp(-t1 * r * r))

        def mass_deriv(r):
            return 2 * math.pi * lam * r * np.exp(-t1 * (1 + r * r))

        direct = 1.0 - integrate_1d(
            lambda r: np.exp(-t2 * (1 + r * r)) * np.exp(-mass(r)) * mass_deriv(r),
            0.0,
            20.0,
            QuadratureSpec(1e-12, 1e-10, 1024),
        )
        assert analytic.p_fail_jth(j, cell, th) == pytest.approx(direct, rel=1e-6)

    @pytest.mark.parametrize("scale, clamped", [(3.0, 0.0), (-1.0, 1.0)])
    def test_clamps_out_of_range_values_with_a_warning(self, default_cell, monkeypatch, scale, clamped):
        # densities scaled so that 1 - total leaves [0, 1] by far more than quadrature noise
        densities = analytic._order_densities
        monkeypatch.setattr(analytic, "_order_densities", lambda *a, **kw: scale * densities(*a, **kw))
        with pytest.warns(RuntimeWarning, match=r"p_fail_jth\(j=1\) outside \[0, 1\].*; clamping"):
            assert analytic.p_fail_jth(1, default_cell, Thresholds(0.01, 0.01)) == clamped

    def test_validation(self, default_cell):
        with pytest.raises(ValueError):
            analytic.p_fail_jth(0, default_cell, Thresholds(0.1, 0.1))
        with pytest.raises(ValueError):
            analytic.p_fail_jth(1, default_cell, Thresholds(0.0, 0.1))


class TestOutageStat:
    def test_single_relay_equals_first_failure(self, default_cell, radio_15db):
        th = compute_thresholds(radio_15db)
        assert analytic.outage_stat(1, default_cell, radio_15db) == pytest.approx(
            analytic.p_fail_jth(1, default_cell, th), rel=1e-12
        )

    def test_product_bound(self, default_cell):
        radio = RadioParams(snr_db=20.0, target_rate=1.0, num_relays=3)
        th = compute_thresholds(replace(radio, num_relays=3))
        assert analytic.outage_stat(3, default_cell, radio) <= analytic.p_fail_jth(
            1, default_cell, th
        ) + 1e-12

    def test_non_increasing_in_snr(self, default_cell):
        vals = [
            analytic.outage_stat(
                1, default_cell, RadioParams(snr_db=s, target_rate=1.0, num_relays=1)
            )
            for s in (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] < vals[2] < 1.0 + 1e-12

    def test_rejects_bad_k(self, default_cell, radio_15db):
        with pytest.raises(ValueError):
            analytic.outage_stat(0, default_cell, radio_15db)


class TestLambdaQ:
    def test_closed_reference_value(self, default_cell):
        assert analytic.lambda_q_closed(default_cell, 0.1) == pytest.approx(1.8423, abs=1e-3)

    def test_closed_centered(self):
        cell = CellGeometry(cell_radius=20.0, dest_distance=0.0, relay_intensity=0.5)
        theta = 0.4
        expected = math.pi * 0.5 / (2 * theta) * math.exp(-2 * theta)
        assert analytic.lambda_q_closed(cell, theta) == pytest.approx(expected, rel=1e-12)

    def test_closed_validation(self, default_cell):
        with pytest.raises(ValueError):
            analytic.lambda_q_closed(replace(default_cell, path_loss_exponent=2.5), 0.1)
        with pytest.raises(ValueError):
            analytic.lambda_q_closed(default_cell, 0.0)

    def test_quadrature_linear_in_intensity(self, default_cell):
        lo = analytic.lambda_q_quadrature(replace(default_cell, relay_intensity=0.25), 0.1)
        hi = analytic.lambda_q_quadrature(replace(default_cell, relay_intensity=0.5), 0.1)
        assert hi == pytest.approx(2.0 * lo, rel=1e-9)
        tiny = analytic.lambda_q_quadrature(replace(default_cell, relay_intensity=1e-9), 0.1)
        assert 0.0 <= tiny < 1e-8

    def test_quadrature_monotone_in_theta_and_offset(self, default_cell):
        v = [analytic.lambda_q_quadrature(default_cell, t) for t in (0.05, 0.1, 0.4, 1.0)]
        assert all(b < a for a, b in zip(v, v[1:]))
        w = [
            analytic.lambda_q_quadrature(replace(default_cell, dest_distance=d), 0.1)
            for d in (0.0, 2.0, 5.0, 10.0)
        ]
        assert all(b < a for a, b in zip(w, w[1:]))

    def test_quadrature_supports_general_exponent(self, default_cell):
        steeper = analytic.lambda_q_quadrature(
            replace(default_cell, path_loss_exponent=3.0), 0.1
        )
        baseline = analytic.lambda_q_quadrature(default_cell, 0.1)
        assert 0.0 < steeper < baseline

    @pytest.mark.parametrize("theta", [0.003, 0.1, 1.0])
    def test_quadrature_closed_radial_matches_nested(self, theta):
        # exponent 2 takes the radial integral in closed form; compare with
        # nested adaptive quadrature of the doubly-connected intensity
        cell = CellGeometry(cell_radius=20.0, dest_distance=5.0, relay_intensity=0.5)
        r_d = cell.dest_distance

        def radial(phi):
            def intensity(r):
                r_jd2 = r * r + r_d * r_d - 2.0 * r_d * r * math.cos(phi)
                return 0.5 * r * np.exp(-theta * (2.0 + r * r + r_jd2))

            return integrate_1d(intensity, 0.0, cell.cell_radius, TIGHT)

        nested = 2.0 * integrate_1d(
            lambda phis: np.array([radial(float(p)) for p in phis]), 0.0, math.pi, TIGHT
        )
        assert analytic.lambda_q_quadrature(cell, theta) == pytest.approx(nested, rel=1e-9)

    def test_closed_never_below_quadrature(self, default_cell):
        # the closed form integrates over the whole plane
        for theta in (0.003, 0.03, 0.3):
            closed = analytic.lambda_q_closed(default_cell, theta)
            quad = analytic.lambda_q_quadrature(default_cell, theta)
            assert closed >= quad * (1 - 1e-12)


class TestOutageExact:
    #: The finite-cell curve on the default cell at 0-30 dB, as ``float.hex``.
    PINNED = {
        0.0: "0x1.0000000000000p+0",
        5.0: "0x1.ffffe283cca6ep-1",
        10.0: "0x1.eefd12d637e65p-1",
        15.0: "0x1.f99f0fa186e94p-4",
        20.0: "0x1.7797f455c46d0p-25",
        25.0: "0x1.038d62bb2be5fp-104",
        30.0: "0x1.1bf37ddf470a8p-326",
    }

    def test_pinned_curve(self, default_cell):
        got = {
            snr: analytic.outage_exact_csi(
                default_cell, RadioParams(snr_db=snr, target_rate=1.0, num_relays=1)
            ).hex()
            for snr in self.PINNED
        }
        assert got == self.PINNED

    def test_void_probability_reference(self, default_cell):
        # snr such that the decoding threshold is exactly 0.1
        radio = RadioParams(snr_db=10 * math.log10(30.0), target_rate=1.0, num_relays=1)
        p = analytic.outage_exact_csi(default_cell, radio, "closed")
        assert p == pytest.approx(0.1584508648668925, abs=2e-4)
        assert p == pytest.approx(0.1585, abs=2e-4)

    def test_tends_to_one_at_low_snr(self, default_cell):
        radio = RadioParams(snr_db=-100.0, target_rate=1.0, num_relays=1)
        assert analytic.outage_exact_csi(default_cell, radio, "closed") > 0.999999

    def test_quadrature_at_least_closed(self, default_cell):
        # smaller mass inside the finite cell -> larger void probability
        for snr in (10.0, 20.0, 30.0):
            radio = RadioParams(snr_db=snr, target_rate=1.0, num_relays=1)
            p_quad = analytic.outage_exact_csi(default_cell, radio, "quadrature")
            p_closed = analytic.outage_exact_csi(default_cell, radio, "closed")
            assert p_quad >= p_closed * (1 - 1e-12)

    def test_validation(self, default_cell):
        with pytest.raises(ValueError):
            analytic.outage_exact_csi(
                default_cell, RadioParams(snr_db=10.0, target_rate=1.0, num_relays=2)
            )
        with pytest.raises(ValueError):
            analytic.outage_exact_csi(
                default_cell, RadioParams(snr_db=10.0, target_rate=1.0), lambda_q="bogus"
            )


class TestMeanCountFromBs:
    def test_zero_radius(self, default_cell):
        assert analytic.mean_count_from_bs(0.0, default_cell, 0.1) == 0.0

    def test_saturates_to_total_mass(self):
        # exp(-theta R^2) is 0 in double precision: the cell holds the plane total
        theta = 0.09
        cell = CellGeometry(cell_radius=100.0, dest_distance=5.0, relay_intensity=0.5)
        assert analytic.mean_count_from_bs(1e4, cell, theta) == total_qualified_mass(0.5, theta)

    def test_matches_lambda_prime_when_centered(self):
        cell = CellGeometry(cell_radius=20.0, dest_distance=0.0, relay_intensity=0.5)
        for r in (0.5, 3.0, 11.0, 20.0):
            assert analytic.mean_count_from_bs(r, cell, 0.2) == pytest.approx(
                analytic.lambda_prime(r, cell, 0.2), rel=1e-9, abs=1e-12
            )

    def test_counts_only_inside_the_cell(self):
        theta = 0.2
        small = CellGeometry(cell_radius=3.0, dest_distance=1.0, relay_intensity=0.5)
        large = CellGeometry(cell_radius=20.0, dest_distance=1.0, relay_intensity=0.5)
        at_edge = analytic.mean_count_from_bs(3.0, small, theta)
        assert analytic.mean_count_from_bs(5.0, small, theta) == at_edge
        assert at_edge == analytic.mean_count_from_bs(3.0, large, theta)
        assert at_edge < analytic.mean_count_from_bs(5.0, large, theta)

    def test_array_matches_scalar_calls(self, default_cell):
        radii = [0.0, 0.1, 2.5, 19.9, 20.0, 25.0]
        for theta in (0.003, 0.09486832980505139, 3.0):
            curve = analytic.mean_count_from_bs(radii, default_cell, theta)
            assert isinstance(curve, np.ndarray) and curve.shape == (len(radii),)
            scalars = [analytic.mean_count_from_bs(r, default_cell, theta) for r in radii]
            assert [float(v).hex() for v in curve] == [v.hex() for v in scalars]

    def test_validation(self, default_cell):
        with pytest.raises(ValueError):
            analytic.mean_count_from_bs(-1.0, default_cell, 0.1)
        with pytest.raises(ValueError):
            analytic.mean_count_from_bs([1.0, math.nan], default_cell, 0.1)
        with pytest.raises(ValueError):
            analytic.mean_count_from_bs(1.0, default_cell, 0.0)

    def test_refuses_other_path_loss_exponents(self, default_cell):
        # the closed form completes a square in r, as every closed form here does
        with pytest.raises(ValueError, match="path_loss_exponent == 2"):
            analytic.mean_count_from_bs(5.0, replace(default_cell, path_loss_exponent=3.0), 0.1)


@pytest.mark.parametrize(
    "name, call",
    [
        ("k", lambda cell, radio: analytic.f_k_pdf(1.0, True, cell, 0.1)),
        ("k", lambda cell, radio: analytic.kth_nearest_cdf(1.0, True, cell, 0.1)),
        ("j", lambda cell, radio: analytic.p_fail_jth(True, cell, compute_thresholds(radio))),
        ("k", lambda cell, radio: analytic.outage_stat(True, cell, radio)),
        ("k", lambda cell, radio: analytic.exact_ranked_outage(True, cell, radio)),
    ],
    ids=["f_k_pdf", "kth_nearest_cdf", "p_fail_jth", "outage_stat", "exact_ranked_outage"],
)
def test_rank_refuses_bool(name, call, default_cell, radio_15db):
    # Python counts True an int; taken as a rank it would silently mean 1
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
        call(default_cell, radio_15db)


@pytest.mark.parametrize("outage", [analytic.outage_stat, analytic.exact_ranked_outage], ids=lambda f: f.__name__)
@pytest.mark.parametrize("k", [0, 2.0])
def test_ranked_outages_name_the_rank(outage, k, default_cell, radio_15db):
    # both ranked outages guard k themselves, before it becomes the frame's num_relays
    with pytest.raises(ValueError, match=f"^k must be an integer >= 1, got {k!r}$"):
        outage(k, default_cell, radio_15db)


@pytest.mark.parametrize(
    "name, call",
    [
        ("lambda_prime", lambda cell, radio: analytic.lambda_prime(1.0, cell, 0.1)),
        ("f_k_pdf", lambda cell, radio: analytic.f_k_pdf(1.0, 1, cell, 0.1)),
        ("kth_nearest_cdf", lambda cell, radio: analytic.kth_nearest_cdf(1.0, 1, cell, 0.1)),
        ("p_fail_jth", lambda cell, radio: analytic.p_fail_jth(1, cell, compute_thresholds(radio))),
        ("outage_stat", lambda cell, radio: analytic.outage_stat(1, cell, radio)),
        ("exact_ranked_outage", lambda cell, radio: analytic.exact_ranked_outage(1, cell, radio)),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_profile_readers_refuse_other_exponents_by_name(name, call, default_cell, radio_15db):
    # each public reader of the mass profile names itself, not the profile
    cell = replace(default_cell, path_loss_exponent=3.0)
    with pytest.raises(ValueError, match=f"^{name} requires path_loss_exponent == 2, got 3.0$"):
        call(cell, radio_15db)


class TestUnclippedRim:
    """The profile counts qualified relays outside the cell on circles that
    cross its edge; the destination-view mass refuses where that mass
    exceeds the profile's error budget."""

    @staticmethod
    def theta(snr_db: float) -> float:
        return compute_thresholds(RadioParams(snr_db=snr_db, target_rate=1.0)).theta_first

    @pytest.mark.parametrize(
        "call",
        [
            lambda cell, theta, r: analytic.lambda_prime(r, cell, theta),
            lambda cell, theta, r: analytic.f_k_pdf(r, 2, cell, theta),
            lambda cell, theta, r: analytic.kth_nearest_cdf(r, 2, cell, theta),
        ],
        ids=["lambda_prime", "f_k_pdf", "kth_nearest_cdf"],
    )
    @pytest.mark.parametrize(
        "cell, radius",
        [
            (CellGeometry(cell_radius=20.0, dest_distance=5.0, relay_intensity=0.5), 16.0),
            (CellGeometry(cell_radius=10.0, dest_distance=15.0, relay_intensity=0.5), 5.0),
        ],
        ids=["default", "dest_outside"],
    )
    def test_refused_at_30db(self, call, cell, radius):
        with pytest.raises(ValueError, match="^lambda_prime is unclipped at the cell edge"):
            call(cell, self.theta(30.0), radius)

    def test_refusal_only_past_the_inner_radius(self, default_cell):
        theta = self.theta(30.0)
        inner = analytic.lambda_prime([0.0, 5.0, 15.0], default_cell, theta)
        assert inner[0] == 0.0 and np.all(np.diff(inner) > 0.0)
        with pytest.raises(ValueError, match="r_jd = 15 "):
            analytic.lambda_prime([0.0, 5.0, 15.5], default_cell, theta)
        # the destination outside the cell: only M(0) is free of the rim
        rim = CellGeometry(cell_radius=10.0, dest_distance=15.0, relay_intensity=0.5)
        assert analytic.lambda_prime(0.0, rim, theta) == 0.0

    def test_outside_mass_within_budget_passes(self, default_cell):
        # the outside mass is 5.0e-16 at 15 dB, 3.1e-4 at 20 dB
        grid = np.linspace(0.0, 25.0, 26)
        mass = analytic.lambda_prime(grid, default_cell, self.theta(15.0))
        assert mass[0] == 0.0 and mass[-1] > 14.0
        with pytest.raises(ValueError, match="3.122e-04"):
            analytic.lambda_prime(grid, default_cell, self.theta(20.0))


class TestCallCounts:
    """Deterministic tallies of the calls the analytic path makes."""

    def test_profiles_evaluate_only_new_nodes(self, monkeypatch, default_cell):
        # the 12 outage_stat thresholds of perfbench's analytic_curves body;
        # re-evaluating every refined panel took 14,400 nodes
        nodes = []
        exact = analytic.lambda_prime_derivative

        def counted(r, cell, theta):
            nodes.append(np.size(r))
            return exact(r, cell, theta)

        monkeypatch.setattr(analytic, "lambda_prime_derivative", counted)
        for snr in (0.0, 10.0, 20.0, 30.0):
            for k in (1, 2, 3):
                radio = RadioParams(snr_db=snr, target_rate=1.0, num_relays=k)
                analytic.outage_stat(k, default_cell, radio)
        assert sum(nodes) == 9168

    def test_inner_core_makes_one_erfcx_call(self, monkeypatch):
        sizes = []
        exact = analytic.erfcx

        def counted(x):
            sizes.append(np.size(x))
            return exact(x)

        monkeypatch.setattr(analytic, "erfcx", counted)
        phi = np.linspace(0.0, math.pi, 33)
        analytic._inner_core(3.0, phi, 5.0, 0.1, -2.6)
        assert sizes == [2 * phi.size]
