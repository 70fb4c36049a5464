import hashlib
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
            assert val == pytest.approx(closed, rel=1e-14, abs=0)
        # the mass family integrated over the bearing: the source-view mean count
        cell = CellGeometry(cell_radius=20.0, dest_distance=0.0, relay_intensity=0.5)
        offset, theta, scale = slice_families(0.1, 0.0)["mass"]
        mass = analytic._disk_mass(0.5, 2.0, offset, theta, scale, analytic._INNER_SPEC)
        assert mass == pytest.approx(analytic.mean_count_from_bs(2.0, cell, 0.1), rel=1e-12, abs=0)

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
                assert analytic.lambda_prime(r, cell, theta) == pytest.approx(closed, rel=1e-9, abs=0)

    def test_homogeneous_limit(self, default_cell):
        # as theta -> 0 qualification is certain and the mass is just lam * area
        theta = 1e-8
        for r in (2.0, 7.0):
            val = analytic.lambda_prime(r, default_cell, theta)
            assert val == pytest.approx(0.5 * math.pi * r * r, rel=1e-5, abs=0)

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
        for bad in (26.0, -1e-300, math.nan, [1.0, math.nan], [math.inf], [[1.0], [-1.0]]):
            with pytest.raises(ValueError, match=r"r_jd must be finite and lie in \[0, 25.0\]"):
                analytic.lambda_prime(bad, default_cell, 0.1)
        assert analytic.lambda_prime(-0.0, default_cell, 0.1) == 0.0
        assert analytic.lambda_prime(np.empty(0), default_cell, 0.1).shape == (0,)
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
                closed, rel=1e-9, abs=0
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
        bad_values = ([1.0, -0.5], [1.0, math.inf], [math.nan], [2.0, math.nan], [[0.5], [-math.inf]], -1e-300)
        for bad in bad_values:
            with pytest.raises(ValueError, match=r"r_jd must be finite and lie in \[0, inf\]"):
                analytic.lambda_prime_derivative(bad, default_cell, 0.1)
        assert analytic.lambda_prime_derivative(-0.0, default_cell, 0.1) == 0.0
        assert analytic.lambda_prime_derivative(np.empty((0, 3)), default_cell, 0.1).shape == (0, 3)


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
        assert prof.total_mass == pytest.approx(m_total, rel=1e-10, abs=0)
        # the reference's own absolute budget, which costs it relative
        # accuracy at low SNR (see validation._angular_mass)
        budget = 2 * cell.relay_intensity * analytic._INNER_SPEC.abs_tol
        for r, m in zip(prof.r.ravel()[::5], prof.M.ravel()[::5]):
            ref = validation._angular_mass(float(r), cell, theta)
            if ref >= 1e-12 * m_total:
                assert m == pytest.approx(ref, rel=1e-10, abs=budget)
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
        assert mass_at(25.0) == pytest.approx(prof.total_mass, rel=1e-14, abs=0)
        # two evaluations of one polynomial per panel: they differ by rounding
        assert np.max(np.abs(mass_at(prof.r) - prof.M)) <= 1e-15 * prof.total_mass
        f = prof.density * np.exp(-prof.M)
        at_nodes = analytic._cumulative(f, prof._half, prof._check(f)[0])
        assert np.max(np.abs(prof.cumulative_at(f, prof.r) - at_nodes)) <= 1e-15

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
        offsets = prof._check(density)[0]
        assert np.array_equal(prof.M, analytic._cumulative(density, prof._half, offsets))
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
        assert stacked.value.error == pytest.approx(alone.value.error, rel=1e-12, abs=0)

    #: sha256 of the bytes of ``edges``, ``r``, ``density`` and ``M``, then
    #: ``total_mass`` and ``error`` as ``float.hex``, on the golden cells.
    DIGESTS = {
        ("default", 0.003): (
            "9c9212ab3784b0d37ce285ea4db132753e52bfcfaae42de98d34be0e7b31b479",
            "b817d393a5b8375241519d33bee72a6bcaa0b3335ded78378ee3d91eb49ffd0a",
            "bb03f7151287643e551438bdd930e9c8fa67e27470e34d83c9283775dfbe99e9",
            "2939c42d6db418f0b851d9179a84970fdae041a635ce349f9ea44364959fb1c0",
            "0x1.aebef2dfd71f2p+8",
            "0x1.11f5aa33c033cp-41",
        ),
        ("default", 0.03): (
            "1566afe6af9c48ec727978fc17faba1865e153bceca8241610d40d9998792ac6",
            "ffcb67efcde574cde13ecd8f7cbf6dd6afbc0e540175cc1b7448f850db80f33c",
            "9354a08eaa949d264f9980f4d24e8f074331721f07bf723b96f939c6a0e4ec09",
            "b72340a5d539f08f6985aae7684cb8c414d9571b89c28c42e826f90e7aaaf71b",
            "0x1.967fb2cfd3025p+5",
            "0x1.05d9139182bc5p-44",
        ),
        ("default", 0.3): (
            "3ef5862004b0068e4266b5a3cd62f7672e5949318d02ce4452c18255a265850f",
            "60ff63cbdd220a0952b33e46b53837f56bd96809be37a6ed270d4b09a5cd97ad",
            "8b80b072daf058f08cf586fb8d7072de2d9870b651deed06a60016447b71eed2",
            "185f41aee264464bf4930173a087c079f7ac47c43426a13fae1f9b7c26dbeb15",
            "0x1.f0804a83e1231p+1",
            "0x1.4aa7ab732e700p-48",
        ),
        ("default", 3.0): (
            "8d0467b7ff625a2e946235e876212b237b780582797b4271f34a563d2ae9f10c",
            "a191a8af0c074b48421f43d768eb87c617648f857196fe7bbc05bdff536281ba",
            "ab4adf147a42d9de51a8b73c6234db523f731190a8d84d8580eec6d097c23b20",
            "33699b73db56a15daae02e4da3b02ce974f85d726c452079102c9612a991bcee",
            "0x1.ab1afef1f9ba9p-6",
            "0x1.66c982d8a8364p-55",
        ),
        ("wide", 0.003): (
            "13975c6e92631e818697809435f0c4ac8fd38d725768bffd8fa1f2de8e34a426",
            "5cf1ebaff136e610d03ea0b519a8a347242148ffb8d2df0912532b84df80e0b4",
            "fbbcd663fc1fc7cacaf53a312122a1229a7728f661be2b92d00f67f30d4295cb",
            "0f0d1483d5f7cf1191a7ac099d71071b64ceab5444ad68235ed08ab87eca17dd",
            "0x1.4644da71ba561p+12",
            "0x1.8e9f3c7900abfp-38",
        ),
        ("wide", 0.03): (
            "56fc0d61cea7882ee2bdfcb2f24782d14626d3a63ed23930fdadeb7d2a7db19c",
            "e271657cc5895627544d617471bbceedb97c65f2de6e0538d4a7148c174de70d",
            "e8709d4dfeefc34eabb25f1014b04bba813c771f2c551b0df55d913d0f42bef2",
            "72d1eab0bdeb126ec38df0572b6f4c0ab6066632ab91e7af9698a16df423b625",
            "0x1.fc1fc49198806p+8",
            "0x1.4d27baeb057a6p-41",
        ),
        ("wide", 0.3): (
            "f2508d66c55564a287e50be1c868ee50de209756ed22e7d79167df0842b0b22c",
            "8a89e6cbf719b6192bcf5de35ae582de9d172d983a9c626b04b03507be809fbe",
            "91c3d10d28200ffd2f50252187d268695350264502d84259de4048a2b42838e8",
            "0e830a21eda646e90fa633a29c483fe4ff25d741246e85599fffe077046c3d80",
            "0x1.36502e926cb60p+5",
            "0x1.b2211f8e2e948p-43",
        ),
        ("wide", 3.0): (
            "96b18e17907e084a2532bca018f87f465c6a5be6331b3be4e636ef268f672780",
            "782655cc13c5fef8082b06491656b10b4ca4a683a228eaa845264332de90fba4",
            "e742bc4ee2b6440046ba5bb5db10bfb17d55f75307763eda1952f2dbec035379",
            "80b411acea297d3ad06d30431d0b6decce3a4a05ba65b4cd09cb694dbbfabc03",
            "0x1.0af0df573c152p-2",
            "0x1.017b53df3e6e0p-47",
        ),
        ("small", 0.003): (
            "7d3fc2225f70ddfb69e6efd503a6577b3af16714abbc61a2042a6c128acad850",
            "ef1508544c9aafb86dbc287c855393337d259a291f99840c0f8334822d0a759e",
            "5cd0dc7182a0799f3929acf7bf7bbd3556e6d3b6a7026253c79a6da608d0d414",
            "f6d3e690d77ef2c09fc9d43e25442681bdb8ac1cf0a4376b6574cd3486cafa88",
            "0x1.1a4be5ec81dd5p+8",
            "0x1.5af4c743e0214p-42",
        ),
        ("small", 0.03): (
            "9b82c8b202cbe410540b0e4f1fde65d51fd5bb0c56dd5f23f65f99059159a035",
            "adabdee0cd0ce802ebd9bb531acd9a23ce16dd9a069cd618a8fcd3e36028660f",
            "e83ae4f2f20919238ed691f773fac5600977812e8e8064a7beb3eb5362fd0091",
            "a93a36f62ead31669280f50327f1398d58d950df882bc79772ac88d9ff9c0b87",
            "0x1.28d053f561a8fp+7",
            "0x1.7b90e7fe12f90p-43",
        ),
        ("small", 0.3): (
            "7dc69ef66797b0ccfe01de914c3b7b23bdf6d9185716a5e4826431133c8a1b36",
            "787813635d01c437ce42935f1295034d623dc041eb41a4bef46fbabf98e39673",
            "7e15bb34397f6117f478020bcedc3a3faaea81d55759463d486a04c9645fd814",
            "5eef40cbe3da0a3ff98a703951bf38292f644609826b76b741d1ef7b3b73373d",
            "0x1.f0730a620f0bap+3",
            "0x1.37db3f4d2e6dap-46",
        ),
        ("small", 3.0): (
            "ea8ea4f4e329185565dd5cc4f454e20c385de2b5f112d049a76451e8b6c505f1",
            "c9cb1e552309ef37a256493b5e0761ce1e2d80ee6cdd659b4235332265f1f1d7",
            "c429a36acb15cf051faf1b7682b1cac449b3f81e85ae84442fc9e3572d092407",
            "8e71540230f354547634ed2ffa3bd94b9f0dddfd314781258f27fb4412bc91f1",
            "0x1.ab1afef1f9ba9p-4",
            "0x1.0a43bca19ec3fp-53",
        ),
    }

    @pytest.mark.parametrize("upper", [25.0, 130.0, 7.0, 3e-308, 1e-310, 1e-320, 1e-323, 5e-324])
    def test_uniform_edges_are_linspace(self, upper):
        # linspace's own arithmetic, also where its step underflows to 0
        want = np.linspace(0.0, upper, analytic._UNIFORM_PANELS + 1)
        assert analytic._uniform_edges(upper).tobytes() == want.tobytes()

    @pytest.mark.parametrize("cell_name, theta", list(DIGESTS))
    def test_profile_is_bit_pinned(self, cell_name, theta):
        prof = analytic.MassProfile(GOLDEN_CELLS[("default", "wide", "small").index(cell_name)], theta)
        arrays = (prof.edges, prof.r, prof.density, prof.M)
        assert all(a.dtype == np.float64 for a in arrays)
        got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays)
        assert got + (prof.total_mass.hex(), prof.error.hex()) == self.DIGESTS[cell_name, theta]


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
                assert quad / exact == pytest.approx(2 * mass / (r * deriv), rel=1e-9, abs=0)

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
                    assert val == pytest.approx(law, rel=1e-4, abs=0)

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
            with pytest.raises(ValueError, match=r"r_jd must be finite and lie in \[0, 25.0\]"):
                analytic.kth_nearest_cdf(x, 1, default_cell, 0.1)
            with pytest.raises(ValueError, match=r"r_jd must be finite and lie in \[0, 25.0\]"):
                analytic.f_k_pdf(x, 1, default_cell, 0.1)
            with pytest.raises(ValueError, match=r"r_jd must be finite and lie in \[0, 25.0\]"):
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
        assert analytic.p_fail_jth(j, cell, th) == pytest.approx(direct, rel=1e-6, abs=0)

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
            analytic.p_fail_jth(1, default_cell, th), rel=1e-12, abs=0
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
        assert analytic.lambda_q_closed(cell, theta) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_closed_validation(self, default_cell):
        with pytest.raises(ValueError):
            analytic.lambda_q_closed(replace(default_cell, path_loss_exponent=2.5), 0.1)
        with pytest.raises(ValueError):
            analytic.lambda_q_closed(default_cell, 0.0)

    def test_quadrature_linear_in_intensity(self, default_cell):
        lo = analytic.lambda_q_quadrature(replace(default_cell, relay_intensity=0.25), 0.1)
        hi = analytic.lambda_q_quadrature(replace(default_cell, relay_intensity=0.5), 0.1)
        assert hi == pytest.approx(2.0 * lo, rel=1e-9, abs=0)
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

    #: The finite-cell mean where it is tiny at exponents other than 2, by
    #: ``scipy.integrate.dblquad`` over [0, pi] x [0, R] (relative tolerance
    #: 1e-10, none absolute), doubled: ``(alpha, theta, R, r_d)`` -> value,
    #: all at lam = 0.5.
    TINY_AT_OTHER_EXPONENTS = {
        (2.5, 3.0, 20.0, 5.0): 4.757936965048323e-30,
        (2.5, 3.0, 10.0, 8.0): 8.741034908179111e-88,
        (4.0, 3.0, 20.0, 5.0): 4.880906246933404e-107,
        (3.0, 0.3, 10.0, 8.0): 3.551658609293652e-18,
        (3.0, 0.3, 10.0, 15.0): 1.058570710307437e-111,
    }

    @pytest.mark.parametrize("alpha, theta, big_r, r_d", TINY_AT_OTHER_EXPONENTS)
    def test_quadrature_keeps_tiny_masses_at_other_exponents(self, alpha, theta, big_r, r_d):
        # an integrand that small once met the absolute tolerances unresolved,
        # 1.5-3x off; exp(-mass) rounds to 1 there, so no outage showed it
        cell = CellGeometry(cell_radius=big_r, dest_distance=r_d, relay_intensity=0.5, path_loss_exponent=alpha)
        want = self.TINY_AT_OTHER_EXPONENTS[alpha, theta, big_r, r_d]
        assert analytic.lambda_q_quadrature(cell, theta) == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_quadrature_skips_a_peak_that_underflows(self, monkeypatch):
        # exp(-theta (2 + 2 (r_d / 2)^alpha)) is 0.0 here, and the nested
        # branch once took ~0.1 s of quadrature to return 0.0
        calls = []
        monkeypatch.setattr(analytic, "integrate_1d", lambda *args: calls.append(args) or 0.0)
        cell = CellGeometry(cell_radius=10.0, dest_distance=12.0, relay_intensity=0.5, path_loss_exponent=6.0)
        assert analytic.lambda_q_quadrature(cell, 0.05) == 0.0
        assert calls == []

    #: The finite-cell mean at exponents other than 2 on R = 5, lam = 0.5,
    #: by ``scipy.integrate.dblquad`` over [0, pi] x [0, R] (relative
    #: tolerance 1e-11, none absolute; the radial range broken at r_d / 2 and
    #: r_d), doubled: ``(alpha, theta, r_d)`` -> value. Integrating in the
    #: other order agrees to 1.2e-13.
    AT_OTHER_EXPONENTS = {
        (2.05, 0.001, 0.0): 38.161280402025476,
        (2.05, 0.01, 0.0): 29.818942814204476,
        (2.05, 0.1, 0.0): 6.09496697208421,
        (2.05, 0.001, 2.5): 37.90047238831274,
        (2.05, 0.01, 2.5): 28.06240502295589,
        (2.05, 0.1, 2.5): 4.3056099223557265,
        (2.05, 0.001, 5.0): 37.12408833691036,
        (2.05, 0.01, 5.0): 23.372620909256035,
        (2.05, 0.1, 5.0): 1.4622557809923755,
        (2.05, 0.001, 7.5): 35.85109309904119,
        (2.05, 0.01, 7.5): 17.1809477881845,
        (2.05, 0.1, 7.5): 0.21211199994726532,
        (2.5, 0.001, 0.0): 37.31211285337093,
        (2.5, 0.01, 0.0): 24.702565650412986,
        (2.5, 0.1, 0.0): 4.340727198788637,
        (2.5, 0.001, 2.5): 36.67711148990952,
        (2.5, 0.01, 2.5): 21.770466776492256,
        (2.5, 0.1, 2.5): 2.4166862243275826,
        (2.5, 0.001, 5.0): 34.7206578479892,
        (2.5, 0.01, 5.0): 14.851643572384528,
        (2.5, 0.1, 5.0): 0.3583306161255246,
        (2.5, 0.001, 7.5): 31.364548179106006,
        (2.5, 0.01, 7.5): 7.568327332771259,
        (2.5, 0.1, 7.5): 0.0084611373289397,
        (3.0, 0.001, 0.0): 35.560803804863454,
        (3.0, 0.01, 0.0): 18.10055729957932,
        (3.0, 0.1, 0.0): 3.394737643193541,
        (3.0, 0.001, 2.5): 34.019879458085065,
        (3.0, 0.01, 2.5): 14.525151419705322,
        (3.0, 0.1, 2.5): 1.3920916785829665,
        (3.0, 0.001, 5.0): 29.345493917955473,
        (3.0, 0.01, 5.0): 7.564565905136368,
        (3.0, 0.1, 5.0): 0.05152556563807915,
        (3.0, 0.001, 7.5): 21.965009826312095,
        (3.0, 0.01, 7.5): 2.2172549551571077,
        (3.0, 0.1, 7.5): 2.0886462144508574e-05,
        (4.0, 0.001, 0.0): 27.528990571477784,
        (4.0, 0.01, 0.0): 9.648586202117022,
        (4.0, 0.1, 0.0): 2.548536884894225,
        (4.0, 0.001, 2.5): 22.897974689639963,
        (4.0, 0.01, 2.5): 6.032983584540916,
        (4.0, 0.1, 2.5): 0.5661993180401169,
        (4.0, 0.001, 5.0): 13.698994568445281,
        (4.0, 0.01, 5.0): 1.35077839783256,
        (4.0, 0.1, 5.0): 0.0001167533237628624,
        (4.0, 0.001, 7.5): 5.418175307038557,
        (4.0, 0.01, 7.5): 0.02826349477925829,
        (4.0, 0.1, 7.5): 8.733891593483094e-19,
        (6.0, 0.001, 0.0): 11.11090542084431,
        (6.0, 0.01, 0.0): 5.065225875290004,
        (6.0, 0.1, 0.0): 1.9637783903473607,
        (6.0, 0.001, 2.5): 6.502737433557603,
        (6.0, 0.01, 2.5): 1.697397359964158,
        (6.0, 0.1, 2.5): 0.13774221927984112,
        (6.0, 0.001, 5.0): 1.2605417917069508,
        (6.0, 0.01, 5.0): 0.00207698886041959,
        (6.0, 0.1, 5.0): 1.5156400748864023e-23,
        (6.0, 0.001, 7.5): 0.0021340422792349074,
        (6.0, 0.01, 7.5): 4.035451496102832e-26,
        (6.0, 0.1, 7.5): 1.3741695172084627e-244,
    }

    @pytest.mark.parametrize("alpha, theta, r_d", AT_OTHER_EXPONENTS)
    def test_quadrature_matches_dblquad_at_other_exponents(self, alpha, theta, r_d):
        cell = CellGeometry(cell_radius=5.0, dest_distance=r_d, relay_intensity=0.5, path_loss_exponent=alpha)
        want = self.AT_OTHER_EXPONENTS[alpha, theta, r_d]
        assert analytic.lambda_q_quadrature(cell, theta) == pytest.approx(want, rel=1e-10, abs=0.0)

    #: As above with the midpoint of source and destination outside the cell
    #: (R = 10, r_d = 25): ``(alpha, theta)`` -> value. The integrand was once
    #: taken relative to its peak at that midpoint, so within the cell it
    #: fell below the absolute tolerance unresolved, 4% off at (3, 0.1) and
    #: 21% at (4, 0.01).
    PEAK_OUTSIDE_THE_CELL = {
        (2.5, 0.001): 10.360252685257283,
        (2.5, 0.01): 1.8004404481544676e-05,
        (2.5, 0.1): 2.468377974566173e-53,
        (3.0, 0.001): 0.07099687925320974,
        (3.0, 0.01): 2.768759971776049e-20,
        (3.0, 0.1): 7.983365654840584e-193,
        (4.0, 0.001): 3.8987646760829353e-28,
        (4.0, 0.01): 1.386779878436296e-266,
    }

    @pytest.mark.parametrize("alpha, theta", PEAK_OUTSIDE_THE_CELL)
    def test_quadrature_scales_by_the_peak_within_the_cell(self, alpha, theta):
        cell = CellGeometry(cell_radius=10.0, dest_distance=25.0, relay_intensity=0.5, path_loss_exponent=alpha)
        want = self.PEAK_OUTSIDE_THE_CELL[alpha, theta]
        assert analytic.lambda_q_quadrature(cell, theta) == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_unconverged_bearing_rule_raises_with_its_estimate(self, default_cell, monkeypatch):
        # 2 and 4 midpoint bearings disagree; the estimate is not returned
        monkeypatch.setattr(analytic, "_BEARINGS", 2)
        cell = replace(default_cell, path_loss_exponent=3.0)
        with pytest.raises(QuadratureError, match="^bearing counts disagree$") as info:
            analytic.lambda_q_quadrature(cell, 0.1)
        estimate, error = info.value.estimate, info.value.error
        assert error > analytic._INNER_SPEC.rel_tol * estimate > 0.0
        monkeypatch.undo()
        assert estimate == pytest.approx(analytic.lambda_q_quadrature(cell, 0.1), rel=0.5)

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
        assert analytic.lambda_q_quadrature(cell, theta) == pytest.approx(nested, rel=1e-9, abs=0)

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


@pytest.mark.parametrize("k", [0, -1, True, 2.0])
def test_poisson_tail_refuses_a_bad_rank(k):
    # unguarded, each of these read as k = 1 and gave P(N >= 1) = 0.8647
    with pytest.raises(ValueError, match=f"^k must be an integer >= 1, got {k!r}$"):
        analytic.poisson_tail(2.0, k)
    assert analytic.poisson_tail(2.0, 1) == 1.0 - math.exp(-2.0)


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
