import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import sample_field
from relaygeom import montecarlo as mc
from relaygeom.montecarlo import sq_dists_to_dest
from relaygeom.model import CellGeometry, RadioParams, Thresholds, compute_thresholds


def _count_cell(mean: float, cell_radius: float = 1.0) -> CellGeometry:
    """A cell whose relay count has the given Poisson mean."""
    return CellGeometry(
        cell_radius=cell_radius, dest_distance=0.0, relay_intensity=mean / (math.pi * cell_radius**2)
    )


def _counts(cell: CellGeometry, rng, n: int) -> np.ndarray:
    return np.array([sample_field(cell, rng)[0].size for _ in range(n)])


def _big_field(cell_radius: float, rng, mean: float = 50_000.0):
    """One field with ~``mean`` relays: positions are i.i.d. given the count."""
    return sample_field(_count_cell(mean, cell_radius), rng)


class TestPoissonCount:
    def test_zero_mean_always_zero(self, rng):
        # a positive intensity whose mean count underflows to exactly 0
        cell = CellGeometry(cell_radius=1e-100, dest_distance=0.0, relay_intensity=1e-300)
        assert cell.mean_relay_count == 0.0
        for _ in range(50):
            radii, angles = sample_field(cell, rng)
            assert radii.shape == angles.shape == (0,)

    def test_mean_and_variance(self, rng):
        draws = _counts(_count_cell(4.0), rng, 100_000)
        # Poisson: mean == variance; 3-sigma bands at n = 1e5
        assert abs(draws.mean() - 4.0) < 0.02
        assert abs(draws.var(ddof=1) - 4.0) < 0.1

    def test_void_probability(self, rng):
        draws = _counts(_count_cell(2.0), rng, 100_000)
        p0 = float(np.mean(draws == 0))
        sigma = math.sqrt(0.1353 * (1 - 0.1353) / 100_000)
        assert abs(p0 - math.exp(-2.0)) < 3 * sigma

    @pytest.mark.parametrize("mean", [-1.0, math.inf, math.nan])
    def test_rejects_bad_mean(self, mean):
        # the count's mean comes from the cell, which refuses a bad intensity
        with pytest.raises(ValueError, match="relay_intensity"):
            CellGeometry(cell_radius=1.0, dest_distance=0.0, relay_intensity=mean)


class TestUniformDisk:
    def test_half_radius_mass_is_quarter(self, rng):
        radii, _ = _big_field(4.0, rng)
        n = radii.size
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert abs(np.count_nonzero(radii <= 2.0) / n - 0.25) < 3 * sigma

    def test_mean_radius(self, rng):
        radii, _ = _big_field(3.0, rng)
        # E[r] = (2/3) R; Var[r] = R^2 (1/2 - 4/9)
        sigma = 3.0 * math.sqrt(0.5 - 4.0 / 9.0) / math.sqrt(radii.size)
        assert abs(radii.mean() - 2.0) < 3 * sigma

    def test_angles_isotropic_over_sectors(self, rng):
        _, angles = _big_field(1.0, rng, mean=40_000.0)
        n = angles.size
        assert np.all((angles >= 0.0) & (angles < 2 * math.pi))
        counts, _ = np.histogram(angles, bins=8, range=(0.0, 2 * math.pi))
        sigma = math.sqrt(n * 0.125 * 0.875)
        assert np.all(np.abs(counts - n / 8) < 3.5 * sigma)

    def test_radial_bins_uniform_in_area(self, rng):
        radii, _ = _big_field(2.0, rng, mean=40_000.0)
        n = radii.size
        nbins = 10
        edges = 2.0 * np.sqrt(np.linspace(0.0, 1.0, nbins + 1))  # equal-area shells
        counts, _ = np.histogram(radii, bins=edges)
        assert counts.sum() == n
        sigma = math.sqrt(n * (1 / nbins) * (1 - 1 / nbins))
        assert np.all(np.abs(counts - n / nbins) < 3.5 * sigma)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError, match="cell_radius"):
            CellGeometry(cell_radius=0.0, dest_distance=0.0, relay_intensity=0.5)


class TestSamplePpp:
    def test_mean_count(self, rng):
        cell = CellGeometry(cell_radius=10.0, dest_distance=5.0, relay_intensity=0.5)
        counts = _counts(cell, rng, 10_000)
        target = 0.5 * math.pi * 100.0  # 157.08
        sigma = math.sqrt(target / 10_000)
        assert abs(counts.mean() - target) < 3 * sigma

    def test_dispersion_index_near_one(self, rng):
        cell = CellGeometry(cell_radius=6.0, dest_distance=0.0, relay_intensity=0.4)
        counts = _counts(cell, rng, 10_000)
        dispersion = counts.var(ddof=1) / counts.mean()
        assert abs(dispersion - 1.0) < 3 * math.sqrt(2.0 / 10_000)

    def test_vanishing_intensity_gives_empty_fields(self, rng):
        cell = CellGeometry(cell_radius=1.0, dest_distance=0.0, relay_intensity=1e-7)
        assert all(count == 0 for count in _counts(cell, rng, 1000))

    def test_subdisk_restriction_is_poisson(self, rng):
        # Counts inside a half-radius disk: Poisson with a quarter of the mass.
        cell = CellGeometry(cell_radius=8.0, dest_distance=0.0, relay_intensity=0.5)
        sub = np.array(
            [int(np.count_nonzero(sample_field(cell, rng)[0] <= 4.0)) for _ in range(10_000)]
        )
        target = 0.5 * math.pi * 16.0
        assert abs(sub.mean() - target) < 3 * math.sqrt(target / 10_000)
        assert abs(sub.var(ddof=1) / sub.mean() - 1.0) < 3 * math.sqrt(2.0 / 10_000)

    def test_parallel_arrays_inside_cell(self, rng):
        cell = CellGeometry(cell_radius=10.0, dest_distance=0.0, relay_intensity=0.1)
        radii, angles = sample_field(cell, rng)
        assert radii.ndim == 1 and radii.shape == angles.shape and radii.size > 0
        assert np.all((radii >= 0.0) & (radii <= 10.0))
        assert np.all((angles >= 0.0) & (angles < 2 * math.pi))


class TestSampleFields:
    def test_no_generators_draw_no_field(self, default_cell):
        ends, rows = mc._draw_fields(default_cell, [])
        assert ends.shape == (0,) and rows.shape == (4, 0)

    def test_rows_sit_at_the_head_of_a_buffer_they_fit(self, default_cell):
        def draw(out=None):
            rngs = [np.random.default_rng(seed) for seed in (1, 2, 3)]
            return mc._draw_fields(default_cell, rngs, out=out)

        ends, want = draw()
        buf = np.empty(want.size + 5)
        for out, shared in ((buf, True), (buf[: want.size], True), (buf[: want.size - 1], False)):
            got_ends, got = draw(out)
            assert got_ends.tolist() == ends.tolist() and got.shape == want.shape
            assert np.shares_memory(got, out) == shared
            assert got[:2].tobytes() == want[:2].tobytes()  # the field rows
            if shared:
                assert got.__array_interface__["data"][0] == out.__array_interface__["data"][0]


def _dist(points, r_d: float) -> np.ndarray:
    radii, angles = (np.array(c, dtype=float).reshape(-1) for c in zip(*points))
    return np.sqrt(sq_dists_to_dest(radii, angles, r_d))


_POINTS = st.lists(
    st.tuples(st.floats(0, 50), st.floats(0, 2 * math.pi)), min_size=1, max_size=32
)


class TestDistToDest:
    def test_coincident(self):
        for r_d in (0.0, 0.5, 5.0, 17.25, 1e3):
            d2 = sq_dists_to_dest(np.array([r_d, r_d + 1.0]), np.zeros(2), r_d)
            assert d2[0] == 0.0
            assert d2[1] == pytest.approx(1.0)

    def test_pythagorean(self):
        # leg r at a right angle to the leg r_d = 12: triples 5-12-13, 9-12-15,
        # 16-12-20 and 35-12-37, on both sides of the reference ray
        radii = np.array([5.0, 9.0, 16.0, 35.0])
        for angle in (math.pi / 2, 3 * math.pi / 2):
            got = np.sqrt(sq_dists_to_dest(radii, np.full(4, angle), 12.0))
            assert np.allclose(got, [13.0, 15.0, 20.0, 37.0], rtol=0, atol=1e-12)

    def test_collinear_opposite(self):
        got = _dist([(2.0, math.pi), (0.0, math.pi), (7.5, math.pi)], 5.0)
        assert np.allclose(got, [7.0, 5.0, 12.5], rtol=0, atol=1e-12)

    def test_law_of_cosines_in_its_written_order(self, rng):
        # bit for bit the expression r^2 + r_d^2 - 2 r_d r cos(angle), clipped
        # at 0, evaluated left to right; the inputs are left as they were
        radii = 25.0 * np.sqrt(rng.random(100_000))
        angles = 2.0 * math.pi * rng.random(100_000)
        radii[:3], angles[:3] = 5.0, 0.0  # on the destination
        copies = radii.copy(), angles.copy()
        r_d = 5.0
        want = np.maximum(radii * radii + r_d * r_d - 2.0 * r_d * radii * np.cos(angles), 0.0)
        assert sq_dists_to_dest(radii, angles, r_d).tobytes() == want.tobytes()
        assert radii.tobytes() == copies[0].tobytes() and angles.tobytes() == copies[1].tobytes()

    @given(points=_POINTS, r_d=st.floats(0, 50))
    def test_reflection_symmetry(self, points, r_d):
        radii = np.array([p[0] for p in points])
        angles = np.array([p[1] for p in points])
        direct = sq_dists_to_dest(radii, angles, r_d)
        mirrored = sq_dists_to_dest(radii, 2 * math.pi - angles, r_d)
        # compare squared distances: near-coincident geometries amplify a
        # 1-ulp cosine difference unboundedly through the square root
        tol = 1e-12 * (1.0 + (radii + r_d) ** 2)
        assert np.all(np.abs(direct - mirrored) <= tol)

    @given(
        points=st.lists(
            st.tuples(st.floats(0, 50), st.floats(-2 * math.pi, 2 * math.pi)),
            min_size=1,
            max_size=32,
        ),
        r_d=st.floats(0, 50),
    )
    def test_triangle_inequality(self, points, r_d):
        radii = np.array([p[0] for p in points])
        assert np.all(_dist(points, r_d) <= radii + r_d + 1e-9)
        # reverse inequality on squares: sqrt amplifies rounding near 0
        d2 = sq_dists_to_dest(radii, np.array([p[1] for p in points]), r_d)
        assert np.all(d2 >= (radii - r_d) ** 2 - 1e-12 * (1.0 + (radii + r_d) ** 2))


def _replay(cell: CellGeometry, th: Thresholds, k: int, seed: int, t: int) -> tuple[bool, bool]:
    """Rebuild trial ``t`` by hand from its stream, in the documented draw
    order, and decide it with a sort-truncate oracle. Returns the
    (full-knowledge, distance-ranked) outage flags."""
    rng = mc.trial_rng(seed, t)
    n = int(rng.poisson(cell.mean_relay_count))
    radii = [cell.cell_radius * math.sqrt(u) for u in rng.random(n)]
    angles = [2.0 * math.pi * v for v in rng.random(n)]
    first = rng.standard_exponential(n)
    qualified = [i for i in range(n) if first[i] >= th.theta_first * (1.0 + radii[i] * radii[i])]
    second = rng.standard_exponential(len(qualified))
    r_d = cell.dest_distance
    d2 = [
        max(radii[i] * radii[i] + r_d * r_d - 2.0 * r_d * radii[i] * math.cos(angles[i]), 0.0)
        for i in qualified
    ]
    success = [second[j] >= th.theta_second * (1.0 + d2[j]) for j in range(len(qualified))]
    top_k = sorted(range(len(qualified)), key=lambda j: (d2[j], j))[:k]
    return not any(success), not any(success[j] for j in top_k)


class TestKNearest:
    """Selection of the ``k`` qualified relays nearest to the destination,
    which the distance-ranked trial makes on squared distances."""

    def test_empty_input(self, default_cell, ring_field):
        ring_field(2.0, 0)
        for k in (1, 2, 5):
            assert mc.trial_stat_csi(default_cell, Thresholds(0.0, 0.0), k, mc.trial_rng(1, k))

    def test_k_at_least_input_returns_all_sorted(self, default_cell):
        # with a slot for every qualified relay, ranking selects them all and
        # the ranked frame fails exactly when the full-knowledge one does
        th = compute_thresholds(RadioParams(snr_db=12.0, target_rate=1.0, num_relays=1))
        outages = 0
        for t in range(300):
            exact = mc.trial_exact_csi(default_cell, th, mc.trial_rng(2, t))
            outages += exact
            assert mc.trial_stat_csi(default_cell, th, 10**6, mc.trial_rng(2, t)) == exact
        assert 0 < outages < 300

    def test_against_sort_truncate_oracle(self, default_cell):
        # draw-order replay: count, radii, angles, first-hop gains, then
        # second-hop gains of the qualified relays in input order
        flags = set()
        for t in range(600):
            k = 1 + t % 4
            th = compute_thresholds(RadioParams(snr_db=17.0, target_rate=1.0, num_relays=k))
            exact, ranked = _replay(default_cell, th, k, 31, t)
            assert mc.trial_exact_csi(default_cell, th, mc.trial_rng(31, t)) is exact
            assert mc.trial_stat_csi(default_cell, th, k, mc.trial_rng(31, t)) is ranked
            flags.add((exact, ranked))
        # both outcomes and a ranking loss all occur, so the replay discriminates
        assert {(False, False), (False, True), (True, True)} <= flags

    def test_tie_break_by_input_index(self, ring_field):
        # four relays equidistant from the destination at the center; the
        # two earliest in input order take the two slots
        ring_field(2.0, 4)
        cell = CellGeometry(cell_radius=3.0, dest_distance=0.0, relay_intensity=0.5)
        th = Thresholds(0.0, math.log(2.0) / 5.0)  # each relay fails w.p. 1/2
        late_would_differ = 0
        for t in range(400):
            rng = mc.trial_rng(6, t)
            rng.standard_exponential(4)  # first hop: every relay qualifies
            success = rng.standard_exponential(4) >= th.theta_second * (1.0 + 4.0)
            ranked = mc.trial_stat_csi(cell, th, 2, mc.trial_rng(6, t))
            assert ranked == (not success[:2].any())
            late_would_differ += (not success[2:].any()) != ranked
        assert late_would_differ > 0

    def test_output_distances_non_decreasing(self, default_cell):
        # ranked selections are nested prefixes: under one frame format a
        # further slot can only rescue a trial, never lose it
        th = compute_thresholds(RadioParams(snr_db=18.0, target_rate=1.0, num_relays=2))
        for t in range(300):
            flags = [mc.trial_stat_csi(default_cell, th, k, mc.trial_rng(4, t)) for k in (1, 2, 3, 8)]
            assert all(a >= b for a, b in zip(flags, flags[1:]))

    def test_rejects_bad_k(self, default_cell):
        for k in (0, -2, 2.0, "3"):
            with pytest.raises(ValueError):
                mc.trial_stat_csi(default_cell, Thresholds(0.1, 0.1), k, mc.trial_rng(0, 0))
