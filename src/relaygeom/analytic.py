"""Closed forms and semi-analytic outage expressions.

The qualified-relay field (relays that decoded the source broadcast) is a
thinned Poisson process with intensity ``lam * exp(-theta (1 + r^2))`` at
distance ``r`` from the source. Everything here derives from its mean
measure seen either from the source or from the displaced destination:

* :class:`MassProfile` / ``lambda_prime`` -- the destination-view mean
  measure ``M(r)``, the expected number of qualified relays within ``r`` of
  the destination, with its closed density (:func:`lambda_prime_derivative`,
  an ``I0`` Bessel function) on fixed spectral panels, built once per
  threshold. It is the one implementation of ``M`` here.
* ``f_k_pdf`` / ``kth_nearest_cdf`` -- density and distribution of the
  distance to the k-th nearest qualified relay.
* ``p_fail_jth`` / ``outage_stat`` -- per-relay failure probabilities and
  their product, the outage of distance-ranked relay selection under the
  approximation that ranked relays fail independently (exact for one relay;
  for more it runs low at high SNR). ``exact_ranked_outage`` is the same
  outage without that approximation.
* ``lambda_q_*`` / ``outage_exact_csi`` -- mean number of relays connected
  to both endpoints and the void-probability outage of selection under full
  channel knowledge.
* ``mean_count_from_bs`` -- the source-view mean measure, closed since the
  thinned field is isotropic about the source; the twin of ``lambda_prime``.

All closed forms assume ``path_loss_exponent == 2`` (they complete a square
in the radial coordinate) and reject other exponents. ``theta == 0`` is
rejected wherever a ``1/theta`` prefactor appears; the homogeneous limits
are documented in the tests instead. Every function here is pure and
deterministic: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .model import CellGeometry, RadioParams, Thresholds, compute_thresholds
from .model import check_choice, check_count, check_finite, check_radii
from .quadrature import DEFAULT_SPEC, QuadratureError, QuadratureSpec, integrate_1d
from .specials import erfcx, i0e

#: Variants of the doubly-connected mean measure, see :func:`outage_exact_csi`.
LAMBDA_Q_METHODS = ("closed", "quadrature")

# Budget of lambda_q_quadrature's radial integral at alpha != 2, whose two
# bearing counts must also agree within rel_tol, and of the gate's mass
# oracle (validation._angular_mass); tighter than the default.
_INNER_SPEC = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-10, max_subdivisions=256)
#: Midpoint bearings on [0, pi] of lambda_q_quadrature at alpha != 2.
_BEARINGS = 256
# Error budget of every MassProfile integral: abs 1e-10, rel 1e-8.
_PROFILE_ABS_TOL = 1e-10
_PROFILE_REL_TOL = 1e-8


def _require_alpha_two(cell: CellGeometry, what: str) -> None:
    if cell.path_loss_exponent != 2.0:
        raise ValueError(f"{what} requires path_loss_exponent == 2, got {cell.path_loss_exponent}")


def _inner_core(
    r_jd: float, phi: np.ndarray, r_d: float, theta: float, log_scale: float
) -> np.ndarray:
    """``exp(log_scale) * integral_0^r_jd r exp(-theta (r^2 - a r)) dr`` with
    ``a = 2 r_d cos(phi)``, vectorized over ``phi``.

    Evaluated through the antiderivative:

        exp(log_scale) * [ (1 - exp(-theta (r_jd^2 - a r_jd))) / (2 theta)
          + sqrt(pi/theta) (a/4) exp(theta a^2/4)
            (erf(a sqrt(theta)/2) - erf(a sqrt(theta)/2 - sqrt(theta) r_jd)) ]

    The erf difference is computed through erfcx with analytic exponent
    recombination so that no digits are lost when both arguments are large;
    one erfcx call takes both arguments, ``|u|`` and ``|alf|``, stacked.
    Every exponent is at most ``log_scale + theta r_d^2``, so the callers of
    :func:`_disk_mass`, whose ``log_scale`` lies below ``-theta r_d^2``,
    keep them nonpositive: nothing overflows at any theta.
    """
    a = 2.0 * r_d * np.cos(phi)
    s = math.sqrt(theta)
    alf = 0.5 * a * s
    u = alf - s * r_jd
    big_a = math.exp(log_scale)
    # exp(log_scale) - exp(log_scale + x) with x = -theta (r^2 - a r), as
    # -+exp(log_scale + max(x, 0)) * expm1(-|x|): expm1 keeps the digits
    # as theta -> 0, and folding max(x, 0) into the exponent avoids an
    # underflowed exp(log_scale) times an overflowed expm1(x) at large theta
    x = -theta * (r_jd * r_jd - a * r_jd)
    term1 = (
        np.where(x > 0.0, 1.0, -1.0)
        * np.exp(log_scale + np.maximum(x, 0.0))
        * np.expm1(-np.abs(x))
        / (2.0 * theta)
    )
    e0 = log_scale + alf * alf  # = log_scale + theta a^2 / 4
    eu = np.exp(e0 - u * u)
    cx_u, cx_a = erfcx(np.abs(np.stack([u, alf])))
    # exp(e0) * (erfc(u) - erfc(alf)); exp(e0 - alf^2) is big_a up to rounding.
    at_u, at_alf = eu * cx_u, big_a * cx_a
    core = np.where(
        u >= 0.0,
        at_u - at_alf,
        np.where(alf >= 0.0, 2.0 * np.exp(e0) - at_u - at_alf, at_alf - at_u),
    )
    out = math.sqrt(math.pi / theta) * 0.25 * a  # term2, then term1 + term2, in place
    out *= core
    out += term1
    return out


def _disk_mass(lam, rho, offset, theta, log_scale, spec: QuadratureSpec) -> float:
    """``lam * 2 * integral_0^pi _inner_core(rho, phi, offset, theta, log_scale) dphi``.

    The mass of the intensity ``lam exp(log_scale - theta (r^2 - 2 offset r
    cos(phi)))`` over the disk of radius ``rho`` about the polar origin; it
    is even in the bearing ``phi``, so [0, pi] is integrated (adaptively,
    under ``spec``) and doubled. ``lam`` stays outside the integral, so the
    quadrature's absolute tolerance does not scale with the density.
    :func:`lambda_q_quadrature` (alpha = 2) and the gate's mass oracle
    ``validation._angular_mass`` are its callers.
    """

    def slices(phis: np.ndarray) -> np.ndarray:
        return _inner_core(rho, phis, offset, theta, log_scale)

    return lam * 2.0 * integrate_1d(slices, 0.0, math.pi, spec)


def lambda_prime(r_jd, cell: CellGeometry, theta: float):
    """Expected number of qualified relays within ``r_jd`` of the destination,
    elementwise over ``r_jd`` (a float for a scalar).

    ``lam * exp(-theta (1 + r_d^2)) * integral_0^2pi I(r_jd, phi) dphi``,
    read from one :class:`MassProfile` per call, so it keeps its relative
    accuracy where the mass is tiny (low SNR).

    The profile integrates over whole circles about the destination, as if
    the qualified field extended beyond the cell edge. So this is exact for
    ``r_jd <= cell.inner_radius``, and past that it overcounts by
    at most the qualified mass outside the cell, ``pi lam exp(-theta (1 +
    R^2)) / theta``. Until the circles are clipped to the cell, a
    ``ValueError`` naming the cell edge refuses every call with such an
    ``r_jd`` where that mass exceeds the profile's own error budget
    ``max(1e-10, 1e-8 M(r_jd))``; :func:`f_k_pdf` and
    :func:`kth_nearest_cdf` inherit the refusal.

    Zero at 0, non-decreasing in ``r_jd`` and bounded by the total qualified
    mass ``pi lam exp(-theta) / theta``.
    """
    _require_alpha_two(cell, "lambda_prime")
    r_jd = check_radii("r_jd", r_jd, cell.outer_radius)  # the profile clips to that range
    profile = MassProfile(cell, theta)
    mass = np.maximum(profile.cumulative_at(profile.density, r_jd), 0.0)
    mass = np.where(r_jd > 0.0, mass, 0.0)
    inside = cell.inner_radius
    outside = math.pi * cell.relay_intensity * math.exp(-theta * (1.0 + cell.cell_radius**2)) / theta
    if np.any((r_jd > inside) & (outside > np.maximum(_PROFILE_ABS_TOL, _PROFILE_REL_TOL * mass))):
        raise ValueError(
            f"lambda_prime is unclipped at the cell edge: circles past r_jd = {inside:g} leave "
            f"the cell and the qualified mass outside it ({outside:.3e}) exceeds the error budget"
        )
    return float(mass) if mass.ndim == 0 else mass


def lambda_prime_derivative(r_jd, cell: CellGeometry, theta: float):
    """Radial derivative of :func:`lambda_prime`, elementwise over ``r_jd``
    (a float for a scalar); :class:`MassProfile` samples its density here.

    Equals ``r_jd`` times the qualified intensity integrated over the circle
    of radius ``r_jd`` about the destination:

        r_jd * lam * integral_0^2pi exp(-theta (1 + r_d^2 + r_jd^2
                                        - 2 r_d r_jd cos(phi))) dphi

    The angular integral is ``2 pi I0(2 theta r_d r_jd)`` (Abramowitz &
    Stegun 9.6.16), so it is closed: ``2 pi lam r_jd exp(-theta (1 + (r_jd -
    r_d)^2)) i0e(2 theta r_d r_jd)`` with the scaled Bessel function
    ``i0e``; the exponent is nonpositive, so nothing overflows at any theta.
    """
    _require_alpha_two(cell, "lambda_prime_derivative")
    check_finite("theta", theta, 0, strict=True)
    r = check_radii("r_jd", r_jd)
    r_d = cell.dest_distance
    d = r - r_d
    out = 2.0 * math.pi * cell.relay_intensity * r
    out *= np.exp(-theta * (1.0 + d * d))
    out *= i0e(2.0 * theta * r_d * r)
    return float(out) if out.ndim == 0 else out


def _poisson_ladder(x, k: int) -> np.ndarray:
    """``x^j / j!`` for ``j = 0 .. k - 1``, elementwise over ``x`` and stacked
    along a leading axis, each term from the one before: ``t_0 = 1``,
    ``t_j = t_(j-1) x / j``."""
    terms = np.empty((k,) + np.shape(x))
    terms[0] = 1.0
    for j in range(1, k):
        term = terms[j, ...]  # a view, also where x is a scalar
        np.multiply(terms[j - 1, ...], x, term)
        term /= j
    return terms


def poisson_tail(mass, k: int):
    """``P(N >= k)`` for ``N`` Poisson with mean ``mass``, elementwise:
    ``1 - exp(-mass) * sum_{i<k} mass^i / i!``; ``k`` is an integer >= 1."""
    check_count("k", k)
    mass = np.asarray(mass, dtype=float)
    out = 1.0 - np.exp(-mass) * sum(_poisson_ladder(mass, k))
    return float(out) if out.ndim == 0 else out


def _chebyshev_operators(n: int):
    """Spectral operators on ``n`` Chebyshev points of the first kind.

    Returns the ascending nodes on [-1, 1]; the matrix mapping node values
    to Chebyshev coefficients ``c`` of the interpolant; the matrix mapping
    node values to the coefficients ``b`` (length ``n + 1``) of its
    antiderivative that vanishes at -1; the cumulative matrix (node values
    to that antiderivative at the nodes); and the weights of the integral
    over [-1, 1] (Fejer's first rule).
    """
    ang = (2.0 * np.arange(n)[::-1] + 1.0) * math.pi / (2.0 * n)
    nodes = np.cos(ang)
    to_coef = (2.0 / n) * np.cos(np.outer(np.arange(n), ang))
    to_coef[0] *= 0.5
    # int T_0 = T_1, int T_1 = T_2 / 4, int T_k = T_{k+1} / (2 (k+1)) - T_{k-1} / (2 (k-1))
    integ = np.zeros((n + 1, n))
    integ[1, 0] = 1.0
    integ[2, 1] = 0.25
    for k in range(2, n):
        integ[k + 1, k] = 0.5 / (k + 1)
        integ[k - 1, k] = -0.5 / (k - 1)
    # the constant term puts the antiderivative at zero at t = -1 (T_k(-1) = (-1)^k)
    integ[0] = -np.einsum("k,kj->j", (-1.0) ** np.arange(1, n + 1), integ[1:])
    antideriv = np.einsum("ik,kj->ij", integ, to_coef)
    cumulative = np.einsum("ik,kj->ij", np.cos(np.outer(ang, np.arange(n + 1))), antideriv)
    weights = antideriv.sum(axis=0)  # T_k(1) = 1
    return nodes, to_coef, antideriv, cumulative, weights


#: Nodes per profile panel; the top ``_CHEB_TAIL`` Chebyshev coefficients of
#: each panel's interpolant make the error estimate. The operators are
#: applied with einsum: at these sizes a BLAS call costs more than the work.
_CHEB_N = 24
_CHEB_TAIL = 4
_CHEB_NODES, _CHEB_TO_COEF, _CHEB_ANTIDERIV, _CHEB_CUMULATIVE, _CHEB_WEIGHTS = (
    _chebyshev_operators(_CHEB_N)
)
#: Uniform panels across [0, R + r_d] before the peak and mass breakpoints.
_UNIFORM_PANELS = 16
#: Breakpoints ``r_d + m / sqrt(theta)`` around the intensity peak.
_PEAK_OFFSETS = np.array([-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0])
#: Mass levels whose radii become breakpoints: they pace the exp(-M) M^j
#: factors of the order statistics, whatever the density.
_MASS_LEVELS = 2.0 ** np.arange(-4, 11)


@dataclass(frozen=True, eq=False)
class MassProfile:
    """The destination-view mean measure ``M(r)`` of the qualified field for
    one threshold ``theta``, on fixed spectral panels over [0, R + r_d].

    :func:`lambda_prime`, :func:`f_k_pdf` and the outages all read ``M``
    here; the qualified field is taken to extend past the cell edge. The
    density ``dM/dr`` is the closed form of :func:`lambda_prime_derivative`,
    sampled at ``_CHEB_N`` Chebyshev points of the first kind per panel (open
    nodes, so ``r = 0`` is never one), and ``M`` is its per-panel spectral
    cumulative integral.

    Panel breakpoints: ``_UNIFORM_PANELS`` uniform panels; ``r_d + m /
    sqrt(theta)`` for ``m`` in ``_PEAK_OFFSETS``, which resolve the
    intensity peak at any theta; and the radii where a first pass reaches
    the mass levels ``_MASS_LEVELS``, which resolve the ``exp(-M) M^j``
    factors of the order statistics however dense the field is. The refined
    pass evaluates ``dM/dr`` only on the first-pass panels that those radii
    split; every other panel keeps its nodes and its first-pass values.

    Every integral taken on the profile (``M`` itself, :meth:`total`,
    :meth:`cumulative_at`, and the failure-weighted mass of
    :func:`exact_ranked_outage`) carries an error estimate: the
    magnitude of the top ``_CHEB_TAIL`` Chebyshev coefficients of each
    panel's interpolant, i.e. the gap to a lower-order rule on the same
    panels. Past abs 1e-10 or rel 1e-8 it raises :class:`QuadratureError`
    with the estimate and the bound. ``error`` holds the estimate for ``M``.
    Each integral computes its panel offsets once; :meth:`total` also takes
    a stack of functions and integrates them in one pass.

    ``r``, ``density`` and ``M`` are read-only arrays of shape (panels,
    ``_CHEB_N``), ascending in ``r``; functions to integrate are sampled on
    ``r``. ``total_mass`` is ``M(R + r_d)``.
    """

    cell: CellGeometry
    theta: float
    edges: np.ndarray = field(init=False, repr=False)
    r: np.ndarray = field(init=False, repr=False)
    density: np.ndarray = field(init=False, repr=False)
    M: np.ndarray = field(init=False, repr=False)
    total_mass: float = field(init=False)
    error: float = field(init=False)
    _half: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        cell, theta = self.cell, self.theta
        _require_alpha_two(cell, "MassProfile")
        check_finite("theta", theta, 0, strict=True)
        upper = cell.outer_radius
        peaks = cell.dest_distance + _PEAK_OFFSETS / math.sqrt(theta)
        first = _sorted_unique(_uniform_edges(upper), peaks[(peaks > 0) & (peaks < upper)])
        r, half, density = _profile_panels(first, cell, theta)
        mass = _cumulative(density, half, _offsets(density, half)).ravel()
        at_level = np.searchsorted(mass, _MASS_LEVELS)
        edges = _sorted_unique(first, r.ravel()[at_level[at_level < mass.size]])
        r, half, density = _profile_panels(edges, cell, theta, (first, density))
        for name, value in (("edges", edges), ("r", r), ("_half", half), ("density", density)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        offsets, error = self._check(density)
        mass = _cumulative(density, half, offsets)
        mass.setflags(write=False)
        object.__setattr__(self, "M", mass)
        object.__setattr__(self, "error", error)
        object.__setattr__(self, "total_mass", float(offsets[-1]))

    def _check(self, f: np.ndarray) -> tuple[np.ndarray, float]:
        """Offsets (:func:`_offsets`) of ``f`` and the error estimate of its
        integral; raises past the budget. A stack of samples ``f`` (leading
        axes) gives stacked offsets and the largest estimate."""
        tail = np.einsum("...pj,kj->...pk", f, _CHEB_TO_COEF[-_CHEB_TAIL:])
        tail = np.abs(tail, tail).sum(axis=-1)
        errors = (tail @ self._half).ravel().tolist()
        offsets = _offsets(f, self._half)
        for total, err in zip(offsets[..., -1].ravel().tolist(), errors):
            bound = max(_PROFILE_ABS_TOL, _PROFILE_REL_TOL * abs(total))
            if not err <= bound:
                raise QuadratureError(
                    f"mass profile at theta={self.theta!r} misses its error budget "
                    f"(estimate {total!r}, error bound {err:.3e} > {bound:.3e})",
                    total,
                    err,
                )
        return offsets, max(errors)

    def total(self, f: np.ndarray) -> float | np.ndarray:
        """``integral_0^(R + r_d) f(r) dr`` for ``f`` sampled on ``r``; for a
        stack of samples (leading axes), an array of one integral each."""
        total = self._check(f)[0][..., -1]
        return float(total) if total.ndim == 0 else total

    def cumulative_at(self, f: np.ndarray, x) -> np.ndarray:
        """``integral_0^x f`` at arbitrary ``x`` in [0, R + r_d], from the
        per-panel Chebyshev antiderivative of ``f`` sampled on ``r``."""
        offsets = self._check(f)[0]
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.edges, x, side="right") - 1, 0, len(self._half) - 1)
        t = np.clip((x - self.edges[idx]) / self._half[idx] - 1.0, -1.0, 1.0)
        coef = np.einsum("pj,kj->pk", f, _CHEB_ANTIDERIV)
        # Clenshaw recurrence for sum_k coef_k T_k(t), one coefficient at a time
        b1 = b2 = np.zeros_like(t)
        for k in range(_CHEB_N, 0, -1):
            b1, b2 = coef[idx, k] + 2.0 * t * b1 - b2, b1
        series = coef[idx, 0] + t * b1 - b2
        return offsets[idx] + self._half[idx] * series


def _uniform_edges(upper: float) -> np.ndarray:
    """``np.linspace(0.0, upper, _UNIFORM_PANELS + 1)`` by linspace's own
    arithmetic, bit for bit, without its per-call overhead."""
    edges = np.arange(_UNIFORM_PANELS + 1.0)
    step = upper / _UNIFORM_PANELS
    if step == 0.0:  # linspace's order where the step underflows
        edges /= _UNIFORM_PANELS
        step = upper
    edges *= step
    edges[-1] = upper
    return edges


def _sorted_unique(*parts: np.ndarray) -> np.ndarray:
    """The distinct values of the arrays ``parts``, ascending."""
    # Not np.unique: its first call in a process raises peak RSS by ~0.7 MB.
    x = np.concatenate(parts)
    x.sort()
    keep = np.empty(x.size, dtype=bool)
    keep[:1] = True
    np.greater(x[1:], x[:-1], keep[1:])
    return x[keep]


def _profile_panels(edges: np.ndarray, cell: CellGeometry, theta: float, known=None):
    """Nodes (panels x ``_CHEB_N``), half-widths and ``dM/dr`` on ``edges``.

    ``known`` is ``(edges, density)`` of an earlier pass: a panel of it that
    survives whole has the same nodes, so its density is copied, and
    ``dM/dr`` is evaluated only on the panels that new edges split."""
    half = (edges[1:] - edges[:-1]) * 0.5
    r = half[:, None] * _CHEB_NODES
    r += (edges[:-1] + half)[:, None]
    if known is None:
        return r, half, lambda_prime_derivative(r, cell, theta)
    old_edges, old_density = known
    at = np.searchsorted(old_edges, edges)
    kept = old_edges[at] == edges
    whole = kept[:-1] & kept[1:]
    density = np.empty_like(r)
    density[whole] = old_density[at[:-1][whole]]
    split = ~whole
    if split.any():
        density[split] = lambda_prime_derivative(r[split], cell, theta)
    return r, half, density


def _offsets(f: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Integral of node values ``f`` up to each panel edge, from 0 to the
    whole range (length panels + 1, along the last axis of a stack)."""
    steps = np.einsum("...pj,j->...p", f, _CHEB_WEIGHTS)
    steps *= half
    offsets = np.zeros(steps.shape[:-1] + (steps.shape[-1] + 1,))
    np.cumsum(steps, axis=-1, out=offsets[..., 1:])
    return offsets


def _cumulative(f: np.ndarray, half: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-panel spectral cumulative integral of node values ``f`` with
    ``offsets = _offsets(f, half)``."""
    within = np.einsum("pj,kj->pk", f, _CHEB_CUMULATIVE)
    within *= half[:, None]
    within += offsets[:-1, None]
    return within


def _order_densities(mass, density, k: int, weight=1.0) -> np.ndarray:
    """``weight * exp(-M) M^(j-1) / (j-1)! * density`` for ``j = 1 .. k``:
    with ``density = dM/dr``, the densities of the distances to the j-th
    nearest points of a process with mean measure ``M`` (see
    :func:`f_k_pdf`), elementwise over the sample points and stacked along a
    leading axis of length ``k``."""
    terms = _poisson_ladder(mass, k)
    terms *= weight * np.exp(-mass) * density
    return terms


def f_k_pdf(r_jd, k: int, cell: CellGeometry, theta: float):
    """Density of the distance from the destination to the k-th nearest
    qualified relay, elementwise over ``r_jd``, from one :class:`MassProfile`:
    the order-statistic density of a point process with mean measure
    ``M(r) = lambda_prime(r)``,

        exp(-M(r)) * M(r)^(k-1) / (k-1)! * dM/dr

    Its integral over [0, x] equals the probability of finding at least
    ``k`` qualified relays within ``x``, so the distribution is proper up to
    the (possibly defective) total mass. It is 0 at ``r_jd = 0``.
    """
    _require_alpha_two(cell, "f_k_pdf")
    check_count("k", k)
    r_jd = np.asarray(r_jd, dtype=float)
    mass = lambda_prime(r_jd, cell, theta)
    out = _order_densities(mass, lambda_prime_derivative(r_jd, cell, theta), k)[-1]
    return float(out) if out.ndim == 0 else out


def kth_nearest_cdf(x, k: int, cell: CellGeometry, theta: float):
    """Probability of at least ``k`` qualified relays within ``x`` of the
    destination, elementwise over ``x`` (a float for a scalar); the CDF
    matching :func:`f_k_pdf`.

    ``1 - exp(-M(x)) * sum_{i<k} M(x)^i / i!`` with ``M = lambda_prime``,
    0 for ``x <= 0``.
    """
    _require_alpha_two(cell, "kth_nearest_cdf")
    check_count("k", k)
    return poisson_tail(lambda_prime(np.maximum(x, 0.0), cell, theta), k)


def _p_fail_ranks(profile: MassProfile, k: int, theta_second: float) -> list[float]:
    """:func:`p_fail_jth` for ``j = 1 .. k`` from one profile."""
    success = np.exp(-theta_second * (1.0 + profile.r * profile.r))  # at the destination
    densities = _order_densities(profile.M, profile.density, k, weight=success)
    out = []
    for j, total in enumerate(profile.total(densities).tolist(), start=1):
        p = 1.0 - total
        if p < -1e-9 or p > 1.0 + 1e-9:
            warnings.warn(
                f"p_fail_jth(j={j}) outside [0, 1] by more than quadrature noise: {p!r}; clamping",
                RuntimeWarning,
                stacklevel=3,
            )
        out.append(min(max(p, 0.0), 1.0))
    return out


def p_fail_jth(j: int, cell: CellGeometry, thresholds: Thresholds) -> float:
    """Probability that the j-th nearest qualified relay fails to reach the
    destination.

    ``1 - integral_0^(R + r_d) exp(-theta_second (1 + r^2)) f_j(r) dr``.
    The j-th relay's distance density uses ``thresholds.theta_first`` for
    qualification; the decoding test at the destination uses
    ``theta_second``. The formula also charges the event that fewer than
    ``j`` qualified relays exist (the defective mass), matching a protocol
    whose j-th slot stays silent in that case.

    The integral is taken on the :class:`MassProfile` of ``theta_first``
    (error budget abs 1e-10, rel 1e-8). Values outside [0, 1] by more than
    1e-9 are clamped with a warning.
    """
    _require_alpha_two(cell, "p_fail_jth")
    check_count("j", j)
    profile = MassProfile(cell, thresholds.theta_first)
    return _p_fail_ranks(profile, j, thresholds.theta_second)[j - 1]


def _ranked_profile(what: str, k: int, cell: CellGeometry, radio: RadioParams):
    """The first-hop :class:`MassProfile` and ``theta_second`` of a ``k``-relay
    frame (``radio.num_relays`` overridden by ``k``), after the guards that
    both ranked outages share; ``what`` names the caller in their errors."""
    _require_alpha_two(cell, what)
    check_count("k", k)
    thresholds = compute_thresholds(radio if radio.num_relays == k else replace(radio, num_relays=k))
    return MassProfile(cell, thresholds.theta_first), thresholds.theta_second


def outage_stat(k: int, cell: CellGeometry, radio: RadioParams) -> float:
    """Outage probability of distance-ranked selection of ``k`` relays.

    The outage is taken as the product of :func:`p_fail_jth` over
    ``j = 1 .. k``, with both thresholds derived for a ``k``-relay frame
    (``radio.num_relays`` is overridden by ``k``), all from one
    :class:`MassProfile`. The product treats the
    ``k`` selected relays as failing independently. That is exact for
    ``k == 1``, where there is a single factor. For ``k >= 2`` it is an
    approximation: the ranked distances share one realization, so the
    relays tend to fail together and the product runs low at high SNR
    (9-30% below simulation beyond ~15 dB at the default density).
    :func:`exact_ranked_outage` gives the outage without the independence
    assumption.
    """
    profile, theta2 = _ranked_profile("outage_stat", k, cell, radio)
    return math.prod(_p_fail_ranks(profile, k, theta2))


def exact_ranked_outage(k: int, cell: CellGeometry, radio: RadioParams) -> float:
    """Ranked-selection outage without the rank-independence assumption.

    Mapping the qualified field to its destination distances gives a 1-d
    process with mean measure ``M`` and intensity ``dM/dr``; with
    ``q(r) = 1 - exp(-theta2 (1 + r^2))`` the per-relay failure and
    ``G(z) = int_0^z q dM`` the failure-weighted mass, the fixed-frame
    outage with ``k`` slots is exactly

        O = e^(-M_inf) * sum_{j<k} G_inf^j / j!
            + int q(z) e^(-M(z)) G(z)^(k-1)/(k-1)! dM(z)

    (the first part covers trials with fewer than ``k`` qualified relays,
    the second integrates over the k-th nearest distance). Its complement is

        S = int (1 - q(z)) e^(-M(z)) sum_{j<k} G(z)^j / j! dM(z),

    the chance that a relay succeeds at ``z`` with fewer than ``k`` closer
    relays, all failed. Both are integrals on the first-hop threshold's
    :class:`MassProfile`, and ``O / (O + S)`` is returned: the two add to 1
    up to the profile's error, and the ratio lies in [0, 1] with relative
    accuracy at both ends. This is the independent yardstick for how much
    the product form :func:`outage_stat` loses to rank dependence.
    """
    profile, theta2 = _ranked_profile("exact_ranked_outage", k, cell, radio)
    r = profile.r
    exponent = -theta2 * (1.0 + r * r)  # log of the per-relay success
    fail = -np.expm1(exponent)
    weighted = fail * profile.density
    offsets = profile._check(weighted)[0]  # one check for G at the nodes and G_inf
    g, g_inf = _cumulative(weighted, profile._half, offsets), float(offsets[-1])
    ladder = _poisson_ladder(g, k)  # G^j / j! for j < k
    decay = np.exp(-profile.M) * profile.density
    head = math.exp(-profile.total_mass) * float(sum(_poisson_ladder(g_inf, k)))
    tail, success = profile.total(
        np.stack([fail * decay * ladder[-1], np.exp(exponent) * decay * sum(ladder)])
    ).tolist()
    outage = head + tail
    return outage / (outage + success)


def lambda_q_closed(cell: CellGeometry, theta: float) -> float:
    """Far-field mean number of relays decodable by both endpoints.

    ``pi lam / (2 theta) * exp(-theta (2 + r_d^2 / 2))`` -- the plane-wide
    Gaussian integral of the two-hop thinning kernel, i.e. the cell radius
    taken to infinity. Always an overcount of the finite-cell value
    (:func:`lambda_q_quadrature`); the excess is the kernel mass outside
    the cell and is negligible once ``theta * cell_radius^2 >> 1``.
    """
    _require_alpha_two(cell, "lambda_q_closed")
    check_finite("theta", theta, 0, strict=True)  # the closed forms carry a 1/theta factor
    r_d = cell.dest_distance
    return (
        math.pi
        * cell.relay_intensity
        / (2.0 * theta)
        * math.exp(-theta * (2.0 + r_d * r_d / 2.0))
    )


def lambda_q_quadrature(cell: CellGeometry, theta: float) -> float:
    """Finite-cell mean number of relays decodable by both endpoints.

    ``integral_cell lam exp(-theta (1 + r^a)) exp(-theta (1 + r_jd^a)) dw``
    in polar coordinates ``(rho, phi)`` about the source, about which the
    cell is a disk; the intensity is even in ``phi``, so [0, pi] is taken
    and doubled. Unlike the closed form this supports any
    ``path_loss_exponent >= 2``. For exponent 2 the radial integral is
    closed: the exponent is ``-theta (2 + r_d^2) - 2 theta (r^2 - r_d
    cos(phi) r)``, so this is :func:`_disk_mass` at ``(2 theta, r_d / 2)``
    with that scale.

    Other exponents take one adaptive radial integral over [0, R], broken
    at the peak and at ``rho = r_d``, where ``r_jd^a`` has its kink. At
    each radius the bearing integral is a midpoint rule of ``_BEARINGS``
    nodes, spectrally accurate since the intensity is periodic and smooth
    in ``phi``. The radial integral is run again at twice the bearings;
    unless the two agree within ``_INNER_SPEC.rel_tol``, a
    ``QuadratureError`` carrying the estimate is raised. ``r^a + r_jd^a``
    is convex, so over the cell it is least (``least``) at the cell's point
    nearest the midpoint of source and destination. The integrand is taken
    relative to its peak there, ``exp(-theta (2 + least))``, which
    multiplies the result: the absolute tolerance then holds where the mass
    is tiny, and a peak that underflows to 0 returns 0.0 with no quadrature.
    """
    check_finite("theta", theta, 0, strict=True)
    lam = cell.relay_intensity
    r_d = cell.dest_distance
    big_r = cell.cell_radius
    alpha = cell.path_loss_exponent
    if alpha == 2.0:
        scale = -theta * (2.0 + r_d * r_d)
        return _disk_mass(lam, big_r, 0.5 * r_d, 2.0 * theta, scale, DEFAULT_SPEC)
    near = min(0.5 * r_d, big_r)
    least = near**alpha + (r_d - near) ** alpha
    factor = 2.0 * math.pi * lam * math.exp(-theta * (2.0 + least))  # 2 pi lam times the peak
    if factor == 0.0:  # the integrand relative to its peak is at most 1
        return 0.0
    edges = (0.0, near, min(r_d, big_r), big_r)

    def radial(bearings: int) -> float:
        cos_phi = np.cos((np.arange(bearings) + 0.5) * (math.pi / bearings))[:, None]

        def bearing_mean(rho: np.ndarray) -> np.ndarray:
            rjd2 = np.maximum(rho * rho + r_d * r_d - 2.0 * r_d * rho * cos_phi, 0.0)
            return rho * np.exp(-theta * (rho**alpha + rjd2 ** (0.5 * alpha) - least)).mean(axis=0)

        return sum(integrate_1d(bearing_mean, a, b, _INNER_SPEC) for a, b in zip(edges, edges[1:]))

    coarse, fine = radial(_BEARINGS), radial(2 * _BEARINGS)
    if not abs(fine - coarse) <= _INNER_SPEC.rel_tol * fine:
        raise QuadratureError("bearing counts disagree", factor * fine, factor * abs(fine - coarse))
    return factor * fine


def outage_exact_csi(
    cell: CellGeometry, radio: RadioParams, lambda_q: str = "quadrature"
) -> float:
    """Outage probability when relays know their instantaneous channels.

    With full channel knowledge an outage happens only when no relay decodes
    both hops, so the probability is the void probability
    ``exp(-Lambda_q)`` of the doubly-connected field. ``lambda_q`` selects
    the finite-cell ``"quadrature"`` mean (default; matches a simulation
    confined to the cell) or the far-field ``"closed"`` form.

    Defined for a single-relay frame (``num_relays == 1``), where the two
    hop thresholds coincide.
    """
    if radio.num_relays != 1:
        raise ValueError("outage_exact_csi is defined for num_relays == 1")
    check_choice("lambda_q", lambda_q, LAMBDA_Q_METHODS)
    theta = compute_thresholds(radio).theta_second
    if lambda_q == "closed":
        mass = lambda_q_closed(cell, theta)
    else:
        mass = lambda_q_quadrature(cell, theta)
    return math.exp(-mass)


def mean_count_from_bs(r, cell: CellGeometry, theta: float):
    """Expected number of qualified relays within ``r`` of the source,
    elementwise over ``r`` (a float for a scalar); the twin of
    :func:`lambda_prime`, which counts from the destination.

    Seen from the source the thinned field is isotropic and the mean measure
    is closed: ``pi lam / theta * exp(-theta) * (1 - exp(-theta rho^2))``
    with ``rho = min(r, cell_radius)``, since no relay lies outside the cell.
    Coincides with :func:`lambda_prime` when the destination sits at the
    source.
    """
    _require_alpha_two(cell, "mean_count_from_bs")
    check_finite("theta", theta, 0, strict=True)
    r = check_radii("r", r)
    scale = math.pi * cell.relay_intensity / theta * math.exp(-theta)
    # math.exp per element: np.exp differs from it in the last bit
    rho = np.minimum(r, cell.cell_radius)
    inside = np.array([1.0 - math.exp(-theta * x * x) for x in rho.ravel().tolist()])
    mass = scale * inside.reshape(r.shape)
    return float(mass) if mass.ndim == 0 else mass
