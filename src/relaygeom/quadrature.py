"""Deterministic adaptive quadrature on finite intervals.

Gauss-Kronrod 7/15 panels with greedy bisection of the panel carrying the
largest error estimate. The per-panel error model is the standard
``resasc * min(1, (200 |K15 - G7| / resasc)^1.5)`` rescaling, which sharpens
the raw embedded-rule difference for smooth integrands. Panels are ordered
by (error, insertion index), so results are bit-reproducible.

Integrands must be vectorized: ``f`` receives a 1-d ``numpy`` array of
abscissae and returns an array of the same shape.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import check_count, check_finite

# 15-point Kronrod abscissae on [-1, 1] (positive half) and weights; the
# embedded 7-point Gauss rule uses the odd-indexed abscissae.
_XGK = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

#: All 15 Kronrod nodes on [-1, 1], ascending.
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WEIGHTS_K = np.concatenate([_WGK[:-1], _WGK[::-1]])
# Gauss nodes sit at positions 1, 3, ..., 13 of the 15-node vector.
_GAUSS_IDX = np.arange(1, 15, 2)
_WEIGHTS_G = np.concatenate([_WG[:-1], _WG[::-1]])


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy budget for one adaptive integration."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-9
    max_subdivisions: int = 256

    def __post_init__(self) -> None:
        check_finite("abs_tol", self.abs_tol, 0, strict=True)
        check_finite("rel_tol", self.rel_tol, 0, strict=True)
        check_count("max_subdivisions", self.max_subdivisions)


DEFAULT_SPEC = QuadratureSpec()


class QuadratureError(RuntimeError):
    """Tolerance not reached within the subdivision budget.

    Carries the best available estimate and its error bound so callers can
    decide whether to accept a degraded result.
    """

    def __init__(self, message: str, estimate: float, error: float):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


def _eval_panels(f: Callable, lows: np.ndarray, highs: np.ndarray):
    """Evaluate K15/G7 on a batch of panels with a single integrand call."""
    half = 0.5 * (highs - lows)
    mid = 0.5 * (highs + lows)
    nodes = mid[:, None] + half[:, None] * _NODES[None, :]
    fv = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    if not np.isfinite(fv).all():
        raise QuadratureError("integrand returned a non-finite value", math.nan, math.inf)
    k15 = (fv @ _WEIGHTS_K) * half
    g7 = (fv[:, _GAUSS_IDX] @ _WEIGHTS_G) * half
    mean = k15 / (2.0 * half)
    resasc = (np.abs(fv - mean[:, None]) @ _WEIGHTS_K) * half
    raw = np.abs(k15 - g7)
    positive = resasc > 0.0
    err = np.where(
        positive,
        resasc * np.minimum(1.0, (200.0 * raw / np.where(positive, resasc, 1.0)) ** 1.5),
        raw,
    )
    return k15, err


def integrate_1d(
    f: Callable,
    a: float,
    b: float,
    spec: QuadratureSpec | None = None,
) -> float:
    """Adaptively integrate ``f`` over ``[a, b]`` to the spec's tolerances.

    Parameters
    ----------
    f : callable
        Vectorized integrand mapping an ndarray of points to an ndarray of
        values. Must be finite over the interval.
    a, b : float
        Finite endpoints; ``b < a`` flips the sign of the result.
    spec : QuadratureSpec, optional
        Tolerances and subdivision budget; defaults to ``DEFAULT_SPEC``
        (abs 1e-12, rel 1e-9, 256 subdivisions).

    Raises
    ------
    QuadratureError
        If the error bound still exceeds the tolerance after
        ``max_subdivisions`` bisections, or the integrand misbehaves.
    """
    spec = spec or DEFAULT_SPEC
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration endpoints must be finite")
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    vals, errs = _eval_panels(f, np.array([a]), np.array([b]))
    total_val, total_err = float(vals[0]), float(errs[0])
    counter = 0
    # heap entries: (-error, insertion index, lo, hi, value, error)
    heap = [(-total_err, counter, a, b, total_val, total_err)]
    nsub = 0
    while total_err > max(spec.abs_tol, spec.rel_tol * abs(total_val)):
        if nsub >= spec.max_subdivisions:
            raise QuadratureError(
                f"quadrature did not converge within {spec.max_subdivisions} subdivisions "
                f"(estimate {total_val!r}, error bound {total_err:.3e})",
                total_val,
                total_err,
            )
        _, _, lo, hi, val, err = heapq.heappop(heap)
        midpt = 0.5 * (lo + hi)
        vals, errs = _eval_panels(f, np.array([lo, midpt]), np.array([midpt, hi]))
        total_val += float(vals.sum()) - val
        total_err += float(errs.sum()) - err
        for i, (plo, phi) in enumerate(((lo, midpt), (midpt, hi))):
            counter += 1
            heapq.heappush(heap, (-errs[i], counter, plo, phi, float(vals[i]), float(errs[i])))
        nsub += 1

    # Deterministic final summation, ordered by panel position.
    return sign * float(sum(entry[4] for entry in sorted(heap, key=lambda e: e[2])))
