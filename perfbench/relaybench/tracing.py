"""Spans around calls into the program, recorded from outside it.

A :class:`Tracer` replaces public functions at their module attributes
with timing wrappers for the duration of a ``with`` block and restores
them afterwards. Spans (name, start, end, parent span) are kept in flat
in-memory arrays and written out once, with the run id, when the run ends.

Spans are recorded only in the process that installed the wrappers: pool
workers forked from it inherit the wrappers but record nothing, and the
parent's time inside a pooled call is counted as waiting.
"""

from __future__ import annotations

import math
import os
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        #: Exact work counts recorded at the same boundaries as the spans.
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._enabled = True
        self._saved: list = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self._enabled = False

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name_of, count=None):
        """Timing wrapper for ``fn``; ``name_of(args, kwargs)`` names the span
        and ``count(args, kwargs, result)`` may add to :attr:`counts`."""
        stack = self._stack

        def traced(*args, **kwargs):
            if not self._enabled:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(self._name_id(name_of(args, kwargs)))
            self.parent.append(stack[-1])
            self.end.append(math.nan)
            stack.append(idx)
            self.start.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = _clock()
                stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def replace(self, module, attr: str, new) -> None:
        """Set ``module.attr`` to ``new`` until :meth:`restore`."""
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def patch(self, module, attr: str, name_of, count=None) -> None:
        self.replace(module, attr, self.wrap(getattr(module, attr), name_of, count))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------------
    # analysis

    def arrays(self) -> dict:
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=float, count=n).copy()
        end = np.frombuffer(self.end, dtype=float, count=n).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n).copy()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        return {
            "name": np.frombuffer(self.name, dtype=np.int32, count=n).copy(),
            "parent": parent,
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
        }

    def summary(self) -> dict:
        """Per span name: calls, total (inclusive) seconds, self seconds."""
        a = self.arrays()
        calls = np.bincount(a["name"], minlength=len(self.names))
        total = np.bincount(a["name"], weights=a["dur"], minlength=len(self.names))
        own = np.bincount(a["name"], weights=a["self"], minlength=len(self.names))
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write every span, the name table and the run id to ``path`` (.npz)."""
        a = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names if self.names else [""]),
            name=a["name"],
            parent=a["parent"],
            start=a["start"],
            end=a["end"],
        )


def _const(name):
    return lambda args, kwargs: name


def _arg(args, kwargs, index, key, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def install_program_spans(tracer: Tracer, prog) -> None:
    """Wrap the program's public entry points at the module attributes
    through which the workloads and the package itself call them."""
    mc, an, val, cli = prog.montecarlo, prog.analytic, prog.validation, prog.cli
    counts = tracer.counts

    def mc_workers(kwargs):
        workers = kwargs.get("workers")
        if workers is None:
            workers = int(os.environ.get(mc.THREADS_ENV) or 1)
        return workers

    def estimate_name(args, kwargs):
        if mc_workers(kwargs) > 1:
            return "montecarlo.estimate_outage.pool"
        return f"montecarlo.estimate_outage.{_arg(args, kwargs, 0, 'strategy')}"

    def estimate_count(args, kwargs, result):
        if mc_workers(kwargs) == 1:
            counts[f"montecarlo.trials.{_arg(args, kwargs, 0, 'strategy')}"] += _arg(args, kwargs, 3, "trials")

    for module in (mc, cli):
        tracer.patch(module, "estimate_outage", estimate_name, estimate_count)
    tracer.patch(mc, "trial_rng", _const("montecarlo.trial_rng"))

    def relays(args, kwargs, result):
        counts["montecarlo.expected_relays"] += _arg(args, kwargs, 0, "cell").mean_relay_count

    tracer.patch(mc, "trial_exact_csi", _const("montecarlo.trial_body"), relays)
    tracer.patch(mc, "trial_stat_csi", _const("montecarlo.trial_body"), relays)
    tracer.patch(mc, "sq_dists_to_dest", _const("geometry.sq_dists_to_dest"))
    tracer.patch(mc, "empirical_mean_count", _const("montecarlo.empirical_mean_count"))
    tracer.patch(
        mc, "kth_nearest_qualified_distances", _const("montecarlo.kth_nearest_qualified_distances")
    )

    def outage_stat_name(args, kwargs):
        return f"analytic.outage_stat.k{_arg(args, kwargs, 0, 'k')}"

    for module in (an, cli):
        tracer.patch(module, "outage_stat", outage_stat_name)
        tracer.patch(module, "outage_exact_csi", _const("analytic.outage_exact_csi"))
        tracer.patch(module, "lambda_prime", _const("analytic.lambda_prime"))
    tracer.patch(an, "p_fail_jth", _const("analytic.p_fail_jth"))
    tracer.patch(an, "lambda_prime_derivative", _const("analytic.lambda_prime_derivative"))
    tracer.patch(an, "lambda_q_quadrature", _const("analytic.lambda_q_quadrature"))
    tracer.patch(val, "exact_ranked_outage", _const("analytic.rank_joint"))

    def elements(args, kwargs, result):
        counts["specials.erfcx.elements"] += int(np.size(args[0]))

    tracer.patch(an, "erfcx", _const("specials.erfcx"), elements)

    def points(args, kwargs, result):
        counts["quadrature.integrand_points"] += int(np.size(args[0]))

    # Integrands are fresh closures per call, so each is wrapped on the way in.
    for module, integrand in ((an, "analytic.integrand"), (val, "validation.integrand")):

        def traced_integrate(f, a, b, spec=None, _integrate=module.integrate_1d, _name=_const(integrand)):
            return _integrate(tracer.wrap(f, _name, points), a, b, spec)

        tracer.replace(module, "integrate_1d", tracer.wrap(traced_integrate, _const("quadrature.integrate_1d")))

    tracer.patch(cli, "main", _const("cli.main"))
    tracer.patch(cli, "write_csv", _const("cli.write_csv"))


def per_layer_metrics(tracer: Tracer, check_seconds: dict, check_names: list[str], wall_s: float) -> dict:
    """Derive the per-layer metrics (name -> (value, unit)) from the spans."""
    s = tracer.summary()
    c = tracer.counts

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def secs(name, field="s"):
        return s.get(name, {}).get(field, 0.0)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}
    for strategy in ("exact", "stat"):
        m[f"montecarlo.us_per_trial.{strategy}"] = (
            ratio(secs(f"montecarlo.estimate_outage.{strategy}"), c[f"montecarlo.trials.{strategy}"], 1e6),
            "us",
        )
    m["montecarlo.trial_rng.us_per_trial"] = (
        ratio(secs("montecarlo.trial_rng"), calls("montecarlo.trial_rng"), 1e6),
        "us",
    )
    m["montecarlo.trial_body.us_per_trial"] = (
        ratio(secs("montecarlo.trial_body"), calls("montecarlo.trial_body"), 1e6),
        "us",
    )
    # Computed, not counted: the expected relay count lambda*pi*R^2 per trial.
    m["montecarlo.ns_per_relay"] = (
        ratio(secs("montecarlo.trial_body"), c["montecarlo.expected_relays"], 1e9),
        "ns/relay",
    )
    m["montecarlo.pool_wait.s"] = (secs("montecarlo.estimate_outage.pool"), "s")
    m["montecarlo.empirical_mean_count.s"] = (secs("montecarlo.empirical_mean_count"), "s")
    m["montecarlo.kth_nearest_qualified_distances.s"] = (
        secs("montecarlo.kth_nearest_qualified_distances"),
        "s",
    )
    m["geometry.sq_dists_to_dest.calls"] = (calls("geometry.sq_dists_to_dest"), "count")
    m["geometry.sq_dists_to_dest.s"] = (secs("geometry.sq_dists_to_dest"), "s")
    for k in (1, 2, 3):
        name = f"analytic.outage_stat.k{k}"
        m[f"{name}.ms_per_call"] = (ratio(secs(name), calls(name), 1e3), "ms")
    for name in (
        "analytic.p_fail_jth",
        "analytic.lambda_prime",
        "analytic.lambda_prime_derivative",
        "analytic.lambda_q_quadrature",
    ):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (secs(name), "s")
    m["analytic.outage_exact_csi.ms_per_call"] = (
        ratio(secs("analytic.outage_exact_csi"), calls("analytic.outage_exact_csi"), 1e3),
        "ms",
    )
    m["analytic.rank_joint.s_per_call"] = (
        ratio(secs("analytic.rank_joint"), calls("analytic.rank_joint")),
        "s",
    )
    # Own time of the integrands, excluding the traced calls they make.
    m["analytic.integrand.s"] = (secs("analytic.integrand", "self_s"), "s")
    m["quadrature.integrate_1d.calls"] = (calls("quadrature.integrate_1d"), "count")
    m["quadrature.integrand_points"] = (c["quadrature.integrand_points"], "count")
    m["quadrature.integrate_1d.self_s"] = (secs("quadrature.integrate_1d", "self_s"), "s")
    m["specials.erfcx.calls"] = (calls("specials.erfcx"), "count")
    m["specials.erfcx.elements"] = (c["specials.erfcx.elements"], "count")
    m["specials.erfcx.s"] = (secs("specials.erfcx"), "s")
    for name in check_names:
        m[f"validation.{name}.s"] = (check_seconds.get(name, 0.0), "s")
    m["cli.main.s"] = (secs("cli.main"), "s")
    m["cli.write_csv.s"] = (secs("cli.write_csv"), "s")
    m["trace.wall_s"] = (wall_s, "s")
    m["trace.spans"] = (len(tracer.start), "count")
    return m
