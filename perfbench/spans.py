"""Per-layer spans, recorded from the benchmark's side of the library.

``Tracer.install`` replaces each traced public function of
``stablemotion`` with a timing wrapper, in every module that holds a
reference to it, so that calls between layers are timed too. Nothing
inside ``src/`` is changed or traced. Spans nest; a span's time includes
its children's (``policy.estimate_adapt`` includes every
``policy.objective`` call it makes).

Spans are kept per phase: ``setup`` (work done before timing) and
``timed``. Each per-layer metric reads the phase whose end-to-end metric
it moves: ``fileio`` reads ``setup``, every other layer reads ``timed``.
A layer that a workload does not call reads 0 calls and 0 time.
"""

from __future__ import annotations

import sys
import time

import numpy as np


def _estimate_span(stack) -> str:
    return ("policy.estimate_learn" if "pipeline.learn" in stack
            else "policy.estimate_adapt")


def _states(args, kwargs, result) -> tuple:
    xi = args[1] if len(args) > 1 else kwargs["xi"]
    return ("policy.evaluate_batch_states", np.atleast_2d(xi).shape[0])


def _steps(args, kwargs, result) -> tuple:
    return ("evaluation.rollout_steps", len(result.trajectory) - 1)


# (module, attribute, span name or stack -> span name, counter or None)
TRACED = (
    ("gmm", "fit_gmm", "gmm.fit_gmm", None),
    ("gmm", "order_components", "gmm.order_components", None),
    ("gmm", "responsibilities", "gmm.responsibilities", None),
    ("gmm", "responsibilities_batch", "gmm.responsibilities_batch", None),
    ("chain", "build_chain", "chain.build_chain", None),
    ("chain", "transform_chain", "chain.transform_chain", None),
    ("profile", "regenerate_profile", "profile.regenerate_profile", None),
    ("policy", "estimate", _estimate_span, None),
    ("policy", "objective_and_gradient", "policy.objective", None),
    ("policy", "evaluate", "policy.evaluate", None),
    ("policy", "evaluate_batch", "policy.evaluate_batch", _states),
    ("evaluation", "rollout", "evaluation.rollout", _steps),
    ("evaluation", "rollout_batch", "evaluation.rollout_batch", None),
    ("sequence", "split_demo", "sequence.split_demo", None),
    ("sequence", "stitch_chains", "sequence.stitch_chains", None),
    ("sequence", "PlanExecutor.step", "sequence.plan_step", None),
    ("fileio", "save_policy", "fileio.save_policy", None),
    ("fileio", "load_policy", "fileio.load_policy", None),
    ("pipeline", "learn", "pipeline.learn", None),
    ("pipeline", "adapt", "pipeline.adapt", None),
)


def _time(span, scale, phase="timed"):
    """Mean time per call of a span, in the metric's unit."""
    def value(t):
        calls = t.calls.get((phase, span), 0)
        return scale * t.seconds.get((phase, span), 0.0) / calls if calls else 0.0
    return value


def _calls(span):
    return lambda t: float(t.calls.get(("timed", span), 0))


def _per_call(table, name, *spans):
    """A counter's total (or a span's calls) over the calls of spans."""
    def value(t):
        calls = sum(t.calls.get(("timed", s), 0) for s in spans)
        total = getattr(t, table).get(("timed", name), 0)
        return total / calls if calls else 0.0
    return value


# name -> (unit, value(tracer)); README.md maps each to its end-to-end metric
METRICS = {
    "gmm.fit_gmm_ms": ("ms", _time("gmm.fit_gmm", 1e3)),
    "gmm.order_components_ms": ("ms", _time("gmm.order_components", 1e3)),
    "gmm.responsibilities_us": ("us", _time("gmm.responsibilities", 1e6)),
    "gmm.responsibilities_calls": ("count", _calls("gmm.responsibilities")),
    "gmm.responsibilities_batch_ms": (
        "ms", _time("gmm.responsibilities_batch", 1e3)),
    "gmm.responsibilities_batch_calls": (
        "count", _calls("gmm.responsibilities_batch")),
    "chain.build_chain_ms": ("ms", _time("chain.build_chain", 1e3)),
    "chain.transform_chain_ms": ("ms", _time("chain.transform_chain", 1e3)),
    "profile.regenerate_profile_ms": (
        "ms", _time("profile.regenerate_profile", 1e3)),
    "policy.estimate_learn_ms": ("ms", _time("policy.estimate_learn", 1e3)),
    "policy.estimate_adapt_ms": ("ms", _time("policy.estimate_adapt", 1e3)),
    "policy.objective_evals": ("count", _per_call(
        "calls", "policy.objective", "policy.estimate_learn",
        "policy.estimate_adapt")),
    "policy.objective_eval_us": ("us", _time("policy.objective", 1e6)),
    "policy.evaluate_us": ("us", _time("policy.evaluate", 1e6)),
    "policy.evaluate_batch_us": ("us", _time("policy.evaluate_batch", 1e6)),
    "policy.evaluate_batch_states": ("count", _per_call(
        "counts", "policy.evaluate_batch_states", "policy.evaluate_batch")),
    "evaluation.rollout_steps": ("count", _per_call(
        "counts", "evaluation.rollout_steps", "evaluation.rollout")),
    "evaluation.rollout_batch_s": ("s", _time("evaluation.rollout_batch", 1.0)),
    "sequence.split_demo_ms": ("ms", _time("sequence.split_demo", 1e3)),
    "sequence.stitch_chains_ms": ("ms", _time("sequence.stitch_chains", 1e3)),
    "sequence.plan_step_us": ("us", _time("sequence.plan_step", 1e6)),
    "fileio.save_policy_ms": (
        "ms", _time("fileio.save_policy", 1e3, "setup")),
    "fileio.load_policy_ms": (
        "ms", _time("fileio.load_policy", 1e3, "setup")),
    "pipeline.learn_ms": ("ms", _time("pipeline.learn", 1e3)),
    "pipeline.adapt_ms": ("ms", _time("pipeline.adapt", 1e3)),
}


class Tracer:
    def __init__(self):
        self.active = False
        self.phase = "setup"
        self.stack = []
        self.seconds = {}   # (phase, span) -> total wall time
        self.calls = {}     # (phase, span) -> number of calls
        self.counts = {}    # (phase, counter) -> total

    def _add(self, table, name, value) -> None:
        key = (self.phase, name)
        table[key] = table.get(key, 0) + value

    def _wrap(self, fn, span, counter):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = span(tracer.stack) if callable(span) else span
            tracer.stack.append(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                tracer.stack.pop()
                tracer._add(tracer.seconds, name, elapsed)
                tracer._add(tracer.calls, name, 1)
            if counter is not None:
                tracer._add(tracer.counts, *counter(args, kwargs, result))
            return result
        return traced

    def install(self, package: str = "stablemotion") -> None:
        """Wrap every traced function wherever the package binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for module_name, attr, span, counter in TRACED:
            owner = sys.modules[f"{package}.{module_name}"]
            holder, _, attr = attr.rpartition(".")
            if holder:  # a method: wrap it on its class
                cls = getattr(owner, holder)
                setattr(cls, attr, self._wrap(getattr(cls, attr), span,
                                              counter))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(fn, span, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapped)

    def metrics(self) -> dict:
        return {name: {"value": float(value(self)), "unit": unit}
                for name, (unit, value) in METRICS.items()}
