"""Span recording around the public functions of fedmetasim, from outside.

A traced child installs a ``Recorder`` before it sets up: every function in
``WRAPPED`` is replaced, in each fedmetasim module that holds it (for
example ``federation.gradient`` as well as ``model.gradient``), by a wrapper
that records one span per call. Spans stay in memory as
``[name, start, end, parent]`` rows and are written when the child ends.
Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# (module, attribute, span name). A name the program no longer defines is
# reported as absent rather than failing the run. Checkpoint, trace and text
# output stay unwrapped, so the cli spans' self time is their I/O;
# run_personalized_fedavg is wrapped to keep its loop out of cli.train.
WRAPPED = (
    ("config", "load_config", "config.load_config"),
    ("config", "build_dataset", "config.build_dataset"),
    ("model", "gradient", "model.gradient"),
    ("model", "sgd_trajectory", "model.sgd_trajectory"),
    ("model", "forward_logits", "model.forward_logits"),
    ("optimizers", "make_client_batches", "optimizers.make_client_batches"),
    ("optimizers", "server_apply", "optimizers.server_apply"),
    ("rng", "substream", "rng.substream"),
    ("federation", "run_round", "federation.run_round"),
    ("federation", "run_personalized_fedavg", "federation.run_personalized_fedavg"),
    ("personalization", "eval_population", "personalization.eval_population"),
    ("personalization", "personalize", "personalization.personalize"),
    ("personalization", "evaluate_accuracy", "personalization.evaluate_accuracy"),
    ("analysis", "decompose_round", "analysis.decompose_round"),
    ("cli", "cmd_train", "cli.train"),
    ("cli", "cmd_personalize", "cli.personalize"),
    ("cli", "cmd_decompose", "cli.decompose"),
)


class Recorder:
    """Collects spans for the functions it wraps; one per process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def install(self) -> list[str]:
        """Wrap every listed function under each name a module binds it to.

        Returns the span names whose function the program does not define.
        """
        modules = [
            mod for name, mod in sys.modules.items()
            if (name == "fedmetasim" or name.startswith("fedmetasim.")) and mod is not None
        ]
        absent = []
        for module_name, attr, span in WRAPPED:
            owner = sys.modules.get(f"fedmetasim.{module_name}")
            fn = getattr(owner, attr, None)
            if not callable(fn):
                absent.append(span)
                continue
            traced = self.wrap(span, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)
        return absent


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, self seconds, and each call's duration."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["self_s"] += end - start - child_time[i]
        entry["durations"].append(end - start)
    return out


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles; 0 without data."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100)[q - 1]
