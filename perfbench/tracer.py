"""Per-layer spans, recorded from outside the library.

The tracer replaces the public names that reflectlab modules bind from one
another (and the sampler, rule and prefix-event methods that every rule call
goes through) with wrappers that open a span, and restores them afterwards.
A span that opens inside a span of the same layer is folded into it, so a
layer's calls count entries into the layer from outside.  Spans are reduced
on the fly into per-layer call counts, self time (the span's time minus the
time its child spans cover) and counters, kept in memory and reported when
the run ends.  Times are integer nanoseconds, so the self times of all
layers add up to the root spans' time exactly.
"""

from __future__ import annotations

import functools
import inspect
import math
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

from reflectlab import path, rational, samplers, signs, stopping, verify

ROOT = "verify.loop"

#: Modules whose bindings are replaced; cli does constant work per run.
MODULES = (path, rational, samplers, signs, stopping, verify)

RULE_LAYERS = {
    stopping.FirstPassage: "stopping.level",
    stopping.TwoSidedHit: "stopping.level",
    stopping.LadderStep: "stopping.ladder",
    stopping.FixedTime: "stopping.other",
    stopping.MinOf: "stopping.other",
    stopping.MaxOf: "stopping.other",
    stopping.Mixture: "stopping.other",
    stopping.ComposeReflect: "stopping.other",
}
EVENTS = (stopping.TimeCompare, stopping.SignAtTime)
SAMPLERS = (samplers.BrownianMotion, samplers.DriftedBM,
            samplers.DyadicCounterexample, samplers.StoppedSymmetric,
            samplers.OconeTimeChange)


def _public_functions(module) -> list:
    return [obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__]


def _function_layers() -> dict:
    layers = {
        path.reflect_at_time: "path.reflect",
        path.reflect_at_rule: "path.reflect",
        path.negate: "path.reflect",
        path.value_at: "path.value",
        path.max_deviation: "path.value",
        stopping.ladder_trace: "stopping.ladder",
        verify.ks_2samp: "verify.ks",
    }
    for module, layer in ((signs, "signs"), (rational, "rational")):
        for fn in _public_functions(module):
            layers[fn] = layer
    return layers


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [layer, child_ns]
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.root_ns = 0

    def wrap(self, layer: str, fn, count=None):
        """fn inside a span of layer; count(args, out, outermost) runs after
        the span closes, outermost telling whether the caller is outside
        the stopping layers."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.stack
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            outermost = not (stack and stack[-1][0].startswith("stopping."))
            frame = [layer, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - t0
                stack.pop()
                self.calls[layer] += 1
                self.self_ns[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.root_ns += elapsed
            if count is not None:
                count(args, out, outermost)
            return out

        return traced

    # counters, keyed by the metric they feed -------------------------------

    def _inserted(self, before, after, outermost: bool) -> None:
        if outermost:
            self.counts["stopping.knots_inserted"] += (after.knots.size
                                                       - before.knots.size)

    def _count_sample(self, args, out, outermost) -> None:
        self.counts["samplers.knots_out"] += out.knots.size

    def _count_level(self, args, out, outermost) -> None:
        p = args[1]
        self.counts["stopping.level.knots_in"] += p.knots.size
        self.counts["stopping.level.unobserved"] += out[0] == math.inf
        self._inserted(p, out[1], outermost)

    def _count_ladder_step(self, args, out, outermost) -> None:
        self.counts["stopping.ladder.knots_in"] += args[1].knots.size
        self._inserted(args[1], out[1], outermost)

    def _count_ladder_trace(self, args, out, outermost) -> None:
        self.counts["stopping.ladder.knots_in"] += args[2].knots.size
        self._inserted(args[2], out.path, outermost)

    def _count_other(self, args, out, outermost) -> None:
        self._inserted(args[1], out[1], outermost)

    # installation ----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Replace the traced names for the duration of the block."""
        saved = []

        def patch(owner, name, layer, count=None):
            original = getattr(owner, name)
            fn = original
            if inspect.isgeneratorfunction(original):
                # run the generator inside the span
                fn = functools.wraps(original)(
                    lambda *a, **k: iter(list(original(*a, **k))))
            saved.append((owner, name, original))
            setattr(owner, name, self.wrap(layer, fn, count))

        rule_counts = {"stopping.level": self._count_level,
                       "stopping.ladder": self._count_ladder_step}
        layers = _function_layers()
        counters = {stopping.ladder_trace: self._count_ladder_trace}
        try:
            for cls in SAMPLERS:
                patch(cls, "sample", "samplers", self._count_sample)
            for cls, layer in RULE_LAYERS.items():
                patch(cls, "_observe", layer,
                      rule_counts.get(layer, self._count_other))
            for cls in EVENTS:
                patch(cls, "holds", "stopping.other")
            for module in MODULES:
                for name, obj in list(vars(module).items()):
                    layer = layers.get(obj) if callable(obj) else None
                    if layer is not None:
                        patch(module, name, layer, counters.get(obj))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def root(self, fn):
        """fn as a root span: an entry point called by the benchmark."""
        return self.wrap(ROOT, fn)

    # results ---------------------------------------------------------------

    def self_s(self, layer: str) -> float:
        return self.self_ns[layer] / 1e9

    def self_sum_ns(self) -> int:
        return sum(self.self_ns.values())

    def metrics(self) -> dict:
        level_calls = self.calls["stopping.level"]
        unobserved = self.counts["stopping.level.unobserved"]
        return {
            "samplers.calls": self.calls["samplers"],
            "samplers.self_s": self.self_s("samplers"),
            "samplers.knots_out": self.counts["samplers.knots_out"],
            "stopping.level.calls": level_calls,
            "stopping.level.self_s": self.self_s("stopping.level"),
            "stopping.level.knots_in": self.counts["stopping.level.knots_in"],
            "stopping.level.unobserved_ratio":
                unobserved / level_calls if level_calls else 0.0,
            "stopping.ladder.calls": self.calls["stopping.ladder"],
            "stopping.ladder.self_s": self.self_s("stopping.ladder"),
            "stopping.ladder.knots_in":
                self.counts["stopping.ladder.knots_in"],
            "stopping.other.self_s": self.self_s("stopping.other"),
            "stopping.knots_inserted": self.counts["stopping.knots_inserted"],
            "path.reflect.calls": self.calls["path.reflect"],
            "path.reflect.self_s": self.self_s("path.reflect"),
            "path.value.calls": self.calls["path.value"],
            "path.value.self_s": self.self_s("path.value"),
            "signs.calls": self.calls["signs"],
            "signs.self_s": self.self_s("signs"),
            "rational.calls": self.calls["rational"],
            "rational.self_s": self.self_s("rational"),
            "verify.loop.self_s": self.self_s(ROOT),
            "verify.ks.calls": self.calls["verify.ks"],
            "verify.ks.self_s": self.self_s("verify.ks"),
        }
