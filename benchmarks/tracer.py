"""Outside-in tracing of shallowop's layers.

The tracer wraps public names at the place the pipeline looks them up
(module globals such as ``shallowop.construct.draw_features`` and class
attributes such as ``ShallowVectorNetwork.evaluate_many``), so no program
code changes.  Each wrapper keeps a count, total time and self time (time
not covered by a nested wrapped call); coarse hooks also keep one span
``(name, start, end, parent)`` per call.  A hook whose target does not exist
is skipped and listed in ``missing``, so the tracer survives refactors that
delete a name.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Hook:
    """One wrapped name.

    ``targets`` are ``"module:attr"`` or ``"module:Class.attr"`` paths that
    all feed the same layer name.  ``spans`` keeps per-call spans (leave it
    off for names called hundreds of thousands of times).  ``samples`` and
    ``result_count`` extract an extra count from the call's arguments or
    result.
    """

    name: str
    targets: tuple[str, ...]
    spans: bool = True
    samples: object = None
    result_count: object = None


def _len_arg(index):
    def count(args, kwargs):
        return len(args[index])
    return count


# Layers are this repository's modules; each hook feeds one layer metric.
HOOKS = (
    Hook("experiment.run_experiment", ("shallowop:run_experiment",
                                       "shallowop.experiment:run_experiment")),
    Hook("inputs.sample_ensemble", ("shallowop.experiment:sample_ensemble",)),
    Hook("inputs.random_functional", ("shallowop.construct:random_functional",), spans=False),
    Hook("seeding.derive_seed", ("shallowop.construct:derive_seed",
                                 "shallowop.experiment:derive_seed"), spans=False),
    Hook("operators.apply_many", ("shallowop.operators:Operator.apply_many",),
         samples=_len_arg(1)),
    Hook("targets.seminorm", ("shallowop.targets:LqNorm.__call__",
                              "shallowop.targets:SupDerivative.__call__",
                              "shallowop.targets:SchwartzWeighted.__call__",
                              "shallowop.targets:DualPairing.__call__"), spans=False),
    Hook("construct.assemble", ("shallowop.experiment:assemble_vector_network",)),
    Hook("construct.eps_net", ("shallowop.construct:build_epsilon_net",),
         result_count=len),
    Hook("construct.partition", ("shallowop.construct:build_partition",)),
    Hook("construct.features", ("shallowop.construct:draw_features",)),
    Hook("construct.fit", ("shallowop.construct:fit_ridge_features",)),
    Hook("construct.solve", ("shallowop.construct:least_squares_solve",)),
    Hook("construct.uniform_error", ("shallowop.construct:uniform_error",
                                     "shallowop.experiment:uniform_error")),
    Hook("network.init", ("shallowop.network:ShallowVectorNetwork.__init__",)),
    Hook("network.evaluate_many", ("shallowop.network:ShallowVectorNetwork.evaluate_many",),
         samples=_len_arg(1)),
    Hook("network.serialize", ("shallowop:serialize_network",
                               "shallowop.network:serialize_network",
                               "shallowop.experiment:serialize_network")),
    Hook("network.deserialize", ("shallowop:deserialize_network",
                                 "shallowop.network:deserialize_network")),
)


class LayerStats:
    __slots__ = ("calls", "total", "child", "samples", "results")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.samples = 0
        self.results = 0

    @property
    def self_time(self):
        return self.total - self.child


def _resolve(path):
    """(owner, attr, current value) for a hook path, or None if absent."""
    module_name, _, attr_path = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        # only patch attributes the class itself defines, never inherited ones
        if attr not in vars(owner):
            return None
        return owner, attr, vars(owner)[attr]
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Installs wrappers on enter and restores the originals on exit."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.stats = {h.name: LayerStats() for h in hooks}
        self.spans = []
        self.missing = []
        self._stack = []  # [stats, child_time, span_index] frames
        self._patched = []

    def reset(self):
        for name in self.stats:
            self.stats[name] = LayerStats()
        self.spans = []

    def __enter__(self):
        self.missing = []
        for hook in self.hooks:
            for path in hook.targets:
                found = _resolve(path)
                if found is None:
                    self.missing.append(path)
                    continue
                owner, attr, original = found
                setattr(owner, attr, self._wrap(hook, original))
                self._patched.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []
        return False

    def _wrap(self, hook, fn):
        tracer = self
        name = hook.name
        keep_span = hook.spans
        samples = hook.samples
        result_count = hook.result_count
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stats = tracer.stats[name]
            stack = tracer._stack
            if stack and stack[-1][0] is stats:
                # the same layer reached through a second wrapped name
                return fn(*args, **kwargs)
            parent = stack[-1][2] if stack else -1
            span_index = -1
            if keep_span:
                span_index = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, parent])
            frame = [stats, 0.0, span_index if keep_span else parent]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stats.calls += 1
                stats.total += elapsed
                stats.child += frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if keep_span:
                    tracer.spans[span_index][1] = start
                    tracer.spans[span_index][2] = end
            if samples is not None:
                stats.samples += samples(args, kwargs)
            if result_count is not None:
                stats.results += result_count(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def hooked(self, name):
        """True when at least one target of the named hook was wrapped."""
        return any(h.name == name and any(p not in self.missing for p in h.targets)
                   for h in self.hooks)
