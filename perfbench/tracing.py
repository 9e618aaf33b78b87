"""In-memory span tracing of the covvsched modules, for the per-layer split.

`Tracer.install()` replaces every public function of the package modules
with a timing wrapper, in every module namespace that refers to it. That is
where callers look functions up (`covvsched.trace.count_suitable`,
`covvsched.schedsim.suitable_nodes`, `covvsched.growing.forward_pass`, ...),
so calls within a module are seen as well as calls across modules. Spans are
kept in memory with their parent's index; `self_times` subtracts each
span's children from it, so every span's time is counted once, in the
layer (module) that spent it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

#: The package modules on the measured path. `cli` only adds argument
#: parsing and file I/O around these, so it is not traced.
LAYERS = ("trace", "covv", "oracle", "neural", "growing", "evalkit", "schedsim", "pipeline")

#: Per-element helpers, called once per node, constraint, event or row.
#: Their calls cost about as much as a span, so they are left unwrapped and
#: their time stays in the caller's self time.
LEAVES = frozenset({
    "covv.value_satisfies", "covv.compare_values", "covv.align",
    "covv.constraint_to_json", "covv.constraint_from_json",
    "oracle.node_satisfies", "oracle.group_label",
    "trace.event_to_json", "trace.event_to_line",
})


def _targets(modules):
    found = {}
    for module in modules.values():
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__.startswith("covvsched.")):
                label = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                if label not in LEAVES:
                    found[obj] = label
    return found


class Tracer:
    """Records `[name, parent_index, start, end]` spans in call order."""

    def __init__(self, hooks=None):
        self.spans: list[list] = []
        self._stack: list[int] = []
        # label -> callable(args, kwargs, result), run after the span closes
        self.hooks = hooks or {}
        # (module, attribute, original, wrapper), built here so that
        # installing costs only the attribute swaps
        modules = {name: importlib.import_module(f"covvsched.{name}") for name in LAYERS}
        wrappers = {fn: self._wrap(fn, label) for fn, label in _targets(modules).items()}
        self._plan = [(module, name, obj, wrappers[obj])
                      for module in modules.values()
                      for name, obj in vars(module).items()
                      if inspect.isfunction(obj) and obj in wrappers]

    @contextmanager
    def span(self, name: str):
        rec = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, label):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self.hooks.get(label)

        if inspect.isgeneratorfunction(fn):
            # the span runs from the first item to exhaustion; the callers
            # here consume the generator whole with list()
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                rec = [label, stack[-1] if stack else -1, clock(), 0.0]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    rec[3] = clock()
                    stack.pop()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [label, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        for module, name, _, wrapper in self._plan:
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original, _ in self._plan:
            setattr(module, name, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(spans) -> dict:
    """Per-function inclusive time, self time and call count; per-layer self time."""
    own = self_times(spans)
    total = defaultdict(float)
    self_by_name = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    for (name, _, start, end), self_s in zip(spans, own):
        total[name] += end - start
        self_by_name[name] += self_s
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += self_s
    return {"total": total, "self": self_by_name, "calls": calls, "layer_self": layer_self,
            "min_self": min(own) if own else 0.0}


#: How far the layers' self times may miss the traced wall time, as a share.
#: The benchmark's own glue (installing the wrappers, building configs)
#: is about 0.1% of a full replay and under 1% of a smoke replay.
COVERAGE_TOLERANCE = 0.02


def coverage(summary, wall: float) -> float:
    """The layers' self times (benchmark glue left out) as a share of `wall`."""
    return sum(summary["layer_self"][layer] for layer in LAYERS) / wall if wall else 0.0


def split_problems(summary, wall: float) -> list[str]:
    """Check that the layers' self times account for `wall`, the traced wall time.

    Time outside every traced layer (benchmark glue, an untraced caller)
    shows as missing coverage. A negative self time means spans did not
    nest, which only generator spans can do.
    """
    problems = []
    if summary["min_self"] < -1e-6:
        problems.append(f"a span outlasts its parent by {-summary['min_self']:.6f}s")
    share = coverage(summary, wall)
    if abs(share - 1.0) > COVERAGE_TOLERANCE:
        problems.append(f"layer self times cover {share:.4f} of the {wall:.4f}s traced")
    return problems
