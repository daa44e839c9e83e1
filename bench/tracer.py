"""Per-layer self time and work counts, recorded from outside the program.

`Tracer.install()` rebinds the public functions of every cohaut module, and a
fixed list of methods, to wrappers that time each call.  A layer's self time
is the time inside its spans minus the time of the spans nested in them, so
the layers' self times add up to the time spent inside cohaut.  Nothing is
rebound unless `install()` is called: an untraced child runs the program
exactly as shipped.

Every place a function is bound gets the wrapper: `from .algebra import
multiply` in `coherence` and `model`, `from .cohomology import cohomology` in
`whitehead` and `cli`, and the re-exports in `cohaut/__init__`.  Modules are
reached with `importlib.import_module`, which returns the `sys.modules` entry,
because `import cohaut.cohomology` yields the re-exported function instead.

The program runs in one thread, so no layer waits on a queue or a lock and the
tracer records no wait time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

# Modules of src/cohaut, named as layers.  corpus and dsl only build models.
LAYERS = (
    "algebra",
    "model",
    "cohomology",
    "linalg",
    "whitehead",
    "coherence",
    "diagsolve",
    "cli",
    "corpus",
    "dsl",
)

# Methods that carry a layer's work or a count.  Methods of the value types
# (Generator, Monomial, Polynomial, SullivanModel accessors) run millions of
# times per workload and stay unwrapped; their time counts toward the caller.
# `diagsolve` builds windows through `complex_for(m).window(k)` and `.index(k)`,
# so those `_Complex` methods are wrapped to charge that work to cohomology.
METHODS = {
    "model": {
        "SullivanModel": ("d", "truncate"),
        "CochainMorphism": ("__init__",),
    },
    "cohomology": {
        "_Complex": ("__init__", "index", "window"),
        "CohomologyBasis": ("class_of", "representative", "representatives", "linear_parts"),
    },
    "diagsolve": {"SolutionSet": ("solutions",)},
}

MARK = "__cohaut_bench_span__"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Spans and counts of one process.  `reset()` starts a new recording."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.queried: set = set()
        self._stack = [0.0]  # time of nested spans, one entry per open span
        self.installed = 0
        self._hooks = {
            "cohomology.cohomology": self._on_cohomology,
            "linalg.rref": self._on_rref,
            "whitehead.build_wes": lambda a, k, r: self._add("whitehead.nodes", len(r.nodes)),
            "whitehead.check_exactness": lambda a, k, r: self._add("whitehead.checks", len(r.checks)),
            "coherence.try_lift": self._on_lift,
            "diagsolve.solve": lambda a, k, r: self._add("diagsolve.branches", len(r.branches)),
        }

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.queried.clear()
        self._stack[:] = [0.0]

    def _add(self, key: str, n: int) -> None:
        self.counts[key] += n

    def _on_cohomology(self, args, kwargs, result) -> None:
        self.queried.add((_arg(args, kwargs, 0, "m"), _arg(args, kwargs, 1, "k")))

    def _on_rref(self, args, kwargs, result) -> None:
        m = _arg(args, kwargs, 0, "m")
        self.counts["linalg.rref_entries"] += len(m) * (len(m[0]) if m else 0)

    def _on_lift(self, args, kwargs, result) -> None:
        self.counts["coherence.ok"] += result.ok
        gens = [g.name for g in _arg(args, kwargs, 0, "xi").source.generators]
        if result.ok:
            self.counts["coherence.stages"] += len(gens)
        else:
            self.counts["coherence.stages"] += gens.index(result.obstruction.generator) + 1

    def _wrap(self, key: str, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        hook = self._hooks.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[key] += dt - stack.pop()
                stack[-1] += dt
                calls[key] += 1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        setattr(span, MARK, key)
        self.installed += 1
        return span

    def install(self) -> None:
        """Wrap every public function and the listed methods of each layer."""
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"cohaut.{layer}")
            for name, fn in list(vars(mod).items()):
                if (
                    not name.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(fn)
                ):
                    replaced[id(fn)] = self._wrap(f"{layer}.{name}", fn)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    fn = cls.__dict__.get(meth) if cls is not None else None
                    if inspect.isfunction(fn):
                        setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))
        # rebind every module-level name that refers to a wrapped function
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "cohaut" and not mod_name.startswith("cohaut."):
                continue
            for name, value in list(vars(mod).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and getattr(wrapper, "__wrapped__", None) is value:
                    setattr(mod, name, wrapper)

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))


def wrapped_functions() -> int:
    """Number of distinct functions and methods in cohaut that carry a span."""
    found = set()
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "cohaut" and not mod_name.startswith("cohaut."):
            continue
        for value in vars(mod).values():
            members = vars(value).values() if inspect.isclass(value) else (value,)
            found.update(id(v) for v in members if hasattr(v, MARK))
    return len(found)
