"""Per-layer tracing for the benchmark.

The tracer wraps the public functions and methods of each jperron module
(its layer) in every namespace that binds them, including names copied by
``from ... import`` into other modules, so calls between layers are seen.
Each wrapped call is a span: it counts a call, adds its duration to the
function's total time and its duration minus that of its child spans to
the function's self time.  Calls are also counted per (caller, callee)
pair, which gives counts such as "``__eq__`` calls made by
``floor_exact``".  Private helpers are wrapped only where another module
imports them; inside their own module their cost is their caller's.

Nothing is changed in the library's source: the wrappers are installed by
attribute assignment and removed by :meth:`Tracer.uninstall`.
"""

import importlib
import inspect
import time
import tracemalloc
from enum import Enum

LAYERS = (
    "polynomials",
    "scalars",
    "cf",
    "intmat",
    "bratteli",
    "lattices",
    "representation",
    "cli",
)

# dunder methods that do layer work (arithmetic, equality, construction)
_DUNDERS = frozenset(
    {
        "__init__",
        "__post_init__",
        "__add__",
        "__radd__",
        "__sub__",
        "__rsub__",
        "__mul__",
        "__rmul__",
        "__truediv__",
        "__rtruediv__",
        "__neg__",
        "__eq__",
        "__pow__",
    }
)


class Tracer:
    """Span recorder for one traced pass over the benchmark's ops.

    ``stats`` maps a key such as ``"scalars.floor_exact"`` or
    ``"scalars.AlgebraicScalar.__eq__"`` to ``[calls, self_s, total_s]``;
    ``pairs`` maps ``(caller key, callee key)`` to a call count.  With
    ``alloc_layer`` set (and tracemalloc running), the peak allocation of
    every outermost span of that layer is tracked in ``alloc_peak``.
    """

    def __init__(self, package, alloc_layer=None):
        self.package = package
        self.stats = {}
        self.pairs = {}
        self.stack = []
        self.paused = False
        self.alloc_layer = alloc_layer
        self.alloc_peak = 0
        self._patches = []

    def _wrap(self, fn, key):
        layer = key.split(".", 1)[0]
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self.stack
        pairs = self.pairs
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            if parent is not None:
                pk = (parent[0], key)
                pairs[pk] = pairs.get(pk, 0) + 1
            alloc = tracer.alloc_layer == layer and (
                parent is None or parent[1] != layer
            )
            if alloc:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            frame = [key, layer, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt - frame[2]
                stat[2] += dt
                if parent is not None:
                    parent[2] += dt
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    if peak > tracer.alloc_peak:
                        tracer.alloc_peak = peak

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def install(self):
        pkg = self.package
        modules = {
            layer: importlib.import_module("%s.%s" % (pkg.__name__, layer))
            for layer in LAYERS
        }
        layer_of = {mod.__name__: layer for layer, mod in modules.items()}

        for layer, mod in modules.items():
            for cname, cls in list(vars(mod).items()):
                if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                    continue
                if issubclass(cls, (Enum, BaseException)):
                    continue
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("_") and attr not in _DUNDERS:
                        continue
                    fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                    # skip non-functions and dataclass-generated methods
                    if not inspect.isfunction(fn) or fn.__code__.co_filename != mod.__file__:
                        continue
                    w = self._wrap(fn, "%s.%s.%s" % (layer, cname, attr))
                    if isinstance(raw, (staticmethod, classmethod)):
                        w = type(raw)(w)
                    self._patch(cls, attr, w)

        wrappers = {}
        for ns in list(modules.values()) + [pkg]:
            for name, obj in list(vars(ns).items()):
                if not inspect.isfunction(obj):
                    continue
                home = layer_of.get(obj.__module__)
                if home is None:
                    continue
                if name.startswith("_") and obj.__module__ == ns.__name__:
                    continue
                w = wrappers.get(obj)
                if w is None:
                    w = wrappers[obj] = self._wrap(obj, "%s.%s" % (home, obj.__name__))
                self._patch(ns, name, w)
        return self

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ----- reading the record -----

    def calls(self, key):
        return self.stats.get(key, (0, 0.0, 0.0))[0]

    def self_time(self, key):
        return self.stats.get(key, (0, 0.0, 0.0))[1]

    def total_time(self, key):
        return self.stats.get(key, (0, 0.0, 0.0))[2]

    def layer_calls(self, layer):
        return sum(s[0] for k, s in self.stats.items() if k.split(".", 1)[0] == layer)

    def layer_self(self, layer):
        return sum(s[1] for k, s in self.stats.items() if k.split(".", 1)[0] == layer)

    def pair(self, caller, callee):
        return self.pairs.get((caller, callee), 0)

    def counts(self):
        """Every count the record holds, for the determinism check."""
        out = {"calls:" + k: s[0] for k, s in self.stats.items() if s[0]}
        out.update(("pair:%s>%s" % k, v) for k, v in self.pairs.items())
        return out
