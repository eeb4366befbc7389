"""Outside-in tracing of chanent by module, without touching its source.

`Tracer.installed()` wraps every public function and public method of each
`chanent` module, plus the two outside boundaries the modules call into
(`numpy.linalg` and `scipy.optimize.minimize`), and restores them on exit.
A wrapped object is replaced in every `chanent` namespace that holds it, so
`from .matfun import psd_sqrt` style imports are traced too. A class's
public methods, properties and cached properties are wrapped as
`layer.Class.attr`, and its constructor as `layer.Class`. Private helpers
are not wrapped: their time is their caller's.

Spans are aggregated as they close instead of being stored, which keeps the
traced run's memory flat when a trial makes 10^5 calls:
- calls per wrapped function, and calls into each layer from another layer;
- self time per layer: span time minus the time of its child spans;
- inclusive time per wrapped function;
- for LAPACK-backed `numpy.linalg` calls, the matrices decomposed;
- for `minimize`, function evaluations and results that did not converge.

`cli.main` is wrapped like every public function, so the `cli` layer's self
time is the CLI's wall time minus the other layers' top-level spans; the
trial functions in `cli._TRIALS` are private and counted there.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("sampling", "matfun", "states", "entropy", "channels", "bounds", "qubit", "davies", "cli",
          "linalg", "optimize")

# numpy.linalg functions that factor or solve their input, one LAPACK call per
# matrix of a stacked (..., n, n) argument.
LAPACK = {"cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq", "matrix_rank",
          "pinv", "qr", "slogdet", "solve", "svd", "tensorinv", "tensorsolve"}


def _matrices(args, kwargs) -> int:
    a = args[0] if args else next(iter(kwargs.values()), None)
    shape = getattr(a, "shape", None)
    if shape is None or len(shape) <= 2:
        return 1
    return math.prod(shape[:-2])


class Tracer:
    """Per-layer counters and times of one traced pass."""

    def __init__(self) -> None:
        self.calls = Counter()  # wrapped function key -> calls
        self.layer_calls = Counter()  # layer -> calls entering it from another layer
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.inclusive_s = defaultdict(float)  # wrapped function key -> seconds
        self.matrices = 0
        self.lapack_calls = 0
        self.nfev = 0
        self.unconverged = 0
        self._stack: list[list] = []  # open spans: [layer, seconds of closed children]

    def counts(self) -> dict:
        """Every count the pass made; two passes over the same inputs must agree exactly."""
        return {
            "calls": dict(self.calls),
            "layer_calls": dict(self.layer_calls),
            "matrices": self.matrices,
            "lapack_calls": self.lapack_calls,
            "nfev": self.nfev,
            "unconverged": self.unconverged,
        }

    def _wrap(self, layer: str, key: str, fn):
        stack = self._stack
        lapack = layer == "linalg" and key.rpartition(".")[2] in LAPACK
        minimize = key == "optimize.minimize"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None or parent[0] != layer:
                self.layer_calls[layer] += 1
            self.calls[key] += 1
            if lapack:
                self.lapack_calls += 1
                self.matrices += _matrices(args, kwargs)
            span = [layer, 0.0]
            stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.self_s[layer] += elapsed - span[1]
                self.inclusive_s[key] += elapsed
                if parent is not None:
                    parent[1] += elapsed
            if minimize:
                self.nfev += int(result.nfev)
                self.unconverged += not result.success
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap chanent, numpy.linalg and scipy.optimize.minimize; restore them on exit."""
        import numpy.linalg
        import scipy.optimize

        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "chanent" or name.startswith("chanent."))}
        replaced = {}  # id(original function) -> wrapper
        undo = []  # (owner, attribute, original value)

        def patch(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        try:
            for name in sorted(modules):
                mod = modules[name]
                layer = name.rpartition(".")[2]
                for attr, obj in list(vars(mod).items()):
                    if attr.startswith("_") or getattr(obj, "__module__", None) != name:
                        continue
                    if inspect.isfunction(obj):
                        replaced[id(obj)] = self._wrap(layer, f"{layer}.{attr}", obj)
                    elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                        self._patch_class(obj, layer, patch)
            for attr in numpy.linalg.__all__:
                obj = getattr(numpy.linalg, attr)
                if callable(obj) and not inspect.isclass(obj):
                    replaced.setdefault(id(obj), self._wrap("linalg", f"linalg.{attr}", obj))
                    patch(numpy.linalg, attr, replaced[id(obj)])
            minimize = scipy.optimize.minimize
            replaced[id(minimize)] = self._wrap("optimize", "optimize.minimize", minimize)
            patch(scipy.optimize, "minimize", replaced[id(minimize)])
            for mod in modules.values():
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in replaced:
                        patch(mod, attr, replaced[id(obj)])
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _patch_class(self, cls, layer: str, patch) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr == "__init__":
                key = f"{layer}.{cls.__name__}"  # constructions
            elif attr.startswith("_"):
                continue
            else:
                key = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                patch(cls, attr, self._wrap(layer, key, obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                patch(cls, attr, type(obj)(self._wrap(layer, key, obj.__func__)))
            elif isinstance(obj, property) and obj.fget is not None:
                patch(cls, attr, obj.getter(self._wrap(layer, key, obj.fget)))
            elif isinstance(obj, functools.cached_property):
                cached = functools.cached_property(self._wrap(layer, key, obj.func))
                cached.__set_name__(cls, attr)
                patch(cls, attr, cached)
