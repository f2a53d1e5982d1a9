"""In-memory spans around calls into the localent layers, made from outside.

``Tracer.install`` wraps every function in each layer module's ``__all__``,
and every method of each class there, wherever a ``localent`` module binds
it, so spans follow public names through refactors that keep them.  It also
counts calls to ``numpy.fft.fft2`` and ``numpy.fft.ifft2``.  Spans stay in
memory until the run ends.

A layer's self time is the time its spans cover minus the time their child
spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("protocols", "states", "covariance", "oracle")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, name, parent index or -1, start, end]
        self._stack: list[int] = []
        self.normals_drawn = 0
        self.fft2_calls = 0
        self.evolve_grid_sizes: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, name: str, fn):
        """``fn`` recording one span per call."""
        hook = self._hook(layer, name, fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            record = [layer, name, stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[4] = perf_counter()
                stack.pop()

        return traced

    def _hook(self, layer: str, name: str, fn):
        """Counter update for the calls whose arguments carry a count."""
        if layer == "protocols" and name.startswith("sample_"):
            signature = inspect.signature(fn)

            def count_normals(args, kwargs):
                self.normals_drawn += signature.bind(*args, **kwargs).arguments["n"]

            return count_normals
        if layer == "oracle" and name == "evolve":
            signature = inspect.signature(fn)

            def note_grid(args, kwargs):
                self.evolve_grid_sizes.append(signature.bind(*args, **kwargs).arguments["grid"].n)

            return note_grid
        return None

    def install(self) -> None:
        bound = [m for key, m in sys.modules.items()
                 if key == "localent" or key.startswith("localent.")]
        for layer in LAYERS:
            module = sys.modules[f"localent.{layer}"]
            for name in module.__all__:
                obj = getattr(module, name)
                if inspect.isfunction(obj):
                    traced = self.wrap(layer, name, obj)
                    for other in bound:
                        for attr, value in list(vars(other).items()):
                            if value is obj:
                                self._set(other, attr, traced)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_methods(layer, obj)

        def counted(fn):
            @functools.wraps(fn)
            def call(*args, **kwargs):
                self.fft2_calls += 1
                return fn(*args, **kwargs)

            return call

        self._set(np.fft, "fft2", counted(np.fft.fft2))
        self._set(np.fft, "ifft2", counted(np.fft.ifft2))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            setattr(*self._undo.pop())

    def _wrap_methods(self, layer: str, cls: type) -> None:
        # Dunder methods (dataclass __init__, __post_init__, __len__) and
        # properties stay unwrapped: they run on every attribute access or
        # construction and would cost more to trace than they take.
        for attr, member in list(vars(cls).items()):
            if attr.startswith("__"):
                continue
            name = f"{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                self._set(cls, attr, self.wrap(layer, name, member))
            elif isinstance(member, (classmethod, staticmethod)):
                self._set(cls, attr, type(member)(self.wrap(layer, name, member.__func__)))

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["layer", "name", "parent", "start", "end"],
                       "spans": self.spans}, handle)

    def layer_metrics(self, fft_floor_s: dict[int, float]) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters.

        ``fft_floor_s`` maps a grid size n to the time of one fft2 + ifft2
        round trip at that size.
        """
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        inclusive: dict[str, float] = defaultdict(float)
        named_calls: Counter = Counter()
        for index, (layer, name, _, start, end) in enumerate(self.spans):
            self_s[layer] += end - start - child[index]
            calls[layer] += 1
            inclusive[name] += end - start
            named_calls[name] += 1

        def total(predicate) -> float:
            return sum((value for name, value in inclusive.items() if predicate(name)), 0.0)

        evolve_s = inclusive["evolve"]
        evolves = len(self.evolve_grid_sizes)
        floor = (statistics.fmean(fft_floor_s[n] for n in self.evolve_grid_sizes)
                 if evolves else 0.0)
        standard_forms = named_calls["standard_form"]
        return {
            "cli.self_s": self_s["cli"],
            "protocols.self_s": self_s["protocols"],
            "protocols.calls": calls["protocols"],
            "protocols.sample_s": total(lambda name: name.startswith("sample_")),
            "protocols.normals_drawn": self.normals_drawn,
            "protocols.estimate_s": inclusive["estimate_dispersion"],
            "protocols.fit_s": inclusive["fit_dispersion_curve"]
                               + inclusive["refine_dispersion_fit"],
            "states.self_s": self_s["states"],
            "states.calls": calls["states"],
            "covariance.self_s": self_s["covariance"],
            "covariance.calls": calls["covariance"],
            "covariance.standard_form_us": (inclusive["standard_form"] / standard_forms * 1e6
                                            if standard_forms else 0.0),
            "oracle.self_s": self_s["oracle"],
            "oracle.evolve_s": evolve_s,
            "oracle.moments_s": inclusive["moments"],
            "oracle.marginal_s": total(lambda name: name.endswith("_marginal")),
            "oracle.fft2_calls": self.fft2_calls,
            "oracle.fft_floor_s": floor,
            "oracle.evolve_floor_ratio": evolve_s / evolves / floor if evolves else 0.0,
        }


def fft_round_trip_s(n: int, repeats: int = 5) -> float:
    """Median time of one fft2 + ifft2 round trip on an n x n complex grid."""
    rng = np.random.default_rng(n)
    grid = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    times = []
    for _ in range(repeats):
        start = perf_counter()
        np.fft.ifft2(np.fft.fft2(grid))
        times.append(perf_counter() - start)
    return statistics.median(times)
