"""Outside-in layer tracing for the benchmark.

The tracer replaces public functions of the ``kforms`` modules at the
names their callers look up (a module global such as
``kforms.quadrature.affine_jacobian``, or a class attribute such as
``Mlp.forward_cached``) with wrappers that time each call, and puts the
originals back afterwards.  No file of the package is changed.

Spans are aggregated in memory as they close, keyed by (phase, span):
calls, total time, and self time, which is the span's duration minus
the time covered by its child spans.  ``layer_metrics`` turns the
aggregate into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

# Layer spans, in pipeline order.  Each reports .calls, .total_s, .self_s.
SPANS = (
    "data.build",
    "simplicial.build_complex",
    "forms.geometry",
    "quadrature.forward",
    "quadrature.backward",
    "nn.forward",
    "nn.backward",
    "nn.optimizer",
    "model.evaluate",
    "model.readout",
    "model.train",
)

# (module or "module:Class", attribute, span).  Every attribute is looked
# up there by the code that calls it, so wrapping it catches every call.
TARGETS = (
    ("kforms.data", "gen_paths", "data.build"),
    ("kforms.data", "gen_surfaces", "data.build"),
    ("kforms.data", "parse_tu", "data.build"),
    ("kforms.data", "tu_to_dataset", "data.build"),
    ("kforms.data", "build_complex", "simplicial.build_complex"),
    ("kforms.simplicial", "build_complex", "simplicial.build_complex"),
    ("kforms.quadrature", "affine_jacobian", "forms.geometry"),
    ("kforms.quadrature", "epsilon_all", "forms.geometry"),
    ("kforms.model", "integration_matrix", "quadrature.forward"),
    ("kforms.model", "integration_matrix_forward", "quadrature.forward"),
    ("kforms.model", "integration_matrix_backward", "quadrature.backward"),
    ("kforms.nn:Mlp", "forward_cached", "nn.forward"),
    ("kforms.nn:Mlp", "backward", "nn.backward"),
    ("kforms.nn:Adam", "step", "nn.optimizer"),
    ("kforms.nn:Sgd", "step", "nn.optimizer"),
    ("kforms.model", "evaluate", "model.evaluate"),
    ("kforms.model", "readout_forward", "model.readout"),
    ("kforms.model", "readout_backward", "model.readout"),
    ("kforms.model", "cross_entropy", "model.readout"),
    ("kforms.model", "train", "model.train"),
)

# Extra per-layer metrics beyond the three per span: name -> unit.
DERIVED = {
    "forms.geometry.per_simplex": "ratio",
    "nn.forward.rows": "count",
    "nn.forward.flop": "flop",
    "model.forward_per_backward": "ratio",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def metric_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.total_s"] = "s"
        units[f"{span}.self_s"] = "s"
    units.update(DERIVED)
    return units


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Span and count recorder; ``phase`` tags everything recorded."""

    def __init__(self):
        self.phase = "setup"
        self.stats: dict[tuple[str, str], list[float]] = {}  # -> [calls, total, self]
        self.counts: dict[tuple[str, str], float] = {}
        self.simplices: dict[str, set] = {}  # phase -> distinct (item, simplex) pairs
        self._stack: list[list[float]] = []  # per open span: [time covered by children]

    def count(self, name: str, amount: float = 1) -> None:
        key = (self.phase, name)
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, span: str, fn, on_call=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stat = self.stats.setdefault((self.phase, span), [0, 0.0, 0.0])
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - children[0]
                if on_call is not None:
                    on_call(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_jacobian(self, embedding, simplex, *_args, **_kwargs):
        self.count("geometry_calls")
        self.simplices.setdefault(self.phase, set()).add((id(embedding), tuple(simplex)))

    def _on_mlp_forward(self, mlp, x, *_args, **_kwargs):
        rows = x.shape[0] if getattr(x, "ndim", 1) == 2 else 1
        self.count("mlp_rows", rows)
        self.count("mlp_flop", rows * sum(2 * w.size for w in mlp.weights))

    def _on_forward(self, *_args, **_kwargs):
        self.count("forward_passes")

    def _on_backward(self, *_args, **_kwargs):
        self.count("backward_passes")

    def _hook(self, attribute: str):
        return {
            "affine_jacobian": self._on_jacobian,
            "forward_cached": self._on_mlp_forward,
            "integration_matrix_forward": self._on_forward,
            "integration_matrix_backward": self._on_backward,
        }.get(attribute)

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attribute, span in TARGETS:
                obj = _resolve(owner)
                original = getattr(obj, attribute)
                saved.append((obj, attribute, original))
                setattr(obj, attribute, self._wrap(span, original, self._hook(attribute)))
            yield self
        finally:
            for obj, attribute, original in reversed(saved):
                setattr(obj, attribute, original)

    def self_time(self, phase: str) -> float:
        return sum(stat[2] for (p, _), stat in self.stats.items() if p == phase)

    def layer_metrics(self, train_wall_s: float, overhead_s: float) -> dict:
        """Per-layer metrics over every phase of the traced run; the two
        ratios and the unattributed remainder are taken over ``train``."""
        out = {}
        for span in SPANS:
            calls = total = own = 0.0
            for (_, name), (c, t, s) in self.stats.items():
                if name == span:
                    calls, total, own = calls + c, total + t, own + s
            out[f"{span}.calls"] = int(calls)
            out[f"{span}.total_s"] = total
            out[f"{span}.self_s"] = own

        def counted(name, phase=None):
            return sum(v for (p, n), v in self.counts.items() if n == name and phase in (None, p))

        pairs = len(self.simplices.get("train", ()))
        geometry = counted("geometry_calls", "train")
        out["forms.geometry.per_simplex"] = geometry / pairs if pairs else 0.0
        out["nn.forward.rows"] = int(counted("mlp_rows"))
        out["nn.forward.flop"] = int(counted("mlp_flop"))
        backward = counted("backward_passes", "train")
        out["model.forward_per_backward"] = (
            counted("forward_passes", "train") / backward if backward else 0.0
        )
        out["trace.overhead_s"] = overhead_s
        out["trace.unattributed_s"] = train_wall_s - self.self_time("train")
        return out
