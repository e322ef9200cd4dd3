"""Outside-in span recording for the traced benchmark run.

The tracer wraps public functions of ``pendetect`` from the outside. A
function is replaced in every ``pendetect`` module that holds it, because
callers look names up where they imported them: ``evaluation`` binds
``assemble_features`` and ``train_model``, ``cli`` binds
``load_checkpoint``, and patching only the defining module would miss
those calls. Methods are replaced on their class. ``uninstall`` puts every
original object back, so an untraced operation runs the unmodified code.

Spans are kept in memory as a flat list. A layer's self time is its
span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import sys
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

GRID_CELLS = ("rnn", "lstm", "gru")
GRID_VARIANTS = tuple(f"{c}-{v}" for c in GRID_CELLS for v in ("conv", "noconv"))
_GATES = {"rnn": 1, "lstm": 4, "gru": 3}

# Every reported span: (name, extra counters, has children, workloads it serves).
# A span that records zero calls on a workload it serves fails the traced run.
_ALL = ("cv-gru-conv", "ablation-grid", "score-stream")
_TRAIN = ("cv-gru-conv", "ablation-grid")
_SCORE = ("score-stream",)
SPANS = (
    ("signal_io.generate_synthetic", (), False, _ALL),
    ("signal_io.parse_tablet_file", ("bytes",), False, _SCORE),
    ("features.assemble_features", ("rows",), False, _ALL),
    ("preprocess.fit_normalization", (), False, _ALL),
    ("preprocess.apply_normalization", (), False, _ALL),
    ("preprocess.fit_length", (), False, _ALL),
    ("preprocess.load_stats", (), False, _SCORE),
    ("nn.conv0.forward", ("flops",), False, _ALL),
    ("nn.conv0.backward", ("flops",), False, _TRAIN),
    ("nn.conv1.forward", ("flops",), False, _ALL),
    ("nn.conv1.backward", ("flops",), False, _TRAIN),
    ("nn.rec0.forward", ("steps", "flops"), False, _ALL),
    ("nn.rec0.backward", ("steps", "flops"), False, _TRAIN),
    ("nn.rec1.forward", ("steps", "flops"), False, _ALL),
    ("nn.rec1.backward", ("steps", "flops"), False, _TRAIN),
    ("nn.head", (), False, _ALL),
    ("nn.model.forward_eval", (), True, _ALL),
    ("nn.model.zero_grads", (), False, _TRAIN),
    ("nn.model.load_checkpoint", (), False, _SCORE),
    ("nn.model.save_checkpoint", (), False, _SCORE),
    ("nn.optim.Adam.step", (), False, _TRAIN),
    ("nn.train.train_step", ("sequences",), True, _TRAIN),
    ("evaluation.make_splits", (), False, _TRAIN),
    ("evaluation.metrics_from_scores", (), False, _TRAIN),
    ("evaluation.run_experiment", (), True, _TRAIN),
    ("evaluation.run_ablation_grid", (), True, ("ablation-grid",)),
    ("cli.score_file", (), True, _SCORE),
)
_REC_SPANS = tuple(
    f"nn.rec{i}.{d}" for i in range(2) for d in ("forward", "backward")
)
_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "bytes": "bytes",
          "rows": "count", "flops": "flop", "steps": "count", "sequences": "count"}


def per_layer_catalog() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in output order."""
    out = []
    for name, counters, has_children, _ in SPANS:
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
        if has_children:
            out.append((f"{name}.total_s", "s"))
        out.extend((f"{name}.{c}", _UNITS[c]) for c in counters)
    out.extend((f"{name}.us_per_step", "us") for name in _REC_SPANS)
    for variant in GRID_VARIANTS:
        out.append((f"{variant}.nn.rec.self_s", "s"))
        out.append((f"{variant}.nn.rec.steps", "count"))
    out.append(("trace.overhead_frac", "ratio"))
    return out


@dataclass
class Span:
    span_id: int
    parent: int | None
    trace_id: int
    name: str
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)
    variant: str | None = None


def self_times(spans: list[Span]) -> list[float]:
    """Per span, its duration minus the union of its children's intervals
    clipped to its own; `span_id` is the span's index in `spans`."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for s in spans:
        covered = 0.0
        run_lo = run_hi = None
        for c in sorted(children[s.span_id], key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((s.end - s.start) - covered)
    return out


def aggregate(spans: list[Span], overhead_frac: float) -> dict[str, float]:
    """Every per-layer metric of `per_layer_catalog`, summed over `spans`."""
    sums: dict[str, float] = defaultdict(float)
    for s, self_s in zip(spans, self_times(spans)):
        sums[f"{s.name}.calls"] += 1
        sums[f"{s.name}.self_s"] += self_s
        sums[f"{s.name}.total_s"] += s.end - s.start
        for key, value in s.counters.items():
            sums[f"{s.name}.{key}"] += value
        if s.variant is not None:
            sums[f"{s.variant}.nn.rec.self_s"] += self_s
            sums[f"{s.variant}.nn.rec.steps"] += s.counters["steps"]
    for name in _REC_SPANS:
        steps = sums[f"{name}.steps"]
        sums[f"{name}.us_per_step"] = 1e6 * sums[f"{name}.self_s"] / steps if steps else 0.0
    sums["trace.overhead_frac"] = overhead_frac
    return {
        name: float(sums[name]) if unit in ("s", "us", "ratio") else int(sums[name])
        for name, unit in per_layer_catalog()
    }


def missing_spans(metrics: dict[str, float], workload: str) -> list[str]:
    """Spans that serve `workload` but recorded no call."""
    return [name for name, _, _, serves in SPANS
            if workload in serves and metrics[f"{name}.calls"] == 0]


# ---------------------------------------------------------------------------
# counters, computed after a span ends


def _file_bytes(args, kwargs, result):
    return {"bytes": Path(args[0] if args else kwargs["path"]).stat().st_size}


def _rows(args, kwargs, result):
    return {"rows": result.values.shape[0]}


def _conv_flops(layer, t_out, passes):
    return {"flops": passes * 2 * t_out * layer.kernel * layer.in_channels * layer.out_channels}


def _rec_counts(layer, t, passes):
    directions = 2 if layer.bidirectional else 1
    steps = t * directions
    width = _GATES[layer.cell] * layer.hidden * (layer.input_size + layer.hidden)
    return {"steps": steps, "flops": passes * 2 * steps * width}


def _sequences(args, kwargs, result):
    return {"sequences": len(args[1] if len(args) > 1 else kwargs["batch"])}


class Tracer:
    """Records spans around pendetect's public functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trace_id = 0
        self._stack: list[int] = []
        self._variant: str | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._layer_names: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- recording ------------------------------------------------------------

    def _call(self, name, fn, args, kwargs, counters=None, variant=None):
        span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                    self.trace_id, name, 0.0, variant=variant)
        self.spans.append(span)
        self._stack.append(span.span_id)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if counters is not None:
            span.counters = counters(args, kwargs, result)
        return result

    def _wrap(self, name, fn, counters=None):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, counters)
        return wrapper

    # -- special cases ----------------------------------------------------------

    def _model_forward(self, fn):
        names = self._layer_names

        def forward(model, values, train=False, rng=None):
            if model.head not in names:
                for i, conv in enumerate(model.convs):
                    names[conv] = f"conv{i}"
                for i, rec in enumerate(model.recurrents):
                    names[rec] = f"rec{i}"
                names[model.head] = "head"
            if train:
                return fn(model, values, train, rng)
            return self._call("nn.model.forward_eval", fn, (model, values, train, rng), {})
        return forward

    def _conv(self, fn, direction):
        def method(layer, x, *args, **kwargs):
            name = f"nn.{self._layer_names.get(layer, 'conv')}.{direction}"
            index = len(self.spans)
            out = self._call(name, fn, (layer, x) + args, kwargs)
            t_out = out.shape[0] if direction == "forward" else x.shape[0]
            self.spans[index].counters = _conv_flops(
                layer, t_out, 1 if direction == "forward" else 2
            )
            return out
        return method

    def _rec(self, fn, direction):
        def method(layer, x, *args, **kwargs):
            name = f"nn.{self._layer_names.get(layer, 'rec')}.{direction}"
            index = len(self.spans)
            out = self._call(name, fn, (layer, x) + args, kwargs, variant=self._variant)
            self.spans[index].counters = _rec_counts(
                layer, x.shape[0], 1 if direction == "forward" else 2
            )
            return out
        return method

    def _run_experiment(self, fn):
        def run_experiment(dataset, feature_selection, model_spec, *args, **kwargs):
            outer = self._variant
            spec = model_spec
            cell = spec.recurrent_layers[0].cell if spec is not None else "gru"
            conv = bool(spec.conv_layers) if spec is not None else True
            self._variant = f"{cell}-{'conv' if conv else 'noconv'}"
            try:
                return self._call("evaluation.run_experiment", fn,
                                  (dataset, feature_selection, model_spec) + args, kwargs)
            finally:
                self._variant = outer
        return run_experiment

    # -- installation ---------------------------------------------------------------

    def _replace_function(self, module_name, attr, wrapper_for):
        original = getattr(sys.modules[module_name], attr)
        wrapper = wrapper_for(original)
        for name, module in list(sys.modules.items()):
            if (name == "pendetect" or name.startswith("pendetect.")) and \
                    getattr(module, attr, None) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def _replace_method(self, cls, attr, wrapper):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        from pendetect.nn.layers import Conv1d, DenseSigmoid, Recurrent
        from pendetect.nn.model import SequenceClassifier
        from pendetect.nn.optim import Adam

        if self._patches:
            raise RuntimeError("tracer is already installed")
        functions = (
            ("pendetect.signal_io", "generate_synthetic", None),
            ("pendetect.signal_io", "parse_tablet_file", _file_bytes),
            ("pendetect.features", "assemble_features", _rows),
            ("pendetect.preprocess", "fit_normalization", None),
            ("pendetect.preprocess", "apply_normalization", None),
            ("pendetect.preprocess", "fit_length", None),
            ("pendetect.preprocess", "load_stats", None),
            ("pendetect.nn.model", "load_checkpoint", None),
            ("pendetect.nn.train", "train_step", _sequences),
            ("pendetect.evaluation", "make_splits", None),
            ("pendetect.evaluation", "metrics_from_scores", None),
            ("pendetect.evaluation", "run_ablation_grid", None),
            ("pendetect.cli", "score_file", None),
        )
        for module_name, attr, counters in functions:
            span_name = f"{module_name.removeprefix('pendetect.')}.{attr}"
            self._replace_function(
                module_name, attr,
                lambda fn, n=span_name, c=counters: self._wrap(n, fn, c),
            )
        self._replace_function("pendetect.evaluation", "run_experiment", self._run_experiment)

        self._replace_method(SequenceClassifier, "forward",
                             self._model_forward(SequenceClassifier.forward))
        for attr in ("zero_grads", "save_checkpoint"):
            self._replace_method(SequenceClassifier, attr,
                                 self._wrap(f"nn.model.{attr}", getattr(SequenceClassifier, attr)))
        self._replace_method(Adam, "step", self._wrap("nn.optim.Adam.step", Adam.step))
        for direction in ("forward", "backward"):
            self._replace_method(Conv1d, direction, self._conv(getattr(Conv1d, direction), direction))
            self._replace_method(Recurrent, direction, self._rec(getattr(Recurrent, direction), direction))
            self._replace_method(DenseSigmoid, direction,
                                 self._wrap("nn.head", getattr(DenseSigmoid, direction)))

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
