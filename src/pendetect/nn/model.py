"""Model specification, the assembled classifier, and checkpoints.

The reference architecture is two strided ReLU convolutions (8 filters,
kernel 5, stride 5; then 16 filters, kernel 3, stride 3) followed by two
bidirectional GRU layers of 32 units and a dense sigmoid head. The
second recurrent layer carries input dropout 0.1 (the conventional
dropout sitting between the two BiGRUs) and recurrent dropout 0.1; the
first carries none.

The classifier owns one contiguous float64 parameter vector ``theta``
and one gradient vector ``grad`` of the same length. Every parameter
block a layer, optimizer or checkpoint sees is a named view into them
("conv0/W", "rec1/bwd/U", "head/b", ...), laid out in that order.

Checkpoints are a single JSON document: the spec, every parameter block
base64-encoded in documented order, and a SHA-256 over the canonical
spec encoding. Loading into a mismatched spec raises SpecMismatch. JSON
was chosen over binary containers because it is bit-stable: no embedded
timestamps, so identical runs write identical files.
"""

from __future__ import annotations

import base64
import copy
import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..errors import DimensionMismatch, InputTooShort, IoError, ParseError, SpecMismatch
from .layers import CELLS, GATES, Conv1d, DenseSigmoid, Recurrent

CHECKPOINT_VERSION = "pendetect-checkpoint v1"


def _require(spec, what: str, names: tuple[str, ...]) -> None:
    """TypeError unless each field in `names` of `spec` is `what`: "an
    integer", "a number" or "a bool". A bool is never a number."""
    types = {"an integer": int, "a number": (int, float), "a bool": bool}[what]
    for name in names:
        value = getattr(spec, name)
        if not isinstance(value, types) or (what != "a bool" and isinstance(value, bool)):
            raise TypeError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class Conv1dSpec:
    in_channels: int
    out_channels: int
    kernel: int
    stride: int
    activation: str = "relu"

    def __post_init__(self):
        _require(self, "an integer", ("in_channels", "out_channels", "kernel", "stride"))
        if self.kernel < 1 or self.stride < 1:
            raise ValueError("kernel and stride must be >= 1")
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError("channel counts must be >= 1")
        if self.activation not in ("relu", "none"):
            raise ValueError(f"activation must be 'relu' or 'none', got {self.activation!r}")


@dataclass(frozen=True)
class RecurrentSpec:
    cell: str
    hidden_units: int
    bidirectional: bool = True
    dropout_rate: float = 0.0
    recurrent_dropout_rate: float = 0.0

    def __post_init__(self):
        _require(self, "an integer", ("hidden_units",))
        _require(self, "a bool", ("bidirectional",))
        _require(self, "a number", ("dropout_rate", "recurrent_dropout_rate"))
        if self.cell not in CELLS:
            raise ValueError(f"cell must be one of {CELLS}, got {self.cell!r}")
        if self.hidden_units < 1:
            raise ValueError("hidden_units must be >= 1")
        if not (0 <= self.dropout_rate < 1 and 0 <= self.recurrent_dropout_rate < 1):
            raise ValueError("dropout rates must be in [0, 1)")


@dataclass(frozen=True)
class ModelSpec:
    conv_layers: tuple[Conv1dSpec, ...]
    recurrent_layers: tuple[RecurrentSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "conv_layers", tuple(self.conv_layers))
        object.__setattr__(self, "recurrent_layers", tuple(self.recurrent_layers))
        if not self.recurrent_layers:
            raise ValueError("at least one recurrent layer is required")
        for prev, nxt in zip(self.conv_layers, self.conv_layers[1:]):
            if prev.out_channels != nxt.in_channels:
                raise ValueError(
                    f"conv chain mismatch: {prev.out_channels} -> {nxt.in_channels}"
                )

    @classmethod
    def reference(cls, input_features: int, cell: str = "gru",
                  with_conv: bool = True) -> "ModelSpec":
        """The standard architecture; `cell` and `with_conv` span the ablation grid."""
        convs = ()
        if with_conv:
            convs = (
                Conv1dSpec(input_features, 8, kernel=5, stride=5),
                Conv1dSpec(8, 16, kernel=3, stride=3),
            )
        recs = (
            RecurrentSpec(cell, 32, bidirectional=True),
            RecurrentSpec(cell, 32, bidirectional=True,
                          dropout_rate=0.1, recurrent_dropout_rate=0.1),
        )
        return cls(conv_layers=convs, recurrent_layers=recs)

    def to_dict(self) -> dict:
        return {
            "conv_layers": [asdict(c) for c in self.conv_layers],
            "recurrent_layers": [asdict(r) for r in self.recurrent_layers],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        return cls(
            conv_layers=tuple(Conv1dSpec(**c) for c in d["conv_layers"]),
            recurrent_layers=tuple(RecurrentSpec(**r) for r in d["recurrent_layers"]),
        )


def spec_hash(spec: ModelSpec, input_size: int) -> str:
    canonical = json.dumps(
        {"input_size": input_size, "spec": spec.to_dict()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def closed_form_parameter_count(spec: ModelSpec, input_size: int) -> int:
    """Documented closed-form count, kept independent of the array shapes.

    conv: C_in*k*C_out + C_out. recurrent: gates*(in*h + h^2 + h) per
    direction, where gates is 1/3/4 for rnn/gru/lstm. head: width of the
    last recurrent output + 1.
    """
    total = 0
    width = input_size
    for c in spec.conv_layers:
        total += c.in_channels * c.kernel * c.out_channels + c.out_channels
        width = c.out_channels
    for r in spec.recurrent_layers:
        gates = GATES[r.cell]
        per_direction = gates * (width * r.hidden_units + r.hidden_units**2 + r.hidden_units)
        directions = 2 if r.bidirectional else 1
        total += per_direction * directions
        width = r.hidden_units * directions
    total += width + 1
    return total


class SequenceClassifier:
    """The full pipeline: conv stack, recurrent stack, sigmoid head.

    The head reads the final state of the last recurrent layer: for a
    bidirectional layer that is the forward state at the last step
    concatenated with the backward state at the first step (each
    direction's own final state).

    Built without a generator (``rng=None``) every parameter is zero and
    nothing is drawn: the form `load_checkpoint` fills.
    """

    def __init__(self, spec: ModelSpec, input_size: int, rng: np.random.Generator | None):
        if spec.conv_layers and spec.conv_layers[0].in_channels != input_size:
            raise DimensionMismatch(
                f"first conv expects {spec.conv_layers[0].in_channels} channels, "
                f"input has {input_size}"
            )
        self.spec = spec
        self.input_size = input_size
        self.convs: list[Conv1d] = []
        width = input_size
        for c in spec.conv_layers:
            self.convs.append(
                Conv1d(c.in_channels, c.out_channels, c.kernel, c.stride, c.activation, rng)
            )
            width = c.out_channels
        if self.convs:
            self.convs[0]._input_grad = False  # nothing reads the gradient of the input
        self.recurrents: list[Recurrent] = []
        for r in spec.recurrent_layers:
            layer = Recurrent(
                r.cell, width, r.hidden_units, r.bidirectional,
                r.dropout_rate, r.recurrent_dropout_rate, rng,
            )
            self.recurrents.append(layer)
            width = layer.output_size
        self.head = DenseSigmoid(width, rng)

        # move every block into the flat vectors and rebind the layers to views
        owners = [(f"conv{i}", conv) for i, conv in enumerate(self.convs)]
        owners += [(f"rec{i}", rec) for i, rec in enumerate(self.recurrents)]
        owners.append(("head", self.head))
        total = sum(v.size for _, layer in owners for v in layer.params.values())
        self.theta = np.empty(total)
        self.grad = np.zeros(total)
        self._params: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}
        offset = 0
        for name, layer in owners:
            for key, value in layer.params.items():
                end = offset + value.size
                view = self.theta[offset:end].reshape(value.shape)
                view[...] = value
                layer.params[key] = self._params[f"{name}/{key}"] = view
                layer.grads[key] = self._grads[f"{name}/{key}"] = (
                    self.grad[offset:end].reshape(value.shape)
                )
                offset = end

    # -- parameter store ------------------------------------------------------

    def params(self) -> dict[str, np.ndarray]:
        """Block name -> view into ``theta``, in layout order."""
        return self._params

    def grads(self) -> dict[str, np.ndarray]:
        """Block name -> view into ``grad``, in layout order."""
        return self._grads

    def zero_grads(self):
        self.grad.fill(0.0)

    # -- forward / backward -------------------------------------------------

    def min_input_length(self) -> int:
        """Smallest T the conv stack accepts (1 when there are no convs)."""
        t = 1
        for c in reversed(self.spec.conv_layers):
            t = (t - 1) * c.stride + c.kernel
        return t

    def forward(self, values: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None):
        """Probabilities for a (B, T, m) batch, as a (B,) array.

        A (T, m) matrix is a batch of one and gives a float. The logits
        behind the probabilities stay in ``head.logits`` until the next
        forward. Train mode keeps what `backward` needs and draws dropout
        masks from `rng`; see the layers module.
        """
        x = np.asarray(values, dtype=np.float64)
        single = x.ndim == 2
        if single:
            x = x[None]
        if x.ndim != 3:
            raise DimensionMismatch(
                f"expected a (B, T, m) batch or a (T, m) matrix, got shape {x.shape}"
            )
        if x.shape[1] < self.min_input_length():
            raise InputTooShort(
                f"length {x.shape[1]} < minimum {self.min_input_length()} for the conv stack"
            )
        x = np.ascontiguousarray(x.transpose(1, 0, 2))
        for conv in self.convs:
            x = conv.forward(x, train=train, rng=rng)
        for rec in self.recurrents:
            x = rec.forward(x, train=train, rng=rng)
        last = self.recurrents[-1]
        if last.bidirectional:
            state = np.concatenate([x[-1, :, : last.hidden], x[0, :, last.hidden :]], axis=1)
        else:
            state = x[-1]
        p = self.head.forward(state, train=train)
        return float(p[0]) if single else p

    def backward(self, dlogits) -> None:
        """Accumulate gradients for the preceding train-mode forward, given
        the (B,) logit gradients (a float for a batch of one)."""
        dlogits = np.atleast_1d(np.asarray(dlogits, dtype=np.float64))
        dstate = self.head.backward(dlogits)
        last = self.recurrents[-1]
        dseq = np.zeros((last.steps, len(dlogits), last.output_size))
        if last.bidirectional:
            dseq[-1, :, : last.hidden] = dstate[:, : last.hidden]
            dseq[0, :, last.hidden :] = dstate[:, last.hidden :]
        else:
            dseq[-1] = dstate
        for rec in reversed(self.recurrents):
            dseq = rec.backward(dseq)
        for conv in reversed(self.convs):
            dseq = conv.backward(dseq)

    # -- checkpoints ----------------------------------------------------------

    def save_checkpoint(
        self,
        path: str | Path,
        normalization_ref: str | None = None,
        preprocessing: dict | None = None,
    ) -> None:
        """Write a self-describing JSON checkpoint.

        `preprocessing` is an optional JSON object recording how inputs were
        prepared at training time, so that scoring can replay the same
        pipeline; its keys are the rows of cli.PREPROCESSING_FIELDS.
        """
        blocks = {
            key: {
                "shape": list(value.shape),
                "data": base64.b64encode(np.ascontiguousarray(value).tobytes()).decode("ascii"),
            }
            for key, value in self.params().items()
        }
        doc = {
            "format": CHECKPOINT_VERSION,
            "input_size": self.input_size,
            "spec": self.spec.to_dict(),
            "spec_sha256": spec_hash(self.spec, self.input_size),
            "normalization_ref": normalization_ref,
            "preprocessing": preprocessing,
            "params": blocks,
        }
        try:
            Path(path).write_text(
                json.dumps(doc, sort_keys=True, separators=(",", ":")), encoding="utf-8"
            )
        except OSError as exc:
            raise IoError(str(exc), path=str(path)) from exc

# the last checkpoint decoded: (file bytes, spec, input_size, theta, meta)
_last_decoded: tuple[bytes, ModelSpec, int, np.ndarray, dict] | None = None


def _decode_checkpoint(raw: bytes, path: str | Path) -> tuple[ModelSpec, int, np.ndarray, dict]:
    """Parse and verify checkpoint bytes into (spec, input_size, theta,
    meta). Every refusal names `path`: a malformed file, a non-finite
    parameter or a normalization_ref that is not a plain file name is a
    ParseError; a foreign format, spec or block set a SpecMismatch."""
    where = str(path)
    try:
        doc = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ParseError(f"not a JSON checkpoint: {exc}", path=where) from exc
    if not isinstance(doc, dict):
        raise ParseError("checkpoint is not a JSON object", path=where)
    if doc.get("format") != CHECKPOINT_VERSION:
        raise SpecMismatch(f"unknown checkpoint format {doc.get('format')!r}", path=where)
    try:
        spec = ModelSpec.from_dict(doc["spec"])
        input_size = doc["input_size"]
        if not isinstance(input_size, int) or isinstance(input_size, bool) or input_size < 1:
            raise ParseError(f"input_size must be an integer >= 1, got {input_size!r}",
                             path=where)
        if spec_hash(spec, input_size) != doc["spec_sha256"]:
            raise SpecMismatch("spec hash does not match the stored spec", path=where)
        # a zero model of the spec gives the block names, shapes and layout
        layout = SequenceClassifier(spec, input_size, rng=None)
        stored, own = doc["params"], layout.params()
        if set(stored) != set(own):
            raise SpecMismatch(
                f"checkpoint blocks {sorted(stored)} do not match model blocks {sorted(own)}",
                path=where,
            )
        for key, target in own.items():
            block = stored[key]
            if tuple(block["shape"]) != target.shape:
                raise SpecMismatch(
                    f"block {key}: checkpoint shape {block['shape']}, model shape {target.shape}",
                    path=where,
                )
            data = base64.b64decode(block["data"])
            target[...] = np.frombuffer(data, dtype=np.float64).reshape(target.shape)
            if not np.isfinite(target).all():
                raise ParseError(f"block {key} holds a non-finite value", path=where)
    except KeyError as exc:
        raise ParseError(f"checkpoint has no {exc} entry", path=where) from exc
    except (TypeError, ValueError, DimensionMismatch) as exc:
        raise ParseError(f"malformed checkpoint: {exc}", path=where) from exc
    ref, pre = doc.get("normalization_ref"), doc.get("preprocessing")
    if not (ref is None or isinstance(ref, str)) or not (pre is None or isinstance(pre, dict)):
        raise ParseError("malformed checkpoint: wrongly typed metadata", path=where)
    # the rule `features` applies to ids: the sidecar sits beside the checkpoint
    if ref is not None and (Path(ref).name != ref or "\0" in ref):
        raise ParseError(f"normalization_ref {ref!r} is not a plain file name", path=where)
    return spec, input_size, layout.theta, {"normalization_ref": ref, "preprocessing": pre}


def load_checkpoint(path: str | Path) -> tuple[SequenceClassifier, dict]:
    """Rebuild the model stored at `path`.

    Returns (model, meta) where meta holds the non-parameter payload:
    "normalization_ref" and "preprocessing" as stored by save_checkpoint.

    The file is read on every call, but the last file that decoded is
    kept: when the bytes are equal, the JSON parse, the checks and the
    base64 decode are skipped. Every call builds a new zero model from
    the decoded entry and copies its theta in, and returns a new meta, so
    changing one never reaches the next load.
    """
    global _last_decoded
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise IoError(str(exc), path=str(path)) from exc
    last = _last_decoded  # one read: another thread may replace the entry
    if last is None or last[0] != raw:
        last = _last_decoded = (raw, *_decode_checkpoint(raw, path))
    _, spec, input_size, theta, meta = last
    model = SequenceClassifier(spec, input_size, rng=None)
    model.theta[...] = theta
    return model, copy.deepcopy(meta)
