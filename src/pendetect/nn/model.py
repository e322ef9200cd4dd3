"""Model specification, the assembled classifier, and checkpoints; also the
training settings, the split plan and the decision threshold, which
scoring and the CLI read without loading the training loop or the
evaluation protocols.

The reference architecture is two strided ReLU convolutions (8 filters,
kernel 5, stride 5; then 16 filters, kernel 3, stride 3) followed by two
bidirectional GRU layers of 32 units and a dense sigmoid head. The
second recurrent layer carries input dropout 0.1 (the conventional
dropout sitting between the two BiGRUs) and recurrent dropout 0.1; the
first carries none.

Each field of the layer specs, TrainConfig and SplitPlan declares its type,
default and allowed values once (see `fields`): construction checks them,
raising ValueError, and the CLI's config table reuses the declarations.

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
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..errors import DimensionMismatch, InputTooShort, ParseError, SpecMismatch
from ..errors import read_bytes, write_text
from .fields import Field, check, check_value, declared, setting
from .layers import CELLS, GATES, Conv1d, DenseSigmoid, Recurrent

CHECKPOINT_VERSION = "pendetect-checkpoint v1"

#: a sample is called PD when its probability is at least this
DECISION_THRESHOLD = 0.5
#: rows per eval forward in `predict`
SCORE_CHUNK_ROWS = 64
#: `predict` zero-pads each forward's rows to a multiple of this: BLAS works in row
#: blocks, and one row (GEMV) or two or three (GEMM's edge kernels) sum in another order
ROW_BLOCK = 4


@dataclass(frozen=True)
class Conv1dSpec:
    in_channels: int = setting(int, "[1, inf)")
    out_channels: int = setting(int, "[1, inf)")
    kernel: int = setting(int, "[1, inf)")
    stride: int = setting(int, "[1, inf)")
    activation: str = setting(str, ("relu", "none"), "relu")

    def __post_init__(self):
        check(self)


@dataclass(frozen=True)
class RecurrentSpec:
    cell: str = setting(str, CELLS)
    hidden_units: int = setting(int, "[1, inf)")
    bidirectional: bool = setting(bool, default=True)
    dropout_rate: float = setting(float, "[0, 1)", 0.0)
    recurrent_dropout_rate: float = setting(float, "[0, 1)", 0.0)

    def __post_init__(self):
        check(self)


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


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = setting(float, "[0, inf)", 0.001)
    batch_size: int = setting(int, "[1, inf)", 16)
    epochs: int = setting(int, "[1, inf)", 100)
    seed: int = setting(int, "[0, inf)", 0)
    adam_beta1: float = setting(float, "[0, 1)", 0.9)
    adam_beta2: float = setting(float, "[0, 1)", 0.999)
    adam_eps: float = setting(float, "(0, inf)", 1e-8)
    early_stop_patience: int | None = setting(int, "[1, inf)", 10, null=True)

    def __post_init__(self):
        check(self)


@dataclass(frozen=True)
class SplitPlan:
    """Either k-fold CV or a repeated train/val/test holdout.

    Splits are always stratified by label and grouped by subject.
    """

    kind: str = setting(str, ("kfold", "holdout"), config="kfold")
    seed: int = setting(int, "[0, inf)")
    k: int | None = setting(int, "[2, inf)", None, kind="kfold", config=10)
    train_frac: float | None = setting(float, "[0, 1]", None, kind="holdout")
    val_frac: float | None = setting(float, "[0, 1]", None, kind="holdout")
    test_frac: float | None = setting(float, "[0, 1]", None, kind="holdout")
    n_runs: int | None = setting(int, "[1, inf)", None, kind="holdout")

    def __post_init__(self):
        check(self)
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if self.kind == "holdout" and abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError(f"holdout fractions {fracs} must sum to 1")

    @classmethod
    def kfold(cls, k: int, seed: int) -> "SplitPlan":
        return cls(kind="kfold", seed=seed, k=k)

    @classmethod
    def holdout(
        cls,
        train_frac: float,
        val_frac: float,
        test_frac: float,
        n_runs: int,
        seed: int,
    ) -> "SplitPlan":
        return cls(
            kind="holdout",
            seed=seed,
            train_frac=train_frac,
            val_frac=val_frac,
            test_frac=test_frac,
            n_runs=n_runs,
        )

    def to_dict(self) -> dict:
        """The fields the plan's kind uses, and "stratified": true."""
        kept = (f.path for f in declared(SplitPlan) if f.kind in ("", self.kind))
        return {"stratified": True, **{name: getattr(self, name) for name in kept}}


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

    ``theta`` and ``grad`` are allocated once, sized from the layers' own
    block shapes, and every layer is built on its slice of them. With a
    generator the layers draw their initialization into it; without one
    (``rng=None``) every parameter is zero and nothing is drawn, or, given
    a ``theta`` vector, the model adopts that vector as its parameters.
    """

    def __init__(self, spec: ModelSpec, input_size: int, rng: np.random.Generator | None,
                 theta: np.ndarray | None = None):
        if spec.conv_layers and spec.conv_layers[0].in_channels != input_size:
            raise DimensionMismatch(
                f"first conv expects {spec.conv_layers[0].in_channels} channels, "
                f"input has {input_size}"
            )
        self.spec = spec
        self.input_size = input_size
        # (name, layer class, constructor arguments) in layout order
        plan = []
        width = input_size
        for i, c in enumerate(spec.conv_layers):
            plan.append((f"conv{i}", Conv1d,
                         (c.in_channels, c.out_channels, c.kernel, c.stride, c.activation)))
            width = c.out_channels
        for i, r in enumerate(spec.recurrent_layers):
            plan.append((f"rec{i}", Recurrent, (r.cell, width, r.hidden_units, r.bidirectional,
                                                r.dropout_rate, r.recurrent_dropout_rate)))
            width = r.hidden_units * (1 + r.bidirectional)
        plan.append(("head", DenseSigmoid, (width,)))
        sizes = [sum(math.prod(shape) for shape in kind.shapes(*args).values())
                 for _, kind, args in plan]
        total = sum(sizes)
        if theta is None:
            theta = np.zeros(total)
        elif rng is not None or theta.shape != (total,):
            raise ValueError(f"an adopted theta needs rng=None and shape ({total},)")
        self.theta = theta
        self.grad = np.zeros(total)
        self._params: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}
        layers = []
        offset = 0
        for (name, kind, args), size in zip(plan, sizes):
            flat = (theta[offset : offset + size], self.grad[offset : offset + size])
            layer = kind(*args, rng, flat)
            layers.append(layer)
            for key in layer.params:
                self._params[f"{name}/{key}"] = layer.params[key]
                self._grads[f"{name}/{key}"] = layer.grads[key]
            offset += size
        self.convs: list[Conv1d] = layers[: len(spec.conv_layers)]
        self.recurrents: list[Recurrent] = layers[len(spec.conv_layers) : -1]
        self.head: DenseSigmoid = layers[-1]
        if self.convs:
            self.convs[0]._input_grad = False  # nothing reads the gradient of the input

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

        A (T, m) matrix is a batch of one and gives a float (kept for
        perfbench's ``ScoreStream.finish`` while ``perfbench/`` is frozen;
        scoring goes through `predict`). The logits stay in ``head.logits``
        until the next forward. Train mode keeps what `backward` needs and
        draws dropout masks from `rng`; see the layers module.
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
        write_text(path, json.dumps(doc, sort_keys=True, separators=(",", ":")))


def predict(model: SequenceClassifier, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode (probabilities, logits) of a (T, N, m) array, in chunks of
    SCORE_CHUNK_ROWS rows, each zero-padded to a multiple of ROW_BLOCK rows.

    With every row in a full block, a row's p and logit do not depend on
    which other rows share its forward (a test pins it on the six reference
    models at one and two OpenBLAS threads): `score`'s p for a recording is
    the report's, and neither depends on the training batch size. A forward
    that overflows gives a non-finite p without a warning; callers check p."""
    n = x.shape[1]
    probs, logits = np.empty(n), np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, SCORE_CHUNK_ROWS):
            rows = min(SCORE_CHUNK_ROWS, n - start)
            chunk = np.zeros((len(x), rows + -rows % ROW_BLOCK, x.shape[2]))
            chunk[:, :rows] = x[:, start : start + rows]
            probs[start : start + rows] = model.forward(chunk.transpose(1, 0, 2))[:rows]
            logits[start : start + rows] = model.head.logits[:rows]
    return probs, logits

# the last checkpoint decoded: (file bytes, its read-only model, meta)
_last_decoded: tuple[bytes, SequenceClassifier, dict] | None = None


def _decode_checkpoint(raw: bytes, path: str | Path) -> tuple[SequenceClassifier, dict]:
    """Parse and verify checkpoint bytes into (model, meta): one model whose
    ``theta`` and parameter views refuse writes. Every refusal names
    `path`: a malformed file, a non-finite parameter or a normalization_ref
    that is not a plain file name is a ParseError; a foreign format, spec
    or block set a SpecMismatch."""
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
        row = Field("input_size", int, allowed="[1, inf)")
        input_size = check_value(row, doc["input_size"], ValueError)
        if spec_hash(spec, input_size) != doc["spec_sha256"]:
            raise SpecMismatch("spec hash does not match the stored spec", path=where)
        # a zero model of the spec: its views give the block names, shapes and
        # layout, and the stored blocks decode into them
        model = SequenceClassifier(spec, input_size, rng=None)
        stored, own = doc["params"], model.params()
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
    # every layer holds these same views, so the whole parameter store is read-only
    for block in (model.theta, *own.values()):
        block.flags.writeable = False
    return model, {"normalization_ref": ref, "preprocessing": pre}


def load_checkpoint(path: str | Path) -> tuple[SequenceClassifier, dict]:
    """The model stored at `path`, read-only, and its meta.

    Returns (model, meta) where meta holds the non-parameter payload:
    "normalization_ref" and "preprocessing" as stored by save_checkpoint.

    The file is read on every call, but the last file that decoded is
    kept: when the bytes are equal, the JSON parse, the checks and the
    base64 decode are skipped. One model is built per file content and
    every call on those bytes returns that same model, shared by all its
    callers: its ``theta`` and every ``params()`` block refuse writes
    (ValueError). Each call returns a new meta, so changing one never
    reaches the next load. To train on a loaded model, take a copy:
    ``SequenceClassifier(m.spec, m.input_size, None, theta=m.theta.copy())``.
    """
    global _last_decoded
    raw = read_bytes(path)
    last = _last_decoded  # one read: another thread may replace the entry
    if last is None or last[0] != raw:
        last = _last_decoded = (raw, *_decode_checkpoint(raw, path))
    _, model, meta = last
    return model, copy.deepcopy(meta)
