"""Minimal differentiable MLP core.

Model parameters live in a single flat float64 vector laid out per layer as
the row-major weight matrix followed by the bias. All operations here are
pure functions of their inputs; nothing mutates shared state, so values are
safe to reuse across threads; the one buffer a caller may hand in is
``gradient``'s ``out``. A ``Batch`` owns read-only copies of its arrays and
their label bound, so the per-call batch checks are O(1).
"""

from __future__ import annotations

import contextvars
import itertools
import math
import struct
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError, ContractViolation, DivergenceError, NumericError

LOSSES = ("softmax_cross_entropy", "quadratic")

CKPT_MAGIC = "fms-ckpt/1"


def _identity(*arrays: np.ndarray) -> None:
    pass


def _relu(a: np.ndarray) -> None:
    np.maximum(a, 0.0, out=a)


def _relu_derivative(dz: np.ndarray, a: np.ndarray) -> None:
    dz *= a > 0.0


def _tanh(a: np.ndarray) -> None:
    np.tanh(a, out=a)


def _tanh_derivative(dz: np.ndarray, a: np.ndarray) -> None:
    np.multiply(a, a, out=a)
    np.subtract(1.0, a, out=a)
    dz *= a


# Per activation: apply it in place, and scale the backpropagated error dz
# by its derivative, read off the activation ``a`` itself (relu: a > 0
# exactly where z > 0; tanh: 1 - a^2, formed in ``a``; identity: 1).
_ACTIVATION_KERNELS = {
    "identity": (_identity, _identity),
    "relu": (_relu, _relu_derivative),
    "tanh": (_tanh, _tanh_derivative),
}


@dataclass(frozen=True)
class ModelSpec:
    """Architecture of a fully connected classifier.

    ``layer_dims`` lists every layer's output width; the last entry is the
    class count. The quadratic loss is restricted to a single identity
    layer, where the whole objective is a quadratic in the parameters and
    closed forms exist for checking optimizers and meta-gradients.
    """

    input_dim: int
    layer_dims: tuple[int, ...]
    activation: str = "tanh"
    loss: str = "softmax_cross_entropy"

    def __post_init__(self):
        object.__setattr__(self, "layer_dims", tuple(int(d) for d in self.layer_dims))
        if self.input_dim < 1:
            raise ContractViolation("input_dim must be positive")
        if not self.layer_dims or any(d < 1 for d in self.layer_dims):
            raise ContractViolation("layer_dims must be non-empty positive integers")
        if self.activation not in _ACTIVATION_KERNELS:
            raise ContractViolation(f"unknown activation {self.activation!r}")
        if self.loss not in LOSSES:
            raise ContractViolation(f"unknown loss {self.loss!r}")
        if self.loss == "quadratic" and (
            len(self.layer_dims) != 1 or self.activation != "identity"
        ):
            raise ContractViolation(
                "quadratic loss requires a single layer with identity activation"
            )
        # (weight start, bias start, layer end, fan_out, fan_in) per layer,
        # computed once: every gradient step slices the flat vector by it.
        layout, offset, fan_in = [], 0, self.input_dim
        for fan_out in self.layer_dims:
            bias = offset + fan_in * fan_out
            layout.append((offset, bias, bias + fan_out, fan_out, fan_in))
            offset, fan_in = bias + fan_out, fan_out
        object.__setattr__(self, "_layout", tuple(layout))
        # The kernel's 2-D products. np.dot reaches the same BLAS routines as
        # matmul with less dispatch and matches it bit for bit, except when
        # an operand is 1x1: np.dot then takes a scalar path that can keep
        # the sign of a zero product and can give 0 where 0 * inf is nan.
        # Only a width-1 layer makes such an operand; such a spec keeps matmul.
        narrow = min(self.input_dim, *self.layer_dims) == 1
        object.__setattr__(self, "_dot", np.matmul if narrow else np.dot)
        # The hidden activation and its derivative, bound once.
        activate, derivative = _ACTIVATION_KERNELS[self.activation]
        object.__setattr__(self, "_activate", activate)
        object.__setattr__(self, "_derivative", derivative)
        # One-hot rows: row c is the target of class c. Read-only, so every
        # batch can gather from it; C*C*8 bytes per spec.
        eye = np.eye(self.layer_dims[-1])
        eye.flags.writeable = False
        object.__setattr__(self, "_eye", eye)

    @property
    def num_classes(self) -> int:
        return self.layer_dims[-1]

    @property
    def param_count(self) -> int:
        return self._layout[-1][2]

    def layer_shapes(self) -> list[tuple[int, int]]:
        """(fan_out, fan_in) per layer."""
        return [(fan_out, fan_in) for *_, fan_out, fan_in in self._layout]


@dataclass(frozen=True)
class Batch:
    """Labelled examples: a client's train or test split, or one minibatch of it.

    ``targets`` is only consulted by the quadratic loss and defaults to the
    one-hot encoding of ``y``; supplying explicit real-valued targets allows
    constructing homogeneous quadratics (zero targets) for closed-form tests.

    The record owns its arrays: construction copies them into C-contiguous
    float64/int64/float64 arrays and marks them read-only, and takes
    ``label_bound``, the largest label viewed as uint64 (a negative label
    reads as huge; 0 without labels). ``batch[rows]`` is the subset at a
    unit-step slice (read-only views) or at an index array or any other
    slice (a read-only gathered copy). A subset costs no conversion and no
    reduce: it keeps its parent's bound, which bounds every subset, so a
    subset of a batch whose labels are rejected is rejected too.
    """

    x: np.ndarray
    y: np.ndarray
    targets: np.ndarray | None = None
    label_bound: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # np.array copies, so no caller holds the arrays range-checked here.
        y = _frozen(np.array(self.y, dtype=np.int64))
        object.__setattr__(self, "x", _frozen(np.array(self.x, dtype=np.float64)))
        object.__setattr__(self, "y", y)
        if self.targets is not None:
            object.__setattr__(self, "targets", _frozen(np.array(self.targets, dtype=np.float64)))
        object.__setattr__(self, "label_bound", int(y.view(np.uint64).max()) if y.size else 0)

    def __getitem__(self, rows: slice | np.ndarray) -> Batch:
        x, y, targets = self.x, self.y, self.targets
        if isinstance(rows, slice) and rows.step in (None, 1):
            # A unit-step row slice of a read-only C-contiguous array is both.
            x, y = x[rows], y[rows]
            targets = None if targets is None else targets[rows]
        else:
            x, y = _frozen(x[rows]), _frozen(y[rows])
            targets = None if targets is None else _frozen(targets[rows])
        sub = object.__new__(Batch)
        sub.__dict__.update(x=x, y=y, targets=targets, label_bound=self.label_bound)
        return sub

    @property
    def n(self) -> int:
        return self.x.shape[0]


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only C-contiguous array, copied only if it is not one."""
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _check_params(spec: ModelSpec, params: np.ndarray) -> np.ndarray:
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 1 or params.shape[0] != spec.param_count:
        raise ContractViolation(
            f"expected {spec.param_count} parameters, got shape {params.shape}"
        )
    return params


def _check_batch(spec: ModelSpec, batch: Batch) -> None:
    x, y = batch.x, batch.y
    n = x.shape[0]
    if n == 0:
        raise ContractViolation("batch is empty")
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ContractViolation(
            f"feature dim {x.shape} does not match input_dim {spec.input_dim}"
        )
    if y.shape != (n,):
        raise ContractViolation("labels must be one per example")
    # One comparison checks both bounds: a negative label reads as a huge uint64.
    if batch.label_bound >= spec.num_classes:
        raise ContractViolation("labels must lie in [0, num_classes)")
    if batch.targets is not None and batch.targets.shape != (n, spec.num_classes):
        raise ContractViolation("targets must have shape (batch, num_classes)")


def unflatten_params(spec: ModelSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of the flat vector as per-layer (weights, bias). Treat as read-only."""
    params = _check_params(spec, params)
    return [
        (params[w0:b0].reshape(fan_out, fan_in), params[b0:end])
        for w0, b0, end, fan_out, fan_in in spec._layout
    ]


def init_params(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Uniform(-sqrt(6/(fan_in+fan_out))) weights, zero biases."""
    parts = []
    for fan_out, fan_in in spec.layer_shapes():
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        parts.append(rng.uniform(-limit, limit, size=fan_in * fan_out))
        parts.append(np.zeros(fan_out))
    return np.concatenate(parts)


def _forward(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> list[np.ndarray]:
    """Activations of every layer, sliced from the flat vector by the layout.

    ``acts[0]`` is x and ``acts[-1]`` the logits. A hidden layer's
    pre-activation is activated in place just before it feeds the next layer.
    """
    acts, dot, activate = [x], spec._dot, spec._activate
    for i, (w0, b0, end, fan_out, fan_in) in enumerate(spec._layout):
        a = acts[-1]
        if i:
            activate(a)
        z = dot(a, params[w0:b0].reshape(fan_out, fan_in).T)
        z += params[b0:end]
        acts.append(z)
    return acts


def forward_logits(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Raw class scores for a feature matrix of shape (n, input_dim)."""
    params = _check_params(spec, params)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ContractViolation("feature matrix does not match input_dim")
    # A diverged client's last finite iterate may overflow its logits.
    with np.errstate(over="ignore", invalid="ignore"):
        return _forward(spec, params, x)[-1]


def _loss_targets(spec: ModelSpec, batch: Batch) -> np.ndarray:
    if batch.targets is not None:
        return batch.targets
    return spec._eye.take(batch.y, axis=0)


def forward_loss(spec: ModelSpec, params: np.ndarray, batch: Batch) -> float:
    """Mean loss of the batch under the spec's loss function."""
    params = _check_params(spec, params)
    _check_batch(spec, batch)
    with np.errstate(over="ignore", invalid="ignore"):
        logits = _forward(spec, params, batch.x)[-1]
        if spec.loss == "softmax_cross_entropy":
            zmax = logits.max(axis=1, keepdims=True)
            lse = zmax[:, 0] + np.log(np.exp(logits - zmax).sum(axis=1))
            loss = np.mean(lse - logits[np.arange(batch.n), batch.y])
        else:
            diff = logits - _loss_targets(spec, batch)
            loss = 0.5 * np.mean(np.sum(diff * diff, axis=1))
    if not np.isfinite(loss):
        raise NumericError("non-finite loss")
    return float(loss)


# Set while sgd_trajectory holds the error state gradient needs (overflow is
# an anticipated outcome, reported as NumericError), so its steps skip entering it.
_STEP_ERRSTATE = contextvars.ContextVar("_STEP_ERRSTATE", default=False)


def gradient(
    spec: ModelSpec, params: np.ndarray, batch: Batch, out: np.ndarray | None = None
) -> np.ndarray:
    """Exact gradient of forward_loss with respect to the flat parameters.

    With ``out``, a writeable C-contiguous float64 array of shape (P,) that
    does not overlap ``params``, the gradient is written into it and ``out``
    is returned; a non-finite result is left there when NumericError is
    raised.
    """
    if _STEP_ERRSTATE.get():
        return _gradient(spec, params, batch, out)
    with np.errstate(over="ignore", invalid="ignore"):
        return _gradient(spec, params, batch, out)


def _gradient(spec: ModelSpec, params: np.ndarray, batch: Batch, out) -> np.ndarray:
    params = _check_params(spec, params)
    _check_batch(spec, batch)
    if out is None:
        out = np.empty(spec.param_count)
    elif not (
        isinstance(out, np.ndarray)
        and out.dtype == np.float64
        and out.shape == params.shape
        and out.flags.c_contiguous
        and out.flags.writeable
    ):
        raise ContractViolation(
            f"out must be a writeable C-contiguous float64 array of shape {params.shape}"
        )
    acts = _forward(spec, params, batch.x)

    # The logits buffer becomes the output error dz. Subtracting whole
    # one-hot rows keeps every bit of the label-entry subtraction, since
    # x - 0.0 == x for every double.
    dz = acts[-1]
    if spec.loss == "softmax_cross_entropy":
        dz -= np.maximum.reduce(dz, axis=1, keepdims=True)
        np.exp(dz, out=dz)
        dz /= np.add.reduce(dz, axis=1, keepdims=True)
        dz -= spec._eye.take(batch.y, axis=0)
    else:
        dz -= _loss_targets(spec, batch)
    dz /= dz.shape[0]

    # Backward from the last layer. Each layer's gradient is written straight
    # into its slice of the flat result, in the parameter layout. A hidden
    # activation is the kernel's own buffer and is dead once the products
    # below have read it, so the derivative may be formed in it.
    dot, derivative = spec._dot, spec._derivative
    for i in range(len(spec._layout) - 1, -1, -1):
        w0, b0, end, fan_out, fan_in = spec._layout[i]
        a = acts[i]
        dot(dz.T, a, out=out[w0:b0].reshape(fan_out, fan_in))
        np.add.reduce(dz, axis=0, out=out[b0:end])
        if i:
            dz = dot(dz, params[w0:b0].reshape(fan_out, fan_in))
            derivative(dz, a)
    # A finite sum of squares proves every entry finite; the sum overflows
    # for entries above about 1e154, so a non-finite one is confirmed.
    if not math.isfinite(out.dot(out)) and not np.isfinite(out).all():
        raise NumericError("non-finite gradient")
    return out


def sgd_trajectory(
    spec: ModelSpec,
    params: np.ndarray,
    schedules: list[Iterable[Batch]],
    update: Callable[[np.ndarray, np.ndarray, int, np.ndarray], None],
    grads: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, list[DivergenceError | None]]:
    """Step one trajectory per schedule, all from ``params`` and in lockstep.

    ``schedules`` holds M batch sequences of any lengths. At step position
    j, ``gradient`` is called once per stepping row, on its own iterate and
    batch, and then ``update(theta, g, j + 1, out)`` writes every row's
    candidate into ``out`` at once; ``theta`` and ``g`` are (M, P) and
    ``out`` overlaps neither. Every update operation is elementwise, so each
    row rounds exactly as its trajectory would alone.

    A row stops at the end of its schedule, or at a non-finite gradient or
    candidate: it keeps its last finite iterate and takes no further
    gradient, while the other rows step on. Returns the (M, P) final
    iterates, the (M, P) raw gradients of each row's last step, and one
    DivergenceError per row that stopped on a non-finite value, carrying its
    step index, else None; nothing is raised for divergence. With
    ``grads``, a C-contiguous float64 (M, K, P) array with K at least every
    schedule's length, row i's step j gradient is written into
    ``grads[i, j]``. A row's failed step leaves its gradient row undefined.

    ``gradient`` writes each step's result straight into its row of the
    gradient buffer, so no step allocates a result, and runs in the error
    state the loop holds, which it does not enter again.
    """
    params = _check_params(spec, params)
    if not schedules:
        raise ContractViolation("schedules must be non-empty")
    batches = [iter(s) for s in schedules]
    theta = np.tile(params, (len(batches), 1))
    spare, last = np.empty_like(theta), np.empty_like(theta)
    failures: list[DivergenceError | None] = [None] * len(batches)
    running = list(range(len(batches)))
    ones = np.ones(theta.shape[1])
    # Overflow here is an anticipated outcome, reported per row.
    with np.errstate(over="ignore", invalid="ignore"):
        mark = _STEP_ERRSTATE.set(True)
        try:
            for j in itertools.count():
                # At j == K no row can step; only the ended rows are found.
                g = last if grads is None or j == grads.shape[1] else grads[:, j]
                stepped = []
                for i in running:
                    batch = next(batches[i], None)
                    if batch is None:
                        if not j:
                            raise ContractViolation("batches must be non-empty")
                        if grads is not None:
                            last[i] = grads[i, j - 1]
                        continue
                    try:
                        gradient(spec, theta[i], batch, out=g[i])
                        stepped.append(i)
                    except NumericError as exc:
                        failures[i] = DivergenceError(
                            f"non-finite gradient at step {j}", step_index=j
                        )
                        failures[i].__cause__ = exc
                if not stepped:
                    break
                update(theta, g, j + 1, spare)
                # A finite row sum proves its row finite; else the exact mask decides.
                if not np.isfinite(spare.dot(ones)).all():
                    finite = np.isfinite(spare).all(axis=1)
                    for i in [i for i in stepped if not finite[i]]:
                        failures[i] = DivergenceError(
                            f"parameters diverged at step {j}", step_index=j
                        )
                    stepped = [i for i in stepped if finite[i]]
                running = stepped
                if len(running) < len(batches):
                    theta[running] = spare[running]  # a stopped row keeps its last finite iterate
                else:
                    theta, spare = spare, theta
        finally:
            _STEP_ERRSTATE.reset(mark)
    return theta, last, failures


def save_checkpoint(path, spec: ModelSpec, params: np.ndarray) -> None:
    """Versioned text header describing the spec, then the flat vector as
    a little-endian float64 array with a uint64 length prefix. A non-finite
    parameter is refused before the file is opened."""
    params = _check_params(spec, params)
    if not (finite := np.isfinite(params)).all():
        raise CheckpointError(f"non-finite parameter at index {int(finite.argmin())}")
    header = "\n".join(
        [
            CKPT_MAGIC,
            f"input_dim={spec.input_dim}",
            "layer_dims=" + ",".join(str(d) for d in spec.layer_dims),
            f"activation={spec.activation}",
            f"loss={spec.loss}",
            "",
            "",
        ]
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(struct.pack("<Q", params.shape[0]))
        fh.write(params.astype("<f8").tobytes())


def load_checkpoint(path) -> tuple[ModelSpec, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    sep = blob.find(b"\n\n")
    if sep < 0:
        raise CheckpointError("missing header terminator")
    try:
        lines = blob[:sep].decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise CheckpointError("header is not ASCII") from exc
    if not lines or lines[0] != CKPT_MAGIC:
        raise CheckpointError(f"expected {CKPT_MAGIC} header")
    fields = {}
    for line in lines[1:]:
        key, _, value = line.partition("=")
        fields[key] = value
    try:
        spec = ModelSpec(
            input_dim=int(fields["input_dim"]),
            layer_dims=tuple(int(d) for d in fields["layer_dims"].split(",")),
            activation=fields["activation"],
            loss=fields["loss"],
        )
    except KeyError as exc:
        raise CheckpointError(f"bad checkpoint header: no {exc.args[0]}= line") from None
    except (ValueError, ContractViolation) as exc:
        raise CheckpointError(f"bad checkpoint header: {exc}") from exc
    payload = blob[sep + 2 :]
    if len(payload) < 8:
        raise CheckpointError("missing length prefix")
    (count,) = struct.unpack("<Q", payload[:8])
    data = payload[8:]
    if len(data) < 8 * count:
        raise CheckpointError("truncated parameter payload")
    if len(data) > 8 * count:
        raise CheckpointError(
            f"{len(data) - 8 * count} trailing bytes after the parameter payload"
        )
    params = np.frombuffer(data, dtype="<f8").astype(np.float64)
    if count != spec.param_count:
        raise CheckpointError(
            f"checkpoint has {count} parameters but spec implies {spec.param_count}"
        )
    if not (finite := np.isfinite(params)).all():
        raise CheckpointError(f"non-finite parameter at index {int(finite.argmin())}")
    return spec, params
