"""Client and server optimizer state machines.

The server optimizers treat the aggregated client delta as a pseudo-gradient:
plain SGD and momentum add ``lr * delta`` (momentum through a velocity
buffer), while Adam feeds the negated delta through the standard
bias-corrected update. State transitions are pure; ``server_apply`` returns a
new state and never mutates its inputs.

``adam_step`` is the one Adam update, shared by the server and by client
personalization. Its caller owns every buffer: the step updates the moment
buffers ``m`` and ``v`` in place and writes the new parameters into ``out``,
using ``scratch`` for intermediates, and allocates nothing.
``server_apply`` hands it copies of the state's moments (or fresh zeros)
and fresh ``out`` and ``scratch`` arrays, so server transitions stay pure;
personalization steps every client's row of (M, P) moments with one call
per step. ``sgd_update`` is the SGD rule that local training and
personalization hand to ``model.sgd_trajectory``.
``make_client_batches`` is the one per-epoch shuffler, shared by local
training and personalization; it builds a step count of batches lazily, one
epoch at a time, as read-only row views of one gather of the train split.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .errors import ContractViolation, NumericError
from .model import Batch

SERVER_KINDS = ("sgd", "momentum", "adam")


@dataclass(frozen=True)
class ClientOptimizerConfig:
    """Plain SGD settings used for local client steps."""

    lr: float
    batch_size: int

    def __post_init__(self):
        if not 0 <= self.lr < np.inf:
            raise ContractViolation("client lr must be non-negative and finite")
        if self.batch_size < 1:
            raise ContractViolation("batch_size must be positive")


@dataclass(frozen=True)
class ServerOptimizerState:
    """A server optimizer: its kind and hyperparameters, which are checked
    here, and its state. A fresh state has no buffers; ``server_apply``
    starts them at zero on the first step."""

    kind: str
    lr: float
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    velocity: np.ndarray | None = None
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    step_count: int = 0

    def __post_init__(self):
        if self.kind not in SERVER_KINDS:
            raise ContractViolation(f"unknown server optimizer {self.kind!r}")
        if not 0 < self.lr < np.inf:
            raise ContractViolation("server lr must be positive and finite")
        for name in ("momentum", "beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ContractViolation(f"server {name} must lie in [0, 1)")
        if not 0 < self.eps < np.inf:
            raise ContractViolation("server eps must be positive and finite")


def server_apply(
    state: ServerOptimizerState, params: np.ndarray, delta: np.ndarray
) -> tuple[np.ndarray, ServerOptimizerState]:
    """Apply one server step to ``params`` given the aggregated delta.

    Raises NumericError when the delta or the new parameters are not finite.
    """
    params = np.asarray(params, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if params.shape != delta.shape:
        raise ContractViolation("delta shape does not match parameters")
    if not np.isfinite(delta).all():
        raise NumericError("non-finite aggregated delta")

    t = state.step_count + 1
    # Overflow here is an anticipated outcome, reported via NumericError.
    with np.errstate(over="ignore", invalid="ignore"):
        if state.kind == "sgd":
            new_params, new_state = params + state.lr * delta, replace(state, step_count=t)
        elif state.kind == "momentum":
            velocity = state.velocity if state.step_count else np.zeros_like(params)
            velocity = state.momentum * velocity + delta
            new_params = params + state.lr * velocity
            new_state = replace(state, velocity=velocity, step_count=t)
        else:
            if state.step_count:
                m, v = state.m.copy(), state.v.copy()
            else:
                m, v = np.zeros_like(params), np.zeros_like(params)
            new_params = np.empty_like(params)
            adam_step(
                params, -delta, m, v, t, state.lr, state.beta1, state.beta2, state.eps,
                out=new_params, scratch=np.empty_like(params),
            )
            new_state = replace(state, m=m, v=v, step_count=t)
    if not np.isfinite(new_params).all():
        raise NumericError("non-finite parameters after the server step")
    return new_params, new_state


def adam_step(
    params: np.ndarray,
    g: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    *,
    out: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Step ``t`` (counted from 1) of bias-corrected Adam on gradient ``g``.

    Updates ``m`` and ``v`` in place and writes the new parameters into
    ``out``; ``params`` and ``g`` are only read. ``out`` and ``scratch``
    must not overlap each other or any input. Each operation rounds as in
    ``params - lr * m_hat / (sqrt(v_hat) + eps)`` with
    ``m_hat = (beta1 * m + (1 - beta1) * g) / (1 - beta1**t)`` and
    ``v_hat = (beta2 * v + (1 - beta2) * g * g) / (1 - beta2**t)``.
    """
    m *= beta1
    np.multiply(g, 1.0 - beta1, out=scratch)
    m += scratch
    v *= beta2
    np.multiply(g, 1.0 - beta2, out=scratch)
    scratch *= g
    v += scratch
    np.divide(m, 1.0 - beta1**t, out=scratch)
    scratch *= lr
    np.divide(v, 1.0 - beta2**t, out=out)
    np.sqrt(out, out=out)
    out += eps
    np.divide(scratch, out, out=scratch)
    np.subtract(params, scratch, out=out)


def sgd_update(lr: float) -> Callable[[np.ndarray, np.ndarray, int, np.ndarray], None]:
    """The update rule ``out = theta - lr * g`` for ``model.sgd_trajectory``;
    the step count is unused. ``out`` must not overlap ``theta``."""
    if not 0 <= lr < np.inf:
        raise ContractViolation("the SGD step size must be non-negative and finite")

    def update(theta: np.ndarray, g: np.ndarray, t: int, out: np.ndarray) -> None:
        np.multiply(g, lr, out=out)
        np.subtract(theta, out, out=out)

    return update


def make_client_batches(
    client, steps: int, batch_size: int, rng: np.random.Generator
) -> Iterator[Batch]:
    """The first ``steps`` chunks of the client's train split, shuffled once per epoch.

    Each epoch's short last chunk is kept, so an epoch covers every training
    example exactly once, and E epochs are E * ceil(n / B) steps. Batches are
    built lazily: an epoch's permutation is drawn when its first batch is
    taken, so none is drawn past the last step. An epoch's batches are
    read-only views into one gathered copy of the split that keep its label
    bound (``Batch.__getitem__``), so no batch is converted or range-checked
    again. The arguments are checked at the call.
    """
    if steps < 1:
        raise ContractViolation("steps must be positive")
    if not isinstance(batch_size, (int, np.integer)) or batch_size < 1:
        raise ContractViolation(f"batch size must be a positive int, not {batch_size!r}")
    train = client.train
    if train.n == 0:  # its epochs would never yield a batch
        raise ContractViolation("client has no training data")
    return islice(_epoch_batches(train, batch_size, rng), steps)


def _epoch_batches(train: Batch, batch_size, rng) -> Iterator[Batch]:
    while True:
        epoch = train[rng.permutation(train.n)]
        for start in range(0, train.n, batch_size):
            yield epoch[start : start + batch_size]
