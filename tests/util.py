"""Independent oracles shared by the test modules.

Everything here deliberately avoids the library's backprop and trajectory
code paths: gradients come from central finite differences on the scalar
loss or from a plainly written forward and backprop reference, client
batches from a plain per-epoch shuffling loop, Adam from its textbook
expression, and quadratic-model expectations come from explicit matrix
algebra on a Hessian assembled straight from the batch. The lockstep
trajectories and personalization are checked against one-client step loops
that call ``gradient`` once per step, run the clients one after another in
id order, and round every update as the library's stacked one must.
``drain`` collects a training run's round stream the way ``train`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from fedmetasim import (
    Batch,
    DivergenceError,
    EvalSnapshot,
    ModelSpec,
    NumericError,
    TrainingRun,
    forward_loss,
    gradient,
    sample_clients,
    substream,
)
from fedmetasim.data import ClientDataset
from fedmetasim.personalization import ADAM_LR


def fd_gradient(spec, params, batch, h=1e-5):
    """Central-difference gradient of forward_loss, one coordinate at a time."""
    params = np.asarray(params, dtype=np.float64)
    out = np.empty(params.shape[0])
    for i in range(params.shape[0]):
        bumped = params.copy()
        bumped[i] = params[i] + h
        up = forward_loss(spec, bumped, batch)
        bumped[i] = params[i] - h
        down = forward_loss(spec, bumped, batch)
        out[i] = (up - down) / (2.0 * h)
    return out


def _reference_pass(spec, params, x):
    """Per-layer (weight, bias) arrays, and the pre-activations and
    activations of a forward pass written as ``a @ w.T + b``."""
    params = np.asarray(params, dtype=np.float64)
    layers, offset, fan_in = [], 0, spec.input_dim
    for fan_out in spec.layer_dims:
        w = params[offset : offset + fan_out * fan_in].reshape(fan_out, fan_in)
        offset += fan_out * fan_in
        layers.append((w, params[offset : offset + fan_out]))
        offset += fan_out
        fan_in = fan_out

    pres, acts = [], [np.asarray(x, dtype=np.float64)]
    for i, (w, b) in enumerate(layers):
        z = acts[-1] @ w.T + b
        pres.append(z)
        if i == len(layers) - 1 or spec.activation == "identity":
            acts.append(z)
        elif spec.activation == "relu":
            acts.append(np.maximum(z, 0.0))
        else:
            acts.append(np.tanh(z))
    return layers, pres, acts


def reference_forward(spec, params, x):
    """Logits written plainly, as the exact-arithmetic contract of
    ``model.forward_logits``: ``a @ w.T + b`` per layer, each hidden layer
    activated."""
    return _reference_pass(spec, params, x)[2][-1]


def reference_gradient(spec, params, batch):
    """Backprop written plainly, as the exact-arithmetic contract of
    ``model.gradient``: per-layer weight and bias arrays, ``a @ w.T + b``,
    the softmax as ``exp(z - max)`` divided by its row sum, and each
    activation derivative taken from the pre-activation. Every operation
    rounds as the kernel's does, so the two agree bit for bit.
    """
    layers, pres, acts = _reference_pass(spec, params, batch.x)
    logits, n = acts[-1], batch.x.shape[0]
    if spec.loss == "softmax_cross_entropy":
        zmax = logits.max(axis=1, keepdims=True)
        ez = np.exp(logits - zmax)
        dz = ez / ez.sum(axis=1, keepdims=True)
        dz[np.arange(n), batch.y] -= 1.0
        dz = dz / n
    else:
        targets = batch.targets if batch.targets is not None else onehot(batch.y, spec.num_classes)
        dz = (logits - targets) / n

    parts = []
    for i in range(len(layers) - 1, -1, -1):
        parts = [(dz.T @ acts[i]).ravel(), dz.sum(axis=0)] + parts
        if i > 0:
            da = dz @ layers[i][0]
            if spec.activation == "relu":
                dz = da * (pres[i - 1] > 0.0).astype(np.float64)
            elif spec.activation == "tanh":
                dz = da * (1.0 - acts[i] * acts[i])
            else:
                dz = da
    return np.concatenate(parts)


def reference_client_batches(client, steps, batch_size, rng):
    """The batching contract of ``optimizers.make_client_batches``, as a
    plain per-epoch loop: draw one permutation per epoch, in epoch order,
    gather the epoch's examples and chunk them, keeping the short tail,
    until ``steps`` batches are taken. A rewrite of the batcher must give
    the same bytes and leave the generator in the same state."""
    train, batches = client.train, []
    while len(batches) < steps:
        order = rng.permutation(train.n)
        x, y = train.x[order], train.y[order]
        for start in range(0, train.n, batch_size):
            batches.append(Batch(x[start : start + batch_size], y[start : start + batch_size]))
    return batches[:steps]


def reference_sgd_trajectory(spec, params, batches, beta):
    """One client's SGD trajectory as a plain step loop, the per-client
    contract of ``model.sgd_trajectory``: (final parameters, list of raw
    step gradients). A non-finite gradient or iterate raises
    DivergenceError carrying the step index."""
    theta, grads = np.array(params, dtype=np.float64), []
    with np.errstate(over="ignore", invalid="ignore"):
        for j, batch in enumerate(batches):
            try:
                g = gradient(spec, theta, batch)
            except NumericError as exc:
                raise DivergenceError(f"non-finite gradient at step {j}", step_index=j) from exc
            theta = theta - beta * g
            if not np.isfinite(theta).all():
                raise DivergenceError(f"parameters diverged at step {j}", step_index=j)
            grads.append(g)
    return theta, grads


def reference_local_update(spec, params, client, cfg, rng, trace=False):
    """One client's update under a round config, alone: (update, its (K, P)
    raw step gradients when ``trace`` else None). Epoch-counted fedavg runs
    E full epochs; otherwise the first K batches (K+1 for fomaml). fomaml's
    update is -beta times the last gradient, every other one the delta."""
    lr, batch_size = cfg.client_cfg.lr, cfg.client_cfg.batch_size
    if cfg.epochs is not None:
        k = cfg.epochs * math.ceil(client.train.n / batch_size)
    else:
        k = cfg.steps + (cfg.algorithm == "fomaml")
    batches = reference_client_batches(client, k, batch_size, rng)
    final, grads = reference_sgd_trajectory(spec, params, batches, lr)
    delta = -lr * grads[-1] if cfg.algorithm == "fomaml" else final - params
    return delta, np.stack(grads) if trace else None


def reference_round_updates(spec, params, dataset, cfg, round_index, seed, trace=False):
    """The client half of ``federation.run_round`` with the clients run one
    after another in id order: (ids, (M, P) updates, per-client gradients
    or None). The first client to diverge raises the round's
    DivergenceError, and no later client runs."""
    ids = sample_clients(
        dataset.train_client_ids, cfg.clients_per_round, substream(seed, "round.sample", round_index)
    )
    deltas, grads = np.empty((len(ids), np.size(params))), []
    for i, cid in enumerate(ids):
        rng, client = substream(seed, "round.batch", round_index, cid), dataset.clients[cid]
        try:
            deltas[i], g = reference_local_update(spec, params, client, cfg, rng, trace)
        except DivergenceError as exc:
            raise DivergenceError(
                f"client {cid} diverged at step {exc.step_index} in round {round_index}",
                step_index=exc.step_index,
                client_id=cid,
                round_index=round_index,
            ) from exc
        grads.append(g)
    return ids, deltas, grads if trace else None


def reference_personalize(spec, params, client, cfg, rng):
    """One client's personalization as a plain step loop: (adapted
    parameters, diverged flag). A non-finite gradient or candidate stops
    the loop at the last finite iterate and flags it."""
    theta = np.array(params, dtype=np.float64)
    if cfg.epochs == 0:
        return theta, False
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    steps = cfg.epochs * math.ceil(client.train.n / cfg.batch_size)
    batches = reference_client_batches(client, steps, cfg.batch_size, rng)
    with np.errstate(over="ignore", invalid="ignore"):
        for t, batch in enumerate(batches, start=1):
            try:
                g = gradient(spec, theta, batch)
            except NumericError:
                return theta, True
            if cfg.optimizer == "sgd":
                candidate = theta - cfg.lr * g
            else:
                candidate, m, v = reference_adam_step(theta, g, m, v, t, ADAM_LR)
            if not np.isfinite(candidate).all():
                return theta, True
            theta = candidate
    return theta, False


def reference_adam_step(params, g, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam written out, as the exact-arithmetic contract of
    ``optimizers.adam_step``: returns (new params, new m, new v) as fresh
    arrays and mutates nothing."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return params - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def max_relative_error(approx, exact, floor=1e-8):
    """Max |approx-exact|/|exact| over entries with |exact| above the floor."""
    approx = np.asarray(approx)
    exact = np.asarray(exact)
    mask = np.abs(exact) > floor
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(approx[mask] - exact[mask]) / np.abs(exact[mask])))


def quad_hessian(spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    """Hessian of the mean quadratic loss for a single identity layer.

    Assembled from per-example output Jacobians under the flat layout
    (row-major weights, then bias), so the only thing shared with the
    implementation is the layout contract.
    """
    n, d = x.shape
    c = spec.num_classes
    p = spec.param_count
    a = np.zeros((p, p))
    for row in x:
        jac = np.zeros((c, p))
        for k in range(c):
            jac[k, k * d : (k + 1) * d] = row
            jac[k, c * d + k] = 1.0
        a += jac.T @ jac
    return a / n


def quad_linear_term(spec: ModelSpec, x: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """c such that grad of the mean quadratic loss is A theta - c."""
    n, d = x.shape
    cdim = spec.num_classes
    p = spec.param_count
    out = np.zeros(p)
    for row, t in zip(x, targets):
        jac = np.zeros((cdim, p))
        for k in range(cdim):
            jac[k, k * d : (k + 1) * d] = row
            jac[k, cdim * d + k] = 1.0
        out += jac.T @ t
    return out / n


def quadratic_problem(seed, d=3, c=2, n=8):
    """A homogeneous quadratic: single identity layer, zero targets."""
    rng = np.random.default_rng(seed)
    spec = ModelSpec(d, (c,), activation="identity", loss="quadratic")
    x = rng.normal(size=(n, d))
    batch = Batch(x, np.zeros(n, dtype=np.int64), targets=np.zeros((n, c)))
    params = rng.normal(size=spec.param_count)
    return spec, params, batch, quad_hessian(spec, x)


def onehot(y, c):
    out = np.zeros((len(y), c))
    out[np.arange(len(y)), np.asarray(y)] = 1.0
    return out


def snapshot_run(values):
    """A run whose snapshots, at rounds 1, 2, ..., have both means equal to
    the given series and zero stds."""
    return TrainingRun(
        seed=0,
        snapshots=[EvalSnapshot(i + 1, v, 0.0, v, 0.0) for i, v in enumerate(values)],
    )


@dataclass
class Drained:
    """What ``train`` keeps of a ``run_personalized_fedavg`` stream: the
    snapshots in round order, each round's wall time, and the parameters
    the last round left."""

    snapshots: list[EvalSnapshot] = field(default_factory=list)
    wallclock_ms: list[float] = field(default_factory=list)
    final_params: np.ndarray | None = None


def drain(rounds) -> Drained:
    """Runs a round stream to its end."""
    run = Drained()
    for tr, params in rounds:
        if tr.snapshot is not None:
            run.snapshots.append(tr.snapshot)
        run.wallclock_ms.append(tr.wallclock_ms)
        run.final_params = params
    return run


def make_client(rng, n_train=20, n_test=8, d=4, c=3):
    """A random labelled client with Gaussian class clusters."""
    means = rng.normal(size=(c, d))
    y_tr = rng.integers(0, c, size=n_train)
    y_te = rng.integers(0, c, size=n_test)
    x_tr = means[y_tr] + 0.5 * rng.normal(size=(n_train, d))
    x_te = means[y_te] + 0.5 * rng.normal(size=(n_test, d))
    return ClientDataset(train=Batch(x_tr, y_tr), test=Batch(x_te, y_te))
