"""One ``gradient`` call per client step, checked without the benchmark.

The benchmark's self-check counts ``model.gradient`` calls against the steps
its workloads define, but takes seconds per workload. These tests wrap
``gradient`` under every name a fedmetasim module or the test oracles bind
it to, as the benchmark's span recorder does, and require the lockstep code
to call it exactly as often as the one-client oracles.
"""

import sys
from contextlib import contextmanager

import numpy as np
import pytest

from fedmetasim import (
    Batch,
    ClientOptimizerConfig,
    DivergenceError,
    ModelSpec,
    PersonalizationConfig,
    RoundConfig,
    ServerOptimizerState,
    StreamFactory,
    eval_population,
    init_params,
    run_round,
    substream,
)
from fedmetasim import model
from fedmetasim.data import ClientDataset, FederatedDataset
from util import reference_local_update, reference_personalize, reference_round_updates


@contextmanager
def counted_gradient():
    """Count every ``gradient`` call made through any module binding it."""
    original, calls = model.gradient, [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    patched = [
        (mod, key)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name.split(".")[0] == "fedmetasim" or name == "util")
        for key, value in list(vars(mod).items())
        if value is original
    ]
    for mod, key in patched:
        setattr(mod, key, counting)
    try:
        yield calls
    finally:
        for mod, key in patched:
            setattr(mod, key, original)


def unequal_dataset(sizes, seed=0, d=4, c=3, poisoned=()):
    """Clients of unequal train sizes; a poisoned client holds one example
    of magnitude 1e200."""
    rng = np.random.default_rng(seed)
    clients = {}
    for cid, n in enumerate(sizes):
        x = rng.normal(size=(n, d))
        if cid in poisoned:
            x[n // 2] = 1e200
        y = rng.integers(0, c, size=n)
        clients[cid] = ClientDataset(Batch(x, y), Batch(x, y))
    return FederatedDataset(clients, tuple(clients), (), d, c)


SPEC = ModelSpec(4, (6, 3))


def count_round(cfg, ds):
    params = init_params(SPEC, substream(0, "init"))
    server = ServerOptimizerState("sgd", lr=1.0)
    with counted_gradient() as lockstep:
        run_round(SPEC, params, ds, cfg, server, 1, StreamFactory(3))
    with counted_gradient() as oracle:
        reference_round_updates(SPEC, params, ds, cfg, 1, StreamFactory(3))
    return lockstep[0], oracle[0]


def test_epoch_counted_round_over_unequal_clients():
    sizes = (7, 12, 5, 12, 9)
    cfg = RoundConfig("fedavg", 5, ClientOptimizerConfig(0.05, 4), epochs=2)
    lockstep, oracle = count_round(cfg, unequal_dataset(sizes))
    assert lockstep == oracle == sum(2 * -(-n // 4) for n in sizes)


def test_fomaml_round():
    cfg = RoundConfig("fomaml", 3, ClientOptimizerConfig(0.05, 4), steps=3)
    lockstep, oracle = count_round(cfg, unequal_dataset((7, 12, 5, 10)))
    assert lockstep == oracle == 3 * (3 + 1)


def test_eval_population_with_a_diverging_client():
    # Under relu the 1e200 example does not saturate, so client 1 diverges
    # and freezes while the other rows keep stepping.
    spec = ModelSpec(4, (6, 3), activation="relu")
    ds = unequal_dataset((8, 9, 6, 9), poisoned=(1,))
    params = init_params(spec, substream(1, "init"))
    cfg = PersonalizationConfig("sgd", lr=0.05, epochs=3, batch_size=3)
    with counted_gradient() as lockstep:
        report = eval_population(spec, params, ds, "train_clients", cfg, StreamFactory(4))
    assert [o.diverged for o in report.outcomes] == [False, True, False, False]
    with counted_gradient() as oracle:
        for cid in ds.train_client_ids:
            rng = StreamFactory(4).stream("personalize", 0, cid)
            reference_personalize(spec, params, ds.clients[cid], cfg, rng)
    assert lockstep[0] == oracle[0] < 3 * sum(-(-n // 3) for n in (8, 9, 6, 9))


def test_round_rows_stop_only_on_their_own_end_or_divergence():
    # Under relu client 1 diverges. Clients 2 and 3, after it, still run
    # to their own ends, so the round makes exactly the calls of the four
    # clients run alone, each stopped only by its own divergence.
    spec = ModelSpec(4, (6, 3), activation="relu")
    sizes = (8, 9, 6, 9)
    ds = unequal_dataset(sizes, poisoned=(1,))
    params = init_params(spec, substream(1, "init"))
    cfg = RoundConfig("fedavg", 4, ClientOptimizerConfig(0.05, 3), epochs=3)
    server = ServerOptimizerState("sgd", lr=1.0)
    with counted_gradient() as lockstep, pytest.raises(DivergenceError) as err:
        run_round(spec, params, ds, cfg, server, 1, StreamFactory(4))
    assert err.value.client_id == 1
    with counted_gradient() as solo:
        for cid in ds.train_client_ids:
            rng = StreamFactory(4).stream("round.batch", 1, cid)
            try:
                reference_local_update(spec, params, ds.clients[cid], cfg, rng)
            except DivergenceError:
                assert cid == 1
    assert lockstep[0] == solo[0] < 3 * sum(-(-n // 3) for n in sizes)
