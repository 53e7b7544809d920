import math
import re
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedmetasim import (
    Batch,
    CapacityError,
    CheckpointError,
    ContractViolation,
    DivergenceError,
    ModelSpec,
    NumericError,
    forward_logits,
    forward_loss,
    gradient,
    init_params,
    load_checkpoint,
    maml_gradient_oracle,
    save_checkpoint,
    sgd_trajectory,
    substream,
    unflatten_params,
)
from fedmetasim import model
from fedmetasim.optimizers import sgd_update
from util import (
    fd_gradient,
    max_relative_error,
    onehot,
    quad_hessian,
    quadratic_problem,
    recording,
    reference_forward,
    reference_gradient,
    reference_sgd_trajectory,
)


def mlp_case(seed, input_dim=4, dims=(5, 3), activation="tanh", n=6):
    rng = np.random.default_rng(seed)
    spec = ModelSpec(input_dim, dims, activation=activation)
    params = rng.normal(scale=0.6, size=spec.param_count)
    batch = Batch(
        rng.normal(size=(n, input_dim)),
        rng.integers(0, dims[-1], size=n),
    )
    return spec, params, batch


class TestModelSpec:
    def test_param_count(self):
        spec = ModelSpec(4, (5, 3))
        assert spec.param_count == (4 + 1) * 5 + (5 + 1) * 3

    def test_param_count_single_layer(self):
        assert ModelSpec(8, (62,)).param_count == 9 * 62

    def test_quadratic_requires_identity_single_layer(self):
        with pytest.raises(ContractViolation):
            ModelSpec(4, (3,), activation="tanh", loss="quadratic")
        with pytest.raises(ContractViolation):
            ModelSpec(4, (5, 3), activation="identity", loss="quadratic")

    def test_identity_rows_read_only_and_not_part_of_the_spec(self, tmp_path):
        spec = ModelSpec(4, (5, 3))
        assert np.array_equal(spec._eye, np.eye(3))
        assert not spec._eye.flags.writeable
        with pytest.raises(ValueError):
            spec._eye[0, 0] = 2.0
        twin = ModelSpec(4, (5, 3))
        assert twin._eye is not spec._eye
        assert twin == spec and hash(twin) == hash(spec)
        assert "_eye" not in repr(spec)
        save_checkpoint(tmp_path / "model.fms", spec, np.zeros(spec.param_count))
        assert load_checkpoint(tmp_path / "model.fms")[0] == spec

    def test_rejects_bad_dims(self):
        with pytest.raises(ContractViolation):
            ModelSpec(0, (3,))
        with pytest.raises(ContractViolation):
            ModelSpec(4, ())
        with pytest.raises(ContractViolation):
            ModelSpec(4, (3,), activation="sigmoid")

    @pytest.mark.parametrize("input_dim, layer_dims, message", [
        (4.0, (3,), "^input_dim must be an integer, got 4.0$"),
        (np.float64(4), (3,), "^input_dim must be an integer, got np.float64"),
        (4, (3.7,), "^a layer_dims entry must be an integer, got 3.7$"),
        (4, (5, 3.0), "^a layer_dims entry must be an integer, got 3.0$"),
        (4, ("3",), "^a layer_dims entry must be an integer, got '3'$"),
        (True, (3,), "^input_dim must be an integer, got True$"),
        (4, (3, np.True_), "^a layer_dims entry must be an integer, got np.True_$"),
    ])
    def test_rejects_non_integer_dims(self, input_dim, layer_dims, message):
        with pytest.raises(ContractViolation, match=message):
            ModelSpec(input_dim, layer_dims)

    def test_numpy_integer_dims_taken_as_ints(self, tmp_path):
        spec = ModelSpec(np.int64(4), (np.int64(5), np.int32(3)))
        assert spec == ModelSpec(4, (5, 3))
        assert {type(d) for d in (spec.input_dim, *spec.layer_dims)} == {int}
        params = init_params(spec, np.random.default_rng(0))
        save_checkpoint(tmp_path / "model.fms", spec, params)
        loaded, back = load_checkpoint(tmp_path / "model.fms")
        assert loaded == spec and back.tobytes() == params.tobytes()


class TestForwardLoss:
    def test_zero_params_uniform_softmax_c2(self):
        spec = ModelSpec(3, (2,))
        batch = Batch(np.ones((4, 3)), np.array([0, 1, 0, 1]))
        assert forward_loss(spec, np.zeros(spec.param_count), batch) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_zero_params_uniform_softmax_c62(self):
        spec = ModelSpec(2, (62,))
        batch = Batch(np.ones((3, 2)), np.array([0, 17, 61]))
        assert forward_loss(spec, np.zeros(spec.param_count), batch) == pytest.approx(
            math.log(62), abs=1e-12
        )

    def test_quadratic_zero_at_minimum(self):
        # x = 0 makes the output equal the bias, so loss is 0.5|b - target|^2.
        spec = ModelSpec(1, (2,), activation="identity", loss="quadratic")
        target = np.array([[0.3, -0.2]])
        batch = Batch(np.zeros((1, 1)), np.array([0]), targets=target)
        params = np.array([5.0, -1.0, 0.3, -0.2])  # w0, w1, b0, b1
        assert forward_loss(spec, params, batch) == 0.0

    def test_dim_mismatch_rejected(self):
        spec, params, _ = mlp_case(0)
        with pytest.raises(ContractViolation):
            forward_loss(spec, params, Batch(np.ones((2, 7)), np.array([0, 1])))
        with pytest.raises(ContractViolation):
            forward_loss(spec, params[:-1], Batch(np.ones((2, 4)), np.array([0, 1])))

    def test_label_out_of_range_rejected(self):
        spec, params, _ = mlp_case(0)
        with pytest.raises(ContractViolation):
            forward_loss(spec, params, Batch(np.ones((1, 4)), np.array([3])))

    @pytest.mark.parametrize("label", [-1, np.iinfo(np.int64).min])
    def test_negative_label_rejected(self, label):
        spec, params, _ = mlp_case(0)
        batch = Batch(np.ones((2, 4)), np.array([0, label]))
        with pytest.raises(ContractViolation):
            forward_loss(spec, params, batch)
        with pytest.raises(ContractViolation):
            gradient(spec, params, batch)

    def test_empty_batch_rejected(self):
        spec, params, _ = mlp_case(0)
        with pytest.raises(ContractViolation):
            forward_loss(spec, params, Batch(np.zeros((0, 4)), np.zeros(0, dtype=int)))

    @pytest.mark.parametrize("batch, message", [
        (Batch(np.ones((2, 4)), np.array([0])), "labels must be one per example"),
        (Batch(np.ones((2, 4)), np.array([0, 1]), targets=np.zeros((2, 2))),
         "targets must have shape (batch, num_classes)"),
    ], ids=["labels", "targets"])
    def test_misshaped_labels_rejected(self, batch, message):
        spec, params, _ = mlp_case(0)
        for loss_or_gradient in (forward_loss, gradient):
            with pytest.raises(ContractViolation, match=f"^{re.escape(message)}$"):
                loss_or_gradient(spec, params, batch)

    @pytest.mark.parametrize("x", [np.ones((2, 7)), np.ones(4)], ids=["width", "1-D"])
    def test_logits_reject_misshaped_features(self, x):
        spec, params, _ = mlp_case(0)
        with pytest.raises(ContractViolation, match="^feature matrix does not match input_dim$"):
            forward_logits(spec, params, x)

    def test_non_finite_loss_raises_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="^non-finite loss$"):
                forward_loss(*overflowing_case())


class TestGradient:
    def test_zero_at_quadratic_minimum(self):
        spec = ModelSpec(1, (2,), activation="identity", loss="quadratic")
        batch = Batch(np.zeros((1, 1)), np.array([0]), targets=np.array([[0.3, -0.2]]))
        params = np.array([5.0, -1.0, 0.3, -0.2])
        assert np.array_equal(gradient(spec, params, batch), np.zeros(4))

    def test_logistic_regression_closed_form(self):
        rng = np.random.default_rng(3)
        spec = ModelSpec(5, (4,))
        params = rng.normal(size=spec.param_count)
        x = rng.normal(size=(1, 5))
        y = np.array([2])
        w, b = unflatten_params(spec, params)[0]
        z = x[0] @ w.T + b
        p = np.exp(z - z.max())
        p /= p.sum()
        err = p - onehot(y, 4)[0]
        expected = np.concatenate([np.outer(err, x[0]).ravel(), err])
        got = gradient(spec, params, Batch(x, y))
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)

    def test_matches_finite_differences_seed7(self):
        spec, params, batch = mlp_case(7, input_dim=4, dims=(5, 3))
        exact = gradient(spec, params, batch)
        approx = fd_gradient(spec, params, batch, h=1e-5)
        assert max_relative_error(approx, exact) <= 1e-5

    @pytest.mark.parametrize("activation", ["identity", "relu", "tanh"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences_activations(self, activation, seed):
        spec, params, batch = mlp_case(seed, dims=(6, 3), activation=activation)
        exact = gradient(spec, params, batch)
        approx = fd_gradient(spec, params, batch, h=1e-5)
        assert max_relative_error(approx, exact) <= 1e-5

    def test_deterministic(self):
        spec, params, batch = mlp_case(11)
        assert np.array_equal(gradient(spec, params, batch), gradient(spec, params, batch))


@st.composite
def mlp_cases(draw):
    """An MLP of 0 to 3 hidden layers and 1 to 6 classes, with parameters
    and a batch drawn at a random scale, so saturated tanh, dead relu
    units and overflowing logits all occur. With one class the one-hot
    subtraction touches every entry of the output error."""
    activation = draw(st.sampled_from(["identity", "relu", "tanh"]))
    hidden = draw(st.lists(st.integers(1, 12), min_size=0, max_size=3))
    dims = (*hidden, draw(st.integers(1, 6)))
    input_dim = draw(st.integers(1, 8))
    n = draw(st.integers(1, 49))
    scale = 10.0 ** draw(st.floats(-2.0, 2.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = ModelSpec(input_dim, dims, activation=activation)
    params = rng.normal(scale=scale, size=spec.param_count)
    batch = Batch(rng.normal(scale=scale, size=(n, input_dim)), rng.integers(0, dims[-1], size=n))
    return spec, params, batch


def saturated_unit_case():
    """One input, a width-1 hidden layer and a batch of one, at a scale
    where the softmax saturates: every product has a 1x1 operand, and the
    zero output error makes zero products, which ``matmul`` returns as +0.0
    and ``np.dot`` as -0.0."""
    spec = ModelSpec(1, (1, 2), activation="identity")
    params = np.array([18.9, -52.3, -41.3, -244.1, 180.0, 114.4])
    return spec, params, Batch(np.array([[-32.5]]), np.array([1]))


def gemv_examples(test):
    """Always run the shapes whose products are gemv-shaped or have a 1x1
    operand: a batch of one, a width-1 hidden layer, one input feature, one
    class."""
    for case in (
        mlp_case(31, n=1),
        mlp_case(32, dims=(1, 3), activation="relu"),
        mlp_case(33, input_dim=1, dims=(6, 3)),
        mlp_case(34, input_dim=1, dims=(1, 4), n=1),
        mlp_case(35, dims=(6, 1), activation="relu"),
        saturated_unit_case(),
    ):
        test = example(case)(test)
    return test


@st.composite
def lockstep_cases(draw):
    """M = 1 to 6 rows with schedules of unequal lengths, on the quadratic
    model or on an MLP of depth 1 to 4 whose widths may be 1 (a spec that
    keeps ``np.matmul``). One row meets at least two batches scaled by
    1e200, from a step after its first to its end: on the quadratic model
    it stops there, and on an MLP about half the time, unless a saturated
    softmax or tanh keeps its gradients finite."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    input_dim = draw(st.integers(1, 5))
    if draw(st.booleans()):
        spec = ModelSpec(input_dim, (draw(st.integers(1, 4)),), "identity", "quadratic")
    else:
        activation = draw(st.sampled_from(["identity", "relu", "tanh"]))
        dims = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
        spec = ModelSpec(input_dim, dims, activation=activation)
    m = draw(st.integers(1, 6))
    lengths = draw(st.lists(st.integers(1, 7), min_size=m, max_size=m))
    poisoned = draw(st.integers(0, m - 1))
    lengths[poisoned] = max(lengths[poisoned], 3)
    huge_from = draw(st.integers(1, lengths[poisoned] - 2))

    def batch(scale):
        n = int(rng.integers(1, 6))
        return Batch(scale * rng.normal(size=(n, input_dim)), rng.integers(0, spec.num_classes, size=n))

    schedules = [
        [batch(1e200 if i == poisoned and j >= huge_from else 1.0) for j in range(k)]
        for i, k in enumerate(lengths)
    ]
    params = rng.normal(scale=0.5, size=spec.param_count)
    steps = max(lengths) + draw(st.integers(0, 2)) if draw(st.booleans()) else None
    return spec, params, schedules, draw(st.sampled_from([0.05, 0.5])), steps


class TestKernelMatchesReference:
    """``gradient``, ``forward_logits`` and ``sgd_trajectory`` equal the
    plain reference bit for bit: every rewrite of the kernel must keep each
    output bit."""

    @settings(max_examples=300, deadline=None)
    @given(mlp_cases())
    @gemv_examples
    def test_forward_logits_bytes_equal(self, case):
        spec, params, batch = case
        with np.errstate(over="ignore", invalid="ignore"):
            expected = reference_forward(spec, params, batch.x)
            got = forward_logits(spec, params, batch.x)
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(mlp_cases())
    @gemv_examples
    def test_gradient_bytes_equal(self, case):
        spec, params, batch = case
        expected = reference_gradient(spec, params, batch)
        if np.isfinite(expected).all():
            assert gradient(spec, params, batch).tobytes() == expected.tobytes()
        else:
            with pytest.raises(NumericError):
                gradient(spec, params, batch)

    @pytest.mark.parametrize("explicit_targets", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_quadratic_gradient_bytes_equal(self, seed, explicit_targets):
        rng = np.random.default_rng(seed)
        spec = ModelSpec(4, (3,), activation="identity", loss="quadratic")
        n = 1 + 7 * seed
        targets = rng.normal(size=(n, 3)) if explicit_targets else None
        batch = Batch(rng.normal(size=(n, 4)), rng.integers(0, 3, size=n), targets)
        params = rng.normal(size=spec.param_count)
        expected = reference_gradient(spec, params, batch)
        assert gradient(spec, params, batch).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("activation", ["identity", "relu", "tanh"])
    def test_trajectory_bytes_equal_hand_loop(self, activation):
        rng = np.random.default_rng(21)
        spec = ModelSpec(5, (7, 6, 4), activation=activation)
        params = rng.normal(scale=0.5, size=spec.param_count)
        batches = [
            Batch(rng.normal(size=(n, 5)), rng.integers(0, 4, size=n)) for n in (3, 8, 1, 8, 5)
        ]
        beta = 0.3
        theta, expected = params, []
        for batch in batches:
            expected.append(reference_gradient(spec, theta, batch))
            theta = theta - beta * expected[-1]
        grads = np.empty((1, len(batches), spec.param_count))
        final, last, failures = sgd_trajectory(
            spec, params, [batches], recording(sgd_update(beta), grads)
        )
        assert failures == [None]
        assert final[0].tobytes() == theta.tobytes()
        assert [g.tobytes() for g in grads[0]] == [g.tobytes() for g in expected]
        assert last[0].tobytes() == expected[-1].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(lockstep_cases())
    def test_lockstep_rows_bytes_equal_their_own_loops(self, case):
        # The kernel's per-layer views are made once per trajectory: they
        # must follow the theta/spare swap and the stopped-row copy-back,
        # so every row, stopped or not, ends as its own loop ends.
        spec, params, schedules, beta, steps = case
        update = sgd_update(beta)
        if steps is not None:
            grads = np.full((len(schedules), steps, spec.param_count), 7.0)
            update = recording(update, grads)
        final, last, failures = sgd_trajectory(spec, params, schedules, update)
        for i, schedule in enumerate(schedules):
            try:
                theta, expected = reference_sgd_trajectory(spec, params, schedule, beta)
            except DivergenceError as alone:
                k = alone.step_index
                assert (str(failures[i]), failures[i].step_index) == (str(alone), k)
                theta, expected = reference_sgd_trajectory(spec, params, schedule[:k], beta)
            else:
                assert failures[i] is None
                assert last[i].tobytes() == expected[-1].tobytes()
            assert final[i].tobytes() == theta.tobytes()
            if steps is not None and expected:
                assert grads[i, : len(expected)].tobytes() == np.stack(expected).tobytes()


@st.composite
def labelled_subsets(draw):
    """A spec, parameters, a batch whose labels may hold negatives and
    values >= C, and a row selection of it: a slice or an index array."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c, input_dim, n = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 30))
    spec = ModelSpec(input_dim, (draw(st.integers(1, 6)), c), activation="tanh")
    y = rng.integers(0, c, size=n)
    for row, label in draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.sampled_from([-1, -(2**63), c, c + 7])), max_size=3
    )):
        y[row] = label
    if draw(st.booleans()):
        rows = draw(st.slices(n))
    else:
        rows = rng.integers(0, n, size=draw(st.integers(0, 2 * n)))
    params = rng.normal(size=spec.param_count)
    return spec, params, Batch(rng.normal(size=(n, input_dim)), y), rows


def outcome(fn, *args):
    """The bytes of fn's result, or the type of the error it raised."""
    try:
        return np.float64(fn(*args)).tobytes()
    except (ContractViolation, NumericError) as exc:
        return type(exc)


class TestBatchRecord:
    @settings(max_examples=300, deadline=None)
    @given(labelled_subsets())
    def test_subset_checks_and_bytes_equal_a_fresh_batch(self, case):
        spec, params, batch, rows = case
        sub, fresh = batch[rows], Batch(batch.x[rows], batch.y[rows])
        assert sub.x.tobytes() == fresh.x.tobytes() and sub.y.tobytes() == fresh.y.tobytes()
        for fn in (gradient, forward_loss):
            # A subset is rejected where a fresh batch of its rows is, for
            # labels out of range in the subset itself among other causes.
            expected = outcome(fn, spec, params, fresh)
            if outcome(fn, spec, params, batch) is ContractViolation:
                # The one stricter case: the subset keeps its parent's label
                # bound, so a subset of a rejected parent is rejected too,
                # even where its own labels lie in range.
                expected = ContractViolation
            assert outcome(fn, spec, params, sub) == expected

    @settings(max_examples=100, deadline=None)
    @given(labelled_subsets(), st.booleans())
    def test_arrays_owned_and_read_only(self, case, with_targets):
        _, _, batch, rows = case
        x, y = batch.x.copy(), batch.y.copy()
        targets = np.ones((batch.n, 2)) if with_targets else None
        owned = Batch(x, y, targets)
        x[:] = 7.0
        y[:] = 99
        if with_targets:
            targets[:] = -1.0
        assert owned.x.tobytes() == batch.x.tobytes()
        assert owned.y.tobytes() == batch.y.tobytes()
        assert owned.label_bound == batch.label_bound
        for record in (owned, owned[rows]):
            arrays = [record.x, record.y] + ([record.targets] if with_targets else [])
            for a in arrays:
                assert not a.flags.writeable and a.flags.c_contiguous
                with pytest.raises(ValueError):
                    a[...] = 0
            if with_targets:
                assert np.array_equal(record.targets, np.ones((record.n, 2)))

    def test_label_bound(self):
        assert Batch(np.zeros((3, 1)), [2, 0, 1]).label_bound == 2
        assert Batch(np.zeros((2, 1)), [0, -1]).label_bound == 2**64 - 1
        assert Batch(np.zeros((0, 1)), np.zeros(0, dtype=int)).label_bound == 0

    @pytest.mark.parametrize("label", [
        0.9, 2.99, -0.5, math.nan, math.inf, -math.inf, 2.0**63 + 5, np.uint64(2**63),
        2**64, -(2**63) - 1,
    ])
    def test_rejects_a_label_that_is_not_an_int64_integer(self, label):
        # Without the check the int64 cast truncates 2.99 to 2, wraps
        # 2**63 to -2**63 and raises OverflowError on a Python int 2**64.
        labels = np.array([1, label])
        with pytest.raises(ContractViolation, match=f"^label {re.escape(str(labels[1]))} is not"):
            Batch(np.zeros((2, 1)), labels)

    def test_takes_integral_float_and_unsigned_labels(self):
        for labels in (np.zeros(3), [2.0, -1.0, 0.0], np.array([2, 0, 1], dtype=np.uint64)):
            batch = Batch(np.zeros((3, 1)), labels)
            assert batch.y.dtype == np.int64
            assert batch.y.tolist() == np.asarray(labels, dtype=np.int64).tolist()
        assert Batch(np.zeros((1, 1)), [-(2.0**63)]).y.tolist() == [-(2**63)]


def overflowing_case():
    """A case whose logits overflow, so its gradient is not finite."""
    spec = ModelSpec(2, (3,), activation="identity")
    return spec, np.full(spec.param_count, 1e200), Batch(np.full((2, 2), 1e200), np.array([0, 2]))


class TestGradientOut:
    @pytest.mark.parametrize("caller_raises", [False, True])
    def test_non_finite_raises_with_its_own_errstate(self, caller_raises):
        # gradient holds its own error state, whatever its caller's: a
        # caller that raises on overflow and invalid still gets NumericError
        # alone, and its state back unchanged.
        spec, params, batch = overflowing_case()
        with np.errstate(**(dict(over="raise", invalid="raise") if caller_raises else {})):
            before = np.geterr()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericError):
                    gradient(spec, params, batch)
            assert np.geterr() == before


class TestSgdTrajectory:
    def test_beta_zero_keeps_params(self):
        spec, params, batch = mlp_case(5)
        rng = np.random.default_rng(5)
        other = Batch(rng.normal(size=(4, 4)), rng.integers(0, 3, size=4))
        grads = np.empty((1, 3, spec.param_count))
        final, _, _ = sgd_trajectory(
            spec, params, [[batch, other, batch]], recording(sgd_update(0.0), grads)
        )
        grads = grads[0]
        assert np.array_equal(final[0], params)
        assert np.array_equal(grads[0], gradient(spec, params, batch))
        assert np.array_equal(grads[1], gradient(spec, params, other))

    def test_single_step(self):
        spec, params, batch = mlp_case(6)
        final, grads, _ = sgd_trajectory(spec, params, [[batch]], sgd_update(0.1))
        assert final.shape == grads.shape == (1, spec.param_count)
        np.testing.assert_allclose(final[0], params - 0.1 * grads[0], rtol=0, atol=5e-16)

    def test_quadratic_closed_form(self):
        spec, params, batch, a = quadratic_problem(seed=9, d=3, c=2, n=8)
        beta = 0.2 / np.linalg.eigvalsh(a).max()
        k = 6
        grads = np.full((1, k, spec.param_count), np.nan)
        final, _, _ = sgd_trajectory(spec, params, [[batch] * k], recording(sgd_update(beta), grads))
        expected = np.linalg.matrix_power(np.eye(a.shape[0]) - beta * a, k) @ params
        np.testing.assert_allclose(final[0], expected, rtol=1e-10, atol=1e-13)
        assert np.isfinite(grads).all()

    def test_divergence_reports_step(self):
        spec, params, batch, _ = quadratic_problem(seed=2)
        _, _, (failure,) = sgd_trajectory(spec, params, [[batch] * 50], sgd_update(1e200))
        assert isinstance(failure, DivergenceError)
        assert failure.step_index is not None

    def test_rejects_empty_batches(self):
        spec, params, _ = mlp_case(0)
        with pytest.raises(ContractViolation):
            sgd_trajectory(spec, params, [[]], sgd_update(0.1))
        with pytest.raises(ContractViolation):
            sgd_trajectory(spec, params, [], sgd_update(0.1))

    @pytest.mark.parametrize("beta", [-0.1, float("nan"), math.inf])
    def test_rejects_negative_or_nan_step_size(self, beta):
        with pytest.raises(ContractViolation):
            sgd_update(beta)

    def test_deterministic(self):
        spec, params, batch = mlp_case(12)
        a = sgd_trajectory(spec, params, [[batch] * 3], sgd_update(0.05))
        b = sgd_trajectory(spec, params, [[batch] * 3], sgd_update(0.05))
        assert np.array_equal(a[0], b[0])

    def test_rows_of_any_length_stop_on_their_own(self):
        # Row 1 leaves the finite range after its huge batch and stops
        # there; rows 0 and 2 have other lengths and step on to their own
        # ends, as alone. The update rule sees every step position, with
        # no gap where rows stop, which recording relies on.
        spec, params, batch = mlp_case(14, activation="relu")
        huge = Batch(batch.x * 1e200, batch.y)
        schedules = [[batch] * 2, [batch, batch, huge, batch, batch], [batch] * 5]
        grads, seen = np.empty((3, 5, spec.param_count)), []
        record = recording(sgd_update(0.1), grads)

        def update(theta, g, t, out):
            seen.append(t)
            record(theta, g, t, out)

        final, last, failures = sgd_trajectory(spec, params, schedules, update)
        assert seen == [1, 2, 3, 4, 5]
        assert failures[0] is None and failures[2] is None
        with pytest.raises(DivergenceError) as alone:
            reference_sgd_trajectory(spec, params, schedules[1], 0.1)
        step = alone.value.step_index
        assert (str(failures[1]), failures[1].step_index) == (str(alone.value), step)
        theta, _ = reference_sgd_trajectory(spec, params, schedules[1][:step], 0.1)
        assert final[1].tobytes() == theta.tobytes()
        for i in (0, 2):
            theta, expected = reference_sgd_trajectory(spec, params, schedules[i], 0.1)
            k = len(expected)
            assert final[i].tobytes() == theta.tobytes()
            assert grads[i, :k].tobytes() == np.stack(expected).tobytes()
            assert last[i].tobytes() == expected[-1].tobytes()

    @pytest.mark.parametrize("traced", [False, True])
    def test_layer_views_made_per_row_not_per_step(self, traced, monkeypatch):
        # The kernel's per-layer views are cut once per trajectory, for each
        # row of the iterate, candidate and gradient buffers: 5 steps and
        # 50 steps cut the same three sets per row.
        spec, params, batch = mlp_case(5)
        cut, made = model._layer_views, []

        def spy(spec, flat):
            made.append(flat)
            return cut(spec, flat)

        monkeypatch.setattr(model, "_layer_views", spy)
        counts = []
        for k in (5, 50):
            made.clear()
            update = sgd_update(0.01)
            if traced:
                update = recording(update, np.empty((3, k, spec.param_count)))
            sgd_trajectory(spec, params, [[batch] * k] * 3, update)
            counts.append(len(made))
        assert counts == [3 * 3, 3 * 3]

    def test_threads_step_as_one_thread(self):
        # The loop keeps no module state: four threads, each running its
        # own trajectories 30 times at once, give a sequential run's bytes.
        cases = [mlp_case(20 + t, dims=(5 + t, 3)) for t in range(4)]

        def run(t):
            spec, params, batch = cases[t]
            schedules = [[batch] * (3 + t), [batch[::2]] * 4, [batch[1:]] * 2]
            final, last, failures = sgd_trajectory(spec, params, schedules, sgd_update(0.1))
            assert failures == [None] * 3
            return final.tobytes() + last.tobytes()

        expected = [run(t) for t in range(4)]
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(lambda t: [run(t) for _ in range(30)], range(4)))
        assert results == [[e] * 30 for e in expected]

    @pytest.mark.parametrize("where", ["schedule", "update"])
    def test_a_trajectory_run_inside_a_trajectory_steps_as_alone(self, where):
        # A schedule's iterator or an update rule may run a trajectory of
        # its own while the outer loop runs; each loop hands gradient its
        # own row handles, so outer and inner rows both step as alone.
        spec, params, batch = mlp_case(7)
        inner_spec, inner_params, inner_batch = mlp_case(8, dims=(6, 3))
        inner_schedules = [[inner_batch] * 3, [inner_batch[::2]] * 2]
        inner = []

        def run_inner():
            inner.append(sgd_trajectory(inner_spec, inner_params, inner_schedules, sgd_update(0.05)))

        def schedule():
            for _ in range(4):
                if where == "schedule":
                    run_inner()
                yield batch

        def update(theta, g, t, out):
            if where == "update":
                run_inner()
            sgd_update(0.1)(theta, g, t, out)

        other = [batch[::-1]] * 4
        final, last, failures = sgd_trajectory(spec, params, [schedule(), other], update)
        assert failures == [None, None]
        for i, batches in enumerate([[batch] * 4, other]):
            theta, grads = reference_sgd_trajectory(spec, params, batches, 0.1)
            assert final[i].tobytes() == theta.tobytes()
            assert last[i].tobytes() == grads[-1].tobytes()
        assert len(inner) == 4
        for final, last, failures in inner:
            assert failures == [None, None]
            for i, batches in enumerate(inner_schedules):
                theta, grads = reference_sgd_trajectory(inner_spec, inner_params, batches, 0.05)
                assert final[i].tobytes() == theta.tobytes()
                assert last[i].tobytes() == grads[-1].tobytes()

    def test_a_stopped_row_is_tested_no_more(self, monkeypatch):
        # Row 1 stops at step 2 on a non-finite gradient, which stays in its
        # gradient row; only the rows that step are tested, so the exact
        # test runs once, where it stops, not at each of the 17 positions after.
        spec, params, batch = mlp_case(14, activation="relu")
        huge = Batch(batch.x * 1e200, batch.y)
        schedules = [[batch] * 20, [batch, huge] + [batch] * 18]
        exact, found = model._not_finite, []

        def spy(a, rows, sums):
            found.append(exact(a, rows, sums))
            return found[-1]

        monkeypatch.setattr(model, "_not_finite", spy)
        final, last, failures = sgd_trajectory(spec, params, schedules, sgd_update(0.1))
        assert found == [[1]]
        theta, expected = reference_sgd_trajectory(spec, params, schedules[0], 0.1)
        assert failures[0] is None
        assert final[0].tobytes() == theta.tobytes()
        assert last[0].tobytes() == expected[-1].tobytes()
        with pytest.raises(DivergenceError) as alone:
            reference_sgd_trajectory(spec, params, schedules[1], 0.1)
        step = alone.value.step_index
        assert (str(failures[1]), failures[1].step_index) == (str(alone.value), step) == (
            "non-finite gradient at step 2", 2)
        assert isinstance(failures[1].__cause__, NumericError)
        theta, _ = reference_sgd_trajectory(spec, params, schedules[1][:step], 0.1)
        assert final[1].tobytes() == theta.tobytes()


# Floats seeded with nan, +-inf, values whose squares (above ~1.3e154) or
# sums overflow, and zero.
EDGE_FLOATS = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1.7976931348623157e308, 1.4e154, 0.0]),
    st.floats(width=64),
)


def bias_case(bias):
    """A quadratic identity model at zero weights and ``bias``, on x = 0 with
    zero targets: its gradient is zero weights (nan where bias is not
    finite, as 0 * inf) followed by ``bias`` itself, each -0.0 read as
    +0.0, since the logits add it to a +0.0 product."""
    c = len(bias)
    spec = ModelSpec(1, (c,), activation="identity", loss="quadratic")
    params = np.concatenate([np.zeros(c), bias])
    return spec, params, Batch(np.zeros((1, 1)), [0], targets=np.zeros((1, c)))


def writing(rows):
    """An update rule whose candidates are ``rows``, whatever the gradient."""
    def update(theta, g, t, out):
        out[:] = rows
    return update


class TestFinitenessGuards:
    """``gradient`` raises, and a trajectory row stops, exactly when a value
    is not finite, although both test a sum first; a direct call holds its
    own error state, whatever trajectory ran or failed before it."""

    @settings(max_examples=300, deadline=None)
    @given(bias=hnp.arrays(np.float64, st.integers(1, 40), elements=EDGE_FLOATS))
    @example(bias=np.array([-0.0, 1.0]))
    def test_gradient_raises_iff_an_entry_is_not_finite(self, bias):
        spec, params, batch = bias_case(bias)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if np.isfinite(bias).all():
                got = gradient(spec, params, batch)[len(bias):]
                assert got.tobytes() == (0.0 + bias).tobytes()
            else:
                with pytest.raises(NumericError, match="^non-finite gradient$"):
                    gradient(spec, params, batch)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), m=st.integers(1, 4), c=st.integers(1, 10))
    def test_row_stops_iff_its_candidate_is_not_finite(self, data, m, c):
        rows = data.draw(hnp.arrays(np.float64, (m, 2 * c), elements=EDGE_FLOATS))
        spec, params, batch = bias_case(np.zeros(c))
        final, _, failures = sgd_trajectory(spec, params, [[batch]] * m, writing(rows))
        for i, row in enumerate(rows):
            if np.isfinite(row).all():
                assert failures[i] is None
                assert final[i].tobytes() == row.tobytes()
            else:
                assert str(failures[i]) == "parameters diverged at step 0"
                assert final[i].tobytes() == params.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), m=st.integers(1, 4), c=st.integers(1, 10))
    def test_row_stops_iff_its_gradient_is_not_finite(self, data, m, c):
        # At zero parameters and x = 0, each row's gradient is zero weights
        # (nan where a target is not finite, as 0 * inf) then minus its targets.
        targets = data.draw(hnp.arrays(np.float64, (m, c), elements=EDGE_FLOATS))
        spec, params, _ = bias_case(np.zeros(c))
        schedules = [[Batch(np.zeros((1, 1)), [0], targets=t[None])] * 2 for t in targets]
        final, _, failures = sgd_trajectory(spec, params, schedules, sgd_update(0.5))
        for i, (row, schedule) in enumerate(zip(targets, schedules)):
            if np.isfinite(row).all():
                theta, _ = reference_sgd_trajectory(spec, params, schedule, 0.5)
                assert failures[i] is None
                assert final[i].tobytes() == theta.tobytes()
            else:
                assert (str(failures[i]), failures[i].step_index) == (
                    "non-finite gradient at step 0", 0)
                assert isinstance(failures[i].__cause__, NumericError)
                assert final[i].tobytes() == params.tobytes()

    def test_huge_finite_values_pass_both_guards(self):
        bias = np.array([1.5e154, -1e200, 1.7976931348623157e308])
        spec, params, batch = bias_case(bias)
        assert gradient(spec, params, batch)[3:].tobytes() == bias.tobytes()
        rows = np.full((2, spec.param_count), 1e308)
        rows[1] *= -1
        final, _, failures = sgd_trajectory(spec, params, [[batch]] * 2, writing(rows))
        assert failures == [None, None]
        assert final.tobytes() == rows.tobytes()
        # Finite gradient rows whose sums overflow step on too.
        bias = np.array([1e308, 1.7976931348623157e308])
        spec, params, batch = bias_case(bias)
        grads = np.empty((2, 1, spec.param_count))
        rows = np.full((2, spec.param_count), 1e308)
        final, _, failures = sgd_trajectory(
            spec, params, [[batch], [batch]], recording(writing(rows), grads)
        )
        assert failures == [None, None]
        assert [sum(row) for row in grads[:, 0].tolist()] == [math.inf, math.inf]
        assert grads[:, 0, 2:].tobytes() == np.tile(bias, 2).tobytes()
        assert final.tobytes() == rows.tobytes()

    def test_calls_from_a_schedule_or_an_update_keep_every_check(self):
        # Only the loop's own gradient calls, made with a row handle, trust
        # their buffers; a call from a schedule's iterator or from the
        # update rule, made while the loop runs, checks params and raises
        # on a non-finite result, without a warning.
        spec, params, batch = mlp_case(3)
        checked = []

        def direct_calls(where):
            with pytest.raises(ContractViolation, match="^expected"):
                gradient(spec, params[:-1], batch)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericError, match="^non-finite gradient$"):
                    gradient(*overflowing_case())
            checked.append(where)

        def schedule():
            for _ in range(2):
                direct_calls("schedule")
                yield batch

        def update(theta, g, t, out):
            direct_calls("update")
            sgd_update(0.1)(theta, g, t, out)

        final, _, failures = sgd_trajectory(spec, params, [schedule()], update)
        assert checked == ["schedule", "update", "schedule", "update"]
        assert failures == [None]
        theta, _ = reference_sgd_trajectory(spec, params, [batch] * 2, 0.1)
        assert final[0].tobytes() == theta.tobytes()

    @pytest.mark.parametrize("fault", ["empty schedule", "failing update"])
    def test_direct_call_after_a_failed_trajectory_holds_its_errstate(self, fault):
        spec, params, batch = mlp_case(3)

        def failing(theta, g, t, out):
            raise RuntimeError("update failed")

        if fault == "empty schedule":
            with pytest.raises(ContractViolation, match="^batches must be non-empty$"):
                sgd_trajectory(spec, params, [[batch], []], sgd_update(0.1))
        else:
            with pytest.raises(RuntimeError, match="^update failed$"):
                sgd_trajectory(spec, params, [[batch]], failing)
        spec, params, batch = overflowing_case()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError):
                gradient(spec, params, batch)


class TestMamlOracle:
    def test_no_inner_steps_equals_gradient(self):
        spec, params, batch = mlp_case(4)
        g = maml_gradient_oracle(spec, params, [], 0.1, eval_batch=batch)
        np.testing.assert_allclose(g, gradient(spec, params, batch), atol=1e-8)

    def test_beta_zero_equals_gradient(self):
        spec, params, batch = mlp_case(8)
        g = maml_gradient_oracle(spec, params, [batch, batch], 0.0)
        np.testing.assert_allclose(g, gradient(spec, params, batch), atol=1e-8)

    def test_quadratic_closed_form(self):
        spec, params, batch, a = quadratic_problem(seed=13, d=3, c=2, n=10)
        beta = 0.2 / np.linalg.eigvalsh(a).max()
        k = 4
        g = maml_gradient_oracle(spec, params, [batch] * k, beta)
        prop = np.linalg.matrix_power(np.eye(a.shape[0]) - beta * a, k)
        expected = prop @ a @ prop @ params
        assert max_relative_error(g, expected, floor=1e-10) <= 1e-6

    def test_dimension_cap(self):
        spec = ModelSpec(100, (30, 10))
        assert spec.param_count > 2000
        params = np.zeros(spec.param_count)
        batch = Batch(np.ones((2, 100)), np.array([0, 1]))
        with pytest.raises(CapacityError):
            maml_gradient_oracle(spec, params, [batch], 0.1)

    def test_default_eval_batch_is_union(self):
        spec, params, batch = mlp_case(15)
        rng = np.random.default_rng(15)
        other = Batch(rng.normal(size=(3, 4)), rng.integers(0, 3, size=3))
        union = Batch(
            np.concatenate([batch.x, other.x]), np.concatenate([batch.y, other.y])
        )
        implicit = maml_gradient_oracle(spec, params, [batch, other], 0.05)
        explicit = maml_gradient_oracle(spec, params, [batch, other], 0.05, eval_batch=union)
        assert np.array_equal(implicit, explicit)


class TestInitParams:
    def test_biases_zero_weights_bounded(self):
        spec = ModelSpec(4, (5, 3))
        params = init_params(spec, substream(42, "init"))
        layers = unflatten_params(spec, params)
        fan_in = 4
        for w, b in layers:
            limit = math.sqrt(6.0 / (fan_in + w.shape[0]))
            assert np.all(np.abs(w) <= limit)
            assert np.array_equal(b, np.zeros_like(b))
            fan_in = w.shape[0]

    def test_deterministic_per_stream(self):
        spec = ModelSpec(4, (5, 3))
        a = init_params(spec, substream(42, "init"))
        b = init_params(spec, substream(42, "init"))
        c = init_params(spec, substream(43, "init"))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


@st.composite
def checkpoint_cases(draw):
    """Any valid spec, with parameters that mix arbitrary finite doubles
    with signed zeros and subnormals."""
    loss = draw(st.sampled_from(["softmax_cross_entropy", "quadratic"]))
    if loss == "quadratic":
        activation, dims = "identity", (draw(st.integers(1, 6)),)
    else:
        activation = draw(st.sampled_from(["identity", "relu", "tanh"]))
        dims = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    spec = ModelSpec(draw(st.integers(1, 6)), dims, activation=activation, loss=loss)
    special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308])
    values = st.one_of(special, st.floats(width=64, allow_nan=False, allow_infinity=False))
    n = spec.param_count
    return spec, np.array(draw(st.lists(values, min_size=n, max_size=n)))


checkpoint_settings = settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestCheckpoint:
    @checkpoint_settings
    @given(case=checkpoint_cases())
    def test_round_trip(self, tmp_path, case):
        spec, params = case
        path = tmp_path / "model.fms"
        save_checkpoint(path, spec, params)
        loaded_spec, loaded = load_checkpoint(path)
        assert loaded_spec == spec
        assert loaded.dtype == np.float64
        assert loaded.tobytes() == params.tobytes()
        again = tmp_path / "again.fms"
        save_checkpoint(again, loaded_spec, loaded)
        assert again.read_bytes() == path.read_bytes()

    def test_header_is_versioned_text(self, tmp_path):
        spec, params, _ = mlp_case(22)
        path = tmp_path / "model.fms"
        save_checkpoint(path, spec, params)
        head = path.read_bytes()[:60].decode("ascii", errors="replace")
        assert head.startswith("fms-ckpt/1\n")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.fms"
        path.write_bytes(b"not-a-checkpoint\n\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("old, new, message", [
        (b"activation=tanh", b"activation=t\xc3\xa4nh", "header is not ASCII"),
        (b"input_dim=4", b"input_dim=four",
         "bad checkpoint header: invalid literal for int() with base 10: 'four'"),
        (b"\nloss=softmax_cross_entropy", b"", "bad checkpoint header: no loss= line"),
        (b"layer_dims=5,3", b"layer_dims=6,3",
         "checkpoint has 43 parameters but spec implies 51"),
    ], ids=["non-ascii", "malformed-value", "missing-key", "count-mismatch"])
    def test_bad_header_names_its_fault(self, tmp_path, old, new, message):
        spec, params, _ = mlp_case(23)
        path = tmp_path / "model.fms"
        save_checkpoint(path, spec, params)
        blob = path.read_bytes()
        assert blob.count(old) == 1
        path.write_bytes(blob.replace(old, new))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_parameter_rejected(self, tmp_path, value):
        spec, params, _ = mlp_case(24)
        path = tmp_path / "model.fms"
        save_checkpoint(path, spec, params)
        params[5] = params[9] = value
        blob = path.read_bytes()
        path.write_bytes(blob[: -params.nbytes] + params.astype("<f8").tobytes())
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == "non-finite parameter at index 5"

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_parameter_not_saved(self, tmp_path, value):
        spec, params, _ = mlp_case(24)
        params[5] = params[9] = value
        path = tmp_path / "model.fms"
        with pytest.raises(CheckpointError) as info:
            save_checkpoint(path, spec, params)
        assert str(info.value) == "non-finite parameter at index 5"
        assert not path.exists()

    @checkpoint_settings
    @given(case=checkpoint_cases())
    def test_truncated_payload_rejected(self, tmp_path, case):
        path = tmp_path / "model.fms"
        save_checkpoint(path, *case)
        blob = path.read_bytes()
        for end in range(len(blob)):
            path.write_bytes(blob[:end])
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    @checkpoint_settings
    @given(case=checkpoint_cases(), suffix=st.binary(min_size=1, max_size=64))
    def test_trailing_bytes_rejected(self, tmp_path, case, suffix):
        path = tmp_path / "model.fms"
        save_checkpoint(path, *case)
        path.write_bytes(path.read_bytes() + suffix)
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)


class TestGapScaling:
    def test_first_order_gap_halves_with_beta(self):
        # On the quadratic model the neglected curvature term is exactly
        # linear in beta, so halving beta should halve the gap.
        spec, params, batch, a = quadratic_problem(seed=29, d=3, c=2, n=10)
        beta = 0.1 / np.linalg.eigvalsh(a).max()
        k = 3

        def gap(b):
            g_meta = maml_gradient_oracle(spec, params, [batch] * k, b)
            theta, _, _ = sgd_trajectory(spec, params, [[batch] * k], sgd_update(b))
            return np.linalg.norm(g_meta - gradient(spec, theta[0], batch))

        ratio = gap(beta / 2) / gap(beta)
        assert 0.3 <= ratio <= 0.7
