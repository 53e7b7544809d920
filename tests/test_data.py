import numpy as np
import pytest

from fedmetasim import (
    Batch,
    ContractViolation,
    FederatedDataset,
    ParseError,
    SchemaError,
    dataset_manifest,
    generate_synthetic,
    load_csv_dataset,
    split_train_eval,
)
from fedmetasim.data import ClientDataset


def small_synthetic(seed=0, **overrides):
    kwargs = dict(
        seed=seed,
        num_clients=4,
        classes_per_client=3,
        examples_per_client=20,
        input_dim=5,
        num_classes=3,
        heterogeneity=0.5,
    )
    kwargs.update(overrides)
    return generate_synthetic(**kwargs)


def datasets_equal(a, b):
    if set(a.clients) != set(b.clients):
        return False
    for cid in a.clients:
        ca, cb = a.clients[cid], b.clients[cid]
        for pa, pb in ((ca.train, cb.train), (ca.test, cb.test)):
            if not (np.array_equal(pa.x, pb.x) and np.array_equal(pa.y, pb.y)):
                return False
    return True


class TestGenerateSynthetic:
    def test_deterministic_in_seed(self):
        assert datasets_equal(small_synthetic(seed=3), small_synthetic(seed=3))
        assert not datasets_equal(small_synthetic(seed=3), small_synthetic(seed=4))

    def test_all_clients_train_by_default(self):
        ds = small_synthetic()
        assert ds.train_client_ids == (0, 1, 2, 3)
        assert ds.eval_client_ids == ()

    def test_single_client_degenerate(self):
        ds = small_synthetic(num_clients=1)
        assert ds.train_client_ids == (0,)
        assert ds.eval_client_ids == ()

    def test_split_is_80_20(self):
        ds = small_synthetic(examples_per_client=20)
        for client in ds.clients.values():
            assert client.train.n == 16
            assert client.test.n == 4
            assert client.weight == 16

    def test_homogeneous_clients_have_close_label_histograms(self):
        # With the heterogeneity knob at zero the per-client label draw uses a
        # concentrated Dirichlet, so two clients' empirical label histograms
        # should be close in total variation.
        ds = generate_synthetic(
            seed=11,
            num_clients=2,
            classes_per_client=4,
            examples_per_client=400,
            input_dim=4,
            num_classes=4,
            heterogeneity=0.0,
        )
        hists = []
        for cid in (0, 1):
            client = ds.clients[cid]
            y = np.concatenate([client.train.y, client.test.y])
            hists.append(np.bincount(y, minlength=4) / len(y))
        tv = 0.5 * np.abs(hists[0] - hists[1]).sum()
        assert tv < 0.2

    def test_heterogeneity_skews_labels(self):
        ds = generate_synthetic(
            seed=11,
            num_clients=8,
            classes_per_client=4,
            examples_per_client=400,
            input_dim=4,
            num_classes=4,
            heterogeneity=1.0,
        )
        maxima = []
        for client in ds.clients.values():
            y = np.concatenate([client.train.y, client.test.y])
            maxima.append((np.bincount(y, minlength=4) / len(y)).max())
        assert np.mean(maxima) > 0.5

    def test_invalid_ranges(self):
        with pytest.raises(ContractViolation):
            small_synthetic(classes_per_client=9)
        with pytest.raises(ContractViolation):
            small_synthetic(examples_per_client=1)
        with pytest.raises(ContractViolation):
            small_synthetic(heterogeneity=1.5)
        with pytest.raises(ContractViolation):
            small_synthetic(num_clients=0)


class TestLoadCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_two_rows_one_client(self, tmp_path):
        path = self.write(tmp_path, "0,1,0.5,0.5\n0,0,-0.5,0.25\n")
        ds = load_csv_dataset(path, 2, 2)
        assert ds.train_client_ids == (0,)
        client = ds.clients[0]
        assert client.train.n == 1
        assert client.test.n == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv_dataset(tmp_path / "nope.csv", 2, 2)

    def test_label_outside_schema(self, tmp_path):
        path = self.write(tmp_path, "0,0,0.1,0.2\n0,5,0.1,0.2\n")
        with pytest.raises(SchemaError) as err:
            load_csv_dataset(path, 2, 2)
        assert "line 2" in str(err.value)

    def test_malformed_value(self, tmp_path):
        path = self.write(tmp_path, "0,0,0.1,0.2\n0,0,zzz,0.2\n")
        with pytest.raises(ParseError) as err:
            load_csv_dataset(path, 2, 2)
        assert "line 2" in str(err.value)

    def test_wrong_column_count(self, tmp_path):
        path = self.write(tmp_path, "0,0,0.1\n")
        with pytest.raises(SchemaError) as err:
            load_csv_dataset(path, 2, 2)
        assert "line 1" in str(err.value)

    def test_split_deterministic_in_seed(self, tmp_path):
        rows = "\n".join(f"0,{i % 3},{i / 10},{-i / 5}" for i in range(10))
        path = self.write(tmp_path, rows + "\n")
        a = load_csv_dataset(path, 2, 3, seed=5)
        b = load_csv_dataset(path, 2, 3, seed=5)
        c = load_csv_dataset(path, 2, 3, seed=6)
        assert datasets_equal(a, b)
        assert not datasets_equal(a, c)
        assert a.clients[0].train.n == 8

    def test_groups_multiple_clients(self, tmp_path):
        rows = ["1,0,0.1,0.2", "0,1,0.3,0.4", "1,1,0.5,0.6", "7,0,0.0,0.0"]
        path = self.write(tmp_path, "\n".join(rows) + "\n")
        ds = load_csv_dataset(path, 2, 2)
        assert ds.train_client_ids == (0, 1, 7)
        assert ds.clients[1].train.n + ds.clients[1].test.n == 2


class TestSplitTrainEval:
    def test_zero_fraction_all_train(self):
        ds = split_train_eval(small_synthetic(), 0.0, seed=1)
        assert len(ds.train_client_ids) == 4
        assert ds.eval_client_ids == ()

    def test_fraction_arithmetic(self):
        ds = small_synthetic(num_clients=10)
        out = split_train_eval(ds, 0.3, seed=1)
        assert len(out.eval_client_ids) == 3
        assert len(out.train_client_ids) == 7
        assert not set(out.train_client_ids) & set(out.eval_client_ids)

    def test_deterministic(self):
        ds = small_synthetic(num_clients=10)
        a = split_train_eval(ds, 0.3, seed=2)
        b = split_train_eval(ds, 0.3, seed=2)
        assert a.eval_client_ids == b.eval_client_ids

    def test_invalid_fraction(self):
        with pytest.raises(ContractViolation):
            split_train_eval(small_synthetic(), 1.0, seed=0)

    def test_weights_survive_split(self):
        out = split_train_eval(small_synthetic(num_clients=10), 0.3, seed=3)
        for cid in out.train_client_ids:
            assert out.clients[cid].weight == out.clients[cid].train.n


class TestFederatedDatasetInvariants:
    def test_overlapping_partitions_rejected(self):
        ds = small_synthetic()
        with pytest.raises(ContractViolation):
            FederatedDataset(
                clients=ds.clients,
                train_client_ids=(0, 1),
                eval_client_ids=(1, 2),
                input_dim=ds.input_dim,
                num_classes=ds.num_classes,
            )

    def test_unknown_client_rejected(self):
        ds = small_synthetic()
        with pytest.raises(ContractViolation):
            FederatedDataset(
                clients=ds.clients,
                train_client_ids=(0, 99),
                eval_client_ids=(),
                input_dim=ds.input_dim,
                num_classes=ds.num_classes,
            )

    def test_label_range_checked(self):
        bad = ClientDataset(
            train=Batch(np.zeros((2, 3)), np.array([0, 7])),
            test=Batch(np.zeros((1, 3)), np.array([0])),
        )
        with pytest.raises(ContractViolation):
            FederatedDataset(
                clients={0: bad},
                train_client_ids=(0,),
                eval_client_ids=(),
                input_dim=3,
                num_classes=3,
            )

    @pytest.mark.parametrize("label", [3, -1, np.iinfo(np.int64).min])
    @pytest.mark.parametrize("part", ["train", "test"])
    def test_label_bound_checked_in_either_split(self, label, part):
        good = Batch(np.zeros((2, 3)), np.array([0, 2]))
        bad = Batch(np.zeros((2, 3)), np.array([0, label]))
        client = ClientDataset(bad, good) if part == "train" else ClientDataset(good, bad)
        with pytest.raises(ContractViolation, match="labels outside"):
            FederatedDataset({0: client}, (0,), (), input_dim=3, num_classes=3)


def test_manifest_contents():
    ds = split_train_eval(small_synthetic(num_clients=10), 0.3, seed=1)
    text = dataset_manifest(ds)
    assert text.startswith("fms-dataset/1\n")
    assert "clients=10" in text
    assert "train_clients=7" in text
    assert "eval_clients=3" in text
    assert "class_histogram=c0:" in text
