"""Dataset ingestion, preprocessing, splitting, and generator tests."""

import os

import numpy as np
import pytest
import scipy.stats

from usnrt.data import (
    DataError,
    PreprocessState,
    Schema,
    SynthSpec,
    fit_transform,
    generate_synthetic,
    load_csv,
    train_test_split,
)

from conftest import feature_matrix


SCHEMA = Schema.from_mapping({"x1": "continuous", "x2": "continuous", "y": "label"})
CAT_SCHEMA = Schema.from_mapping(
    {"x1": "continuous", "color": "categorical", "y": "label"}
)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestSchema:
    def test_requires_exactly_one_label(self):
        with pytest.raises(DataError):
            Schema.from_mapping({"x1": "continuous"})
        with pytest.raises(DataError):
            Schema.from_mapping({"a": "label", "b": "label", "x": "continuous"})

    def test_unknown_kind(self):
        with pytest.raises(DataError):
            Schema.from_mapping({"x1": "numeric", "y": "label"})

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "schema.json"
        CAT_SCHEMA.to_file(path)
        assert Schema.from_file(path) == CAT_SCHEMA

    def test_failed_write_keeps_existing_file(self, tmp_path, monkeypatch):
        path = tmp_path / "schema.json"
        SCHEMA.to_file(path)
        before = path.read_bytes()
        # json.dump has written part of the mapping when it meets the object.
        monkeypatch.setattr(Schema, "to_mapping", lambda self: {"x1": "continuous", "y": object()})
        with pytest.raises(TypeError):
            CAT_SCHEMA.to_file(path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["schema.json"]


class TestLoadCsv:
    def test_exact_parse(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv", "x1,x2,y\n1.0,2.0,3.0\n4.5,-1.25,0.5\n7.0,8.0,9.0\n"
        )
        ds = load_csv(path, SCHEMA)
        assert np.array_equal(ds.continuous["x1"], [1.0, 4.5, 7.0])
        assert np.array_equal(ds.continuous["x2"], [2.0, -1.25, 8.0])
        assert np.array_equal(ds.labels, [3.0, 0.5, 9.0])

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x1,x2,y\n1.0,2.0,3.0\nabc,1.0,2.0\n")
        with pytest.raises(DataError, match=r"row 2.*'x1'"):
            load_csv(path, SCHEMA)

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x1,y\n1.0,2.0\n")
        with pytest.raises(DataError, match="x2"):
            load_csv(path, SCHEMA)

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "")
        with pytest.raises(DataError, match="empty"):
            load_csv(path, SCHEMA)

    def test_missing_value_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x1,x2,y\n1.0,,3.0\n")
        with pytest.raises(DataError, match="missing value"):
            load_csv(path, SCHEMA)

    def test_non_finite_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x1,x2,y\n1.0,inf,3.0\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(path, SCHEMA)

    def test_label_optional_for_prediction_data(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x1,x2\n1.0,2.0\n")
        ds = load_csv(path, SCHEMA, require_label=False)
        assert ds.labels is None
        assert ds.n_rows == 1


class TestPreprocess:
    def test_categorical_cardinality(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv", "x1,color,y\n1.0,a,0.0\n2.0,b,1.0\n3.0,a,2.0\n"
        )
        ds = load_csv(path, CAT_SCHEMA)
        X, y, state = fit_transform(ds)
        assert X.shape == (3, 3)  # x1 plus 2 one-hot columns
        assert state.encoded_feature_names == ["x1", "color=a", "color=b"]
        assert np.array_equal(X[:, 1], [1.0, 0.0, 1.0])
        assert np.array_equal(X[:, 2], [0.0, 1.0, 0.0])

    def test_train_columns_standardised(self):
        rng = np.random.default_rng(0)
        synth = generate_synthetic(SynthSpec(n=500, d=3, seed=1))
        X, y, state = fit_transform(synth.dataset)
        assert np.all(np.abs(X.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(X.var(axis=0, ddof=1) - 1.0) < 1e-9)
        assert abs(y.mean()) < 1e-9
        assert abs(y.var(ddof=1) - 1.0) < 1e-9

    def test_label_round_trip(self):
        synth = generate_synthetic(SynthSpec(n=100, d=2, seed=2))
        state = PreprocessState.fit(synth.dataset)
        y = synth.dataset.labels
        back = state.denormalize_mean(state.transform_labels(y))
        np.testing.assert_allclose(back, y, atol=1e-12)

    def test_no_leak_into_test_stats(self):
        synth = generate_synthetic(SynthSpec(n=400, d=2, seed=3))
        train, test = train_test_split(synth.dataset, 0.5, seed=4)
        state = PreprocessState.fit(train)
        X_train = state.transform(train)
        X_test = state.transform(test)
        assert np.all(np.abs(X_train.mean(axis=0)) < 1e-9)
        # Test columns keep whatever mean they have under the train stats.
        assert np.any(np.abs(X_test.mean(axis=0)) > 1e-6)

    def test_unseen_category_maps_to_zero_block(self, tmp_path):
        train_path = write_csv(
            tmp_path / "train.csv", "x1,color,y\n1.0,a,0.0\n2.0,b,1.0\n3.0,a,2.0\n"
        )
        ds = load_csv(train_path, CAT_SCHEMA)
        state = PreprocessState.fit(ds)
        new_path = write_csv(tmp_path / "new.csv", "x1,color,y\n1.0,zebra,0.0\n")
        new = load_csv(new_path, CAT_SCHEMA)
        X = state.transform(new)
        assert np.array_equal(X[0, 1:], [0.0, 0.0])

    def test_zero_variance_column_flagged(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x1,x2,y\n5.0,1.0,0.0\n5.0,2.0,1.0\n5.0,3.0,2.0\n")
        ds = load_csv(path, SCHEMA)
        with pytest.warns(UserWarning, match="constant"):
            state = PreprocessState.fit(ds)
        assert state.constant_columns == ("x1",)
        X = state.transform(ds)
        assert np.array_equal(X[:, 0], np.zeros(3))

    def test_state_round_trip_stable_encoding(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv", "x1,color,y\n1.0,b,0.0\n2.0,a,1.0\n3.0,c,2.0\n"
        )
        ds = load_csv(path, CAT_SCHEMA)
        state = PreprocessState.fit(ds)
        clone = PreprocessState.from_dict(state.to_dict())
        assert clone.encoding == state.encoding
        assert np.array_equal(clone.transform(ds), state.transform(ds))


class TestTrainTestSplit:
    def test_sizes_and_disjointness(self):
        synth = generate_synthetic(SynthSpec(n=10, d=1, seed=5))
        train, test = train_test_split(synth.dataset, 0.2, seed=6)
        assert train.n_rows == 8
        assert test.n_rows == 2
        all_x = np.concatenate([train.continuous["x1"], test.continuous["x1"]])
        assert np.array_equal(np.sort(all_x), np.sort(synth.dataset.continuous["x1"]))

    def test_determinism(self):
        synth = generate_synthetic(SynthSpec(n=50, d=1, seed=7))
        a_train, a_test = train_test_split(synth.dataset, 0.3, seed=8)
        b_train, b_test = train_test_split(synth.dataset, 0.3, seed=8)
        assert np.array_equal(a_train.labels, b_train.labels)
        assert np.array_equal(a_test.labels, b_test.labels)

    def test_fraction_domain(self):
        synth = generate_synthetic(SynthSpec(n=10, d=1, seed=9))
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                train_test_split(synth.dataset, bad, seed=0)


class TestGenerator:
    def test_homogeneous_residual_std(self):
        sigma = 0.7
        spec = SynthSpec(n=100_000, d=2, sigma_low=sigma, sigma_high=sigma, seed=10)
        synth = generate_synthetic(spec)
        residual = synth.dataset.labels - synth.f_true
        assert abs(residual.std() - sigma) / sigma < 0.03

    def test_per_region_stds(self):
        spec = SynthSpec(n=100_000, d=2, sigma_low=0.1, sigma_high=1.0, seed=11)
        synth = generate_synthetic(spec)
        x_boundary = synth.dataset.continuous["x1"]
        residual = synth.dataset.labels - synth.f_true
        low = residual[x_boundary <= 0]
        high = residual[x_boundary > 0]
        assert abs(low.std() - 0.1) / 0.1 < 0.05
        assert abs(high.std() - 1.0) / 1.0 < 0.05

    def test_seed_determinism(self):
        spec = SynthSpec(n=500, d=3, sigma_low=0.5, sigma_high=2.0, seed=12)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert np.array_equal(a.dataset.labels, b.dataset.labels)
        assert np.array_equal(feature_matrix(a.dataset), feature_matrix(b.dataset))
        assert np.array_equal(a.sigma_true, b.sigma_true)

    def test_standardised_residuals_are_gaussian(self):
        spec = SynthSpec(
            n=10_000, d=3, mean_low="sine", mean_high="linear",
            sigma_low=0.2, sigma_high=(1.0, 0.5), seed=13,
        )
        synth = generate_synthetic(spec)
        z = (synth.dataset.labels - synth.f_true) / synth.sigma_true
        assert scipy.stats.kstest(z, "norm").pvalue > 0.01

    def test_affine_sigma_must_stay_positive(self):
        with pytest.raises(ValueError):
            SynthSpec(n=10, d=1, sigma_low=(0.5, 0.6))

    def test_ground_truth_matches_regions(self):
        spec = SynthSpec(
            n=2000, d=2, sigma_low=0.3, sigma_high=0.9, mean_low="linear",
            mean_high="sine", seed=14,
        )
        synth = generate_synthetic(spec)
        x_boundary = synth.dataset.continuous["x1"]
        assert np.all(synth.sigma_true[x_boundary <= 0] == 0.3)
        assert np.all(synth.sigma_true[x_boundary > 0] == 0.9)
