"""Tree construction, split search, routing, reporting, and serialization."""

import json
import tracemalloc

import numpy as np
import pytest

from usnrt.data import SynthSpec, generate_synthetic
from usnrt.metrics import coverage, sharpness, tce
from usnrt.model_io import ModelFormatError, load_model, save_model
from usnrt import tree as tree_module
from usnrt.nn_core import (
    SIGMA_FLOOR,
    Activation,
    Mlp,
    TrainConfig,
    predict_sigma,
    train_nll_fixed_mean,
    validation_split,
)
from usnrt.stats import DegenerateVarianceError, levene_statistic, levene_test
from usnrt.tree import (
    InternalNode,
    LeafNode,
    SplitCandidate,
    UsnrtConfig,
    UsnrtModel,
    build,
    describe,
    find_best_split,
    leaf_assignments,
    leaf_report,
    predict_arrays,
    resolve_n_min,
    root_split_scatter,
)

from conftest import fast_train_cfg, feature_matrix


def small_cfg(seed=0, **kwargs):
    defaults = dict(
        n_min=150,
        split_net_hidden=[8],
        leaf_net_hidden=[8],
        train_cfg=fast_train_cfg(seed=seed, max_epochs=60, patience=8),
        seed=seed,
    )
    defaults.update(kwargs)
    return UsnrtConfig(**defaults)


def constant_leaf(region_id, width, mean_value, sigma_bias):
    mean_net = Mlp([width, 1], seed=0)
    mean_net.weights = [np.zeros((width, 1))]
    mean_net.biases = [np.array([mean_value])]
    sigma_net = Mlp([width, 1], output_activation=Activation.SOFTPLUS, seed=0)
    sigma_net.weights = [np.zeros((width, 1))]
    sigma_net.biases = [np.array([sigma_bias])]
    return LeafNode(
        region_id=region_id,
        mean_net=mean_net,
        sigma_net=sigma_net,
        train_count=10,
        residual_std=1.0,
    )


def two_leaf_model():
    """A hand-built tree on 2 features that splits x0 at 0 into two constant leaves."""
    left = constant_leaf(1, 2, mean_value=-1.0, sigma_bias=0.3)
    right = constant_leaf(2, 2, mean_value=2.0, sigma_bias=1.5)
    root = InternalNode(feature_index=0, threshold=0.0, p_value=0.001, left=left, right=right)
    return UsnrtModel(root=root, config=UsnrtConfig(), preprocess=None)


def brute_force_best(X, residuals, n_min):
    """Exhaustive stride-1 recomputation with the same ranking rule."""
    n = X.shape[0]
    best = None
    best_key = None
    for k in range(X.shape[1]):
        order = np.argsort(X[:, k], kind="stable")
        values = X[order, k]
        res = residuals[order]
        for i in range(n):
            if i + 1 < n and values[i + 1] == values[i]:
                continue
            left_n, right_n = i + 1, n - i - 1
            if left_n < n_min or right_n < n_min:
                continue
            try:
                r = levene_test(res[:left_n], res[left_n:])
            except DegenerateVarianceError:
                continue
            key = (r.p_value, -abs(r.statistic), k, values[i])
            if best_key is None or key < best_key:
                best_key = key
                best = (k, float(values[i]), r.p_value)
    return best


def loop_best_split(X, residuals, cfg):
    """find_best_split as a loop that scores one cut at a time with
    levene_statistic: the reference for the array scan."""
    n = X.shape[0]
    n_min = resolve_n_min(cfg, n)
    stride = cfg.split_stride or max(1, -(-n // 256))
    best, best_abs_t = None, -1.0
    for k in range(X.shape[1]):
        order = np.argsort(X[:, k], kind="stable")
        values, res = X[order, k], residuals[order]
        for i in range(0, n, stride):
            if (i + 1 < n and values[i + 1] == values[i]) or min(i + 1, n - i - 1) < n_min:
                continue
            try:
                abs_t = abs(levene_statistic(res[: i + 1], res[i + 1 :]))
            except DegenerateVarianceError:
                continue
            if abs_t > best_abs_t:
                best_abs_t, best = abs_t, (k, float(values[i]), res[: i + 1], res[i + 1 :])
    if best is None:
        return None
    k, threshold, left, right = best
    return SplitCandidate(feature_index=k, threshold=threshold, p_value=levene_test(left, right).p_value)


def cut_p_values(X, residuals, n_min):
    """The p-value of every stride-1 cut brute_force_best ranks."""
    n = X.shape[0]
    for k in range(X.shape[1]):
        order = np.argsort(X[:, k], kind="stable")
        values, res = X[order, k], residuals[order]
        for i in range(n):
            if (i + 1 < n and values[i + 1] == values[i]) or min(i + 1, n - i - 1) < n_min:
                continue
            try:
                yield levene_test(res[: i + 1], res[i + 1 :]).p_value
            except DegenerateVarianceError:
                continue


class TestFindBestSplit:
    def test_exhaustive_oracle_agreement(self):
        rng = np.random.default_rng(17)
        cases = []
        for trial in range(8):
            n = int(rng.integers(60, 200))
            d = int(rng.integers(1, 4))
            X = rng.uniform(-1, 1, (n, d))
            cases.append((X, rng.standard_normal(n) * np.where(X[:, 0] > 0, 2.0, 0.7)))
        # A 10x sigma jump: several cuts' p-values underflow to 0, and only
        # the larger |T| tells them apart.
        X = rng.uniform(-1, 1, (200, 2))
        cases.append((X, rng.standard_normal(200) * np.where(X[:, 0] > 0, 10.0, 1.0)))
        assert sum(p == 0.0 for p in cut_p_values(*cases[-1], n_min=10)) >= 2
        for X, residuals in cases:
            cfg = UsnrtConfig(n_min=10, split_stride=1)
            found = find_best_split(X, residuals, cfg)
            expected = brute_force_best(X, residuals, n_min=10)
            assert found is not None and expected is not None
            assert (found.feature_index, found.threshold) == expected[:2]
            assert found.p_value == expected[2]

    def test_chosen_p_is_minimal(self):
        rng = np.random.default_rng(18)
        X = rng.uniform(-1, 1, (150, 2))
        residuals = rng.standard_normal(150)
        cfg = UsnrtConfig(n_min=12, split_stride=1)
        found = find_best_split(X, residuals, cfg)
        n = X.shape[0]
        for k in range(2):
            order = np.argsort(X[:, k], kind="stable")
            values = X[order, k]
            res = residuals[order]
            for i in range(n):
                if i + 1 < n and values[i + 1] == values[i]:
                    continue
                if i + 1 < 12 or n - i - 1 < 12:
                    continue
                assert found.p_value <= levene_test(res[: i + 1], res[i + 1 :]).p_value

    def test_piecewise_sigma_recovery(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.uniform(-1, 1, (4000, 2))
            residuals = np.where(X[:, 0] <= 0, 0.1, 1.0) * rng.standard_normal(4000)
            cand = find_best_split(X, residuals, UsnrtConfig(n_min=500))
            if cand.feature_index == 0 and abs(cand.threshold) < 0.15:
                hits += 1
        assert hits >= 9

    def test_homogeneous_residuals_not_significant(self):
        # Periodic residuals: every balanced cut sees the same composition.
        n = 48
        X = np.arange(n, dtype=float)[:, None]
        residuals = np.tile([-2.0, -1.0, 1.0, 2.0], n // 4)
        cand = find_best_split(X, residuals, UsnrtConfig(n_min=16, split_stride=1))
        assert cand is not None
        assert cand.p_value > 0.01  # rejected downstream by the alpha rule

    def test_infeasible_returns_none(self):
        X = np.random.default_rng(0).uniform(-1, 1, (30, 2))
        residuals = np.random.default_rng(1).standard_normal(30)
        assert find_best_split(X, residuals, UsnrtConfig(n_min=20)) is None

    def test_all_candidates_degenerate_returns_none(self):
        # Constant residuals degenerate every variance test.
        X = np.random.default_rng(2).uniform(-1, 1, (60, 2))
        residuals = np.full(60, 1.5)
        assert find_best_split(X, residuals, UsnrtConfig(n_min=10)) is None

    def test_one_hot_column_single_boundary(self):
        rng = np.random.default_rng(19)
        onehot = (rng.uniform(size=200) < 0.5).astype(float)
        X = onehot[:, None]
        residuals = rng.standard_normal(200) * np.where(onehot > 0, 3.0, 0.5)
        cand = find_best_split(X, residuals, UsnrtConfig(n_min=20, split_stride=1))
        assert cand.feature_index == 0
        assert cand.threshold == 0.0

    @pytest.mark.parametrize("stride", [1, 16])
    def test_same_split_as_the_loop_reference(self, stride):
        rng = np.random.default_rng(23)
        for trial in range(4):
            n = 1500
            X = rng.uniform(-1, 1, (n, 3))
            X[:, 2] = np.round(X[:, 2], 1)  # runs of duplicate values
            residuals = rng.standard_normal(n) * np.where(X[:, trial % 3] > 0.2, 1.3, 1.0)
            cfg = UsnrtConfig(n_min=100, split_stride=stride)
            found = find_best_split(X, residuals, cfg)
            assert found == loop_best_split(X, residuals, cfg)
            if stride == 1:
                assert (found.feature_index, found.threshold, found.p_value) == brute_force_best(X, residuals, 100)

    def test_degenerate_cut_is_never_chosen(self, monkeypatch):
        # Pairs (-1, 1), then pairs (-2, 2), in x order: the cut between the
        # halves has |e - m| constant on each side, so its test degenerates,
        # though its spreads differ most. A screen that ranks it first must
        # not change the choice either.
        n = 400
        X = np.column_stack([np.arange(n, dtype=float), np.random.default_rng(4).uniform(size=n)])
        residuals = np.tile([-1.0, 1.0], n // 2) * np.where(np.arange(n) < n // 2, 1.0, 2.0)
        with pytest.raises(DegenerateVarianceError):
            levene_statistic(residuals[: n // 2], residuals[n // 2 :])
        cfg = UsnrtConfig(n_min=20, split_stride=1)
        expected = loop_best_split(X, residuals, cfg)
        assert expected.threshold != n // 2 - 1
        assert find_best_split(X, residuals, cfg) == expected

        screen = tree_module.levene_statistics_at_cuts

        def misleading_screen(ordered_residuals, sizes):
            screened = screen(ordered_residuals, sizes)
            for c, size in enumerate(sizes):
                try:
                    levene_statistic(ordered_residuals[:size], ordered_residuals[size:])
                except DegenerateVarianceError:
                    screened[c] = 1e9
            return screened

        monkeypatch.setattr(tree_module, "levene_statistics_at_cuts", misleading_screen)
        assert find_best_split(X, residuals, cfg) == expected

    def test_memory_is_linear_in_rows_at_stride_1(self):
        # About 20,000 cuts of one feature: one (cuts + 1) x cuts table would be
        # about 3 GB. Blocked tables and the per-row arrays take about
        # 170 bytes a row.
        n = 20_000
        rng = np.random.default_rng(6)
        X = rng.uniform(-1, 1, (n, 1))
        residuals = rng.standard_normal(n) * np.where(X[:, 0] > 0.3, 2.0, 1.0)
        tracemalloc.start()
        try:
            found = find_best_split(X, residuals, UsnrtConfig(n_min=10, split_stride=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found.feature_index == 0 and abs(found.threshold - 0.3) < 0.05
        assert peak < 400 * n

    def test_non_finite_residuals_rejected_without_cuts(self):
        X = np.random.default_rng(0).uniform(-1, 1, (30, 2))
        residuals = np.full(30, np.nan)
        with pytest.raises(ValueError, match="residuals must be finite"):
            find_best_split(X, residuals, UsnrtConfig(n_min=20))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        rng = np.random.default_rng(7)
        X = rng.uniform(-1, 1, (400, 2))
        residuals = rng.standard_normal(400)
        X[5, 1] = bad
        with pytest.raises(ValueError, match="features must be finite"):
            find_best_split(X, residuals, UsnrtConfig(n_min=50))

    def test_n_min_resolution_default_rule(self):
        cfg = UsnrtConfig()
        assert resolve_n_min(cfg, 45_000) == 4_500
        assert resolve_n_min(cfg, 5_000) == 1_000
        assert resolve_n_min(UsnrtConfig(n_leaves=4), 45_000) == 11_250
        assert resolve_n_min(UsnrtConfig(n_min=250), 45_000) == 250


class TestConfig:
    @pytest.mark.parametrize("key", ["split_net_hidden", "leaf_net_hidden"])
    def test_hidden_size_below_1_names_its_key(self, key):
        with pytest.raises(ValueError, match=f"^{key} sizes must be at least 1"):
            UsnrtConfig(**{key: [4, 0]})

    def test_empty_hidden_list_means_no_hidden_layer(self):
        cfg = UsnrtConfig(split_net_hidden=[], leaf_net_hidden=[])
        assert cfg.split_net_hidden == [] and cfg.leaf_net_hidden == []


class TestBuild:
    def test_single_leaf_when_small(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, (200, 2))
        y = X[:, 0] + 0.1 * rng.standard_normal(200)
        model = build(X, y, small_cfg(n_min=150))
        assert model.leaf_count == 1
        assert model.depth == 0
        assert isinstance(model.root, LeafNode)

    def test_default_leaf_hidden_sizes_follow_dimension(self):
        rng = np.random.default_rng(13)
        X = rng.uniform(-1, 1, (200, 3))
        y = X.sum(axis=1)
        model = build(X, y, small_cfg(n_min=150, split_net_hidden=None, leaf_net_hidden=None))
        assert model.root.mean_net.layer_sizes == [3, 12, 6, 1]
        assert model.root.sigma_net.layer_sizes == [3, 12, 6, 1]

    def test_piecewise_sigma_splits_on_boundary(self, piecewise_sigma_data):
        X, y, _ = piecewise_sigma_data
        model = build(X, y, small_cfg(n_min=600, seed=3))
        assert model.leaf_count >= 2
        assert isinstance(model.root, InternalNode)
        assert model.root.feature_index == 0
        assert abs(model.root.threshold) < 0.2

    def test_same_model_as_with_the_loop_reference_scan(self, piecewise_sigma_data, monkeypatch):
        X, y, _ = piecewise_sigma_data
        cfg = small_cfg(n_min=300, seed=3, split_stride=4)
        model = build(X, y, cfg)
        assert model.leaf_count >= 2
        monkeypatch.setattr(tree_module, "find_best_split", loop_best_split)
        reference = build(X, y, cfg)
        assert json.dumps(reference.to_payload()) == json.dumps(model.to_payload())
        assert reference.train_log == model.train_log

    def test_leaf_counts_respect_floor(self, piecewise_sigma_data):
        X, y, _ = piecewise_sigma_data
        cfg = small_cfg(n_min=400, seed=4)
        model = build(X, y, cfg)
        for leaf in model.leaves():
            assert leaf.train_count >= 400
        assert model.leaf_count <= X.shape[0] // 400

    def test_region_ids_contiguous(self, piecewise_sigma_data):
        X, y, _ = piecewise_sigma_data
        model = build(X, y, small_cfg(n_min=500, seed=5))
        ids = [leaf.region_id for leaf in model.leaves()]
        assert ids == list(range(1, model.leaf_count + 1))

    def test_lower_alpha_never_more_leaves(self, piecewise_sigma_data):
        X, y, _ = piecewise_sigma_data
        loose = build(X, y, small_cfg(n_min=400, seed=6, alpha=0.05))
        strict = build(X, y, small_cfg(n_min=400, seed=6, alpha=1e-6))
        assert strict.leaf_count <= loose.leaf_count

    def test_determinism(self, piecewise_sigma_data):
        X, y, _ = piecewise_sigma_data
        a = build(X, y, small_cfg(n_min=600, seed=7))
        b = build(X, y, small_cfg(n_min=600, seed=7))
        mu_a, s_a = predict_arrays(a, X[:100])
        mu_b, s_b = predict_arrays(b, X[:100])
        assert np.array_equal(mu_a, mu_b)
        assert np.array_equal(s_a, s_b)

    def test_build_log_records_nodes(self, piecewise_sigma_data):
        X, y, _ = piecewise_sigma_data
        model = build(X, y, small_cfg(n_min=600, seed=8))
        kinds = {entry["kind"] for entry in model.train_log["nodes"]}
        assert "leaf-trained" in kinds
        summary = describe(model)
        assert summary["leaf_count"] == model.leaf_count
        assert summary["depth"] == model.depth
        assert all("p_best" in s for s in summary["splits"])

    def test_rejects_bad_inputs(self):
        cfg = small_cfg()
        with pytest.raises(ValueError):
            build(np.ones((1, 2)), np.ones(1), cfg)
        X = np.ones((40, 2))
        y = np.ones(40)
        y[0] = np.inf
        with pytest.raises(ValueError):
            build(X, y, cfg)


class TestLeafSigmaTargets:
    def test_training_residuals_scaled_to_held_out_rms(self, monkeypatch, piecewise_sigma_data):
        X, y, _ = piecewise_sigma_data
        X, y = X[:1000], y[:1000]
        captured = {}

        def spy(sigma_net, mean_net, X_arg, y_arg, cfg):
            captured.update(mean_net=mean_net, X=X_arg, y=y_arg, cfg=cfg)
            return train_nll_fixed_mean(sigma_net, mean_net, X_arg, y_arg, cfg)

        monkeypatch.setattr(tree_module, "train_nll_fixed_mean", spy)
        mean_net, _, mean_log, _ = tree_module._train_leaf_nets(X, y, small_cfg(), [8], ())

        assert captured["mean_net"] is mean_net
        assert np.array_equal(captured["X"], X)
        mu = mean_net.forward(X)[:, 0]
        residual = y - mu
        target = captured["y"] - mu
        val_idx, train_idx = validation_split(X.shape[0], captured["cfg"])
        # These are the rows the mean network's early stopping held out.
        assert val_idx.size == mean_log.n_val
        assert np.mean(residual[val_idx] ** 2) == pytest.approx(
            mean_log.val_losses[mean_log.best_epoch], rel=1e-12
        )

        np.testing.assert_array_equal(target[val_idx], residual[val_idx])
        ratio = np.sqrt(np.mean(residual[val_idx] ** 2) / np.mean(residual[train_idx] ** 2))
        assert abs(ratio - 1.0) > 1e-3
        np.testing.assert_allclose(
            target[train_idx], ratio * residual[train_idx], rtol=1e-9, atol=1e-12
        )


class TestPredict:
    def test_single_leaf_matches_leaf_nets(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, (300, 2))
        y = X[:, 0] + 0.2 * rng.standard_normal(300)
        model = build(X, y, small_cfg(n_min=300, seed=9))
        assert model.leaf_count == 1
        leaf = model.root
        mu, sigma = predict_arrays(model, X)
        assert np.array_equal(mu, leaf.mean_net.forward(X)[:, 0])
        assert np.array_equal(sigma, predict_sigma(leaf.sigma_net, X))

    def test_boundary_point_routes_left(self):
        left = constant_leaf(1, 2, mean_value=-5.0, sigma_bias=0.0)
        right = constant_leaf(2, 2, mean_value=5.0, sigma_bias=0.0)
        root = InternalNode(feature_index=0, threshold=0.25, p_value=0.001, left=left, right=right)
        model = UsnrtModel(root=root, config=UsnrtConfig(), preprocess=None)
        mu, _ = predict_arrays(model, np.array([[0.25, 9.9], [0.2500000001, 0.0]]))
        assert mu[0] == -5.0  # exactly on the threshold: left branch
        assert mu[1] == 5.0

    def test_predictions_are_gaussian_pairs(self, piecewise_sigma_data):
        X, y, _ = piecewise_sigma_data
        model = build(X, y, small_cfg(n_min=600, seed=10))
        mu, sigma = predict_arrays(model, X[:50])
        assert mu.shape == sigma.shape == (50,)
        assert np.all(np.isfinite(mu))
        assert np.all(sigma > SIGMA_FLOOR / 2)

    def test_dimension_mismatch(self, piecewise_sigma_data):
        X, y, _ = piecewise_sigma_data
        model = build(X, y, small_cfg(n_min=600, seed=11))
        with pytest.raises(ValueError):
            predict_arrays(model, np.ones((5, 9)))

    def test_unique_leaf_partition(self, piecewise_sigma_data):
        X, y, _ = piecewise_sigma_data
        model = build(X, y, small_cfg(n_min=400, seed=12))

        boxes = []

        def walk(node, constraints):
            if isinstance(node, LeafNode):
                boxes.append((node.region_id, list(constraints)))
                return
            walk(node.left, constraints + [(node.feature_index, node.threshold, True)])
            walk(node.right, constraints + [(node.feature_index, node.threshold, False)])

        walk(model.root, [])
        rng = np.random.default_rng(13)
        points = rng.uniform(-2, 2, (10_000, X.shape[1]))
        routed = leaf_assignments(model, points)
        for point, region in zip(points, routed):
            accepting = [
                rid
                for rid, constraints in boxes
                if all(
                    (point[k] <= t) if is_left else (point[k] > t)
                    for k, t, is_left in constraints
                )
            ]
            assert accepting == [region]

    def test_non_finite_features_rejected(self):
        left = constant_leaf(1, 2, mean_value=-5.0, sigma_bias=0.0)
        right = constant_leaf(2, 2, mean_value=5.0, sigma_bias=0.0)
        root = InternalNode(feature_index=0, threshold=0.0, p_value=0.001, left=left, right=right)
        model = UsnrtModel(root=root, config=UsnrtConfig(), preprocess=None)
        for bad in (np.nan, np.inf, -np.inf):
            X = np.array([[bad, 0.0], [1.0, 2.0]])
            with pytest.raises(ValueError, match="finite"):
                predict_arrays(model, X)
            with pytest.raises(ValueError, match="finite"):
                leaf_assignments(model, X)
            with pytest.raises(ValueError, match="finite"):
                leaf_report(model, X, np.zeros(2))


class TestLeafReport:
    def test_homoscedastic_single_leaf(self):
        synth = generate_synthetic(SynthSpec(n=2000, d=2, sigma_low=0.5, sigma_high=0.5, seed=14))
        X = feature_matrix(synth.dataset)
        y = synth.dataset.labels
        model = build(X, y, small_cfg(n_min=2000, seed=15, train_cfg=fast_train_cfg(seed=15, max_epochs=150, patience=15)))
        report = leaf_report(model, X, y)
        assert report["count"] == [2000]
        assert abs(report["residual_std"][0] - 0.5) / 0.5 < 0.10

    def test_piecewise_stds_straddle_truth(self, piecewise_sigma_data):
        X, y, _ = piecewise_sigma_data
        model = build(X, y, small_cfg(n_min=600, seed=16))
        stds = leaf_report(model, X, y)["residual_std"]
        assert min(stds) < 0.35
        assert max(stds) > 0.6

    def test_counts_partition_dataset(self, piecewise_sigma_data):
        X, y, _ = piecewise_sigma_data
        model = build(X, y, small_cfg(n_min=400, seed=17))
        assert sum(leaf_report(model, X, y)["count"]) == X.shape[0]

    def test_empty_region_reported_absent(self):
        left = constant_leaf(1, 1, mean_value=0.0, sigma_bias=0.0)
        right = constant_leaf(2, 1, mean_value=0.0, sigma_bias=0.0)
        root = InternalNode(feature_index=0, threshold=0.0, p_value=0.001, left=left, right=right)
        model = UsnrtModel(root=root, config=UsnrtConfig(), preprocess=None)
        X = np.array([[-1.0], [-0.5]])  # everything routes left
        report = leaf_report(model, X, np.zeros(2))
        assert report["count"] == [2, 0]
        assert report["residual_std"][1] is None


    def test_calibration_columns_match_metrics_on_each_leaf(self):
        """Every column of a hand-built two-leaf model is the statistic that
        metrics computes on that leaf's rows alone; an empty leaf has None."""
        left = constant_leaf(1, 2, mean_value=-1.0, sigma_bias=0.3)
        right = constant_leaf(2, 2, mean_value=2.0, sigma_bias=1.5)
        root = InternalNode(feature_index=0, threshold=0.0, p_value=0.001, left=left, right=right)
        model = UsnrtModel(root=root, config=UsnrtConfig(), preprocess=None)
        rng = np.random.default_rng(21)
        X = rng.uniform(-1.0, 1.0, (500, 2))
        on_left = X[:, 0] <= 0.0
        y = np.where(on_left, -1.0, 2.0) + rng.normal(0.0, np.where(on_left, 0.4, 3.0))
        report = leaf_report(model, X, y)
        assert list(report) == ["region_id", "count", "residual_std", "sigma_mean", "z_std", "coverage_90", "tce"]
        mu, sigma = predict_arrays(model, X)
        for i, rows in enumerate((on_left, ~on_left)):
            m, s, t = mu[rows], sigma[rows], y[rows]
            expected = {
                "region_id": i + 1,
                "count": int(rows.sum()),
                "residual_std": float(np.sqrt(np.mean((t - m) ** 2))),
                "sigma_mean": sharpness(s) / 100.0,
                "z_std": float(np.std((t - m) / s)),
                "coverage_90": coverage(m, s, t, 0.05),
                "tce": tce(m, s, t),
            }
            assert {key: column[i] for key, column in report.items()} == pytest.approx(expected, rel=1e-12)
        # The two leaves differ in calibration, so a wrong row set would show.
        assert report["coverage_90"][0] != report["coverage_90"][1]
        empty = leaf_report(model, X[on_left], y[on_left])
        assert [column[1] for column in empty.values()] == [2, 0, None, None, None, None, None]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_label_rejected(self, bad):
        X = np.array([[-0.5, 0.0], [0.5, 0.0], [0.7, 1.0]])
        with pytest.raises(ValueError, match="y must be finite"):
            leaf_report(two_leaf_model(), X, np.array([0.0, bad, 1.0]))


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path, piecewise_sigma_data):
        X, y, _ = piecewise_sigma_data
        model = build(X, y, small_cfg(n_min=600, seed=18))
        path = tmp_path / "model.json"
        save_model(model, path)
        clone = load_model(path)
        mu_a, s_a = predict_arrays(model, X)
        mu_b, s_b = predict_arrays(clone, X)
        assert np.array_equal(mu_a, mu_b)
        assert np.array_equal(s_a, s_b)
        assert clone.leaf_count == model.leaf_count
        assert clone.depth == model.depth

    def test_truncated_file(self, tmp_path, piecewise_sigma_data):
        X, y, _ = piecewise_sigma_data
        model = build(X, y, small_cfg(n_min=1500, seed=19))
        path = tmp_path / "model.json"
        save_model(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_version_mismatch(self, tmp_path, piecewise_sigma_data):
        X, y, _ = piecewise_sigma_data
        model = build(X, y, small_cfg(n_min=1500, seed=20))
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)


class TestRootSplitScatter:
    def test_single_leaf_returns_none(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, (200, 2))
        y = rng.standard_normal(200)
        model = build(X, y, small_cfg(n_min=200, seed=21))
        assert root_split_scatter(model, X, y) is None

    def test_piecewise_export(self, piecewise_sigma_data):
        X, y, _ = piecewise_sigma_data
        model = build(X, y, small_cfg(n_min=600, seed=22))
        scatter = root_split_scatter(model, X, y)
        assert scatter.split_feature_index == model.root.feature_index
        assert scatter.split_values.shape == (X.shape[0],)
        assert np.all((scatter.residual_quantiles > 0) & (scatter.residual_quantiles < 1))
        left = scatter.squared_residuals[scatter.split_values <= scatter.threshold]
        right = scatter.squared_residuals[scatter.split_values > scatter.threshold]
        ratio = max(left.mean(), right.mean()) / min(left.mean(), right.mean())
        assert ratio > 4.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_label_rejected_before_training(self, bad):
        rng = np.random.default_rng(23)
        X = rng.uniform(-1, 1, (200, 2))
        y = rng.standard_normal(200)
        y[3] = bad
        with pytest.raises(ValueError, match="^y must be finite$"):
            root_split_scatter(two_leaf_model(), X, y)
