"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. AC-12 needs a locally downloaded dataset (see the README) and skips
when the USNRT_UCI_ELECTRICAL environment variable is unset.
"""

import math
import os
import time

import numpy as np
import pytest
import scipy.stats

from usnrt.baselines import EnsembleModel, HnnModel, ensemble_predict_arrays, train_hnn
from usnrt.data import (
    PreprocessState,
    Schema,
    SynthSpec,
    generate_synthetic,
    load_csv,
    train_test_split,
)
from usnrt.metrics import calibration_curve, ece, sharpness, tce
from usnrt.model_io import load_model, save_model
from usnrt.nn_core import (
    Activation,
    Mlp,
    TrainConfig,
    average_nll,
    predict_sigma,
)
from usnrt.nn_core import _MseObjective, _NllSigmaObjective
from usnrt.stats import (
    DegenerateVarianceError,
    levene_test,
    normal_inverse_cdf,
    student_t_cdf,
)
from usnrt.tree import (
    LeafNode,
    UsnrtConfig,
    build,
    find_best_split,
    leaf_assignments,
    predict_arrays,
    _train_split_net,
)

from conftest import finite_difference_worst


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{name}: {status}{suffix}")


def preds_of(mu, sigma):
    return np.asarray(mu, dtype=float), np.asarray(sigma, dtype=float)


def test_ac01_levene_oracle():
    """Statistic vs naive two-pass recomputation; p vs an independent t-CDF."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    stats = []
    dfs = []
    p_values = []
    checked = 0
    degenerate = 0
    for _ in range(1000):
        n_l = int(rng.integers(2, 201))
        n_r = int(rng.integers(2, 201))
        a = rng.normal(scale=float(rng.uniform(0.2, 5.0)), size=n_l)
        b = rng.normal(scale=float(rng.uniform(0.2, 5.0)), size=n_r)

        # Naive two-pass recomputation in plain Python arithmetic.
        mean_l = sum(a) / n_l
        mean_r = sum(b) / n_r
        z_l = [abs(v - mean_l) for v in a]
        z_r = [abs(v - mean_r) for v in b]
        zbar_l = sum(z_l) / n_l
        zbar_r = sum(z_r) / n_r
        w2_l = sum((z - zbar_l) ** 2 for z in z_l) / (n_l - 1)
        w2_r = sum((z - zbar_r) ** 2 for z in z_r) / (n_r - 1)
        pooled = ((n_l - 1) * w2_l + (n_r - 1) * w2_r) / (n_l + n_r - 2)
        if pooled == 0.0:
            with pytest.raises(DegenerateVarianceError):
                levene_test(a, b)
            degenerate += 1
            continue
        expected_t = (zbar_l - zbar_r) / math.sqrt(pooled * (1 / n_l + 1 / n_r))

        result = levene_test(a, b)
        assert abs(result.statistic - expected_t) <= 1e-10 * max(1.0, abs(expected_t))
        stats.append(result.statistic)
        dfs.append(result.degrees_of_freedom)
        p_values.append(result.p_value)
        checked += 1

    reference = 2.0 * scipy.stats.t.sf(np.abs(stats), dfs)
    worst = float(np.max(np.abs(np.asarray(p_values) - reference)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    report(
        "AC-1 Levene oracle",
        ok,
        f"{checked} pairs, {degenerate} degenerate, max p gap {worst:.2e}, {elapsed:.2f}s",
    )
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_ac02_special_functions():
    t_value = student_t_cdf(1.0, 1)
    q_value = normal_inverse_cdf(0.95)

    t_grid = np.linspace(-30, 30, 2001)
    t_monotone = True
    for df in (1, 7, 1998):
        values = [student_t_cdf(float(t), df) for t in t_grid]
        t_monotone &= all(b >= a for a, b in zip(values, values[1:]))

    tau_grid = np.linspace(0.001, 0.999, 1999)
    quantiles = [normal_inverse_cdf(float(t)) for t in tau_grid]
    q_monotone = all(b > a for a, b in zip(quantiles, quantiles[1:]))

    ok = (
        abs(t_value - 0.75) <= 1e-10
        and abs(q_value - 1.644853626) <= 1e-8
        and t_monotone
        and q_monotone
    )
    report(
        "AC-2 special functions",
        ok,
        f"F_t(1;1)={t_value:.12f}, PhiInv(0.95)={q_value:.9f}",
    )
    assert abs(t_value - 0.75) <= 1e-10
    assert abs(q_value - 1.644853626) <= 1e-8
    assert t_monotone and q_monotone


def test_ac03_gradient_checks():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        input_dim = int(rng.integers(1, 6))
        hidden = [int(rng.integers(2, 21)) for _ in range(int(rng.integers(1, 3)))]
        sizes = [input_dim, *hidden, 1]
        X = rng.uniform(-1.5, 1.5, (int(rng.integers(3, 9)), input_dim))
        if trial % 2 == 0:
            net = Mlp(sizes, seed=trial)
            objective = _MseObjective(rng.normal(size=(1, X.shape[0], 1)))
        else:
            net = Mlp(sizes, output_activation=Activation.SOFTPLUS, seed=trial)
            objective = _NllSigmaObjective(rng.normal(size=(1, X.shape[0])))
        worst = max(worst, finite_difference_worst(net, X, objective))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    report("AC-3 gradient checks", ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 30.0


def test_ac04_metric_closed_forms():
    ece_above = ece([0.0], [1.0], [1e9])
    tce_inside = tce([0.0] * 3, [1.0] * 3, [0.0, 0.0, 0.0])
    tce_outside = tce([0.0] * 3, [1.0] * 3, [100.0, -100.0, 100.0])
    sharp = sharpness([0.2, 0.4])

    rng = np.random.default_rng(404)
    n = 400
    preds = preds_of(rng.normal(size=n), rng.uniform(0.2, 2.0, size=n))
    y = rng.normal(size=n)
    curve = dict(calibration_curve(*preds, y))
    matching = float(np.mean([curve[p] for p in (0.6, 0.7, 0.8, 0.9)]))
    tce_value = tce(*preds, y)

    checks = {
        "ece all-outside 50": abs(ece_above - 50.0) <= 1e-12,
        "tce inside 25": abs(tce_inside - 25.0) <= 1e-12,
        "tce outside 75": abs(tce_outside - 75.0) <= 1e-12,
        "sharpness 30": abs(sharp - 30.0) <= 1e-12,
        "tce equals curve mean": abs(tce_value - matching) <= 1e-12,
    }
    ok = all(checks.values())
    report("AC-4 metric closed forms", ok, ", ".join(k for k, v in checks.items() if not v) or "all exact")
    assert ok, checks


def test_ac05_split_recovery():
    start = time.perf_counter()
    hits = 0
    for seed in range(10):
        synth = generate_synthetic(
            SynthSpec(n=4000, d=2, sigma_low=0.1, sigma_high=1.0, seed=200 + seed)
        )
        names = [c.name for c in synth.dataset.schema.feature_columns]
        X = np.column_stack([synth.dataset.columns[name] for name in names])
        y = synth.dataset.labels
        cfg = UsnrtConfig(n_min=500, seed=seed, train_cfg=TrainConfig(seed=seed))
        net, _ = _train_split_net(X, y, cfg, [16, 8], ())
        residuals = y - net.forward(X)[:, 0]
        candidate = find_best_split(X, residuals, cfg)
        if candidate.feature_index == 0 and abs(candidate.threshold) < 0.15:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 9 and elapsed < 120.0
    report("AC-5 split recovery", ok, f"{hits}/10 seeds, {elapsed:.1f}s")
    assert hits >= 9
    assert elapsed < 120.0


def test_ac06_null_stability():
    single = 0
    for seed in range(10):
        synth = generate_synthetic(
            SynthSpec(n=2400, d=2, sigma_low=0.5, sigma_high=0.5, seed=100 + seed)
        )
        names = [c.name for c in synth.dataset.schema.feature_columns]
        X = np.column_stack([synth.dataset.columns[name] for name in names])
        y = synth.dataset.labels
        cfg = UsnrtConfig(seed=seed, train_cfg=TrainConfig(seed=seed))
        model = build(X, y, cfg)
        single += model.leaf_count == 1
    ok = single >= 9
    report("AC-6 null stability", ok, f"{single}/10 single-leaf at alpha=0.01")
    assert single >= 9


def test_ac07_heterogeneity_benefit():
    # Both the mean function and the noise scale jump at the boundary: the
    # strongest heterogeneity instance the generator catalog expresses.
    synth = generate_synthetic(
        SynthSpec(
            n=10_000, d=8, sigma_low=0.1, sigma_high=1.0,
            mean_low="linear", mean_high="sine", seed=777,
        )
    )
    start = time.perf_counter()
    usnrt_nll = []
    single_nll = []
    ece_wins = 0
    tce_wins = 0
    region_tce_wins = 0
    truth_region_tce_wins = 0
    for seed in range(5):
        train, test = train_test_split(synth.dataset, 0.2, seed=seed)
        # train_test_split's test rows are the head of its seeded permutation.
        test_rows = np.random.default_rng(seed).permutation(synth.dataset.n_rows)[: test.n_rows]
        assert np.array_equal(synth.dataset.labels[test_rows], test.labels)
        state = PreprocessState.fit(train)
        X_train = state.transform(train)
        y_train = state.transform_labels(train.labels)
        X_test = state.transform(test)
        y_test = state.transform_labels(test.labels)

        model = build(
            X_train, y_train,
            UsnrtConfig(seed=seed, train_cfg=TrainConfig(seed=seed)),
            preprocess=state,
        )
        mu, sigma = predict_arrays(model, X_test, denormalize=False)
        usnrt_nll.append(average_nll(y_test, mu, sigma))
        usnrt_preds = preds_of(mu, sigma)

        single = build(
            X_train, y_train,
            UsnrtConfig(n_min=X_train.shape[0], seed=seed, train_cfg=TrainConfig(seed=seed)),
            preprocess=state,
        )
        assert single.leaf_count == 1
        mu1, sigma1 = predict_arrays(single, X_test, denormalize=False)
        single_nll.append(average_nll(y_test, mu1, sigma1))

        hnn = train_hnn(X_train, y_train, TrainConfig(seed=seed), preprocess=state)
        mu_h, sigma_h = hnn.predict_arrays(X_test, denormalize=False)
        hnn_preds = preds_of(mu_h, sigma_h)

        # TCE is invariant under the label standardisation, so the true
        # distribution is scored in original units against the raw labels.
        truth_preds = preds_of(synth.f_true[test_rows], synth.sigma_true[test_rows])

        # Marginal coverage lets an HNN that over-covers the low-noise region
        # and under-covers the high-noise one cancel its errors; the benefit
        # of modelling the heterogeneity shows in the TCE inside each
        # ground-truth noise region, averaged over the two regions.
        low = test.columns["x1"] <= 0.0
        regions = (low, ~low)

        def region_tce(preds, y):
            mu, sigma = preds
            return float(np.mean([tce(mu[mask], sigma[mask], y[mask]) for mask in regions]))

        hnn_region_tce = region_tce(hnn_preds, y_test)
        ece_wins += ece(*usnrt_preds, y_test) < ece(*hnn_preds, y_test)
        tce_wins += tce(*usnrt_preds, y_test) < tce(*hnn_preds, y_test)
        region_tce_wins += region_tce(usnrt_preds, y_test) < hnn_region_tce
        truth_region_tce_wins += region_tce(truth_preds, test.labels) < hnn_region_tce

    elapsed = time.perf_counter() - start
    mean_usnrt = float(np.mean(usnrt_nll))
    mean_single = float(np.mean(single_nll))
    nll_ok = mean_usnrt < mean_single
    calibration_ok = ece_wins >= 4 and region_tce_wins >= 4
    ok = nll_ok and calibration_ok and truth_region_tce_wins >= 4 and elapsed < 900.0
    report(
        "AC-7 heterogeneity benefit",
        ok,
        f"nll {mean_usnrt:.4f} vs single-leaf {mean_single:.4f}, "
        f"ece wins {ece_wins}/5, per-region tce wins {region_tce_wins}/5 "
        f"(true distribution {truth_region_tce_wins}/5), "
        f"marginal tce wins {tce_wins}/5, {elapsed:.0f}s",
    )
    assert elapsed < 900.0
    assert nll_ok, f"mean NLL {mean_usnrt} not below single-leaf {mean_single}"
    assert ece_wins >= 4, f"ECE wins {ece_wins}/5"
    assert truth_region_tce_wins >= 4, (
        f"control: true distribution per-region TCE wins {truth_region_tce_wins}/5"
    )
    assert region_tce_wins >= 4, f"per-region TCE wins {region_tce_wins}/5"


def test_ac08_calibration_consistency():
    synth = generate_synthetic(
        SynthSpec(
            n=100_000, d=2, sigma_low=0.3, sigma_high=1.2,
            mean_low="sine", mean_high="linear", seed=808,
        )
    )
    preds = preds_of(synth.f_true, synth.sigma_true)
    y = synth.dataset.labels
    ece_value = ece(*preds, y)
    tce_value = tce(*preds, y)
    ok = ece_value < 0.5 and tce_value < 0.5
    report(
        "AC-8 calibration consistency",
        ok,
        f"true-distribution ece {ece_value:.3f}, tce {tce_value:.3f}",
    )
    assert ece_value < 0.5
    assert tce_value < 0.5


def test_ac09_ensemble_degenerate():
    def constant_member(mean_value, sigma_bias):
        mean_net = Mlp([2, 1], seed=0)
        mean_net.weights = [np.array([[0.3], [-0.2]])]
        mean_net.biases = [np.array([mean_value])]
        sigma_net = Mlp([2, 1], output_activation=Activation.SOFTPLUS, seed=0)
        sigma_net.weights = [np.array([[0.1], [0.4]])]
        sigma_net.biases = [np.array([sigma_bias])]
        return HnnModel(mean_net=mean_net, sigma_net=sigma_net)

    member = constant_member(0.7, 0.9)
    ensemble = EnsembleModel(members=[member] * 5)
    X = np.random.default_rng(909).uniform(-2, 2, (300, 2))
    mu_single, sigma_single = member.predict_arrays(X)
    mu_agg, sigma_agg = ensemble_predict_arrays(ensemble, X)
    exact = np.array_equal(mu_agg, mu_single) and np.array_equal(sigma_agg, sigma_single)

    low = constant_member(-1.0, -14.0)  # softplus(-14) ~ 8e-7
    low.mean_net.weights = [np.zeros((2, 1))]
    low.sigma_net.weights = [np.zeros((2, 1))]
    high = constant_member(1.0, -14.0)
    high.mean_net.weights = [np.zeros((2, 1))]
    high.sigma_net.weights = [np.zeros((2, 1))]
    mu_pair, sigma_pair = ensemble_predict_arrays(EnsembleModel(members=[low, high]), X[:5])
    hand_ok = bool(
        np.all(np.abs(mu_pair) <= 1e-12) and np.all(np.abs(sigma_pair - 1.0) <= 1e-9)
    )

    ok = exact and hand_ok
    report("AC-9 ensemble degenerate case", ok, "exact reproduction and hand example")
    assert exact
    assert hand_ok


def test_ac10_structural_invariants(tmp_path):
    synth = generate_synthetic(
        SynthSpec(n=4000, d=2, sigma_low=0.1, sigma_high=1.0, seed=1010)
    )
    names = [c.name for c in synth.dataset.schema.feature_columns]
    X = np.column_stack([synth.dataset.columns[name] for name in names])
    y = synth.dataset.labels
    cfg = UsnrtConfig(seed=4, train_cfg=TrainConfig(seed=4))  # default n_min rule
    model = build(X, y, cfg)

    boxes = []

    def walk(node, constraints):
        if isinstance(node, LeafNode):
            boxes.append((node.region_id, list(constraints)))
            return
        walk(node.left, constraints + [(node.feature_index, node.threshold, True)])
        walk(node.right, constraints + [(node.feature_index, node.threshold, False)])

    walk(model.root, [])
    rng = np.random.default_rng(7)
    points = rng.uniform(-2, 2, (10_000, X.shape[1]))
    routed = leaf_assignments(model, points)
    unique = all(
        [
            rid
            for rid, constraints in boxes
            if all(
                (point[k] <= t) if is_left else (point[k] > t)
                for k, t, is_left in constraints
            )
        ]
        == [region]
        for point, region in zip(points, routed)
    )

    floor_ok = all(leaf.train_count >= 1000 for leaf in model.leaves())
    count_ok = model.leaf_count <= 10

    path = tmp_path / "model.json"
    save_model(model, path)
    clone = load_model(path)
    mu_a, sigma_a = predict_arrays(model, X)
    mu_b, sigma_b = predict_arrays(clone, X)
    round_trip = np.array_equal(mu_a, mu_b) and np.array_equal(sigma_a, sigma_b)

    ok = unique and floor_ok and count_ok and round_trip
    report(
        "AC-10 structural invariants",
        ok,
        f"leaves {model.leaf_count}, unique routing {unique}, round trip {round_trip}",
    )
    assert unique
    assert floor_ok
    assert count_ok
    assert round_trip


def test_ac11_complexity_linear_in_depth():
    rng = np.random.default_rng(99)
    n, d = 6000, 3
    X = rng.uniform(-1, 1, (n, d))
    sigma = 0.2 * 3.0 ** ((X[:, 0] > 0) + (X[:, 1] > 0) + (X[:, 2] > 0))
    y = X.sum(axis=1) / np.sqrt(d) + sigma * rng.standard_normal(n)

    # Fixed epoch count (patience never triggers) keeps per-node cost stable.
    times = {}
    for n_min, target_depth in ((2600, 1), (1300, 2), (700, 3)):
        cfg = UsnrtConfig(
            n_min=n_min, seed=0, train_cfg=TrainConfig(max_epochs=25, patience=25, seed=0)
        )
        start = time.perf_counter()
        model = build(X, y, cfg)
        times[target_depth] = time.perf_counter() - start
        assert model.depth == target_depth, (n_min, model.depth)

    ratio2 = times[2] / times[1]
    ratio3 = times[3] / times[1]
    ok = ratio2 <= 2 * 1.25 and ratio3 <= 3 * 1.25
    report(
        "AC-11 complexity vs depth",
        ok,
        f"t(1)={times[1]:.2f}s, t(2)/t(1)={ratio2:.2f} (<=2.5), t(3)/t(1)={ratio3:.2f} (<=3.75)",
    )
    assert ratio2 <= 2 * 1.25
    assert ratio3 <= 3 * 1.25


ELECTRICAL_ENV = "USNRT_UCI_ELECTRICAL"


@pytest.mark.skipif(
    ELECTRICAL_ENV not in os.environ,
    reason=f"set {ELECTRICAL_ENV} to the prepared electrical-grid CSV (see README)",
)
def test_ac12_uci_electrical_spot_check():
    path = os.environ[ELECTRICAL_ENV]
    mapping = {name: "continuous" for name in (
        "tau1", "tau2", "tau3", "tau4",
        "p1", "p2", "p3", "p4",
        "g1", "g2", "g3", "g4",
    )}
    mapping["stab"] = "label"
    schema = Schema.from_mapping(mapping)
    dataset = load_csv(path, schema)
    assert dataset.n_rows == 10_000
    assert len(dataset.schema.feature_columns) == 12

    train, test = train_test_split(dataset, 0.2, seed=0)
    state = PreprocessState.fit(train)
    X_train = state.transform(train)
    y_train = state.transform_labels(train.labels)
    X_test = state.transform(test)
    y_test = state.transform_labels(test.labels)

    model = build(
        X_train, y_train,
        UsnrtConfig(seed=0, train_cfg=TrainConfig(seed=0)),
        preprocess=state,
    )
    mu, sigma = predict_arrays(model, X_test, denormalize=False)
    usnrt_preds = preds_of(mu, sigma)
    usnrt_ece = ece(*usnrt_preds, y_test)
    usnrt_tce = tce(*usnrt_preds, y_test)

    hnn = train_hnn(X_train, y_train, TrainConfig(seed=0), preprocess=state)
    mu_h, sigma_h = hnn.predict_arrays(X_test, denormalize=False)
    hnn_tce = tce(*preds_of(mu_h, sigma_h), y_test)

    ok = usnrt_ece <= 5.0 and usnrt_tce < hnn_tce
    report(
        "AC-12 electrical spot check",
        ok,
        f"usnrt ece {usnrt_ece:.2f} (<=5), tce {usnrt_tce:.2f} vs hnn {hnn_tce:.2f}",
    )
    assert usnrt_ece <= 5.0
    assert usnrt_tce < hnn_tce
