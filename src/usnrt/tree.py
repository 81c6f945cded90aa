"""Uncertainty-splitting neural regression tree.

Construction recursively partitions the feature space wherever a variance-
equality test on splitting-network residuals finds significant
heterogeneity; each resulting leaf region gets its own mean and sigma
networks. Inputs to build/predict are the encoded (post one-hot,
normalised) feature matrix; the attached preprocessing state maps
predictions back to original label units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence, Union

import numpy as np

from . import model_io
from .data import PreprocessState
from .metrics import GaussianPrediction
from .nn_core import (
    Activation,
    Mlp,
    TrainConfig,
    TrainingError,
    predict_sigma,
    train_mse,
    train_nll_fixed_mean,
    validation_split,
)
from .stats import DegenerateVarianceError, levene_test

__all__ = [
    "InternalNode",
    "LeafNode",
    "LeafReportRow",
    "RootSplitScatter",
    "SplitCandidate",
    "TreeBuildError",
    "TreeNode",
    "UsnrtConfig",
    "UsnrtModel",
    "build",
    "describe",
    "find_best_split",
    "leaf_assignments",
    "leaf_report",
    "load",
    "predict",
    "predict_arrays",
    "resolve_n_min",
    "root_split_scatter",
    "save",
]

# Role tags for per-node seed derivation.
_ROLE_SPLIT = 0
_ROLE_MEAN = 1
_ROLE_SIGMA = 2

_MAX_CANDIDATES_PER_FEATURE = 256


class TreeBuildError(TrainingError):
    """Training failed somewhere in the tree; message carries the node path."""


@dataclass
class UsnrtConfig:
    """Tree construction settings.

    n_min is the minimum training count allowed in a leaf; None resolves to
    max(n_train // n_leaves, 1000) at build time. split_stride of None picks,
    per node, the smallest stride giving at most 256 candidate thresholds per
    feature. Hidden sizes of None resolve to [8d, 4d] for splitting networks
    and [4d, 2d] for leaf networks, with d the pre-encoding feature count.
    """

    alpha: float = 0.01
    n_min: int | None = None
    n_leaves: int = 10
    split_stride: int | None = None
    split_net_hidden: Sequence[int] | None = None
    leaf_net_hidden: Sequence[int] | None = None
    train_cfg: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly in (0, 1)")
        if self.n_min is not None and self.n_min < 2:
            raise ValueError("n_min must be at least 2")
        if self.n_leaves < 1:
            raise ValueError("n_leaves must be at least 1")
        if self.split_stride is not None and self.split_stride < 1:
            raise ValueError("split_stride must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "n_min": self.n_min,
            "n_leaves": self.n_leaves,
            "split_stride": self.split_stride,
            "split_net_hidden": None
            if self.split_net_hidden is None
            else list(self.split_net_hidden),
            "leaf_net_hidden": None
            if self.leaf_net_hidden is None
            else list(self.leaf_net_hidden),
            "train_cfg": {
                "batch_size": self.train_cfg.batch_size,
                "learning_rate": self.train_cfg.learning_rate,
                "max_epochs": self.train_cfg.max_epochs,
                "validation_fraction": self.train_cfg.validation_fraction,
                "patience": self.train_cfg.patience,
                "seed": self.train_cfg.seed,
            },
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "UsnrtConfig":
        return cls(
            alpha=float(payload["alpha"]),
            n_min=None if payload["n_min"] is None else int(payload["n_min"]),
            n_leaves=int(payload["n_leaves"]),
            split_stride=None
            if payload["split_stride"] is None
            else int(payload["split_stride"]),
            split_net_hidden=payload["split_net_hidden"],
            leaf_net_hidden=payload["leaf_net_hidden"],
            train_cfg=TrainConfig(**payload["train_cfg"]),
            seed=int(payload["seed"]),
        )


@dataclass(frozen=True)
class SplitCandidate:
    feature_index: int
    threshold: float
    p_value: float


@dataclass
class LeafNode:
    region_id: int
    mean_net: Mlp
    sigma_net: Mlp
    train_count: int
    residual_std: float


@dataclass
class InternalNode:
    feature_index: int
    threshold: float
    p_value: float
    left: "TreeNode"
    right: "TreeNode"


TreeNode = Union[InternalNode, LeafNode]


@dataclass
class UsnrtModel:
    """A fitted tree: routing structure plus per-leaf networks."""

    root: TreeNode
    config: UsnrtConfig
    preprocess: PreprocessState | None
    depth: int
    leaf_count: int
    build_log: dict = field(default_factory=dict, repr=False, compare=False)

    def leaves(self) -> list[LeafNode]:
        out: list[LeafNode] = []

        def walk(node: TreeNode) -> None:
            if isinstance(node, LeafNode):
                out.append(node)
            else:
                walk(node.left)
                walk(node.right)

        walk(self.root)
        return out


@dataclass(frozen=True)
class LeafReportRow:
    region_id: int
    count: int
    residual_std: float | None


@dataclass
class RootSplitScatter:
    """Per-sample export behind the root-split visualisation."""

    split_feature_index: int
    companion_feature_index: int
    threshold: float
    split_values: np.ndarray
    companion_values: np.ndarray
    squared_residuals: np.ndarray
    residual_quantiles: np.ndarray


def resolve_n_min(cfg: UsnrtConfig, n_train: int) -> int:
    if cfg.n_min is not None:
        return cfg.n_min
    return max(n_train // cfg.n_leaves, 1000)


def _stride_for(cfg: UsnrtConfig, n: int) -> int:
    if cfg.split_stride is not None:
        return cfg.split_stride
    return max(1, math.ceil(n / _MAX_CANDIDATES_PER_FEATURE))


def _node_seed(base: int, role: int, path: tuple[int, ...], stream: int) -> int:
    seq = np.random.SeedSequence([base, role, stream, len(path), *path])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _path_str(path: tuple[int, ...]) -> str:
    return "root" + "".join(".L" if step == 0 else ".R" for step in path)


def find_best_split(X, residuals, cfg: UsnrtConfig) -> SplitCandidate | None:
    """Scan every feature and threshold for the most significant variance split.

    Thresholds walk the sorted feature values with the configured stride;
    cuts inside runs of duplicate values and cuts leaving either side below
    n_min are skipped, as are candidates where the test degenerates. Returns
    the candidate with the smallest p-value, or None if no candidate is
    feasible.

    All candidates at a node share degrees of freedom n - 2, so the p-value
    is strictly monotone in |T|; exact p ties (in particular the two-sided
    tail underflowing to 0) are therefore broken toward larger |T|, then the
    smallest feature index, then the smallest threshold.

    When called standalone (cfg.n_min is None), n_min resolves against the
    rows given here.
    """
    X = np.asarray(X, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-d sample matrix")
    if residuals.shape != (X.shape[0],):
        raise ValueError("residuals must be a vector matching the rows of X")
    n = X.shape[0]
    n_min = resolve_n_min(cfg, n)
    stride = _stride_for(cfg, n)

    best: SplitCandidate | None = None
    best_key: tuple[float, float] | None = None
    for k in range(X.shape[1]):
        order = np.argsort(X[:, k], kind="stable")
        values = X[order, k]
        ordered_residuals = residuals[order]
        for i in range(0, n, stride):
            if i + 1 < n and values[i + 1] == values[i]:
                continue  # no valid cut between duplicate values
            left_n = i + 1
            right_n = n - left_n
            if left_n < n_min or right_n < n_min:
                continue
            try:
                result = levene_test(
                    ordered_residuals[:left_n], ordered_residuals[left_n:]
                )
            except DegenerateVarianceError:
                continue
            key = (result.p_value, -abs(result.statistic))
            if best_key is None or key < best_key:
                best_key = key
                best = SplitCandidate(
                    feature_index=k,
                    threshold=float(values[i]),
                    p_value=result.p_value,
                )
    return best


def _train_split_net(
    X: np.ndarray,
    y: np.ndarray,
    cfg: UsnrtConfig,
    hidden: list[int],
    path: tuple[int, ...],
):
    net = Mlp(
        [X.shape[1], *hidden, 1],
        hidden_activation=Activation.TANH,
        output_activation=Activation.LINEAR,
        seed=_node_seed(cfg.seed, _ROLE_SPLIT, path, 0),
    )
    train_cfg = replace(cfg.train_cfg, seed=_node_seed(cfg.seed, _ROLE_SPLIT, path, 1))
    try:
        _, log = train_mse(net, X, y, train_cfg)
    except (TrainingError, ValueError) as exc:
        raise TreeBuildError(f"splitting network at {_path_str(path)}: {exc}") from exc
    return net, log


def _sigma_targets(mean_net: Mlp, X: np.ndarray, y: np.ndarray, train_cfg: TrainConfig):
    """Labels whose residuals against mean_net are the sigma network's targets.

    Rows that train_cfg's validation split holds out keep their labels; on
    the other rows the residual is scaled by sqrt(held-out MSE / in-sample
    MSE)."""
    val_idx, train_idx = validation_split(X.shape[0], train_cfg)
    mu = mean_net.forward(X)[:, 0]
    residual = y - mu
    scale = np.sqrt(np.mean(residual[val_idx] ** 2) / np.mean(residual[train_idx] ** 2))
    targets = y.copy()
    targets[train_idx] = mu[train_idx] + scale * residual[train_idx]
    return targets


def _train_leaf_nets(
    X: np.ndarray,
    y: np.ndarray,
    cfg: UsnrtConfig,
    hidden: list[int],
    path: tuple[int, ...],
):
    mean_net = Mlp(
        [X.shape[1], *hidden, 1],
        hidden_activation=Activation.TANH,
        output_activation=Activation.LINEAR,
        seed=_node_seed(cfg.seed, _ROLE_MEAN, path, 0),
    )
    sigma_net = Mlp(
        [X.shape[1], *hidden, 1],
        hidden_activation=Activation.TANH,
        output_activation=Activation.SOFTPLUS,
        seed=_node_seed(cfg.seed, _ROLE_SIGMA, path, 0),
    )
    # Both leaf trainings share one derived seed, so the sigma network's
    # validation subset is the mean network's held-out rows, and its target
    # there is the plain residual. On the mean network's training rows the
    # residuals are optimistically small, so the target is the residual
    # scaled up to the held-out RMS.
    train_cfg = replace(cfg.train_cfg, seed=_node_seed(cfg.seed, _ROLE_MEAN, path, 1))
    try:
        _, mean_log = train_mse(mean_net, X, y, train_cfg)
        sigma_y = _sigma_targets(mean_net, X, y, train_cfg)
        _, sigma_log = train_nll_fixed_mean(sigma_net, mean_net, X, sigma_y, train_cfg)
    except (TrainingError, ValueError) as exc:
        raise TreeBuildError(f"leaf networks at {_path_str(path)}: {exc}") from exc
    return mean_net, sigma_net, mean_log, sigma_log


@dataclass
class _LeafSite:
    path: tuple[int, ...]
    indices: np.ndarray


def build(X, y, cfg: UsnrtConfig, preprocess: PreprocessState | None = None) -> UsnrtModel:
    """Grow and fit the tree.

    Structure first: a node with fewer than 2 * n_min samples becomes a leaf;
    otherwise a splitting network is fit by MSE, its residuals are scanned by
    find_best_split, and the node splits only when the best p-value is at
    most alpha. Once the partition is fixed, each leaf trains its mean
    network (MSE) then its sigma network (fixed-mean Gaussian NLL) on
    leaf-local rows. The sigma network fits the mean network's residuals,
    those of the mean network's training rows scaled up to its held-out
    residual RMS (in-sample residuals understate out-of-sample error); the
    held-out rows, on which both networks stop early, keep their plain
    residuals. Per-node seeds derive from (cfg.seed, node path), so builds
    are reproducible and order-independent.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise ValueError("X must be 2-d with a matching label vector")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 rows to build a model")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise ValueError("training data must be finite")
    if preprocess is not None and preprocess.encoded_width != X.shape[1]:
        raise ValueError("X width does not match the preprocessing state")

    n = X.shape[0]
    d_raw = preprocess.d_raw if preprocess is not None else X.shape[1]
    n_min = resolve_n_min(cfg, n)
    split_hidden = (
        list(cfg.split_net_hidden) if cfg.split_net_hidden is not None else [8 * d_raw, 4 * d_raw]
    )
    leaf_hidden = (
        list(cfg.leaf_net_hidden) if cfg.leaf_net_hidden is not None else [4 * d_raw, 2 * d_raw]
    )
    search_cfg = replace(cfg, n_min=n_min)
    node_log: list[dict] = []

    def grow(indices: np.ndarray, path: tuple[int, ...]):
        if indices.size < 2 * n_min:
            node_log.append(
                {"path": _path_str(path), "kind": "leaf", "n": int(indices.size), "reason": "size"}
            )
            return _LeafSite(path=path, indices=indices)
        split_net, split_log = _train_split_net(X[indices], y[indices], cfg, split_hidden, path)
        residuals = y[indices] - split_net.forward(X[indices])[:, 0]
        candidate = find_best_split(X[indices], residuals, search_cfg)
        if candidate is None or candidate.p_value > cfg.alpha:
            node_log.append(
                {
                    "path": _path_str(path),
                    "kind": "leaf",
                    "n": int(indices.size),
                    "reason": "no split" if candidate is None else "p_best above alpha",
                    "p_best": None if candidate is None else candidate.p_value,
                    "split_epochs": len(split_log.train_losses),
                }
            )
            return _LeafSite(path=path, indices=indices)
        node_log.append(
            {
                "path": _path_str(path),
                "kind": "internal",
                "n": int(indices.size),
                "p_best": candidate.p_value,
                "feature_index": candidate.feature_index,
                "threshold": candidate.threshold,
                "split_epochs": len(split_log.train_losses),
            }
        )
        mask = X[indices, candidate.feature_index] <= candidate.threshold
        left = grow(indices[mask], path + (0,))
        right = grow(indices[~mask], path + (1,))
        return InternalNode(
            feature_index=candidate.feature_index,
            threshold=candidate.threshold,
            p_value=candidate.p_value,
            left=left,
            right=right,
        )

    skeleton = grow(np.arange(n), ())

    # Leaves are independent once the structure is fixed; train them in
    # left-to-right order and assign contiguous region ids.
    region_counter = 0
    depth = 0

    def realise(node):
        nonlocal region_counter, depth
        if isinstance(node, _LeafSite):
            region_counter += 1
            depth = max(depth, len(node.path))
            rows = node.indices
            mean_net, sigma_net, mean_log, sigma_log = _train_leaf_nets(
                X[rows], y[rows], cfg, leaf_hidden, node.path
            )
            residual = y[rows] - mean_net.forward(X[rows])[:, 0]
            node_log.append(
                {
                    "path": _path_str(node.path),
                    "kind": "leaf-trained",
                    "region_id": region_counter,
                    "n": int(rows.size),
                    "mean_epochs": len(mean_log.train_losses),
                    "sigma_epochs": len(sigma_log.train_losses),
                }
            )
            return LeafNode(
                region_id=region_counter,
                mean_net=mean_net,
                sigma_net=sigma_net,
                train_count=int(rows.size),
                residual_std=float(np.sqrt(np.mean(residual * residual))),
            )
        node.left = realise(node.left)
        node.right = realise(node.right)
        return node

    root = realise(skeleton)
    return UsnrtModel(
        root=root,
        config=cfg,
        preprocess=preprocess,
        depth=depth,
        leaf_count=region_counter,
        build_log={"n_train": n, "n_min": n_min, "d_raw": d_raw, "nodes": node_log},
    )


def _model_width(model: UsnrtModel) -> int:
    if model.preprocess is not None:
        return model.preprocess.encoded_width
    node = model.root
    while isinstance(node, InternalNode):
        node = node.left
    return node.mean_net.input_dim


def _check_features(model: UsnrtModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-d sample matrix")
    width = _model_width(model)
    if X.shape[1] != width:
        raise ValueError(f"X has width {X.shape[1]}, model expects {width}")
    if not np.all(np.isfinite(X)):
        raise ValueError("features must be finite")
    return X


def _route(node: TreeNode, X: np.ndarray, idx: np.ndarray, mu, sigma, regions) -> None:
    if isinstance(node, LeafNode):
        if idx.size:
            mu[idx] = node.mean_net.forward(X[idx])[:, 0]
            sigma[idx] = predict_sigma(node.sigma_net, X[idx])
            regions[idx] = node.region_id
        return
    mask = X[idx, node.feature_index] <= node.threshold
    _route(node.left, X, idx[mask], mu, sigma, regions)
    _route(node.right, X, idx[~mask], mu, sigma, regions)


def predict_arrays(model: UsnrtModel, X, denormalize: bool = True):
    """Routed (mu, sigma) arrays; original label units unless denormalize is
    off (then the model's training scale)."""
    X = _check_features(model, X)
    n = X.shape[0]
    mu = np.empty(n)
    sigma = np.empty(n)
    regions = np.empty(n, dtype=int)
    _route(model.root, X, np.arange(n), mu, sigma, regions)
    if denormalize and model.preprocess is not None:
        mu = model.preprocess.denormalize_mean(mu)
        sigma = model.preprocess.denormalize_sigma(sigma)
    return mu, sigma


def predict(model: UsnrtModel, X) -> list[GaussianPrediction]:
    """Route each sample to its unique leaf and report (mean, std) in
    original label units."""
    mu, sigma = predict_arrays(model, X)
    return [GaussianPrediction(float(m), float(s)) for m, s in zip(mu, sigma)]


def leaf_assignments(model: UsnrtModel, X) -> np.ndarray:
    """Region id of the unique leaf accepting each row."""
    X = _check_features(model, X)
    n = X.shape[0]
    mu = np.empty(n)
    sigma = np.empty(n)
    regions = np.empty(n, dtype=int)
    _route(model.root, X, np.arange(n), mu, sigma, regions)
    return regions


def leaf_report(model: UsnrtModel, X, y) -> list[LeafReportRow]:
    """Residual standard deviation per leaf region on labelled data.

    y is in original label units; residuals are taken against the model's
    (denormalised) mean predictions. Empty regions report count 0 with the
    std absent.
    """
    y = np.asarray(y, dtype=float)
    regions = leaf_assignments(model, X)
    mu, _ = predict_arrays(model, X)
    if y.shape != mu.shape:
        raise ValueError("y must be a vector matching the rows of X")
    rows: list[LeafReportRow] = []
    for leaf in model.leaves():
        sel = regions == leaf.region_id
        count = int(sel.sum())
        if count:
            residual = y[sel] - mu[sel]
            std = float(np.sqrt(np.mean(residual * residual)))
        else:
            std = None
        rows.append(LeafReportRow(region_id=leaf.region_id, count=count, residual_std=std))
    return rows


def root_split_scatter(model: UsnrtModel, X, y) -> RootSplitScatter | None:
    """Recompute the root splitting network on the given rows and export the
    per-sample squared residuals around the root partition.

    X and y must be on the model's training scale (encoded features,
    normalised labels); with the rows the model was built from, the
    recomputed network matches the build bit for bit. Returns None for a
    single-leaf model.
    """
    if isinstance(model.root, LeafNode):
        return None
    X = _check_features(model, X)
    y = np.asarray(y, dtype=float)
    if y.shape != (X.shape[0],):
        raise ValueError("y must be a vector matching the rows of X")
    d_raw = model.build_log.get("d_raw") or (
        model.preprocess.d_raw if model.preprocess is not None else X.shape[1]
    )
    hidden = (
        list(model.config.split_net_hidden)
        if model.config.split_net_hidden is not None
        else [8 * d_raw, 4 * d_raw]
    )
    net, _ = _train_split_net(X, y, model.config, hidden, ())
    residuals = y - net.forward(X)[:, 0]
    squared = residuals * residuals

    k = model.root.feature_index
    companion = None
    for child in (model.root.left, model.root.right):
        if isinstance(child, InternalNode) and child.feature_index != k:
            companion = child.feature_index
            break
    if companion is None:
        companion = 0 if k != 0 else min(1, X.shape[1] - 1)

    ranks = np.argsort(np.argsort(squared, kind="stable"), kind="stable")
    quantiles = (ranks + 0.5) / squared.size
    return RootSplitScatter(
        split_feature_index=k,
        companion_feature_index=companion,
        threshold=model.root.threshold,
        split_values=X[:, k].copy(),
        companion_values=X[:, companion].copy(),
        squared_residuals=squared,
        residual_quantiles=quantiles,
    )


def describe(model: UsnrtModel) -> dict:
    """Structural summary: depth, leaf count, split variables, per-node
    p-values, and per-leaf training stats."""
    splits: list[dict] = []
    leaves: list[dict] = []

    def walk(node: TreeNode, path: tuple[int, ...]) -> None:
        if isinstance(node, LeafNode):
            leaves.append(
                {
                    "path": _path_str(path),
                    "region_id": node.region_id,
                    "train_count": node.train_count,
                    "residual_std": node.residual_std,
                }
            )
            return
        splits.append(
            {
                "path": _path_str(path),
                "feature_index": node.feature_index,
                "threshold": node.threshold,
                "p_best": node.p_value,
            }
        )
        walk(node.left, path + (0,))
        walk(node.right, path + (1,))

    walk(model.root, ())
    return {
        "depth": model.depth,
        "leaf_count": model.leaf_count,
        "splits": splits,
        "leaves": leaves,
    }


def _encode_node(node: TreeNode, out: list[dict]) -> None:
    if isinstance(node, LeafNode):
        out.append(
            {
                "kind": "leaf",
                "region_id": node.region_id,
                "train_count": node.train_count,
                "residual_std": node.residual_std,
                "mean_net": model_io.encode_mlp(node.mean_net),
                "sigma_net": model_io.encode_mlp(node.sigma_net),
            }
        )
        return
    out.append(
        {
            "kind": "internal",
            "feature_index": node.feature_index,
            "threshold": node.threshold,
            "p_value": node.p_value,
        }
    )
    _encode_node(node.left, out)
    _encode_node(node.right, out)


def save(model: UsnrtModel, path) -> None:
    """Write the model file: versioned header, config, preprocessing state,
    then the preorder node list with base64 little-endian float64 weights."""
    nodes: list[dict] = []
    _encode_node(model.root, nodes)
    payload = {
        "format_version": model_io.FORMAT_VERSION,
        "model_kind": "usnrt",
        "config": model.config.to_dict(),
        "preprocess": None if model.preprocess is None else model.preprocess.to_dict(),
        "nodes": nodes,
    }
    model_io.write_payload(path, payload)


def _decode_nodes(nodes: list[dict], cursor: list[int]) -> TreeNode:
    if cursor[0] >= len(nodes):
        raise model_io.ModelFormatError("node list is truncated")
    entry = nodes[cursor[0]]
    cursor[0] += 1
    kind = entry.get("kind")
    if kind == "leaf":
        try:
            return LeafNode(
                region_id=int(entry["region_id"]),
                mean_net=model_io.decode_mlp(entry["mean_net"]),
                sigma_net=model_io.decode_mlp(entry["sigma_net"]),
                train_count=int(entry["train_count"]),
                residual_std=float(entry["residual_std"]),
            )
        except KeyError as exc:
            raise model_io.ModelFormatError(f"leaf node missing field {exc}") from exc
    if kind == "internal":
        try:
            feature = int(entry["feature_index"])
            threshold = float(entry["threshold"])
            p_value = float(entry["p_value"])
        except KeyError as exc:
            raise model_io.ModelFormatError(f"internal node missing field {exc}") from exc
        left = _decode_nodes(nodes, cursor)
        right = _decode_nodes(nodes, cursor)
        return InternalNode(
            feature_index=feature,
            threshold=threshold,
            p_value=p_value,
            left=left,
            right=right,
        )
    raise model_io.ModelFormatError(f"unknown node kind {kind!r}")


def _model_from_payload(payload: dict) -> UsnrtModel:
    nodes = payload.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        raise model_io.ModelFormatError("model file holds no nodes")
    cursor = [0]
    root = _decode_nodes(nodes, cursor)
    if cursor[0] != len(nodes):
        raise model_io.ModelFormatError("trailing nodes after the tree preorder")
    depth = 0
    leaf_count = 0

    def walk(node: TreeNode, level: int) -> None:
        nonlocal depth, leaf_count
        if isinstance(node, LeafNode):
            depth = max(depth, level)
            leaf_count += 1
        else:
            walk(node.left, level + 1)
            walk(node.right, level + 1)

    walk(root, 0)
    preprocess = payload.get("preprocess")
    return UsnrtModel(
        root=root,
        config=UsnrtConfig.from_dict(payload["config"]),
        preprocess=None if preprocess is None else PreprocessState.from_dict(preprocess),
        depth=depth,
        leaf_count=leaf_count,
    )


def load(path) -> UsnrtModel:
    """Read a model file written by save; predictions round-trip bit-exactly."""
    payload = model_io.read_payload(path, expect_kind="usnrt")
    return _model_from_payload(payload)
