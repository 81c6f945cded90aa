"""Uncertainty-splitting neural regression tree.

Construction recursively partitions the feature space wherever a variance-
equality test on splitting-network residuals finds significant
heterogeneity; each resulting leaf region gets its own mean and sigma
networks. Inputs to build/predict_arrays are the encoded (post one-hot,
normalised) feature matrix; the attached preprocessing state maps
predictions back to original label units.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence, Union

import numpy as np

from . import metrics, model_io
from .data import PreprocessState
from .nn_core import (
    Activation,
    Mlp,
    TrainConfig,
    TrainingError,
    check_rows,
    coerce_fields,
    default_hidden,
    derived_seed,
    predict_sigma,
    train_mse,
    train_nll_fixed_mean,
    validation_split,
)
from .stats import DegenerateVarianceError, levene_statistic, levene_statistics_at_cuts, levene_test

__all__ = [
    "InternalNode",
    "LeafNode",
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
_SCREEN_RTOL = 1e-6  # relative error allowed in a screened |T|; the largest measured is 1.4e-7


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
        coerce_fields(self)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly in (0, 1)")
        if self.n_min is not None and self.n_min < 2:
            raise ValueError("n_min must be at least 2")
        if self.n_leaves < 1:
            raise ValueError("n_leaves must be at least 1")
        if self.split_stride is not None and self.split_stride < 1:
            raise ValueError("split_stride must be at least 1")
        for key in ("split_net_hidden", "leaf_net_hidden"):
            if any(size < 1 for size in getattr(self, key) or ()):
                raise ValueError(f"{key} sizes must be at least 1, got {getattr(self, key)}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


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


def _walk(node: TreeNode, path: tuple[int, ...] = ()):
    """(node, path) pairs of the subtree under node, in preorder."""
    yield node, path
    if isinstance(node, InternalNode):
        yield from _walk(node.left, path + (0,))
        yield from _walk(node.right, path + (1,))


@dataclass
class UsnrtModel:
    """A fitted tree: routing structure plus per-leaf networks."""

    model_kind = "usnrt"

    root: TreeNode
    config: UsnrtConfig
    preprocess: PreprocessState | None
    train_log: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def depth(self) -> int:
        return max(len(path) for node, path in _walk(self.root) if isinstance(node, LeafNode))

    @property
    def leaf_count(self) -> int:
        return len(self.leaves())

    def leaves(self) -> list[LeafNode]:
        return [node for node, _ in _walk(self.root) if isinstance(node, LeafNode)]

    def predict_arrays(self, X, denormalize: bool = True):
        return predict_arrays(self, X, denormalize)

    def to_payload(self) -> dict:
        """Config, then the preorder node list with base64 little-endian
        float64 weights."""
        return {
            "config": asdict(self.config),
            "nodes": [_encode_node(node) for node, _ in _walk(self.root)],
        }

    @classmethod
    def from_payload(cls, payload: dict, preprocess: PreprocessState | None) -> "UsnrtModel":
        """Decode a model file body, rejecting a tree whose split features,
        thresholds, region ids or leaf network sizes do not fit together."""
        nodes = payload["nodes"]
        if not isinstance(nodes, list) or not nodes:
            raise model_io.ModelFormatError("model file holds no nodes")
        cursor = [0]
        root = _decode_nodes(nodes, cursor)
        if cursor[0] != len(nodes):
            raise model_io.ModelFormatError("trailing nodes after the tree preorder")
        model = cls(root, _config_from_dict(payload["config"]), preprocess)
        width = _model_width(model)
        for node, path in _walk(root):
            if isinstance(node, LeafNode):
                continue
            where = f"split at {_path_str(path)}"
            if type(node.feature_index) is not int or not 0 <= node.feature_index < width:
                raise model_io.ModelFormatError(
                    f"{where}: feature_index {node.feature_index!r} is not an integer in [0, {width})"
                )
            if type(node.threshold) not in (int, float) or not math.isfinite(node.threshold):
                raise model_io.ModelFormatError(f"{where}: threshold {node.threshold!r} is not finite")
        leaves = model.leaves()
        if [leaf.region_id for leaf in leaves] != list(range(1, len(leaves) + 1)):
            raise model_io.ModelFormatError("leaf region ids are not 1..leaf_count in preorder")
        for leaf in leaves:
            model_io.check_networks(f"leaf {leaf.region_id}", width, leaf.mean_net, leaf.sigma_net)
        return model


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


def _node_seed(base: int, role: int, path: tuple[int, ...], stream: int) -> int:
    return derived_seed(base, role, stream, len(path), *path)


def _path_str(path: tuple[int, ...]) -> str:
    return "root" + "".join(".L" if step == 0 else ".R" for step in path)


def find_best_split(X, residuals, cfg: UsnrtConfig) -> SplitCandidate | None:
    """Scan every feature and threshold for the most significant variance split.

    Thresholds walk the sorted feature values with the configured stride;
    cuts inside runs of duplicate values and cuts leaving either side below
    n_min are skipped, as are candidates where the test degenerates. Every
    cut at a node has n - 2 degrees of freedom, so the most significant one
    is the cut with the largest |T|, the first in scan order (lowest feature
    index, then smallest threshold) on a tie. Its p-value, computed once, is
    returned with it; None if no candidate is feasible.

    All cuts of a feature are screened in one array pass
    (levene_statistics_at_cuts); cuts are then re-scored exactly, in falling
    screened order, until no later one can win.

    When called standalone (cfg.n_min is None), n_min resolves against the
    rows given here.
    """
    X, residuals = check_rows(X, residuals=residuals)
    n = X.shape[0]
    n_min = resolve_n_min(cfg, n)
    stride = cfg.split_stride or max(1, math.ceil(n / _MAX_CANDIDATES_PER_FEATURE))
    sizes = np.arange(1, n + 1, stride)
    sizes = sizes[(sizes >= n_min) & (sizes <= n - n_min)]

    best, best_key = None, (-1.0,)
    for k in range(X.shape[1]):
        order = np.argsort(X[:, k], kind="stable")
        values = X[order, k]
        ordered_residuals = residuals[order]
        cuts = sizes[values[sizes] != values[sizes - 1]]  # no cut between duplicate values
        # A NaN screen (pooled variance not positive) is re-scored first.
        screened = np.nan_to_num(levene_statistics_at_cuts(ordered_residuals, cuts), nan=np.inf)
        for c in np.argsort(-screened, kind="stable"):
            if screened[c] < (1.0 - _SCREEN_RTOL) * best_key[0]:
                break
            left, right = ordered_residuals[: cuts[c]], ordered_residuals[cuts[c] :]
            try:
                key = (abs(levene_statistic(left, right)), -k, -cuts[c])
            except DegenerateVarianceError:
                continue
            if key > best_key:
                best_key, best = key, (k, float(values[cuts[c] - 1]), left, right)
    if best is None:
        return None
    k, threshold, left, right = best
    return SplitCandidate(feature_index=k, threshold=threshold, p_value=levene_test(left, right).p_value)


def _node_net(X: np.ndarray, hidden: list[int], output: Activation, seed: int) -> Mlp:
    """A Tanh network from X's columns through hidden to one output."""
    return Mlp(
        [X.shape[1], *hidden, 1], hidden_activation=Activation.TANH, output_activation=output, seed=seed
    )


def _train_split_net(
    X: np.ndarray,
    y: np.ndarray,
    cfg: UsnrtConfig,
    hidden: list[int],
    path: tuple[int, ...],
):
    net = _node_net(X, hidden, Activation.LINEAR, _node_seed(cfg.seed, _ROLE_SPLIT, path, 0))
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
    mean_net = _node_net(X, hidden, Activation.LINEAR, _node_seed(cfg.seed, _ROLE_MEAN, path, 0))
    sigma_net = _node_net(X, hidden, Activation.SOFTPLUS, _node_seed(cfg.seed, _ROLE_SIGMA, path, 0))
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


def build(X, y, cfg: UsnrtConfig, preprocess: PreprocessState | None = None) -> UsnrtModel:
    """Grow and fit the tree in one recursion.

    A node with fewer than 2 * n_min samples becomes a leaf; otherwise a
    splitting network is fit by MSE, its residuals are scanned by
    find_best_split, and the node splits only when the best p-value is at
    most alpha. A node that does not split trains, on its own rows and
    right away, its mean network (MSE) and sigma network (fixed-mean
    Gaussian NLL; see _train_leaf_nets), and takes the next region id, so
    region ids number the leaves in preorder. Per-node seeds derive from
    (cfg.seed, node path), so builds are reproducible and order-independent.
    The build log lists every node's decision in preorder, then every leaf's
    training in preorder.
    """
    X, y = check_rows(X, None if preprocess is None else preprocess.encoded_width, y=y)
    if X.shape[0] < 2:
        raise ValueError("need at least 2 rows to build a model")

    n = X.shape[0]
    d_raw = preprocess.d_raw if preprocess is not None else X.shape[1]
    n_min = resolve_n_min(cfg, n)
    split_hidden = default_hidden(cfg.split_net_hidden, d_raw, 8)
    leaf_hidden = default_hidden(cfg.leaf_net_hidden, d_raw, 4)
    search_cfg = replace(cfg, n_min=n_min)
    decisions: list[dict] = []
    trainings: list[dict] = []

    def leaf(Xn: np.ndarray, yn: np.ndarray, path: tuple[int, ...], **decision) -> LeafNode:
        decisions.append({"path": _path_str(path), "kind": "leaf", "n": yn.size, **decision})
        mean_net, sigma_net, mean_log, sigma_log = _train_leaf_nets(Xn, yn, cfg, leaf_hidden, path)
        residual = yn - mean_net.forward(Xn)[:, 0]
        region_id = len(trainings) + 1
        trainings.append(
            {
                "path": _path_str(path),
                "kind": "leaf-trained",
                "region_id": region_id,
                "n": yn.size,
                "mean_epochs": len(mean_log.train_losses),
                "sigma_epochs": len(sigma_log.train_losses),
            }
        )
        return LeafNode(
            region_id=region_id,
            mean_net=mean_net,
            sigma_net=sigma_net,
            train_count=yn.size,
            residual_std=float(np.sqrt(np.mean(residual * residual))),
        )

    def grow(rows: np.ndarray, path: tuple[int, ...]) -> TreeNode:
        Xn, yn = X[rows], y[rows]
        if rows.size < 2 * n_min:
            return leaf(Xn, yn, path, reason="size")
        split_net, split_log = _train_split_net(Xn, yn, cfg, split_hidden, path)
        residuals = yn - split_net.forward(Xn)[:, 0]
        candidate = find_best_split(Xn, residuals, search_cfg)
        if candidate is None or candidate.p_value > cfg.alpha:
            return leaf(
                Xn,
                yn,
                path,
                reason="no split" if candidate is None else "p_best above alpha",
                p_best=None if candidate is None else candidate.p_value,
                split_epochs=len(split_log.train_losses),
            )
        decisions.append(
            {
                "path": _path_str(path),
                "kind": "internal",
                "n": yn.size,
                "p_best": candidate.p_value,
                "feature_index": candidate.feature_index,
                "threshold": candidate.threshold,
                "split_epochs": len(split_log.train_losses),
            }
        )
        mask = Xn[:, candidate.feature_index] <= candidate.threshold
        del Xn, yn  # each child gathers its own rows; do not hold a copy per level
        return InternalNode(
            feature_index=candidate.feature_index,
            threshold=candidate.threshold,
            p_value=candidate.p_value,
            left=grow(rows[mask], path + (0,)),
            right=grow(rows[~mask], path + (1,)),
        )

    root = grow(np.arange(n), ())
    log = {"n_train": n, "n_min": n_min, "d_raw": d_raw, "nodes": decisions + trainings}
    return UsnrtModel(root, cfg, preprocess, train_log=log)


def _model_width(model: UsnrtModel) -> int:
    if model.preprocess is not None:
        return model.preprocess.encoded_width
    return model.leaves()[0].mean_net.input_dim


def _route(node: TreeNode, X: np.ndarray, idx: np.ndarray) -> list[tuple[LeafNode, np.ndarray]]:
    """Each leaf under node, in preorder, with the ascending rows of idx it accepts."""
    if isinstance(node, LeafNode):
        return [(node, idx)]
    mask = X[idx, node.feature_index] <= node.threshold
    return _route(node.left, X, idx[mask]) + _route(node.right, X, idx[~mask])


def predict_arrays(model: UsnrtModel, X, denormalize: bool = True):
    """Routed (mu, sigma) arrays; original label units unless denormalize is
    off (then the model's training scale)."""
    (X,) = check_rows(X, _model_width(model))
    n = X.shape[0]
    mu = np.empty(n)
    sigma = np.empty(n)
    for leaf, idx in _route(model.root, X, np.arange(n)):
        if idx.size:
            mu[idx] = leaf.mean_net.forward(X[idx])[:, 0]
            sigma[idx] = predict_sigma(leaf.sigma_net, X[idx])
    if denormalize and model.preprocess is not None:
        mu = model.preprocess.denormalize_mean(mu)
        sigma = model.preprocess.denormalize_sigma(sigma)
    return mu, sigma


def leaf_assignments(model: UsnrtModel, X) -> np.ndarray:
    """Region id of the unique leaf accepting each row."""
    (X,) = check_rows(X, _model_width(model))
    regions = np.empty(X.shape[0], dtype=int)
    for leaf, idx in _route(model.root, X, np.arange(X.shape[0])):
        regions[idx] = leaf.region_id
    return regions


# leaf_report's statistics of (mu, sigma, y) on a leaf's rows: the residual
# RMS, the mean sigma, the std of z = (y - mu) / sigma, the share of rows
# inside the central 90% interval, and the TCE.
_LEAF_STATS = {
    "residual_std": lambda mu, sigma, y: float(np.sqrt(np.mean((y - mu) * (y - mu)))),
    "sigma_mean": lambda mu, sigma, y: float(np.mean(sigma)),
    "z_std": lambda mu, sigma, y: float(np.std((y - mu) / sigma)),
    "coverage_90": metrics.coverage,
    "tce": metrics.tce,
}


def leaf_report(model: UsnrtModel, X, y) -> dict[str, list]:
    """Per-leaf residual spread and calibration on labelled data, as columns
    {header: list}: one entry per leaf in preorder, its region_id and row
    count, then each _LEAF_STATS entry on its rows (None for an empty leaf).

    y is in original label units, as are the denormalised mu and sigma.
    """
    X, y = check_rows(X, _model_width(model), y=y)
    mu, sigma = predict_arrays(model, X)
    routes = _route(model.root, X, np.arange(X.shape[0]))
    report = {"region_id": [leaf.region_id for leaf, _ in routes], "count": [idx.size for _, idx in routes]}
    for key, stat in _LEAF_STATS.items():
        report[key] = [stat(mu[idx], sigma[idx], y[idx]) if idx.size else None for _, idx in routes]
    return report


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
    X, y = check_rows(X, _model_width(model), y=y)
    d_raw = model.preprocess.d_raw if model.preprocess is not None else X.shape[1]
    hidden = default_hidden(model.config.split_net_hidden, d_raw, 8)
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
    for node, path in _walk(model.root):
        if isinstance(node, LeafNode):
            leaves.append(
                {
                    "path": _path_str(path),
                    "region_id": node.region_id,
                    "train_count": node.train_count,
                    "residual_std": node.residual_std,
                }
            )
        else:
            splits.append(
                {
                    "path": _path_str(path),
                    "feature_index": node.feature_index,
                    "threshold": node.threshold,
                    "p_best": node.p_value,
                }
            )
    return {
        "depth": model.depth,
        "leaf_count": model.leaf_count,
        "splits": splits,
        "leaves": leaves,
    }


def _encode_node(node: TreeNode) -> dict:
    if isinstance(node, LeafNode):
        return {
            "kind": "leaf",
            "region_id": node.region_id,
            "train_count": node.train_count,
            "residual_std": node.residual_std,
            "mean_net": model_io.encode_mlp(node.mean_net),
            "sigma_net": model_io.encode_mlp(node.sigma_net),
        }
    return {
        "kind": "internal",
        "feature_index": node.feature_index,
        "threshold": node.threshold,
        "p_value": node.p_value,
    }


# Kept because perfbench/tracing.py TARGETS names it and tests/test_trace_targets.py needs it.
def save(model: UsnrtModel, path) -> None:
    """Write the model file: versioned header, then UsnrtModel.to_payload()."""
    model_io.save_model(model, path)


def _config_from_dict(block: dict) -> UsnrtConfig:
    """The UsnrtConfig of a model file's config block, which must hold exactly
    the UsnrtConfig fields, and its train_cfg exactly the TrainConfig ones."""
    expected = asdict(UsnrtConfig())
    if set(block) != set(expected) or set(block["train_cfg"]) != set(expected["train_cfg"]):
        raise model_io.ModelFormatError("config block keys are not the UsnrtConfig and TrainConfig fields")
    return UsnrtConfig(**{**block, "train_cfg": TrainConfig(**block["train_cfg"])})


def _decode_nodes(nodes: list[dict], cursor: list[int]) -> TreeNode:
    if cursor[0] >= len(nodes):
        raise model_io.ModelFormatError("node list is truncated")
    entry = nodes[cursor[0]]
    cursor[0] += 1
    kind = entry["kind"]
    if kind == "leaf":
        return LeafNode(
            region_id=int(entry["region_id"]),
            mean_net=model_io.decode_mlp(entry["mean_net"]),
            sigma_net=model_io.decode_mlp(entry["sigma_net"]),
            train_count=int(entry["train_count"]),
            residual_std=float(entry["residual_std"]),
        )
    if kind == "internal":
        # feature_index and threshold are checked once the width is known.
        return InternalNode(
            feature_index=entry["feature_index"],
            threshold=entry["threshold"],
            p_value=float(entry["p_value"]),
            left=_decode_nodes(nodes, cursor),
            right=_decode_nodes(nodes, cursor),
        )
    raise model_io.ModelFormatError(f"unknown node kind {kind!r}")
