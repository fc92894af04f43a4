"""CART decision trees (classification and regression).

The classifier is the backbone of the whole platform: it is a capable
standalone model, the weak learner inside the forest and the booster,
the *student* family for XAI model extraction
(:mod:`repro.xai.distill`), and the only model family the switch
compiler (:mod:`repro.deploy.compiler`) can lower to match-action
tables.  The tree is therefore exposed structurally: every node
carries its feature, threshold, children, and class distribution, and
the classifier offers :meth:`decision_path` for evidence lists.

Splits are axis-aligned ``x[f] <= t``; thresholds are midpoints of
consecutive distinct sorted values; impurity is Gini (classifier) or
variance (regressor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.learning.models.base import Classifier, NotFittedError


@dataclass
class TreeNode:
    """One node; leaves have ``feature is None``."""

    node_id: int
    n_samples: int
    value: np.ndarray              # class counts (clf) or [mean] (reg)
    depth: int
    feature: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    impurity: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def leaf_count(self) -> int:
        if self.is_leaf:
            return 1
        return self.left.leaf_count() + self.right.leaf_count()

    def node_count(self) -> int:
        if self.is_leaf:
            return 1
        return 1 + self.left.node_count() + self.right.node_count()

    def max_depth(self) -> int:
        if self.is_leaf:
            return self.depth
        return max(self.left.max_depth(), self.right.max_depth())


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


def _leaf_index(root: TreeNode, X: np.ndarray) \
        -> Tuple[List[TreeNode], np.ndarray]:
    """The leaves of the tree under ``root``, and for each row of ``X``
    the position in that list of the leaf the row lands in.

    The tree is flattened into (feature, threshold, left, right) arrays
    on every call, so there is no cache to invalidate, then all rows
    descend one level at a time with the same ``x[f] <= t`` test as
    ``decision_path``: NaN goes right, a value equal to the threshold
    goes left.
    """
    nodes = [root]
    for node in nodes:                     # breadth-first; nodes grows
        if node.feature is not None:
            nodes += (node.left, node.right)
    n = len(nodes)
    split = np.fromiter((node.feature is not None for node in nodes),
                        dtype=bool, count=n)
    feature = np.fromiter((node.feature if node.feature is not None
                           else 0 for node in nodes), dtype=np.intp,
                          count=n)
    threshold = np.fromiter((node.threshold if node.feature is not None
                             else 0.0 for node in nodes), dtype=float,
                            count=n)
    # the k-th split node's children were appended at 2k+1 and 2k+2;
    # a leaf is its own child, so finished rows stay put
    left = np.where(split, 2 * np.cumsum(split) - 1, np.arange(n))
    right = np.where(split, left + 1, left)
    leaf_pos = np.cumsum(~split) - 1
    at = np.zeros(len(X), dtype=np.intp)
    active = np.arange(len(X)) if split[0] else np.empty(0, dtype=np.intp)
    while len(active):
        here = at[active]
        go_left = X[active, feature[here]] <= threshold[here]
        there = np.where(go_left, left[here], right[here])
        at[active] = there
        active = active[split[there]]
    return [node for node in nodes if node.feature is None], leaf_pos[at]


class _TreeBuilder:
    """Shared recursive CART builder."""

    def __init__(self, criterion: str, max_depth: Optional[int],
                 min_samples_split: int, min_samples_leaf: int,
                 max_features: Optional[int],
                 rng: Optional[np.random.Generator]):
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng
        self._next_id = 0

    def _new_id(self) -> int:
        node_id = self._next_id
        self._next_id += 1
        return node_id

    def build(self, X: np.ndarray, y: np.ndarray,
              sample_weight: Optional[np.ndarray],
              n_classes: int) -> TreeNode:
        weight = (np.ones(len(y)) if sample_weight is None
                  else np.asarray(sample_weight, dtype=float))
        return self._build_node(X, y, weight, n_classes, depth=0)

    # -- node construction -------------------------------------------------

    def _node_value(self, y, weight, n_classes) -> np.ndarray:
        if self.criterion == "gini":
            counts = np.zeros(n_classes)
            np.add.at(counts, y.astype(int), weight)
            return counts
        total = weight.sum()
        mean = float(np.average(y, weights=weight)) if total > 0 else 0.0
        return np.asarray([mean])

    def _impurity(self, y, weight, value) -> float:
        if self.criterion == "gini":
            return _gini(value)
        if weight.sum() == 0:
            return 0.0
        mean = value[0]
        return float(np.average((y - mean) ** 2, weights=weight))

    def _build_node(self, X, y, weight, n_classes, depth) -> TreeNode:
        value = self._node_value(y, weight, n_classes)
        node = TreeNode(
            node_id=self._new_id(),
            n_samples=len(y),
            value=value,
            depth=depth,
            impurity=self._impurity(y, weight, value),
        )
        if (
            len(y) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or node.impurity <= 1e-12
        ):
            return node
        split = self._best_split(X, y, weight, n_classes)
        if split is None:
            return node
        feature, threshold = split
        mask = X[:, feature] <= threshold
        node.feature = int(feature)
        node.threshold = float(threshold)
        node.left = self._build_node(X[mask], y[mask], weight[mask],
                                     n_classes, depth + 1)
        node.right = self._build_node(X[~mask], y[~mask], weight[~mask],
                                      n_classes, depth + 1)
        return node

    # -- split search -------------------------------------------------------

    def _candidate_features(self, n_features: int) -> np.ndarray:
        if self.max_features is None or self.max_features >= n_features:
            return np.arange(n_features)
        assert self.rng is not None, "max_features requires an rng"
        return self.rng.choice(n_features, size=self.max_features,
                               replace=False)

    def _best_split(self, X, y, weight, n_classes) -> Optional[Tuple[int,
                                                                     float]]:
        best_gain = 1e-12
        best: Optional[Tuple[int, float]] = None
        for feature in self._candidate_features(X.shape[1]):
            result = self._best_split_on_feature(
                X[:, feature], y, weight, n_classes)
            if result is not None and result[1] > best_gain:
                best = (int(feature), result[0])
                best_gain = result[1]
        return best

    def _best_split_on_feature(self, column, y, weight, n_classes):
        order = np.argsort(column, kind="mergesort")
        xs = column[order]
        ys = y[order]
        ws = weight[order]
        # Positions where the value changes are the only valid cuts.
        distinct = np.flatnonzero(np.diff(xs) > 0) + 1
        if len(distinct) == 0:
            return None
        total_w = ws.sum()
        if self.criterion == "gini":
            onehot = np.zeros((len(ys), n_classes))
            onehot[np.arange(len(ys)), ys.astype(int)] = 1.0
            onehot *= ws[:, None]
            cum = np.cumsum(onehot, axis=0)
            total = cum[-1]
            left = cum[distinct - 1]
            right = total - left
            left_w = left.sum(axis=1)
            right_w = right.sum(axis=1)
            valid = (left_w >= self.min_samples_leaf) & \
                    (right_w >= self.min_samples_leaf)
            if not np.any(valid):
                return None
            with np.errstate(divide="ignore", invalid="ignore"):
                gini_left = 1.0 - np.sum(
                    (left / np.maximum(left_w[:, None], 1e-12)) ** 2, axis=1)
                gini_right = 1.0 - np.sum(
                    (right / np.maximum(right_w[:, None], 1e-12)) ** 2, axis=1)
            parent = _gini(total)
            gain = parent - (left_w * gini_left + right_w * gini_right) / total_w
        else:
            yw = ys * ws
            cum_w = np.cumsum(ws)
            cum_yw = np.cumsum(yw)
            cum_y2w = np.cumsum(ys * yw)
            left_w = cum_w[distinct - 1]
            right_w = total_w - left_w
            valid = (left_w >= self.min_samples_leaf) & \
                    (right_w >= self.min_samples_leaf)
            if not np.any(valid):
                return None
            left_sum = cum_yw[distinct - 1]
            right_sum = cum_yw[-1] - left_sum
            left_sq = cum_y2w[distinct - 1]
            right_sq = cum_y2w[-1] - left_sq
            var_left = left_sq - left_sum ** 2 / np.maximum(left_w, 1e-12)
            var_right = right_sq - right_sum ** 2 / np.maximum(right_w, 1e-12)
            parent_var = cum_y2w[-1] - cum_yw[-1] ** 2 / total_w
            gain = (parent_var - var_left - var_right) / total_w

        gain = np.where(valid, gain, -np.inf)
        best_index = int(np.argmax(gain))
        if not np.isfinite(gain[best_index]) or gain[best_index] <= 1e-12:
            return None
        cut = distinct[best_index]
        threshold = (xs[cut - 1] + xs[cut]) / 2.0
        return float(threshold), float(gain[best_index])


class DecisionTreeClassifier(Classifier):
    """CART classifier with structural introspection.

    Parameters mirror the scikit-learn names where they overlap.
    """

    def __init__(self, max_depth: Optional[int] = None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features: Optional[int] = None,
                 random_state: Optional[int] = None):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.root_: Optional[TreeNode] = None
        self.n_features_: Optional[int] = None

    def fit(self, X, y, sample_weight=None, n_classes: Optional[int] = None):
        X, y = self._check_Xy(X, y)
        self.n_classes_ = n_classes or int(y.max()) + 1
        self.n_features_ = X.shape[1]
        rng = (np.random.default_rng(self.random_state)
               if self.max_features is not None else None)
        builder = _TreeBuilder("gini", self.max_depth,
                               self.min_samples_split, self.min_samples_leaf,
                               self.max_features, rng)
        self.root_ = builder.build(X, y, sample_weight, self.n_classes_)
        return self

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        X = self._check_Xy(X)
        leaves, index = _leaf_index(self.root_, X)
        proba = np.empty((len(leaves), self.n_classes_))
        # only the leaves some row reached: one row need not pay for all
        for i in np.flatnonzero(np.bincount(index, minlength=len(leaves))):
            counts = leaves[i].value
            total = counts.sum()
            proba[i] = counts / total if total > 0 else 1.0 / self.n_classes_
        return proba[index]

    def decision_path(self, x) -> List[TreeNode]:
        """Root-to-leaf node sequence for one sample (evidence lists)."""
        self._check_fitted()
        x = np.asarray(x, dtype=float)
        path = []
        node = self.root_
        while True:
            path.append(node)
            if node.is_leaf:
                return path
            node = node.left if x[node.feature] <= node.threshold \
                else node.right

    def leaves(self) -> List[TreeNode]:
        self._check_fitted()
        out: List[TreeNode] = []
        stack = [self.root_]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node)
            else:
                stack.extend((node.right, node.left))
        return out

    @property
    def n_leaves(self) -> int:
        self._check_fitted()
        return self.root_.leaf_count()

    @property
    def depth(self) -> int:
        self._check_fitted()
        return self.root_.max_depth()

    def feature_importances(self) -> np.ndarray:
        """Impurity-decrease importances, normalised to sum 1."""
        self._check_fitted()
        importances = np.zeros(self.n_features_)
        stack = [self.root_]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            left, right = node.left, node.right
            n = node.n_samples
            decrease = node.impurity * n - (
                left.impurity * left.n_samples
                + right.impurity * right.n_samples
            )
            importances[node.feature] += max(decrease, 0.0)
            stack.extend((left, right))
        total = importances.sum()
        return importances / total if total > 0 else importances


class DecisionTreeRegressor:
    """CART regressor (variance splitting); booster weak learner."""

    def __init__(self, max_depth: Optional[int] = 3,
                 min_samples_split: int = 2, min_samples_leaf: int = 1):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.root_: Optional[TreeNode] = None

    def fit(self, X, y, sample_weight=None):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("bad shapes for regression fit")
        builder = _TreeBuilder("mse", self.max_depth, self.min_samples_split,
                               self.min_samples_leaf, None, None)
        self.root_ = builder.build(X, y, sample_weight, n_classes=1)
        return self

    def predict(self, X) -> np.ndarray:
        if self.root_ is None:
            raise NotFittedError("regressor not fitted")
        X = np.asarray(X, dtype=float)
        leaves, index = _leaf_index(self.root_, X)
        return np.array([leaf.value[0] for leaf in leaves])[index]
