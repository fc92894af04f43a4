"""Tree references: the split search and one root-to-leaf walk per row.

The fitted trees in :mod:`repro.learning.models.tree` predict all rows
a level at a time; these per-row walks define what that must reproduce
exactly: ``x[f] <= t`` goes left, so NaN goes right and a value equal
to the threshold goes left.

:func:`reference_best_split_on_feature` is the split search the fitted
trees must reproduce node for node: a stable sort of the column and a
prefix sum over a weighted ``(n, k)`` one-hot class matrix, for every
weighting.  :func:`reference_split_search` fits with it.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.learning.models import tree as tree_module
from repro.learning.models.tree import _gini


def reference_best_split_on_feature(builder, column, y, weight, n_classes):
    """``_TreeBuilder._best_split_on_feature``: ``(threshold, gain)`` of
    the best cut of ``column``, or None."""
    order = np.argsort(column, kind="mergesort")
    xs = column[order]
    ys = y[order]
    ws = weight[order]
    distinct = np.flatnonzero(np.diff(xs) > 0) + 1
    if len(distinct) == 0:
        return None
    total_w = ws.sum()
    if builder.criterion == "gini":
        onehot = np.zeros((len(ys), n_classes))
        onehot[np.arange(len(ys)), ys.astype(int)] = 1.0
        onehot *= ws[:, None]
        cum = np.cumsum(onehot, axis=0)
        total = cum[-1]
        left = cum[distinct - 1]
        right = total - left
        left_w = left.sum(axis=1)
        right_w = right.sum(axis=1)
        valid = (left_w >= builder.min_samples_leaf) & \
                (right_w >= builder.min_samples_leaf)
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
        valid = (left_w >= builder.min_samples_leaf) & \
                (right_w >= builder.min_samples_leaf)
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


def tree_nodes(root):
    """Every node under ``root`` in preorder, bit for bit: feature,
    threshold as ``float.hex``, class counts (or mean) bytes, impurity
    as ``float.hex`` and sample count."""
    rows, stack = [], [root]
    while stack:
        node = stack.pop()
        rows.append((node.feature, None if node.threshold is None
                     else float.hex(node.threshold),
                     np.asarray(node.value).tobytes(),
                     float.hex(float(node.impurity)), node.n_samples))
        if not node.is_leaf:
            stack.extend((node.right, node.left))
    return rows


@contextmanager
def reference_split_search():
    """Every tree fitted inside the block (forest and booster members
    too) searches its splits with the reference."""
    with mock.patch.object(tree_module._TreeBuilder,
                           "_best_split_on_feature",
                           reference_best_split_on_feature):
        yield


def leaf_for(root, x):
    node = root
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold \
            else node.right
    return node


def reference_predict_proba(tree, X) -> np.ndarray:
    """``DecisionTreeClassifier.predict_proba``, row by row."""
    X = np.asarray(X, dtype=float)
    out = np.zeros((len(X), tree.n_classes_))
    for i, x in enumerate(X):
        counts = leaf_for(tree.root_, x).value
        total = counts.sum()
        out[i] = counts / total if total > 0 else 1.0 / tree.n_classes_
    return out


def reference_predict(regressor, X) -> np.ndarray:
    """``DecisionTreeRegressor.predict``, row by row."""
    X = np.asarray(X, dtype=float)
    out = np.empty(len(X))
    for i, x in enumerate(X):
        out[i] = leaf_for(regressor.root_, x).value[0]
    return out


def reference_forest_proba(forest, X) -> np.ndarray:
    """``RandomForestClassifier.predict_proba`` over reference trees."""
    X = np.asarray(X, dtype=float)
    proba = np.zeros((len(X), forest.n_classes_))
    for tree in forest.trees_:
        proba += reference_predict_proba(tree, X)
    return proba / len(forest.trees_)
