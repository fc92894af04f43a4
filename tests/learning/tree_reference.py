"""The tree prediction reference: one Python root-to-leaf walk per row.

The fitted trees in :mod:`repro.learning.models.tree` predict all rows
a level at a time; these per-row walks define what that must reproduce
exactly: ``x[f] <= t`` goes left, so NaN goes right and a value equal
to the threshold goes left.
"""

import numpy as np


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
