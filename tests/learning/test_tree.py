"""Decision tree: learning, structure, constraints, introspection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.learning.models import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    NotFittedError,
    RandomForestClassifier,
)

from tests.learning.tree_reference import (
    reference_forest_proba,
    reference_predict,
    reference_predict_proba,
)


def test_fits_axis_aligned_boundary():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(400, 2))
    y = (X[:, 0] > 0.5).astype(int)
    tree = DecisionTreeClassifier().fit(X, y)
    assert np.mean(tree.predict(X) == y) == 1.0
    assert tree.depth == 1
    assert tree.n_leaves == 2
    # the split must be on feature 0 near 0.5
    assert tree.root_.feature == 0
    assert tree.root_.threshold == pytest.approx(0.5, abs=0.05)


def test_max_depth_respected():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(300, 5))
    y = rng.integers(0, 2, size=300)
    tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
    assert tree.depth <= 3


def test_min_samples_leaf_respected():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(200, 4))
    y = (X[:, 0] > 0).astype(int)
    tree = DecisionTreeClassifier(min_samples_leaf=20).fit(X, y)
    assert all(leaf.n_samples >= 20 for leaf in tree.leaves())


def test_pure_node_stops_splitting():
    X = np.asarray([[0.0], [1.0], [2.0]])
    y = np.asarray([0, 0, 0])
    tree = DecisionTreeClassifier().fit(X, y)
    assert tree.n_leaves == 1


def test_predict_proba_rows_sum_to_one():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(150, 3))
    y = rng.integers(0, 3, size=150)
    tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
    proba = tree.predict_proba(X)
    assert proba.shape == (150, 3)
    assert np.allclose(proba.sum(axis=1), 1.0)


def test_multiclass():
    rng = np.random.default_rng(4)
    X = rng.uniform(size=(600, 2))
    y = (X[:, 0] > 0.5).astype(int) + 2 * (X[:, 1] > 0.5).astype(int)
    tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
    assert np.mean(tree.predict(X) == y) > 0.98


def test_sample_weight_shifts_decision():
    X = np.asarray([[0.0], [1.0], [2.0], [3.0]])
    y = np.asarray([0, 0, 1, 1])
    heavy_one = np.asarray([1.0, 1.0, 100.0, 100.0])
    tree = DecisionTreeClassifier(max_depth=0)
    tree.fit(X, y, sample_weight=heavy_one)
    assert tree.predict([[1.5]])[0] == 1


def test_decision_path_and_leaves():
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(200, 3))
    y = ((X[:, 0] > 0.5) & (X[:, 1] > 0.5)).astype(int)
    tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
    path = tree.decision_path(X[0])
    assert path[0] is tree.root_
    assert path[-1].is_leaf
    assert len(tree.leaves()) == tree.n_leaves


def test_feature_importances_pick_signal():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(500, 6))
    y = (X[:, 2] > 0.0).astype(int)
    tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
    importances = tree.feature_importances()
    assert importances.sum() == pytest.approx(1.0)
    assert np.argmax(importances) == 2


def test_not_fitted_raises():
    tree = DecisionTreeClassifier()
    with pytest.raises(NotFittedError):
        tree.predict(np.zeros((1, 2)))


def test_fit_validation():
    tree = DecisionTreeClassifier()
    with pytest.raises(ValueError):
        tree.fit(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        tree.fit(np.zeros((3, 2)), np.zeros(2))


def test_regressor_fits_step_function():
    X = np.linspace(0, 1, 200).reshape(-1, 1)
    y = np.where(X[:, 0] > 0.5, 3.0, -1.0)
    reg = DecisionTreeRegressor(max_depth=2).fit(X, y)
    pred = reg.predict(X)
    assert np.allclose(pred[X[:, 0] > 0.55], 3.0, atol=0.2)
    assert np.allclose(pred[X[:, 0] < 0.45], -1.0, atol=0.2)


def test_regressor_not_fitted():
    with pytest.raises(NotFittedError):
        DecisionTreeRegressor().predict(np.zeros((1, 1)))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=6))
def test_property_depth_bound_holds(depth):
    rng = np.random.default_rng(depth)
    X = rng.normal(size=(200, 4))
    y = rng.integers(0, 2, size=200)
    tree = DecisionTreeClassifier(max_depth=depth).fit(X, y)
    assert tree.depth <= depth
    assert tree.n_leaves <= 2 ** depth


def _thresholds(root):
    """(feature, threshold) of every split under ``root``."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            out.append((node.feature, node.threshold))
            stack.extend((node.left, node.right))
    return out


def _probe_rows(rng, X, root, n_rows):
    """Rows that stress the descent: fresh draws, values exactly at
    split thresholds, and NaN features."""
    if n_rows == 0:
        return np.zeros((0, X.shape[1]))
    rows = rng.normal(size=(n_rows, X.shape[1])).round(1)
    rows[: n_rows // 3] = X[rng.integers(0, len(X), n_rows // 3)]
    for row, (feature, threshold) in zip(rows[n_rows // 3:],
                                          _thresholds(root)):
        row[feature] = threshold
    rows[rng.random(rows.shape) < 0.1] = np.nan
    return rows


def _fit_data(rng, n_features, n_classes, single_leaf):
    X = rng.normal(size=(120, n_features)).round(1)   # ties on purpose
    if single_leaf:
        y = np.full(len(X), n_classes - 1)
    else:
        y = rng.integers(0, n_classes, size=len(X))
    return X, y


fit_params = dict(
    seed=st.integers(0, 2 ** 16),
    depth=st.integers(1, 12),
    n_features=st.integers(1, 5),
    n_classes=st.integers(2, 5),
    weighted=st.booleans(),
    single_leaf=st.booleans(),
    n_rows=st.sampled_from([0, 1, 7, 60]),
)


@settings(max_examples=60, deadline=None)
@given(**fit_params)
def test_classifier_proba_equals_per_row_reference(
        seed, depth, n_features, n_classes, weighted, single_leaf, n_rows):
    rng = np.random.default_rng(seed)
    X, y = _fit_data(rng, n_features, n_classes, single_leaf)
    weight = rng.uniform(0.1, 5.0, size=len(y)) if weighted else None
    tree = DecisionTreeClassifier(max_depth=depth).fit(
        X, y, sample_weight=weight, n_classes=n_classes)
    rows = _probe_rows(rng, X, tree.root_, n_rows)
    assert np.array_equal(tree.predict_proba(rows),
                          reference_predict_proba(tree, rows))


@settings(max_examples=60, deadline=None)
@given(**fit_params)
def test_regressor_predict_equals_per_row_reference(
        seed, depth, n_features, n_classes, weighted, single_leaf, n_rows):
    rng = np.random.default_rng(seed)
    X, y = _fit_data(rng, n_features, n_classes, single_leaf)
    target = y + rng.normal(scale=0.0 if single_leaf else 0.3,
                            size=len(y))
    weight = rng.uniform(0.1, 5.0, size=len(y)) if weighted else None
    reg = DecisionTreeRegressor(max_depth=depth).fit(
        X, target, sample_weight=weight)
    rows = _probe_rows(rng, X, reg.root_, n_rows)
    assert np.array_equal(reg.predict(rows), reference_predict(reg, rows))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 16), depth=st.integers(1, 12),
       n_classes=st.integers(2, 5), n_rows=st.sampled_from([0, 1, 40]))
def test_forest_proba_equals_per_row_reference(seed, depth, n_classes,
                                               n_rows):
    rng = np.random.default_rng(seed)
    X, y = _fit_data(rng, 4, n_classes, single_leaf=False)
    forest = RandomForestClassifier(n_estimators=5, max_depth=depth,
                                    random_state=seed).fit(X, y)
    rows = _probe_rows(rng, X, forest.trees_[0].root_, n_rows)
    assert np.array_equal(forest.predict_proba(rows),
                          reference_forest_proba(forest, rows))


def test_nan_goes_right_and_threshold_goes_left():
    X = np.asarray([[0.0], [1.0], [2.0], [3.0]])
    tree = DecisionTreeClassifier(max_depth=1).fit(X, [0, 0, 1, 1])
    threshold = tree.root_.threshold
    proba = tree.predict_proba([[threshold], [np.nan]])
    assert proba[0].tolist() == [1.0, 0.0]
    assert proba[1].tolist() == [0.0, 1.0]
