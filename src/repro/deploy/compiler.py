"""Decision tree -> match-action table compilation.

Each root-to-leaf path of the tree is a conjunction of half-open
interval constraints on features; the compiler quantizes features to
integers, converts every path into one RANGE-match table entry, and
packs them into a single classification table.  The compiled program
is *semantically equivalent* to the tree evaluated on quantized
inputs — property-tested in ``tests/deploy/test_compiler.py``:

    lookup(quantize(x)) == tree.predict(dequantize(quantize(x)))

which holds because ``x' <= t  <=>  q <= floor(t * scale)`` when
``x' = q / scale`` with integer ``q``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.deploy.ir import (
    FieldMatch,
    MatchActionTable,
    SwitchProgram,
    TableEntry,
    ternary_cost,
)
from repro.learning.models.tree import DecisionTreeClassifier, TreeNode


@dataclass
class FeatureQuantizer:
    """Fixed-point mapping between float features and integer fields.

    Every feature f maps to ``q = clip(floor(x * scale), 0, 2^width-1)``.
    """

    scales: List[float]
    width: int = 16

    @property
    def max_value(self) -> int:
        return (1 << self.width) - 1

    @classmethod
    def for_features(cls, X: np.ndarray, width: int = 16,
                     headroom: float = 2.0) -> "FeatureQuantizer":
        """Pick per-feature scales so observed maxima use the full width."""
        X = np.asarray(X, dtype=float)
        maxima = np.maximum(X.max(axis=0) * headroom, 1e-9)
        max_value = (1 << width) - 1
        scales = [float(max_value / m) for m in maxima]
        return cls(scales=scales, width=width)

    def quantize(self, x: Sequence[float]) -> List[int]:
        max_value = self.max_value
        out = []
        for value, scale in zip(x, self.scales):
            q = int(math.floor(max(value, 0.0) * scale))
            out.append(min(q, max_value))
        return out

    def dequantize(self, q: Sequence[int]) -> List[float]:
        return [value / scale for value, scale in zip(q, self.scales)]

    def quantize_threshold(self, feature: int, threshold: float) -> int:
        q = int(math.floor(threshold * self.scales[feature]))
        return min(max(q, -1), self.max_value)


@dataclass
class CompileResult:
    """Compiled program plus cost accounting."""

    program: SwitchProgram
    quantizer: FeatureQuantizer
    n_entries: int
    tcam_entries: int          # after range-to-ternary expansion
    key_width_bits: int
    tcam_bits: int

    @property
    def classify_table(self) -> MatchActionTable:
        return self.program.table("classify")


def _paths(root: TreeNode) -> List[Tuple[List[Tuple[int, str, float]],
                                         TreeNode]]:
    """All (conditions, leaf) pairs; condition = (feature, op, thr)."""
    out = []

    def walk(node: TreeNode, conditions):
        if node.is_leaf:
            out.append((list(conditions), node))
            return
        walk(node.left, conditions + [(node.feature, "<=", node.threshold)])
        walk(node.right, conditions + [(node.feature, ">", node.threshold)])

    walk(root, [])
    return out


def compile_tree(tree: DecisionTreeClassifier,
                 feature_names: Sequence[str],
                 quantizer: FeatureQuantizer,
                 class_names: Optional[Sequence[str]] = None,
                 program_name: str = "classifier") -> CompileResult:
    """Lower a fitted tree into one RANGE-match classification table.

    The table's action is ``set_class`` with a ``class_id`` parameter;
    the runtime (:mod:`repro.deploy.switch`) maps class ids onto
    mitigation actions via its policy binding.
    """
    if tree.root_ is None:
        raise ValueError("tree is not fitted")
    if len(feature_names) != tree.n_features_:
        raise ValueError("feature_names length != tree features")

    field_names = [f"meta.{name}" for name in feature_names]
    widths = {name: quantizer.width for name in field_names}
    table = MatchActionTable(
        name="classify",
        key_fields=list(field_names),
        key_widths=widths,
        default_action="set_class",
        default_params={"class_id": 0},
    )

    max_value = quantizer.max_value
    for conditions, leaf in _paths(tree.root_):
        # Intersect conditions per feature into one integer interval.
        intervals: Dict[int, List[int]] = {}
        empty = False
        for feature, op, threshold in conditions:
            lo, hi = intervals.get(feature, [0, max_value])
            qt = quantizer.quantize_threshold(feature, threshold)
            if op == "<=":
                hi = min(hi, qt)
            else:
                lo = max(lo, qt + 1)
            if lo > hi:
                empty = True
                break
            intervals[feature] = [lo, hi]
        if empty:
            # Quantization collapsed this path; the sibling entry
            # absorbs its inputs.
            continue
        matches = {}
        for feature, (lo, hi) in intervals.items():
            if (lo, hi) == (0, max_value):
                continue
            matches[field_names[feature]] = FieldMatch.range(lo, hi)
        class_id = int(np.argmax(leaf.value))
        table.add_entry(TableEntry(
            priority=len(conditions),
            matches=matches,
            action="set_class",
            params={"class_id": class_id,
                    "confidence": float(
                        leaf.value[class_id] / max(leaf.value.sum(), 1.0))},
        ))

    program = SwitchProgram(
        name=program_name,
        tables=[table],
        feature_fields=list(field_names),
        class_names=list(class_names) if class_names else [],
        metadata={"model": "decision_tree", "depth": tree.depth,
                  "leaves": tree.n_leaves},
    )
    tcam_entries = sum(ternary_cost(e, widths) for e in table.entries)
    key_bits = table.key_width_bits
    return CompileResult(
        program=program,
        quantizer=quantizer,
        n_entries=len(table.entries),
        tcam_entries=tcam_entries,
        key_width_bits=key_bits,
        tcam_bits=tcam_entries * key_bits,
    )


def classify(result: CompileResult, x: Sequence[float]) -> int:
    """Evaluate the compiled program on one float feature vector."""
    q = result.quantizer.quantize(x)
    fields = dict(zip(result.program.feature_fields, q))
    action, params = result.classify_table.lookup(fields)
    assert action == "set_class"
    return int(params["class_id"])
