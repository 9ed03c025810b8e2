"""Black-box classifier contract with call counting, plus built-in model kinds.

Three kinds are supported: ``rule`` (the score is 0 when a ground-truth rule
holds, 1 otherwise), ``tree`` (a binary decision tree with <= splits), and
``net`` (a small feed-forward network with rectifier hidden layers and a
sigmoid output). Models load from a line-oriented text format; see
:func:`load_model` and the repository README for the exact grammar.
"""

from __future__ import annotations

import abc
import math
import threading
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .schema import DatasetSchema, Instance, Rule, SchemaError

BAD_THRESHOLD = 0.5


def is_bad_score(score: float) -> bool:
    """Scores at or below 0.5 are the undesired outcome."""
    return score <= BAD_THRESHOLD


def good_mask(scores) -> np.ndarray:
    """Vectorised good-outcome test: True where a score exceeds the threshold."""
    return np.asarray(scores) > BAD_THRESHOLD


GOOD_CHUNK = 4096


def good_points(model: Classifier, schema: DatasetSchema, box: Sequence[range]) -> Iterator:
    """The good points of ``box``: per chunk of ``GOOD_CHUNK`` points of
    ``schema.box_points``, one ``predict_batch`` and the (possibly empty)
    matrix of the chunk's good points, in enumeration order."""
    for points in schema.box_points(box, GOOD_CHUNK):
        yield points[good_mask(model.predict_batch(points))]


class ModelFormatError(ValueError):
    """A model file could not be parsed or failed validation."""

    def __init__(self, message: str, path: str = "<model>", line: Optional[int] = None):
        self.path = path
        self.line = line
        where = f"{path}:{line}" if line is not None else path
        super().__init__(f"{where}: {message}")


class Classifier(abc.ABC):
    """Deterministic score-in-[0,1] model with an atomic evaluation counter."""

    def __init__(self, n_features: int):
        if n_features < 1:
            raise SchemaError("classifier needs at least one feature")
        self.n_features = int(n_features)
        self._calls = 0
        self._lock = threading.Lock()

    @property
    def calls(self) -> int:
        return self._calls

    def reset_calls(self) -> None:
        with self._lock:
            self._calls = 0

    def _count(self, k: int) -> None:
        with self._lock:
            self._calls += k

    def _check_width(self, width: int) -> None:
        if width != self.n_features:
            raise SchemaError(
                f"model expects {self.n_features} features, got {width}"
            )

    def predict(self, x: Instance) -> float:
        """Score one instance as a one-row batch that counts as one call.

        It calls ``_score_batch``, not ``predict_batch``: a tracer that wraps
        both methods on the instance would otherwise count the row twice.
        """
        self._check_width(len(x))
        self._count(1)
        return float(self._score_batch(np.asarray([x], dtype=np.float64))[0])

    def predict_batch(self, X) -> np.ndarray:
        arr = np.asarray(X, dtype=np.float64)
        if arr.ndim != 2:
            raise SchemaError("predict_batch expects a 2-D array of instances")
        self._check_width(arr.shape[1])
        self._count(len(arr))
        return self._score_batch(arr)

    def is_bad(self, x: Instance) -> bool:
        return is_bad_score(self.predict(x))

    @abc.abstractmethod
    def _score_batch(self, X: np.ndarray) -> np.ndarray:
        """Scores of the rows of a 2-D float64 matrix of the model's width."""


class RuleClassifier(Classifier):
    """Ground-truth rule model: 0.0 where the rule holds, 1.0 elsewhere."""

    def __init__(self, rule: Rule, n_features: int):
        super().__init__(n_features)
        for c in rule.components:
            if c.feature >= n_features:
                raise SchemaError(
                    f"rule references feature {c.feature} but model has {n_features}"
                )
        self.rule = rule

    def _score_batch(self, X: np.ndarray) -> np.ndarray:
        return np.where(self.rule.matrix_mask(X), 0.0, 1.0)


@dataclass(frozen=True)
class TreeNode:
    feature: int
    threshold: float
    left: int
    right: int


@dataclass(frozen=True)
class TreeLeaf:
    score: float


class TreeClassifier(Classifier):
    """Binary decision tree; splits go left when value <= threshold."""

    ROOT = 0

    def __init__(self, nodes: dict, n_features: int):
        super().__init__(n_features)
        self.nodes = dict(nodes)
        self._validate()

    def _validate(self) -> None:
        if self.ROOT not in self.nodes:
            raise SchemaError("tree has no root entry with id 0")
        for nid, node in self.nodes.items():
            if isinstance(node, TreeLeaf):
                if not (0.0 <= node.score <= 1.0):
                    raise SchemaError(f"leaf {nid} score {node.score} outside [0, 1]")
            elif isinstance(node, TreeNode):
                if node.feature >= self.n_features or node.feature < 0:
                    raise SchemaError(f"node {nid} splits on unknown feature {node.feature}")
                for child in (node.left, node.right):
                    if child not in self.nodes:
                        raise SchemaError(f"node {nid} references missing child {child}")
            else:
                raise SchemaError(f"unexpected tree entry {node!r}")
        # every path from the root must terminate at a leaf, with no cycles; an
        # explicit stack walks it, so a deep chain cannot exhaust the recursion
        # limit. A node is indexed when the walk opens it and gets its height
        # when its (nid, True) entry closes it, so the nodes indexed but not
        # yet closed are the path from the root, and a subtree shared by two
        # parents is measured once. The index lays the reachable nodes out as
        # the flat arrays _score_batch reads.
        index: dict = {}
        height: dict = {}
        stack = [(self.ROOT, False)]
        while stack:
            nid, closing = stack.pop()
            node = self.nodes[nid]
            if closing:
                height[nid] = (
                    1 + max(height[node.left], height[node.right])
                    if isinstance(node, TreeNode) else 0
                )
            elif nid not in index:
                index[nid] = len(index)
                stack.append((nid, True))
                if isinstance(node, TreeNode):
                    stack += [(node.right, False), (node.left, False)]
            elif nid not in height:
                raise SchemaError(f"tree contains a cycle through node {nid}")
        size = len(index)
        self._feature = np.zeros(size, dtype=np.intp)
        self._threshold = np.zeros(size)
        self._left = np.arange(size)  # a leaf is its own child on both sides
        self._right = np.arange(size)
        self._score = np.zeros(size)
        for nid, i in index.items():
            node = self.nodes[nid]
            if isinstance(node, TreeNode):
                self._feature[i], self._threshold[i] = node.feature, node.threshold
                self._left[i], self._right[i] = index[node.left], index[node.right]
            else:
                self._score[i] = node.score
        self._height = height[self.ROOT]

    def _score_batch(self, X: np.ndarray) -> np.ndarray:
        # all rows descend one level per step; a row at a leaf stays there,
        # and after the longest root-to-leaf path every row is at its leaf
        rows = np.arange(len(X))
        node = np.zeros(len(X), dtype=np.intp)
        for _ in range(self._height):
            go_left = X[rows, self._feature[node]] <= self._threshold[node]
            node = np.where(go_left, self._left[node], self._right[node])
        return self._score[node]


class NetClassifier(Classifier):
    """Feed-forward network: rectifier hidden activations, sigmoid output."""

    def __init__(self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]):
        weights = [np.asarray(w, dtype=np.float64) for w in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
        if not weights or len(weights) != len(biases):
            raise SchemaError("network needs matching weight and bias lists")
        super().__init__(weights[0].shape[1])
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise SchemaError(f"layer {i} weight/bias shapes disagree")
            if i > 0 and w.shape[1] != weights[i - 1].shape[0]:
                raise SchemaError(
                    f"layer {i} expects {w.shape[1]} inputs but layer {i - 1} "
                    f"produces {weights[i - 1].shape[0]}"
                )
        if weights[-1].shape[0] != 1:
            raise SchemaError("final layer must have output dimension 1")
        self.weights = weights
        self.biases = biases

    def _score_batch(self, X: np.ndarray) -> np.ndarray:
        h = X
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.maximum(h @ w.T + b, 0.0)
        z = h @ self.weights[-1].T + self.biases[-1]
        return 1.0 / (1.0 + np.exp(-np.clip(z[:, 0], -500.0, 500.0)))


# -- model file parsing -------------------------------------------------------

_KINDS = ("rule", "tree", "net")


def _content_lines(text: str):
    """Yield (line_number, tokens) for non-blank, non-comment lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, stripped.split()


def _parse_float(token: str, path: str, lineno: int) -> float:
    try:
        v = float(token)
    except ValueError:
        raise ModelFormatError(f"malformed numeric literal {token!r}", path, lineno) from None
    if math.isnan(v) or math.isinf(v):
        raise ModelFormatError(f"numeric literal {token!r} is not finite", path, lineno)
    return v


def _parse_int(token: str, path: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ModelFormatError(f"malformed integer literal {token!r}", path, lineno) from None


def _parse_features_line(lines, path: str) -> int:
    try:
        lineno, tokens = next(lines)
    except StopIteration:
        raise ModelFormatError("missing 'features <n>' line", path) from None
    if len(tokens) != 2 or tokens[0] != "features":
        raise ModelFormatError("expected 'features <n>'", path, lineno)
    n = _parse_int(tokens[1], path, lineno)
    if n < 1:
        raise ModelFormatError(f"feature count must be positive, got {n}", path, lineno)
    return n


def _load_rule_model(lines, path: str) -> RuleClassifier:
    from .schema import Direction, RuleComponent

    n = _parse_features_line(lines, path)
    comps = []
    for lineno, tokens in lines:
        if len(tokens) != 3:
            raise ModelFormatError("expected '<feature> <op> <bound>'", path, lineno)
        feature = _parse_int(tokens[0], path, lineno)
        if tokens[1] not in ("<=", ">="):
            raise ModelFormatError(f"unknown operator {tokens[1]!r}", path, lineno)
        direction = Direction.LEQ if tokens[1] == "<=" else Direction.GEQ
        bound = _parse_float(tokens[2], path, lineno)
        if feature < 0 or feature >= n:
            raise ModelFormatError(
                f"feature index {feature} outside 0..{n - 1}", path, lineno
            )
        comps.append(RuleComponent(feature, direction, bound))
    try:
        rule = Rule(tuple(comps))
        return RuleClassifier(rule, n)
    except SchemaError as exc:
        raise ModelFormatError(str(exc), path) from exc


def _load_tree_model(lines, path: str) -> TreeClassifier:
    n = _parse_features_line(lines, path)
    nodes: dict = {}
    for lineno, tokens in lines:
        if tokens[0] == "node":
            if len(tokens) != 6:
                raise ModelFormatError(
                    "expected 'node <id> <feature> <threshold> <left> <right>'", path, lineno
                )
            nid = _parse_int(tokens[1], path, lineno)
            feature = _parse_int(tokens[2], path, lineno)
            threshold = _parse_float(tokens[3], path, lineno)
            left = _parse_int(tokens[4], path, lineno)
            right = _parse_int(tokens[5], path, lineno)
            entry: object = TreeNode(feature, threshold, left, right)
        elif tokens[0] == "leaf":
            if len(tokens) != 3:
                raise ModelFormatError("expected 'leaf <id> <score>'", path, lineno)
            nid = _parse_int(tokens[1], path, lineno)
            entry = TreeLeaf(_parse_float(tokens[2], path, lineno))
        else:
            raise ModelFormatError(f"unexpected tree line {tokens[0]!r}", path, lineno)
        if nid in nodes:
            raise ModelFormatError(f"duplicate node id {nid}", path, lineno)
        nodes[nid] = entry
    try:
        return TreeClassifier(nodes, n)
    except SchemaError as exc:
        raise ModelFormatError(str(exc), path) from exc


def _load_net_model(lines, path: str) -> NetClassifier:
    try:
        lineno, tokens = next(lines)
    except StopIteration:
        raise ModelFormatError("missing 'dims' line", path) from None
    if tokens[0] != "dims" or len(tokens) < 3:
        raise ModelFormatError("expected 'dims <d0> <d1> ... <dk>'", path, lineno)
    dims = [_parse_int(t, path, lineno) for t in tokens[1:]]
    if any(d < 1 for d in dims):
        raise ModelFormatError("layer widths must be positive", path, lineno)

    weights, biases = [], []
    for layer in range(len(dims) - 1):
        d_in, d_out = dims[layer], dims[layer + 1]
        for tag, count in (("w", d_in * d_out), ("b", d_out)):
            try:
                lineno, tokens = next(lines)
            except StopIteration:
                raise ModelFormatError(
                    f"missing '{tag}' line for layer {layer}", path
                ) from None
            if tokens[0] != tag:
                raise ModelFormatError(f"expected '{tag}' line for layer {layer}", path, lineno)
            values = [_parse_float(t, path, lineno) for t in tokens[1:]]
            if len(values) != count:
                raise ModelFormatError(
                    f"layer {layer} {tag!r} needs {count} values, got {len(values)}",
                    path, lineno,
                )
            if tag == "w":
                weights.append(np.array(values, dtype=np.float64).reshape(d_out, d_in))
            else:
                biases.append(np.array(values, dtype=np.float64))
    for lineno, _tokens in lines:
        raise ModelFormatError("trailing content after final layer", path, lineno)
    try:
        return NetClassifier(weights, biases)
    except SchemaError as exc:
        raise ModelFormatError(str(exc), path) from exc


def parse_model(text: str, path: str = "<model>") -> Classifier:
    lines = _content_lines(text)
    try:
        lineno, tokens = next(lines)
    except StopIteration:
        raise ModelFormatError("empty model file", path) from None
    if len(tokens) != 1 or tokens[0] not in _KINDS:
        raise ModelFormatError(
            f"unknown model kind {' '.join(tokens)!r} (expected one of {', '.join(_KINDS)})",
            path, lineno,
        )
    kind = tokens[0]
    if kind == "rule":
        return _load_rule_model(lines, path)
    if kind == "tree":
        return _load_tree_model(lines, path)
    return _load_net_model(lines, path)


def load_model(path) -> Classifier:
    """Load and validate a classifier from a model file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_model(text, str(path))
