"""Independent correctness checks for explanations.

Nothing here calls into ``rulecf``: every reference model below recomputes
its classifier's good region from the benchmark's own description of it, and
decides a rule's consistency over the finite domain grid exactly.

A rule is handled as a list of ``(feature, is_leq, bound)`` triples and its
box as per-feature inclusive index ranges ``lo``/``hi`` into the sorted
domains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def box_of(components, domains):
    """Index ranges ``(lo, hi)`` of the domain values a rule admits."""
    lo = [0] * len(domains)
    hi = [len(d) - 1 for d in domains]
    for f, is_leq, bound in components:
        if is_leq:
            hi[f] = min(hi[f], int(np.searchsorted(domains[f], bound, side="right")) - 1)
        else:
            lo[f] = max(lo[f], int(np.searchsorted(domains[f], bound, side="left")))
    return lo, hi


def in_box(X, components):
    """Rows of the value matrix ``X`` that satisfy every component."""
    mask = np.ones(len(X), dtype=bool)
    for f, is_leq, bound in components:
        mask &= X[:, f] <= bound if is_leq else X[:, f] >= bound
    return mask


class RuleTruth:
    """Ground-truth rule model: bad exactly inside the truth box."""

    def __init__(self, truth, domains):
        self.truth = list(truth)
        self.domains = domains
        self.lo, self.hi = box_of(self.truth, domains)

    def any_good(self, lo, hi):
        if any(a > b for a, b in zip(lo, hi)):
            return False
        return any(a < t or b > u for a, b, t, u in zip(lo, hi, self.lo, self.hi))

    def good(self, X):
        return ~in_box(X, self.truth)


class GridNet:
    """ReLU net over the grid ``{0..V-1}^N`` with dyadic weights.

    Weights are multiples of 1/8, hidden biases of 1/4 and the output bias of
    1/64, and inputs are small integers, so every logit is exact in float32
    and in the program's float64. A point is good exactly when its logit is
    positive, which is where the program's sigmoid exceeds 0.5.
    """

    def __init__(self, w1, b1, w2, b2, values):
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2
        self.values = values
        n = w1.shape[1]
        self.domains = [np.arange(values, dtype=np.float64)] * n
        self._mask = None

    def logits(self, X):
        h = np.maximum(X @ self.w1.T + self.b1, 0.0)
        return h @ self.w2 + self.b2

    def good(self, X):
        return self.logits(np.asarray(X, dtype=np.float64)) > 0

    def mask(self):
        """Good-point mask over the whole grid, shape ``(V,) * N``.

        Built one slab of the first feature at a time, so the transient
        arrays stay at 1/V of the grid.
        """
        if self._mask is None:
            n, v = self.w1.shape[1], self.values
            grid = np.arange(v, dtype=np.float32)
            w1 = self.w1.astype(np.float32)
            mask = np.empty((v,) * n, dtype=bool)
            for first in range(v):
                z = np.full((v,) * (n - 1), self.b2, dtype=np.float32)
                for w_row, b, w_out in zip(w1, self.b1, self.w2):
                    pre = np.float32(b) + w_row[0] * np.float32(first)
                    for j in range(1, n):
                        pre = np.add.outer(pre, w_row[j] * grid)
                    z += np.float32(w_out) * np.maximum(pre, np.float32(0))
                mask[first] = z > 0
            self._mask = mask
        return self._mask

    def release(self):
        self._mask = None

    def any_good(self, lo, hi):
        if any(a > b for a, b in zip(lo, hi)):
            return False
        return bool(self.mask()[tuple(slice(a, b + 1) for a, b in zip(lo, hi))].any())


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    left: object
    right: object


class TreeBoxes:
    """Decision tree whose good leaves are turned into path boxes.

    A split sends ``value <= threshold`` left. Each good leaf (score above
    0.5) is the box of its path; a rule is consistent exactly when its box
    meets no good leaf's box over the sorted domains.
    """

    def __init__(self, root, domains):
        self.root = root
        self.domains = domains
        self.good_boxes = []
        self._collect(root, [0] * len(domains), [len(d) - 1 for d in domains])

    def _collect(self, node, lo, hi):
        if not isinstance(node, Split):
            if node > 0.5:
                self.good_boxes.append((list(lo), list(hi)))
            return
        cut = int(np.searchsorted(self.domains[node.feature], node.threshold, side="right"))
        left_hi = list(hi)
        left_hi[node.feature] = min(hi[node.feature], cut - 1)
        right_lo = list(lo)
        right_lo[node.feature] = max(lo[node.feature], cut)
        self._collect(node.left, lo, left_hi)
        self._collect(node.right, right_lo, hi)

    def any_good(self, lo, hi):
        return any(
            all(max(a, c) <= min(b, d) for a, b, c, d in zip(lo, hi, glo, ghi))
            for glo, ghi in self.good_boxes
        )

    def scores(self, X):
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(len(X))

        def walk(node, rows):
            if not isinstance(node, Split):
                out[rows] = node
                return
            left = X[rows, node.feature] <= node.threshold
            walk(node.left, rows[left])
            walk(node.right, rows[~left])

        walk(self.root, np.arange(len(X)))
        return out

    def good(self, X):
        return self.scores(X) > 0.5


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one explanation; ``failure`` is None when it passed."""

    failure: object
    consistent: bool
    minimal: bool


def check_explanation(ref, x, components, vd, cf_verified, history, history_good):
    """Check a returned top rule against the reference model ``ref``.

    Fails when the rule is not anchored at ``x`` or does not hold there, when
    the reported ``vd`` differs from the count of good history rows in the
    box, or when ``cf_verified`` is true on a rule that admits a good point.
    """
    components = list(components)
    if any(bound != x[f] for f, _, bound in components):
        return Verdict("top rule is not anchored at x", False, False)
    if not in_box(np.asarray([x], dtype=np.float64), components)[0]:
        return Verdict("top rule does not hold at x", False, False)
    own_vd = int(np.count_nonzero(history_good & in_box(history, components)))
    lo, hi = box_of(components, ref.domains)
    consistent = not ref.any_good(lo, hi)
    minimal = consistent and all(
        ref.any_good(*box_of(components[:i] + components[i + 1:], ref.domains))
        for i in range(len(components))
    )
    if own_vd != vd:
        return Verdict(f"reported vd {vd} but {own_vd} good history rows lie in the box",
                       consistent, minimal)
    if cf_verified and not consistent:
        return Verdict("cf_verified on a rule whose box holds a good point", consistent, minimal)
    return Verdict(None, consistent, minimal)

