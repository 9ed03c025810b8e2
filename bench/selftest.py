"""Self-test of the benchmark's checkers on spaces small enough to enumerate.

Each reference model must agree with full enumeration of random boxes and
with the program's own classifier on every point, and ``check_explanation``
must reject planted wrong answers. Run as ``python3 bench/selftest.py`` from
the repository root; ``run.py`` also runs it before every measurement.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import numpy as np

from checks import GridNet, RuleTruth, Split, TreeBoxes, box_of, check_explanation


class SelfTestError(RuntimeError):
    pass


def expect(condition, what):
    if not condition:
        raise SelfTestError(what)


def enumerate_box(domains, lo, hi):
    """Every point of a box, as a value matrix."""
    axes = [domains[f][lo[f]: hi[f] + 1] for f in range(len(domains))]
    return np.asarray(list(itertools.product(*axes)), dtype=np.float64).reshape(-1, len(domains))


def all_points(domains):
    return enumerate_box(domains, [0] * len(domains), [len(d) - 1 for d in domains])


def random_box(rng, domains):
    lo, hi = [], []
    for d in domains:
        a, b = sorted(rng.integers(0, len(d), size=2))
        lo.append(int(a))
        hi.append(int(b))
    return lo, hi


def agrees_with_enumeration(ref, rng, boxes=200):
    for _ in range(boxes):
        lo, hi = random_box(rng, ref.domains)
        expected = bool(ref.good(enumerate_box(ref.domains, lo, hi)).any())
        expect(ref.any_good(lo, hi) == expected, f"{type(ref).__name__} box {lo}..{hi}")


def rejects_planted_answers(ref, model_good):
    """The empty rule claimed verified, a wrong vd and an unanchored rule."""
    points = all_points(ref.domains)
    good = ref.good(points)
    expect(np.array_equal(good, model_good(points)), f"{type(ref).__name__} vs program")
    expect(good.any() and not good.all(), "planted case needs good and bad points")
    x = tuple(points[np.flatnonzero(~good)[0]])
    empty = check_explanation(ref, x, [], 0, True, points[:0], good[:0])
    expect(empty.failure is not None and not empty.consistent, "empty rule accepted")
    vd = check_explanation(ref, x, [], 0, False, points, good)
    expect(vd.failure is not None, "wrong vd accepted")
    off = (0, True, x[0] + 1.0)
    expect(check_explanation(ref, x, [off], 0, False, points[:0], good[:0]).failure
           is not None, "unanchored rule accepted")
    full = [(f, d, x[f]) for f in range(len(x)) for d in (True, False)]
    point = check_explanation(ref, x, full, 0, True, points, good)
    expect(point.failure is None and point.consistent, "the anchor's own point rejected")
    lo, hi = box_of(full, ref.domains)
    expect(lo == hi, "a rule fixing every feature must box one point")


def rule_case(rng):
    from rulecf import Rule, RuleClassifier, geq, leq

    domains = [np.arange(5, dtype=np.float64)] * 3
    truth = [(0, False, 1.0), (1, True, 3.0), (2, False, 2.0)]
    ref = RuleTruth(truth, domains)
    model = RuleClassifier(Rule((geq(0, 1.0), leq(1, 3.0), geq(2, 2.0))), 3)
    agrees_with_enumeration(ref, rng)
    rejects_planted_answers(ref, lambda X: model.predict_batch(X) > 0.5)


def net_case(rng):
    from rulecf import NetClassifier

    done = 0
    while done < 5:
        w1 = rng.integers(-8, 9, size=(3, 3)) / 8.0
        b1 = rng.integers(-16, 17, size=3) / 4.0
        w2 = rng.integers(-8, 9, size=3) / 8.0
        z = GridNet(w1, b1, w2, 0.0, 4).logits(all_points([np.arange(4.0)] * 3))
        b2 = float(-np.floor(np.median(z) * 64) / 64)
        ref = GridNet(w1, b1, w2, b2, 4)
        good = ref.good(all_points(ref.domains))
        if good.all() or not good.any():
            continue
        model = NetClassifier([w1, w2.reshape(1, 3)], [b1, np.array([b2])])
        expect(np.array_equal(ref.mask().ravel(), ref.good(all_points(ref.domains))),
               "grid mask differs from the forward pass")
        agrees_with_enumeration(ref, rng)
        rejects_planted_answers(ref, lambda X: model.predict_batch(X) > 0.5)
        done += 1


def random_tree(rng, domains, depth):
    if depth == 0 or rng.random() < 0.2:
        return float(rng.choice((0.1, 0.4, 0.6, 0.9)))
    f = int(rng.integers(0, len(domains)))
    threshold = float(rng.choice(domains[f][:-1]))
    return Split(f, threshold, random_tree(rng, domains, depth - 1),
                 random_tree(rng, domains, depth - 1))


def tree_case(rng):
    from workloads import tree_classifier

    domains = [np.array([-2.5, 0.0, 1.25, 7.0]), np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
               np.array([0.5, 9.5, 10.0])]
    done = 0
    while done < 5:
        root = random_tree(rng, domains, 3)
        ref = TreeBoxes(root, domains)
        good = ref.good(all_points(domains))
        if good.all() or not good.any():
            continue
        model = tree_classifier(root, len(domains))
        agrees_with_enumeration(ref, rng)
        rejects_planted_answers(ref, lambda X: model.predict_batch(X) > 0.5)
        done += 1


def run_all(seed=20221031):
    rng = np.random.default_rng(seed)
    for case in (rule_case, net_case, tree_case):
        case(rng)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    run_all()
    print("checker self-test passed")
