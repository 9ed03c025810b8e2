"""Golden CLI outputs, pinned across code changes rather than across reruns.

``golden/`` holds a small ``rulecf synthetic`` report and ``explain --format
json`` runs of all three algorithms on a seeded ReLU net. The net's data has
8 values on each of 5 features, so the empty rule's box (32,768 points)
exceeds the CF engine's exhaustive cap: the genetic path's draws and the
sampled grading both reach these outputs.

``rule12_*`` is a 12-feature rule model with 10 ground-truth components and
61 history rows (40 drawn from the rule's box, 20 uniform, plus the anchor
first). Its ``gen`` run never converges and stops at ``--max-iterations 40``
with the default ``q=50``, so the output pins the crossover and mutation
draws over many full-population iterations. Its ``gen-cf`` and ``greedy-cf``
runs grow rules from the dual clauses of 12-feature anchors (``gen-cf``
expands parents 164 times over 37 distinct clause families), so these
outputs pin the clauses, their covers and the rules grown from them.

``explain_rule12_greedy-cf_capped.txt`` is the only text-format golden: a
``greedy-cf`` run on the rule12 files capped at ``--max-iterations 1``, which
stops before any candidate verifies and falls back to the 24-component rule
freezing every feature, with ``converged=False``. It also pins that the
printed ``iterations=1`` equals the cap.

``verify_rule12_*`` grade ``rule12_verify_rule.txt``, a 9-component rule
anchored at the rule12 data's first row that leaves ``f11`` free, in every
``verify`` mode. Its sampled grade is FGC with ``vs > 0``, so the sampled
draws and their count are pinned.

A change that alters these outputs on purpose re-records the files by running
the argv below and says why in its change log.
"""

import random
from pathlib import Path

import pytest

from rulecf import CfBudget, consistency_level, duality, ingest_csv, load_model, load_rule_file
from rulecf.cli import main
from rulecf.explainers import _Scorer

GOLDEN = Path(__file__).parent / "golden"


def test_net_top_level_box_takes_the_genetic_path():
    data = ingest_csv(GOLDEN / "net_data.csv")
    assert data.schema.space_size() > CfBudget().exhaustive_cap


@pytest.mark.parametrize("algo", ["gen", "gen-cf", "greedy-cf"])
def test_explain_net_matches_golden(algo, capsys):
    argv = [
        "explain", "--data", str(GOLDEN / "net_data.csv"),
        "--model", str(GOLDEN / "net_model.txt"), "--instance", "0",
        "--algo", algo, "--seed", "5", "--q", "20", "--k", "3", "--s", "300",
        "--max-iterations", "10", "--format", "json",
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"explain_net_{algo}.json").read_text()


def test_long_gen_run_matches_golden(capsys):
    argv = [
        "explain", "--data", str(GOLDEN / "rule12_data.csv"),
        "--model", str(GOLDEN / "rule12_model.txt"), "--instance", "0",
        "--algo", "gen", "--seed", "3", "--max-iterations", "40", "--format", "json",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert '"converged": false' in out
    assert out == (GOLDEN / "explain_rule12_gen.json").read_text()


@pytest.mark.parametrize("algo", ["gen-cf", "greedy-cf"])
def test_rule12_cf_runs_match_golden(algo, capsys):
    argv = [
        "explain", "--data", str(GOLDEN / "rule12_data.csv"),
        "--model", str(GOLDEN / "rule12_model.txt"), "--instance", "0",
        "--algo", algo, "--seed", "3", "--max-iterations", "40", "--format", "json",
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"explain_rule12_{algo}.json").read_text()


def test_capped_greedy_falls_back_to_full_rule(capsys):
    argv = [
        "explain", "--data", str(GOLDEN / "rule12_data.csv"),
        "--model", str(GOLDEN / "rule12_model.txt"), "--instance", "0",
        "--algo", "greedy-cf", "--seed", "3", "--max-iterations", "1", "--format", "text",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "card=24" in out and "converged=False" in out
    assert out == (GOLDEN / "explain_rule12_greedy-cf_capped.txt").read_text()


def test_rule12_gen_cf_enumerates_covers_once_per_family(monkeypatch, capsys):
    # the oracle memoizes covers per clause family, so re-expanding a parent
    # (or a parent with the same family) enumerates nothing again
    families = []
    covers_for_expansion = duality._covers_for_expansion

    def counted(duals):
        families.append(frozenset(duals))
        return covers_for_expansion(duals)

    monkeypatch.setattr(duality, "_covers_for_expansion", counted)
    argv = [
        "explain", "--data", str(GOLDEN / "rule12_data.csv"),
        "--model", str(GOLDEN / "rule12_model.txt"), "--instance", "0",
        "--algo", "gen-cf", "--seed", "3", "--max-iterations", "40", "--format", "json",
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / "explain_rule12_gen-cf.json").read_text()
    assert len(families) == len(set(families)) == 37


def test_synthetic_report_matches_golden(tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = [
        "synthetic", "--features", "6", "--components", "2,4", "--trials", "2",
        "--max-iterations", "20", "--out", str(out),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / "synthetic_small.json").read_bytes()


@pytest.mark.parametrize("mode", ["data", "sample", "brute", "cf"])
def test_verify_rule12_matches_golden(mode, capsys):
    argv = [
        "verify", "--data", str(GOLDEN / "rule12_data.csv"),
        "--model", str(GOLDEN / "rule12_model.txt"),
        "--rule", str(GOLDEN / "rule12_verify_rule.txt"),
        "--mode", mode, "--instance", "0", "--seed", "3",
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"verify_rule12_{mode}.txt").read_text()


@pytest.mark.parametrize("s", [300, 1000])
def test_verify_rule_grades_the_same_everywhere(s, capsys):
    """One ``(rule, seed, s)`` has one sampled grade: from
    ``consistency_level``, from a search's scorer whatever it graded before,
    and from ``verify --mode sample``."""
    data = ingest_csv(GOLDEN / "rule12_data.csv")
    model = load_model(GOLDEN / "rule12_model.txt")
    rule = load_rule_file(GOLDEN / "rule12_verify_rule.txt", data.schema)
    expected = consistency_level(rule, data, model, s=s, seed=3)
    assert expected.vs > 0  # the samples decide this grade

    argv = [
        "verify", "--data", str(GOLDEN / "rule12_data.csv"),
        "--model", str(GOLDEN / "rule12_model.txt"),
        "--rule", str(GOLDEN / "rule12_verify_rule.txt"),
        "--mode", "sample", "--seed", "3", "--s", str(s),
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"level=FGC vd=0 vs={expected.vs}\n"

    anchor = data.instances[0]
    pick = random.Random(s)
    full = _Scorer(model, data, s=s, seed=3, x=anchor).codec.full
    masks = [pick.randrange(full + 1) for _ in range(40)] + [full, 0]
    grades = []
    for _ in range(3):
        scorer = _Scorer(model, data, s=s, seed=3, x=anchor)
        target = scorer.codec.mask(rule)
        order = masks + [target]
        pick.shuffle(order)
        grades.append({mask: scorer.level(mask) for mask in order})
        assert grades[-1][target] == expected
    assert grades[0] == grades[1] == grades[2]
