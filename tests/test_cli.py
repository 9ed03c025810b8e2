import json

import pytest

from rulecf import SearchParams
from rulecf.cli import _search_params, build_parser, main

CSV = """age,acc,income,debt
50,4,500,10
30,2,900,0
50,5,500,10
41,4,600,5
50,4,700,10
33,3,500,2
50,4,500,0
45,5,600,10
"""

# bad iff age >= 41 and income <= 600
MODEL = """rule
features 4
0 >= 41
2 <= 600
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "data.csv").write_text(CSV)
    (tmp_path / "model.txt").write_text(MODEL)
    return tmp_path


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestExplain:
    def test_text_output(self, workdir, capsys):
        code, out, err = run(
            ["explain", "--data", str(workdir / "data.csv"),
             "--model", str(workdir / "model.txt"),
             "--instance", "0", "--algo", "greedy-cf", "--seed", "3"],
            capsys,
        )
        assert code == 0
        assert "#1 [GC cf-verified]" in out
        assert "age >= 50" in out or "age <=" in out

    def test_json_output_recovers_model_rule(self, workdir, capsys):
        code, out, _ = run(
            ["explain", "--data", str(workdir / "data.csv"),
             "--model", str(workdir / "model.txt"),
             "--instance", "0", "--algo", "greedy-cf", "--seed", "3",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        top = payload["rules"][0]
        assert top["level"] == "GC"
        assert top["cf_verified"] is True
        # anchored form of the classifier's rule: age >= 50, income <= 500
        assert sorted(top["components"]) == ["age >= 50", "income <= 500"]
        assert payload["stats"]["cf_calls"] > 0

    def test_good_instance_fails_cleanly(self, workdir, capsys):
        code, out, err = run(
            ["explain", "--data", str(workdir / "data.csv"),
             "--model", str(workdir / "model.txt"),
             "--instance", "1", "--algo", "gen"],
            capsys,
        )
        assert code == 1
        assert "error:" in err

    def test_instance_out_of_range(self, workdir, capsys):
        code, _, err = run(
            ["explain", "--data", str(workdir / "data.csv"),
             "--model", str(workdir / "model.txt"),
             "--instance", "99"],
            capsys,
        )
        assert code == 1
        assert "--instance" in err

    def test_non_finite_cell_fails_cleanly(self, workdir, capsys):
        (workdir / "data.csv").write_text(CSV.replace("33,3,500,2", "33,3,inf,2"))
        code, _, err = run(
            ["explain", "--data", str(workdir / "data.csv"),
             "--model", str(workdir / "model.txt"), "--instance", "0"],
            capsys,
        )
        assert code == 1
        assert "error: non-finite cell 'inf' at row 7, column 'income'" in err

    def test_stdout_deterministic(self, workdir, capsys):
        argv = ["explain", "--data", str(workdir / "data.csv"),
                "--model", str(workdir / "model.txt"),
                "--instance", "0", "--algo", "gen-cf", "--q", "20", "--k", "2",
                "--s", "200", "--seed", "7", "--format", "json"]
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        assert out1 == out2


class TestVerify:
    def test_sample_mode(self, workdir, capsys):
        rule_path = workdir / "rule.txt"
        rule_path.write_text("age >= 41\nincome <= 600\n")
        code, out, _ = run(
            ["verify", "--data", str(workdir / "data.csv"),
             "--model", str(workdir / "model.txt"),
             "--rule", str(rule_path), "--mode", "sample", "--s", "400"],
            capsys,
        )
        assert code == 0
        assert out.strip() == "level=GC vd=0 vs=0"

    def test_data_mode_detects_violation(self, workdir, capsys):
        rule_path = workdir / "rule.txt"
        rule_path.write_text("age >= 30\n")  # admits good rows in the data
        code, out, _ = run(
            ["verify", "--data", str(workdir / "data.csv"),
             "--model", str(workdir / "model.txt"),
             "--rule", str(rule_path), "--mode", "data"],
            capsys,
        )
        assert code == 0
        assert "data_consistent=false" in out

    def test_cf_mode_requires_instance(self, workdir, capsys):
        rule_path = workdir / "rule.txt"
        rule_path.write_text("age >= 50\n")
        code, _, err = run(
            ["verify", "--data", str(workdir / "data.csv"),
             "--model", str(workdir / "model.txt"),
             "--rule", str(rule_path), "--mode", "cf"],
            capsys,
        )
        assert code == 1
        assert "--instance" in err

    def test_cf_mode(self, workdir, capsys):
        rule_path = workdir / "rule.txt"
        rule_path.write_text("age >= 50\nincome <= 500\n")
        code, out, _ = run(
            ["verify", "--data", str(workdir / "data.csv"),
             "--model", str(workdir / "model.txt"),
             "--rule", str(rule_path), "--mode", "cf", "--instance", "0"],
            capsys,
        )
        assert code == 0
        assert out.strip() == "cf_consistent=true"

    @pytest.mark.parametrize("instance", ["99", "-8"])
    def test_cf_mode_instance_out_of_range(self, workdir, capsys, instance):
        # -8 would index row 0 from the end of the 8-row data
        rule_path = workdir / "rule.txt"
        rule_path.write_text("age >= 50\n")
        code, out, err = run(
            ["verify", "--data", str(workdir / "data.csv"),
             "--model", str(workdir / "model.txt"),
             "--rule", str(rule_path), "--mode", "cf", "--instance", instance],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err == "error: --instance must be in 0..7\n"

    def test_cf_mode_rejects_a_rule_not_anchored_at_the_instance(self, workdir, capsys):
        rule_path = workdir / "rule.txt"
        rule_path.write_text("age >= 41\nincome <= 500\n")  # row 0 has age 50
        code, out, err = run(
            ["verify", "--data", str(workdir / "data.csv"),
             "--model", str(workdir / "model.txt"),
             "--rule", str(rule_path), "--mode", "cf", "--instance", "0"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "not anchored" in err

    def test_brute_mode(self, workdir, capsys):
        rule_path = workdir / "rule.txt"
        rule_path.write_text("age >= 50\nincome <= 500\n")
        code, out, _ = run(
            ["verify", "--data", str(workdir / "data.csv"),
             "--model", str(workdir / "model.txt"),
             "--rule", str(rule_path), "--mode", "brute"],
            capsys,
        )
        assert code == 0
        assert "outcome=consistent" in out

    @pytest.mark.parametrize("mode, expected", [
        ("data", "vd=0 data_consistent=true"),
        ("sample", "level=GC vd=0 vs=0"),
        ("brute", "outcome=consistent restricted_space=0"),
    ])
    def test_empty_box_is_consistent_in_every_mode(self, workdir, capsys, mode, expected):
        rule_path = workdir / "rule.txt"
        rule_path.write_text("age >= 60\nage <= 40\n")  # admits no instance
        code, out, _ = run(
            ["verify", "--data", str(workdir / "data.csv"),
             "--model", str(workdir / "model.txt"),
             "--rule", str(rule_path), "--mode", mode],
            capsys,
        )
        assert code == 0
        assert out.strip() == expected

    def test_missing_model_file(self, workdir, capsys):
        rule_path = workdir / "rule.txt"
        rule_path.write_text("age >= 50\n")
        code, _, err = run(
            ["verify", "--data", str(workdir / "data.csv"),
             "--model", str(workdir / "nope.txt"),
             "--rule", str(rule_path)],
            capsys,
        )
        assert code == 1
        assert "error:" in err


class TestSynthetic:
    def test_report_file_byte_identical_across_runs(self, tmp_path, capsys):
        argv = ["synthetic", "--features", "8", "--components", "2",
                "--trials", "3", "--algos", "greedy-cf", "--seed", "5",
                "--rows", "120", "--q", "20", "--k", "3", "--s", "150"]
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_contents(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["synthetic", "--features", "8", "--components", "2,4",
             "--trials", "2", "--algos", "greedy-cf", "--seed", "5",
             "--rows", "120", "--q", "20", "--k", "3", "--s", "150",
             "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out.read_text())
        assert [r["components"] for r in payload["results"]] == [2, 4]
        alg = payload["results"][0]["algorithms"]["greedy-cf"]
        assert alg["counts"]["consistent_minimal"] == 2
        assert "runtime_seconds" not in alg

    def test_stdout_report_when_no_out(self, capsys):
        code = main(
            ["synthetic", "--features", "8", "--components", "2",
             "--trials", "1", "--algos", "greedy-cf", "--seed", "5",
             "--rows", "100", "--q", "10", "--k", "2", "--s", "100"]
        )
        out, err = capsys.readouterr()
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "synthetic-experiment"

    def test_domain_size_sets_every_feature_domain(self, capsys):
        code, out, _ = run(
            ["synthetic", "--features", "4", "--domain-size", "5", "--components", "2",
             "--trials", "1", "--rows", "50", "--algos", "greedy-cf"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["schema"]["domain_sizes"] == [5, 5, 5, 5]

    def test_domain_size_too_small_for_an_interior_bound(self, capsys):
        code, _, err = run(
            ["synthetic", "--features", "4", "--domain-size", "2", "--components", "2",
             "--trials", "1", "--rows", "50", "--algos", "greedy-cf"],
            capsys,
        )
        assert code == 1
        assert "error: feature 0 needs at least 3 domain values for an interior bound" in err

    def test_unknown_algorithm(self, capsys):
        code = main(["synthetic", "--algos", "wat", "--trials", "1"])
        _, err = capsys.readouterr()
        assert code == 1
        assert "unknown algorithm" in err


@pytest.mark.parametrize("argv", [
    ["explain", "--data", "d.csv", "--model", "m.txt", "--instance", "0"],
    ["synthetic"],
])
def test_search_flag_defaults_are_search_params_defaults(argv):
    assert _search_params(build_parser().parse_args(argv)) == SearchParams()


@pytest.mark.parametrize("command", ["explain", "verify"])
def test_repeated_group_name_rejected(workdir, capsys, command):
    (workdir / "rule.txt").write_text("age >= 41\n")
    target = {"explain": ["--instance", "0"], "verify": ["--rule", str(workdir / "rule.txt")]}
    code, _, err = run(
        [command, "--data", str(workdir / "data.csv"), "--model", str(workdir / "model.txt"),
         "--group", "g=acc,debt", "--group", "g=income", *target[command]],
        capsys,
    )
    assert code == 1
    assert "error: --group 'g' is given more than once" in err


def test_verify_defaults_are_search_params_defaults():
    args = build_parser().parse_args(
        ["verify", "--data", "d.csv", "--model", "m.txt", "--rule", "r.txt"]
    )
    d = SearchParams()
    assert (args.s, args.seed) == (d.s, d.seed)
