import json

import pytest
from click.testing import CliRunner

import clique_splitter as cs
from clique_splitter.cli import main

REPORT_KEYS = {"input", "n", "quotas", "strategy", "assignment",
               "part_omegas", "valid", "elapsed_ms", "seed"}


@pytest.fixture
def runner():
    return CliRunner()


class TestGen:
    def test_complete_summary(self, runner):
        result = runner.invoke(main, ["gen", "complete:5"])
        assert result.exit_code == 0
        assert "p edge 5 10" in result.output
        assert "omega=5" in result.output and "max_degree=4" in result.output

    def test_strong_product_file(self, runner, tmp_path):
        out = tmp_path / "g.dimacs"
        result = runner.invoke(main, ["gen", "strong:5x2", "--out", str(out)])
        assert result.exit_code == 0
        assert "omega=4" in result.output
        g = cs.parse_dimacs(out.read_text())
        assert g.n == 10 and g.edge_count == 25

    def test_regular_reproducible_bytes(self, runner, tmp_path):
        a, b = tmp_path / "a.dimacs", tmp_path / "b.dimacs"
        for path in (a, b):
            result = runner.invoke(
                main, ["gen", "regular:28,13", "--seed", "3", "--out", str(path)])
            assert result.exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, runner, tmp_path):
        out = tmp_path / "g.json"
        result = runner.invoke(
            main, ["gen", "cycle:6", "--format", "json", "--out", str(out)])
        assert result.exit_code == 0
        g = cs.from_adjacency_json(json.loads(out.read_text()))
        assert g.n == 6 and g.edge_count == 6

    def test_invalid_recipe(self, runner):
        result = runner.invoke(main, ["gen", "banana:7"])
        assert result.exit_code == 1


class TestPartitionCommand:
    def test_valid_run_report_schema(self, runner):
        result = runner.invoke(main, [
            "partition", "--gen", "regular:28,13", "--seed", "3",
            "--quotas", "5,5,5", "--json"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert set(report) == REPORT_KEYS
        assert report["valid"] is True
        assert len(report["assignment"]) == 28
        assert report["quotas"] == [5, 5, 5]
        assert all(om <= 4 for om in report["part_omegas"])

    def test_hypothesis_violation_exits_2(self, runner):
        result = runner.invoke(main, ["partition", "--gen", "complete:6", "--quotas", "4,3"])
        assert result.exit_code == 2

    def test_missing_file_exits_1(self, runner):
        result = runner.invoke(main, ["partition", "--in", "missing.dimacs", "--quotas", "4,3"])
        assert result.exit_code == 1

    def test_unsorted_quotas_rejected(self, runner):
        result = runner.invoke(main, [
            "partition", "--gen", "regular:28,13", "--quotas", "5,5,6"])
        assert result.exit_code == 2
        assert "non-increasing" in result.output

    def test_quota_below_two_rejected(self, runner):
        result = runner.invoke(main, [
            "partition", "--gen", "regular:28,13", "--quotas", "13,1"])
        assert result.exit_code == 2

    def test_exhausted_exits_3(self, runner):
        result = runner.invoke(main, [
            "partition", "--gen", "strong:5x2", "--quotas", "4,2", "--json"])
        assert result.exit_code == 3
        payload = json.loads(result.output)
        assert payload["exhausted"] is True
        assert payload["proven_infeasible"] is True


class TestVerifyCommand:
    def test_round_trip(self, runner, tmp_path):
        graph_path = tmp_path / "g.dimacs"
        report_path = tmp_path / "report.json"
        assert runner.invoke(
            main, ["gen", "regular:20,9", "--seed", "5", "--out", str(graph_path)]
        ).exit_code == 0
        run = runner.invoke(main, [
            "partition", "--in", str(graph_path), "--quotas", "6,4",
            "--out", str(report_path)])
        assert run.exit_code == 0, run.output
        verify = runner.invoke(main, [
            "verify", "--in", str(graph_path), "--report", str(report_path)])
        assert verify.exit_code == 0, verify.output
        assert "valid: True" in verify.output

    def test_corrupted_assignment_exits_4(self, runner, tmp_path):
        graph_path = tmp_path / "g.dimacs"
        report_path = tmp_path / "report.json"
        g = cs.generate(cs.GeneratorRecipe("complete", {"n": 5}))
        graph_path.write_text(cs.serialize_dimacs(g))
        # hand-built report stuffing the whole K5 into a quota-4 part
        report_path.write_text(json.dumps({
            "quotas": [4, 2], "assignment": [0, 0, 0, 0, 0]}))
        verify = runner.invoke(main, [
            "verify", "--in", str(graph_path), "--report", str(report_path)])
        assert verify.exit_code == 4
        assert "VIOLATED" in verify.output

    def test_truncated_json_exits_1(self, runner, tmp_path):
        graph_path = tmp_path / "g.dimacs"
        report_path = tmp_path / "report.json"
        graph_path.write_text("p edge 2 1\ne 1 2\n")
        report_path.write_text('{"quotas": [2, 2], "assignment": [0')
        verify = runner.invoke(main, [
            "verify", "--in", str(graph_path), "--report", str(report_path)])
        assert verify.exit_code == 1

    def test_shape_mismatch_exits_1(self, runner, tmp_path):
        graph_path = tmp_path / "g.dimacs"
        report_path = tmp_path / "report.json"
        graph_path.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
        report_path.write_text(json.dumps({"quotas": [2, 2], "assignment": [0, 1]}))
        verify = runner.invoke(main, [
            "verify", "--in", str(graph_path), "--report", str(report_path)])
        assert verify.exit_code == 1

    @pytest.mark.parametrize("assignment", [5, None, {"0": 0}, "01"])
    def test_assignment_that_is_not_a_list_exits_1(self, runner, tmp_path, assignment):
        graph_path = tmp_path / "g.dimacs"
        report_path = tmp_path / "report.json"
        graph_path.write_text("p edge 2 1\ne 1 2\n")
        report_path.write_text(json.dumps({"quotas": [2, 2], "assignment": assignment}))
        verify = runner.invoke(main, [
            "verify", "--in", str(graph_path), "--report", str(report_path)])
        assert verify.exit_code == 1
        assert verify.exception is None or isinstance(verify.exception, SystemExit)
        assert "error: " in verify.output
        assert "assignment must be a list" in verify.output

    @pytest.mark.parametrize("report, message", [
        ({"quotas": [2.9, "2"], "assignment": [0, 1]}, "quotas must hold integers, got 2.9"),
        ({"quotas": [2, 2.0], "assignment": [0, 1]}, "quotas must hold integers, got 2.0"),
        ({"quotas": [True, 2], "assignment": [0, 1]}, "quotas must hold integers, got true"),
        ({"quotas": "22", "assignment": [0, 1]}, "quotas must be a list, got str"),
        ({"quotas": [2, 2], "assignment": [0.0, True]}, "assignment must hold integers, got 0.0"),
        ({"quotas": [2, 2], "assignment": [0, True]}, "assignment must hold integers, got true"),
        ({"quotas": [2, 2], "assignment": [0, "1"]}, 'assignment must hold integers, got "1"'),
        ({"quotas": [2, 2], "assignment": [0, 5]}, "vertex 1 has part index 5, outside 0..1"),
        ({"quotas": [2, 2], "assignment": [-1, 0]}, "vertex 0 has part index -1, outside 0..1"),
    ])
    def test_malformed_entries_exit_1(self, runner, tmp_path, report, message):
        graph_path = tmp_path / "g.dimacs"
        report_path = tmp_path / "report.json"
        graph_path.write_text("p edge 2 1\ne 1 2\n")
        report_path.write_text(json.dumps(report))
        verify = runner.invoke(main, [
            "verify", "--in", str(graph_path), "--report", str(report_path)])
        assert verify.exit_code == 1
        assert verify.exception is None or isinstance(verify.exception, SystemExit)
        assert "error: " in verify.output
        assert message in verify.output
        assert "valid:" not in verify.output

    def test_json_graph_input(self, runner, tmp_path):
        graph_path = tmp_path / "g.json"
        report_path = tmp_path / "report.json"
        g = cs.generate(cs.GeneratorRecipe("random_regular", {"n": 20, "d": 9}, seed=5))
        graph_path.write_text(json.dumps(cs.to_adjacency_json(g)))
        run = runner.invoke(main, [
            "partition", "--in", str(graph_path), "--quotas", "6,4",
            "--out", str(report_path)])
        assert run.exit_code == 0, run.output
        verify = runner.invoke(main, [
            "verify", "--in", str(graph_path), "--report", str(report_path)])
        assert verify.exit_code == 0


class TestProbeCommand:
    def test_empty_quota_policy_no_findings(self, runner):
        result = runner.invoke(main, [
            "probe", "--samples", "8", "--quota-policy", "none"])
        assert result.exit_code == 0
        assert result.output.strip() == ""

    def test_deterministic_stream(self, runner):
        args = ["probe", "--samples", "25", "--seed", "11", "--n-min", "4",
                "--n-max", "7", "--quota-policy", "all2"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output

    def test_findings_are_json_lines(self, runner):
        result = runner.invoke(main, [
            "probe", "--samples", "40", "--seed", "2", "--quota-policy", "pairs"])
        assert result.exit_code == 0
        for line in result.output.splitlines():
            record = json.loads(line)
            assert record["phenomenon"] in {"bk_tight", "oracle_infeasible",
                                            "engine_exhausted"}
            reparsed = cs.parse_dimacs(record["graph"])
            assert reparsed.n >= 1

    @pytest.mark.parametrize("policy, code, message", [
        ("list:2,3", 2, "quotas must be sorted in non-increasing order"),
        ("list:3,1,1", 2, "every quota must be at least 2"),
        ("list:2,3;x", 1, "--quota-policy must be comma-separated integers, got 'x'"),
        ("bogus", 1, "unknown quota policy 'bogus'"),
    ])
    def test_bad_quota_list_rejected_before_sampling(self, runner, policy, code, message):
        # No sample is drawn, so only an up-front check can reject the list.
        result = runner.invoke(main, ["probe", "--samples", "0", "--quota-policy", policy])
        assert result.exit_code == code
        assert isinstance(result.exception, SystemExit)
        assert f"error: {message}" in result.output


class TestStatsCommand:
    @pytest.mark.parametrize("payload, message", [
        ({"n": True, "edges": []}, "'n' must be an integer, got True"),
        ({"n": 3, "edges": [[1.7, 0], ["2", True]]},
         "edge endpoints must be integers, got [1.7, 0]"),
    ])
    def test_non_integer_json_graph_exits_1(self, runner, tmp_path, payload, message):
        graph_path = tmp_path / "g.json"
        graph_path.write_text(json.dumps(payload))
        result = runner.invoke(main, ["stats", "--in", str(graph_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: {graph_path}: {message}" in result.output

    def test_json_payload(self, runner):
        result = runner.invoke(main, ["stats", "--gen", "strong:7x2", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["n"] == 14 and payload["omega"] == 4
        assert payload["chromatic"] == 5
        assert payload["degeneracy"] == 5

    def test_chromatic_beyond_the_oracle_budget_is_null(self, runner):
        result = runner.invoke(main, ["stats", "--gen", "cycle:15", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["n"] == 15 and payload["omega"] == 2
        assert payload["chromatic"] is None

    @pytest.mark.parametrize("spec, chromatic", [
        ("cycle:13", 3), ("cycle:14", 2), ("cycle:16", None), ("complete:15", None),
    ])
    def test_chromatic_is_reported_up_to_the_oracle_budget(self, runner, spec, chromatic):
        # the oracle answers up to its 14-vertex assignment cap, and
        # beyond it the field is null rather than an error
        result = runner.invoke(main, ["stats", "--gen", spec, "--json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["chromatic"] == chromatic

    def test_human_output(self, runner):
        result = runner.invoke(main, ["stats", "--gen", "complete:4"])
        assert result.exit_code == 0
        assert "omega: 4" in result.output
