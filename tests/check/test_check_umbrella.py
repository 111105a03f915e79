"""The `repro check` umbrella: merged report, CLI exit codes.

One command, one schema: every tool's findings land in the shared
``CheckViolation`` shape with a ``tool`` field, the merged JSON document
aggregates by rule, and the process exit code is the disjunction of the
tools' verdicts.  The dynamic schedule sweep is exercised by its own
suite (``test_verify_suite``); here ``--only lint`` skips it so the
umbrella tests stay static-analysis fast.
"""

import json
from pathlib import Path

from repro.check.report import check_to_json, format_check_text, run_check
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

# One per-file violation (wall-clock) and one dimension violation
# (dim-add-mix).
DIRTY = (
    "import time\n"
    "\n"
    "from repro.units import Bytes, Seconds\n"
    "\n"
    "\n"
    "def mix(a: Seconds, b: Bytes) -> Seconds:\n"
    "    t = time.time()\n"
    "    return a + b\n"
)

CLEAN = (
    "from repro.units import Seconds\n"
    "\n"
    "\n"
    "def total(a: Seconds, b: Seconds) -> Seconds:\n"
    "    return a + b\n"
)


class TestRunCheck:
    def test_merges_lint_and_flow_findings(self, tmp_path):
        (tmp_path / "dirty.py").write_text(DIRTY)
        report = run_check([tmp_path], only=("lint",))
        assert not report.ok
        assert [t.tool for t in report.tools] == ["lint"]
        fired = {(v.tool, v.rule) for v in report.violations}
        assert ("lint", "wall-clock") in fired
        assert ("lint", "dim-add-mix") in fired

    def test_clean_tree_is_ok(self, tmp_path):
        (tmp_path / "ok.py").write_text(CLEAN)
        report = run_check([tmp_path], only=("lint",))
        assert report.ok
        assert report.violations == []

    def test_json_document_shape(self, tmp_path):
        (tmp_path / "dirty.py").write_text(DIRTY)
        report = run_check([tmp_path], only=("lint",))
        doc = json.loads(check_to_json(report))
        assert doc["ok"] is False
        assert doc["n_violations"] == len(report.violations)
        assert set(doc["tools"]) == {"lint"}
        assert doc["by_rule"]["dim-add-mix"] == 1
        assert doc["by_rule"]["wall-clock"] == 1
        # Every violation entry carries its origin tool and location.
        for entry in doc["violations"]:
            assert entry["tool"] == "lint"
            assert entry["path"].endswith("dirty.py")
            assert isinstance(entry["line"], int)

    def test_flow_stats_surface_in_tool_report(self, tmp_path):
        (tmp_path / "ok.py").write_text(CLEAN)
        report = run_check([tmp_path], only=("lint",))
        (lint_tool,) = report.tools
        assert lint_tool.stats["n_files"] == 1
        assert lint_tool.stats["n_functions"] == 1

    def test_text_report_names_each_tool(self, tmp_path):
        (tmp_path / "dirty.py").write_text(DIRTY)
        text = format_check_text(run_check([tmp_path], only=("lint",)))
        assert "[lint]" in text
        assert "wall-clock" in text
        assert "dim-add-mix" in text
        assert text.splitlines()[-1].startswith("FAIL:")


class TestCli:
    def test_check_flow_exit_codes(self, tmp_path, capsys):
        (tmp_path / "dirty.py").write_text(DIRTY)
        assert main(["check", str(tmp_path), "--only", "lint"]) == 1
        out = capsys.readouterr().out
        assert "dim-add-mix" in out

        clean = tmp_path / "clean"
        clean.mkdir()
        (clean / "ok.py").write_text(CLEAN)
        assert main(["check", str(clean), "--only", "lint"]) == 0

    def test_check_umbrella_exit_and_json_out(self, tmp_path, capsys):
        (tmp_path / "dirty.py").write_text(DIRTY)
        out_path = tmp_path / "report.json"
        code = main(
            [
                "check",
                str(tmp_path),
                "--only",
                "lint",
                "--json-out",
                str(out_path),
            ]
        )
        assert code == 1
        capsys.readouterr()
        doc = json.loads(out_path.read_text())
        assert doc["ok"] is False
        assert set(doc["tools"]) == {"lint"}

    def test_check_flow_rules_filter(self, tmp_path, capsys):
        (tmp_path / "dirty.py").write_text(DIRTY)
        code = main(
            ["check", str(tmp_path), "--only", "lint", "--rules", "rng-unseeded"]
        )
        assert code == 0  # wall-clock and dim-add-mix are filtered out
        capsys.readouterr()

    def test_usage_errors_exit_2(self, capsys):
        assert main(["check", "--only", "flow"]) == 2
        assert main(["check", "--only", "schedule", "--rules", "no-such-rule"]) == 2
        capsys.readouterr()

    def test_src_repro_passes_check_flow_cli(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(
            [
                "check",
                str(REPO_ROOT / "src" / "repro"),
                "--only",
                "lint",
                "--json-out",
                str(out_path),
            ]
        )
        assert code == 0
        assert "OK: 0 violation(s)" in capsys.readouterr().out
        # The stats prove the pass actually covered the project — a path
        # bug that analyzed nothing would also report 0 violations.
        stats = json.loads(out_path.read_text())["tools"]["lint"]
        assert stats["n_files"] > 100
        assert stats["n_functions"] > 800
        assert stats["n_call_edges"] > 1000
        assert stats["n_task_sites"] > 20
