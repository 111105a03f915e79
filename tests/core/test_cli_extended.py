"""Tests for the serve/fleet/bounds/attribution CLI subcommands and example hygiene."""

import json
import pathlib
import py_compile
import re

import pytest

from repro.analysis.whatif import STANDARD_KNOBS
from repro.cli import main

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "examples").glob("*.py")
)


class TestServeCommand:
    def test_serve_reports_latency(self, capsys):
        code = main(
            [
                "serve",
                "--model", "opt-6.7b",
                "--machine", "pc-low",
                "--dtype", "int4",
                "--rate", "0.2",
                "--requests", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "p50 latency" in out
        assert "utilization" in out

    def test_serve_with_baseline_engine(self, capsys):
        code = main(
            [
                "serve",
                "--model", "opt-6.7b",
                "--machine", "pc-low",
                "--dtype", "int4",
                "--engine", "llama.cpp",
                "--requests", "5",
            ]
        )
        assert code == 0
        assert "llama.cpp" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--requests", "0"], "--requests"),
            (["--rate", "0"], "--rate"),
            (["--max-batch", "0"], "--max-batch"),
        ],
        ids=["zero-requests", "zero-rate", "zero-max-batch"],
    )
    def test_serve_rejects_degenerate_stream(self, capsys, flags, message):
        code = main(
            ["serve", "--model", "opt-6.7b", "--machine", "pc-low", *flags]
        )
        assert code != 0
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert message in captured.err
        assert "Traceback" not in captured.err

    def test_serve_canonical_faults_compares_naive_and_degraded(self, capsys):
        code = main(
            [
                "serve",
                "--model", "opt-6.7b",
                "--machine", "pc-low",
                "--dtype", "int4",
                "--rate", "0.9",
                "--requests", "12",
                "--scheduler", "chunked",
                "--chunk-tokens", "32",
                "--kv-gib", "0.35",
                "--deadline", "12",
                "--max-queue", "16",
                "--faults", "canonical",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("fault schedule: pcie-degrade@8.0s")
        rows = [line.split("|")[0].strip() for line in out.splitlines()]
        assert "naive" in rows and "degraded" in rows
        assert "deadline 12s" in out


class TestFleetCommand:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--requests", "0"], "--requests"),
            (["--requests", "-3"], "--requests"),
            (["--sessions", "0"], "--sessions"),
        ],
        ids=["zero-requests", "negative-requests", "zero-sessions"],
    )
    def test_fleet_rejects_degenerate_stream(self, capsys, flags, message):
        assert main(["fleet", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert message in captured.err
        assert "Traceback" not in captured.err


class TestTraceCommand:
    def test_trace_writes_chrome_trace_and_summary(self, capsys, tmp_path):
        out = tmp_path / "run.trace.json"
        jsonl = tmp_path / "run.jsonl"
        summary = tmp_path / "run.summary.json"
        code = main(
            [
                "serve",
                "--model", "opt-6.7b",
                "--machine", "pc-low",
                "--dtype", "int4",
                "--rate", "0.5",
                "--requests", "6",
                "--faults", "none",
                "--trace", str(out),
                "--jsonl", str(jsonl),
                "--summary", str(summary),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "traced" in stdout
        payload = json.loads(out.read_text())
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert {"M", "X", "C"} <= phases
        assert jsonl.read_text().splitlines()
        merged = json.loads(summary.read_text())
        assert "telemetry" in merged and "n_requests" in merged

    def test_trace_with_fault_seed_annotates_faults(self, capsys, tmp_path):
        out = tmp_path / "chaos.trace.json"
        code = main(
            [
                "serve",
                "--model", "opt-6.7b",
                "--machine", "pc-low",
                "--dtype", "int4",
                "--rate", "0.5",
                "--requests", "4",
                "--fault-seed", "7",
                "--trace", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        fault_threads = [
            e
            for e in payload["traceEvents"]
            if e["ph"] == "M"
            and e["name"] == "thread_name"
            and e["args"]["name"] == "faults"
        ]
        assert fault_threads


class TestBoundsCommand:
    def test_bounds_prints_four_rows(self, capsys):
        code = main(["bounds", "--model", "opt-30b", "--machine", "pc-high"])
        assert code == 0
        out = capsys.readouterr().out
        for bound in ("dense_gpu_only", "dense_hybrid", "sparse_hybrid", "oracle"):
            assert bound in out

    def test_bounds_int4(self, capsys):
        code = main(
            ["bounds", "--model", "opt-175b", "--machine", "pc-high", "--dtype", "int4"]
        )
        assert code == 0


class TestAttributionCommand:
    def test_attribution_prints_decomposition_path_and_whatif(self, capsys):
        code = main(
            ["attribution", "--model", "opt-6.7b", "--machine", "pc-low", "--dtype", "int4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        decomposition, whatif = out.split("what-if sensitivity", 1)
        assert "decode iteration at ctx=128 — seconds by device" in decomposition
        lines = decomposition.splitlines()
        header = next(line for line in lines if line.startswith("device"))
        assert [c.strip() for c in header.split("|")] == [
            "device", "memory", "compute", "launch", "sync", "transfer", "total"
        ]
        devices = {line.split("|")[0].strip() for line in lines if "|" in line}
        assert devices >= {"cpu", "gpu", "pcie"}
        path = r"^critical path: \d+ tasks, gating resource (gpu|cpu|pcie) "
        assert re.search(path, decomposition, re.MULTILINE)
        knobs = [line.split("|")[0].strip() for line in whatif.splitlines() if "|" in line]
        assert knobs[0] == "knob"
        assert sorted(knobs[1:]) == sorted(STANDARD_KNOBS)


class TestExamples:
    def test_examples_exist(self):
        names = {p.name for p in EXAMPLES}
        assert "quickstart.py" in names
        assert len(EXAMPLES) >= 3, "the paper repro ships >= 3 examples"

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_examples_compile(self, path):
        py_compile.compile(str(path), doraise=True)

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_examples_have_main_guard_and_docstring(self, path):
        source = path.read_text()
        assert '__name__ == "__main__"' in source
        assert source.lstrip().startswith(("#!", '"""'))
