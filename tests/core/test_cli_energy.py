"""CLI coverage for the energy subcommand and the fleet's energy output."""

import contextlib
import io
import json

import pytest

from repro.bench.fleet_chaos import (
    DEFAULT_SLO,
    build_fleet,
    default_fleet_monitor,
    fleet_requests,
)
from repro.cli import main
from repro.telemetry import FleetTracer, power


@pytest.fixture(scope="module")
def deep_fleet(tmp_path_factory):
    """One deep `repro fleet --explain` run: (exit code, stdout, dir)."""
    out_dir = tmp_path_factory.mktemp("deep-fleet")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(
            [
                "fleet", "--requests", "8", "--explain", "1",
                "--summary", str(out_dir / "summary.json"),
                "--timeseries", str(out_dir / "watts.jsonl"),
            ]
        )
    return code, stdout.getvalue(), out_dir


class TestEnergyCommand:
    def test_request_table_ranks_engines(self, capsys, tmp_path):
        out = tmp_path / "energy.json"
        code = main(["energy", "--json", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "j_per_token" in text
        assert "powerinfer" in text
        doc = json.loads(out.read_text())
        assert doc["powerinfer"]["j_per_token"] > 0.0
        assert doc["powerinfer"]["grams_co2"] > 0.0

    def test_carbon_intensity_scales_carbon_only(self, capsys, tmp_path):
        base = tmp_path / "base.json"
        green = tmp_path / "green.json"
        assert main(["energy", "--json", str(base)]) == 0
        assert main(["energy", "--carbon-intensity", "40", "--json", str(green)]) == 0
        b = json.loads(base.read_text())["powerinfer"]
        g = json.loads(green.read_text())["powerinfer"]
        assert g["total_joules"] == b["total_joules"]
        assert g["grams_co2"] * 10 == b["grams_co2"] * 1.0

    def test_whatif_prints_perf_per_watt(self, capsys):
        assert main(["energy", "--whatif"]) == 0
        assert "perf_per_watt_gain" in capsys.readouterr().out

    def test_fleet_mode_moved_to_fleet_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["energy", "--fleet"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_fleet_mode_reconciles_and_writes_artifacts(self, deep_fleet):
        code, text, out_dir = deep_fleet
        out = out_dir / "summary.json"
        ts = out_dir / "watts.jsonl"
        assert code == 0
        assert "fleet validation: OK" in text
        assert "ledger vs meter drift" in text
        assert "J/token" in text
        doc = json.loads(out.read_text())["energy"]
        assert doc["reconciliation_ok"] is True
        assert doc["j_per_token"] > 0.0
        assert len(doc["replicas"]) == 3
        lanes = {json.loads(line)["series"] for line in ts.read_text().splitlines()}
        assert "fleet/watts" in lanes
        assert any(name.endswith("/gpu_watts") for name in lanes)


class TestExplainRequestEnergy:
    def test_text_timeline_carries_joules_column(self, deep_fleet):
        code, text, _ = deep_fleet
        assert code == 0
        assert "fleet energy in flight" in text
        assert " J]" in text

    def test_format_json_document(self, deep_fleet):
        code, _, out_dir = deep_fleet
        assert code == 0
        doc = json.loads((out_dir / "summary.json").read_text())["explanation"]
        assert doc["summary"]["energy"]["fleet_total_joules"] > 0.0
        assert all("fleet_joules" in entry for entry in doc["timeline"])
        joules = [entry["fleet_joules"] for entry in doc["timeline"]]
        assert joules == sorted(joules)


class TestOneMeteringPass:
    def test_router_never_meters_and_the_deep_cli_meters_once(
        self, monkeypatch, capsys, tmp_path
    ):
        calls = []
        fleet_energy = power.fleet_energy

        def spy(*args, **kwargs):
            calls.append(args)
            return fleet_energy(*args, **kwargs)

        monkeypatch.setattr(power, "fleet_energy", spy)
        tracer = FleetTracer(monitor=default_fleet_monitor(), slo=DEFAULT_SLO)
        build_fleet(tracer=tracer).run(fleet_requests(4))
        assert len(calls) == 0
        ts = tmp_path / "watts.jsonl"
        assert main(["fleet", "--requests", "4", "--timeseries", str(ts)]) == 0
        capsys.readouterr()
        assert len(calls) == 1
        lanes = {json.loads(line)["series"] for line in ts.read_text().splitlines()}
        assert "fleet/watts" in lanes
