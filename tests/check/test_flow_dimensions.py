"""Doctored-fixture tests: each dimension rule fires at its exact site.

Every test plants a minimal fixture module in a temp directory, runs the
static pass over it, and asserts the *precise* rule
name and line — plus a near-identical clean twin that must stay silent,
pinning the rule's edges (literal wildcards, Ratio transparency,
interprocedural argument checking).
"""

from pathlib import Path

import pytest

from repro.check.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def flow(tmp_path: Path, source: str, name: str = "fixture.py", rules=None):
    (tmp_path / name).write_text(source)
    report = lint_paths([tmp_path], rules=rules)
    return [(v.rule, v.line) for v in report.violations]


class TestDimAddMix:
    def test_seconds_plus_bytes_fires(self, tmp_path):
        src = (
            "from repro.units import Bytes, Seconds\n"
            "\n"
            "\n"
            "def mix(a: Seconds, b: Bytes) -> Seconds:\n"
            "    return a + b\n"
        )
        assert flow(tmp_path, src) == [("dim-add-mix", 5)]

    def test_same_dimension_clean(self, tmp_path):
        src = (
            "from repro.units import Seconds\n"
            "\n"
            "\n"
            "def total(a: Seconds, b: Seconds) -> Seconds:\n"
            "    return a + b\n"
        )
        assert flow(tmp_path, src) == []

    def test_numeric_literal_adapts(self, tmp_path):
        # A bare literal is a wildcard: `t + 1.0` is not mixing.
        src = (
            "from repro.units import Seconds\n"
            "\n"
            "\n"
            "def pad(t: Seconds) -> Seconds:\n"
            "    return t + 1.0\n"
        )
        assert flow(tmp_path, src) == []


class TestDimReturn:
    def test_bytes_returned_as_seconds_fires(self, tmp_path):
        src = (
            "from repro.units import Bytes, Seconds\n"
            "\n"
            "\n"
            "def wrong(x: Bytes) -> Seconds:\n"
            "    return x\n"
        )
        assert flow(tmp_path, src) == [("dim-return", 5)]

    def test_derived_quotient_clean(self, tmp_path):
        # bytes / (bytes/s) = s — the transfer-time identity.
        src = (
            "from repro.units import Bytes, BytesPerSecond, Seconds\n"
            "\n"
            "\n"
            "def transfer(nbytes: Bytes, bw: BytesPerSecond) -> Seconds:\n"
            "    return nbytes / bw\n"
        )
        assert flow(tmp_path, src) == []

    def test_zero_literal_return_clean(self, tmp_path):
        src = (
            "from repro.units import Seconds\n"
            "\n"
            "\n"
            "def idle() -> Seconds:\n"
            "    return 0.0\n"
        )
        assert flow(tmp_path, src) == []


class TestDimProduct:
    def test_watts_squared_fires(self, tmp_path):
        src = (
            "from repro.units import Watts\n"
            "\n"
            "\n"
            "def square(w: Watts):\n"
            "    return w * w\n"
        )
        assert flow(tmp_path, src) == [("dim-product", 5)]

    def test_watts_times_seconds_is_joules_clean(self, tmp_path):
        src = (
            "from repro.units import Joules, Seconds, Watts\n"
            "\n"
            "\n"
            "def energy(p: Watts, dt: Seconds) -> Joules:\n"
            "    return p * dt\n"
        )
        assert flow(tmp_path, src) == []

    def test_ratio_is_transparent_in_products(self, tmp_path):
        # Scaling by a dimensionless efficiency keeps the dimension.
        src = (
            "from repro.units import BytesPerSecond, Ratio\n"
            "\n"
            "\n"
            "def effective(bw: BytesPerSecond, eff: Ratio) -> BytesPerSecond:\n"
            "    return bw * eff\n"
        )
        assert flow(tmp_path, src) == []


class TestDimArg:
    SRC_CALLEE = (
        "from repro.units import Seconds\n"
        "\n"
        "\n"
        "def takes_seconds(t: Seconds) -> Seconds:\n"
        "    return t\n"
    )

    def test_wrong_argument_dimension_fires(self, tmp_path):
        src = (
            "from repro.units import Bytes, Seconds\n"
            "\n"
            "\n"
            "def takes_seconds(t: Seconds) -> Seconds:\n"
            "    return t\n"
            "\n"
            "\n"
            "def bad(nbytes: Bytes):\n"
            "    return takes_seconds(nbytes)\n"
        )
        assert flow(tmp_path, src) == [("dim-arg", 9)]

    def test_cross_module_call_fires(self, tmp_path):
        (tmp_path / "a.py").write_text(self.SRC_CALLEE)
        src = (
            "from repro.units import Bytes\n"
            "from a import takes_seconds\n"
            "\n"
            "\n"
            "def bad(nbytes: Bytes):\n"
            "    return takes_seconds(nbytes)\n"
        )
        assert flow(tmp_path, src, name="b.py") == [("dim-arg", 6)]

    def test_matching_argument_clean(self, tmp_path):
        src = (
            "from repro.units import Seconds\n"
            "\n"
            "\n"
            "def takes_seconds(t: Seconds) -> Seconds:\n"
            "    return t\n"
            "\n"
            "\n"
            "def good(dt: Seconds):\n"
            "    return takes_seconds(dt)\n"
        )
        assert flow(tmp_path, src) == []


class TestRuleSelection:
    MIXED = (
        "from repro.units import Bytes, Seconds\n"
        "\n"
        "\n"
        "def mix(a: Seconds, b: Bytes) -> Seconds:\n"
        "    return a + b\n"
        "\n"
        "\n"
        "def wrong(x: Bytes) -> Seconds:\n"
        "    return x\n"
    )

    def test_rules_subset_filters(self, tmp_path):
        got = flow(tmp_path, self.MIXED, rules=["dim-add-mix"])
        assert got == [("dim-add-mix", 5)]

    def test_unknown_rule_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown lint rules"):
            flow(tmp_path, self.MIXED, rules=["dim-nonsense"])


class TestSuppression:
    def test_inline_suppression_drops_violation(self, tmp_path):
        src = (
            "from repro.units import Bytes, Seconds\n"
            "\n"
            "\n"
            "def mix(a: Seconds, b: Bytes) -> Seconds:\n"
            "    return a + b  "
            "# repro-lint: disable=dim-add-mix -- mixed-unit scratch value\n"
        )
        assert flow(tmp_path, src) == []

    def test_suppression_is_rule_specific(self, tmp_path):
        # Naming a *different* rule does not silence dim-add-mix.
        src = (
            "from repro.units import Bytes, Seconds\n"
            "\n"
            "\n"
            "def mix(a: Seconds, b: Bytes) -> Seconds:\n"
            "    return a + b  "
            "# repro-lint: disable=dim-return -- wrong rule named\n"
        )
        assert flow(tmp_path, src) == [("dim-add-mix", 5)]
