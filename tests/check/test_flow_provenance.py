"""Seed-provenance doctored fixtures: every rng rule fires at its site.

The provenance pass chases each ``numpy.random`` Generator creation
backwards to an explicit seed; these fixtures plant one violation each
(ambient module-scope generator, unseeded creation, a seed laundered
through an opaque helper) and the clean twins prove the accepted
provenance shapes (literal, seed-named parameter, arithmetic over them,
deterministic helper, deterministic call-site arguments).
"""

from pathlib import Path

from repro.check.lint import lint_paths


def flow(tmp_path: Path, source: str):
    (tmp_path / "fixture.py").write_text(source)
    report = lint_paths([tmp_path])
    return [(v.rule, v.line) for v in report.violations]


class TestAmbient:
    def test_module_scope_generator_fires(self, tmp_path):
        src = (
            "import numpy as np\n"
            "\n"
            "RNG = np.random.default_rng()\n"
        )
        # Ambient *and* unseeded: both problems live on line 3.
        assert flow(tmp_path, src) == [
            ("rng-ambient", 3),
            ("rng-unseeded", 3),
        ]

    def test_module_scope_even_with_seed_fires_ambient(self, tmp_path):
        src = (
            "import numpy as np\n"
            "\n"
            "RNG = np.random.default_rng(1234)\n"
        )
        assert flow(tmp_path, src) == [("rng-ambient", 3)]


class TestUnseeded:
    def test_no_argument_fires(self, tmp_path):
        src = (
            "import numpy as np\n"
            "\n"
            "\n"
            "def draw():\n"
            "    return np.random.default_rng()\n"
        )
        assert flow(tmp_path, src) == [("rng-unseeded", 5)]

    def test_literal_none_fires(self, tmp_path):
        src = (
            "import numpy as np\n"
            "\n"
            "\n"
            "def draw():\n"
            "    return np.random.default_rng(None)\n"
        )
        assert flow(tmp_path, src) == [("rng-unseeded", 5)]

    def test_literal_seed_clean(self, tmp_path):
        src = (
            "import numpy as np\n"
            "\n"
            "\n"
            "def draw():\n"
            "    return np.random.default_rng(1234)\n"
        )
        assert flow(tmp_path, src) == []


class TestUntrackedSeed:
    def test_laundered_entropy_fires(self, tmp_path):
        # os.getpid() smuggled through a helper the graph must chase.
        src = (
            "import os\n"
            "\n"
            "import numpy as np\n"
            "\n"
            "\n"
            "def launder():\n"
            "    return os.getpid()\n"
            "\n"
            "\n"
            "def make_rng():\n"
            "    return np.random.default_rng(launder())\n"
        )
        (tmp_path / "fixture.py").write_text(src)
        report = lint_paths([tmp_path])
        assert [(v.rule, v.line) for v in report.violations] == [
            ("rng-untracked-seed", 11)
        ]
        # The diagnostic names the helper the trace died in.
        assert "launder" in report.violations[0].message

    def test_seed_parameter_clean(self, tmp_path):
        src = (
            "import numpy as np\n"
            "\n"
            "\n"
            "def make_rng(seed: int):\n"
            "    return np.random.default_rng(seed)\n"
        )
        assert flow(tmp_path, src) == []

    def test_arithmetic_over_seed_clean(self, tmp_path):
        # Arithmetic over seed-ish identifiers and literals stays tracked;
        # `replica_seed` qualifies by name, `7` by being a literal.
        src = (
            "import numpy as np\n"
            "\n"
            "\n"
            "def make_rng(seed: int, replica_seed: int):\n"
            "    return np.random.default_rng(seed * 1000 + replica_seed + 7)\n"
        )
        assert flow(tmp_path, src) == []

    def test_seedish_attribute_clean(self, tmp_path):
        src = (
            "import numpy as np\n"
            "\n"
            "\n"
            "def make_rng(config):\n"
            "    return np.random.default_rng(config.fault_seed)\n"
        )
        assert flow(tmp_path, src) == []

    def test_deterministic_helper_clean(self, tmp_path):
        src = (
            "import numpy as np\n"
            "\n"
            "\n"
            "def base_seed():\n"
            "    return 1234\n"
            "\n"
            "\n"
            "def make_rng():\n"
            "    return np.random.default_rng(base_seed())\n"
        )
        assert flow(tmp_path, src) == []

    def test_plain_param_with_deterministic_call_sites_clean(self, tmp_path):
        # `x` is not seed-named, but every call site passes a literal, so
        # the interprocedural step vouches for it.
        src = (
            "import numpy as np\n"
            "\n"
            "\n"
            "def make_rng(x):\n"
            "    return np.random.default_rng(x)\n"
            "\n"
            "\n"
            "def caller():\n"
            "    return make_rng(42)\n"
        )
        assert flow(tmp_path, src) == []

    def test_suppression_with_rationale_honored(self, tmp_path):
        src = (
            "import numpy as np\n"
            "\n"
            "RNG = np.random.default_rng(7)  "
            "# repro-lint: disable=rng-ambient -- module-level test fixture\n"
        )
        assert flow(tmp_path, src) == []
