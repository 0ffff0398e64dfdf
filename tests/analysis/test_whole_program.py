"""Whole-program rule regressions that need a multi-module view.

The cross-module flows single-fixture pairs cannot pin: an unseeded RNG
handed into sim scope, and the init-only registry carve-out being voided
when registration becomes worker-reachable.
"""

from pathlib import Path

from repro.analysis import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"


class TestRngFlowAcrossModules:
    def test_unseeded_rng_into_sim_scope(self, tmp_path):
        root = tmp_path / "repro"
        (root / "flash").mkdir(parents=True)
        (root / "tools").mkdir(parents=True)
        (root / "flash" / "simmod.py").write_text(
            "def run(rng):\n    return rng.random()\n"
        )
        (root / "tools" / "host.py").write_text(
            "import random\n"
            "from repro.flash.simmod import run\n"
            "\n"
            "\n"
            "def main():\n"
            "    rng = random.Random()\n"
            "    return run(rng)\n"
        )
        result = lint_paths([root], rule_ids=["determinism.rng-flow"])
        assert result.exit_code == 1
        assert any("simulation scope" in v.message for v in result.violations)
        assert result.violations[0].path.endswith("host.py")

    def test_seeded_rng_into_sim_scope_is_fine(self, tmp_path):
        root = tmp_path / "repro"
        (root / "flash").mkdir(parents=True)
        (root / "tools").mkdir(parents=True)
        (root / "flash" / "simmod.py").write_text(
            "def run(rng):\n    return rng.random()\n"
        )
        (root / "tools" / "host.py").write_text(
            "import random\n"
            "from repro.flash.simmod import run\n"
            "\n"
            "\n"
            "def main(seed: int):\n"
            "    rng = random.Random(seed)\n"
            "    return run(rng)\n"
        )
        result = lint_paths([root], rule_ids=["determinism.rng-flow"])
        assert result.exit_code == 0, [v.format() for v in result.violations]

    def test_entropy_flows_through_helper_returns(self, tmp_path):
        root = tmp_path / "repro" / "flash"
        root.mkdir(parents=True)
        (root / "seeds.py").write_text(
            "import random\n"
            "import time\n"
            "\n"
            "\n"
            "def ambient() -> int:\n"
            "    return int(time.time())\n"
            "\n"
            "\n"
            "def make_rng() -> random.Random:\n"
            "    return random.Random(ambient())\n"
        )
        result = lint_paths([root], rule_ids=["determinism.rng-flow"])
        assert any("entropy" in v.message for v in result.violations)


class TestCarveOutIsVoidable:
    def test_worker_reachable_registration_voids_the_carve_out(self, tmp_path):
        """partition_good.py's registry idiom is legal *because* register()
        only runs at import time; make the worker call it and both the
        write and the reads become violations."""
        target = tmp_path / "repro" / "bench"
        target.mkdir(parents=True)
        source = (FIXTURES / "repro/bench/partition_good.py").read_text()
        mutated = source.replace(
            "def run_cell(name, counts):\n    factory = lookup(name)\n",
            "def run_cell(name, counts):\n"
            "    register(name, str)\n"
            "    factory = lookup(name)\n",
            1,
        )
        assert mutated != source
        (target / "partition_good.py").write_text(mutated)
        result = lint_paths([target], rule_ids=["sharding.partition-closure"])
        assert result.exit_code == 1
        messages = " | ".join(v.message for v in result.violations)
        assert "writes module-level `REGISTRY`" in messages
        assert "reads module-level mutable `REGISTRY`" in messages
