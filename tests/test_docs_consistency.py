"""Consistency checks between documentation and code.

Documentation that drifts from the code is worse than none; these tests
pin the claims README/DESIGN make to the actual public surface.
"""

from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def readme():
    return (REPO / "README.md").read_text()


@pytest.fixture(scope="module")
def design():
    return (REPO / "DESIGN.md").read_text()


class TestReadme:
    def test_quickstart_code_runs(self, readme):
        """The README quickstart snippet must execute verbatim."""
        import re

        blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
        assert blocks, "README must contain a python quickstart block"
        snippet = blocks[0]
        # Shrink the workload so the doc test stays fast.
        snippet = snippet.replace(
            'mnist_usps("mnist->usps", rng=0)',
            'mnist_usps("mnist->usps", samples_per_class=4, test_samples_per_class=2, rng=0)',
        ).replace(
            "CDCLConfig.small()", "CDCLConfig.fast(epochs=2, warmup_epochs=1)"
        )
        exec(compile(snippet, "<README quickstart>", "exec"), {})

    def test_all_examples_listed_exist(self, readme):
        for line in readme.splitlines():
            if line.strip().startswith("python examples/"):
                script = line.strip().split()[1]
                assert (REPO / script).exists(), f"README references missing {script}"

    def test_examples_dir_has_at_least_three(self):
        scripts = list((REPO / "examples").glob("*.py"))
        assert len(scripts) >= 3
        names = {s.name for s in scripts}
        assert "quickstart.py" in names


class TestDesign:
    def test_every_bench_target_exists(self, design):
        import re

        targets = set(
            re.findall(r"`((?:benchmarks|tests|tools|perfbench)/[a-z0-9_]+\.py)`", design)
        )
        assert any(t.startswith("benchmarks/") for t in targets), (
            "DESIGN.md must map experiments to bench targets"
        )
        for target in targets:
            assert (REPO / target).exists(), f"DESIGN.md references missing {target}"

    def test_packages_in_inventory_importable(self, design):
        import importlib
        import re

        packages = set(re.findall(r"`(repro\.[a-z_.]+)`", design))
        for name in packages:
            importlib.import_module(name)

    def test_experiments_md_exists_with_all_tables(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for artifact in ("Table I ", "Table II ", "Table III ", "Table IV ", "Figure 2 "):
            assert artifact in text, f"EXPERIMENTS.md missing {artifact.strip()}"
