"""Release hygiene: docs present, API importable, examples compile
(and the sub-second ones run)."""

import os
import pathlib
import py_compile
import subprocess
import sys

import pytest


REPO = pathlib.Path(__file__).resolve().parent.parent


def test_documentation_files_exist_and_are_substantial():
    for name, minimum in (("README.md", 2000), ("DESIGN.md", 4000),
                          ("EXPERIMENTS.md", 4000),
                          ("docs/architecture.md", 3000)):
        path = REPO / name
        assert path.exists(), name
        assert len(path.read_text()) > minimum, name


def test_top_level_api_exports():
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), name
    assert repro.__version__ == "1.0.0"


def test_every_example_compiles():
    examples = sorted((REPO / "examples").glob("*.py"))
    assert len(examples) >= 5
    for script in examples:
        py_compile.compile(str(script), doraise=True)


@pytest.mark.parametrize("name", ["quickstart.py", "remote_shell.py"])
def test_fast_example_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(REPO / "examples" / name)],
                          cwd=REPO, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_every_example_has_a_docstring_and_main():
    for script in sorted((REPO / "examples").glob("*.py")):
        source = script.read_text()
        assert source.lstrip().startswith(("#!", '"""')), script.name
        assert "def main()" in source, script.name
        assert '__main__' in source, script.name


def test_public_modules_have_docstrings():
    import importlib

    for module_name in (
        "repro.sim.engine", "repro.phy.radio", "repro.phy.medium",
        "repro.mac.link", "repro.mac.poll", "repro.lowpan.frag",
        "repro.net.ipv6", "repro.net.rpl", "repro.net.pcap",
        "repro.core.connection", "repro.core.buffers",
        "repro.core.congestion", "repro.app.coap", "repro.app.cocoa",
        "repro.app.sensor", "repro.models.throughput",
        "repro.experiments.topology",
    ):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__) > 80, module_name


def test_benchmarks_cover_every_paper_artifact():
    names = "\n".join(p.name for p in (REPO / "benchmarks").glob("test_*.py"))
    for artifact in ("table1", "table2_3_4", "table5_6", "fig4", "fig5",
                     "table7", "fig6_7", "sec72", "eq2", "fig8", "fig9",
                     "fig10_table8", "table9", "appendixC", "ablations"):
        assert artifact in names, artifact
