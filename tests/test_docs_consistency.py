"""Consistency checks between documentation and the repository.

Docs that reference files which do not exist rot silently; these tests
keep README.md, DESIGN.md, EXPERIMENTS.md, the CLI examples in docs/,
CONTRIBUTING.md, the verify skill and the lint rule docs anchored to
reality.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _read(name: str) -> str:
    return (ROOT / name).read_text()


class TestReadme:
    def test_example_table_files_exist(self):
        for match in re.finditer(r"`examples/([\w.]+\.py)`", _read("README.md")):
            assert (ROOT / "examples" / match.group(1)).exists(), match.group(0)

    def test_quickstart_snippet_runs(self):
        """The README's quickstart code (default windows) must reproduce
        its advertised numbers (~88 MB/s at ~0.98)."""
        from repro import CombSuite, gm_system

        suite = CombSuite(gm_system())
        pt = suite.polling(msg_bytes=100 * 1024, poll_interval_iters=10_000)
        assert 84 < pt.bandwidth_MBps < 93
        assert pt.availability > 0.95

    def test_cli_commands_listed_exist(self):
        """Every ``comb <cmd>`` line in the docs names a real subcommand
        (env assignments such as ``COMB_COMPILED=1`` may prefix it)."""
        from repro.cli import _build_parser

        parser = _build_parser()
        sub = next(a for a in parser._actions
                   if hasattr(a, "choices") and a.choices)
        known = set(sub.choices)
        docs = [ROOT / "README.md", ROOT / "CONTRIBUTING.md",
                ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
                *sorted((ROOT / "docs").glob("*.md"))]
        line = re.compile(r"^\s*(?:[A-Z_]+=\S*\s+)*comb (\w+)", re.M)
        for doc in docs:
            for cmd in line.findall(doc.read_text()):
                assert cmd in known, \
                    f"{doc.name} documents unknown command {cmd!r}"


class TestDesign:
    def test_inventory_packages_exist(self):
        text = _read("DESIGN.md")
        for match in re.finditer(r"`repro\.(\w+)`", text):
            pkg = ROOT / "src" / "repro" / match.group(1)
            assert pkg.exists() or pkg.with_suffix(".py").exists(), \
                match.group(0)

    def test_all_14_figures_indexed(self):
        text = _read("DESIGN.md")
        for i in range(4, 18):
            assert f"Fig {i} " in text or f"Fig {i}|" in text or \
                f"| Fig {i} " in text, f"Fig {i} missing from index"


class TestExperiments:
    def test_example_references_exist(self):
        text = _read("EXPERIMENTS.md")
        for match in re.finditer(r"`examples/([\w.]+\.py)`", text):
            assert (ROOT / "examples" / match.group(1)).exists(), \
                match.group(0)

    def test_stated_constants_match_config(self):
        """EXPERIMENTS.md's calibration table quotes live config values."""
        from repro.config import gm_system

        gm = gm_system()
        text = _read("EXPERIMENTS.md")
        assert "45 / 5 µs" in text
        assert gm.gm.eager_isend_s == pytest.approx(45e-6)
        assert gm.gm.rndv_isend_s == pytest.approx(5e-6)
        assert "91 MB/s" in text
        assert gm.machine.nic.host_dma_bandwidth_Bps == pytest.approx(91e6)


class TestMechanismCitations:
    def test_cited_mechanism_tests_exist(self):
        """Every ``test_mechanisms.py::<name>`` that DESIGN.md or
        EXPERIMENTS.md cites is a test function in that file."""
        import ast

        tree = ast.parse((ROOT / "tests" / "test_mechanisms.py").read_text())
        defined = {node.name for node in tree.body
                   if isinstance(node, ast.FunctionDef)
                   and node.name.startswith("test_")}
        cited = set()
        for doc in ("DESIGN.md", "EXPERIMENTS.md"):
            cited.update(re.findall(r"test_mechanisms\.py::(\w+)", _read(doc)))
        assert cited, "the docs cite no mechanism test"
        assert cited <= defined, sorted(cited - defined)


class TestApiReference:
    def test_api_md_is_current(self):
        """docs/api.md is what tools/gen_api_docs.py generates today.

        The tool runs in a fresh interpreter: this process may already
        have loaded the compiled core, which the reference leaves out.
        """
        code = ("import sys, gen_api_docs; "
                "sys.stdout.write(gen_api_docs.api_text())")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                               str(ROOT / "tools")]),
                   PYTHONIOENCODING="utf-8")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, encoding="utf-8",
                             check=True).stdout
        assert out == _read("docs/api.md"), (
            "docs/api.md is stale; regenerate it with "
            "`PYTHONPATH=src python tools/gen_api_docs.py`")


class TestLintDocs:
    """The rule docs name exactly the registered rules: a deleted rule
    must take its documentation with it, and a new one must bring some."""

    def test_rule_catalog_headings_match_registry(self):
        from repro.lint import rule_catalog

        headings = re.findall(r"^## ([A-Z]+\d{3}) —",
                              _read("docs/lint_rules.md"), re.M)
        assert sorted(headings) == sorted([*rule_catalog(), "PARSE001"])

    def test_architecture_rule_table_matches_registry(self):
        from repro.lint import rule_catalog

        rows = re.findall(r"^\| `([A-Z]+\d{3})`",
                          _read("docs/architecture.md"), re.M)
        assert sorted(rows) == sorted(rule_catalog())
