"""Tests for the comb-lint static analyzer (src/repro/lint/).

Each rule has a deliberately violating fixture module and a clean
counterpart under tests/lint_fixtures/.  Violating lines are annotated
in-source with ``# expect: RULE`` comments; the tests assert the linter
reports exactly those (rule, line) pairs — no more, no fewer.
"""

import json
import re
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint import (
    all_rule_classes,
    format_json,
    format_sarif,
    lint_paths,
    rule_catalog,
    sarif_log,
)

FIXTURES = Path(__file__).parent / "lint_fixtures"
SIM_FIX = FIXTURES / "repro" / "sim"
ANALYSIS_FIX = FIXTURES / "repro" / "analysis"

_EXPECT_RE = re.compile(r"#\s*expect:\s*([A-Z]+[0-9]{3})")


def expected_hits(path):
    """(rule, line) pairs parsed from ``# expect: RULE`` annotations."""
    hits = set()
    for lineno, text in enumerate(path.read_text().splitlines(), start=1):
        m = _EXPECT_RE.search(text)
        if m:
            hits.add((m.group(1), lineno))
    assert hits, f"fixture {path} has no '# expect:' annotations"
    return hits


def actual_hits(report):
    return {(v.rule, v.line) for v in report.violations}


BAD_FIXTURES = [
    SIM_FIX / "det001_bad.py",
    SIM_FIX / "det002_bad.py",
    SIM_FIX / "det003_bad.py",
    SIM_FIX / "det004_bad.py",
    SIM_FIX / "det005_bad.py",
    SIM_FIX / "sim001_bad.py",
    ANALYSIS_FIX / "unit001_bad.py",
    ANALYSIS_FIX / "unit002_bad.py",
]

OK_FIXTURES = [
    SIM_FIX / "det001_ok.py",
    SIM_FIX / "det002_ok.py",
    SIM_FIX / "det003_ok.py",
    SIM_FIX / "det004_ok.py",
    SIM_FIX / "det005_ok.py",
    SIM_FIX / "sim001_ok.py",
    ANALYSIS_FIX / "unit001_ok.py",
    ANALYSIS_FIX / "unit002_ok.py",
]

#: Rules validated by whole-tree fixtures (*_bad/ vs *_ok/ directories)
#: rather than single-file ones: they key on project structure
#: (executor facts, the schema registry) or on module path tails.
TREE_FIXTURE_RULES = {
    "CACHE001": "cacheproj",
    "EXEC001": "execproj",
    "OBS001": "obsproj",
    "SIM002": "sim002",
}


def tree_expected_hits(tree):
    hits = set()
    for path in sorted(tree.rglob("*.py")):
        for lineno, text in enumerate(
            path.read_text().splitlines(), start=1
        ):
            m = _EXPECT_RE.search(text)
            if m:
                hits.add((m.group(1), lineno))
    return hits


@pytest.mark.parametrize(
    "fixture", BAD_FIXTURES, ids=[p.stem for p in BAD_FIXTURES]
)
def test_bad_fixture_reports_each_annotated_line(fixture):
    report = lint_paths([fixture])
    assert actual_hits(report) == expected_hits(fixture)
    for v in report.violations:
        assert v.path.endswith(fixture.name)
        assert v.severity == "error"
        assert v.message


@pytest.mark.parametrize(
    "fixture", OK_FIXTURES, ids=[p.stem for p in OK_FIXTURES]
)
def test_ok_fixture_is_clean(fixture):
    report = lint_paths([fixture])
    assert report.ok, [v.to_dict() for v in report.violations]
    assert not report.violations
    assert not report.parse_errors


def test_every_rule_has_a_bad_and_ok_fixture():
    fixture_rules = {p.stem.split("_")[0].upper() for p in BAD_FIXTURES}
    fixture_rules |= set(TREE_FIXTURE_RULES)
    for cls in all_rule_classes():
        assert cls.rule_id in fixture_rules
    for stem in TREE_FIXTURE_RULES.values():
        assert (FIXTURES / f"{stem}_bad").is_dir()
        assert (FIXTURES / f"{stem}_ok").is_dir()


@pytest.mark.parametrize(
    "rule,stem",
    sorted(TREE_FIXTURE_RULES.items()),
    ids=sorted(TREE_FIXTURE_RULES),
)
def test_tree_fixture_bad_and_ok(rule, stem):
    if rule == "CACHE001":
        pytest.skip("cacheproj asserts message content separately below")
    bad = FIXTURES / f"{stem}_bad"
    report = lint_paths([bad])
    assert actual_hits(report) == tree_expected_hits(bad)
    assert {v.rule for v in report.violations} == {rule}

    ok_report = lint_paths([FIXTURES / f"{stem}_ok"])
    assert ok_report.ok, [v.to_dict() for v in ok_report.violations]


def test_exclude_skips_directory_components():
    tests_dir = Path(__file__).parent
    report = lint_paths(
        [tests_dir / "lint_fixtures"], exclude={"lint_fixtures"}
    )
    assert report.files_checked == 0
    assert report.ok


# ------------------------------------------------------------- suppressions


def test_inline_and_filewide_suppressions():
    report = lint_paths([SIM_FIX / "suppressed.py"])
    # Only the second, unsuppressed time.time() call gates.
    assert [(v.rule, v.line) for v in report.violations] == [("DET001", 15)]
    waived = {(v.rule, v.line) for v in report.suppressed}
    assert ("DET001", 14) in waived  # inline disable=DET001
    assert ("DET004", 16) in waived  # file-wide disable-file=DET004


# ------------------------------------------------------------ CACHE001


def test_cache001_bad_project():
    report = lint_paths([FIXTURES / "cacheproj_bad"])
    rules = [v.rule for v in report.violations]
    assert rules == ["CACHE001"] * 5
    messages = " | ".join(v.message for v in report.violations)
    assert "no longer hashes 'system'" in messages
    assert "_SALT_SOURCES" in messages
    assert "Set is unordered" in messages
    assert "ClassVar" in messages
    assert "Any is not hash-stable" in messages


def test_cache001_ok_project():
    report = lint_paths([FIXTURES / "cacheproj_ok"])
    assert report.ok, [v.to_dict() for v in report.violations]


# ---------------------------------------------------------- fingerprints


def test_fingerprint_survives_line_shift(tmp_path, monkeypatch):
    source = (ANALYSIS_FIX / "unit001_bad.py").read_text()
    target = tmp_path / "repro" / "analysis" / "unit001_bad.py"
    target.parent.mkdir(parents=True)
    target.write_text(source)

    monkeypatch.chdir(tmp_path)
    before = [v.fingerprint() for v in lint_paths([target]).violations]

    # Shift every violation down three lines; fingerprints must hold.
    target.write_text("# padding comment\n" * 3 + source)
    after = lint_paths([target]).violations
    assert before and [v.fingerprint() for v in after] == before
    assert all(v.line > 3 for v in after)


# ---------------------------------------------------------------- gate


def test_real_tree_is_clean():
    """The acceptance gate: ``comb lint src/`` exits 0."""
    report = lint_paths([Path(__file__).parent.parent / "src"])
    assert report.ok, [v.to_dict() for v in report.violations]
    assert not report.violations
    assert not report.parse_errors
    assert report.files_checked > 50


# ----------------------------------------------------------------- SARIF


def _sarif_schema():
    path = Path(__file__).parent / "data" / "sarif-2.1.0-subset.schema.json"
    return json.loads(path.read_text())


def test_sarif_log_validates_against_schema():
    jsonschema = pytest.importorskip("jsonschema")
    report = lint_paths([SIM_FIX / "det001_bad.py"])
    doc = sarif_log(report)
    jsonschema.validate(doc, _sarif_schema())
    (run,) = doc["runs"]
    assert run["tool"]["driver"]["name"] == "comb-lint"
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert rule_ids == sorted(rule_ids)
    for result in run["results"]:
        assert rule_ids[result["ruleIndex"]] == result["ruleId"]
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1
        assert region["startColumn"] >= 1  # SARIF columns are 1-based
        assert "combLintFingerprint/v1" in result["partialFingerprints"]


def test_sarif_marks_suppressed_in_source():
    jsonschema = pytest.importorskip("jsonschema")
    report = lint_paths([SIM_FIX / "suppressed.py"])
    assert report.violations and report.suppressed
    doc = sarif_log(report)
    jsonschema.validate(doc, _sarif_schema())
    kinds = [
        s["kind"]
        for result in doc["runs"][0]["results"]
        for s in result.get("suppressions", [])
    ]
    assert kinds == ["inSource"] * len(report.suppressed)
    gating = [
        r for r in doc["runs"][0]["results"] if "suppressions" not in r
    ]
    assert len(gating) == len(report.violations)


def test_format_sarif_is_deterministic_json():
    report = lint_paths([SIM_FIX / "det002_bad.py"])
    text = format_sarif(report)
    assert text == format_sarif(report)
    assert json.loads(text)["version"] == "2.1.0"


def test_cli_sarif_output(capsys, tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    rc = cli_main(
        [
            "lint",
            str(SIM_FIX / "det001_bad.py"),
            "--format=sarif",
        ]
    )
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, _sarif_schema())
    assert doc["version"] == "2.1.0"

    rc = cli_main(
        [
            "lint",
            str(SIM_FIX / "det001_ok.py"),
            "--format=sarif",
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, _sarif_schema())
    assert doc["runs"][0]["results"] == []


# ----------------------------------------------------------------- CLI


def test_cli_json_output(capsys):
    rc = cli_main(
        [
            "lint",
            str(SIM_FIX / "det001_bad.py"),
            "--format=json",
        ]
    )
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert doc["counts"]["new"] == 4
    assert doc["by_rule"] == {"DET001": 4}
    assert all(v["rule"] == "DET001" for v in doc["violations"])


def test_cli_select_filters_rules(capsys):
    rc = cli_main(
        [
            "lint",
            str(ANALYSIS_FIX / "unit001_bad.py"),
            "--select",
            "UNIT002",
        ]
    )
    capsys.readouterr()
    assert rc == 0  # UNIT001 hits filtered out by --select UNIT002


def test_cli_rejects_unknown_select_rule(capsys):
    rc = cli_main(["lint", str(FIXTURES), "--select", "UNIT999"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "UNIT999" in err
    for rule_id in rule_catalog():
        assert rule_id in err


def test_cli_rejects_missing_path(capsys, tmp_path):
    missing = tmp_path / "srcc"
    rc = cli_main(["lint", str(missing)])
    assert rc == 2
    captured = capsys.readouterr()
    assert str(missing) in captured.err
    assert "clean" not in captured.out


def test_cli_rejects_non_python_file(capsys, tmp_path):
    readme = tmp_path / "README.md"
    readme.write_text("# not Python\n")
    rc = cli_main(["lint", str(readme)])
    assert rc == 2
    captured = capsys.readouterr()
    assert str(readme) in captured.err
    assert "clean" not in captured.out


def test_cli_list_rules(capsys):
    rc = cli_main(["lint", "--list-rules"])
    assert rc == 0
    out = capsys.readouterr().out
    for cls in all_rule_classes():
        assert cls.rule_id in out


def test_format_json_is_deterministic():
    report = lint_paths([SIM_FIX / "det002_bad.py"])
    assert format_json(report) == format_json(report)


def test_rule_catalog_complete():
    catalog = rule_catalog()
    assert set(catalog) == {
        "DET001",
        "DET002",
        "DET003",
        "DET004",
        "DET005",
        "UNIT001",
        "UNIT002",
        "CACHE001",
        "EXEC001",
        "SIM001",
        "SIM002",
        "OBS001",
    }
    for summary in catalog.values():
        assert summary
