"""End-to-end tests for the ``repro analyze`` command line, and for the
file discovery and ``# noqa`` handling it runs on."""

import json
from pathlib import Path

import pytest

import repro
from repro.cli import main as repro_main
from repro.verify.analyze import analyze_project
from repro.verify.analyze.project import ProjectModel
from repro.verify.sources import iter_python_files

FIXTURES = Path(__file__).parent / "fixtures"
BAD = str(FIXTURES / "bad_branchy_driver.py")
GOOD = str(FIXTURES / "good_robust_retry.py")
WALLCLOCK = "import time\nt = time.time()\n"


def run(args, capsys):
    code = repro_main(["analyze", *args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Exit codes and text output
# ---------------------------------------------------------------------------
def test_clean_input_exits_zero(capsys):
    code, out, _ = run([GOOD], capsys)
    assert code == 0
    assert out == ""


def test_findings_exit_one_with_text(capsys):
    code, out, _ = run([BAD], capsys)
    assert code == 1
    assert "REPRO004" in out
    assert "bad_branchy_driver.py" in out


def test_missing_path_exits_two(capsys):
    code, _, err = run(["no/such/tree"], capsys)
    assert code == 2
    assert "no such path" in err


def test_empty_input_exits_two(tmp_path, capsys):
    # An existing path with no .py file checks nothing; that must not
    # pass vacuously any more than a missing path does.
    notes = tmp_path / "README.md"
    notes.write_text("# not python\n")
    empty = tmp_path / "empty"
    empty.mkdir()
    for target in (notes, empty):
        code, _, err = run([str(target)], capsys)
        assert code == 2
        assert "no .py files" in err


def test_exit_codes_on_determinism_findings(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text(WALLCLOCK)
    assert run([str(clean)], capsys)[0] == 0
    code, out, _ = run([str(tmp_path)], capsys)
    assert code == 1
    assert "REPRO001" in out
    assert "dirty.py" in out


def test_finding_format_is_parseable(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(WALLCLOCK)
    _, out, _ = run([str(dirty)], capsys)
    path, line, rest = out.strip().split(":", 2)
    assert path == str(dirty)
    assert int(line) == 2
    assert "REPRO001" in rest


def test_syntax_error_reported_not_crashed(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n    pass\n")
    code, out, _ = run([str(broken)], capsys)
    assert code == 1
    assert "REPRO000" in out


def test_dispatch_through_repro_cli(capsys):
    assert repro_main(["analyze", GOOD]) == 0


def test_repro_cli_clean_tree(capsys):
    src_pkg = str(Path(repro.__file__).parent)
    assert repro_main(["analyze", src_pkg]) == 0


def test_repro_cli_reports_determinism_finding(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nstamp = time.time()\n")
    assert repro_main(["analyze", str(bad)]) == 1
    assert "REPRO001" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# --explain
# ---------------------------------------------------------------------------
def test_explain_known_code(capsys):
    code, out, _ = run(["--explain", "REPRO101"], capsys)
    assert code == 0
    assert "REPRO101" in out
    assert "use-after-unmap" in out


def test_explain_names_no_checking_engine(capsys):
    # One checker runs every rule, so the text names none.
    code, out, _ = run(["--explain", "REPRO004"], capsys)
    assert code == 0
    assert out.startswith("REPRO004 [unmap-without-invalidate] (dma-safety)")
    assert "checked by" not in out


def test_explain_unknown_code(capsys):
    code, _, err = run(["--explain", "REPRO999"], capsys)
    assert code == 2
    assert "unknown rule code" in err


@pytest.mark.parametrize("code, known", [
    ("REPRO104", False), ("REPRO106", False), ("REPRO105", True),
])
def test_explain_covers_exactly_the_shipped_rules(code, known, capsys):
    # REPRO104 and REPRO106 were retired; REPRO105 ships.
    status, out, err = run(["--explain", code], capsys)
    assert status == (0 if known else 2)
    assert (code in out) == known
    assert ("unknown rule code" in err) == (not known)


def test_help_lists_only_the_shipped_options(capsys):
    # analyze is an ordinary row of the one command table.
    assert repro_main(["analyze", "--help"]) == 0
    out = capsys.readouterr().out
    assert "usage: repro analyze" in out
    assert "{text,sarif}" in out
    assert "--explain" in out
    assert "baseline" not in out


# ---------------------------------------------------------------------------
# Structured output
# ---------------------------------------------------------------------------
def test_sarif_output_shape(capsys):
    code, out, _ = run([BAD, "--format", "sarif"], capsys)
    assert code == 1
    document = json.loads(out)
    assert document["version"] == "2.1.0"
    run_ = document["runs"][0]
    assert run_["tool"]["driver"]["name"] == "repro-analyze"
    rule_ids = {rule["id"] for rule in run_["tool"]["driver"]["rules"]}
    # Every analyzer rule is described even when it did not fire, and
    # so is REPRO000, the parse error the engine reports itself.
    assert rule_ids == {"REPRO000", "REPRO001", "REPRO002", "REPRO003",
                        "REPRO004", "REPRO101", "REPRO102", "REPRO103",
                        "REPRO105"}
    result = run_["results"][0]
    assert result["ruleId"] == "REPRO004"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith(
        "bad_branchy_driver.py"
    )
    assert location["region"]["startLine"] > 0


def test_sarif_determinism_hit_carries_rule_metadata(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(WALLCLOCK)
    code, out, _ = run([str(dirty), "--format", "sarif"], capsys)
    assert code == 1
    run_ = json.loads(out)["runs"][0]
    result = run_["results"][0]
    assert result["ruleId"] == "REPRO001"
    rule = run_["tool"]["driver"]["rules"][result["ruleIndex"]]
    assert rule["id"] == "REPRO001"
    assert rule["name"] == "wall-clock-or-global-rng"
    assert "Wall-clock" in rule["shortDescription"]["text"]
    assert "SeededRng" in rule["fullDescription"]["text"]


def test_sarif_clean_run_has_empty_results(capsys):
    code, out, _ = run([GOOD, "--format", "sarif"], capsys)
    assert code == 0
    assert json.loads(out)["runs"][0]["results"] == []


def test_noqa_suppresses_analyzer_finding(tmp_path, capsys):
    source = Path(BAD).read_text()
    patched = source.replace(
        "self.iommu.unmap_range(slot.iova, slot.length)",
        "self.iommu.unmap_range(slot.iova, slot.length)"
        "  # noqa: REPRO004",
    )
    target = tmp_path / "suppressed.py"
    target.write_text(patched)
    code, out, _ = run([str(target)], capsys)
    assert code == 0, out


# ---------------------------------------------------------------------------
# noqa parsing: comments only, never string literals
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "line, expected",
    [
        pytest.param("time.time()  # noqa: REPRO001", [], id="matching-code"),
        pytest.param(
            "time.time()  # noqa: REPRO002", ["REPRO001"], id="other-code"
        ),
        pytest.param("time.time()  # noqa", [], id="bare"),
        pytest.param(
            'time.time(), "see # noqa: REPRO001 in the docs"',
            ["REPRO001"],
            id="inside-string-literal",
        ),
        pytest.param(
            'time.time(), "# noqa text"  # noqa: REPRO001',
            [],
            id="comment-after-string",
        ),
    ],
)
def test_noqa_filter(line, expected):
    project = ProjectModel()
    project.add_source(
        f"import time\ndef now():\n    return {line}\n", "example.py"
    )
    assert [f.code for f in analyze_project(project)] == expected


# ---------------------------------------------------------------------------
# File discovery: caches and hidden trees are skipped
# ---------------------------------------------------------------------------
def test_iter_python_files_skips_cache_and_hidden(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "real.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "real.cpython-311.py").write_text(
        WALLCLOCK
    )
    (tmp_path / ".hidden").mkdir()
    (tmp_path / ".hidden" / "secret.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")

    found = sorted(str(p) for p in iter_python_files([str(tmp_path)]))
    assert found == [str(tmp_path / "pkg" / "real.py")]


def test_iter_python_files_explicit_file_always_yielded(tmp_path):
    cached = tmp_path / "__pycache__"
    cached.mkdir()
    target = cached / "odd.py"
    target.write_text("x = 1\n")
    assert [str(p) for p in iter_python_files([str(target)])] == [
        str(target)
    ]
