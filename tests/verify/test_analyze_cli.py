"""End-to-end tests for the ``repro analyze`` command line, and for the
file discovery and ``# noqa`` handling it runs on."""

import json
from pathlib import Path

import pytest

import repro
from repro.cli import main as repro_main
from repro.verify.analyze import analyze_project
from repro.verify.analyze.engine import main as analyze_main
from repro.verify.analyze.project import ProjectModel
from repro.verify.sources import iter_python_files

FIXTURES = Path(__file__).parent / "fixtures"
BAD = str(FIXTURES / "bad_branchy_driver.py")
GOOD = str(FIXTURES / "good_robust_retry.py")
WALLCLOCK = "import time\nt = time.time()\n"


def run(args, capsys):
    code = analyze_main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Exit codes and text output
# ---------------------------------------------------------------------------
def test_clean_input_exits_zero(capsys):
    code, out, _ = run([GOOD, "--no-baseline"], capsys)
    assert code == 0
    assert out == ""


def test_findings_exit_one_with_text(capsys):
    code, out, _ = run([BAD, "--no-baseline"], capsys)
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
    assert run([str(clean), "--no-baseline"], capsys)[0] == 0
    code, out, _ = run([str(tmp_path), "--no-baseline"], capsys)
    assert code == 1
    assert "REPRO001" in out
    assert "dirty.py" in out


def test_finding_format_is_parseable(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(WALLCLOCK)
    _, out, _ = run([str(dirty), "--no-baseline"], capsys)
    path, line, rest = out.strip().split(":", 2)
    assert path == str(dirty)
    assert int(line) == 2
    assert "REPRO001" in rest


def test_syntax_error_reported_not_crashed(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n    pass\n")
    code, out, _ = run([str(broken), "--no-baseline"], capsys)
    assert code == 1
    assert "REPRO000" in out


def test_dispatch_through_repro_cli(capsys):
    assert repro_main(["analyze", GOOD, "--no-baseline"]) == 0


def test_repro_cli_clean_tree(capsys):
    src_pkg = str(Path(repro.__file__).parent)
    assert repro_main(["analyze", src_pkg, "--no-baseline"]) == 0


def test_repro_cli_reports_determinism_finding(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nstamp = time.time()\n")
    assert repro_main(["analyze", str(bad), "--no-baseline"]) == 1
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


# ---------------------------------------------------------------------------
# Structured output
# ---------------------------------------------------------------------------
def test_json_output_parses(capsys):
    code, out, _ = run([BAD, "--no-baseline", "--format", "json"], capsys)
    assert code == 1
    document = json.loads(out)
    assert document["tool"] == "repro-analyze"
    assert document["count"] == 1
    finding = document["findings"][0]
    assert finding["code"] == "REPRO004"
    assert finding["path"].endswith("bad_branchy_driver.py")


def test_json_output_reports_determinism_finding(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(WALLCLOCK)
    code, out, _ = run([str(dirty), "--no-baseline", "--format", "json"],
                       capsys)
    assert code == 1
    document = json.loads(out)
    assert document["count"] == 1
    assert document["findings"][0]["code"] == "REPRO001"
    assert document["findings"][0]["line"] == 2


def test_json_output_clean(capsys):
    code, out, _ = run([GOOD, "--no-baseline", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_sarif_output_shape(capsys):
    code, out, _ = run([BAD, "--no-baseline", "--format", "sarif"], capsys)
    assert code == 1
    document = json.loads(out)
    assert document["version"] == "2.1.0"
    run_ = document["runs"][0]
    assert run_["tool"]["driver"]["name"] == "repro-analyze"
    rule_ids = {rule["id"] for rule in run_["tool"]["driver"]["rules"]}
    # Every analyzer rule is described even when it did not fire.
    assert {"REPRO001", "REPRO002", "REPRO003", "REPRO004", "REPRO101",
            "REPRO102", "REPRO103", "REPRO104"} <= rule_ids
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
    code, out, _ = run([str(dirty), "--no-baseline", "--format", "sarif"],
                       capsys)
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
    code, out, _ = run([GOOD, "--no-baseline", "--format", "sarif"], capsys)
    assert code == 0
    assert json.loads(out)["runs"][0]["results"] == []


# ---------------------------------------------------------------------------
# Baseline workflow
# ---------------------------------------------------------------------------
def test_baseline_accepts_then_suppresses(tmp_path, capsys):
    baseline = str(tmp_path / "baseline.json")
    code, out, _ = run([BAD, "--baseline", baseline, "--write-baseline"],
                       capsys)
    assert code == 0
    assert "wrote 1 finding(s)" in out
    entries = json.loads(Path(baseline).read_text())["entries"]
    assert entries[0]["code"] == "REPRO004"
    assert len(entries[0]["fingerprint"]) == 16

    # With the baseline: clean exit, finding suppressed.
    code, out, err = run([BAD, "--baseline", baseline], capsys)
    assert code == 0
    assert out == ""
    assert "1 baselined finding(s) suppressed" in err

    # Ignoring it brings the finding back.
    code, out, _ = run([BAD, "--baseline", baseline, "--no-baseline"],
                       capsys)
    assert code == 1


def test_missing_baseline_file_means_empty(tmp_path, capsys):
    code, _, _ = run(
        [BAD, "--baseline", str(tmp_path / "absent.json")], capsys
    )
    assert code == 1


def test_baseline_survives_line_drift(tmp_path, capsys):
    baseline = str(tmp_path / "baseline.json")
    original = Path(BAD).read_text()
    drifted = tmp_path / "drifted.py"
    drifted.write_text(original)
    code, _, _ = run(
        [str(drifted), "--baseline", baseline, "--write-baseline"], capsys
    )
    assert code == 0
    # Shift every line down: the flagged line's text is unchanged, so
    # the fingerprint still matches.
    fingerprints = {
        entry["fingerprint"]
        for entry in json.loads(Path(baseline).read_text())["entries"]
    }
    drifted.write_text("# a new leading comment\n" + original)
    code, out, _ = run([str(drifted), "--baseline", baseline], capsys)
    assert code == 0, out
    drifted_prints = set()
    run([str(drifted), "--baseline", str(tmp_path / "b2.json"),
         "--write-baseline"], capsys)
    drifted_prints = {
        entry["fingerprint"]
        for entry in json.loads((tmp_path / "b2.json").read_text())[
            "entries"
        ]
    }
    assert drifted_prints == fingerprints


# ---------------------------------------------------------------------------
# The committed repo baseline contract
# ---------------------------------------------------------------------------
def test_committed_baseline_is_empty():
    document = json.loads(
        (Path(__file__).parents[2] / "analyze-baseline.json").read_text()
    )
    assert document["tool"] == "repro-analyze"
    assert document["entries"] == []


def test_noqa_suppresses_analyzer_finding(tmp_path, capsys):
    source = Path(BAD).read_text()
    patched = source.replace(
        "self.iommu.unmap_range(slot.iova, slot.length)",
        "self.iommu.unmap_range(slot.iova, slot.length)"
        "  # noqa: REPRO004",
    )
    target = tmp_path / "suppressed.py"
    target.write_text(patched)
    code, out, _ = run([str(target), "--no-baseline"], capsys)
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
