"""Tests for the command-line interface."""

import pytest

from repro.cli import COMMANDS, main
from repro.experiments import FIGURES, settings


@pytest.fixture(autouse=True)
def fast_quick(monkeypatch):
    """Shrink the quick scale so CLI tests stay fast."""
    micro = settings.RunScale(
        name="micro",
        warmup_ns=800_000.0,
        measure_ns=1_500_000.0,
        latency_measure_ns=3_000_000.0,
    )
    monkeypatch.setattr("repro.cli.QUICK", micro)


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in FIGURES:
        assert name in out


def test_unknown_figure_errors(capsys):
    assert main(["fig99"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_runs_one_figure(capsys):
    assert main(["fig12"]) == 0
    out = capsys.readouterr().out
    assert "Fig 12" in out
    assert "fns" in out


def test_out_file_appended(tmp_path, capsys):
    target = tmp_path / "tables.txt"
    assert main(["fig12", "--out", str(target)]) == 0
    capsys.readouterr()
    assert "Fig 12" in target.read_text()


def test_jobs_flag_runs_figure(capsys):
    assert main(["fig12", "--jobs", "2"]) == 0
    assert "Fig 12" in capsys.readouterr().out


# Each case carries its id, so adding or removing one renames no other.
# The ids are the positional names the cases had before they were
# fixed; a new case takes a descriptive one.
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["fig12", "--jobs", "-1"], id="argv0"),
        pytest.param(["fig12", "--jobs", "2", "--chunk", "0"], id="argv1"),
        pytest.param(["run", "fig12", "--jobs", "two"], id="argv2"),
        pytest.param(["reproduce", "--jobs", "-1"], id="argv3"),
        pytest.param(["reproduce", "--jobs", "2", "--chunk", "0"], id="argv4"),
        pytest.param(["chaos", "--jobs", "-1"], id="argv5"),
        pytest.param(["chaos", "--chunk", "0"], id="argv6"),
        pytest.param(["chaos", "--seeds", "0"], id="argv7"),
        pytest.param(["reproduce", "--figures", ""], id="argv8"),
        pytest.param(["reproduce", "--figures", ","], id="argv9"),
        # No such command: each former "publish" call is read as an
        # unknown figure.
        pytest.param(["publish", "out", "--figures", ""], id="argv10"),
        pytest.param(["publish", "out", "--format", "svg"], id="argv11"),
        pytest.param(["analyze", "--format", "json"], id="argv12"),
        pytest.param(["publish", "out", "--style", "arxiv"], id="argv13"),
    ],
)
def test_bad_values_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    # Rejected while parsing: nothing runs, nothing is written, and
    # the exit status is argparse's 2 with a usage line.
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "usage: repro" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_command_is_parsed_by_the_one_tree(command, capsys):
    # No command parses its own argument list: each row declares its
    # options, and its --help comes from the shared argparse tree.
    options = COMMANDS[command][3]
    assert isinstance(options, tuple) and options
    assert main([command, "--help"]) == 0
    assert f"usage: repro {command}" in capsys.readouterr().out
