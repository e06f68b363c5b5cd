"""Code fingerprints: closure walking, edits invalidate, tree fallback."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cache import fingerprint
from repro.cache.store import ResultCache
from repro.experiments.points import POINT_RUNNERS


@pytest.fixture(autouse=True)
def fresh_memo():
    fingerprint.clear_fingerprint_cache()
    yield
    fingerprint.clear_fingerprint_cache()


@pytest.fixture()
def fake_tree(tmp_path, monkeypatch):
    """A miniature package tree the walker treats as ``repro``."""
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "a.py").write_text("from . import b\nX = 1\n")
    (root / "b.py").write_text("import repro.c\nY = 2\n")
    (root / "c.py").write_text("Z = 3\n")
    (root / "lonely.py").write_text("L = 4\n")
    monkeypatch.setattr(fingerprint, "_package_root", lambda: root)
    return root


class TestClosure:
    def test_walks_transitive_imports(self, fake_tree):
        files = fingerprint.module_closure("repro.a")
        names = sorted(p.name for p in files)
        # a -> b (relative, which also pulls the package __init__)
        # -> c (absolute); lonely is unreachable.
        assert names == ["__init__.py", "a.py", "b.py", "c.py"]

    def test_unknown_module_raises(self, fake_tree):
        with pytest.raises(FileNotFoundError):
            fingerprint.module_closure("repro.missing")

    def test_out_of_package_module_raises(self, fake_tree):
        with pytest.raises(FileNotFoundError):
            fingerprint.module_closure("tests.cache.test_fingerprint")

    def test_relative_import_in_package_init(self, fake_tree):
        # ``from .sub import s`` in a package ``__init__`` is relative
        # to that package, and importing ``repro.pkg.sub.s`` runs all three
        # ``__init__`` files on the way.
        (fake_tree / "a.py").write_text("import repro.pkg\n")
        pkg = fake_tree / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("from .sub import s\n")
        sub = pkg / "sub"
        sub.mkdir()
        (sub / "__init__.py").write_text("")
        (sub / "s.py").write_text("from .. import helper\n")
        (pkg / "helper.py").write_text("H = 1\n")
        files = fingerprint.module_closure("repro.a")
        rel = sorted(str(p.relative_to(fake_tree)) for p in files)
        assert rel == [
            "__init__.py",
            "a.py",
            "pkg/__init__.py",
            "pkg/helper.py",
            "pkg/sub/__init__.py",
            "pkg/sub/s.py",
        ]

    def test_real_tree_closure_resolves(self):
        # Against the installed package: the sweep executor's module
        # reaches its spec types without pulling in the whole tree.
        files = fingerprint.module_closure("repro.parallel.pool")
        names = {p.name for p in files}
        assert "pool.py" in names
        assert "spec.py" in names


class TestRunnerFingerprint:
    def register(self, name, fn):
        POINT_RUNNERS[name] = fn
        return name

    def teardown_method(self):
        POINT_RUNNERS.pop("t-fake", None)

    def test_edit_changes_fingerprint(self, fake_tree):
        fake = type("R", (), {})()
        fake.__module__ = "repro.a"
        self.register("t-fake", fake)
        before = fingerprint.runner_fingerprint("t-fake")
        # Editing a transitively imported file must invalidate, even
        # though a.py itself is untouched (the dirty-worktree case).
        (fake_tree / "c.py").write_text("Z = 4  # edited\n")
        fingerprint.clear_fingerprint_cache()
        after = fingerprint.runner_fingerprint("t-fake")
        assert before != after

    def test_unreachable_edit_keeps_fingerprint(self, fake_tree):
        fake = type("R", (), {})()
        fake.__module__ = "repro.a"
        self.register("t-fake", fake)
        before = fingerprint.runner_fingerprint("t-fake")
        (fake_tree / "lonely.py").write_text("L = 5\n")
        fingerprint.clear_fingerprint_cache()
        assert fingerprint.runner_fingerprint("t-fake") == before

    def test_scratch_runner_falls_back_to_tree(self):
        def scratch(spec, scale):  # defined outside the repro package
            return None

        self.register("t-fake", scratch)
        value = fingerprint.runner_fingerprint("t-fake")
        assert value == fingerprint.tree_fingerprint()

    def test_unknown_runner_falls_back_to_tree(self):
        value = fingerprint.runner_fingerprint("no-such-runner")
        assert value == fingerprint.tree_fingerprint()

    def test_memoized_per_key(self, fake_tree):
        fake = type("R", (), {})()
        fake.__module__ = "repro.a"
        self.register("t-fake", fake)
        first = fingerprint.runner_fingerprint("t-fake")
        # A disk edit without clearing the memo is invisible (one stat
        # of the tree per process, by design)...
        (fake_tree / "a.py").write_text("X = 99\n")
        assert fingerprint.runner_fingerprint("t-fake") == first
        # ...and visible after the cache is dropped.
        fingerprint.clear_fingerprint_cache()
        assert fingerprint.runner_fingerprint("t-fake") != first


class TestImportMemo:
    @pytest.fixture()
    def fake_runner(self, fake_tree):
        fake = type("R", (), {})()
        fake.__module__ = "repro.a"
        POINT_RUNNERS["t-fake"] = fake
        yield "t-fake"
        POINT_RUNNERS.pop("t-fake", None)

    @pytest.fixture()
    def parsed(self, monkeypatch):
        """Paths ``ast``-parsed from here on."""
        paths = []
        real_parse = fingerprint._parse_imports

        def counting(source, path):
            paths.append(path.name)
            return real_parse(source, path)

        monkeypatch.setattr(fingerprint, "_parse_imports", counting)
        return paths

    def test_memo_spares_parsing(self, fake_runner, fake_tree, tmp_path, parsed):
        memo = tmp_path / "imports"
        first = fingerprint.runner_fingerprint(fake_runner, memo)
        assert sorted(parsed) == ["__init__.py", "a.py", "b.py", "c.py"]
        assert len(list(memo.rglob("*.json"))) == 4
        fingerprint.clear_fingerprint_cache()
        del parsed[:]
        assert fingerprint.runner_fingerprint(fake_runner, memo) == first
        assert parsed == []
        # An edited file has new bytes, so a new key: parsed again.
        (fake_tree / "b.py").write_text("Y = 2\n")
        fingerprint.clear_fingerprint_cache()
        assert fingerprint.runner_fingerprint(fake_runner, memo) != first
        assert parsed == ["b.py"]

    def test_corrupt_memo_entry_is_reparsed(self, fake_runner, tmp_path, parsed):
        memo = tmp_path / "imports"
        first = fingerprint.runner_fingerprint(fake_runner, memo)
        for entry in memo.rglob("*.json"):
            entry.write_text("{not json")
        fingerprint.clear_fingerprint_cache()
        del parsed[:]
        assert fingerprint.runner_fingerprint(fake_runner, memo) == first
        assert len(parsed) == 4

    def test_store_keeps_and_clears_the_memo(self, tmp_path):
        cache = ResultCache(str(tmp_path / "store"))
        value = cache.fingerprint_for("iperf_flows")
        assert list((tmp_path / "store" / "imports").rglob("*.json"))
        fingerprint.clear_fingerprint_cache()
        assert cache.fingerprint_for("iperf_flows") == value
        cache.clear()
        assert not (tmp_path / "store" / "imports").exists()


# One small cell per registered runner: (mode, x, payload expression).
# The payload is built in the child from names the runner's module
# already imports, so the child loads nothing the cell would not.
CELLS = {
    "iperf_flows": ("strict", 2, "None"),
    "iperf_ring": ("fns", 256, "None"),
    "iperf_l3_entries": ("strict", 32, "None"),
    "iperf_aging": ("strict", 0, "None"),
    "iperf_walkers": ("strict", 1, "None"),
    "iperf_ddio": ("strict", "on", "None"),
    "iperf_descriptor_pages": ("fns", 1, "None"),
    "netperf_rpc": ("strict", 4096, "None"),
    "bidir_iperf": ("strict", 1, "None"),
    "redis": ("fns", 8192, "None"),
    "nginx": ("strict", 131072, "None"),
    "spdk": ("strict", 32768, "None"),
    "fault_row": (
        "strict",
        "t",
        "(faults.FaultPlan(seed=1, name='t', specs=("
        "faults.FaultSpec('pcie', 'nack-replay', probability=0.5,"
        " magnitude=1000.0),)), 2)",
    ),
    "chaos_row": (
        "fns",
        "t",
        "(faults.FaultPlan(seed=1, name='t', specs=("
        "faults.FaultSpec('iommu', 'fault-storm', probability=0.01),)), 2, True)",
    ),
}

CELL_CODE = """
import json, sys
from repro.experiments import points
faults = sys.modules["repro.faults"]
runner, mode, x = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
spec = points.PointSpec(
    figure="T", runner=runner, mode=mode, x=x, label="t", seed=1,
    payload=eval(sys.argv[4]),
)
scale = points.RunScale("tiny", 200_000.0, 300_000.0, 500_000.0)
points.POINT_RUNNERS[runner](spec, scale)
print(json.dumps(sorted(
    module.__file__ for name, module in list(sys.modules.items())
    if name == "repro" or name.startswith("repro.")
)))
"""


def test_every_runner_has_a_cell():
    assert sorted(CELLS) == sorted(POINT_RUNNERS)


@pytest.mark.parametrize("runner", sorted(CELLS))
def test_closure_covers_every_module_a_cell_imports(runner):
    """A cell run in a fresh interpreter imports only closure files.

    Otherwise an edit to a missed file would leave that runner's
    cached cells valid.
    """
    mode, x, payload = CELLS[runner]
    src_dir = str(pathlib.Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", CELL_CODE, runner, mode, json.dumps(x), payload],
        capture_output=True,
        text=True,
        env={
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": src_dir,
        },
    )
    assert result.returncode == 0, result.stderr
    loaded = {pathlib.Path(path) for path in json.loads(result.stdout)}
    closure = set(
        fingerprint.module_closure(POINT_RUNNERS[runner].__module__)
    )
    assert loaded - closure == set()


def test_tree_fingerprint_is_stable_and_memoized():
    assert fingerprint.tree_fingerprint() == fingerprint.tree_fingerprint()
