"""The code fingerprint: one digest of every ``.py`` file in the package."""

import pytest

from repro.cache import store
from repro.cache.store import ResultCache, tree_fingerprint
from repro.context import using
from repro.experiments.points import POINT_RUNNERS
from repro.experiments.settings import QUICK
from repro.parallel import PointSpec, run_points


@pytest.fixture()
def fake_tree(tmp_path, monkeypatch):
    """A miniature package tree the digest treats as ``repro``."""
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "a.py").write_text("from . import b\nX = 1\n")
    (root / "b.py").write_text("Y = 2\n")
    (root / "lonely.py").write_text("L = 4\n")  # imported by nothing
    sub = root / "sub"
    sub.mkdir()
    (sub / "__init__.py").write_text("")
    (sub / "s.py").write_text("S = 5\n")
    monkeypatch.setattr(store, "_PACKAGE_ROOT", root)
    tree_fingerprint.cache_clear()
    yield root
    tree_fingerprint.cache_clear()


def fresh_digest() -> str:
    """The digest as a new process would compute it."""
    tree_fingerprint.cache_clear()
    return tree_fingerprint()


class TestTreeFingerprint:
    def test_edit_changes_fingerprint(self, fake_tree):
        before = fresh_digest()
        (fake_tree / "b.py").write_text("Y = 3  # edited\n")
        assert fresh_digest() != before

    def test_edit_to_a_module_nothing_imports_changes_fingerprint(
        self, fake_tree
    ):
        before = fresh_digest()
        (fake_tree / "lonely.py").write_text("L = 5\n")
        assert fresh_digest() != before

    def test_nested_added_renamed_and_removed_files_change_fingerprint(
        self, fake_tree
    ):
        seen = {fresh_digest()}
        (fake_tree / "sub" / "s.py").write_text("S = 6\n")
        seen.add(fresh_digest())
        (fake_tree / "sub" / "t.py").write_text("")
        seen.add(fresh_digest())
        # Paths are hashed with the bytes: the same text under another
        # name is other code.
        (fake_tree / "lonely.py").rename(fake_tree / "alone.py")
        seen.add(fresh_digest())
        (fake_tree / "alone.py").unlink()
        seen.add(fresh_digest())
        assert len(seen) == 5

    def test_pycache_and_non_python_files_are_ignored(self, fake_tree):
        before = fresh_digest()
        cache = fake_tree / "__pycache__"
        cache.mkdir()
        (cache / "a.cpython-311.pyc").write_bytes(b"\x00compiled")
        (cache / "stray.py").write_text("Q = 1\n")
        (fake_tree / "sub" / "__pycache__").mkdir()
        (fake_tree / "sub" / "__pycache__" / "s.py").write_text("")
        (fake_tree / "notes.txt").write_text("not code\n")
        assert fresh_digest() == before

    def test_memoized_per_process(self, fake_tree):
        first = tree_fingerprint()
        # A disk edit without clearing the memo is invisible (one read
        # of the tree per process, by design)...
        (fake_tree / "a.py").write_text("X = 99\n")
        assert tree_fingerprint() == first
        # ...and visible to the next process.
        assert fresh_digest() != first


def test_tree_fingerprint_is_stable_and_memoized():
    assert tree_fingerprint() == tree_fingerprint()


def test_every_key_uses_the_tree_digest(tmp_path):
    assert ResultCache(str(tmp_path)).fingerprint_for() == tree_fingerprint()


def test_cached_run_writes_only_cell_objects(tmp_path):
    POINT_RUNNERS["t-square"] = lambda spec, scale: spec.x * spec.x
    try:
        cache = ResultCache(str(tmp_path / "store"))
        specs = [
            PointSpec(
                figure="T", runner="t-square", mode="off", x=x,
                label=f"T off x={x}", seed=x,
            )
            for x in (1, 2)
        ]
        with using(cache=cache):
            assert run_points(specs, QUICK) == [1, 4]
            assert run_points(specs, QUICK) == [1, 4]
    finally:
        POINT_RUNNERS.pop("t-square", None)
    assert cache.stats.stores == 2
    assert cache.stats.hits == 2
    # One on-disk format: no import memo beside the objects.
    assert [p.name for p in (tmp_path / "store").iterdir()] == ["objects"]
