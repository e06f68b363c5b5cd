"""Rule tests against the known-bad/known-good fixtures corpus.

The acceptance bar for the CFG-based REPRO004: it must catch the
branch-split and early-return stale paths that the lint's
class-closure heuristic provably misses — both directions are
asserted here (analyzer flags, lint stays quiet).
"""

from pathlib import Path

import pytest

import repro
from repro.verify.analyze import analyze_paths, analyze_project
from repro.verify.analyze.project import ProjectModel
from repro.verify.analyze.rules import HookGuardRule
from repro.verify.lint.engine import lint_source

FIXTURES = Path(__file__).parent / "fixtures"


def analyze_fixture(*names):
    project = ProjectModel()
    for name in names:
        path = FIXTURES / name
        project.add_source(path.read_text(), str(path))
    return analyze_project(project)


def analyze_source(source, path="example.py"):
    project = ProjectModel()
    project.add_source(source, path)
    return analyze_project(project)


def codes(findings):
    return [finding.code for finding in findings]


# ---------------------------------------------------------------------------
# REPRO004: the CFG upgrade vs the lint heuristic
# ---------------------------------------------------------------------------
def test_branchy_unmap_flagged_by_analyzer():
    findings = analyze_fixture("bad_branchy_driver.py")
    assert codes(findings) == ["REPRO004"]
    assert "return without an IOTLB invalidation" in findings[0].message


def test_branchy_unmap_missed_by_lint_heuristic():
    source = (FIXTURES / "bad_branchy_driver.py").read_text()
    lint_codes = [f.code for f in lint_source(source, "bad.py")]
    assert "REPRO004" not in lint_codes


def test_early_return_flagged_by_analyzer():
    findings = analyze_fixture("bad_early_return.py")
    assert codes(findings) == ["REPRO004"]
    assert findings[0].line == 18  # the unmap call site


def test_early_return_missed_by_lint_heuristic():
    source = (FIXTURES / "bad_early_return.py").read_text()
    lint_codes = [f.code for f in lint_source(source, "bad.py")]
    assert "REPRO004" not in lint_codes


def test_retry_loop_without_rearm_flagged():
    findings = analyze_fixture("bad_retry_driver.py")
    assert codes(findings) == ["REPRO004"]
    assert "without re-arming" in findings[0].message


def test_reuse_while_pending_flagged():
    findings = analyze_source(
        """
class Driver:
    pass


class ReuseDriver(Driver):
    def recycle(self, slot, frame):
        self.iommu.unmap_range(slot.iova, slot.length)
        return self.iommu.map_page(slot.iova, frame)
"""
    )
    # Two distinct defects on the same unmap: the reuse while pending,
    # and the stale translation still live at return.
    assert codes(findings) == ["REPRO004", "REPRO004"]
    messages = " / ".join(finding.message for finding in findings)
    assert "remaps/reuses" in messages
    assert "return without an IOTLB invalidation" in messages


def test_non_driver_class_not_checked_for_unmap():
    findings = analyze_source(
        """
class Bookkeeper:
    def retire(self, slot):
        self.iommu.unmap_range(slot.iova, slot.length)
        return slot
"""
    )
    assert "REPRO004" not in codes(findings)


def test_unmap_invalidate_straight_line_clean():
    findings = analyze_source(
        """
class Driver:
    pass


class StrictDriver(Driver):
    def retire(self, slot):
        self.iommu.unmap_range(slot.iova, slot.length)
        self.iommu.invalidate_range(slot.iova, slot.length)
        return slot
"""
    )
    assert findings == []


# ---------------------------------------------------------------------------
# Known-good fixtures: zero noise
# ---------------------------------------------------------------------------
def test_good_deferred_batching_clean():
    assert analyze_fixture("good_deferred_batching.py") == []


def test_good_robust_retry_clean():
    assert analyze_fixture("good_robust_retry.py") == []


def test_whole_fixture_corpus_codes():
    findings = analyze_fixture(
        "bad_branchy_driver.py",
        "bad_early_return.py",
        "bad_retry_driver.py",
        "bad_use_after_unmap.py",
        "bad_racy_sim.py",
        "bad_unguarded_hooks.py",
        "good_deferred_batching.py",
        "good_robust_retry.py",
    )
    assert sorted(codes(findings)) == [
        "REPRO004",
        "REPRO004",
        "REPRO004",
        "REPRO101",
        "REPRO102",
        "REPRO103",
    ]


# ---------------------------------------------------------------------------
# REPRO101: use-after-unmap taint
# ---------------------------------------------------------------------------
def test_use_after_unmap_flagged():
    findings = analyze_fixture("bad_use_after_unmap.py")
    assert codes(findings) == ["REPRO101"]
    assert "slot.iova" in findings[0].message


def test_taint_killed_by_rebinding():
    findings = analyze_source(
        """
class Ring:
    def refill(self, iommu, slot, fresh):
        iommu.unmap_range(slot.iova, slot.length)
        slot = fresh
        return iommu.translate(slot.iova)
"""
    )
    assert findings == []


def test_taint_killed_by_remap():
    findings = analyze_source(
        """
class Ring:
    def refill(self, iommu, slot, frame):
        iommu.unmap_range(slot.iova, slot.length)
        iommu.map_page(slot.iova, frame)
        return iommu.translate(slot.iova)
"""
    )
    assert findings == []


def test_taint_on_one_branch_still_flagged():
    findings = analyze_source(
        """
class Ring:
    def drain(self, iommu, slot, fast):
        if fast:
            iommu.unmap_range(slot.iova, slot.length)
        return iommu.dma_read(slot.iova)
"""
    )
    assert codes(findings) == ["REPRO101"]


# ---------------------------------------------------------------------------
# REPRO102: sim-callback races
# ---------------------------------------------------------------------------
def test_sim_race_flagged():
    findings = analyze_fixture("bad_racy_sim.py")
    assert codes(findings) == ["REPRO102"]
    assert "self.status" in findings[0].message


def test_sim_race_suppressed_by_happens_before():
    findings = analyze_source(
        """
class Chain:
    def start(self, sim):
        self.sim = sim
        sim.call_after(5, self._first)

    def _first(self):
        self.status = "first"
        self.sim.call_after(1, self._second)

    def _second(self):
        self.status = "second"
"""
    )
    assert findings == []


def test_sim_race_ignores_commutative_updates():
    findings = analyze_source(
        """
class Counter:
    def start(self, sim):
        sim.call_after(5, self._a)
        sim.call_after(5, self._b)

    def _a(self):
        self.total += 1

    def _b(self):
        self.total += 2
"""
    )
    assert findings == []


def test_sim_race_sees_lambda_callbacks():
    findings = analyze_source(
        """
class LambdaPair:
    def start(self, sim):
        sim.call_after(5, lambda: self._a(1))
        sim.call_after(5, lambda: self._b(2))

    def _a(self, x):
        self.mode = "a"

    def _b(self, x):
        self.mode = "b"
"""
    )
    assert codes(findings) == ["REPRO102"]


# ---------------------------------------------------------------------------
# REPRO103: zero-cost hook guards
# ---------------------------------------------------------------------------
def test_unguarded_hook_use_flagged():
    findings = analyze_fixture("bad_unguarded_hooks.py")
    assert codes(findings) == ["REPRO103"]


def test_unguarded_hook_read_through_context_local_flagged():
    findings = analyze_fixture("bad_unguarded_context.py")
    assert codes(findings) == ["REPRO103"]
    assert "self.faults" in findings[0].message


@pytest.mark.parametrize(
    "qualname, attrs",
    [("Iommu", {"obs", "monitor", "faults"}), ("Testbed", {"faults"})],
)
def test_hook_attrs_recognised_on_the_real_tree(qualname, attrs):
    # Non-vacuity: a rule that recognises no hook read would keep the
    # analyze baseline clean trivially.
    src_root = Path(repro.__file__).parent
    project = ProjectModel.build(sorted(src_root.rglob("*.py")))
    [klass] = project.classes_by_name[qualname]
    assert HookGuardRule._hook_attrs(project, klass) == attrs


def test_guarded_hook_use_clean():
    findings = analyze_source(
        """
def run_phase(spec):
    registry = current_context().registry
    if registry is not None:
        registry.begin_phase(spec.label)
    return spec.run()
"""
    )
    assert findings == []


def test_hook_guard_through_boolean_alias():
    findings = analyze_source(
        """
def run_points(specs):
    registry = current_context().registry
    collect = registry is not None
    interval = registry.sample_interval_ns if collect else None
    for spec in specs:
        if collect:
            registry.begin_phase(spec.label)
"""
    )
    assert findings == []


def test_hook_guard_early_return_pattern_clean():
    findings = analyze_source(
        """
class Worker:
    def __init__(self):
        self.obs = current_context().registry

    def record(self, value):
        if self.obs is None:
            return
        self.obs.counter("value").add(value)
"""
    )
    assert findings == []


def test_hook_attr_unguarded_in_sibling_method_flagged():
    findings = analyze_source(
        """
class Worker:
    def __init__(self):
        self.obs = current_context().registry

    def record(self, value):
        self.obs.counter("value").add(value)
"""
    )
    assert codes(findings) == ["REPRO103"]
    assert "self.obs" in findings[0].message


def test_hook_guard_short_circuit_expression_clean():
    findings = analyze_source(
        """
class Worker:
    def __init__(self):
        self.obs = current_context().registry

    def snapshot(self):
        return self.obs is not None and self.obs.tracer is not None
"""
    )
    assert findings == []


# ---------------------------------------------------------------------------
# REPRO104: spec phase selectors vs the live label vocabulary
# ---------------------------------------------------------------------------
RUNNER = """
class FnsMode:
    def __init__(self):
        self.name = "fns"


def run_point(registry, mode, x):
    registry.begin_phase(f"Fig 7 {mode} flows={x}")
"""


def test_unknown_phase_selector_flagged():
    findings = analyze_source(
        RUNNER
        + """
spec = PointSpec(phase_contains=" tcp ")
"""
    )
    assert codes(findings) == ["REPRO104"]
    assert "tcp" in findings[0].message


def test_known_phase_selector_clean():
    findings = analyze_source(
        RUNNER
        + """
spec_a = PointSpec(phase_contains=" fns ")
spec_b = PointSpec(phase_contains="Fig 7")
"""
    )
    assert findings == []


def test_phase_rule_silent_without_vocabulary():
    findings = analyze_source(
        """
spec = PointSpec(phase_contains=" anything ")
"""
    )
    assert findings == []


# ---------------------------------------------------------------------------
# REPRO105: reset paths must re-arm the invalidation queue first
# ---------------------------------------------------------------------------
def test_reset_without_rearm_flagged():
    findings = analyze_fixture("bad_reset_no_rearm.py")
    assert codes(findings) == ["REPRO105", "REPRO105"]
    # Both the map-before-rearm body and the branch that skips the
    # re-arm entirely, each anchored at its map-family call site.
    assert [finding.line for finding in findings] == [23, 39]
    assert "never re-armed" in findings[0].message
    assert "map_page" in findings[0].message


def test_reset_with_rearm_first_is_clean():
    # Includes a helper-mediated re-arm: the rule must resolve
    # transitive callers of rearm(), not just direct calls.
    assert analyze_fixture("good_reset_rearm.py") == []


# ---------------------------------------------------------------------------
# REPRO106: per-item pool dispatch in a sweep loop
# ---------------------------------------------------------------------------
def test_per_item_dispatch_flagged():
    findings = analyze_fixture("bad_per_item_dispatch.py")
    assert codes(findings) == ["REPRO106"]
    assert "one pool task per iterated item" in findings[0].message


def test_chunked_dispatch_is_clean():
    assert analyze_fixture("good_chunked_dispatch.py") == []


def test_submit_of_derived_value_not_flagged():
    # Submitting something computed from the loop variable (not the
    # variable itself) is not the per-item payload pattern.
    findings = analyze_source(
        "def f(pool, items):\n"
        "    for item in items:\n"
        "        pool.submit(work, item.tag)\n"
    )
    assert findings == []


# ---------------------------------------------------------------------------
# The analyzer's own bar: zero findings on the shipped source tree
# ---------------------------------------------------------------------------
def test_repo_source_tree_is_clean():
    src_root = Path(repro.__file__).parent
    assert analyze_paths([str(src_root)]) == []
