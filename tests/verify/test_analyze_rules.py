"""Rule tests against inline sources and the known-bad/known-good
fixtures corpus.

The acceptance bar for the CFG-based REPRO004: it must catch the
branch-split and early-return stale paths that a class-wide "does it
invalidate anywhere" check misses.
"""

import textwrap
from pathlib import Path

import pytest

import repro
from repro.verify.analyze import analyze_paths, analyze_project
from repro.verify.analyze.project import ProjectModel
from repro.verify.analyze.rules import HookGuardRule, default_rules
from repro.verify.registry import RULES

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
# REPRO001-003: determinism rules
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "source, expected",
    [
        # REPRO001: wall clock and module-level RNG.
        pytest.param(
            """
            import time
            def now():
                return time.time()
            """,
            ["REPRO001"],
            id="wallclock-time",
        ),
        pytest.param(
            """
            from datetime import datetime
            stamp = datetime.now()
            """,
            ["REPRO001"],
            id="wallclock-datetime",
        ),
        pytest.param(
            """
            import random
            def pick(items):
                return random.choice(items)
            """,
            ["REPRO001"],
            id="module-rng",
        ),
        # random.Random is the sanctioned seam repro.sim.SeededRng wraps.
        pytest.param(
            """
            import random
            def make(seed):
                return random.Random(seed)
            """,
            [],
            id="seeded-rng-allowed",
        ),
        pytest.param(
            """
            def now(sim):
                return sim.now
            """,
            [],
            id="simulated-time-allowed",
        ),
        # REPRO002: hash-ordered iteration.
        pytest.param(
            """
            def schedule(flows):
                for flow in set(flows):
                    flow.start()
            """,
            ["REPRO002"],
            id="set-iteration",
        ),
        pytest.param(
            """
            def drain(pending):
                return [retire(entry) for entry in {p.key for p in pending}]
            """,
            ["REPRO002"],
            id="set-comprehension-iteration",
        ),
        pytest.param(
            """
            def schedule(flows):
                for flow in sorted(set(flows)):
                    flow.start()
            """,
            [],
            id="sorted-set-allowed",
        ),
        pytest.param(
            """
            def schedule(flows):
                for flow in flows:
                    flow.start()
            """,
            [],
            id="list-iteration-allowed",
        ),
        # REPRO003: float equality on simulated timestamps.
        pytest.param(
            """
            def racy(event, other):
                return event.time == other.deadline
            """,
            ["REPRO003"],
            id="timestamp-equality",
        ),
        pytest.param(
            """
            def unset(event):
                return event.time == 0
            """,
            [],
            id="timestamp-vs-constant-allowed",
        ),
        pytest.param(
            """
            def earlier(event, other):
                return event.time < other.time
            """,
            [],
            id="timestamp-ordering-allowed",
        ),
    ],
)
def test_determinism_rules(source, expected):
    assert codes(analyze_source(textwrap.dedent(source))) == expected


# ---------------------------------------------------------------------------
# REPRO004: path-sensitive unmap-without-invalidate
# ---------------------------------------------------------------------------
BAD_DRIVER = """
class LeakyDriver(ProtectionDriver):
    def retire(self, descriptor):
        for slot in descriptor.slots:
            self.iommu.unmap_range(slot.iova, 4096)
"""

GOOD_DRIVER = """
class SafeDriver(ProtectionDriver):
    def retire(self, descriptor):
        for slot in descriptor.slots:
            self.iommu.unmap_range(slot.iova, 4096)
            self._invalidate(slot.iova)
    def _invalidate(self, iova):
        self.iommu.invalidation_queue.invalidate_range(iova, 4096, False)
"""

RETRY_DRIVER = """
class RetryDriver(ProtectionDriver):
    def retire(self, slot):
        attempts = 0
        while attempts < 3:
            self.iommu.unmap_range(slot.iova, 4096)
            attempts += 1
        self.queue.invalidate_range(slot.iova, 4096, False)
"""

REARMING_RETRY_DRIVER = """
class RearmingDriver(ProtectionDriver):
    def retire(self, slot):
        attempts = 0
        while attempts < 3:
            self.iommu.unmap_range(slot.iova, 4096)
            self._rearm(slot.iova)
            attempts += 1

    def _rearm(self, iova):
        self._invalidate_robust(iova, 4096, False)
"""


@pytest.mark.parametrize(
    "source, expected",
    [
        pytest.param(BAD_DRIVER, ["REPRO004"], id="unmap-never-invalidates"),
        # The invalidation lives in a helper method.
        pytest.param(GOOD_DRIVER, [], id="invalidate-in-helper-allowed"),
        # _invalidate_robust is the hardened seam the fault-injection
        # drivers use; it counts as invalidating.
        pytest.param(
            """
class CheckedDriver(ProtectionDriver):
    def retire(self, slot):
        self.iommu.unmap_range(slot.iova, 4096)
        self._invalidate_robust(slot.iova, 4096, False)
""",
            [],
            id="checked-interface-allowed",
        ),
        pytest.param(
            """
class PageTableShim:
    def drop(self, iova):
        self.table.unmap_range(iova, 4096)
""",
            [],
            id="non-driver-ignored",
        ),
        # The method invalidates after the loop, but each iteration's
        # unmap leaves a stale IOTLB entry until that final
        # invalidation.
        pytest.param(RETRY_DRIVER, ["REPRO004"], id="retry-without-rearm"),
        # Re-arming through a helper method counts.
        pytest.param(
            REARMING_RETRY_DRIVER, [], id="retry-with-rearm-allowed"
        ),
        pytest.param(
            """
class RingBuffer:
    def drain(self):
        while self.entries:
            self.table.unmap_range(self.entries.pop(), 4096)
""",
            [],
            id="retry-non-driver-ignored",
        ),
    ],
)
def test_unmap_rule(source, expected):
    assert codes(analyze_source(source)) == expected


def test_branchy_unmap_flagged_by_analyzer():
    findings = analyze_fixture("bad_branchy_driver.py")
    assert codes(findings) == ["REPRO004"]
    assert "return without an IOTLB invalidation" in findings[0].message


def test_early_return_flagged_by_analyzer():
    findings = analyze_fixture("bad_early_return.py")
    assert codes(findings) == ["REPRO004"]
    assert findings[0].line == 18  # the unmap call site


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
        "REPRO101",
        "REPRO102",
        "REPRO103",
    ]


# ---------------------------------------------------------------------------
# REPRO101: use-after-unmap taint
# ---------------------------------------------------------------------------
def test_use_after_unmap_flagged():
    findings = analyze_fixture("bad_use_after_unmap.py")
    assert codes(findings) == ["REPRO101", "REPRO101"]
    assert all("slot.iova" in finding.message for finding in findings)
    # The IOMMU's translate() and a driver's translate_for_dma().
    sinks = [finding.message.split(" to ")[1].split("(")[0] for finding in findings]
    assert sinks == ["translate", "translate_for_dma"]


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
    # analyzer clean trivially.
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
# The analyzer's own bar: zero findings on the shipped source tree
# ---------------------------------------------------------------------------
def test_every_rule_has_a_catalogue_entry():
    # SARIF and --explain read the catalogue; REPRO000 is the parse
    # error the engine itself reports.
    codes_run = {rule.code for rule in default_rules()}
    assert codes_run | {"REPRO000"} == set(RULES)


def test_repo_source_tree_is_clean():
    src_root = Path(repro.__file__).parent
    assert analyze_paths([str(src_root)]) == []


def test_repo_source_tree_passes_determinism_and_unmap_rules():
    # REPRO001-004 are the rules with `# noqa` exemptions in the tree
    # (store.py's cache timestamp, the event heap's time ties); each
    # exemption must stay on the exact line it excuses.
    rules = [rule for rule in default_rules() if rule.code <= "REPRO004"]
    assert codes(rules) == ["REPRO001", "REPRO002", "REPRO003", "REPRO004"]
    src_root = Path(repro.__file__).parent
    assert analyze_paths([str(src_root)], rules) == []
