"""Calendar compaction: cancelled timers are shed without reordering.

The simulator rebuilds its heap from the live entries once cancelled
ones dominate (``repro.sim.engine.COMPACT_FLOOR``).  Random programs
of schedules, cancellations, runs and steps must execute the same
``(time, callback)`` stream whether the calendar compacts at a small
floor (0 compacts at every chance) or never (a floor no run reaches).
"""

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, engine

NEVER = 10**9

# Offsets from "now": the extra zeros make same-time bursts.
delays = st.one_of(st.just(0.0), st.integers(0, 40).map(float))
handle_ref = st.integers(min_value=0, max_value=50)
reactions = st.one_of(
    st.none(),
    st.tuples(st.just("cancel"), handle_ref),
    st.tuples(st.just("schedule"), delays),
    st.tuples(st.just("call"), delays),
)
operations = st.one_of(
    st.tuples(st.just("schedule"), delays, reactions),
    st.tuples(st.just("call"), delays, reactions, st.booleans()),
    st.tuples(st.just("cancel"), handle_ref),
    st.tuples(st.just("cancel_twice"), handle_ref),
    st.tuples(st.just("run"), delays),
    st.tuples(st.just("step"),),
)


def cancelled_entries(sim):
    return sum(
        1 for entry in sim._heap if entry[3] is not None and entry[3].cancelled
    )


def execute(program, floor):
    """Run ``program``; returns everything an observer could see."""
    sim = Simulator()
    handles = []
    log = []
    labels = iter(range(10**6))

    def callback(reaction):
        label = next(labels)

        def fire():
            log.append((sim.now, label))
            if reaction is not None:
                apply(reaction)

        return fire

    def cancel(index):
        if handles:
            handles[index % len(handles)].cancel()

    def apply(operation):
        kind = operation[0]
        if kind == "schedule":
            reaction = operation[2] if len(operation) > 2 else None
            sim.schedule_at(sim.now + operation[1], callback(reaction))
        elif kind == "call":
            reaction = operation[2] if len(operation) > 2 else None
            housekeeping = operation[3] if len(operation) > 3 else False
            handles.append(
                sim.call_at(
                    sim.now + operation[1], callback(reaction), housekeeping
                )
            )
        elif kind == "cancel":
            cancel(operation[1])
        elif kind == "cancel_twice":
            cancel(operation[1])
            cancel(operation[1])
        elif kind == "run":
            sim.run(until=sim.now + operation[1])
        else:
            sim.step()

    with mock.patch.object(engine, "COMPACT_FLOOR", floor):
        for operation in program:
            apply(operation)
            assert sim._cancelled == cancelled_entries(sim)
        observed = (sim.alive_events, sim.now)
        sim.run()
        assert sim._cancelled == cancelled_entries(sim) == 0
    return log, observed, sim.executed_events, sim._seq, sim.now


@settings(max_examples=300, deadline=None)
@given(st.lists(operations, max_size=80), st.sampled_from([0, 4]))
def test_compaction_keeps_the_executed_stream(program, floor):
    assert execute(program, floor) == execute(program, NEVER)


def test_compaction_keeps_long_random_programs():
    """Heaps of hundreds of entries, compacted with scattered holes."""
    for seed in range(10):
        rng = random.Random(seed)
        program = []
        for _ in range(300):
            roll = rng.random()
            delay = float(rng.randrange(1000))
            if roll < 0.45:
                program.append(("call", delay, None, False))
            elif roll < 0.5:
                program.append(("schedule", delay, None))
            elif roll < 0.95:
                program.append(("cancel", rng.randrange(1000)))
            else:
                program.append(("run", float(rng.randrange(50))))
        reference = execute(program, NEVER)
        for floor in (0, 16, 64):
            assert execute(program, floor) == reference


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.call_after(5.0, lambda: None)
    sim.schedule_after(1.0, lambda: None)
    event.cancel()
    event.cancel()
    assert sim._cancelled == 1
    assert sim.pending_events == 2
    assert sim.alive_events == 1


def test_cancel_after_firing_is_not_counted():
    sim = Simulator()
    fired = []
    event = sim.call_after(1.0, lambda: fired.append(sim.now))
    sim.run()
    event.cancel()
    assert fired == [1.0]
    assert sim._cancelled == 0
    # A callback cancelling its own (running) event counts nothing.
    box = []
    box.append(sim.call_after(1.0, lambda: box[0].cancel()))
    sim.run()
    assert sim._cancelled == 0
    assert sim.executed_events == 2


def test_cancel_inside_a_same_time_burst():
    sim = Simulator()
    order = []
    victims = []

    def killer():
        order.append("killer")
        for victim in victims:
            victim.cancel()

    with mock.patch.object(engine, "COMPACT_FLOOR", 0):
        sim.schedule_at(5.0, killer)
        victims.extend(
            sim.call_at(5.0, lambda: order.append("victim")) for _ in range(3)
        )
        sim.schedule_at(5.0, lambda: order.append("survivor"))
        sim.run()
    assert order == ["killer", "survivor"]
    assert sim.executed_events == 2


def test_rearmed_timers_keep_the_heap_bounded():
    """10,000 RTO-style cancel-and-re-arm cycles stay compact."""
    sim = Simulator()
    flows = 20
    timers = [sim.call_at(1_000.0, lambda: None) for _ in range(flows)]
    sizes = []

    def tick(count):
        flow = count % flows
        timers[flow].cancel()
        timers[flow] = sim.call_at(sim.now + 1_000.0, lambda: None)
        sizes.append((sim.pending_events, sim.alive_events))
        if count + 1 < 10_000:
            sim.schedule_after(1.0, lambda: tick(count + 1))

    sim.schedule_at(0.0, lambda: tick(0))
    sim.run(until=10_000.0)
    assert len(sizes) == 10_000
    assert all(
        pending < 2 * alive + engine.COMPACT_FLOOR for pending, alive in sizes
    )
    # Without compaction the heap would hold every cancelled timer.
    assert max(pending for pending, _alive in sizes) < 300
