"""Unit tests for the physical frame allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import OutOfMemoryError, PhysicalMemory


def test_alloc_returns_distinct_frames():
    mem = PhysicalMemory(total_frames=16)
    frames = mem.alloc_frames(16)
    assert len(set(frames)) == 16


def test_exhaustion_raises():
    mem = PhysicalMemory(total_frames=2)
    mem.alloc_frames(2)
    with pytest.raises(OutOfMemoryError):
        mem.alloc_frame()


def test_free_allows_reuse():
    mem = PhysicalMemory(total_frames=1)
    frame = mem.alloc_frame()
    mem.free_frame(frame)
    assert mem.alloc_frame() == frame


def test_double_free_raises():
    mem = PhysicalMemory(total_frames=4)
    frame = mem.alloc_frame()
    mem.free_frame(frame)
    with pytest.raises(ValueError):
        mem.free_frame(frame)


def test_free_unallocated_raises():
    mem = PhysicalMemory(total_frames=4)
    with pytest.raises(ValueError):
        mem.free_frame(3)


def test_usage_accounting():
    mem = PhysicalMemory(total_frames=8)
    frames = mem.alloc_frames(5)
    assert mem.frames_in_use == 5
    mem.free_frames(frames[:2])
    assert mem.frames_in_use == 3
    assert mem.alloc_count == 5
    assert mem.free_count == 2


def test_is_allocated():
    mem = PhysicalMemory(total_frames=4)
    frame = mem.alloc_frame()
    assert mem.is_allocated(frame)
    mem.free_frame(frame)
    assert not mem.is_allocated(frame)


def test_negative_count_rejected():
    mem = PhysicalMemory(total_frames=4)
    with pytest.raises(ValueError):
        mem.alloc_frames(-1)


def test_zero_frames_rejected():
    with pytest.raises(ValueError):
        PhysicalMemory(total_frames=0)


class EagerFrames:
    """The eager reference: a free list of every frame, built up front."""

    def __init__(self, total_frames):
        self.free = list(range(total_frames - 1, -1, -1))
        self.allocated = set()

    def alloc_frame(self):
        if not self.free:
            raise OutOfMemoryError("physical memory exhausted")
        frame = self.free.pop()
        self.allocated.add(frame)
        return frame

    def free_frame(self, frame):
        if frame not in self.allocated:
            raise ValueError(f"frame {frame} is not allocated")
        self.allocated.remove(frame)
        self.free.append(frame)


def outcome(call):
    try:
        return call()
    except (OutOfMemoryError, ValueError) as error:
        return type(error)


@given(
    total=st.integers(min_value=1, max_value=24),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["alloc", "free", "exhaust", "stray"]),
            st.integers(min_value=0, max_value=63),
        ),
        max_size=60,
    ),
)
@settings(max_examples=200, deadline=None)
def test_lazy_pool_matches_eager_free_list(total, ops):
    lazy, eager = PhysicalMemory(total_frames=total), EagerFrames(total)
    held = []
    for op, arg in ops:
        if op == "alloc":
            got = outcome(lazy.alloc_frame)
            assert got == outcome(eager.alloc_frame)
            if isinstance(got, int):
                held.append(got)
        elif op == "free" and held:
            frame = held.pop(arg % len(held))
            lazy.free_frame(frame)
            eager.free_frame(frame)
        elif op == "exhaust":
            while isinstance(got := outcome(lazy.alloc_frame), int):
                assert got == eager.alloc_frame()
                held.append(got)
            assert got is OutOfMemoryError
            assert outcome(eager.alloc_frame) is OutOfMemoryError
        elif op == "stray" and arg not in eager.allocated:
            # Double frees and never-allocated frames, in or out of range.
            assert outcome(lambda: lazy.free_frame(arg)) == outcome(
                lambda: eager.free_frame(arg)
            )
        assert lazy.frames_in_use == len(eager.allocated)
        assert all(lazy.is_allocated(frame) for frame in eager.allocated)
