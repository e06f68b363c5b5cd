"""Tests for deterministic, stably-seeded randomness."""

import os
import pathlib
import random
import subprocess
import sys

import pytest

import repro
from repro.sim import SeededRng


def test_same_seed_same_stream():
    first = SeededRng(42, "x")
    second = SeededRng(42, "x")
    assert [first.random() for _ in range(10)] == [
        second.random() for _ in range(10)
    ]


def test_different_names_differ():
    a = SeededRng(42, "a")
    b = SeededRng(42, "b")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_fork_is_independent_and_stable():
    root = SeededRng(7)
    child1 = root.fork("net")
    # Draws on the root do not perturb the child stream.
    root.random()
    child2 = SeededRng(7).fork("net")
    assert [child1.random() for _ in range(5)] == [
        child2.random() for _ in range(5)
    ]


def test_stable_across_processes():
    """The stream must not depend on PYTHONHASHSEED (it once did, which
    made whole experiments irreproducible across runs)."""
    code = (
        "from repro.sim import SeededRng;"
        "r = SeededRng(42, 'allocator-aging');"
        "print([r.randint(0, 1000) for _ in range(5)])"
    )
    # The subprocess starts with a clean environment, so it needs an
    # explicit PYTHONPATH pointing at the package actually under test
    # (the parent of the imported ``repro``) to import it at all.
    src_dir = str(pathlib.Path(repro.__file__).resolve().parents[1])
    outputs = set()
    for hash_seed in ("0", "12345"):
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={
                "PYTHONHASHSEED": hash_seed,
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": src_dir + os.pathsep + os.environ.get(
                    "PYTHONPATH", ""
                ),
            },
        )
        assert result.returncode == 0, result.stderr
        outputs.add(result.stdout.strip())
    assert len(outputs) == 1


def test_helpers_cover_range():
    rng = SeededRng(1)
    assert 0 <= rng.randint(0, 9) <= 9
    assert 1.0 <= rng.uniform(1.0, 2.0) <= 2.0
    assert rng.choice([5]) == 5
    assert rng.expovariate(1.0) >= 0
    items = list(range(10))
    rng.shuffle(items)
    assert sorted(items) == list(range(10))
    assert len(rng.sample(range(100), 5)) == 5


@pytest.mark.parametrize(
    "length, low, high, count",
    [(0, 0, 0, 0), (1, 0, 0, 3), (2, 0, 1, 5), (1000, 0, 4, 1000),
     (98304, 0, 7, 98304), (513, 3, 9, 40), (40, 0, (1 << 40) - 1, 8)],
)
def test_shuffle_then_randints_is_shuffle_plus_randint(length, low, high, count):
    """The bulk draws are ``random``'s own stream: a Python whose
    ``shuffle`` or ``randint`` draws differently fails here, loudly,
    instead of silently changing every aged allocator."""
    bulk, reference = SeededRng(42, "aging"), random.Random()
    reference.setstate(bulk._random.getstate())
    items, expected = list(range(length)), list(range(length))
    draws = bulk.shuffle_then_randints(items, low, high, count)
    reference.shuffle(expected)
    assert items == expected
    assert draws == [reference.randint(low, high) for _ in range(count)]
    assert bulk._random.getstate() == reference.getstate()


def test_shuffle_then_randints_rejects_an_empty_range():
    with pytest.raises(ValueError):
        SeededRng(1).shuffle_then_randints([], 3, 2, 1)
