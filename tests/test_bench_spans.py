"""The benchmark's span targets exist in the code they time.

``bench/layers.py`` wraps named methods and module functions to time
each layer.  A method or function that a refactor renames or inlines
away would leave its per-layer row empty (a missing method is skipped)
or crash the traced run (a missing function); this test catches both.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(BENCH))
    try:
        module = importlib.import_module("layers")
        # Load every subclass the spans may land on.
        importlib.import_module("repro.experiments.points")
        importlib.import_module("repro.host.testbed")
        yield module
    finally:
        sys.path.remove(str(BENCH))


# Span targets the code deleted on purpose while ``bench/layers.py``,
# which changes only with the benchmark, still names them.  Their span
# keeps its other methods (``install`` skips a missing one), so the row
# still fills.  Drop an entry when the benchmark's span table drops it.
RETIRED = {
    # One driver entry point per page: translate_for_dma.
    ("protection.translate", "ProtectionDriver", "translate_for_dma_burst"),
    # One queued-descriptor method (invalidate_range) and one flush
    # (flush_all) on the invalidation queue.
    ("iommu.invalidate", "InvalidationQueue", "submit_invalidation"),
    ("iommu.invalidate", "InvalidationQueue", "invalidate_ptcache_range"),
    ("iommu.invalidate", "InvalidationQueue", "submit_flush"),
}


def test_class_span_methods_are_defined(layers):
    missing = []
    retired = []
    for span, module_name, class_name, methods in layers.CLASS_SPANS:
        base = getattr(importlib.import_module(module_name), class_name)
        classes = layers._with_subclasses(base)
        defined = [
            method
            for method in methods
            if any(method in cls.__dict__ for cls in classes)
        ]
        assert defined, f"{span}: no method of {class_name} is defined"
        for method in methods:
            if method in defined:
                continue
            if (span, class_name, method) in RETIRED:
                retired.append((span, class_name, method))
            else:
                missing.append(f"{span}: {class_name}.{method}")
    assert missing == []
    # Every retired entry is still named by the bench and still gone.
    assert sorted(retired) == sorted(RETIRED)


def test_function_span_targets_exist(layers):
    missing = [
        f"{span}: {module_name}.{function}"
        for span, module_name, functions in layers.FUNCTION_SPANS
        for function in functions
        if not hasattr(importlib.import_module(module_name), function)
    ]
    assert missing == []

