"""Known-bad: metrics work outside the ``if hooks:`` guard.

The run context's hook fields are ``None`` when observability is off;
calling through one unguarded both breaks the zero-cost contract and
crashes un-instrumented runs.
"""


def run_phase(spec):
    registry = current_context().registry
    registry.begin_phase(spec.label)
    return spec.run()


def current_context():
    return None
