"""The repo's static checker: ``repro analyze``.

It parses the project once into a model (symbol table + call graph),
constructs per-function control-flow graphs, and runs a small
forward-dataflow framework to prove protocol properties: all-paths
unmap→invalidate, statically reachable use-after-unmap, sim-callback
races and zero-cost hook guard violations.  The same model carries the
per-module determinism rules (wall clock and global RNG, set
iteration order, timestamp float equality).
"""

from .engine import analyze_paths, analyze_project, main
from .project import ProjectModel
from .rules import default_rules

__all__ = [
    "analyze_paths",
    "analyze_project",
    "main",
    "ProjectModel",
    "default_rules",
]
