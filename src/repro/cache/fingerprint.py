"""Code fingerprints: which source bytes determine a cell's output.

A cache entry must die when the code that produced it changes.  The
fingerprint of a point runner is a SHA-256 over the *contents* of the
transitive source closure of its module — every ``repro`` file the
runner's module reaches through static ``import`` statements.  Hashing
file contents (not git state) means a dirty worktree invalidates
exactly as an edit lands on disk: there is no window where a stale
cache can mask an uncommitted change.

The closure is computed by parsing ``import``/``from ... import``
statements with :mod:`ast` — no module execution, no dependence on
what happens to be in ``sys.modules`` — and resolving them to files
under the installed ``repro`` package.  Anything that fails to resolve
(or any IO/parse error) falls back to :func:`tree_fingerprint`, a
digest of the whole package tree: conservative, never stale.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Optional

__all__ = [
    "runner_fingerprint",
    "module_closure",
    "tree_fingerprint",
    "clear_fingerprint_cache",
]

_PACKAGE = "repro"

# One import statement as parsed: (relative level, module, names).
ImportList = list[tuple[int, str, list[str]]]

# Per-process memoization: the closure walk reads every file it hashes,
# and a sweep asks for the same runner's fingerprint once per cell.
# Every registered runner lives in a handful of modules, so fingerprints
# are kept per module; parsed import lists per SHA-256 of a file's bytes.
_FINGERPRINTS: dict[str, str] = {}
_IMPORTS: dict[str, ImportList] = {}
_TREE_FINGERPRINT: Optional[str] = None


def clear_fingerprint_cache() -> None:
    """Drop memoized fingerprints (tests that edit source trees)."""
    global _TREE_FINGERPRINT
    _FINGERPRINTS.clear()
    _IMPORTS.clear()
    _TREE_FINGERPRINT = None


def _package_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def _module_file(root: Path, dotted: str) -> Optional[Path]:
    """The file for ``repro.x.y`` under ``root``, or ``None``."""
    parts = dotted.split(".")
    if parts[0] != _PACKAGE:
        return None
    rel = parts[1:]
    candidate = root.joinpath(*rel).with_suffix(".py") if rel else None
    if candidate is not None and candidate.is_file():
        return candidate
    package = root.joinpath(*rel, "__init__.py")
    if package.is_file():
        return package
    return None


def _parse_imports(source: bytes, path: Path) -> ImportList:
    """Every import statement in ``source``, unresolved."""
    imports: ImportList = []
    for node in ast.walk(ast.parse(source, filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports.append((0, alias.name, []))
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            imports.append((node.level, node.module or "", names))
    return imports


def _absolute_name(
    module_name: str, is_package: bool, level: int, module: str
) -> Optional[str]:
    """Resolve a (possibly relative) ``from`` import to a dotted name.

    A relative import is relative to the importing module's package:
    the module itself for a package ``__init__``, its parent otherwise.
    """
    if level == 0:
        return module
    base = module_name.split(".")
    if not is_package:
        base = base[:-1]
    base = base[: len(base) - (level - 1)]
    if not base:
        return None
    if module:
        base = base + module.split(".")
    return ".".join(base)


def _imported_names(
    module_name: str, is_package: bool, imports: ImportList
) -> Iterable[str]:
    """Every dotted module name a module's source mentions importing.

    ``from repro.x import y`` yields both ``repro.x`` and ``repro.x.y``
    — ``y`` may itself be a module, and resolving both costs only a
    pair of ``is_file`` probes.
    """
    for level, module, names in imports:
        if level == 0 and not names:
            yield module
            continue
        resolved = _absolute_name(module_name, is_package, level, module)
        if resolved is None:
            continue
        yield resolved
        for name in names:
            yield f"{resolved}.{name}"


def _imports_of(source: bytes, path: Path, memo_dir: Optional[Path]) -> ImportList:
    """The import list of ``source``, memoized on its SHA-256.

    ``<memo_dir>/<aa>/<sha256>.json`` holds the imports of every file
    whose bytes hash to ``sha256``: an entry can never describe other
    bytes, so it needs no invalidation.  Unreadable entries are parsed
    again and write failures ignored; the memo only saves parsing.
    """
    digest = hashlib.sha256(source).hexdigest()
    cached = _IMPORTS.get(digest)
    if cached is not None:
        return cached
    entry = None if memo_dir is None else memo_dir / digest[:2] / f"{digest}.json"
    if entry is not None:
        with contextlib.suppress(OSError, ValueError, TypeError):
            cached = [
                (level, module, names)
                for level, module, names in json.loads(entry.read_bytes())
            ]
    if cached is None:
        cached = _parse_imports(source, path)
        if entry is not None:
            _write_memo(entry, cached)
    _IMPORTS[digest] = cached
    return cached


def _write_memo(entry: Path, imports: ImportList) -> None:
    """Write one memo entry atomically (temp file + rename)."""
    with contextlib.suppress(OSError):
        entry.parent.mkdir(parents=True, exist_ok=True)
        fd, temp = tempfile.mkstemp(dir=str(entry.parent), prefix=".tmp-")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(imports, handle)
            os.replace(temp, entry)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temp)
            raise


def _closure_sources(
    module_name: str, memo_dir: Optional[Path]
) -> dict[Path, bytes]:
    """Source bytes of every in-package file reachable from a module.

    Importing ``repro.x.y`` runs ``repro/__init__.py`` and
    ``repro/x/__init__.py`` first, so every package on a dotted path
    joins the closure too.
    """
    root = _package_root()
    if _module_file(root, module_name) is None:
        raise FileNotFoundError(module_name)
    sources: dict[Path, bytes] = {}
    probed: set[str] = set()
    seen: set[Path] = set()
    queue: list[tuple[str, Path]] = []

    def reach(dotted: str) -> None:
        parts = dotted.split(".")
        for end in range(1, len(parts) + 1):
            name = ".".join(parts[:end])
            if name in probed:
                continue
            probed.add(name)
            target = _module_file(root, name)
            if target is not None and target not in seen:
                seen.add(target)
                queue.append((name, target))

    reach(module_name)
    while queue:
        name, path = queue.pop()
        source = path.read_bytes()
        sources[path] = source
        is_package = path.name == "__init__.py"
        imports = _imports_of(source, path, memo_dir)
        for dotted in _imported_names(name, is_package, imports):
            reach(dotted)
    return sources


def module_closure(module_name: str) -> list[Path]:
    """The transitive in-package source files reachable from a module.

    Raises on unreadable/unparseable sources so callers can fall back
    to the whole-tree digest rather than fingerprint a partial view.
    """
    return sorted(_closure_sources(module_name, None))


def _digest_sources(root: Path, sources: Iterable[tuple[Path, bytes]]) -> str:
    digest = hashlib.sha256()
    for path, source in sources:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(source)
        digest.update(b"\0")
    return digest.hexdigest()


def tree_fingerprint() -> str:
    """SHA-256 over every ``.py`` file of the installed package tree."""
    global _TREE_FINGERPRINT
    if _TREE_FINGERPRINT is None:
        root = _package_root()
        files = sorted(
            p for p in root.rglob("*.py") if "__pycache__" not in p.parts
        )
        _TREE_FINGERPRINT = _digest_sources(
            root, ((path, path.read_bytes()) for path in files)
        )
    return _TREE_FINGERPRINT


def runner_fingerprint(runner_key: str, memo_dir: Optional[Path] = None) -> str:
    """The code fingerprint for one registered point runner.

    The closure starts at the module that *defines* the registered
    callable.  Runners registered from outside the ``repro`` package
    (tests register scratch runners) have no resolvable closure and get
    the conservative whole-tree digest.  ``memo_dir`` (a result
    store's import memo) spares re-parsing unchanged files.
    """
    from ..experiments.points import POINT_RUNNERS

    runner = POINT_RUNNERS.get(runner_key)
    module_name = getattr(runner, "__module__", None) or ""
    cached = _FINGERPRINTS.get(module_name)
    if cached is not None:
        return cached
    try:
        sources = _closure_sources(module_name, memo_dir)
        value = _digest_sources(_package_root(), sorted(sources.items()))
    except (OSError, SyntaxError, ValueError):
        value = tree_fingerprint()
    _FINGERPRINTS[module_name] = value
    return value
