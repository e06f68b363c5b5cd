"""Source-tree discovery and ``# noqa`` handling for ``repro analyze``.

File discovery skips what is obviously not project source: byte-code
caches, hidden directories, packaging/build output, vendored
dependencies and virtualenvs (detected by ``pyvenv.cfg``).  Without the
pruning, ``repro analyze .`` from a repo checkout would check
``__pycache__`` and any local venv.

``# noqa`` detection is token-based: only a marker inside an actual
comment token counts, so a string literal that *contains* ``"# noqa"``
(test fixtures, docs, this module) no longer silences findings on its
line.
"""

from __future__ import annotations

import io
import os
import tokenize
from pathlib import Path
from typing import Iterator, Optional, Sequence

__all__ = ["iter_python_files", "noqa_lines", "is_suppressed"]

# Directory basenames that never contain first-party source.
_SKIP_DIR_NAMES = {
    "__pycache__",
    "build",
    "dist",
    "node_modules",
    "site-packages",
}


def _skip_dir(path: Path) -> bool:
    name = path.name
    if name.startswith("."):  # .git, .tox, .venv, .mypy_cache, ...
        return True
    if name in _SKIP_DIR_NAMES or name.endswith(".egg-info"):
        return True
    # A virtualenv by any name announces itself with pyvenv.cfg.
    return (path / "pyvenv.cfg").is_file()


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths``, pruned and deterministic.

    Files given explicitly are always yielded (even a ``.py`` inside a
    cache directory — an explicit argument is a deliberate choice);
    pruning applies to the directory walk only.
    """
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for dirpath, dirnames, filenames in os.walk(path):
                here = Path(dirpath)
                dirnames[:] = sorted(
                    d for d in dirnames if not _skip_dir(here / d)
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield here / filename
        elif path.suffix == ".py":
            yield path


# ---------------------------------------------------------------------------
# noqa suppression
# ---------------------------------------------------------------------------
def _parse_noqa(comment: str) -> Optional[set[str]]:
    """Codes silenced by one comment token (empty set = silence all)."""
    marker = "# noqa"
    idx = comment.find(marker)
    if idx < 0:
        return None
    rest = comment[idx + len(marker):].strip()
    if rest.startswith(":"):
        return {code.strip() for code in rest[1:].split(",") if code.strip()}
    return set()


def noqa_lines(source: str) -> dict[int, set[str]]:
    """Map line number -> codes silenced there (empty set = all codes).

    Built from the token stream, so ``# noqa`` appearing inside a string
    literal is *not* a suppression.  Tokenisation errors (the caller
    already reported the file as unparseable) yield an empty map.
    """
    suppressions: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            codes = _parse_noqa(token.string)
            if codes is not None:
                suppressions[token.start[0]] = codes
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return {}
    return suppressions


def is_suppressed(
    suppressions: dict[int, set[str]], line: int, code: str
) -> bool:
    codes = suppressions.get(line)
    if codes is None:
        return False
    return not codes or code in codes
