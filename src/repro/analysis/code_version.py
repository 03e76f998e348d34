"""Content-addressed code version for the experiment cache.

Cache entries written by :class:`~repro.analysis.engine.ExperimentEngine` are
keyed by one *code version*: :func:`package_version` of the ``repro``
package, the SHA-256 of every ``*.py`` file under it.  An edit anywhere in
the package therefore invalidates every entry, so no result computed by
older code is ever replayed.  :func:`git_describe` is the human-readable
companion recorded in baseline provenance.
"""

from __future__ import annotations

import hashlib
import subprocess
from pathlib import Path

__all__ = ["package_version", "git_describe"]


def package_version(package_dir: str | Path) -> str:
    """16-hex-digit SHA-256 over every ``*.py`` file under *package_dir*.

    Each file contributes its path relative to *package_dir* and its bytes,
    in sorted path order, so editing, adding or renaming any file changes
    the tag and nothing else does.
    """
    root = Path(package_dir)
    combined = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        combined.update(path.relative_to(root).as_posix().encode() + b"\0")
        combined.update(hashlib.sha256(path.read_bytes()).digest())
    return combined.hexdigest()[:16]


def git_describe(start: Path | None = None) -> str | None:
    """``git describe --always --dirty`` of the checkout holding this file.

    The human-readable companion to the content-hash tag: baselines and
    trial-store runs record it at *production* time (see
    :func:`repro.analysis.bench.engine_provenance`) so results can be
    attributed to commits.  Returns ``None`` when git is unavailable or the
    package is not inside a work tree (e.g. installed site-packages), so
    provenance degrades gracefully.
    """
    cwd = Path(start) if start is not None else Path(__file__).resolve().parent
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    described = proc.stdout.strip()
    return described or None
