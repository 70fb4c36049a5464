"""Where a result was measured. Results from different environments are
never compared: :func:`differences` names what keeps two records apart."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

#: Fields that must agree before two results are compared.
COMPARED_FIELDS = ("nproc", "cpu_model", "python", "numpy", "relaygeom_threads", "source_sha256")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> str | None:
    # Only ask git inside a checkout that is itself a repository; otherwise
    # git would walk up and report some enclosing repository's commit.
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_sha256(root: Path) -> str:
    """Digest of the package sources, identifying the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "relaygeom").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path) -> dict:
    import numpy

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "git_commit": _git_commit(root),
        "source_sha256": source_sha256(root),
        "nproc": affinity,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # The program's default when the variable is unset is one worker.
        "relaygeom_threads": os.environ.get("RELAYGEOM_THREADS") or "1 (unset)",
        "platform": platform.platform(),
        "executable": Path(sys.executable).name,
    }


def differences(a: dict, b: dict) -> list[str]:
    """Names of the compared fields on which two environments differ."""
    return [f for f in COMPARED_FIELDS if a.get(f) != b.get(f)]
