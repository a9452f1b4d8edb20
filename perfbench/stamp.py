"""Provenance of a result, and the comparison of two results.

Every run is stamped with what produced it: the git sha (or, in a
checkout that is not a git repository, a digest of ``src/``), each
tuned program's ``ParameterSpace.digest()``, each tuned artifact's
content digest, the CPU count, and the numpy and Python versions.
:func:`compare` reads two saved reports and names every digest that
differs, so a change in what the tuner chose is not read as a change
in speed.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess

import numpy as np


def git_sha(root: str) -> str | None:
    """HEAD of ``root`` when it is itself a git checkout, else None."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        completed = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() or None


def source_digest(root: str) -> str:
    """Digest of every ``.py`` file under ``root/src`` (path and bytes)."""
    digest = hashlib.sha256()
    source = os.path.join(root, "src")
    for directory, subdirectories, files in os.walk(source):
        subdirectories.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, source).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def stamp(root: str, workload: str, seed: int, seconds: float,
          tuned) -> dict:
    """The provenance record of one run; ``tuned`` lists the run's
    final :class:`lifecycle.Tuned` entries."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "git_sha": git_sha(root),
        "source_digest": source_digest(root),
        "space_digests": {entry.plan.benchmark: entry.space_digest
                          for entry in tuned},
        "artifact_digests": {entry.plan.benchmark: entry.digest
                             for entry in tuned},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def compare(path_a: str, path_b: str) -> list[str]:
    """Lines comparing two saved reports, digest differences first."""
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    lines = []
    stamp_a, stamp_b = a["stamp"], b["stamp"]
    if stamp_a["workload"] != stamp_b["workload"]:
        lines.append(f"different workloads: {stamp_a['workload']} vs "
                     f"{stamp_b['workload']}")
    for key in ("space_digests", "artifact_digests"):
        programs = sorted(set(stamp_a[key]) | set(stamp_b[key]))
        for program in programs:
            left = stamp_a[key].get(program)
            right = stamp_b[key].get(program)
            if left != right:
                what = ("search space" if key == "space_digests"
                        else "tuned artifact")
                lines.append(
                    f"DIGEST DIFFERS: {program} {what} {left} -> {right}: "
                    f"the tuner worked on or chose something else, so "
                    f"metric changes are not only speed changes")
    for key in ("git_sha", "source_digest", "nproc", "numpy", "python"):
        if stamp_a.get(key) != stamp_b.get(key):
            lines.append(f"{key}: {stamp_a.get(key)} -> {stamp_b.get(key)}")
    metrics_a, metrics_b = a["metrics"], b["metrics"]
    for name in sorted(set(metrics_a) | set(metrics_b)):
        left = metrics_a.get(name, {}).get("value")
        right = metrics_b.get(name, {}).get("value")
        unit = (metrics_a.get(name) or metrics_b.get(name))["unit"]
        change = ""
        if left not in (None, 0) and right is not None:
            change = f" ({(right - left) / abs(left):+.1%})"
        lines.append(f"{name}: {left} -> {right} {unit}{change}")
    return lines
