"""Small helpers shared by the benchmark's processes."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
from typing import Any, Dict, List, Optional, Sequence

#: The seed whose outputs the goldens in ``goldens.json`` were made on.
DEFAULT_SEED = 2015

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens.json")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 <= q <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` exactly as ``statistics.quantiles`` gives
    them (the rule the benchmark's steadiness bounds are read with)."""
    if len(values) < 2:
        only = float(values[0])
        return [only, only, only]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def self_peak_rss_mb() -> float:
    """Peak resident set of the calling process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_status_mb(pid: int, field: str) -> float:
    """``VmRSS``/``VmHWM`` of a live process, in MB (Linux)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(field)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_goldens() -> Dict[str, Any]:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def close_rel(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(package: str) -> Optional[str]:
    from importlib import metadata
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _git_commit(root: str) -> Optional[str]:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True,
                             timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest(root: str) -> str:
    """sha256 over every ``src/**/*.py`` (path + bytes): names the code
    that ran when the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def context_record(root: str, workload: str, seed: int, why: str,
                   trace: bool) -> Dict[str, Any]:
    """Where and on what a result was measured."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "workload": workload,
        "why": why,
        "seed": seed,
        "trace": trace,
        "cpu_model": _cpu_model(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(root),
        "src_sha256": source_digest(root),
        "platform": platform.platform(),
    }
