"""Shared measurement helpers: statistics, memory, host fingerprint, records.

Everything a workload module needs besides the system under test.  No
import here touches ``repro``, so ``run.py`` can refuse to start before
the package is on the path.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Root of the checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
#: Everything a run writes lands here (listed in the root .gitignore).
OUT_DIR = ROOT / ".perfbench"


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; ``inf`` entries sort last, as they should."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


#: Added to every failure ratio: one failure in 10,000 attempts.
FAIL_FLOOR = 1e-4


def fail_ratio(failed: int, attempted: int) -> float:
    """``failed / attempted + FAIL_FLOOR``, so a clean run reads 1e-4, not 0.

    The metric needs a nonzero median to take a relative bound against;
    one failure in a clean serve-short run (~9000 requests) doubles it.
    """
    return failed / attempted + FAIL_FLOOR


class ReferenceCheck:
    """``matches_reference`` on every result, matched to its payload by the caller.

    Identical answers to one payload are checked once; ``wrong_by_kernel``
    counts failed, refused and wrong results alike.
    """

    def __init__(self) -> None:
        self.verdicts: Dict[tuple, bool] = {}
        self.wrong_by_kernel: Dict[str, int] = {}

    def ok(self, kernel: str, payload_key, payload, ok: bool, value) -> bool:
        from repro.engine.runners import matches_reference

        good = bool(ok) and isinstance(value, dict)
        if good:
            key = (kernel, payload_key, json.dumps(value, sort_keys=True))
            if key not in self.verdicts:
                self.verdicts[key] = matches_reference(kernel, value, payload)
            good = self.verdicts[key]
        if not good:
            self.wrong_by_kernel[kernel] = self.wrong_by_kernel.get(kernel, 0) + 1
        return good


class Metrics:
    """Ordered ``name -> (value, unit, samples)`` collector for one run."""

    def __init__(self) -> None:
        self.values: Dict[str, Dict[str, object]] = {}

    def put(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.values[name] = {"value": value, "unit": unit, "samples": samples}

    def line(self, names: Sequence[str]) -> Dict[str, Dict[str, object]]:
        """The result-line view: exactly *names*, value and unit only."""
        missing = [name for name in names if name not in self.values]
        if missing:
            raise KeyError(f"metrics not measured: {missing}")
        return {
            name: {"value": self.values[name]["value"], "unit": self.values[name]["unit"]}
            for name in names
        }


def _proc_status(pid: int, field: str) -> int:
    """A ``kB`` field of /proc/<pid>/status (0 when the process is gone)."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        pass
    return 0


def children_of(pid: int) -> List[int]:
    """Direct child pids of *pid* (all threads' child lists)."""
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children", "r", encoding="ascii") as handle:
                found.extend(int(child) for child in handle.read().split())
        except FileNotFoundError:
            continue
    return found


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of each process's peak resident set (VmHWM), in MB."""
    return sum(_proc_status(pid, "VmHWM") for pid in set(pids)) / 1024.0


def loadavg() -> List[float]:
    return [round(value, 2) for value in os.getloadavg()]


def fingerprint() -> Dict[str, object]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except FileNotFoundError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def out_dir(*parts: str) -> Path:
    path = OUT_DIR.joinpath(*parts)
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_record(workload: str, seed: int, trace: bool, record: Dict[str, object]) -> Path:
    """Write the run record (fingerprint, seed, raw samples) as JSON."""
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = out_dir("records") / f"{workload}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    return path


def render(metrics: Metrics, names: Optional[Sequence[str]] = None) -> str:
    """A human table: name, value, unit, samples."""
    rows = []
    for name in names or list(metrics.values):
        entry = metrics.values[name]
        rows.append(f"  {name:<44} {entry['value']:>14.6g} {entry['unit']:<10} n={entry['samples']}")
    return "\n".join(rows)
