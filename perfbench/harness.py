"""Shared plumbing: provenance, host clocks, percentiles, digests, records.

Nothing here imports ``repro``: the program under test is loaded by the
workload modules only, so a checkout without ``src/`` fails cleanly in
:mod:`perfbench.run` before any result is printed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: The checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for packed traces and dump files, inside the checkout.
WORK_DIR = ROOT / ".perfbench_work"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: The reference probe: a fixed pure-Python loop of integer arithmetic
#: and dict reads and writes, the interpreter work the program mostly
#: does.  It runs beside the program all through a measurement (between
#: windows of requests, a few times per live load slice, around each
#: set-up) and reads how fast the host is running Python right now.
PROBE_LOOPS = 2000
#: Probe time on the nominal host.  Every measured interval is scaled
#: by ``NOMINAL_PROBE_S / probe time measured beside it``, so timing
#: metrics read as if the host always ran at the nominal speed.  On the
#: shared 2-core host the benchmark was defined on, other tenants move
#: the speed between ~0.75x and ~1.5x of this for tens of seconds at a
#: time; the probe tracks those moves (the sim-replay median window
#: time per 10 s stretch ranged over 0.98-1.04x of its overall median
#: scaled, 0.76-1.36x raw).  The value is the probe's typical time on
#: that host, so scaled figures are close to the raw ones a run there
#: prints beside them.  A slower program is slower next to the same
#: probe, so a regression still shows.
NOMINAL_PROBE_S = 300e-6


class BenchError(Exception):
    """A correctness check failed or the program misbehaved."""


@dataclass
class Record:
    """Everything one workload run reports.

    ``metrics`` holds ``name -> (value, unit)``; ``checks`` holds
    ``description -> passed``.  ``attempted``/``failed`` count the
    workload's operations (requests replayed or sent).
    """

    workload: str
    config: Dict[str, Any]
    metrics: Dict[str, tuple] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, description: str, passed: bool) -> bool:
        """Record one check; a description that ever failed stays failed."""
        self.checks[description] = self.checks.get(description, True) and bool(passed)
        return bool(passed)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


def git_provenance() -> Dict[str, Any]:
    """``{"sha": ..., "dirty": ...}``; ``"unknown"`` outside a git checkout.

    git runs only when the checkout itself is a repository, so a plain
    source tree is never searched above its root.
    """
    if not (ROOT / ".git").exists():
        return {"sha": "unknown", "dirty": "unknown"}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"sha": "unknown", "dirty": "unknown"}
    return {"sha": sha, "dirty": bool(status.strip())}


def probe() -> float:
    """CPU seconds one run of the reference probe takes.

    CPU time, not wall time: a process that shares the CPU (the live
    server, pinned beside the client) must not count as a slower host.
    GC is paused, so a collection the program's heap triggers is not
    charged to the probe either.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = thread_time()
        table: Dict[int, int] = {}
        get = table.get
        for i in range(PROBE_LOOPS):
            table[i & 1023] = get(i & 511, 0) + i
        return thread_time() - start
    finally:
        if was_enabled:
            gc.enable()


def speed_scale(probes: Sequence[float]) -> float:
    """Factor that turns an interval measured beside *probes* into
    nominal-host seconds (their median over :data:`NOMINAL_PROBE_S`,
    inverted)."""
    return NOMINAL_PROBE_S / statistics.median(probes)


def calibration_rate(repeats: int = 51) -> float:
    """Reference-probe loop iterations per second (median of *repeats*).

    Measured at the start and end of every run so machine-speed drift
    between runs is visible next to the numbers.
    """
    return PROBE_LOOPS / statistics.median(probe() for _ in range(repeats))


def timed_setup(setup: Callable[[], Any], probes: int = 9) -> Tuple[Any, float]:
    """Run *setup*; return its result and its nominal-host seconds,
    scaled by probes taken right before and right after it."""
    around = [probe() for _ in range(probes)]
    begin = perf_counter()
    result = setup()
    elapsed = perf_counter() - begin
    around += [probe() for _ in range(probes)]
    return result, elapsed * speed_scale(around)


def provenance(seed: int, seconds: int, trace: bool) -> Dict[str, Any]:
    return {
        **git_provenance(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated *q*-quantile (0..1) of *samples*."""
    if not samples:
        raise BenchError("percentile of an empty sample")
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def digest(payload: Dict[str, Any]) -> str:
    """Short stable hash of a JSON-serialisable statistics dict."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def self_peak_rss_mib() -> float:
    """This process's peak resident set size (Linux ``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of process *pid* (from ``/proc``)."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2:].split()
    ticks = int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_cpu_ns(pid: int) -> int:
    """CPU nanoseconds of every thread of process *pid* (``schedstat``),
    fine-grained enough for sub-second slices."""
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            pass  # the thread ended between listing and reading
    return total


def proc_peak_rss_mib(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of process *pid* in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def render(record: Record, prov: Dict[str, Any]) -> str:
    """The self-describing config-plus-results block for one run."""
    lines = [f"WORKLOAD {record.workload}:", "  PROVENANCE:"]
    lines += [f"   * {key} -> {value}" for key, value in prov.items()]
    lines.append("  CONFIGURATION:")
    lines += [f"   * {key} -> {value}" for key, value in record.config.items()]
    lines.append("  RESULTS:")
    for name, (value, unit) in record.metrics.items():
        lines.append(f"    {name}: {value:.6g} {unit}")
    lines.append(
        f"    operations: attempted {record.attempted}, failed "
        f"{record.failed}, error_ratio "
        f"{record.failed / max(1, record.attempted):.6g}"
    )
    if record.notes:
        lines.append("  NOTES:")
        lines += [f"   * {key} -> {value}" for key, value in record.notes.items()]
    lines.append("  CHECKS:")
    for description, passed in record.checks.items():
        lines.append(f"   * [{'ok' if passed else 'FAIL'}] {description}")
    return "\n".join(lines)


def result_line(record: Record, names: List[str]) -> str:
    """The machine-readable last line: the metrics *names*, in order."""
    metrics = {}
    for name in names:
        value, unit = record.metrics[name]
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps(
        {
            "correct": record.correct,
            "attempted": record.attempted,
            "failed": record.failed,
            "metrics": metrics,
        }
    )


def ensure_work_dir() -> Path:
    WORK_DIR.mkdir(exist_ok=True)
    return WORK_DIR


def cleanup_work_dir() -> None:
    """Remove the scratch directory once the workloads left it empty."""
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
