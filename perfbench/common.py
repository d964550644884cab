"""Shared plumbing of the benchmark: paths, timing, stats, processes.

Every file the benchmark writes lives under ``.perfbench_work/`` in the
directory it runs from (the checkout root); each run uses its own
subdirectory and removes it when it ends.
"""

from __future__ import annotations

import http.client
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(os.getcwd(), ".perfbench_work")

#: Answers per query in every workload.
K = 10

#: Load threads per workload (the benchmark targets a 2-core machine).
MAX_LOAD = 2


def ensure_program() -> None:
    """Put the checkout's ``src/`` on the import path, or exit non-zero
    when the program is missing (a directory holding the benchmark
    alone must fail rather than print a result)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program under {SRC} (expected src/repro); "
              f"run from the root of a full checkout", file=sys.stderr)
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    """Environment for program processes: ``src/`` importable, no
    inherited fault injection or sanitizer switches."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for name in ("REPRO_FAULTS", "REPRO_FAULTS_SEED", "REPRO_SANITIZE"):
        env.pop(name, None)
    env["PYTHONHASHSEED"] = "0"
    return env


def load_threads() -> int:
    """Worker count for the parallel workloads: the usable cores,
    capped at :data:`MAX_LOAD`."""
    return max(1, min(MAX_LOAD, len(os.sched_getaffinity(0))))


class WorkDir:
    """A per-run scratch directory under :data:`WORK_ROOT`."""

    def __init__(self, name: str):
        self.path = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)

    def join(self, *parts: str) -> str:
        return os.path.join(self.path, *parts)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it

    def __enter__(self) -> "WorkDir":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def now() -> float:
    return time.perf_counter()


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def snapshot_mb(directory: str) -> float:
    """Megabytes on disk of a database directory's *current*
    generation (``save_database`` keeps every older one beside it)."""
    with open(os.path.join(directory, "CURRENT"), encoding="utf-8") as f:
        generation = f.read().strip()
    current = os.path.join(directory, "snapshots", generation)
    total = sum(os.path.getsize(os.path.join(current, name))
                for name in os.listdir(current))
    return total / 1e6


def cpu_times() -> List[int]:
    """The machine's aggregate CPU time counters (``/proc/stat``)."""
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def steal_share(before: Sequence[int], after: Sequence[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests between two
    :func:`cpu_times` readings (``steal`` is the eighth counter)."""
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total else 0.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Peak RSS of the largest child this process has waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def wait_child(process: subprocess.Popen, timeout_s: float) -> float:
    """Wait for ``process`` and return its peak RSS in MB (from
    ``wait4``: the child itself and any descendants it reaped)."""
    deadline = time.monotonic() + timeout_s
    while True:
        pid, status, usage = os.wait4(process.pid, os.WNOHANG)
        if pid:
            process.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            process.kill()
            pid, status, usage = os.wait4(process.pid, 0)
            process.returncode = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"process {process.args!r} did not exit "
                               f"within {timeout_s:.0f} s")
        time.sleep(0.02)


def running(process: subprocess.Popen) -> bool:
    """Whether ``process`` is still running, without reaping it (so
    :func:`wait_child` can still read its resource usage)."""
    return os.waitid(os.P_PID, process.pid,
                     os.WEXITED | os.WNOHANG | os.WNOWAIT) is None


def run_python(script: str, job: Dict[str, object], workdir: WorkDir,
               name: str, timeout_s: float) -> Dict[str, object]:
    """Run ``perfbench/<script>`` on a JSON job file in a child process;
    returns its JSON result plus ``peak_rss_mb`` from wait4."""
    job_path = workdir.join(f"{name}.job.json")
    out_path = workdir.join(f"{name}.out.json")
    with open(job_path, "w", encoding="utf-8") as handle:
        json.dump(dict(job, output=out_path), handle)
    process = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, script), job_path],
        env=child_env(), cwd=workdir.path)
    peak = wait_child(process, timeout_s)
    if process.returncode != 0:
        raise RuntimeError(f"{script} {name} exited with "
                           f"{process.returncode}")
    with open(out_path, encoding="utf-8") as handle:
        result = json.load(handle)
    result["peak_rss_mb"] = peak
    return result


class Server:
    """``repro serve`` in a child process on an ephemeral port.

    ``traced`` runs the server through ``perfbench/launch.py``, which
    installs the per-layer spans first; ``cpus`` pins the server (all
    its threads) to those CPUs."""

    def __init__(self, source: str, workdir: WorkDir, name: str,
                 traced: bool = False, cpus: Optional[set] = None):
        self.spool = workdir.join(f"{name}.layers.json") if traced else None
        if traced:
            command = [sys.executable, os.path.join(BENCH_DIR, "launch.py"),
                       self.spool]
        else:
            command = [sys.executable, "-m", "repro"]
        command += ["serve", source, "--port", "0"]
        self._out = workdir.join(f"{name}.out")
        self._err = workdir.join(f"{name}.err")
        # The child gets its own descriptors; this process reads the
        # files through fresh ones (a shared offset would hide lines).
        with open(self._out, "w", encoding="utf-8") as stdout, \
                open(self._err, "w", encoding="utf-8") as stderr:
            pin = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
            self.process = subprocess.Popen(command, env=child_env(),
                                            cwd=workdir.path,
                                            stdout=stdout, stderr=stderr,
                                            preexec_fn=pin)
        self.peak_rss_mb = 0.0
        try:
            self.port = self._await_port(120.0)
        except BaseException:
            self._kill()
            raise

    def _await_port(self, timeout_s: float) -> int:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if not running(self.process):
                with open(self._err, encoding="utf-8") as handle:
                    raise RuntimeError(f"server exited early: "
                                       f"{handle.read()[-2000:]}")
            with open(self._out, encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("serving on http://"):
                        return int(line.split()[2].rsplit(":", 1)[1])
            time.sleep(0.01)
        raise RuntimeError("server did not announce its port")

    def _kill(self) -> None:
        if running(self.process):
            self.process.kill()
        wait_child(self.process, 60.0)

    def connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=120)

    def stop(self) -> Optional[Dict[str, object]]:
        """SIGTERM (graceful drain), wait, and return the launcher's
        layer totals when traced."""
        if running(self.process):
            self.process.send_signal(signal.SIGTERM)
        self.peak_rss_mb = wait_child(self.process, 60.0)
        if self.process.returncode != 0:
            raise RuntimeError(f"server exited with "
                               f"{self.process.returncode}")
        if self.spool is None:
            return None
        with open(self.spool, encoding="utf-8") as handle:
            return json.load(handle)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc: object) -> None:
        """Stop a server the caller has not stopped (an error path)."""
        if self.process.returncode is None:
            self._kill()


def request(connection: http.client.HTTPConnection, method: str,
            path: str, payload: Optional[Dict[str, object]] = None
            ) -> Dict[str, object]:
    """One keep-alive JSON request; raises on a non-200 answer."""
    body = json.dumps(payload).encode("utf-8") if payload is not None \
        else None
    headers = {"Content-Type": "application/json"} if body else {}
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    data = response.read()
    if response.status != 200:
        raise RuntimeError(f"{method} {path} -> {response.status}: "
                           f"{data[:300]!r}")
    return json.loads(data)


def emit(result: Dict[str, object]) -> None:
    """Print the run's result as the last line of standard output."""
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    sys.stdout.flush()


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
