"""Child-process plumbing: line reads with a timeout, and reaping with the
child's resource usage (for its peak RSS)."""

import contextlib
import os
import select
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One BLAS thread: the matrices are small (d_h 64), and one thread keeps a
# 2-core machine's second core free for the harness, which steadies timings.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# The CPUs this process may use, read before run.py pins itself. With two
# or more, the harness keeps the first and every measured process gets the
# second, so a caller and the process it times never run on one CPU at
# once and neither migrates. With one, nothing is pinned.
CPUS = sorted(os.sched_getaffinity(0))
HARNESS_CPU, WORKLOAD_CPU = (CPUS[0], CPUS[1]) if len(CPUS) > 1 else (None, None)


def pin(pid: int) -> None:
    """Move a measured process onto the workload CPU."""
    if WORKLOAD_CPU is not None:
        os.sched_setaffinity(pid, {WORKLOAD_CPU})


@contextlib.contextmanager
def beside_workload():
    """Run the calling thread on the workload CPU for a while.

    For a closed-loop caller, which waits while the command works: the two
    hand the CPU to each other on every line, and no line waits for an idle
    CPU to wake up. On a virtual machine that wake-up waits for the host to
    run the idle vCPU, so across CPUs a line's latency followed the host's
    load more than the command's own speed."""
    if WORKLOAD_CPU is None:
        yield
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {WORKLOAD_CPU})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


class BenchError(Exception):
    """The benchmark could not run to the end; no result is printed."""


class Phases:
    """Ops attempted and failed per phase, with the first failure messages."""

    def __init__(self):
        self.ops: dict[str, list[int]] = {}
        self.errors: list[str] = []

    def record(self, phase: str, ok: bool, why: str = "") -> None:
        counts = self.ops.setdefault(phase, [0, 0])
        counts[0] += 1
        if not ok:
            counts[1] += 1
            if len(self.errors) < 20:
                self.errors.append(f"{phase}: {why}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


class LineReader:
    """Reads newline-terminated UTF-8 lines from a pipe without blocking
    past a deadline."""

    def __init__(self, stream):
        self.fd = stream.fileno()
        self.buf = bytearray()
        self.eof = False

    def readline(self, timeout: float) -> str | None:
        """The next line without its newline; None on timeout. Raises
        EOFError when the writer has closed the pipe."""
        deadline = time.perf_counter() + timeout
        while True:
            i = self.buf.find(b"\n")
            if i >= 0:
                line = bytes(self.buf[:i]).decode("utf-8")
                del self.buf[:i + 1]
                return line
            if self.eof:
                raise EOFError
            left = deadline - time.perf_counter()
            if left <= 0:
                return None
            ready, _, _ = select.select([self.fd], [], [], left)
            if ready:
                chunk = os.read(self.fd, 1 << 16)
                if chunk:
                    self.buf += chunk
                else:
                    self.eof = True


def reap(proc, timeout: float):
    """Wait for proc to exit and return its resource usage; kill it if it
    has not exited within timeout."""
    deadline = time.perf_counter() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.perf_counter() > deadline:
            proc.kill()
            _, status, _ = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise BenchError(f"{proc.args[1]} did not exit within {timeout:.0f} s; killed")
        time.sleep(0.01)


def peak_rss_mb(usage) -> float:
    return usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
