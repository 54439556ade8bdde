"""Drives the ``segment`` command over its stdin and stdout.

Every line sent becomes a record; each output line answers the oldest
unanswered record, so a line that times out and is answered later cannot
shift the answers of the lines after it. An answer is correct when, with
spaces removed, it equals the line sent. A line whose answer does not
arrive within its timeout counts as failed.
"""

import collections
import subprocess
import threading
import time

from procs import BenchError, LineReader, beside_workload, pin, reap

clock = time.perf_counter

SETUP_TIMEOUT_S = 60.0
# Far above any single line's latency here (a few ms), so only a line the
# command holds back or never answers reaches it.
LINE_TIMEOUT_S = 2.0
# A bulk pass fails once no answer has arrived for this long.
BULK_STALL_S = 10.0


class Line:
    __slots__ = ("text", "phase", "sent", "done", "answer", "ok")

    def __init__(self, text: str, phase: str):
        self.text, self.phase = text, phase
        self.sent = self.done = 0.0
        self.answer = None
        self.ok = None  # None while waiting, then True or False


class Session:
    """One running ``segment`` process."""

    def __init__(self, cmd: list[str], env: dict, cwd: str, phases):
        self.phases = phases
        self.spawned = clock()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, cwd=cwd, bufsize=0)
        pin(self.proc.pid)
        self.out = LineReader(self.proc.stdout)
        self.pending: collections.deque[Line] = collections.deque()
        self.dead = False
        # the next text an interactive phase sends: each call goes on where
        # the last stopped, so every text is sent about equally often
        self.cursor = 0

    # -- low level -------------------------------------------------------------

    def _write(self, data: bytes) -> None:
        view = memoryview(data)
        try:
            while view:
                view = view[self.proc.stdin.write(view):]
        except (OSError, ValueError):  # the command has exited, or its stdin is closed
            self.dead = True

    def _fail(self, line: Line, why: str) -> None:
        if line.ok is None:
            line.ok = False
            self.phases.record(line.phase, False, why)

    def _receive(self, timeout: float) -> bool:
        """Read one answer and give it to the oldest pending line."""
        if self.dead:
            return False
        try:
            text = self.out.readline(timeout)
        except EOFError:
            self.dead = True
            return False
        if text is None:
            return False
        now = clock()
        if not self.pending:
            self.phases.record("segment.unexpected_output", False, repr(text[:40]))
            return True
        line = self.pending.popleft()
        if line.ok is None:
            line.done, line.answer = now, text
            if text.replace(" ", "") == line.text:
                line.ok = True
                self.phases.record(line.phase, True)
            else:
                self._fail(line, f"answer {text[:40]!r} does not spell {line.text[:40]!r}")
        return True

    def await_line(self, line: Line, timeout: float) -> bool:
        """Wait until line is answered; fail it on timeout."""
        deadline = clock() + timeout
        while line.ok is None:
            left = deadline - clock()
            if left <= 0 or not self._receive(left):
                self._fail(line, f"no answer within {timeout:.1f} s")
        return line.ok

    def send(self, text: str, phase: str) -> Line:
        line = Line(text, phase)
        self.pending.append(line)
        line.sent = clock()
        self._write((text + "\n").encode("utf-8"))
        return line

    # -- phases -------------------------------------------------------------------

    def ready(self, warmup: str) -> float:
        """Seconds from spawn until the first answer: process start, imports,
        vocabulary and checkpoint load, and one short line."""
        line = self.send(warmup, "segment.warmup")
        if not self.await_line(line, SETUP_TIMEOUT_S):
            self.proc.kill()
            raise BenchError("the segment command did not answer its warm-up line")
        return line.done - self.spawned

    def bulk(self, texts: list[str]) -> tuple[float, list[Line]]:
        """Pipe every line in at once from a writer thread and read the
        answers as they come; returns (seconds, lines)."""
        lines = [Line(t, "segment.bulk") for t in texts]
        blob = "".join(t + "\n" for t in texts).encode("utf-8")
        self.pending.extend(lines)
        start = clock()
        for line in lines:
            line.sent = start
        writer = threading.Thread(target=self._write, args=(blob,), daemon=True)
        writer.start()
        for line in lines:
            if not self.await_line(line, BULK_STALL_S):
                for rest in lines:
                    self._fail(rest, "bulk pass stalled")
                break
        elapsed = clock() - start
        writer.join(BULK_STALL_S)
        return elapsed, lines

    def interactive(self, texts: list[str], seconds: float, min_lines: int) -> list[float]:
        """Closed loop, one caller: send a line, wait for its answer, send
        the next. Returns per-line latency in ms; a line that fails counts
        as LINE_TIMEOUT_S, that is, as missing the latency limit."""
        latencies = []
        deadline = clock() + seconds
        with beside_workload():
            while len(latencies) < min_lines or clock() < deadline:
                line = self.send(texts[self.cursor % len(texts)], "segment.interactive")
                self.cursor += 1
                ok = self.await_line(line, LINE_TIMEOUT_S)
                latencies.append((line.done - line.sent) * 1e3 if ok else LINE_TIMEOUT_S * 1e3)
                if self.dead:
                    break
        return latencies

    def close(self, timeout: float = 30.0):
        """End the command's input, collect late answers, and reap it.
        Returns its resource usage."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        deadline = clock() + timeout
        while self.pending and clock() < deadline and self._receive(deadline - clock()):
            pass
        for line in self.pending:
            self._fail(line, "never answered")
        self.pending.clear()
        usage = reap(self.proc, max(deadline - clock(), 1.0))
        self.proc.stdout.close()
        self.phases.record("segment.exit", self.proc.returncode == 0,
                           f"exit code {self.proc.returncode}")
        return usage

