"""The mccws benchmark.

    python3 perfbench/run.py --workload {train|segment} --seed N \\
        --seconds S --trace {0|1}

Run from the root of a source checkout; the package is imported from its
``src/`` directory. Inputs are generated from --seed. A run with --trace 0
measures all three stages (training, the evaluate command, the segment
command), each in its own fresh process taking turns with the others, and
prints every end-to-end metric; the workload names the stage whose set-up
time and peak memory are reported. --trace 1 runs only the workload's
stage, half of --seconds untraced and then a fixed amount of work traced,
and prints the per-layer metrics and the tracing overhead. The last stdout
line is the JSON result; the line before it gives the environment, the
per-phase op counts and the sample counts. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from procs import (BLAS_THREADS, BLAS_VARS, CPUS, HARNESS_CPU, ROOT, SRC, WORKLOAD_CPU,
                   BenchError, LineReader, Phases, child_env, peak_rss_mb, pin, reap)
from segclient import Session
from tracing import PER_LAYER, layer_metrics, percentile

os.environ.update({var: BLAS_THREADS for var in BLAS_VARS})

clock = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("train", "segment")
# A run must end within 180 s; a stage that has not answered by then is killed.
RUN_LIMIT_S = 170.0
SETUP_TIMEOUT_S = 60.0

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_sent_per_s": "sent/s",
    "train_dev_f1": "F1",
    "eval_sent_per_s": "sent/s",
    "segment_sent_per_s": "sent/s",
    "segment_line_ms.p50": "ms",
    "segment_line_ms.p90": "ms",
}

# Every --trace 0 run measures the three stages the same way; the workload
# only names the stage whose set-up time and peak memory are reported, and
# which a --trace 1 run traces. The stages take turns in ROUNDS rounds,
# because the host's speed drifts by tens of percent over seconds to tens
# of seconds, and a stage measured in a few blocks would see a few draws of
# that drift; short slices spread over the whole run average it out.
# Per round: an evaluate slice, a bulk segment slice, a training epoch in
# TRAIN_ROUNDS, an interactive segment slice. A slice measures for its share
# of --seconds spread over the rounds, and for at least one unit.
ROUNDS = 8
TRAIN_ROUNDS = (1, 5)
SHARE = {"evaluate": 0.5, "segment": 1.0}
# Traced work in a --trace 1 run.
TRACED_EPOCHS = 1
TRACED_SEGMENT = dict(passes=1, lines=200)


def import_package():
    """Import mccws from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "mccws", "__init__.py")):
        raise BenchError(f"no mccws sources under {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    import mccws
    if os.path.dirname(os.path.dirname(os.path.abspath(mccws.__file__))) != SRC:
        raise BenchError(f"imported mccws from {mccws.__file__}, not from {SRC}")


def environment(seed: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {"nproc": len(CPUS), "cpu_count": os.cpu_count(),
            "harness_cpu": HARNESS_CPU, "workload_cpu": WORKLOAD_CPU,
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS}, "numpy_blas": blas,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "seed": seed}


def rate(per_unit: int, seconds: list[float]) -> float:
    """Throughput over a run: all the work done over all the time it took.
    Unit times on a shared host cluster around a fast and a slow speed, and
    a median jumps between the two where this total moves smoothly."""
    return per_unit * len(seconds) / sum(seconds)


def word_spans(line: str) -> list[tuple[int, int]]:
    """The character-offset spans of the words of a space-separated line."""
    spans, pos = [], 0
    for word in line.split():
        spans.append((pos, pos + len(word)))
        pos += len(word)
    return spans


class Worker:
    """A stages.py process, driven one JSON command per line."""

    def __init__(self, runner: "Runner", stage: str, setup_only: bool = False,
                 trace: bool = False):
        self.runner, self.stage = runner, stage
        self.spans = os.path.join(runner.work, f"spans-{stage}.json")
        plan = dict(setup_only=setup_only, trace=trace, spans=self.spans)
        cmd = [sys.executable, os.path.join(HERE, "stages.py"), stage, runner.work,
               json.dumps(plan)]
        start = clock()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=child_env(), cwd=ROOT)
        runner.procs.append(self.proc)
        pin(self.proc.pid)
        self.out = LineReader(self.proc.stdout)
        self._expect("READY", min(SETUP_TIMEOUT_S, runner.remaining()))
        self.setup_s = clock() - start

    def _expect(self, what: str | None, timeout: float) -> str:
        try:
            line = self.out.readline(timeout)
        except EOFError:
            line = None
        if line is None or (what is not None and line != what):
            raise BenchError(f"{self.stage} worker gave {line!r} instead of {what or 'a reply'}")
        return line

    def call(self, **cmd) -> dict:
        self.proc.stdin.write((json.dumps(cmd) + "\n").encode())
        self.proc.stdin.flush()
        return json.loads(self._expect(None, self.runner.remaining()))

    def close(self) -> tuple[dict, float]:
        """Ends the worker; returns its final report and its peak RSS in MB."""
        final = self.call(op="done")
        self.proc.stdin.close()
        self.proc.stdout.close()
        usage = reap(self.proc, 30.0)
        if self.proc.returncode != 0:
            raise BenchError(f"{self.stage} worker exited with {self.proc.returncode}")
        self.runner.merge(final["ops"], final["errors"])
        return final, peak_rss_mb(usage)

    def probe(self) -> float:
        self.proc.stdin.close()
        self.proc.stdout.close()
        reap(self.proc, 30.0)
        return self.setup_s


class Runner:
    def __init__(self, args, work: str, paths: dict):
        self.args, self.work, self.p = args, work, paths
        self.deadline = clock() + RUN_LIMIT_S
        self.phases = Phases()
        self.samples: dict[str, int] = {}
        self.procs: list[subprocess.Popen] = []
        with open(paths["segment_input"], encoding="utf-8") as fh:
            self.texts = fh.read().splitlines()
        self.segment_args = ["segment", "--checkpoint", paths["checkpoint"],
                             "--vocab", paths["vocab"], "--criterion", "join"]

    def remaining(self) -> float:
        left = self.deadline - clock()
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        return left

    def merge(self, ops: dict, errors: list[str]) -> None:
        for phase, (attempted, failed) in ops.items():
            counts = self.phases.ops.setdefault(phase, [0, 0])
            counts[0] += attempted
            counts[1] += failed
        self.phases.errors += errors[: max(0, 20 - len(self.phases.errors))]

    def kill_all(self) -> None:
        for proc in self.procs:
            if proc.returncode is None:
                proc.kill()
                reap(proc, 10.0)

    # -- the segment command ----------------------------------------------------------------

    def session(self, traced_spans: str | None = None):
        if traced_spans:
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), traced_spans]
        else:
            cmd = [sys.executable, "-m", "mccws.cli"]
        session = Session(cmd + self.segment_args, child_env(), ROOT, self.phases)
        self.procs.append(session.proc)
        setup = session.ready(self.texts[0][:4])
        return session, setup

    def segment_probe(self) -> float:
        session, setup = self.session()
        session.close(min(30.0, self.remaining()))
        return setup

    def bulk_passes(self, session, seconds: float, passes: list, first: list) -> None:
        """At least one bulk pass, and more until seconds have passed; adds
        each pass's seconds to passes, and the first pass's lines to first."""
        end, done = clock() + seconds, 0
        while not done or clock() < end:
            elapsed, lines = session.bulk(self.texts)
            passes.append(elapsed)
            if not first:
                first.extend(lines)
            done += 1
            self.remaining()

    def check_agreement(self, first: list, eval_f1: dict) -> None:
        with open(self.p["join.eval"], encoding="utf-8") as fh:
            gold = fh.read().splitlines()
        from mccws.metrics import f1_score  # importable only after import_package()
        answers = [line.answer for line in first]
        ok = None not in answers and abs(
            f1_score([word_spans(g) for g in gold], [word_spans(a) for a in answers]).f1
            - eval_f1["join"]) <= 1e-12
        self.phases.record("segment.agree", ok,
                           f"bulk segment F1 differs from evaluate's {eval_f1['join']}")

    # -- runs ------------------------------------------------------------------------------------

    def run(self) -> dict[str, float]:
        wl, seconds = self.args.workload, float(self.args.seconds)
        probe = {"train": lambda: Worker(self, "train", setup_only=True).probe(),
                 "segment": self.segment_probe}[wl]
        setups = []

        train, evaluate = Worker(self, "train"), Worker(self, "evaluate")
        session, seg_setup = self.session()
        setups.append(train.setup_s if wl == "train" else seg_setup)
        # one untimed unit each: the first pays one-time costs (first
        # allocations, lazy imports) that set-up does not cover
        evaluate.call(op="units", seconds=0.0, min_units=1)
        first: list = []
        self.bulk_passes(session, 0.0, [], first)
        eval_slice = seconds * SHARE["evaluate"] / ROUNDS
        seg_slice = seconds * SHARE["segment"] / ROUNDS / 2
        train_s, eval_s, passes, latencies = [], [], [], []
        try:
            for r in range(ROUNDS):
                # a fresh process only to time set-up, so that set-up too
                # samples the whole run
                setups.append(probe())
                eval_s += evaluate.call(op="units", seconds=eval_slice, min_units=1)["unit_s"]
                self.bulk_passes(session, seg_slice, passes, first)
                if r in TRAIN_ROUNDS:
                    train_s += train.call(op="units", seconds=0.0, min_units=1)["unit_s"]
                latencies += session.interactive(self.texts, seg_slice, min_lines=100)
        finally:
            seg_usage = session.close(min(30.0, self.remaining()))
        train_final, train_rss = train.close()
        eval_final, _ = evaluate.close()
        self.check_agreement(first, eval_final["f1"])

        self.samples.update({"setup": len(setups), "train.units": len(train_s),
                             "evaluate.units": len(eval_s), "segment.bulk_passes": len(passes),
                             "segment.interactive_lines": len(latencies)})
        return {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": train_rss if wl == "train" else peak_rss_mb(seg_usage),
            "train_sent_per_s": rate(train_final["sentences"], train_s),
            "train_dev_f1": statistics.median(train_final["f1"]),
            "eval_sent_per_s": rate(eval_final["sentences"], eval_s),
            "segment_sent_per_s": rate(len(self.texts), passes),
            "segment_line_ms.p50": percentile(latencies, 50),
            "segment_line_ms.p90": percentile(latencies, 90),
        }

    def run_traced(self) -> dict[str, float]:
        """The workload's stage alone: half of --seconds untraced, then a
        fixed amount of work traced. Overhead compares the two throughputs."""
        wl, seconds = self.args.workload, float(self.args.seconds)
        if wl == "segment":
            evaluate = Worker(self, "evaluate")
            evaluate.call(op="units", seconds=0.0, min_units=1)
            eval_f1 = evaluate.close()[0]["f1"]
            passes, first = [], []
            session, _ = self.session()
            try:
                self.bulk_passes(session, seconds / 4, passes, first)
                session.interactive(self.texts, seconds / 4, min_lines=100)
            finally:
                session.close(min(30.0, self.remaining()))
            self.check_agreement(first, eval_f1)
            spans = os.path.join(self.work, "spans-segment.json")
            traced, traced_first = [], []
            session, _ = self.session(traced_spans=spans)
            try:
                for _ in range(TRACED_SEGMENT["passes"]):
                    self.bulk_passes(session, 0.0, traced, traced_first)
                session.interactive(self.texts, 0.0, TRACED_SEGMENT["lines"])
            finally:
                session.close(min(30.0, self.remaining()))
            untraced_rate, traced_rate = rate(1, passes), rate(1, traced)
        else:
            worker = Worker(self, wl, trace=True)
            plain = worker.call(op="units", seconds=seconds / 2, min_units=1)["unit_s"]
            traced = worker.call(op="trace", units=TRACED_EPOCHS)["unit_s"]
            worker.close()
            spans = worker.spans
            untraced_rate, traced_rate = rate(1, plain), rate(1, traced)
        self.samples["untraced_units"] = len(passes if wl == "segment" else plain)
        with open(spans, encoding="utf-8") as fh:
            return layer_metrics(json.load(fh), 100.0 * (untraced_rate / traced_rate - 1.0))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    started = clock()
    if HARNESS_CPU is not None:
        os.sched_setaffinity(0, {HARNESS_CPU})
    runner = None
    try:
        import_package()
        import fixtures
        os.makedirs(WORK_ROOT, exist_ok=True)
        work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
        try:
            runner = Runner(args, work, fixtures.make(work, args.seed))
            values = runner.run_traced() if args.trace else runner.run()
        finally:
            if runner:
                runner.kill_all()
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    units = PER_LAYER if args.trace else END_TO_END
    ops = runner.phases.ops
    attempted = sum(a for a, _ in ops.values())
    failed = sum(f for _, f in ops.values())
    for name, unit in units.items():
        print(f"{name:32s} {values[name]:14.6g} {unit}")
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "environment": environment(args.seed),
                      "phases": {k: {"attempted": a, "failed": f} for k, (a, f) in ops.items()},
                      "errors": runner.phases.errors, "samples": runner.samples,
                      "wall_s": clock() - started}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
