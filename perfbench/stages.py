"""Worker process for the train and evaluate stages.

    python3 perfbench/stages.py {train|evaluate} WORKDIR PLAN_JSON

Run in a fresh process per stage by run.py. The worker does its set-up
(imports, vocabulary, corpora, model build or checkpoint load) and prints
``READY``; with ``setup_only`` it then exits. Otherwise it reads one JSON
command per stdin line and answers each with one JSON line:

* ``{"op": "units", "seconds": S, "min_units": N}`` repeats the unit of
  work at least N times and until S seconds have passed; answers the unit
  timings.
* ``{"op": "trace", "units": N}`` runs N units with the tracer installed and
  writes the spans to the plan's ``spans`` path (needs ``trace`` in the plan,
  which also traces set-up).
* ``{"op": "done"}`` answers the sentences per unit, the dev F1 (train) or
  the report F1 (evaluate), and the per-phase op counts and check failures,
  then exits.
"""

import contextlib
import io
import json
import math
import sys
import time

import fixtures
from procs import Phases
from tracing import Tracer

import mccws
from mccws import autodiff, checkpoint, cli, corpus, trainer
from mccws.model import Model, ModelConfig

# The protocol channel; the evaluate command's own output is captured.
PROTOCOL_OUT = sys.stdout
clock = time.perf_counter

# One epoch from scratch reaches a mean dev F1 of 0.64-0.77 on these
# corpora; below this floor the run has lost accuracy, not just speed.
TRAIN_F1_FLOOR = 0.5
TRAIN = dict(epochs=1, batch_size=64, seed=0, lr=1.5e-3)


class TrainStage:
    """One unit: ``trainer.train`` for one epoch over the acceptance corpora
    from a freshly built model, one dev evaluation at its end, then the best
    parameters saved as a checkpoint and read back."""

    def __init__(self, work: str):
        self.p = fixtures.paths(work)
        self.ckpt = f"{work}/train-best.ckpt"
        self.vocab = corpus.Vocab.load(self.p["vocab"])
        self.config = ModelConfig(num_criteria=self.vocab.num_criteria, **fixtures.TRAIN_CONFIG)
        self.train_sents, self.dev_sents = [], []
        for cid, name in enumerate(fixtures.CRITERIA):
            raws = corpus.load_corpus(self.p[f"{name}.train"], cid)
            self.train_sents += trainer.prepare_for_training(raws, self.vocab, self.config.max_len)
            raws = corpus.load_corpus(self.p[f"{name}.dev"], cid)
            self.dev_sents += trainer.prepare_for_eval(raws, self.vocab, self.config.max_len)
        self.model = Model.for_vocab(self.config, self.vocab, seed=fixtures.MODEL_SEED)
        self.f1: list[float] = []

    def unit(self, phases: Phases) -> float:
        model = self.model or Model.for_vocab(self.config, self.vocab, seed=fixtures.MODEL_SEED)
        self.model = None
        start = clock()
        try:
            result = trainer.train(model, self.vocab, self.train_sents, self.dev_sents,
                                   trainer.TrainConfig(**TRAIN))
        except mccws.DivergenceError as exc:
            phases.record("train.epoch", False, str(exc))
            return clock() - start
        elapsed = clock() - start
        losses = [r["loss"] for r in result.metrics if r["split"] == "train"]
        phases.record("train.epoch", bool(losses) and all(math.isfinite(x) for x in losses),
                      f"non-finite training loss {losses}")
        self.f1.append(result.best_f1)
        phases.record("train.dev_eval", result.best_f1 >= TRAIN_F1_FLOOR,
                      f"dev F1 {result.best_f1:.4f} below {TRAIN_F1_FLOOR}")

        params = {k: autodiff.Tensor(v, requires_grad=True) for k, v in result.best_params.items()}
        best = Model(self.config, model.n_unigrams, model.n_bigrams, params=params)
        checkpoint.save_checkpoint(self.ckpt, best, self.vocab.sha256())
        loaded, _, _ = checkpoint.load_checkpoint(self.ckpt, self.vocab)
        same = all((loaded.params[k].data == v).all() for k, v in result.best_params.items())
        phases.record("train.checkpoint", same, "checkpoint did not read back bit-identical")
        return elapsed

    def sentences(self) -> int:
        return len(self.train_sents)


class EvaluateStage:
    """One unit: the ``evaluate`` command on both gold files at its default
    batch size, run in-process with its stdout captured."""

    def __init__(self, work: str):
        self.p = fixtures.paths(work)
        self.report = f"{work}/eval-report.jsonl"
        # the same loads the command starts with, so that set-up covers them
        vocab = corpus.Vocab.load(self.p["vocab"])
        checkpoint.load_checkpoint(self.p["checkpoint"], vocab)
        self.args = ["evaluate", "--checkpoint", self.p["checkpoint"], "--vocab", self.p["vocab"],
                     "--report", self.report]
        for name in fixtures.CRITERIA:
            self.args += ["--gold", f"{name}={self.p[f'{name}.eval']}"]
        self.f1: dict | None = None

    def unit(self, phases: Phases) -> float:
        table = io.StringIO()
        start = clock()
        try:
            with contextlib.redirect_stdout(table):
                cli.cli.main(list(self.args), standalone_mode=False)
        except Exception as exc:  # any failure of the command is a failed op
            phases.record("evaluate.run", False, f"{type(exc).__name__}: {exc}")
            return clock() - start
        elapsed = clock() - start
        with open(self.report, encoding="utf-8") as fh:
            f1 = {rec["criterion"]: rec["f1"] for rec in map(json.loads, fh)}
        avg = [line.split()[-1] for line in table.getvalue().splitlines() if line.startswith("avg")]
        ok = (sorted(f1) == sorted(fixtures.CRITERIA)
              and all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in f1.values())
              and avg == [f"{sum(f1.values()) / len(f1):.4f}"]
              and (self.f1 is None or f1 == self.f1))
        phases.record("evaluate.run", ok, f"bad or non-deterministic report {f1}, avg row {avg}")
        if self.f1 is None:
            self.f1 = f1
        return elapsed

    def sentences(self) -> int:
        return fixtures.EVAL_SENTENCES * len(fixtures.CRITERIA)


def run_units(stage, phases: Phases, seconds: float, min_units: int) -> list[float]:
    times = []
    deadline = clock() + seconds
    while len(times) < min_units or clock() < deadline:
        times.append(stage.unit(phases))
    return times


def main() -> None:
    name, work, plan = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    tracer = Tracer() if plan["trace"] else None
    if tracer:
        tracer.install()
    stage = {"train": TrainStage, "evaluate": EvaluateStage}[name](work)
    print("READY", file=PROTOCOL_OUT, flush=True)
    if plan["setup_only"]:
        return
    if tracer:
        tracer.uninstall()
    phases = Phases()
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["op"] == "units":
            out = {"unit_s": run_units(stage, phases, cmd["seconds"], cmd["min_units"])}
        elif cmd["op"] == "trace":
            tracer.gc_pause_s, tracer.gc_collections = 0.0, [0, 0, 0]
            tracer.install()
            out = {"unit_s": run_units(stage, phases, 0.0, cmd["units"])}
            tracer.uninstall()
            tracer.dump(plan["spans"])
        else:
            out = {"sentences": stage.sentences(), "f1": stage.f1,
                   "ops": phases.ops, "errors": phases.errors}
        print(json.dumps(out), file=PROTOCOL_OUT, flush=True)
        if cmd["op"] == "done":
            break


if __name__ == "__main__":
    main()
