"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py

They run each workload briefly (about a minute in all) and are not part of
the package's own test suite.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from procs import Phases, child_env  # noqa: E402
from segclient import LINE_TIMEOUT_S, Session  # noqa: E402
from tracing import PER_LAYER, Tracer, layer_metrics, self_times  # noqa: E402

# Per-layer metrics each workload's traced run must fill with a non-zero
# value; the rest read 0 there because the stage never calls that layer.
EXERCISED = {
    "train": {
        "autodiff.backward_ms", "optim.step_ms", "trainer.step_ms.p50", "trainer.step_ms.p90",
        "gc.pause_ms_per_step", "gc.collections.gen0", "autodiff.nodes_per_forward",
        "model.pad_frac", "model.pack_batch_ms", "model.loss_batch_ms", "model.encode_batch_ms",
        "model.fuse_batch_ms", "model.contextualize_batch_ms", "model.decode_labels_ms",
        "model.classify_criterion_ms", "corpus.prepare_ms", "checkpoint.load_ms",
        "checkpoint.save_ms", "corpus.decode_bmes_ms", "metrics.evaluate_criterion_ms",
        "optim.self_s", "trainer.self_s",
    },
    "segment": {
        "autodiff.nodes_per_forward", "model.encode_batch_ms", "model.fuse_batch_ms",
        "model.contextualize_batch_ms", "model.decode_labels_ms", "model.classify_criterion_ms",
        "model.segment_text_ms", "corpus.prepare_ms", "checkpoint.load_ms",
        "corpus.decode_bmes_ms", "cli.self_s",
    },
}
NOT_EXERCISED = {
    "train": {"model.segment_text_ms", "cli.self_s"},
    "segment": {"autodiff.backward_ms", "optim.step_ms", "model.loss_batch_ms",
                "model.pack_batch_ms", "model.pad_frac", "metrics.evaluate_criterion_ms"},
}


def run_bench(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_traced_run_fills_its_layers(workload):
    proc = run_bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(PER_LAYER)
    empty = sorted(m for m in EXERCISED[workload] if not metrics[m] > 0)
    assert not empty, f"{workload} left these layers empty: {empty}"
    busy = sorted(m for m in NOT_EXERCISED[workload] if metrics[m] != 0)
    assert not busy, f"{workload} should not reach: {busy}"


def test_untraced_run_prints_every_end_to_end_metric():
    proc = run_bench("segment", 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    assert detail["environment"]["seed"] == 3 and detail["environment"]["nproc"] >= 1
    for phase in ("train.epoch", "evaluate.run", "segment.bulk", "segment.interactive",
                  "segment.agree"):
        assert detail["phases"][phase]["attempted"] >= 1


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_held_back_lines_fail_instead_of_hanging():
    # answers only after its input ends, like a segmenter that waits to fill a batch
    holder = "import sys\nlines = sys.stdin.readlines()\nsys.stdout.writelines(lines)\n"
    phases = Phases()
    session = Session([sys.executable, "-c", holder], child_env(), ROOT, phases)
    latencies = session.interactive(["天地", "玄黄"], seconds=0.0, min_lines=2)
    session.close(timeout=10.0)
    assert latencies == [LINE_TIMEOUT_S * 1e3] * 2
    assert phases.ops["segment.interactive"] == [2, 2]


def test_spans_nest_where_callers_look_functions_up():
    import numpy as np

    import mccws.autodiff
    import mccws.trainer
    from mccws import Model, ModelConfig, SyntheticSpec, Vocab, generate_synthetic
    from mccws.model import pack_batch

    corpora = generate_synthetic(SyntheticSpec(n_train=8, n_dev=0, n_test=0), seed=0)
    raws = {name: splits["train"] for name, splits in corpora.items()}
    vocab = Vocab.build(raws)
    model = Model.for_vocab(ModelConfig(num_criteria=2, d_h=8, d_e=4, encoder_layers=1,
                                        heads=2, d_ff=8, max_len=32), vocab)
    sentences = mccws.trainer.prepare_for_training(raws["join"], vocab, 32)
    ids, bi, lengths, labels, cids = pack_batch(sentences, vocab)

    tracer = Tracer()
    tracer.install()
    try:
        assert mccws.trainer.backward is mccws.autodiff.backward
        assert mccws.trainer.backward.__wrapped__ is not None
        loss, _ = model.loss_batch(ids, bi, lengths, labels, cids)
        mccws.trainer.backward(loss)
    finally:
        tracer.uninstall()
    assert not hasattr(mccws.trainer.backward, "__wrapped__")

    spans = tracer.spans
    names = [s[0] for s in spans]
    parent = {names[i]: spans[spans[i][3]][0] for i in range(len(spans)) if spans[i][3] >= 0}
    assert parent["model.forward_batch"] == "model.loss_batch"
    assert parent["model.encode_batch"] == "model.forward_batch"
    assert "autodiff.backward" in names
    assert all(t >= -1e-9 for t in self_times(spans))
    assert tracer.forward_nodes and tracer.forward_nodes[0] > 0
    metrics = layer_metrics({"spans": spans, "forward_nodes": tracer.forward_nodes,
                             "positions": [0, int(np.prod(ids.shape))],
                             "gc_pause_s": 0.0, "gc_collections": [0, 0, 0]}, 0.0)
    assert metrics["model.loss_batch_ms"] > 0 and metrics["autodiff.backward_ms"] > 0
