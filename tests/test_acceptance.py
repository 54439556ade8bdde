"""Acceptance suite: every criterion as a dedicated test with its stated
tolerance and runtime budget. Run with `pytest -s tests/test_acceptance.py`
to see one PASS line per criterion."""

import math
import random
import time

import numpy as np
import pytest

from mccws import trainer as tr
from mccws.autodiff import backward, zero_grads
from mccws.checkpoint import save_checkpoint
from mccws.corpus import RawSentence, Vocab, decode_bmes, encode_bmes, prepare_sentence
from mccws.metrics import f1_score, mean_f1
from mccws.model import Model, ModelConfig, pack_batch
from mccws.optim import AdamW, WarmupLinearSchedule
from mccws.synth import SyntheticSpec, boundary_disagreement, generate_synthetic

from gradutil import finite_diff, max_violation
from scoreutil import oracle_f1


def ok(msg):
    print(f"PASS {msg}")


def random_partition(rng, length):
    cuts = sorted(rng.sample(range(1, length), rng.randint(0, length - 1))) if length > 1 else []
    bounds = [0] + cuts + [length]
    return list(zip(bounds[:-1], bounds[1:]))


# -- criterion 1: gradient fidelity ------------------------------------------------

def test_criterion_1_gradient_fidelity():
    t0 = time.monotonic()
    vocab = Vocab.build({
        "ctb": [RawSentence(["李娜", "进入", "半决赛"], 0)],
        "pku": [RawSentence(["李", "娜", "进入", "半", "决赛"], 1)],
    })
    config = ModelConfig(num_criteria=2, d_h=8, d_e=4, encoder_layers=1, heads=2,
                         d_ff=16, max_len=8)
    word_pool = [["李娜", "进入"], ["半", "决赛"], ["李", "娜", "进入"], ["半决赛"],
                 ["进入", "半", "决"]]
    worst = 0.0
    for seed in range(5):
        model = Model.for_vocab(config, vocab, seed=seed)
        sents = [prepare_sentence(RawSentence(word_pool[seed % len(word_pool)], 0), vocab),
                 prepare_sentence(RawSentence(word_pool[(seed + 2) % len(word_pool)], 1), vocab)]
        assert all(len(s) <= 6 for s in sents)
        ids, bi, lengths, labels, cids = pack_batch(sents, vocab)

        def loss_fn():
            return model.loss_batch(ids, bi, lengths, labels, cids)[0].item()

        loss, _ = model.loss_batch(ids, bi, lengths, labels, cids)
        backward(loss)
        fds = finite_diff(loss_fn, list(model.params.values()))
        for (name, p), fd in zip(model.params.items(), fds):
            v = max_violation(fd, p.grad, rel=1e-4, abso=1e-7)
            assert v <= 1.0, f"seed {seed}, {name}: violation {v:.3g}"
            worst = max(worst, v)
        zero_grads(model.params.values())
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    ok(f"criterion 1: full-model gradients match finite differences over 5 seeds "
       f"(worst tolerance use {worst:.2f}, {elapsed:.1f}s)")


# -- criterion 2: BMES codec ---------------------------------------------------------

def test_criterion_2_bmes_codec():
    rng = random.Random(2024)
    for _ in range(1000):
        length = rng.randint(1, 30)
        spans = random_partition(rng, length)
        assert decode_bmes(encode_bmes(spans, length)) == spans
    checked = 0
    for length in range(1, 9):
        for code in range(4 ** length):
            labels = [(code >> (2 * t)) & 3 for t in range(length)]
            spans = decode_bmes(labels)
            pos = 0
            for start, end in spans:
                assert start == pos and end > start
                pos = end
            assert pos == length
            checked += 1
    ok(f"criterion 2: 1000 round trips exact; repair total on all {checked} "
       f"label sequences with T<=8")


# -- criterion 3: scorer oracle --------------------------------------------------------

def test_criterion_3_scorer_oracle():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(1, 20)
        lengths = [rng.randint(1, 12) for _ in range(n)]
        gold = [random_partition(rng, L) for L in lengths]
        pred = [random_partition(rng, L) for L in lengths]
        r = f1_score(gold, pred)
        assert (r.precision, r.recall, r.f1) == oracle_f1(gold, pred)
    hand = f1_score([[(0, 2), (2, 4), (4, 7)]], [[(0, 2), (2, 3), (3, 4), (4, 7)]])
    assert hand.true_positives == 2 and hand.pred_count == 4 and hand.gold_count == 3
    assert hand.f1 == 4 / 7
    ok("criterion 3: f1_score equals oracle exactly on 100 corpora; hand case F1 == 4/7")


# -- criterion 4: overfit sanity ----------------------------------------------------------

def test_criterion_4_overfit_sanity():
    t0 = time.monotonic()
    spec = SyntheticSpec(criteria={"only": "run"}, n_train=50, n_dev=0, n_test=0)
    corpora = generate_synthetic(spec, seed=3)
    vocab = Vocab.build({"only": corpora["only"]["train"]})
    train_sents = tr.prepare_for_training(corpora["only"]["train"], vocab, 128)
    config = ModelConfig(num_criteria=1, d_h=48, d_e=16, encoder_layers=2, heads=2,
                         d_ff=96, max_len=64)
    model = Model.for_vocab(config, vocab, seed=0)
    cfg = tr.TrainConfig(epochs=30, batch_size=8, seed=0, lr=2e-3)
    tr.train(model, vocab, train_sents, None, cfg)
    preds, _ = model.predict(train_sents, vocab)
    gold = np.concatenate([encode_bmes(s.gold_spans, len(s)) for s in train_sents])
    acc = float(np.mean(np.concatenate(preds) == gold))
    f1 = f1_score([s.gold_spans for s in train_sents],
                  [decode_bmes(p.tolist()) for p in preds]).f1
    elapsed = time.monotonic() - t0
    assert acc >= 0.99, f"label accuracy {acc:.4f}"
    assert f1 >= 0.99, f"train F1 {f1:.4f}"
    assert elapsed < 120.0, f"overfit took {elapsed:.1f}s"
    ok(f"criterion 4: 50-sentence overfit reaches accuracy {acc:.4f}, F1 {f1:.4f} "
       f"in 30 epochs ({elapsed:.1f}s)")


# -- criteria 5 + 7 share one training run --------------------------------------------------

@pytest.fixture(scope="module")
def conditioning_run():
    t0 = time.monotonic()
    spec = SyntheticSpec(n_train=2000, n_dev=200, n_test=200)
    corpora = generate_synthetic(spec, seed=5)
    names = sorted(corpora)
    rate = boundary_disagreement(corpora[names[0]]["train"], corpora[names[1]]["train"])
    vocab = Vocab.build({n: corpora[n]["train"] for n in names})
    train_sents, dev_sents = [], []
    for n in names:
        train_sents += tr.prepare_for_training(corpora[n]["train"], vocab, 128)
        dev_sents += tr.prepare_for_eval(corpora[n]["dev"], vocab, 128)
    config = ModelConfig(num_criteria=2, d_h=64, d_e=32, encoder_layers=2, heads=4,
                         d_ff=256, max_len=64)
    model = Model.for_vocab(config, vocab, seed=0)
    cfg = tr.TrainConfig(epochs=20, batch_size=64, seed=0, lr=1.5e-3, eval_every=2)
    result = tr.train(model, vocab, train_sents, dev_sents, cfg)
    for name, arr in result.best_params.items():
        model.params[name].data = arr.copy()
    elapsed = time.monotonic() - t0
    return {
        "model": model, "vocab": vocab, "corpora": corpora, "names": names,
        "dev_sents": dev_sents, "disagreement": rate, "elapsed": elapsed,
        "n_train": len(train_sents),
    }


def test_criterion_5_criterion_conditioning(conditioning_run):
    run = conditioning_run
    model, vocab, names = run["model"], run["vocab"], run["names"]
    assert run["n_train"] >= 2000
    assert run["disagreement"] >= 0.30
    results = tr.evaluate_model(model, vocab, run["dev_sents"])
    f1s = {}
    for name in names:
        report, _ = results[name]
        f1s[name] = report.f1
        assert report.f1 >= 0.95, f"dev F1 for {name}: {report.f1:.4f}"

    # swap test: identical test text under each criterion token must follow
    # that criterion's gold boundaries
    agreements = {}
    for name in names:
        test_sents = tr.prepare_for_eval(run["corpora"][name]["test"], vocab, 128)
        preds, _ = model.predict(test_sents, vocab)
        match = total = 0
        for sent, pred in zip(test_sents, preds):
            gold_cuts = {s for s, _ in sent.gold_spans if s > 0}
            pred_cuts = {s for s, _ in decode_bmes(pred.tolist()) if s > 0}
            for pos in range(1, len(sent)):
                match += int((pos in gold_cuts) == (pos in pred_cuts))
                total += 1
        agreements[name] = match / total
        assert agreements[name] >= 0.90, f"boundary agreement for {name}: {agreements[name]:.4f}"
    elapsed = run["elapsed"]
    assert elapsed < 600.0, f"training took {elapsed:.1f}s"
    ok("criterion 5: dev F1 " +
       ", ".join(f"{n}={f1s[n]:.4f}" for n in names) +
       "; swap boundary agreement " +
       ", ".join(f"{n}={agreements[n]:.4f}" for n in names) +
       f"; disagreement {run['disagreement']:.3f}; {elapsed:.0f}s")


def test_criterion_7_auxiliary_classifier(conditioning_run):
    run = conditioning_run
    results = tr.evaluate_model(run["model"], run["vocab"], run["dev_sents"])
    for name, (_, accuracy) in results.items():
        assert accuracy == 1.0, f"criterion accuracy for {name}: {accuracy}"
    ok("criterion 7: criterion classification accuracy 100% on synthetic dev")


# -- criterion 6: ablation direction ---------------------------------------------------------

def test_criterion_6_bigram_ablation():
    spec = SyntheticSpec(n_train=600, n_dev=150, n_test=0)
    corpora = generate_synthetic(spec, seed=11)
    names = sorted(corpora)
    vocab = Vocab.build({n: corpora[n]["train"] for n in names})
    train_sents, dev_sents = [], []
    for n in names:
        train_sents += tr.prepare_for_training(corpora[n]["train"], vocab, 128)
        dev_sents += tr.prepare_for_eval(corpora[n]["dev"], vocab, 128)

    def run(seed, use_bigram):
        config = ModelConfig(num_criteria=2, d_h=32, d_e=16, encoder_layers=1, heads=2,
                             d_ff=64, max_len=64, use_bigram=use_bigram)
        model = Model.for_vocab(config, vocab, seed=seed)
        cfg = tr.TrainConfig(epochs=4, batch_size=64, seed=seed, lr=1.5e-3, eval_every=4)
        return tr.train(model, vocab, train_sents, dev_sents, cfg).best_f1

    seeds = range(5)
    full = [run(s, True) for s in seeds]
    nobi = [run(s, False) for s in seeds]
    for s, f, n in zip(seeds, full, nobi):
        print(f"  seed {s}: full {f:.4f}  no-bigram {n:.4f}  delta {f - n:+.4f}")
    mean_full, mean_nobi = float(np.mean(full)), float(np.mean(nobi))
    assert mean_full >= mean_nobi, f"full {mean_full:.4f} < no-bigram {mean_nobi:.4f}"
    ok(f"criterion 6: mean dev F1 full {mean_full:.4f} >= no-bigram {mean_nobi:.4f} "
       f"(delta {mean_full - mean_nobi:+.4f} over 5 seeds)")


# -- criterion 8: AdamW / schedule -------------------------------------------------------------

def test_criterion_8_optimizer_and_schedule():
    a = np.array([1.0, 4.0, 0.5])
    c = np.array([3.0, -1.0, 7.0])
    from mccws.autodiff import parameter
    theta = parameter(np.zeros((1, 3)))
    opt = AdamW({"w": theta}, weight_decay=0.0)
    sched = WarmupLinearSchedule(base_lr=0.1, total_steps=500, warmup_ratio=0.1)

    def loss():
        return 0.5 * float(np.sum(a * (theta.data[0] - c) ** 2))

    initial = loss()
    for s in range(500):
        theta.grad = (a * (theta.data[0] - c))[None, :]
        opt.step(lr=sched.lr_at(s))
    reduction = 1.0 - loss() / initial
    assert reduction >= 0.99, f"loss reduction {reduction:.4f}"

    shape_sched = WarmupLinearSchedule(base_lr=2e-5, total_steps=100, warmup_ratio=0.1)
    assert shape_sched.lr_at(0) == 0.0
    assert shape_sched.lr_at(shape_sched.warmup_steps) == 2e-5
    assert shape_sched.lr_at(100) == 0.0
    lrs = [shape_sched.lr_at(s) for s in range(101)]
    assert max(lrs) == 2e-5
    ok(f"criterion 8: quadratic loss reduced by {reduction * 100:.2f}% in 500 steps; "
       "lr piecewise-linear at 0 / warmup end / total")


# -- criterion 9: determinism --------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    spec = SyntheticSpec(n_train=120, n_dev=40, n_test=0)
    corpora = generate_synthetic(spec, seed=21)
    names = sorted(corpora)
    vocab = Vocab.build({n: corpora[n]["train"] for n in names})
    train_sents, dev_sents = [], []
    for n in names:
        train_sents += tr.prepare_for_training(corpora[n]["train"], vocab, 128)
        dev_sents += tr.prepare_for_eval(corpora[n]["dev"], vocab, 128)

    def run(tag):
        config = ModelConfig(num_criteria=2, d_h=32, d_e=16, encoder_layers=1, heads=2,
                             d_ff=64, max_len=64)
        model = Model.for_vocab(config, vocab, seed=13)
        cfg = tr.TrainConfig(epochs=3, batch_size=32, seed=13, lr=1e-3)
        result = tr.train(model, vocab, train_sents, dev_sents, cfg)
        path = tmp_path / f"{tag}.ckpt"
        save_checkpoint(path, model, vocab.sha256())
        log = tmp_path / f"{tag}.jsonl"
        import json
        with open(log, "w", encoding="utf-8") as fh:
            for rec in result.metrics:
                fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
        return path.read_bytes(), log.read_bytes()

    ckpt_a, log_a = run("a")
    ckpt_b, log_b = run("b")
    assert ckpt_a == ckpt_b, "checkpoints differ between identical runs"
    assert log_a == log_b, "metrics logs differ between identical runs"
    ok("criterion 9: identical runs produce bit-identical checkpoints and metrics logs")
