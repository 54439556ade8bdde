import numpy as np
import pytest

from mccws.autodiff import backward, make_rng, zero_grads
from mccws.checkpoint import save_checkpoint
from mccws.corpus import RawSentence, Vocab
from mccws.errors import DataError, DivergenceError
from mccws.model import Model, ModelConfig, pack_batch
from mccws.optim import AdamW
from mccws.synth import SyntheticSpec, generate_synthetic
from mccws import trainer as tr


@pytest.fixture(scope="module")
def small_setup():
    spec = SyntheticSpec(n_train=80, n_dev=30, n_test=0)
    corpora = generate_synthetic(spec, seed=1)
    names = sorted(corpora)
    vocab = Vocab.build({n: corpora[n]["train"] for n in names})
    train_sents, dev_sents = [], []
    for n in names:
        train_sents += tr.prepare_for_training(corpora[n]["train"], vocab, 128)
        dev_sents += tr.prepare_for_eval(corpora[n]["dev"], vocab, 128)
    return vocab, train_sents, dev_sents


def small_model(vocab, seed=0, **overrides):
    kw = dict(num_criteria=vocab.num_criteria, d_h=16, d_e=8, encoder_layers=1,
              heads=2, d_ff=32, max_len=64)
    kw.update(overrides)
    return Model.for_vocab(ModelConfig(**kw), vocab, seed=seed)


# -- batching ------------------------------------------------------------------

def test_make_batches_sizes(small_setup):
    vocab, train_sents, _ = small_setup
    batches = tr.make_batches(train_sents[:5], 2, make_rng(0))
    assert [len(b) for b in batches] == [2, 2, 1]


def test_make_batches_seed_determinism(small_setup):
    _, train_sents, _ = small_setup
    a = tr.make_batches(train_sents, 8, make_rng(123))
    b = tr.make_batches(train_sents, 8, make_rng(123))
    assert [[id(s) for s in batch] for batch in a] == [[id(s) for s in batch] for batch in b]
    c = tr.make_batches(train_sents, 8, make_rng(124))
    assert [[id(s) for s in batch] for batch in a] != [[id(s) for s in batch] for batch in c]


def test_batches_mix_criteria_and_keep_own_token(small_setup):
    vocab, train_sents, _ = small_setup
    batches = tr.make_batches(train_sents, 16, make_rng(5))
    mixed = [b for b in batches if len({s.criterion_id for s in b}) > 1]
    assert mixed, "expected at least one mixed-criteria batch"
    ids, _, _, _, cids = pack_batch(mixed[0], vocab)
    for row, cid in zip(ids, cids):
        assert row[0] == vocab.criterion_token_id(int(cid))
    assert len(set(ids[:, 0].tolist())) > 1


# -- sentence preparation --------------------------------------------------------

def test_prepare_for_training_splits_long():
    vocab = Vocab.build({"x": [RawSentence(["天张", "地寒", "玄来"], 0)]})
    raws = [RawSentence(["天张", "地寒", "玄来"], 0)]
    sents = tr.prepare_for_training(raws, vocab, max_len=5)  # fits 4 tokens
    assert [len(s) for s in sents] == [4, 2]


def test_prepare_for_eval_rejects_long():
    vocab = Vocab.build({"x": [RawSentence(["天张", "地寒", "玄来"], 0)]})
    raws = [RawSentence(["天张"], 0), RawSentence(["天张", "地寒", "玄来"], 0)]
    with pytest.raises(DataError, match="lines \\[2\\]"):
        tr.prepare_for_eval(raws, vocab, max_len=5)


# -- training loop ------------------------------------------------------------------

def test_zero_epochs_noop(small_setup):
    vocab, train_sents, dev_sents = small_setup
    model = small_model(vocab)
    before = {k: v.data.copy() for k, v in model.params.items()}
    res = tr.train(model, vocab, train_sents, dev_sents, tr.TrainConfig(epochs=0, seed=0))
    assert res.metrics == []
    for k in before:
        assert np.array_equal(model.params[k].data, before[k])
        assert np.array_equal(res.best_params[k], before[k])


def test_empty_corpus_rejected(small_setup):
    vocab, _, _ = small_setup
    with pytest.raises(DataError):
        tr.train(small_model(vocab), vocab, [], None, tr.TrainConfig(epochs=1))


def test_first_step_reduces_loss_multiseed(small_setup):
    vocab, train_sents, _ = small_setup
    for seed in range(5):
        model = small_model(vocab, seed=seed)
        batch = tr.make_batches(train_sents, 16, make_rng(seed))[0]
        ids, bi, lengths, labels, cids = pack_batch(batch, vocab)
        loss0, _ = model.loss_batch(ids, bi, lengths, labels, cids)
        backward(loss0)
        AdamW(model.params, 0.01).step(1e-3)
        zero_grads(model.params.values())
        loss1, _ = model.loss_batch(ids, bi, lengths, labels, cids)
        assert loss1.item() < loss0.item(), f"seed {seed}"


def test_training_is_bit_deterministic(small_setup):
    vocab, train_sents, dev_sents = small_setup

    def run():
        model = small_model(vocab, seed=3)
        cfg = tr.TrainConfig(epochs=2, batch_size=16, seed=7, lr=1e-3)
        res = tr.train(model, vocab, train_sents, dev_sents, cfg)
        return {k: v.data.tobytes() for k, v in model.params.items()}, res.metrics

    params_a, metrics_a = run()
    params_b, metrics_b = run()
    assert params_a == params_b
    assert metrics_a == metrics_b


def test_float32_training_is_bit_deterministic(small_setup, tmp_path):
    # a model whose parameters are float32 trains in float32, and two
    # identical runs write identical checkpoint bytes
    vocab, train_sents, dev_sents = small_setup

    def run(tag):
        model = small_model(vocab, seed=3)
        for p in model.params.values():
            p.data = p.data.astype(np.float32)
        cfg = tr.TrainConfig(epochs=2, batch_size=16, seed=7, lr=1e-3)
        tr.train(model, vocab, train_sents, dev_sents, cfg)
        assert {p.data.dtype for p in model.params.values()} == {np.dtype(np.float32)}
        path = tmp_path / f"{tag}.ckpt"
        save_checkpoint(path, model, vocab.sha256())
        return path.read_bytes()

    assert run("a") == run("b")


def test_divergence_guard(small_setup):
    vocab, train_sents, _ = small_setup
    model = small_model(vocab)
    model.params["dec.w_o"].data[:] = np.nan
    with pytest.raises(DivergenceError):
        tr.train(model, vocab, train_sents, None, tr.TrainConfig(epochs=1, seed=0))


def test_metric_records_have_fixed_fields(small_setup):
    vocab, train_sents, dev_sents = small_setup
    model = small_model(vocab)
    cfg = tr.TrainConfig(epochs=2, batch_size=32, seed=0, eval_every=2)
    res = tr.train(model, vocab, train_sents, dev_sents, cfg)
    assert all(tuple(rec) == tr.METRIC_FIELDS for rec in res.metrics)
    train_recs = [r for r in res.metrics if r["split"] == "train"]
    dev_recs = [r for r in res.metrics if r["split"] == "dev"]
    assert [r["epoch"] for r in train_recs] == [1, 2]
    assert {r["epoch"] for r in dev_recs} == {2}  # eval_every=2
    assert {r["criterion"] for r in dev_recs} == set(vocab.criteria)
    for r in dev_recs:
        assert 0.0 <= r["f1"] <= 1.0 and 0.0 <= r["criterion_accuracy"] <= 1.0


def test_best_params_track_best_epoch(small_setup):
    vocab, train_sents, dev_sents = small_setup
    model = small_model(vocab)
    cfg = tr.TrainConfig(epochs=3, batch_size=16, seed=0, lr=1.5e-3)
    res = tr.train(model, vocab, train_sents, dev_sents, cfg)
    per_epoch = {}
    for rec in res.metrics:
        if rec["split"] == "dev":
            per_epoch.setdefault(rec["epoch"], []).append(rec["f1"])
    best_seen = max(sum(v) / len(v) for v in per_epoch.values())
    assert abs(res.best_f1 - best_seen) < 1e-12


def test_criterion_classifier_saturates(small_setup):
    # the criterion token makes the auxiliary task separable
    vocab, train_sents, dev_sents = small_setup
    model = small_model(vocab, d_h=32, d_e=16, d_ff=64)
    cfg = tr.TrainConfig(epochs=3, batch_size=16, seed=0, lr=1.5e-3)
    tr.train(model, vocab, train_sents, dev_sents, cfg)
    results = tr.evaluate_model(model, vocab, dev_sents)
    for name, (_, accuracy) in results.items():
        assert accuracy == 1.0, name
