import gc
import inspect
import os
import random
import subprocess
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

from mccws import autodiff as ad
from mccws import corpus as cp
from mccws import model as model_mod
from mccws.autodiff import Rows, Tensor, backward, make_rng, no_grad, zero_grads
from mccws.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from mccws.corpus import RawSentence, Vocab, prepare_sentence
from mccws.errors import ConfigError, DataError
from mccws.model import Model, ModelConfig, pack_batch, pack_inputs, param_shapes
from mccws.optim import AdamW
from mccws.trainer import prepare_for_eval, prepare_for_training

from faultutil import minor_faults, needs_mallopt
from gradutil import assert_grads_match, cast_params
import reference
from reference import softmax


def build_vocab() -> Vocab:
    return Vocab.build({
        "ctb": [RawSentence(["李娜", "进入", "半决赛"], 0)],
        "pku": [RawSentence(["李", "娜", "进入", "半", "决赛"], 1)],
    })


@pytest.fixture
def vocab():
    return build_vocab()


def tiny_model(vocab, **overrides) -> Model:
    kw = dict(num_criteria=vocab.num_criteria, d_h=16, d_e=8, encoder_layers=1,
              heads=2, d_ff=32, max_len=32)
    kw.update(overrides)
    return Model.for_vocab(ModelConfig(**kw), vocab, seed=0)


def sentence_inputs(vocab, words, cid):
    """One sentence as a batch of one: ids [1, T+1], bigrams [1, T], lengths [1]."""
    return pack_inputs([prepare_sentence(RawSentence(words, cid), vocab)], vocab)


def encode_one(m, ids, **kw):
    """Encoder over a batch of one unpadded sentence; returns H [T+1, d_h]."""
    ids = np.asarray(ids).reshape(1, -1)
    return m.encode_batch(ids, Rows(np.ones(ids.shape, dtype=bool)), **kw)


def contextualize_one(m, fused):
    """Contextualizer over a batch of one unpadded sequence [T, d_h]."""
    return m.contextualize_batch(fused, Rows(np.ones((1, fused.data.shape[0]), dtype=bool)))


def forward_stages(m, ids, bi, lengths):
    """forward_batch's three inner activations, stage by stage: the encoder's
    H [N1, d_h], the fusion gate's output [N, d_h] and the contextualizer's
    [N, d_h]."""
    positions = np.arange(ids.shape[1])
    tokens = Rows(positions[None, :] < (lengths + 1)[:, None])
    chars = Rows(tokens.valid[:, 1:])
    H = m.encode_batch(ids, tokens)
    char_rows = Rows(tokens.pack(np.broadcast_to(positions > 0, tokens.shape)))
    e = ad.embedding_lookup(m.params["bigram_emb"], chars.pack(bi))
    fused = m.fuse_batch(ad.gather_rows(H, char_rows), e)
    return H, fused, m.contextualize_batch(fused, chars)


def record_attention(monkeypatch) -> list[np.ndarray]:
    """Wrap the attention node the model calls; the returned list gets each
    call's probabilities [B, heads, L', L'], in call order, as the reference
    computes them from the call's q, k and v. Each call's context must match
    the reference's to rounding."""
    probs = []

    def recording(q, k, v, rows, heads):
        ctx = ad.attention(q, k, v, rows, heads)
        ref_ctx, p = reference.attention(q.data, k.data, v.data, rows.valid, heads)
        tol = 1e-12 if ctx.data.dtype == np.float64 else 1e-5
        assert np.abs(ctx.data - ref_ctx).max() <= tol * max(1.0, np.abs(v.data).max())
        probs.append(p)
        return ctx

    monkeypatch.setattr(model_mod, "attention", recording)
    return probs


# -- config ------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(num_criteria=2, d_h=10, heads=4)
    with pytest.raises(ConfigError):
        ModelConfig(num_criteria=0)
    cfg = ModelConfig(num_criteria=3)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


def test_config_max_len_fits_a_character():
    # the criterion token plus one character; max_len 1 left segment no room
    assert ModelConfig(num_criteria=1, max_len=2).max_len == 2
    for max_len in (1, 0):
        with pytest.raises(ConfigError, match="max_len"):
            ModelConfig(num_criteria=1, max_len=max_len)
    with pytest.raises(DataError, match="max_len"):
        ModelConfig.from_dict(dict(ModelConfig(num_criteria=1).to_dict(), max_len=1))


# -- encoder -----------------------------------------------------------------

def test_encode_shape(vocab):
    m = tiny_model(vocab)
    ids, _, _ = sentence_inputs(vocab, ["李娜", "进入", "半决赛"], 0)
    assert ids.shape == (1, 8)
    H = encode_one(m, ids)
    assert H.data.shape == (8, 16)


def test_encode_criterion_token_changes_h(vocab):
    m = tiny_model(vocab)
    ids_ctb, _, _ = sentence_inputs(vocab, ["李娜"], 0)
    ids_pku, _, _ = sentence_inputs(vocab, ["李娜"], 1)
    h1 = encode_one(m, ids_ctb).data
    h2 = encode_one(m, ids_pku).data
    assert h1.data.shape == h2.data.shape
    assert np.abs(h1 - h2).max() > 0


def test_encode_eval_deterministic(vocab):
    m = tiny_model(vocab)
    ids, _, _ = sentence_inputs(vocab, ["进入"], 1)
    assert encode_one(m, ids).data.tobytes() == encode_one(m, ids).data.tobytes()


def test_encode_too_long(vocab):
    m = tiny_model(vocab, max_len=4)
    with pytest.raises(DataError):
        encode_one(m, [0, 1, 2, 3, 4])


def test_encode_training_dropout_differs_from_eval(vocab):
    m = tiny_model(vocab)
    ids, _, _ = sentence_inputs(vocab, ["半决赛"], 0)
    h_eval = encode_one(m, ids).data
    h_train = encode_one(m, ids, training=True, rng=make_rng(3)).data
    assert np.abs(h_eval - h_train).max() > 0


# -- fusion gate ---------------------------------------------------------------

def test_fuse_gate_saturation(vocab):
    m = tiny_model(vocab)
    rng = make_rng(1)
    h = Tensor(rng.normal(size=(5, 16)))
    e = Tensor(rng.normal(size=(5, 8)))
    p = m.params

    h_proj = np.tanh(h.data @ p["fuse.w_h"].data.T + p["fuse.b_h"].data)
    e_proj = np.tanh(e.data @ p["fuse.w_e"].data.T + p["fuse.b_e"].data)

    p["fuse.b_f"].data[:] = 50.0  # gate -> 1
    f = m.fuse_batch(h, e)
    assert np.abs(f.data - h_proj).max() < 1e-6
    p["fuse.b_f"].data[:] = -50.0  # gate -> 0
    f = m.fuse_batch(h, e)
    assert np.abs(f.data - e_proj).max() < 1e-6


def test_fuse_matches_straight_line_oracle(vocab):
    m = tiny_model(vocab, d_h=3, d_e=2, heads=1, d_ff=8)
    rng = make_rng(2)
    h = Tensor(rng.normal(size=(4, 3)))
    e = Tensor(rng.normal(size=(4, 2)))
    f = m.fuse_batch(h, e)
    p = m.params
    # independent straight-line re-implementation of the gate arithmetic
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    h2 = np.tanh(h.data @ p["fuse.w_h"].data.T + p["fuse.b_h"].data)
    e2 = np.tanh(e.data @ p["fuse.w_e"].data.T + p["fuse.b_e"].data)
    gate = sig(h.data @ p["fuse.w_fh"].data.T + e.data @ p["fuse.w_fe"].data.T + p["fuse.b_f"].data)
    expected = gate * h2 + (1 - gate) * e2
    assert np.abs(f.data - expected).max() < 1e-12


def test_fuse_bounds(vocab):
    m = tiny_model(vocab)
    rng = make_rng(3)
    h = Tensor(rng.normal(size=(20, 16)) * 3)
    e = Tensor(rng.normal(size=(20, 8)) * 3)
    f = m.fuse_batch(h, e).data
    p = m.params
    h_proj = np.tanh(h.data @ p["fuse.w_h"].data.T + p["fuse.b_h"].data)
    e_proj = np.tanh(e.data @ p["fuse.w_e"].data.T + p["fuse.b_e"].data)
    lo, hi = np.minimum(h_proj, e_proj), np.maximum(h_proj, e_proj)
    # a gate strictly inside (0, 1) puts every fused value strictly between
    # its two projections, wherever they differ
    apart = hi - lo > 1e-9
    assert apart.mean() > 0.99
    assert (lo[apart] < f[apart]).all() and (f[apart] < hi[apart]).all()
    assert np.abs(f[~apart] - lo[~apart]).max(initial=0.0) < 1e-9


def test_fuse_without_bigram(vocab):
    m = tiny_model(vocab, use_bigram=False)
    assert "bigram_emb" not in m.params
    rng = make_rng(0)
    h = Tensor(rng.normal(size=(4, 16)))
    p = m.params
    p["fuse.b_h"].data[:] = rng.normal(size=16)
    f = m.fuse_batch(h, None)
    expected = np.tanh(h.data @ p["fuse.w_h"].data.T + p["fuse.b_h"].data)
    assert f.data.shape == (4, 16)
    assert np.abs(f.data - expected).max() < 1e-12


# -- contextualizer ---------------------------------------------------------------

def test_contextualize_single_position(vocab):
    m = tiny_model(vocab)
    rng = make_rng(4)
    f = Tensor(rng.normal(size=(1, 16)))
    o = contextualize_one(m, f)
    assert o.data.shape == (1, 16)
    # with one position, attention passes v straight through
    p = m.params
    v = f.data @ p["ctx.attn.wv"].data.T + p["ctx.attn.bv"].data
    a = v @ p["ctx.attn.wo"].data.T + p["ctx.attn.bo"].data
    pre = a + f.data
    mu, sd = pre.mean(), pre.std()
    expected = (pre - mu) / np.sqrt(sd ** 2 + 1e-12) * p["ctx.ln.gain"].data + p["ctx.ln.bias"].data
    assert np.abs(o.data - expected).max() < 1e-10


def test_attention_rows_sum_to_one(vocab, monkeypatch):
    m = cast_params(tiny_model(vocab))
    ids, bi, lengths = sentence_inputs(vocab, ["李娜", "进入", "半决赛"], 0)
    probs = record_attention(monkeypatch)
    m.forward_batch(ids, bi, lengths)
    assert len(probs) == m.config.encoder_layers + 1
    for i, attn in enumerate(probs):
        assert np.abs(attn.sum(axis=-1) - 1.0).max() < 1e-10, i


def test_contextualize_permutation_equivariant(vocab):
    # self-attention carries no positional information of its own
    m = tiny_model(vocab)
    rng = make_rng(5)
    f = rng.normal(size=(6, 16))
    perm = rng.permutation(6)
    o = contextualize_one(m, Tensor(f)).data
    o_perm = contextualize_one(m, Tensor(f[perm])).data
    assert np.abs(o_perm - o[perm]).max() < 1e-10


# -- decoders ---------------------------------------------------------------------

def test_decode_labels_distributions(vocab):
    m = tiny_model(vocab)
    rng = make_rng(6)
    o = Tensor(rng.normal(size=(7, 16)))
    logits = m.decode_labels(o)
    assert logits.data.shape == (7, 4)
    probs = softmax(logits.data)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12
    m.params["dec.w_o"].data[:] = 0.0
    m.params["dec.b_o"].data[:] = 0.0
    uniform = softmax(m.decode_labels(o).data)
    assert np.allclose(uniform, 0.25, atol=1e-15)


def test_argmax_shift_invariance(vocab):
    m = tiny_model(vocab)
    rng = make_rng(7)
    o = Tensor(rng.normal(size=(5, 16)))
    logits = m.decode_labels(o).data
    assert np.array_equal(np.argmax(logits, axis=1), np.argmax(logits + 3.7, axis=1))


def test_classify_criterion_uses_row0_only(vocab):
    m = tiny_model(vocab)
    rng = make_rng(8)
    h = rng.normal(size=(6, 16))
    first = Rows(np.arange(6) == 0)
    logits = m.classify_criterion(Tensor(h), first).data
    assert logits.data.shape == (1, 2)
    h2 = h.copy()
    h2[1:] = rng.normal(size=(5, 16))
    logits2 = m.classify_criterion(Tensor(h2), first).data
    assert np.array_equal(logits, logits2)
    m.params["cls.w_c"].data[:] = 0.0
    uniform = softmax(m.classify_criterion(Tensor(h), first).data)
    assert np.allclose(uniform, 0.5, atol=1e-15)


def test_classify_single_criterion():
    v = Vocab.build({"only": [RawSentence(["李娜"], 0)]})
    m = tiny_model(v)
    h = Tensor(make_rng(0).normal(size=(3, 16)))
    probs = softmax(m.classify_criterion(h, Rows(np.arange(3) == 0)).data)
    assert np.allclose(probs, 1.0)


# -- loss --------------------------------------------------------------------------

def test_loss_uniform_arithmetic(vocab):
    m = cast_params(tiny_model(vocab))
    m.params["dec.w_o"].data[:] = 0.0
    m.params["dec.b_o"].data[:] = 0.0
    m.params["cls.w_c"].data[:] = 0.0
    m.params["cls.b_c"].data[:] = 0.0
    sent = prepare_sentence(RawSentence(["李", "娜", "进入", "半"], 1), vocab)  # T=5
    ids, bi, lengths, labels, cids = pack_batch([sent], vocab)
    loss, _ = m.loss_batch(ids, bi, lengths, labels, cids)
    expected = 5 * np.log(4.0) + np.log(2.0)  # uniform over 4 labels, 2 criteria
    assert abs(loss.item() - expected) < 1e-9


def test_loss_matches_manual_composition(vocab):
    m = cast_params(tiny_model(vocab))
    sents = [
        prepare_sentence(RawSentence(["李娜", "进入"], 0), vocab),
        prepare_sentence(RawSentence(["半", "决赛"], 1), vocab),
    ]
    ids, bi, lengths, labels, cids = pack_batch(sents, vocab)
    loss, out = m.loss_batch(ids, bi, lengths, labels, cids)

    def nll(logits, target):
        z = logits - logits.max()
        return float(np.log(np.exp(z).sum()) - z[target])

    manual, row = 0.0, 0
    for i, sent in enumerate(sents):
        for t in range(len(sent)):
            manual += nll(out.label_logits.data[row], labels[i, t])
            row += 1
        manual += nll(out.criterion_logits.data[i], cids[i])
    assert row == out.label_logits.data.shape[0]
    assert abs(loss.item() - manual / 2) < 1e-12


def test_loss_rejects_empty_batch(vocab):
    m = tiny_model(vocab)
    ids, bi, lengths, labels, cids = pack_batch([], vocab)
    with pytest.raises(DataError):
        m.loss_batch(ids, bi, lengths, labels, cids)


def test_full_model_gradcheck_quick(vocab):
    m = cast_params(tiny_model(vocab, d_h=8, d_e=4, encoder_layers=1, heads=2, d_ff=16))
    sents = [
        prepare_sentence(RawSentence(["李娜", "进入"], 0), vocab),
        prepare_sentence(RawSentence(["半", "决赛"], 1), vocab),
    ]
    ids, bi, lengths, labels, cids = pack_batch(sents, vocab)

    def loss_fn():
        return m.loss_batch(ids, bi, lengths, labels, cids)[0].item()

    loss, _ = m.loss_batch(ids, bi, lengths, labels, cids)
    backward(loss)
    assert_grads_match(loss_fn, list(m.params.values()))
    zero_grads(m.params.values())


def test_float32_gradients_match_the_float64_cast(vocab):
    # the float64 cast that the gradient checks run is the function that is
    # trained in float32: at init their full gradients differ by rounding,
    # ~6e-7 of a parameter's gradient norm
    m = Model.for_vocab(ModelConfig(num_criteria=vocab.num_criteria), vocab, seed=0)
    rng = random.Random(0)
    sents = [prepare_sentence(RawSentence(rng.choices("李娜进入半决赛", k=int(T)), i % 2), vocab)
             for i, T in enumerate(np.linspace(4, 40, 16))]
    batch = pack_batch(sents, vocab)
    grads = {}
    for dtype in (np.float32, np.float64):
        cast_params(m, dtype)
        backward(m.loss_batch(*batch, training=True, rng=make_rng(0))[0])
        grads[dtype] = {name: p.grad.astype(np.float64) for name, p in m.params.items()}
        zero_grads(m.params.values())
    gaps = {name: np.linalg.norm(grads[np.float32][name] - g) / np.linalg.norm(g)
            for name, g in grads[np.float64].items()}
    assert max(gaps.values()) < 1e-4, max(gaps.items(), key=lambda kv: kv[1])


def test_backward_frees_graph_without_collector(vocab):
    m = tiny_model(vocab)
    sents = [prepare_sentence(RawSentence(["李娜", "进入"], 0), vocab),
             prepare_sentence(RawSentence(["半", "决赛"], 1), vocab)]
    ids, bi, lengths, labels, cids = pack_batch(sents, vocab)
    params = {id(p) for p in m.params.values()}
    gc.disable()
    try:
        loss, out = m.loss_batch(ids, bi, lengths, labels, cids, training=True, rng=make_rng(0))
        interior, seen, stack = [], set(), [loss]
        while stack:
            t = stack.pop()
            if id(t) not in seen:
                seen.add(id(t))
                stack.extend(t._parents)
                if id(t) not in params:
                    interior.append(weakref.ref(t))
        del t, stack
        backward(loss)
        assert all(r().grad is None for r in interior if r() is not None)
        graph = [weakref.ref(loss), weakref.ref(out.label_logits)]
        del loss, out
        assert all(r() is None for r in graph)
        assert all(r() is None for r in interior)
    finally:
        gc.enable()
    for name, p in m.params.items():
        assert p.grad is not None and np.isfinite(p.grad).all(), name


def test_padding_cannot_leak(vocab):
    # a padded batch's loss and gradients are the mean of each sentence's solo
    # run, and junk written into the padding changes neither, bit for bit
    m = cast_params(tiny_model(vocab))
    words = [["李娜", "进入", "半决赛"], ["李"], ["进入", "半", "决赛", "李娜", "进入"],
             ["半决赛"], ["娜", "进"]]
    sents = [prepare_sentence(RawSentence(w, i % 2), vocab) for i, w in enumerate(words)]

    def run(ids, bi, lengths, labels, cids):
        loss, _ = m.loss_batch(ids, bi, lengths, labels, cids)
        backward(loss)
        grads = {name: p.grad for name, p in m.params.items()}
        zero_grads(m.params.values())
        return loss.item(), grads

    ids, bi, lengths, labels, cids = pack_batch(sents, vocab)
    assert len(set(lengths.tolist())) == 5
    loss, grads = run(ids, bi, lengths, labels, cids)
    solo = [run(*pack_batch([s], vocab)) for s in sents]
    assert abs(loss - np.mean([x for x, _ in solo])) <= 1e-10 * abs(loss)
    for name, g in grads.items():
        expected = np.mean([sg[name] for _, sg in solo], axis=0)
        assert np.abs(g - expected).max() <= 1e-10 * np.abs(expected).max(), name

    rng = make_rng(15)
    pad = np.arange(ids.shape[1])[None, :] > lengths[:, None]
    junk_ids, junk_bi, junk_labels = ids.copy(), bi.copy(), labels.copy()
    junk_ids[pad] = rng.integers(0, m.n_unigrams, size=pad.sum())
    char_pad = pad[:, 1:]
    junk_bi[char_pad] = rng.integers(0, m.n_bigrams, size=char_pad.sum())
    junk_labels[char_pad] = rng.integers(0, 4, size=char_pad.sum())
    junk_loss, junk_grads = run(junk_ids, junk_bi, lengths, junk_labels, cids)
    assert junk_loss == loss
    for name, g in grads.items():
        assert junk_grads[name].tobytes() == g.tobytes(), name


# -- shape contract -----------------------------------------------------------------

def test_forward_shapes(vocab, monkeypatch):
    # rows are packed over real positions: N1 = sum(T + 1) tokens, N = sum(T) chars
    m = tiny_model(vocab, encoder_layers=2)
    probs = record_attention(monkeypatch)
    sentences = [["李"], ["李娜", "进入"], ["李娜", "进入", "半决赛"]]
    batches = [[words] for words in sentences] + [sentences]
    for batch in batches:
        sents = [prepare_sentence(RawSentence(words, 0), vocab) for words in batch]
        ids, bi, lengths, _, _ = pack_batch(sents, vocab)
        B, N = len(batch), int(lengths.sum())
        H, fused, contextual = forward_stages(m, ids, bi, lengths)
        assert H.data.shape == (N + B, 16)
        assert fused.data.shape == (N, 16)
        assert contextual.data.shape == (N, 16)
        probs.clear()
        out = m.forward_batch(ids, bi, lengths)
        assert np.array_equal(m.decode_labels(contextual).data, out.label_logits.data)
        assert out.label_logits.data.shape == (N, 4)
        assert out.criterion_logits.data.shape == (B, 2)
        # the encoder's layers attend over L+1 tokens, the contextualizer over L chars
        L = int(lengths.max())
        assert [a.shape for a in probs] == [(B, 2, L + 1, L + 1)] * 2 + [(B, 2, L, L)]


def test_batch_padding_consistent_with_single(vocab, monkeypatch):
    # each sentence alone vs padded in batches that predict cuts by length,
    # by BATCH_SENTENCES and by SCORE_CELLS: same prediction, returned in input order
    m = tiny_model(vocab, max_len=128)
    m.params["dec.w_o"].data[:] = make_rng(9).normal(size=(4, 16))  # well-separated labels
    m.params["cls.w_c"].data[:] = make_rng(10).normal(size=(2, 16))
    for cid in range(2):  # criterion tokens far apart, so both criteria get predicted
        m.params["tok_emb"].data[vocab.criterion_token_id(cid)] = make_rng(11 + cid).normal(size=16)
    text = "李娜进入半决赛" * 19
    # short ones, then long ones: at 64 sentences a batch, one batch takes them all
    # unless SCORE_CELLS splits it (2 heads: at most 8 rows of 127 tokens)
    sizes = (5, 1, 7, 3, 2, 6, 4, 7, 1, 3) + tuple(range(127, 60, -3))
    sentences = [prepare_sentence(RawSentence([text[i % 7:i % 7 + n]], i % 2), vocab)
                 for i, n in enumerate(sizes)]
    solo = [m.predict([s], vocab) for s in sentences]
    assert len({tuple(labels[0]) for labels, _ in solo}) > 2  # predictions tell sentences apart
    assert len({int(criteria[0]) for _, criteria in solo}) == 2

    batches = []
    forward_batch = m.forward_batch

    def recording_forward(ids, bi, lengths, **kw):
        batches.append((ids.shape, [tuple(row[:n + 1]) for row, n in zip(ids.tolist(), lengths)]))
        return forward_batch(ids, bi, lengths, **kw)

    monkeypatch.setattr(m, "forward_batch", recording_forward)
    rows = Counter(tuple(pack_batch([s], vocab)[0][0]) for s in sentences)
    # the module's cap, then one small enough that long sentences run alone
    for cells in (model_mod.SCORE_CELLS, 2 * 24 ** 2):
        monkeypatch.setattr(model_mod, "SCORE_CELLS", cells)
        for batch_size in (1, 2, 3, 64):
            monkeypatch.setattr(model_mod, "BATCH_SENTENCES", batch_size)
            batches.clear()
            labels, criteria = m.predict(sentences, vocab)
            assert [len(x) for x in labels] == [len(s) for s in sentences]
            for x, (solo_labels, _) in zip(labels, solo):
                assert np.array_equal(x, solo_labels[0])
            assert criteria.dtype == np.int64
            assert criteria.tolist() == [int(c[0]) for _, c in solo]
            for (B, L1), _ in batches:
                assert B <= batch_size
                assert B == 1 or B * m.config.heads * L1 ** 2 <= cells, (B, L1)
            assert Counter(row for _, batch in batches for row in batch) == rows
        assert len(batches) > 2  # the 64-sentence batch was split by the cap
        assert any(B == 1 and 2 * L1 ** 2 > cells for (B, L1), _ in batches) == (cells < 2 * 128 ** 2)


# -- segmentation -------------------------------------------------------------------

def test_segment_empty(vocab):
    m = tiny_model(vocab)
    assert m.segment_text([""], "ctb", vocab) == [[]]
    assert m.segment_text([], "ctb", vocab) == []


def test_segment_unknown_criterion(vocab):
    m = tiny_model(vocab)
    with pytest.raises(ConfigError, match="registered"):
        m.segment_text(["李娜"], "as", vocab)


def test_segment_words_rejoin_to_original(vocab):
    # whitespace ends a word and is dropped; every other character is kept,
    # also in text of more than max_len - 1 tokens, segmented in windows
    m = tiny_model(vocab)
    for text in ("李娜进入半决赛", "李娜2024年ok了", "ＡＢＣ１２３李娜", "abc 123",
                 "天地 玄\r", " 李娜\t进入\u3000半决赛 ", " \r\n",
                 "李娜进入半决赛" * 10, "李娜 进入半决赛 " * 10, "李\udcff娜 进入\udc80"):
        words = m.segment_text([text], "pku", vocab)[0]
        assert not any(ch.isspace() for word in words for ch in word), words
        assert "".join(words) == "".join(text.split())
    # an undecodable byte, read with surrogateescape, is one <unk> token
    assert [t for t, _ in cp.text_tokens("李\udcff娜")] == ["李", "\udcff", "娜"]
    assert vocab.uni_id("\udcff") == cp.UNK_ID


def gap_windows(spans, limit):
    """predict's windows of a sentence whose tokens have these spans in its text."""
    return cp.windows(len(spans), [t for t in range(1, len(spans))
                                   if spans[t - 1][1] < spans[t][0]], limit)


def test_segment_agrees_with_batched_prediction(vocab, monkeypatch):
    # segment_text's words are decode_bmes of predict over the line's
    # windows, also when those windows share batches with other sentences
    m = tiny_model(vocab)  # windows of at most 31 tokens
    m.params["dec.w_o"].data[:] = make_rng(9).normal(size=(4, 16))  # well-separated labels
    longer = prepare_sentence(RawSentence(["李娜进入半决赛李娜进入"], 0), vocab)
    monkeypatch.setattr(model_mod, "BATCH_SENTENCES", 3)
    lengths_seen, windows_seen = set(), set()
    texts = ("李", "李娜", "进入半决赛", "半决赛李娜进入", "娜进李",
             "李娜进入半决赛" * 10, "李娜 进入半决赛 " * 10, " 半决赛李娜进入" * 9)
    for text in texts:
        toks = cp.text_tokens(text)
        windows = gap_windows([span for _, span in toks], m.config.max_len - 1)
        windows_seen.add(len(windows))
        for name, cid in vocab.criteria.items():
            sents = [prepare_sentence(RawSentence(["".join(t for t, _ in toks[lo:hi])], cid), vocab)
                     for lo, hi in windows]
            labels = m.predict([longer] + sents, vocab)[0][1:]
            expected = []
            for (lo, _), window_labels in zip(windows, labels):
                for s, e in cp.decode_bmes(window_labels.tolist()):
                    expected.extend(text[toks[lo + s][1][0]:toks[lo + e - 1][1][1]].split())
            words = m.segment_text([text], name, vocab)[0]
            assert words == expected
            lengths_seen.update(len(w) for w in words)
    assert len(lengths_seen) > 1  # not all words of one length
    assert windows_seen == {1, 3}
    # every window of every text in one call: each text's words as if alone
    for name in vocab.criteria:
        assert m.segment_text(list(texts), name, vocab) == \
            [m.segment_text([text], name, vocab)[0] for text in texts]


def test_segment_words_follow_predict_labels(vocab, monkeypatch):
    # segment_text has no decode of its own: it cuts each text where the
    # labels predict returns for it say, whitespace ends a word, and every
    # text goes to predict in one call with its tokens' spans
    m = tiny_model(vocab, max_len=4)
    calls = []
    chosen = {7: [cp.S, cp.B, cp.E, cp.S, cp.B, cp.E, cp.S], 0: []}

    def predict(sentences, vocab, token_spans):
        calls.append((sentences, token_spans))
        return [np.array(chosen[len(s)]) for s in sentences], np.zeros(len(sentences), np.int64)

    monkeypatch.setattr(m, "predict", predict)
    assert m.segment_text(["李娜进入半决赛"], "pku", vocab) == [["李", "娜进", "入", "半决", "赛"]]
    chosen[7] = [cp.B, cp.M, cp.E, cp.B, cp.M, cp.E, cp.S]
    assert m.segment_text(["李娜进入半决赛"], "pku", vocab) == [["李娜进", "入半决", "赛"]]
    chosen[4] = [cp.B, cp.M, cp.M, cp.E]
    assert m.segment_text(["李 娜进入"], "pku", vocab) == [["李", "娜进入"]]  # split at the gap
    assert len(calls) == 3
    assert m.segment_text(["李 娜进入", "", " ", "李娜进入半决赛"], "pku", vocab) == \
        [["李", "娜进入"], [], [], ["李娜进", "入半决", "赛"]]
    assert len(calls) == 4
    sentences, token_spans = calls[3]
    assert [s.tokens for s in sentences] == [list("李娜进入"), [], [], list("李娜进入半决赛")]
    assert token_spans == [[(0, 1), (2, 3), (3, 4), (4, 5)], [], [], [(i, i + 1) for i in range(7)]]
    for s in sentences:
        assert s.criterion_id == vocab.criteria["pku"] and s.gold_spans is None


def test_predict_decodes_overlong_sentences_in_windows(vocab, monkeypatch):
    # a sentence of more than max_len - 1 tokens is cut at the last gap its
    # token spans show, or after max_len - 1 tokens; each window is indexed
    # anew, so its first bigram is <bos>, and every window of every sentence
    # goes into one batched call with the sentences that fit
    m = tiny_model(vocab, max_len=4)  # windows of at most 3 tokens
    packed = []

    def recording_pack(sentences, vocab):
        packed.append(sentences)
        return pack_inputs(sentences, vocab)

    monkeypatch.setattr(model_mod, "pack_inputs", recording_pack)
    short = cp.index_sentence(["入"], vocab, 0)
    hard = cp.index_sentence(list("李娜进入半决赛"), vocab, 1)
    gapped = cp.index_sentence(list("娜进入半"), vocab, 0)
    spans = [[(0, 1)], [(i, i + 1) for i in range(7)], [(0, 1), (2, 3), (3, 4), (4, 5)]]
    for token_spans, gapped_windows in ((spans, [["娜"], ["进", "入", "半"]]),
                                        (None, [["娜", "进", "入"], ["半"]])):
        packed.clear()
        labels, criteria = m.predict([short, hard, gapped], vocab, token_spans)
        assert [len(x) for x in labels] == [1, 7, 4] and criteria.shape == (3,)
        assert len(packed) == 1
        windows = {0: [["入"]], 1: [["李", "娜", "进"], ["入", "半", "决"], ["赛"]],
                   2: gapped_windows}
        assert sorted(s.tokens for s in packed[0]) == sorted(w for ws in windows.values() for w in ws)
        assert [len(s) for s in packed[0]] == sorted(len(s) for s in packed[0])
        for s in packed[0]:
            owner = next(i for i, ws in windows.items() if s.tokens in ws)
            assert s.criterion_id == (0, 1, 0)[owner] and s.gold_spans is None
            assert s.chars == [vocab.uni_id(t) for t in s.tokens]
            assert s.bigrams == cp.make_bigrams(s.tokens, vocab)


def test_windowed_labels_decode_as_their_windows(vocab):
    # an untrained model's labels are often invalid BMES; decode_bmes of an
    # over-long sentence's labels equals its windows decoded one by one, also
    # where a window ends in B or in M, and its criterion is its first window's
    m = tiny_model(vocab, max_len=6)  # windows of at most 5 tokens
    m.params["dec.w_o"].data[:] = make_rng(9).normal(size=(4, 16))
    rng = random.Random(3)
    window_ends = Counter()
    for k in range(40):
        text = "".join(rng.choice("李娜进入半决赛 ") for _ in range(rng.randint(6, 30))).strip()
        toks = cp.text_tokens(text)
        if len(toks) <= 5:
            continue
        spans = [span for _, span in toks] if k % 2 else [(i, i + 1) for i in range(len(toks))]
        sent = cp.index_sentence([t for t, _ in toks], vocab, k % 2)
        labels, criteria = m.predict([sent], vocab, [spans])
        expected, first = [], None
        for lo, hi in gap_windows(spans, 5):
            window = cp.index_sentence(sent.tokens[lo:hi], vocab, k % 2)
            window_labels, window_criteria = m.predict([window], vocab)
            if hi < len(sent):
                window_ends[cp.LABELS[window_labels[0][-1]]] += 1
            expected += [(lo + s, lo + e) for s, e in cp.decode_bmes(window_labels[0].tolist())]
            first = window_criteria[0] if first is None else first
        assert cp.decode_bmes(labels[0].tolist()) == expected
        assert criteria[0] == first
    assert window_ends["B"] and window_ends["M"], window_ends


def test_segment_and_predict_never_pack_training_batches(vocab, monkeypatch):
    # inference packs inputs only; gold labels are packed for training alone
    def refuse(*args, **kwargs):
        raise AssertionError("inference reached pack_batch")

    monkeypatch.setattr(model_mod, "pack_batch", refuse)
    m = tiny_model(vocab)
    text = "李娜进入半决赛" * 10
    assert "".join(m.segment_text([text], "ctb", vocab)[0]) == text
    unlabeled = cp.index_sentence(list("李娜进入"), vocab, 1)
    labels, criteria = m.predict([unlabeled], vocab)
    assert len(labels[0]) == 4 and criteria.shape == (1,)


def test_segment_deterministic_across_runs(vocab):
    m = tiny_model(vocab)
    a = m.segment_text(["李娜进入半决赛"], "ctb", vocab)
    b = m.segment_text(["李娜进入半决赛"], "ctb", vocab)
    assert a == b


# -- autodiff coverage ------------------------------------------------------------------

# Public autodiff names that a training step and predict need not reach, each
# with the reason it stays. Any other public name that neither reaches is an
# op the model does not run, and belongs in tests/ if anywhere.
UNREACHED_AUTODIFF = {
    "make_rng": "seeds initialization and the trainer's dropout generator, before a step",
    "parameter": "makes the parameters when a model is built",
    "Tensor.sum": "the loss reduction of every gradient check",
}


def public_autodiff_code() -> dict:
    """The code object of each public autodiff function, Tensor or Rows
    method (operators included), by its qualified name."""
    found = {name: obj for name, obj in vars(ad).items()
             if inspect.isfunction(obj) and obj.__module__ == ad.__name__
             and not name.startswith("_")}
    for cls in (ad.Tensor, ad.Rows):
        for name, obj in vars(cls).items():
            if inspect.isfunction(obj) and not (name.startswith("_") and not name.endswith("__")):
                found[f"{cls.__name__}.{name}"] = obj
    # no_grad is wrapped by contextlib.contextmanager; its generator is what runs
    return {name: inspect.unwrap(fn).__code__ for name, fn in found.items()}


def test_model_reaches_every_public_autodiff_op(vocab):
    # one training step as trainer.train runs it, with bigrams on and off,
    # and one predict; sys.setprofile sees every Python call into autodiff
    sents = [prepare_sentence(RawSentence(["李娜", "进入"], 0), vocab),
             prepare_sentence(RawSentence(["半", "决赛"], 1), vocab)]
    models = [tiny_model(vocab), tiny_model(vocab, use_bigram=False)]
    batch, rng = pack_batch(sents, vocab), make_rng(0)
    public = public_autodiff_code()
    names = {code: name for name, code in public.items()}
    reached = set()

    def record(frame, event, arg):
        if event == "call" and frame.f_code in names:
            reached.add(names[frame.f_code])

    sys.setprofile(record)
    try:
        for m in models:
            loss, _ = m.loss_batch(*batch, training=True, rng=rng)
            loss.item()
            backward(loss)
            zero_grads(m.params.values())
        models[0].predict(sents, vocab)
    finally:
        sys.setprofile(None)
    assert set(public) - reached == set(UNREACHED_AUTODIFF)


@pytest.mark.parametrize("use_bigram", [True, False])
def test_training_step_builds_only_nodes_the_loss_reaches(vocab, monkeypatch, use_bigram):
    # a training forward computes nothing the loss does not read: every node
    # it creates is an ancestor of the loss
    m = tiny_model(vocab, encoder_layers=2, use_bigram=use_bigram)
    sents = [prepare_sentence(RawSentence(["李娜", "进入"], 0), vocab),
             prepare_sentence(RawSentence(["半", "决赛"], 1), vocab)]
    created, make_node = [], ad._node

    def node(data, parents):
        out = make_node(data, parents)
        created.append(out)
        return out

    monkeypatch.setattr(ad, "_node", node)
    loss, _ = m.loss_batch(*pack_batch(sents, vocab), training=True, rng=make_rng(0))
    reached, stack = {id(loss): loss}, [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in reached:
                reached[id(parent)] = parent
                stack.append(parent)
    assert created
    assert [t for t in created if id(t) not in reached] == []


# -- heap policy -------------------------------------------------------------------------

def default_model_and_sentences(vocab):
    """An untrained model of default size at max_len 128, and 64 sentences
    whose lengths spread evenly over 4-120 characters, over both criteria."""
    m = Model.for_vocab(ModelConfig(num_criteria=vocab.num_criteria, max_len=128), vocab, seed=0)
    rng = random.Random(0)
    sents = [prepare_sentence(RawSentence(rng.choices("李娜进入半决赛", k=int(T)), i % 2), vocab)
             for i, T in enumerate(np.linspace(4, 120, 64))]
    return m, sents


@needs_mallopt
def test_warm_predict_takes_few_page_faults(vocab):
    # a batch's freed arrays stay in the heap for the next batch; without
    # the heap policy this predict took ~11k minor faults
    m, sents = default_model_and_sentences(vocab)
    for _ in range(2):
        m.predict(sents, vocab)
    assert minor_faults(lambda: m.predict(sents, vocab)) < 500


def warm_training_step_faults() -> int:
    """Minor faults this process takes over five training steps on
    default_model_and_sentences, after two steps of warm-up."""
    vocab = build_vocab()
    m, sents = default_model_and_sentences(vocab)
    batch = pack_batch(sents, vocab)
    optimizer = AdamW(m.params, 0.01)
    rng = make_rng(0)

    def steps(n):
        for _ in range(n):
            loss = m.loss_batch(*batch, training=True, rng=rng)[0]
            backward(loss)
            optimizer.step(1e-3)
            zero_grads(m.params.values())

    steps(2)
    return minor_faults(lambda: steps(5))


@needs_mallopt
def test_warm_training_steps_take_few_page_faults():
    # nothing of a step outlives it, yet the next step reuses its heap;
    # without the heap policy these five steps took ~170k minor faults. They
    # run in a fresh process, as training does: in the test process, where a
    # step's arrays fit depends on the heap that earlier tests left behind,
    # and in some full runs one counted step grew the heap by 500 pages
    code = (f"import sys; sys.path.insert(0, {os.path.dirname(__file__)!r}); "
            "import test_model; print(test_model.warm_training_step_faults())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 500


# -- params & checkpoint ---------------------------------------------------------------

def test_param_shapes_cover_all_params(vocab):
    m = tiny_model(vocab)
    shapes = param_shapes(m.config, m.n_unigrams, m.n_bigrams)
    assert set(shapes) == set(m.params)
    for name, p in m.params.items():
        assert p.data.shape == shapes[name]
    assert m.params["dec.w_o"].data.shape == (4, 16)
    assert m.params["cls.w_c"].data.shape == (2, 16)


def test_every_parameter_moves_the_logits(vocab):
    # no dead parameters: with every parameter moved off its init (zero
    # biases, unit gains), nudging any one of them moves the label or
    # criterion logits by more than rounding (float64, so rounding is ~1e-16)
    m = cast_params(tiny_model(vocab, encoder_layers=2))
    rng = make_rng(16)
    for p in m.params.values():
        p.data += rng.normal(0.0, 0.1, size=p.data.shape)
    sents = [prepare_sentence(RawSentence(w, i % 2), vocab)
             for i, w in enumerate([["李娜", "进入", "半决赛"], ["半", "决赛"], ["李"]])]
    inputs = pack_inputs(sents, vocab)

    def logits():
        with no_grad():
            out = m.forward_batch(*inputs)
        return np.concatenate([out.label_logits.data.ravel(), out.criterion_logits.data.ravel()])

    base = logits()
    dead = []
    for name, p in m.params.items():
        saved = p.data.copy()
        p.data += rng.normal(0.0, 0.1, size=p.data.shape)
        if np.abs(logits() - base).max() <= 1e-9 * np.abs(base).max():
            dead.append(name)
        p.data[:] = saved
    assert dead == [], dead


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_parameters_keep_the_step_in_their_dtype(vocab, monkeypatch, dtype):
    # precision is the parameters' dtype: a training step and predict over a
    # model with float32 (the default) or float64 parameters make values and
    # gradients of that dtype only
    m = cast_params(tiny_model(vocab), dtype)
    sents = [prepare_sentence(RawSentence(["李娜", "进入"], 0), vocab),
             prepare_sentence(RawSentence(["半", "决赛"], 1), vocab)]
    ids, bi, lengths, labels, cids = pack_batch(sents, vocab)
    for t in forward_stages(m, ids, bi, lengths):
        assert t.data.dtype == dtype
    probs = record_attention(monkeypatch)
    loss, out = m.loss_batch(ids, bi, lengths, labels, cids, training=True, rng=make_rng(0))
    for t in (loss, out.label_logits, out.criterion_logits):
        assert t.data.dtype == dtype
    assert probs and all(a.dtype == dtype for a in probs)
    backward(loss)
    assert {p.grad.dtype for p in m.params.values()} == {np.dtype(dtype)}
    with no_grad():
        logits = m.forward_batch(*pack_inputs(sents, vocab)).label_logits
    assert logits.data.dtype == dtype


def test_init_deterministic(vocab):
    m1 = tiny_model(vocab)
    m2 = tiny_model(vocab)
    for name in m1.params:
        assert np.array_equal(m1.params[name].data, m2.params[name].data)


def test_checkpoint_round_trip(tmp_path, vocab):
    m = tiny_model(vocab)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m, vocab.sha256(), extra={"epoch": 3})
    loaded, opt_arrays, extra = load_checkpoint(path, vocab)
    assert extra == {"epoch": 3}
    assert opt_arrays == {}
    assert loaded.config == m.config
    for name in m.params:
        assert np.array_equal(loaded.params[name].data, m.params[name].data)
    # byte-identical re-save
    save_checkpoint(tmp_path / "again.ckpt", loaded, vocab.sha256(), extra={"epoch": 3})
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_checkpoint_vocab_hash_mismatch(tmp_path, vocab):
    m = tiny_model(vocab)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m, vocab.sha256())
    other = Vocab.build({"x": [RawSentence(["进入"], 0)]})
    with pytest.raises(ConfigError, match="different vocab"):
        load_checkpoint(path, other)


def test_checkpoint_shape_mismatch(tmp_path, vocab):
    bad = Model(ModelConfig(num_criteria=2, d_h=16, d_e=8, encoder_layers=1, heads=2,
                            d_ff=32, max_len=32),
                n_unigrams=3, n_bigrams=3, seed=0)  # wrong table sizes for this vocab
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, bad, vocab.sha256())
    with pytest.raises(DataError, match="shape"):
        load_checkpoint(path, vocab)


# bytes that a file's structure is made of, so inserted and overwritten bytes
# reach the parsers and not only the decoders
STRUCTURE = b'\t\n[]:<>{}",0123456789-e'


def mutations(blob: bytes, count: int, seed: int, head: int):
    """count seeded corruptions of blob: truncation, overwritten, deleted or
    inserted bytes. Every second one lands in blob[:head]."""
    rng = random.Random(seed)
    for k in range(count):
        pos = rng.randrange(head if k % 2 else len(blob))
        size = rng.randint(1, 4)
        junk = bytes(rng.choice(STRUCTURE) if rng.random() < 0.5 else rng.randrange(256)
                     for _ in range(size))
        kind = rng.randrange(4)
        if kind == 0:
            yield blob[:pos]
        elif kind == 1:
            yield blob[:pos] + junk + blob[pos + size:]
        elif kind == 2:
            yield blob[:pos] + blob[pos + size:]
        else:
            yield blob[:pos] + junk + blob[pos:]


def test_readers_refuse_mutated_files_with_data_or_config_errors(tmp_path, vocab):
    # each outcome is a loaded object, a DataError or a ConfigError, never
    # another exception; a vocab that loads has dense ids and reads back, and
    # a corpus that loads is prepared for training and evaluation at max_len
    # 8: training splits a line of more than 7 tokens, evaluation keeps it whole
    vocab_path, ckpt_path, path = tmp_path / "vocab.txt", tmp_path / "m.ckpt", tmp_path / "bad"
    corpus_path = tmp_path / "corpus.txt"
    vocab.save(vocab_path)
    corpus_path.write_text("李娜 进入 半决赛\n李 娜 进入 半 决赛\n", encoding="utf-8")
    save_checkpoint(ckpt_path, tiny_model(vocab, d_h=8, d_e=4, d_ff=8), vocab.sha256())
    header = len(MAGIC) + 8 + int.from_bytes(ckpt_path.read_bytes()[len(MAGIC):len(MAGIC) + 8],
                                              "little")
    refused = Counter()
    for reader, source, head in [("vocab", vocab_path, None), ("checkpoint", ckpt_path, header),
                                 ("corpus", corpus_path, None)]:
        blob = source.read_bytes()
        for data in mutations(blob, 300, seed=0, head=head or len(blob)):
            path.write_bytes(data)
            try:
                if reader == "vocab":
                    v = Vocab.load(path)
                    for table in (v.unigrams, v.bigrams, v.criteria):
                        assert sorted(table.values()) == list(range(len(table)))
                    assert Vocab.from_text(v.to_text()) == v
                elif reader == "checkpoint":
                    load_checkpoint(path, vocab)
                else:
                    raws = cp.load_corpus(path)
                    assert all(len(s) <= 7 for s in prepare_for_training(raws, vocab, 8))
                    prepare_for_eval(raws, vocab, 8)
            except (DataError, ConfigError):
                refused[reader] += 1
    assert all(0 < refused[reader] < 300 for reader in ("vocab", "checkpoint", "corpus"))
