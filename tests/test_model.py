import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from mccws import corpus as cp
from mccws import model as model_mod
from mccws.autodiff import Rows, Tensor, backward, make_rng, no_grad, softmax, zero_grads
from mccws.checkpoint import load_checkpoint, save_checkpoint
from mccws.corpus import RawSentence, Vocab, prepare_sentence
from mccws.errors import ConfigError, DataError
from mccws.model import Model, ModelConfig, pack_batch, param_shapes, text_windows

from gradutil import assert_grads_match


@pytest.fixture
def vocab():
    return Vocab.build({
        "ctb": [RawSentence(["李娜", "进入", "半决赛"], 0)],
        "pku": [RawSentence(["李", "娜", "进入", "半", "决赛"], 1)],
    })


def tiny_model(vocab, **overrides) -> Model:
    kw = dict(num_criteria=vocab.num_criteria, d_h=16, d_e=8, encoder_layers=1,
              heads=2, d_ff=32, max_len=32)
    kw.update(overrides)
    return Model.for_vocab(ModelConfig(**kw), vocab, seed=0)


def sentence_inputs(vocab, words, cid):
    """One sentence as a batch of one: ids [1, T+1], bigrams [1, T], lengths [1]."""
    sent = prepare_sentence(RawSentence(words, cid), vocab)
    ids, bi, lengths, _, _ = pack_batch([sent], vocab)
    return ids, bi, lengths


def encode_one(m, ids, **kw):
    """Encoder over a batch of one unpadded sentence; returns H [T+1, d_h]."""
    ids = np.asarray(ids).reshape(1, -1)
    return m.encode_batch(ids, Rows(np.ones(ids.shape, dtype=bool)), **kw)


def contextualize_one(m, fused):
    """Contextualizer over a batch of one unpadded sequence [T, d_h]."""
    return m.contextualize_batch(fused, Rows(np.ones((1, fused.shape[0]), dtype=bool)))


# -- config ------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(num_criteria=2, d_h=10, heads=4)
    with pytest.raises(ConfigError):
        ModelConfig(num_criteria=0)
    cfg = ModelConfig(num_criteria=3)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


# -- encoder -----------------------------------------------------------------

def test_encode_shape(vocab):
    m = tiny_model(vocab)
    ids, _, _ = sentence_inputs(vocab, ["李娜", "进入", "半决赛"], 0)
    assert ids.shape == (1, 8)
    H = encode_one(m, ids)
    assert H.shape == (8, 16)


def test_encode_criterion_token_changes_h(vocab):
    m = tiny_model(vocab)
    ids_ctb, _, _ = sentence_inputs(vocab, ["李娜"], 0)
    ids_pku, _, _ = sentence_inputs(vocab, ["李娜"], 1)
    h1 = encode_one(m, ids_ctb).data
    h2 = encode_one(m, ids_pku).data
    assert h1.shape == h2.shape
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
    f, g = m.fuse_batch(h, e)
    assert np.abs(f.data - h_proj).max() < 1e-6
    p["fuse.b_f"].data[:] = -50.0  # gate -> 0
    f, g = m.fuse_batch(h, e)
    assert np.abs(f.data - e_proj).max() < 1e-6


def test_fuse_matches_straight_line_oracle(vocab):
    m = tiny_model(vocab, d_h=3, d_e=2, heads=1, d_ff=8)
    rng = make_rng(2)
    h = Tensor(rng.normal(size=(4, 3)))
    e = Tensor(rng.normal(size=(4, 2)))
    f, g = m.fuse_batch(h, e)
    p = m.params
    # independent straight-line re-implementation of the gate arithmetic
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    h2 = np.tanh(h.data @ p["fuse.w_h"].data.T + p["fuse.b_h"].data)
    e2 = np.tanh(e.data @ p["fuse.w_e"].data.T + p["fuse.b_e"].data)
    gate = sig(h.data @ p["fuse.w_fh"].data.T + e.data @ p["fuse.w_fe"].data.T + p["fuse.b_f"].data)
    expected = gate * h2 + (1 - gate) * e2
    assert np.abs(f.data - expected).max() < 1e-12
    assert np.abs(g.data - gate).max() < 1e-12


def test_fuse_bounds(vocab):
    m = tiny_model(vocab)
    rng = make_rng(3)
    h = Tensor(rng.normal(size=(20, 16)) * 3)
    e = Tensor(rng.normal(size=(20, 8)) * 3)
    f, g = m.fuse_batch(h, e)
    assert (g.data > 0).all() and (g.data < 1).all()
    assert (f.data > -1).all() and (f.data < 1).all()


def test_fuse_without_bigram(vocab):
    m = tiny_model(vocab, use_bigram=False)
    assert "bigram_emb" not in m.params
    h = Tensor(make_rng(0).normal(size=(4, 16)))
    f, g = m.fuse_batch(h, None)
    assert g is None and f.shape == (4, 16)


# -- contextualizer ---------------------------------------------------------------

def test_contextualize_single_position(vocab):
    m = tiny_model(vocab)
    rng = make_rng(4)
    f = Tensor(rng.normal(size=(1, 16)))
    o = contextualize_one(m, f)
    assert o.shape == (1, 16)
    # with one position, attention passes v straight through
    p = m.params
    v = f.data @ p["ctx.attn.wv"].data.T + p["ctx.attn.bv"].data
    a = v @ p["ctx.attn.wo"].data.T + p["ctx.attn.bo"].data
    pre = a + f.data
    mu, sd = pre.mean(), pre.std()
    expected = (pre - mu) / np.sqrt(sd ** 2 + 1e-12) * p["ctx.ln.gain"].data + p["ctx.ln.bias"].data
    assert np.abs(o.data - expected).max() < 1e-10


def test_attention_rows_sum_to_one(vocab):
    m = tiny_model(vocab)
    ids, bi, lengths = sentence_inputs(vocab, ["李娜", "进入", "半决赛"], 0)
    out = m.forward_batch(ids, bi, lengths, collect_attn=True)
    for name, attn in out.attn.items():
        sums = attn.sum(axis=-1)
        assert np.abs(sums - 1.0).max() < 1e-10, name


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
    assert logits.shape == (7, 4)
    probs = softmax(logits).data
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12
    m.params["dec.w_o"].data[:] = 0.0
    m.params["dec.b_o"].data[:] = 0.0
    uniform = softmax(m.decode_labels(o)).data
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
    assert logits.shape == (1, 2)
    h2 = h.copy()
    h2[1:] = rng.normal(size=(5, 16))
    logits2 = m.classify_criterion(Tensor(h2), first).data
    assert np.array_equal(logits, logits2)
    m.params["cls.w_c"].data[:] = 0.0
    uniform = softmax(m.classify_criterion(Tensor(h), first)).data
    assert np.allclose(uniform, 0.5, atol=1e-15)


def test_classify_single_criterion():
    v = Vocab.build({"only": [RawSentence(["李娜"], 0)]})
    m = tiny_model(v)
    h = Tensor(make_rng(0).normal(size=(3, 16)))
    probs = softmax(m.classify_criterion(h, Rows(np.arange(3) == 0))).data
    assert np.allclose(probs, 1.0)


# -- loss --------------------------------------------------------------------------

def test_loss_uniform_arithmetic(vocab):
    m = tiny_model(vocab)
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
    m = tiny_model(vocab)
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
    assert row == out.label_logits.shape[0]
    assert abs(loss.item() - manual / 2) < 1e-12


def test_loss_rejects_empty_batch(vocab):
    m = tiny_model(vocab)
    ids, bi, lengths, labels, cids = pack_batch([], vocab)
    with pytest.raises(DataError):
        m.loss_batch(ids, bi, lengths, labels, cids)


def test_full_model_gradcheck_quick(vocab):
    m = tiny_model(vocab, d_h=8, d_e=4, encoder_layers=1, heads=2, d_ff=16)
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
        graph = [weakref.ref(loss), weakref.ref(out.hidden)]
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
    m = tiny_model(vocab)
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
        if name.endswith(".attn.bk"):
            # softmax ignores a constant added to every score of a row, so the
            # key bias's exact gradient is zero; compare against its weights'
            scale = np.abs(grads[name.replace(".bk", ".wk")]).max()
            assert np.abs(g).max() <= 1e-10 * scale and np.abs(expected).max() <= 1e-10 * scale
        else:
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

def test_forward_shapes(vocab):
    # rows are packed over real positions: N1 = sum(T + 1) tokens, N = sum(T) chars
    m = tiny_model(vocab)
    sentences = [["李"], ["李娜", "进入"], ["李娜", "进入", "半决赛"]]
    batches = [[words] for words in sentences] + [sentences]
    for batch in batches:
        sents = [prepare_sentence(RawSentence(words, 0), vocab) for words in batch]
        ids, bi, lengths, _, _ = pack_batch(sents, vocab)
        B, N = len(batch), int(lengths.sum())
        out = m.forward_batch(ids, bi, lengths, collect_attn=True)
        assert out.hidden.shape == (N + B, 16)
        assert out.fused.shape == (N, 16)
        assert out.contextual.shape == (N, 16)
        assert out.label_logits.shape == (N, 4)
        assert out.criterion_logits.shape == (B, 2)
        assert out.gate_means.shape == (N,)
        L = int(lengths.max())
        assert out.attn["enc0"].shape == (B, 2, L + 1, L + 1)
        assert out.attn["ctx"].shape == (B, 2, L, L)


def test_batch_padding_consistent_with_single(vocab, monkeypatch):
    # each sentence alone vs padded in batches that predict cuts by length,
    # by batch_size and by SCORE_CELLS: same prediction, returned in input order
    m = tiny_model(vocab, max_len=128)
    m.params["dec.w_o"].data[:] = make_rng(9).normal(size=(4, 16))  # well-separated labels
    m.params["cls.w_c"].data[:] = make_rng(10).normal(size=(2, 16))
    for cid in range(2):  # criterion tokens far apart, so both criteria get predicted
        m.params["tok_emb"].data[vocab.criterion_token_id(cid)] = make_rng(11 + cid).normal(size=16)
    text = "李娜进入半决赛" * 19
    # short ones, then long ones: batch_size 64 takes them all in one batch
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
            batches.clear()
            labels, criteria = m.predict(sentences, vocab, batch_size=batch_size)
            assert [len(x) for x in labels] == [len(s) for s in sentences]
            for x, (solo_labels, _) in zip(labels, solo):
                assert np.array_equal(x, solo_labels[0])
            assert criteria.dtype == np.int64
            assert criteria.tolist() == [int(c[0]) for _, c in solo]
            for (B, L1), _ in batches:
                assert B <= batch_size
                assert B == 1 or B * m.config.heads * L1 ** 2 <= cells, (B, L1)
            assert Counter(row for _, batch in batches for row in batch) == rows
        assert len(batches) > 2  # batch_size 64 was split by the cap
        assert any(B == 1 and 2 * L1 ** 2 > cells for (B, L1), _ in batches) == (cells < 2 * 128 ** 2)


# -- segmentation -------------------------------------------------------------------

def test_segment_empty(vocab):
    m = tiny_model(vocab)
    assert m.segment_text("", "ctb", vocab) == []


def test_segment_unknown_criterion(vocab):
    m = tiny_model(vocab)
    with pytest.raises(ConfigError, match="registered"):
        m.segment_text("李娜", "as", vocab)


def test_segment_words_rejoin_to_original(vocab):
    # whitespace ends a word and is dropped; every other character is kept,
    # also in text of more than max_len - 1 tokens, segmented in windows
    m = tiny_model(vocab)
    for text in ("李娜进入半决赛", "李娜2024年ok了", "ＡＢＣ１２３李娜", "abc 123",
                 "天地 玄\r", " 李娜\t进入\u3000半决赛 ", " \r\n",
                 "李娜进入半决赛" * 10, "李娜 进入半决赛 " * 10):
        words = m.segment_text(text, "pku", vocab)
        assert not any(ch.isspace() for word in words for ch in word), words
        assert "".join(words) == "".join(text.split())


def test_text_windows_cut_at_last_gap():
    def spans(text):
        return [span for _, span in cp.text_tokens(text)]
    assert text_windows([], 4) == []
    assert text_windows(spans("abcd"), 4) == [(0, 1)]  # one <eng> token
    assert text_windows(spans("李娜进入"), 4) == [(0, 4)]
    assert text_windows(spans("李娜进入半决赛"), 3) == [(0, 3), (3, 6), (6, 7)]  # no gap: hard cuts
    assert text_windows(spans("李娜 进入半 决赛"), 4) == [(0, 2), (2, 5), (5, 7)]
    assert text_windows(spans("李娜进入 半决赛"), 4) == [(0, 4), (4, 7)]  # gap at the window's end


def test_segment_agrees_with_batched_prediction(vocab):
    # segment_text runs a batch of one; evaluation runs padded batches
    m = tiny_model(vocab)
    m.params["dec.w_o"].data[:] = make_rng(9).normal(size=(4, 16))  # well-separated labels
    longer = prepare_sentence(RawSentence(["李娜进入半决赛李娜进入"], 0), vocab)
    lengths_seen = set()
    for text in ("李", "李娜", "进入半决赛", "半决赛李娜进入", "娜进李"):
        for name, cid in vocab.criteria.items():
            sent = prepare_sentence(RawSentence([text], cid), vocab)
            labels = m.predict([sent, longer], vocab)[0][0]
            spans = cp.decode_bmes(labels.tolist())
            words = m.segment_text(text, name, vocab)
            assert words == [text[s:e] for s, e in spans]
            lengths_seen.update(len(w) for w in words)
    assert len(lengths_seen) > 1  # not all words of one length


def test_segment_deterministic_across_runs(vocab):
    m = tiny_model(vocab)
    a = m.segment_text("李娜进入半决赛", "ctb", vocab)
    b = m.segment_text("李娜进入半决赛", "ctb", vocab)
    assert a == b


# -- params & checkpoint ---------------------------------------------------------------

def test_param_shapes_cover_all_params(vocab):
    m = tiny_model(vocab)
    shapes = param_shapes(m.config, m.n_unigrams, m.n_bigrams)
    assert set(shapes) == set(m.params)
    for name, p in m.params.items():
        assert p.data.shape == shapes[name]
    assert m.params["dec.w_o"].data.shape == (4, 16)
    assert m.params["cls.w_c"].data.shape == (2, 16)


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
