"""The unified segmentation network.

Input is a criterion-token-augmented character id sequence. A trainable
transformer encoder produces hidden states H (row 0 belongs to the criterion
token); character rows are blended with bigram embeddings through a sigmoid
fusion gate, contextualized by one more multi-head attention block, and
decoded per position into BMES label logits. The criterion-token row feeds
an auxiliary criterion classifier so criterion information survives the
forward pass.

Weight matrices are stored [out, in]. Activations are packed: one row per
real position, sentence by sentence ([N, features], see autodiff.Rows).
Only attention's scores use the padded [batch, position] layout.
"""

from dataclasses import dataclass, fields

import numpy as np

from . import corpus as cp
from .autodiff import (
    Rows, Tensor, attention, cross_entropy, dropout, embedding_lookup, gather_rows, layer_norm,
    linear, no_grad, parameter,
)
from .errors import ConfigError, DataError

# predict grows a batch only while its [B, H, L+1, L+1] attention-score array
# has at most this many cells. The attention node writes that array, takes
# its exp in place and reads it again for the product with v, so a batch
# whose array outgrows a core's L2 cache (2 MiB, i.e. 2^18 float64 cells, on
# the 2-vCPU Xeon it was sized on) waits on memory. On the benchmark's
# 4-120-token eval lines (seed 4242, 4 heads, batch 64, one pinned CPU, one
# BLAS thread, heap held by autodiff's heap policy), predict ran 462, 511,
# 516, 485 and 451 sent/s at 2^16 to 2^20 cells (medians of 40 in-process
# rounds, on a slower day of the host than earlier sizings). 2^17 beat 2^18
# in 22 of 40 rounds and every other size in at most 5, so the cap stays at
# 2^18.
SCORE_CELLS = 1 << 18
# predict also stops a batch at this many sentences. With SCORE_CELLS as the
# only limit, short sentences batch by the hundred and run slower: perfbench's
# 400 dev sentences (5-20 tokens, seed 4242, one pinned CPU, one BLAS thread)
# went 5512 -> 4574 sent/s uncapped (won 0 of 20 rounds) and its 4-120-token
# eval lines 852 -> 840, with identical labels.
BATCH_SENTENCES = 64


@dataclass
class ModelConfig:
    num_criteria: int
    d_h: int = 64
    d_e: int = 32
    encoder_layers: int = 2
    heads: int = 4
    d_ff: int = 256
    max_len: int = 128
    dropout_p: float = 0.1
    use_bigram: bool = True

    def __post_init__(self):
        for name in ("num_criteria", "d_h", "d_e", "encoder_layers", "heads", "d_ff"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.max_len < 2:
            raise ConfigError("max_len must be >= 2 (the criterion token and one character)")
        if self.d_h % self.heads:
            raise ConfigError(f"d_h={self.d_h} not divisible by heads={self.heads}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError("dropout_p must be in [0, 1)")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Rebuild a config read from a checkpoint header; anything that is
        not a valid config is a DataError. Headers written before the label
        alphabet was fixed carry label_count, which must be 4 (BMES)."""
        d = dict(d)
        if d.pop("label_count", len(cp.LABELS)) != len(cp.LABELS):
            raise DataError(f"label_count must be {len(cp.LABELS)} (BMES)")
        kinds = {f.name: f.type for f in fields(cls)}
        unknown = sorted(set(d) - set(kinds))
        if unknown:
            raise DataError(f"unknown model config keys {unknown}")
        mistyped = sorted(k for k, v in d.items()
                          if type(v) is not kinds[k] and not (kinds[k] is float and type(v) is int))
        if mistyped:
            raise DataError(f"model config keys of the wrong type: {mistyped}")
        try:
            return cls(**d)
        except (TypeError, ConfigError) as exc:
            raise DataError(f"invalid model config: {exc}") from exc


@dataclass
class ForwardOutput:
    """Per-batch forward results; tensors keep their tape links.

    Label rows are packed, sentence by sentence, over real positions only:
    N = sum(lengths) character rows.
    """

    label_logits: Tensor    # [N, len(LABELS)]
    criterion_logits: Tensor  # [B, num_criteria]


def param_shapes(config: ModelConfig, n_unigrams: int, n_bigrams: int) -> dict[str, tuple]:
    """Stable name -> shape map for every trainable tensor."""
    d_h, d_e = config.d_h, config.d_e
    shapes: dict[str, tuple] = {
        "tok_emb": (n_unigrams, d_h),
        "pos_emb": (config.max_len, d_h),
    }
    def attn_block(prefix):
        for w in ("wq", "wk", "wv", "wo"):
            shapes[f"{prefix}.{w}"] = (d_h, d_h)
        for b in ("bq", "bk", "bv", "bo"):
            shapes[f"{prefix}.{b}"] = (d_h,)
    for i in range(config.encoder_layers):
        attn_block(f"enc{i}.attn")
        shapes[f"enc{i}.ln1.gain"] = (d_h,)
        shapes[f"enc{i}.ln1.bias"] = (d_h,)
        shapes[f"enc{i}.ffn.w1"] = (config.d_ff, d_h)
        shapes[f"enc{i}.ffn.b1"] = (config.d_ff,)
        shapes[f"enc{i}.ffn.w2"] = (d_h, config.d_ff)
        shapes[f"enc{i}.ffn.b2"] = (d_h,)
        shapes[f"enc{i}.ln2.gain"] = (d_h,)
        shapes[f"enc{i}.ln2.bias"] = (d_h,)
    shapes["fuse.w_h"] = (d_h, d_h)
    shapes["fuse.b_h"] = (d_h,)
    if config.use_bigram:
        shapes["bigram_emb"] = (n_bigrams, d_e)
        shapes["fuse.w_e"] = (d_h, d_e)
        shapes["fuse.b_e"] = (d_h,)
        shapes["fuse.w_fh"] = (d_h, d_h)
        shapes["fuse.w_fe"] = (d_h, d_e)
        shapes["fuse.b_f"] = (d_h,)
    attn_block("ctx.attn")
    shapes["ctx.ln.gain"] = (d_h,)
    shapes["ctx.ln.bias"] = (d_h,)
    shapes["dec.w_o"] = (len(cp.LABELS), d_h)
    shapes["dec.b_o"] = (len(cp.LABELS),)
    shapes["cls.w_c"] = (config.num_criteria, d_h)
    shapes["cls.b_c"] = (config.num_criteria,)
    return shapes


def init_params(config: ModelConfig, n_unigrams: int, n_bigrams: int,
                rng: np.random.Generator) -> dict[str, Tensor]:
    """Truncated-normal (std 0.02, clipped at 2 sigma) for matrices and
    embeddings, ones for layer-norm gains, zeros for every bias."""
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(config, n_unigrams, n_bigrams).items():
        if name.endswith(".gain"):
            data = np.ones(shape)
        elif len(shape) >= 2:
            data = np.clip(rng.normal(0.0, 0.02, size=shape), -0.04, 0.04)
        else:
            data = np.zeros(shape)
        params[name] = parameter(data)
    return params


class Model:
    """Configuration + parameters + the forward pieces."""

    def __init__(self, config: ModelConfig, n_unigrams: int, n_bigrams: int,
                 params: dict[str, Tensor] | None = None, seed: int = 0):
        self.config = config
        self.n_unigrams = n_unigrams
        self.n_bigrams = n_bigrams
        if params is None:
            from .autodiff import make_rng
            params = init_params(config, n_unigrams, n_bigrams, make_rng(seed))
        self.params = params

    @classmethod
    def for_vocab(cls, config: ModelConfig, vocab: cp.Vocab, seed: int = 0) -> "Model":
        if config.num_criteria != vocab.num_criteria:
            raise ConfigError(
                f"config expects {config.num_criteria} criteria, vocab has {vocab.num_criteria}")
        return cls(config, len(vocab.unigrams), len(vocab.bigrams), seed=seed)

    # -- attention ----------------------------------------------------------

    def _mha(self, x: Tensor, prefix: str, rows: Rows) -> Tensor:
        """Multi-head self-attention over the real rows x [N, d_h] of a
        padded [B, L] batch; only real positions are attended to. Four
        nodes: the Q, K and V projections (three linear nodes, one per
        stored matrix), one attention node, which pads, scores and packs the
        context again, and the output projection. Returns the output
        [N, d_h]."""
        p = self.params
        q, k, v = (linear(x, p[f"{prefix}.w{n}"], p[f"{prefix}.b{n}"]) for n in "qkv")
        ctx = attention(q, k, v, rows, self.config.heads)
        return linear(ctx, p[f"{prefix}.wo"], p[f"{prefix}.bo"])

    def _drop(self, x: Tensor, rows: Rows, training: bool, rng) -> Tensor:
        return dropout(x, self.config.dropout_p, training, rng, rows=rows)

    # -- encoder ---------------------------------------------------------------

    def encode_batch(self, ids: np.ndarray, rows: Rows,
                     training: bool = False, rng=None) -> Tensor:
        """Token + position embeddings through the encoder stack.

        ids: [B, L] augmented and padded; rows: its real positions.
        Returns H [rows.count, d_h], packed; each sentence's first row is
        its criterion token.
        """
        p = self.params
        B, L = ids.shape
        if L > self.config.max_len:
            raise DataError(f"sequence length {L} exceeds max_len {self.config.max_len}")
        tok = embedding_lookup(p["tok_emb"], rows.pack(ids))
        pos = embedding_lookup(p["pos_emb"], rows.pack(np.broadcast_to(np.arange(L), (B, L))))
        h = self._drop(tok + pos, rows, training, rng)
        for i in range(self.config.encoder_layers):
            a = self._mha(h, f"enc{i}.attn", rows)
            h = layer_norm(h + self._drop(a, rows, training, rng),
                           p[f"enc{i}.ln1.gain"], p[f"enc{i}.ln1.bias"])
            f = linear(linear(h, p[f"enc{i}.ffn.w1"], p[f"enc{i}.ffn.b1"]).relu(),
                       p[f"enc{i}.ffn.w2"], p[f"enc{i}.ffn.b2"])
            h = layer_norm(h + self._drop(f, rows, training, rng),
                           p[f"enc{i}.ln2.gain"], p[f"enc{i}.ln2.bias"])
        return h

    # -- fusion gate -------------------------------------------------------------

    def fuse_batch(self, h: Tensor, e: Tensor | None) -> Tensor:
        """Blend character hidden states with bigram embeddings.

        h: [..., d_h] character rows (criterion row excluded); e: [..., d_e].
        Returns the fused rows; without bigrams, the tanh projection of h.
        """
        p = self.params
        h_proj = linear(h, p["fuse.w_h"], p["fuse.b_h"]).tanh()
        if not self.config.use_bigram:
            return h_proj
        if e is None:
            raise ConfigError("bigram embeddings required when use_bigram is set")
        e_proj = linear(e, p["fuse.w_e"], p["fuse.b_e"]).tanh()
        gate = (linear(h, p["fuse.w_fh"]) + linear(e, p["fuse.w_fe"]) + p["fuse.b_f"]).sigmoid()
        return gate * h_proj + (1.0 - gate) * e_proj

    # -- contextualizer -------------------------------------------------------------

    def contextualize_batch(self, fused: Tensor, rows: Rows,
                            training: bool = False, rng=None) -> Tensor:
        """One attention block with residual and layer norm over the fused
        character rows [rows.count, d_h]; no feed-forward of its own."""
        p = self.params
        a = self._mha(fused, "ctx.attn", rows)
        return layer_norm(fused + self._drop(a, rows, training, rng),
                          p["ctx.ln.gain"], p["ctx.ln.bias"])

    # -- decoders ----------------------------------------------------------------------

    def decode_labels(self, contextual: Tensor) -> Tensor:
        """Per-position logits over the BMES alphabet."""
        return linear(contextual, self.params["dec.w_o"], self.params["dec.b_o"])

    def classify_criterion(self, hidden: Tensor, rows: Rows) -> Tensor:
        """Criterion logits [B, num_criteria] from the criterion-token rows
        of hidden only; rows picks them out of hidden's rows."""
        return linear(gather_rows(hidden, rows), self.params["cls.w_c"], self.params["cls.b_c"])

    # -- full forward ----------------------------------------------------------------------

    def forward_batch(self, ids: np.ndarray, bigram_ids: np.ndarray | None,
                      lengths: np.ndarray, training: bool = False, rng=None) -> ForwardOutput:
        """ids: [B, L+1] augmented+padded; bigram_ids: [B, L]; lengths: [B]
        true character counts (excluding the criterion token)."""
        L1 = ids.shape[1]
        tokens = Rows(np.arange(L1)[None, :] < (lengths + 1)[:, None])
        chars = Rows(tokens.valid[:, 1:])
        # each sentence's first row is its criterion token
        first = tokens.pack(np.broadcast_to(np.arange(L1) == 0, tokens.shape))
        H = self.encode_batch(ids, tokens, training=training, rng=rng)
        e = None
        if self.config.use_bigram:
            e = embedding_lookup(self.params["bigram_emb"],
                                 chars.pack(np.asarray(bigram_ids, dtype=np.int64)))
        fused = self.fuse_batch(gather_rows(H, Rows(~first)), e)
        O = self.contextualize_batch(fused, chars, training=training, rng=rng)
        return ForwardOutput(label_logits=self.decode_labels(O),
                             criterion_logits=self.classify_criterion(H, Rows(first)))

    # -- loss --------------------------------------------------------------------------------

    def loss_batch(self, ids, bigram_ids, lengths, labels, criterion_ids,
                   training: bool = False, rng=None) -> tuple[Tensor, ForwardOutput]:
        """Joint objective: summed per-position label NLL over real positions
        plus criterion NLL, averaged over the batch."""
        B, L1 = ids.shape
        if B == 0:
            raise DataError("empty batch")
        out = self.forward_batch(ids, bigram_ids, lengths, training=training, rng=rng)
        targets = np.asarray(labels)[np.arange(L1 - 1)[None, :] < lengths[:, None]]
        label_nll = cross_entropy(out.label_logits, targets)
        crit_nll = cross_entropy(out.criterion_logits, criterion_ids)
        return (label_nll + crit_nll) * (1.0 / B), out

    # -- inference ------------------------------------------------------------------------------

    def predict(self, sentences: list[cp.Sentence],
                vocab: cp.Vocab) -> tuple[list[np.ndarray], np.ndarray]:
        """Eval-mode forward over batches of at most BATCH_SENTENCES
        sentences (their gold spans are not read).

        Sentences are batched in order of length (a stable sort), so a batch
        pads to little more than its longest sentence; a batch also stops
        growing before its attention scores pass SCORE_CELLS (a sentence too
        long for that runs alone). Results come back in input order. Returns
        (labels, criteria): the greedy per-position BMES ids of each
        sentence, trimmed to its length (no CRF), and the criterion
        classifier's argmax per sentence [N].
        """
        sizes = [len(s) for s in sentences]
        order = sorted(range(len(sentences)), key=sizes.__getitem__)
        labels: list[np.ndarray] = [None] * len(sentences)
        criteria = [0] * len(sentences)
        start = 0
        while start < len(order):
            stop = start + 1
            while (stop < len(order) and stop - start < BATCH_SENTENCES
                   and (stop - start + 1) * self.config.heads * (sizes[order[stop]] + 1) ** 2
                   <= SCORE_CELLS):
                stop += 1
            rows = order[start:stop]
            start = stop
            with no_grad():
                out = self.forward_batch(*pack_inputs([sentences[i] for i in rows], vocab))
            label_ids = out.label_logits.data.argmax(axis=-1)
            offset = 0
            for i, c in zip(rows, out.criterion_logits.data.argmax(axis=-1).tolist()):
                labels[i] = label_ids[offset:offset + sizes[i]]
                criteria[i] = c
                offset += sizes[i]
        return labels, np.array(criteria, dtype=np.int64)

    def segment_text(self, texts: list[str], criterion_name: str, vocab: cp.Vocab,
                     tokens: list[list[tuple[str, tuple[int, int]]]] | None = None
                     ) -> list[list[str]]:
        """Segment raw texts under the named criterion, all through one
        predict call; returns each text's words, in input order.

        Latin/digit runs are re-emitted verbatim from the original text.
        Whitespace is dropped before the forward pass and always ends a word.
        A text of more than max_len - 1 tokens is segmented in consecutive
        windows that fit (see text_windows). tokens[i] is
        cp.text_tokens(texts[i]), for a caller that already has them.
        """
        cid = vocab.criterion_id(criterion_name)
        if tokens is None:
            tokens = [cp.text_tokens(text) for text in texts]
        windows = []  # (index of the text, the window's (token, span) pairs)
        for i, toks_spans in enumerate(tokens):
            windows.extend((i, toks_spans[lo:hi]) for lo, hi in
                           text_windows([span for _, span in toks_spans], self.config.max_len - 1))
        labels, _ = self.predict(
            [cp.index_sentence([t for t, _ in window], vocab, cid) for _, window in windows], vocab)
        words: list[list[str]] = [[] for _ in texts]
        for (i, window), window_labels in zip(windows, labels):
            for s, e in cp.decode_bmes(window_labels.tolist()):
                # the gaps between kept tokens are whitespace
                words[i].extend(texts[i][window[s][1][0]:window[e - 1][1][1]].split())
        return words


def text_windows(spans: list[tuple[int, int]], limit: int) -> list[tuple[int, int]]:
    """Cut a token sequence, given by each token's span in its text, into
    consecutive (start, stop) windows of at most limit tokens. Each cut goes
    at the last whitespace gap inside the window, or after limit tokens when
    the window has none."""
    windows, start = [], 0
    while len(spans) - start > limit:
        stop = start + limit
        cut = next((i for i in range(stop, start, -1) if spans[i - 1][1] < spans[i][0]), stop)
        windows.append((start, cut))
        start = cut
    if start < len(spans):
        windows.append((start, len(spans)))
    return windows


def pack_inputs(sentences: list[cp.Sentence], vocab: cp.Vocab):
    """Pad sentences into the model's inputs, reading no gold spans: (ids
    [B, L+1], each row led by its criterion token; bigram_ids [B, L];
    lengths [B]), zero beyond each sentence's length."""
    B = len(sentences)
    L = max(map(len, sentences), default=0)
    ids = np.zeros((B, L + 1), dtype=np.int64)
    bi = np.zeros((B, L), dtype=np.int64)
    lengths = np.zeros(B, dtype=np.int64)
    for i, sent in enumerate(sentences):
        T = len(sent)
        lengths[i] = T
        ids[i, 0] = vocab.criterion_token_id(sent.criterion_id)
        ids[i, 1:T + 1] = sent.chars
        bi[i, :T] = sent.bigrams
    return ids, bi, lengths


def pack_batch(sentences: list[cp.Sentence], vocab: cp.Vocab):
    """pack_inputs' three arrays plus the training targets: labels [B, L],
    the gold spans' BMES ids (zero-padded), and criterion_ids [B]."""
    ids, bi, lengths = pack_inputs(sentences, vocab)
    labels = np.zeros(bi.shape, dtype=np.int64)
    for i, sent in enumerate(sentences):
        labels[i, :len(sent)] = cp.encode_bmes(sent.gold_spans, len(sent))
    criterion_ids = np.array([sent.criterion_id for sent in sentences], dtype=np.int64)
    return ids, bi, lengths, labels, criterion_ids
