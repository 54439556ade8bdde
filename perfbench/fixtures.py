"""Inputs for one benchmark run, generated from the run's seed.

Everything here is fixture work: it runs before any timed or set-up
measurement and is excluded from every metric.
"""

import os
import random

from mccws import Model, ModelConfig, SyntheticSpec, Vocab, generate_synthetic, save_checkpoint

CRITERIA = ("join", "split")
# The acceptance configuration: 2000 sentences per criterion, d_h 64,
# 2 layers, 4 heads, d_ff 256, max_len 64, dropout 0.1.
TRAIN_SPEC = dict(n_train=2000, n_dev=200, n_test=0)
TRAIN_CONFIG = dict(d_h=64, d_e=32, encoder_layers=2, heads=4, d_ff=256,
                    max_len=64, dropout_p=0.1)
# Gold files for evaluate and segment: line lengths spread evenly from
# EVAL_MIN_TOKENS to EVAL_MAX_TOKENS. The lengths are the same for every
# seed (only their order and the text change), so the work per run does
# not drift with the seed.
EVAL_SENTENCES = 128
EVAL_MIN_TOKENS, EVAL_MAX_TOKENS = 4, 120
EVAL_SPEC = dict(n_train=0, n_dev=0, n_test=3000)
EVAL_CONFIG = dict(max_len=128)
MODEL_SEED = 0


def paths(work: str) -> dict[str, str]:
    p = {"vocab": os.path.join(work, "vocab.txt"),
         "checkpoint": os.path.join(work, "eval.ckpt"),
         "segment_input": os.path.join(work, "join.eval.raw")}
    for name in CRITERIA:
        for split in ("train", "dev", "eval"):
            p[f"{name}.{split}"] = os.path.join(work, f"{name}.{split}.txt")
    return p


def _write(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _lines_of_length(words: list[str], lengths: list[int]) -> list[list[str]]:
    """Cut a word stream into consecutive lines, each as long as its target
    length or short of it by less than one word (at most 4 characters)."""
    lines, pos = [], 0
    for target in lengths:
        line, total = [], 0
        while total + len(words[pos]) <= target:
            line.append(words[pos])
            total += len(words[pos])
            pos += 1
        lines.append(line)
    return lines


def make(work: str, seed: int) -> dict[str, str]:
    """Write corpora, the vocabulary and the evaluation checkpoint into work.

    Sentences use only CJK characters, so one character is one token and
    character offsets equal the token offsets the scorer uses.
    """
    p = paths(work)
    train = generate_synthetic(SyntheticSpec(**TRAIN_SPEC), seed=seed)
    for name in CRITERIA:
        for split in ("train", "dev"):
            _write(p[f"{name}.{split}"], (" ".join(r.words) for r in train[name][split]))
    vocab = Vocab.build({name: train[name]["train"] for name in CRITERIA})
    vocab.save(p["vocab"])

    step = (EVAL_MAX_TOKENS - EVAL_MIN_TOKENS) / (EVAL_SENTENCES - 1)
    lengths = [EVAL_MIN_TOKENS + round(i * step) for i in range(EVAL_SENTENCES)]
    random.Random(seed).shuffle(lengths)
    stream = generate_synthetic(SyntheticSpec(**EVAL_SPEC), seed=seed)
    for name in CRITERIA:
        words = [w for r in stream[name]["test"] for w in r.words]
        lines = _lines_of_length(words, lengths)
        _write(p[f"{name}.eval"], (" ".join(line) for line in lines))
        if name == "join":
            _write(p["segment_input"], ("".join(line) for line in lines))

    config = ModelConfig(num_criteria=vocab.num_criteria, **EVAL_CONFIG)
    model = Model.for_vocab(config, vocab, seed=MODEL_SEED)
    save_checkpoint(p["checkpoint"], model, vocab.sha256())
    return p
