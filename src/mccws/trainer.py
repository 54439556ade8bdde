"""Batch construction, the training loop, and evaluation hooks."""

import math
from dataclasses import dataclass, field

import numpy as np

from . import corpus as cp
from .autodiff import backward, zero_grads
from .errors import ConfigError, DataError, DivergenceError
from .metrics import EvalReport, evaluate_criterion, mean_f1
from .model import Model, pack_batch
from .optim import AdamW, WarmupLinearSchedule


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 64
    seed: int = 0
    eval_every: int = 1
    lr: float = 3e-3  # the best of an lr sweep at 10 epochs; see README
    warmup_ratio: float = 0.1
    weight_decay: float = 0.01

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ConfigError(f"warmup_ratio must be in [0, 1), got {self.warmup_ratio}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")


@dataclass
class TrainResult:
    best_params: dict[str, np.ndarray]
    best_f1: float
    metrics: list[dict] = field(default_factory=list)


METRIC_FIELDS = ("epoch", "split", "criterion", "precision", "recall", "f1",
                 "oov_recall", "loss", "criterion_accuracy")


def metric_record(**kw) -> dict:
    rec = {f: None for f in METRIC_FIELDS}
    for k, v in kw.items():
        if k not in rec:
            raise KeyError(f"unknown metric field {k}")
        rec[k] = v
    return rec


def make_batches(sentences: list[cp.Sentence], batch_size: int,
                 rng: np.random.Generator) -> list[list[cp.Sentence]]:
    """Shuffle with the given generator and split into batches of at most
    batch_size, criteria mixed freely."""
    order = rng.permutation(len(sentences))
    return [[sentences[i] for i in order[k:k + batch_size]]
            for k in range(0, len(order), batch_size)]


def prepare_for_training(raws: list[cp.RawSentence], vocab: cp.Vocab, max_len: int) -> list[cp.Sentence]:
    """Each sentence prepared once. One of more than max_len - 1 tokens is
    cut by cp.windows at its gold word starts, each window indexed anew; a
    word too long for a window is a DataError."""
    limit = max_len - 1
    out = []
    for raw in raws:
        sent = cp.prepare_sentence(raw, vocab)
        if len(sent) <= limit:
            out.append(sent)
            continue
        spans, w = sent.gold_spans, 0
        for lo, hi in cp.windows(len(sent), [s for s, _ in spans], limit):
            first = w
            while w < len(spans) and spans[w][1] <= hi:
                w += 1
            if w < len(spans) and spans[w][0] < hi:
                raise DataError(f"word {raw.words[w]!r} alone exceeds the {limit}-token limit")
            out.append(cp.index_sentence(sent.tokens[lo:hi], vocab, sent.criterion_id,
                                         [(s - lo, e - lo) for s, e in spans[first:w]]))
    return out


def prepare_for_eval(raws: list[cp.RawSentence], vocab: cp.Vocab, max_len: int) -> list[cp.Sentence]:
    """Every sentence whole: predict decodes an over-long one in windows. max_len is not read."""
    return [cp.prepare_sentence(raw, vocab) for raw in raws]


def evaluate_model(model: Model, vocab: cp.Vocab,
                   sentences: list[cp.Sentence]) -> dict[str, tuple[EvalReport, float]]:
    """Segment every sentence in eval mode and score each criterion that has
    sentences.

    Returns criterion name -> (EvalReport, criterion classifier accuracy).
    """
    labels, criteria = model.predict(sentences, vocab)
    results = {}
    for cid, name in enumerate(vocab.criterion_names):
        rows = [j for j, sent in enumerate(sentences) if sent.criterion_id == cid]
        if not rows:
            continue
        report = evaluate_criterion([sentences[j].tokens for j in rows],
                                    [sentences[j].gold_spans for j in rows],
                                    [cp.decode_bmes(labels[j].tolist()) for j in rows],
                                    vocab.lexicon(name), criterion=name)
        results[name] = (report, int((criteria[rows] == cid).sum()) / len(rows))
    return results


def train(model: Model, vocab: cp.Vocab, train_sentences: list[cp.Sentence],
          dev_sentences: list[cp.Sentence] | None, cfg: TrainConfig) -> TrainResult:
    """Run the full loop; aborts with DivergenceError on a non-finite loss.

    Keeps a snapshot of the parameters at the best dev mean-F1 epoch (the
    final parameters when there is no dev set)."""
    if not train_sentences:
        raise DataError("empty training corpus")
    metrics: list[dict] = []
    if cfg.epochs == 0:
        snap = {name: p.data.copy() for name, p in model.params.items()}
        return TrainResult(best_params=snap, best_f1=0.0, metrics=metrics)

    n_batches = math.ceil(len(train_sentences) / cfg.batch_size)
    total_steps = cfg.epochs * n_batches
    schedule = WarmupLinearSchedule(cfg.lr, total_steps, cfg.warmup_ratio)
    optimizer = AdamW(model.params, cfg.weight_decay)
    shuffle_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 1])))
    dropout_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 2])))

    best_f1 = -1.0
    best_params: dict[str, np.ndarray] | None = None
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        epoch_loss = 0.0
        for batch in make_batches(train_sentences, cfg.batch_size, shuffle_rng):
            ids, bi, lengths, labels, cids = pack_batch(batch, vocab)
            loss, _ = model.loss_batch(ids, bi, lengths, labels, cids,
                                       training=True, rng=dropout_rng)
            value = loss.item()
            if not math.isfinite(value):
                raise DivergenceError(f"loss became {value} at step {step} (epoch {epoch})")
            backward(loss)
            optimizer.step(lr=schedule.lr_at(min(step, total_steps)))
            zero_grads(model.params.values())
            step += 1
            epoch_loss += value * len(batch)
        metrics.append(metric_record(epoch=epoch, split="train",
                                     loss=epoch_loss / len(train_sentences)))
        if dev_sentences and epoch % cfg.eval_every == 0:
            results = evaluate_model(model, vocab, dev_sentences)
            reports = [rep for rep, _ in results.values()]
            for name, (rep, acc) in results.items():
                metrics.append(metric_record(
                    epoch=epoch, split="dev", criterion=name,
                    precision=rep.precision, recall=rep.recall, f1=rep.f1,
                    oov_recall=rep.oov_recall, criterion_accuracy=acc))
            dev_f1 = mean_f1(reports)
            if dev_f1 > best_f1:
                best_f1 = dev_f1
                best_params = {name: p.data.copy() for name, p in model.params.items()}
    if best_params is None:
        best_params = {name: p.data.copy() for name, p in model.params.items()}
        best_f1 = 0.0
    return TrainResult(best_params=best_params, best_f1=best_f1, metrics=metrics)
