"""Batch construction, the training loop, and evaluation hooks."""

import math
from dataclasses import dataclass, field

import numpy as np

from . import corpus as cp
from .autodiff import backward, make_rng, no_grad, zero_grads
from .errors import DataError, DivergenceError
from .metrics import EvalReport, evaluate_criterion, mean_f1
from .model import Model, pack_batch
from .optim import AdamW, WarmupLinearSchedule


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 64
    seed: int = 0
    eval_every: int = 1
    lr: float = 1e-3
    warmup_ratio: float = 0.1
    weight_decay: float = 0.01

    def __post_init__(self):
        if self.epochs < 0:
            raise DataError("epochs must be >= 0")
        if self.batch_size < 1:
            raise DataError("batch_size must be >= 1")
        if self.eval_every < 1:
            raise DataError("eval_every must be >= 1")


@dataclass
class TrainResult:
    model: Model
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


def make_batches(sentences: list[cp.Sentence], batch_size: int, rng) -> list[list[cp.Sentence]]:
    """Shuffle with the given generator (or an int seed) and split into
    batches of at most batch_size, criteria mixed freely."""
    if isinstance(rng, (int, np.integer)):
        rng = make_rng(int(rng))
    order = rng.permutation(len(sentences))
    return [[sentences[i] for i in order[k:k + batch_size]]
            for k in range(0, len(order), batch_size)]


def prepare_for_training(raws: list[cp.RawSentence], vocab: cp.Vocab, max_len: int) -> list[cp.Sentence]:
    """Over-long sentences are split at word boundaries to fit the model."""
    out = []
    for raw in raws:
        for part in cp.split_long(raw, max_len - 1):
            out.append(cp.prepare_sentence(part, vocab))
    return out


def prepare_for_eval(raws: list[cp.RawSentence], vocab: cp.Vocab, max_len: int) -> list[cp.Sentence]:
    """Evaluation never truncates or splits: over-long lines are an error."""
    sentences = [cp.prepare_sentence(raw, vocab) for raw in raws]
    offenders = [i + 1 for i, s in enumerate(sentences) if len(s) > max_len - 1]
    if offenders:
        raise DataError(
            f"{len(offenders)} sentence(s) exceed {max_len - 1} tokens: lines {offenders}")
    return sentences


def evaluate_model(model: Model, vocab: cp.Vocab, sentences: list[cp.Sentence],
                   batch_size: int = 64) -> dict[str, tuple[EvalReport, float]]:
    """Segment every sentence in eval mode and score per criterion.

    Returns criterion name -> (EvalReport, criterion classifier accuracy).
    """
    names = vocab.criterion_names
    by_crit: dict[str, dict] = {
        name: {"tokens": [], "gold": [], "pred": [], "crit_hits": 0, "crit_total": 0}
        for name in names
    }
    for start in range(0, len(sentences), batch_size):
        chunk = sentences[start:start + batch_size]
        ids, bi, lengths, _, cids = pack_batch(chunk, vocab)
        with no_grad():
            out = model.forward_batch(ids, bi, lengths)
        label_ids = np.argmax(out.label_logits.data, axis=-1)
        crit_pred = np.argmax(out.criterion_logits.data, axis=-1)
        for j, sent in enumerate(chunk):
            name = names[sent.criterion_id]
            bucket = by_crit[name]
            bucket["tokens"].append(sent.tokens)
            bucket["gold"].append(sent.gold_spans)
            bucket["pred"].append(cp.decode_bmes(label_ids[j, : len(sent)].tolist()))
            bucket["crit_total"] += 1
            bucket["crit_hits"] += int(crit_pred[j] == sent.criterion_id)
    results = {}
    for name, bucket in by_crit.items():
        if not bucket["crit_total"]:
            continue
        report = evaluate_criterion(bucket["tokens"], bucket["gold"], bucket["pred"],
                                    vocab.lexicon(name), criterion=name)
        accuracy = bucket["crit_hits"] / bucket["crit_total"]
        results[name] = (report, accuracy)
    return results


def label_accuracy(model: Model, vocab: cp.Vocab, sentences: list[cp.Sentence]) -> float:
    """Per-position accuracy of greedy labels against gold BMES labels."""
    preds = model.predict_label_ids(sentences, vocab)
    hits = total = 0
    for sent, pred in zip(sentences, preds):
        gold = cp.encode_bmes(sent.gold_spans, len(sent))
        hits += int((pred == np.asarray(gold)).sum())
        total += len(gold)
    return hits / total if total else 0.0


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
        return TrainResult(model=model, best_params=snap, best_f1=0.0, metrics=metrics)

    n_batches = math.ceil(len(train_sentences) / cfg.batch_size)
    total_steps = cfg.epochs * n_batches
    schedule = WarmupLinearSchedule(cfg.lr, total_steps, cfg.warmup_ratio)
    optimizer = AdamW(model.params, lr=cfg.lr, weight_decay=cfg.weight_decay)
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
            results = evaluate_model(model, vocab, dev_sentences, batch_size=cfg.batch_size)
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
    return TrainResult(model=model, best_params=best_params, best_f1=best_f1,
                       metrics=metrics)
