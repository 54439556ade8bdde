"""Word-level precision/recall/F1 and OOV recall.

A predicted word counts as correct iff the identical (start, end) span
exists in the gold segmentation of the same sentence. Counts are
micro-aggregated over all sentences of a dataset; F1 is computed as
2*tp/(pred+gold), the exact harmonic mean of precision and recall.
"""

import json
from dataclasses import dataclass


@dataclass
class EvalReport:
    """Scores for one (dataset, criterion) pair."""

    criterion: str
    true_positives: int
    pred_count: int
    gold_count: int
    oov_total: int = 0
    oov_correct: int = 0

    @property
    def precision(self) -> float:
        return self.true_positives / self.pred_count if self.pred_count else 0.0

    @property
    def recall(self) -> float:
        return self.true_positives / self.gold_count if self.gold_count else 0.0

    @property
    def f1(self) -> float:
        denom = self.pred_count + self.gold_count
        return 2.0 * self.true_positives / denom if denom else 0.0

    @property
    def oov_recall(self) -> float:
        return self.oov_correct / self.oov_total if self.oov_total else 0.0

    @property
    def oov_vacuous(self) -> bool:
        """True when the evaluation set contains no OOV gold words at all."""
        return self.oov_total == 0


def _check_lengths(gold, pred):
    if len(gold) != len(pred):
        raise ValueError(f"gold has {len(gold)} sentences but pred has {len(pred)}")


def f1_score(gold, pred, criterion: str = "") -> EvalReport:
    """Micro-averaged span F1 over parallel lists of span lists."""
    _check_lengths(gold, pred)
    tp = pred_count = gold_count = 0
    for g_spans, p_spans in zip(gold, pred):
        gold_count += len(g_spans)
        pred_count += len(p_spans)
        tp += len(set(g_spans) & set(p_spans))
    return EvalReport(criterion=criterion, true_positives=tp,
                      pred_count=pred_count, gold_count=gold_count)


def oov_counts(tokens, gold, pred, lexicon) -> tuple[int, int]:
    """Count gold words whose surface is outside the training lexicon, and
    how many of those the prediction segments exactly.

    tokens: per-sentence token-string lists, used to read span surfaces.
    """
    _check_lengths(gold, pred)
    if len(tokens) != len(gold):
        raise ValueError(f"{len(tokens)} token lists for {len(gold)} sentences")
    total = correct = 0
    for toks, g_spans, p_spans in zip(tokens, gold, pred):
        p_set = set(p_spans)
        for start, end in g_spans:
            surface = "".join(toks[start:end])
            if surface in lexicon:
                continue
            total += 1
            if (start, end) in p_set:
                correct += 1
    return total, correct


def evaluate_criterion(tokens, gold, pred, lexicon, criterion: str = "") -> EvalReport:
    """Full report for one dataset: span F1 plus OOV recall."""
    report = f1_score(gold, pred, criterion=criterion)
    report.oov_total, report.oov_correct = oov_counts(tokens, gold, pred, lexicon)
    return report


def mean_f1(reports) -> float:
    """Arithmetic mean of per-dataset F1 values (the Avg.-style column)."""
    reports = list(reports)
    return sum(r.f1 for r in reports) / len(reports) if reports else 0.0


REPORT_FIELDS = ("criterion", "precision", "recall", "f1", "oov_recall", "oov_total")


def report_record(report: EvalReport) -> dict:
    return {name: getattr(report, name) for name in REPORT_FIELDS}


def report_jsonl(reports) -> str:
    return "".join(json.dumps(report_record(r), ensure_ascii=False) + "\n" for r in reports)


def report_table(reports) -> str:
    """Aligned plain-text table, with an arithmetic-mean row when more than
    one criterion is reported."""
    reports = list(reports)
    rows = [REPORT_FIELDS]
    for r in reports:
        oov = f"{r.oov_recall:.4f}" if not r.oov_vacuous else "-"
        rows.append((r.criterion, f"{r.precision:.4f}", f"{r.recall:.4f}",
                     f"{r.f1:.4f}", oov, str(r.oov_total)))
    if len(reports) > 1:
        rows.append(("avg", "", "", f"{mean_f1(reports):.4f}", "", ""))
    widths = [max(len(row[i]) for row in rows) for i in range(len(REPORT_FIELDS))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"
