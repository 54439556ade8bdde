"""Naive span-F1 oracle shared by the metrics and acceptance tests.

It counts true positives by comparing every predicted span with every gold
span, independently of the set intersection the scorer under test uses.
"""


def oracle_f1(gold, pred) -> tuple[float, float, float]:
    """(precision, recall, F1) over parallel lists of span lists."""
    if len(gold) != len(pred):
        raise ValueError(f"gold has {len(gold)} sentences but pred has {len(pred)}")
    tp = pred_count = gold_count = 0
    for g_spans, p_spans in zip(gold, pred):
        gold_count += len(g_spans)
        pred_count += len(p_spans)
        for p_span in p_spans:
            for g_span in g_spans:
                if p_span == g_span:
                    tp += 1
                    break
    p = tp / pred_count if pred_count else 0.0
    r = tp / gold_count if gold_count else 0.0
    f1 = 2.0 * tp / (pred_count + gold_count) if pred_count + gold_count else 0.0
    return p, r, f1
