import random

import pytest

from mccws.metrics import (
    EvalReport, evaluate_criterion, f1_score, mean_f1, oov_counts,
    report_jsonl, report_record, report_table,
)

from scoreutil import oracle_f1


def random_partition(rng, length):
    cuts = sorted(rng.sample(range(1, length), rng.randint(0, length - 1))) if length > 1 else []
    bounds = [0] + cuts + [length]
    return list(zip(bounds[:-1], bounds[1:]))


def test_identical_segmentation_is_perfect():
    gold = [[(0, 2), (2, 4)], [(0, 1)]]
    r = f1_score(gold, gold)
    assert r.precision == r.recall == r.f1 == 1.0


def test_hand_derived_case():
    # brute-force span intersection by hand: 2 of 4 predictions are gold
    gold = [[(0, 2), (2, 4), (4, 7)]]
    pred = [[(0, 2), (2, 3), (3, 4), (4, 7)]]
    r = f1_score(gold, pred)
    assert r.true_positives == 2 and r.pred_count == 4 and r.gold_count == 3
    assert r.precision == 0.5
    assert r.recall == 2 / 3
    assert r.f1 == 4 / 7


def test_empty_predictions_guarded():
    r = f1_score([[]], [[]])
    assert r.precision == r.recall == r.f1 == 0.0


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        f1_score([[(0, 1)]], [])


def test_matches_oracle_on_random_corpora():
    rng = random.Random(42)
    for _ in range(100):
        n = rng.randint(1, 20)
        lengths = [rng.randint(1, 12) for _ in range(n)]
        gold = [random_partition(rng, L) for L in lengths]
        pred = [random_partition(rng, L) for L in lengths]
        r = f1_score(gold, pred)
        op, orr, of1 = oracle_f1(gold, pred)
        assert (r.precision, r.recall, r.f1) == (op, orr, of1)


def test_swap_symmetry():
    rng = random.Random(7)
    lengths = [rng.randint(1, 10) for _ in range(15)]
    gold = [random_partition(rng, L) for L in lengths]
    pred = [random_partition(rng, L) for L in lengths]
    a = f1_score(gold, pred)
    b = f1_score(pred, gold)
    assert a.precision == b.recall and a.recall == b.precision
    assert a.f1 == b.f1


def test_adding_matching_sentence_never_lowers_f1():
    rng = random.Random(9)
    for _ in range(50):
        lengths = [rng.randint(1, 10) for _ in range(5)]
        gold = [random_partition(rng, L) for L in lengths]
        pred = [random_partition(rng, L) for L in lengths]
        before = f1_score(gold, pred).f1
        extra = random_partition(rng, rng.randint(1, 10))
        after = f1_score(gold + [extra], pred + [extra]).f1
        assert after >= before


def test_oov_recall_hit():
    tokens = [list("李娜进入")]
    gold = [[(0, 2), (2, 4)]]
    pred = [[(0, 2), (2, 4)]]
    total, correct = oov_counts(tokens, gold, pred, {"进入"})
    assert (total, correct) == (1, 1)
    r = evaluate_criterion(tokens, gold, pred, {"进入"})
    assert r.oov_recall == 1.0 and not r.oov_vacuous


def test_oov_recall_miss_on_split():
    tokens = [list("李娜进入")]
    gold = [[(0, 2), (2, 4)]]
    pred = [[(0, 1), (1, 2), (2, 4)]]
    total, correct = oov_counts(tokens, gold, pred, {"进入"})
    assert (total, correct) == (1, 0)


def test_oov_vacuous_flagged():
    tokens = [list("进入")]
    gold = [[(0, 2)]]
    r = evaluate_criterion(tokens, gold, gold, {"进入"})
    assert r.oov_total == 0 and r.oov_recall == 0.0 and r.oov_vacuous


def test_counted_oov_spans_really_absent_from_lexicon():
    rng = random.Random(11)
    alphabet = "甲乙丙丁戊己庚辛"
    for _ in range(20):
        lengths = [rng.randint(1, 8) for _ in range(6)]
        tokens = [[rng.choice(alphabet) for _ in range(L)] for L in lengths]
        gold = [random_partition(rng, L) for L in lengths]
        pred = [random_partition(rng, L) for L in lengths]
        lexicon = set()
        for toks, spans in zip(tokens, gold):
            for s, e in spans:
                if rng.random() < 0.5:
                    lexicon.add("".join(toks[s:e]))
        total, _ = oov_counts(tokens, gold, pred, lexicon)
        manual = sum(
            1
            for toks, spans in zip(tokens, gold)
            for s, e in spans
            if "".join(toks[s:e]) not in lexicon
        )
        assert total == manual


def test_report_outputs():
    r1 = EvalReport("pku", true_positives=8, pred_count=10, gold_count=10, oov_total=2, oov_correct=1)
    r2 = EvalReport("msr", true_positives=9, pred_count=10, gold_count=10)
    rec = report_record(r1)
    assert set(rec) == {"criterion", "precision", "recall", "f1", "oov_recall", "oov_total"}
    jsonl = report_jsonl([r1, r2])
    assert jsonl.count("\n") == 2
    table = report_table([r1, r2])
    assert "avg" in table
    expected_avg = (r1.f1 + r2.f1) / 2
    assert f"{expected_avg:.4f}" in table
    assert abs(mean_f1([r1, r2]) - expected_avg) < 1e-15
