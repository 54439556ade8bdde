import pytest

from mccws import synth
from mccws.corpus import RawSentence
from mccws.errors import ConfigError
from mccws.synth import (
    DIGIT_CHARS, MAX_RUN, MIN_RUN, SyntheticSpec, boundaries, boundary_disagreement,
    generate_synthetic, segment_run,
)


def test_segment_run_rules():
    # pair rule groups two-by-two, singleton rule isolates, run keeps whole
    assert segment_run(2, "pairs") == [2]
    assert segment_run(2, "singles") == [1, 1]
    assert segment_run(2, "run") == [2]
    assert segment_run(5, "pairs") == [2, 2, 1]
    assert segment_run(4, "singles") == [1, 1, 1, 1]
    assert segment_run(3, "run") == [3]


def test_pair_vs_singleton_example(monkeypatch):
    # a [content][DD][content] sentence splits per rule
    monkeypatch.setattr(synth, "MIN_SEGMENTS", 3)
    monkeypatch.setattr(synth, "MAX_SEGMENTS", 3)
    monkeypatch.setattr(synth, "DIGIT_RUN_PROB", 0.9)
    monkeypatch.setattr(synth, "MIN_RUN", 2)
    monkeypatch.setattr(synth, "MAX_RUN", 2)
    spec = SyntheticSpec(criteria={"a": "pairs", "b": "singles"}, n_train=40, n_dev=0, n_test=0)
    corpora = generate_synthetic(spec, seed=0)
    digit_set = set(DIGIT_CHARS)
    found = False
    for sa, sb in zip(corpora["a"]["train"], corpora["b"]["train"]):
        runs_a = [w for w in sa.words if set(w) <= digit_set]
        runs_b = [w for w in sb.words if set(w) <= digit_set]
        if runs_a:
            found = True
            assert all(len(w) == 2 for w in runs_a)
            assert all(len(w) == 1 for w in runs_b)
    assert found


def test_same_seed_identical():
    spec = SyntheticSpec(n_train=30, n_dev=5, n_test=5)
    a = generate_synthetic(spec, seed=9)
    b = generate_synthetic(spec, seed=9)
    assert a == b
    c = generate_synthetic(spec, seed=10)
    assert a != c


def test_disagreement_rate_in_band():
    spec = SyntheticSpec(n_train=1000, n_dev=0, n_test=0)
    corpora = generate_synthetic(spec, seed=1)
    names = sorted(corpora)
    rate = boundary_disagreement(corpora[names[0]]["train"], corpora[names[1]]["train"])
    assert 0.3 <= rate <= 0.9


def test_degenerate_spec_rejected():
    with pytest.raises(ConfigError, match="identical"):
        generate_synthetic(SyntheticSpec(criteria={"a": "run", "b": "run"}), seed=0)
    with pytest.raises(ConfigError):
        generate_synthetic(SyntheticSpec(criteria={"a": "nope", "b": "run"}), seed=0)


def test_negative_sentence_counts_rejected():
    for field in ("n_train", "n_dev", "n_test"):
        with pytest.raises(ConfigError, match=field):
            generate_synthetic(SyntheticSpec(**{field: -1}), seed=0)
    # an empty split stays valid
    corpora = generate_synthetic(SyntheticSpec(n_train=0, n_dev=0, n_test=0), seed=0)
    assert all(sents == [] for splits in corpora.values() for sents in splits.values())


def test_single_criterion_allowed():
    spec = SyntheticSpec(criteria={"only": "run"}, n_train=10, n_dev=2, n_test=2)
    corpora = generate_synthetic(spec, seed=0)
    assert set(corpora) == {"only"}
    assert len(corpora["only"]["train"]) == 10


def test_parallel_text_and_valid_partitions():
    spec = SyntheticSpec(n_train=50, n_dev=10, n_test=10)
    corpora = generate_synthetic(spec, seed=2)
    names = sorted(corpora)
    assert [s.criterion_id for s in corpora[names[0]]["train"][:1]] == [0]
    assert [s.criterion_id for s in corpora[names[1]]["train"][:1]] == [1]
    for split in ("train", "dev", "test"):
        for sa, sb in zip(corpora[names[0]][split], corpora[names[1]][split]):
            assert "".join(sa.words) == "".join(sb.words)
            assert all(w for w in sa.words) and all(w for w in sb.words)


def test_runs_never_adjacent():
    spec = SyntheticSpec(n_train=200, n_dev=0, n_test=0)
    corpora = generate_synthetic(spec, seed=4)
    digit_set = set(DIGIT_CHARS)
    name = sorted(corpora)[0]
    for sent in corpora[name]["train"]:
        text = "".join(sent.words)
        # under the "run" rule every maximal digit stretch is one gold word
        stretches = []
        cur = 0
        for ch in text:
            if ch in digit_set:
                cur += 1
            elif cur:
                stretches.append(cur)
                cur = 0
        if cur:
            stretches.append(cur)
        assert all(MIN_RUN <= s <= MAX_RUN for s in stretches)


def test_heldout_words_absent_from_train(monkeypatch):
    monkeypatch.setattr(synth, "HELDOUT_PROB", 0.2)
    spec = SyntheticSpec(n_train=300, n_dev=100, n_test=0)
    corpora = generate_synthetic(spec, seed=6)
    name = sorted(corpora)[0]
    digit_set = set(DIGIT_CHARS)
    train_words = {w for s in corpora[name]["train"] for w in s.words if not set(w) <= digit_set}
    dev_words = {w for s in corpora[name]["dev"] for w in s.words if not set(w) <= digit_set}
    assert dev_words - train_words, "dev should contain some unseen content words"


def test_boundaries_helper():
    assert boundaries(["ab", "c", "def"]) == {2, 3}
    assert boundaries(["abc"]) == set()
    assert boundary_disagreement([RawSentence(["ab", "c"])], [RawSentence(["a", "bc"])]) == 1.0
