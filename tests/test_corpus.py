import random

import pytest

from mccws import corpus
from mccws.corpus import (
    BOS, ENG, LABELS, NUM, RawSentence, Vocab, decode_bmes, encode_bmes,
    load_corpus, make_bigrams, normalize_width, prepare_sentence,
    replace_runs, replace_runs_with_spans, split_long,
)
from mccws.errors import ConfigError, DataError
from mccws.model import pack_batch


def random_partition(rng, length):
    """Independent oracle: random span partition of [0, length)."""
    cuts = sorted(rng.sample(range(1, length), rng.randint(0, length - 1))) if length > 1 else []
    bounds = [0] + cuts + [length]
    return list(zip(bounds[:-1], bounds[1:]))


# -- normalize_width ---------------------------------------------------------

def test_normalize_fullwidth_letters():
    assert normalize_width("ＡＢＣ") == "ABC"


def test_normalize_cjk_unchanged():
    assert normalize_width("李娜") == "李娜"


def test_normalize_mixed():
    # derived by applying the 0xFEE0 offset codepoint by codepoint
    assert normalize_width("１２３，ok") == "123,ok"


def test_normalize_ideographic_space():
    assert normalize_width("　") == " "


def test_normalize_idempotent_and_length_preserving():
    rng = random.Random(0)
    pool = "ＡＢＣａｚ０９！～，。李娜abc09 　\t<>—é"
    for _ in range(200):
        s = "".join(rng.choice(pool) for _ in range(rng.randint(0, 30)))
        once = normalize_width(s)
        assert normalize_width(once) == once
        assert len(once) == len(s)


# -- replace_runs ------------------------------------------------------------

def test_replace_runs_mixed():
    assert replace_runs("李娜2024年ok了") == ["李", "娜", NUM, "年", ENG, "了"]


def test_replace_runs_no_runs():
    assert replace_runs("进入") == ["进", "入"]


def test_replace_runs_two_runs():
    assert replace_runs("abc123") == [ENG, NUM]


def test_replace_runs_spans_cover_input():
    text = "x李1娜24ab年"
    toks = replace_runs_with_spans(text)
    pos = 0
    for _, (start, end) in toks:
        assert start == pos
        pos = end
    assert pos == len(text)
    assert [t for t, _ in toks] == [ENG, "李", NUM, "娜", NUM, ENG, "年"]


# -- BMES codec ---------------------------------------------------------------

def bmes_str(labels: list[int]) -> str:
    return "".join(LABELS[y] for y in labels)


def test_encode_ctb_row():
    labels = encode_bmes([(0, 2), (2, 4), (4, 7)], 7)
    assert bmes_str(labels) == "BEBEBME"


def test_encode_singleton():
    assert bmes_str(encode_bmes([(0, 1)], 1)) == "S"


def test_encode_pku_row():
    labels = encode_bmes([(0, 1), (1, 2), (2, 4), (4, 5), (5, 7)], 7)
    assert bmes_str(labels) == "SSBESBE"


def test_encode_rejects_non_partition():
    with pytest.raises(DataError):
        encode_bmes([(0, 2), (3, 4)], 4)
    with pytest.raises(DataError):
        encode_bmes([(0, 2)], 3)
    with pytest.raises(DataError):
        encode_bmes([(0, 2), (2, 2), (2, 3)], 3)


def test_decode_valid_sequence():
    assert decode_bmes("BEBEBME") == [(0, 2), (2, 4), (4, 7)]


def test_decode_repair_mms():
    # repair rule applied by hand: M opens, M extends, S closes then singleton
    assert decode_bmes("MMS") == [(0, 2), (2, 3)]


def test_decode_repair_bbs():
    # second B closes the first word at length 1
    assert decode_bmes("BBS") == [(0, 1), (1, 2), (2, 3)]


def test_bmes_round_trip_random():
    rng = random.Random(1234)
    for _ in range(1000):
        length = rng.randint(1, 40)
        spans = random_partition(rng, length)
        assert decode_bmes(encode_bmes(spans, length)) == spans


def test_decode_total_exhaustive_to_len8():
    # every one of the 4^T label sequences decodes to a valid partition
    for length in range(1, 9):
        for code in range(4 ** length):
            labels = [(code >> (2 * t)) & 3 for t in range(length)]
            spans = decode_bmes(labels)
            pos = 0
            for start, end in spans:
                assert start == pos and end > start
                pos = end
            assert pos == length
    assert decode_bmes([]) == []


# -- vocab, criterion token, bigrams ------------------------------------------

@pytest.fixture
def vocab():
    corpora = {
        "ctb": [RawSentence(["李娜", "进入", "半决赛"], 0)],
        "pku": [RawSentence(["李", "娜", "进入", "半", "决赛"], 1)],
    }
    return Vocab.build(corpora)


def test_vocab_reserved_and_criteria(vocab):
    assert vocab.unigrams["<pad>"] == 0
    assert vocab.unigrams["<unk>"] == 1
    assert vocab.unigrams["<bos>"] == 2
    assert vocab.unigrams["<eng>"] == 3
    assert vocab.unigrams["<num>"] == 4
    assert vocab.criteria == {"ctb": 0, "pku": 1}
    assert vocab.unigrams["<ctb>"] == 5
    assert vocab.unigrams["<pku>"] == 6
    assert vocab.num_criteria == 2


def test_augment_prepends_criterion_token(vocab):
    sent = prepare_sentence(RawSentence(["李娜"], 1), vocab)
    ids = pack_batch([sent], vocab)[0]
    assert ids[0].tolist() == [vocab.unigrams["<pku>"], vocab.unigrams["李"], vocab.unigrams["娜"]]


def test_augment_empty_sentence(vocab):
    sent = corpus.Sentence(tokens=[], chars=[], bigrams=[], criterion_id=0, gold_spans=[])
    assert pack_batch([sent], vocab)[0][0].tolist() == [vocab.unigrams["<ctb>"]]


def test_augment_length_property(vocab):
    rng = random.Random(7)
    chars = list("李娜进入半决赛")
    for _ in range(50):
        n = rng.randint(0, 7)
        words = ["".join(rng.choice(chars) for _ in range(rng.randint(1, 3))) for _ in range(n)] or ["李"]
        cid = rng.randint(0, 1)
        sent = prepare_sentence(RawSentence(words, cid), vocab)
        ids = pack_batch([sent], vocab)[0][0]
        assert len(ids) == len(sent) + 1
        assert ids[0] == vocab.criterion_token_id(cid)


def test_augment_unknown_criterion(vocab):
    sent = prepare_sentence(RawSentence(["李娜"], 5), vocab)
    with pytest.raises(ConfigError):
        pack_batch([sent], vocab)


def test_make_bigrams(vocab):
    ids = make_bigrams(["李", "娜"], vocab)
    assert ids == [vocab.bigrams[BOS + "李"], vocab.bigrams["李娜"]]
    assert make_bigrams([], vocab) == []
    # "进" never opens a training sentence, so its <bos> pair is unseen
    ids3 = make_bigrams(["进", "入", "半"], vocab)
    assert ids3 == [corpus.BI_UNK_ID, vocab.bigrams["进入"], vocab.bigrams["入半"]]


def test_make_bigrams_unseen_pair(vocab):
    assert make_bigrams(["半", "李"], vocab)[1] == corpus.BI_UNK_ID


def test_unknown_unigram_maps_to_unk(vocab):
    sent = prepare_sentence(RawSentence(["开心"], 0), vocab)
    assert sent.chars == [corpus.UNK_ID, corpus.UNK_ID]


def test_vocab_save_load_round_trip(tmp_path, vocab):
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocab.load(path)
    assert loaded.unigrams == vocab.unigrams
    assert loaded.bigrams == vocab.bigrams
    assert loaded.criteria == vocab.criteria
    assert loaded.lexicons == vocab.lexicons
    assert loaded.sha256() == vocab.sha256()
    # byte-identical re-save
    loaded.save(tmp_path / "vocab2.txt")
    assert (tmp_path / "vocab2.txt").read_bytes() == path.read_bytes()


def test_vocab_lexicon(vocab):
    assert vocab.lexicon("ctb") == frozenset({"李娜", "进入", "半决赛"})
    assert vocab.lexicon("pku") == frozenset({"李", "娜", "进入", "半", "决赛"})


def test_vocab_preprocesses_before_counting():
    v = Vocab.build({"x": [RawSentence(["ＡＢ12", "李"], 0)]})
    assert ENG in v.unigrams and NUM in v.unigrams
    assert "Ａ" not in v.unigrams and "A" not in v.unigrams
    assert v.lexicon("x") == frozenset({"<eng><num>", "李"})


def test_vocab_rejects_bad_criterion_name():
    with pytest.raises(ConfigError):
        Vocab.build({"PKU!": [RawSentence(["李"], 0)]})


# -- corpus files --------------------------------------------------------------

def test_load_corpus(tmp_path):
    p = tmp_path / "train.txt"
    p.write_text("李娜 进入 半决赛\n   \n半 决赛\n", encoding="utf-8")
    sents = load_corpus(p, criterion_id=3)
    assert [s.words for s in sents] == [["李娜", "进入", "半决赛"], ["半", "决赛"]]
    assert all(s.criterion_id == 3 for s in sents)


def test_load_corpus_invalid_utf8(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes("李娜 进入\n".encode("utf-8") + b"\xff\xfe junk\n")
    with pytest.raises(DataError, match="line 2"):
        load_corpus(p)


def test_load_corpus_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_corpus(tmp_path / "nope.txt")


def test_prepare_sentence_spans(vocab):
    sent = prepare_sentence(RawSentence(["李娜", "进入", "半决赛"], 0), vocab)
    assert sent.gold_spans == [(0, 2), (2, 4), (4, 7)]
    assert sent.tokens == list("李娜进入半决赛")
    assert len(sent.bigrams) == 7


def test_prepare_sentence_with_runs(vocab):
    sent = prepare_sentence(RawSentence(["李娜", "2024年", "ok"], 0), vocab)
    assert sent.tokens == ["李", "娜", NUM, "年", ENG]
    assert sent.gold_spans == [(0, 2), (2, 4), (4, 5)]


def test_split_long():
    raw = RawSentence(["李娜", "进入", "半决赛", "了"], 2)
    parts = split_long(raw, 4)
    assert [p.words for p in parts] == [["李娜", "进入"], ["半决赛", "了"]]
    assert all(p.criterion_id == 2 for p in parts)
    assert split_long(raw, 100) == [raw]
    with pytest.raises(DataError):
        split_long(RawSentence(["半决赛"], 0), 2)
