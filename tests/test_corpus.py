import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mccws import corpus
from mccws.corpus import (
    BOS, ENG, LABELS, NUM, RawSentence, Vocab, decode_bmes, encode_bmes,
    load_corpus, make_bigrams, normalize_width, prepare_sentence,
    replace_runs, replace_runs_with_spans, split_long, word_tokens,
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


# full-width forms at and just past both ends of U+FF01..U+FF5E, the
# ideographic space, Latin letters, digits and CJK
_WIDTH_EDGES = "\uff00\uff01\uff10\uff21\uff41\uff5e\uff5f\u3000aZ09 李娜"


@settings(deadline=None)
@given(st.text(st.one_of(st.characters(), st.sampled_from(_WIDTH_EDGES))))
@example("李娜")
@example("ＡＢ１２李\u3000")
def test_word_tokens_equal_the_regex_path(word):
    # words with nothing to normalize or collapse skip the regex
    assert word_tokens(word) == replace_runs(normalize_width(word))


@settings(deadline=None)
@given(st.text(st.one_of(st.characters(), st.sampled_from(_WIDTH_EDGES + "\t\r\n\x0b\x0c\x85\xa0\u2028"))))
@example("李娜 进入\u3000")
@example(" \t李\r\n")
def test_text_tokens_equal_the_regex_path(text):
    # text with nothing to normalize or collapse skips the regex, whitespace included
    assert corpus.text_tokens(text) == [
        (t, span) for t, span in replace_runs_with_spans(normalize_width(text))
        if not t.isspace()]


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


def bmes_ids(letters: str) -> list[int]:
    return [LABELS.index(letter) for letter in letters]


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
    assert decode_bmes(bmes_ids("BEBEBME")) == [(0, 2), (2, 4), (4, 7)]


def test_decode_repair_mms():
    # repair rule applied by hand: M opens, M extends, S closes then singleton
    assert decode_bmes(bmes_ids("MMS")) == [(0, 2), (2, 3)]


def test_decode_repair_bbs():
    # second B closes the first word at length 1
    assert decode_bmes(bmes_ids("BBS")) == [(0, 1), (1, 2), (2, 3)]


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
    for bad in ([4], [0, -1], ["B"]):  # ids only, and only BMES ids
        with pytest.raises(DataError, match="outside BMES"):
            decode_bmes(bad)


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
    # the format is unchanged for words that need no escape: old hashes hold
    assert vocab.sha256() == "410bdb5b4f50312ab12a2b9ca42595f5d23a9975e9a9242da4ef161a41405a7b"
    # byte-identical re-save
    loaded.save(tmp_path / "vocab2.txt")
    assert (tmp_path / "vocab2.txt").read_bytes() == path.read_bytes()


_WORD = st.text(st.characters(codec="utf-8").filter(lambda c: c.isprintable() and not c.isspace()),
                min_size=1, max_size=4)


@settings(deadline=None)
@given(st.lists(st.lists(st.one_of(_WORD, _WORD.map(lambda w: f"[{w}]"),
                                   _WORD.map(lambda w: "\\" + w)),
                         min_size=1, max_size=6),
                min_size=1, max_size=5))
@example([["［ab］", "李"], ["\\x", "[", "\\"]])
def test_vocab_text_round_trip_any_words(sentences):
    v = Vocab.build({"a": [RawSentence(words, 0) for words in sentences],
                     "b": [RawSentence(words[::-1], 1) for words in sentences]})
    text = v.to_text()
    back = Vocab.from_text(text)
    assert back == v
    assert back.to_text() == text


# (text edit of the fixture's to_text, the refusal's message, the line it names)
VOCAB_DEFECTS = {
    "no_tab": (("\n李\t7\n", "\n李 7\n"), "not a new NAME<TAB>ID of [unigrams]", 14),
    "id_not_int": (("\n李\t7\n", "\n李\t7x\n"), "not a new NAME<TAB>ID of [unigrams]", 14),
    "repeated_name": (("\n娜\t8\n", "\n李\t8\n"), "not a new NAME<TAB>ID of [unigrams]", 15),
    "id_out_of_range": (("\n李\t7\n", "\n李\t99\n"), "id 99 in [unigrams]", 14),
    "repeated_id": (("\n娜\t8\n", "\n娜\t7\n"), "id 7 in [unigrams]", 15),
    "criterion_gap": (("\npku\t1\n", "\npku\t2\n"), "id 2 in [criteria]", 5),
    "criterion_without_token": (("\n<pku>\t6\n", "\n<pkx>\t6\n"),
                                "criterion 'pku' needs a <pku> unigram", 5),
    "criterion_without_lexicon": (("[lexicon:pku]", "[lexicon:pku"),
                                  "criterion 'pku' needs a <pku> unigram and a [lexicon:pku]", 5),
    "unknown_lexicon": (("[lexicon:pku]", "[lexicon:msr]"), "lexicon of unknown criterion 'msr'", 35),
    "repeated_lexicon": (("[lexicon:pku]", "[lexicon:ctb]"), "unexpected section [lexicon:ctb]", 35),
    "unknown_section": (("[bigrams]", "[bigramz]"), "unexpected section [bigramz]", 21),
    "reserved_bigram": (("\n<unk>\t1\n<bos>李", "\n<unq>\t1\n<bos>李"),
                        "[bigrams] needs the reserved token <unk> at id 1", None),
}


@pytest.mark.parametrize("defect", sorted(VOCAB_DEFECTS))
def test_vocab_load_refuses_defect_naming_path_and_line(tmp_path, vocab, defect):
    (old, new), message, line = VOCAB_DEFECTS[defect]
    text = vocab.to_text()
    assert old in text
    path = tmp_path / "vocab.txt"
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    with pytest.raises(DataError) as info:
        Vocab.load(path)
    assert str(info.value).startswith(f"{path}: " + (f"line {line}: " if line else ""))
    assert message in str(info.value)


def test_vocab_load_refuses_undecodable_bytes(tmp_path, vocab):
    path = tmp_path / "vocab.txt"
    path.write_bytes(vocab.to_text().encode("utf-8").replace("娜\t8".encode(), b"\xff\t8"))
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line 15: invalid UTF-8"):
        Vocab.load(path)


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
