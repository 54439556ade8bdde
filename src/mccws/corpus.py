"""Corpus handling: text normalization, BMES label codec, vocabularies,
model inputs and atomic file writes.

Corpora are whitespace-segmented UTF-8 files, one sentence per line. A
sentence is preprocessed into a flat token sequence (one token per CJK
character, with Latin/digit runs collapsed to ``<eng>``/``<num>``) plus gold
word spans in token coordinates.
"""

import contextlib
import errno
import hashlib
import os
import re
from dataclasses import dataclass, field

from .errors import ConfigError, DataError

# Reserved unigram tokens. Criterion tokens (<pku>, ...) follow immediately
# after these, then corpus tokens.
PAD, UNK, BOS, ENG, NUM = "<pad>", "<unk>", "<bos>", "<eng>", "<num>"
RESERVED = (PAD, UNK, BOS, ENG, NUM)
PAD_ID, UNK_ID, BOS_ID, ENG_ID, NUM_ID = range(5)

# Reserved bigram ids.
BI_PAD_ID, BI_UNK_ID = 0, 1

# Label alphabet; ids are positions in this string.
LABELS = "BMES"
B, M, E, S = range(4)

_FULLWIDTH_LO, _FULLWIDTH_HI = 0xFF01, 0xFF5E
_WIDTH_TABLE = {cp: cp - 0xFEE0 for cp in range(_FULLWIDTH_LO, _FULLWIDTH_HI + 1)}
_WIDTH_TABLE[0x3000] = 0x20  # ideographic space

_RUN_RE = re.compile(r"([A-Za-z]+)|([0-9]+)|(.)", re.DOTALL)
# What normalize_width changes or can start a Latin/digit run; a word without
# any of these is one token per codepoint.
_RUN_OR_WIDE_RE = re.compile("[A-Za-z0-9\uFF01-\uFF5E\u3000]")

_CRITERION_NAME_RE = re.compile(r"^[a-z0-9_\-]+$")
# a table id in a vocab file: a decimal without leading zeros
_ID_RE = re.compile(r"0|[1-9][0-9]{0,8}")


def normalize_width(text: str) -> str:
    """Map full-width ASCII (U+FF01..U+FF5E) and U+3000 to half-width.

    Total and length-preserving: every other codepoint passes through.
    """
    return text.translate(_WIDTH_TABLE)


def replace_runs(text: str) -> list[str]:
    """Tokenize width-normalized text, one token per codepoint, except that
    each maximal run of Latin letters becomes <eng> and each maximal digit
    run becomes <num>."""
    return [tok for tok, _ in replace_runs_with_spans(text)]


def replace_runs_with_spans(text: str) -> list[tuple[str, tuple[int, int]]]:
    """Like replace_runs but each token carries its (start, end) codepoint
    span in the input, so predictions can be mapped back to original text."""
    out = []
    for m in _RUN_RE.finditer(text):
        if m.group(1) is not None:
            out.append((ENG, m.span()))
        elif m.group(2) is not None:
            out.append((NUM, m.span()))
        else:
            out.append((m.group(3), m.span()))
    return out


def word_tokens(word: str) -> list[str]:
    """Preprocess one gold word into its token sequence."""
    if _RUN_OR_WIDE_RE.search(word) is None:
        return list(word)
    return replace_runs(normalize_width(word))


def text_tokens(text: str) -> list[tuple[str, tuple[int, int]]]:
    """Raw input text as model tokens with their spans in text. Whitespace
    never occurs inside a training sentence, so it is dropped."""
    if _RUN_OR_WIDE_RE.search(text) is None:
        return [(c, (i, i + 1)) for i, c in enumerate(text) if not c.isspace()]
    return [(t, span) for t, span in replace_runs_with_spans(normalize_width(text))
            if not t.isspace()]


def encode_bmes(spans: list[tuple[int, int]], length: int) -> list[int]:
    """Encode a span partition of [0, length) as per-character BMES ids.

    Raises DataError if the spans do not exactly partition [0, length).
    """
    labels = []
    pos = 0
    for start, end in spans:
        if start != pos or end <= start:
            raise DataError(f"spans do not partition [0,{length}): bad span ({start},{end}) at {pos}")
        if end - start == 1:
            labels.append(S)
        else:
            labels.append(B)
            labels.extend([M] * (end - start - 2))
            labels.append(E)
        pos = end
    if pos != length:
        raise DataError(f"spans cover [0,{pos}) but length is {length}")
    return labels


def decode_bmes(labels: list[int]) -> list[tuple[int, int]]:
    """Decode a sequence of BMES label ids into word spans, repairing invalid
    label sequences deterministically.

    Left-to-right scan: B closes any open word and opens a new one; M/E
    extend the open word (E also closes it), or open one if none is open;
    S closes any open word as-is, then emits a singleton; the end of the
    sequence closes any open word. Total: every input yields a partition.
    """
    spans = []
    open_start = None
    for t, y in enumerate(labels):
        if y == B:
            if open_start is not None:
                spans.append((open_start, t))
            open_start = t
        elif y == M:
            if open_start is None:
                open_start = t
        elif y == E:
            if open_start is None:
                open_start = t
            spans.append((open_start, t + 1))
            open_start = None
        elif y == S:
            if open_start is not None:
                spans.append((open_start, t))
                open_start = None
            spans.append((t, t + 1))
        else:
            raise DataError(f"label id {y} outside BMES alphabet")
    if open_start is not None:
        spans.append((open_start, len(labels)))
    return spans


@dataclass
class RawSentence:
    """A gold-segmented sentence straight from a corpus file."""

    words: list[str]
    criterion_id: int = 0


@dataclass
class Sentence:
    """A preprocessed sentence ready for the model.

    gold_spans partition [0, len(tokens)) in token coordinates; they are
    None for text to be segmented.
    """

    tokens: list[str]
    chars: list[int]
    bigrams: list[int]
    criterion_id: int
    gold_spans: list[tuple[int, int]] | None = None

    def __len__(self) -> int:
        return len(self.tokens)


def _unwritable(path, exc: OSError) -> DataError:
    return DataError(f"cannot write {os.fspath(path)}: {exc.strerror or exc}")


def open_output(path, mode: str, **kwargs):
    """open() a file for writing; one that cannot be opened is a DataError
    naming path."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise _unwritable(path, exc) from exc


def _temp_beside(path: str) -> str:
    return f"{path}.{os.getpid()}.tmp"


def check_writable(path) -> None:
    """Raise the DataError that atomic_open(path) would raise, without
    touching path: its temporary file must be creatable and path must not be
    a directory."""
    path = os.fspath(path)
    if os.path.isdir(path):
        raise _unwritable(path, IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR)))
    tmp = _temp_beside(path)
    try:
        open(tmp, "wb").close()
    except OSError as exc:
        raise _unwritable(path, exc) from exc
    os.remove(tmp)


@contextlib.contextmanager
def atomic_open(path, mode: str, **kwargs):
    """Open a temporary file beside path for writing; it replaces path only
    when the block exits cleanly, so a failed write leaves the old file.
    A temporary file that cannot be created or moved onto path is a
    DataError naming path, not the temporary file."""
    path = os.fspath(path)
    tmp = _temp_beside(path)
    try:
        try:
            fh = open(tmp, mode, **kwargs)
        except OSError as exc:
            raise _unwritable(path, exc) from exc
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise _unwritable(path, exc) from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_corpus(path, criterion_id: int = 0) -> list[RawSentence]:
    """Read a whitespace-segmented corpus file; blank lines are skipped.

    Invalid UTF-8 is reported with its line number.
    """
    sentences = []
    try:
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DataError(f"{path}: line {lineno}: invalid UTF-8 ({exc})") from exc
                words = line.split()
                if not words:
                    continue
                sentences.append(RawSentence(words=words, criterion_id=criterion_id))
    except OSError as exc:
        raise DataError(f"cannot read corpus {path}: {exc}") from exc
    return sentences


def split_long(raw: RawSentence, max_tokens: int) -> list[RawSentence]:
    """Split an over-long sentence at word boundaries into chunks whose
    preprocessed token count fits max_tokens. A single word longer than the
    limit cannot be split and raises DataError."""
    lengths = [len(word_tokens(w)) for w in raw.words]
    if sum(lengths) <= max_tokens:
        return [raw]
    chunks = []
    cur: list[str] = []
    cur_len = 0
    for w, wlen in zip(raw.words, lengths):
        if wlen > max_tokens:
            raise DataError(f"word {w!r} alone exceeds the {max_tokens}-token limit")
        if cur and cur_len + wlen > max_tokens:
            chunks.append(RawSentence(words=cur, criterion_id=raw.criterion_id))
            cur, cur_len = [], 0
        cur.append(w)
        cur_len += wlen
    if cur:
        chunks.append(RawSentence(words=cur, criterion_id=raw.criterion_id))
    return chunks


@dataclass
class Vocab:
    """Token tables for unigrams, bigrams and criteria, plus the per-criterion
    training word lexicons used for OOV accounting.

    Ids are dense from 0 with reserved entries first; a frozen Vocab is
    immutable in spirit and safe to share.
    """

    unigrams: dict[str, int]
    bigrams: dict[str, int]
    criteria: dict[str, int]
    lexicons: dict[str, list[str]] = field(default_factory=dict)

    FORMAT = "mccws-vocab"
    VERSION = 1

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, train_corpora: dict[str, list[RawSentence]]) -> "Vocab":
        """Build all tables from training corpora, one entry per criterion.

        Criterion ids follow sorted name order; token ids follow first
        appearance, so identical inputs give identical vocabularies.
        """
        if not train_corpora:
            raise ConfigError("at least one training corpus is required")
        names = sorted(train_corpora)
        for name in names:
            if not _CRITERION_NAME_RE.match(name):
                raise ConfigError(f"criterion name {name!r} must match [a-z0-9_-]+")
        criteria = {name: i for i, name in enumerate(names)}
        unigrams = {tok: i for i, tok in enumerate(RESERVED)}
        for name in names:
            unigrams[f"<{name}>"] = len(unigrams)
        bigrams = {PAD: BI_PAD_ID, UNK: BI_UNK_ID}
        lexicons: dict[str, list[str]] = {name: [] for name in names}
        for name in names:
            seen_words = set()
            for raw in train_corpora[name]:
                tokens: list[str] = []
                for word in raw.words:
                    toks = word_tokens(word)
                    surface = "".join(toks)
                    if surface not in seen_words:
                        seen_words.add(surface)
                        lexicons[name].append(surface)
                    tokens.extend(toks)
                for tok in tokens:
                    if tok not in unigrams:
                        unigrams[tok] = len(unigrams)
                prev = BOS
                for tok in tokens:
                    pair = prev + tok
                    if pair not in bigrams:
                        bigrams[pair] = len(bigrams)
                    prev = tok
        return cls(unigrams=unigrams, bigrams=bigrams, criteria=criteria, lexicons=lexicons)

    # -- lookups -------------------------------------------------------------

    def uni_id(self, token: str) -> int:
        return self.unigrams.get(token, UNK_ID)

    def bigram_id(self, pair: str) -> int:
        return self.bigrams.get(pair, BI_UNK_ID)

    @property
    def num_criteria(self) -> int:
        return len(self.criteria)

    @property
    def criterion_names(self) -> list[str]:
        names = [None] * len(self.criteria)
        for name, cid in self.criteria.items():
            names[cid] = name
        return names

    def criterion_id(self, name: str) -> int:
        if name not in self.criteria:
            raise ConfigError(f"unknown criterion {name!r}; registered: {sorted(self.criteria)}")
        return self.criteria[name]

    def criterion_token_id(self, criterion_id: int) -> int:
        names = self.criterion_names
        if not 0 <= criterion_id < len(names):
            raise ConfigError(f"unknown criterion id {criterion_id}; registered: {names}")
        return self.unigrams[f"<{names[criterion_id]}>"]

    def lexicon(self, criterion_name: str) -> frozenset:
        if criterion_name not in self.lexicons:
            raise ConfigError(f"no lexicon for criterion {criterion_name!r}")
        return frozenset(self.lexicons[criterion_name])

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"{self.FORMAT}\t{self.VERSION}"]
        lines.append("reserved\t" + ",".join(f"{tok}={i}" for i, tok in enumerate(RESERVED)))
        lines.append("[criteria]")
        for name, cid in self.criteria.items():
            lines.append(f"{name}\t{cid}")
        lines.append("[unigrams]")
        for tok, i in self.unigrams.items():
            lines.append(f"{tok}\t{i}")
        lines.append("[bigrams]")
        for pair, i in self.bigrams.items():
            lines.append(f"{pair}\t{i}")
        for name in self.criteria:
            lines.append(f"[lexicon:{name}]")
            # A backslash escapes a word that starts with "[" (such as "[<eng>]",
            # which would read back as a section header) or with a backslash.
            lines.extend("\\" + w if w.startswith(("[", "\\")) else w
                         for w in self.lexicons.get(name, []))
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_text())

    @classmethod
    def from_text(cls, text: str) -> "Vocab":
        """Read what to_text writes. Anything else is a DataError that names
        its line: a table line that is not a new NAME<TAB>ID, a table whose
        ids are not dense from 0, a criterion without its <name> unigram or
        its lexicon, an unknown or repeated section."""
        lines = text.splitlines()
        if not lines or not lines[0].startswith(cls.FORMAT + "\t"):
            raise DataError("line 1: not a vocab file (bad header)")
        version = lines[0].split("\t", 1)[1]
        if version != str(cls.VERSION):
            raise DataError(f"line 1: unsupported vocab version {version}")
        tables = {"criteria": {}, "unigrams": {}, "bigrams": {}}  # name -> (id, line)
        lexicons: dict[str, list[str]] = {}
        lexicon_lines: dict[str, int] = {}
        section = None
        for lineno, line in enumerate(lines[1:], start=2):
            if section is None and line.startswith("reserved\t"):
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1]
                name = section.removeprefix("lexicon:")
                if (name == section and section not in tables) or name in lexicons:
                    raise DataError(f"line {lineno}: unexpected section [{section}]")
                if name != section:
                    lexicons[name], lexicon_lines[name] = [], lineno
            elif section in tables:
                name, sep, num = line.partition("\t")
                if not (name and sep and _ID_RE.fullmatch(num)) or name in tables[section]:
                    raise DataError(f"line {lineno}: not a new NAME<TAB>ID of [{section}]:"
                                    f" {line!r:.60}")
                tables[section][name] = (int(num), lineno)
            elif section is None:
                raise DataError(f"line {lineno}: vocab line outside any section: {line!r:.60}")
            else:
                lexicons[section.removeprefix("lexicon:")].append(
                    line[1:] if line.startswith("\\") else line)
        for section, table in tables.items():
            seen = set()  # ids unique and below the count are dense from 0
            for i, lineno in table.values():
                if i >= len(table) or i in seen:
                    raise DataError(f"line {lineno}: id {i} in [{section}], whose ids must be"
                                    f" unique and dense from 0")
                seen.add(i)
        for section, reserved in (("unigrams", RESERVED), ("bigrams", (PAD, UNK))):
            for i, tok in enumerate(reserved):
                got = tables[section].get(tok)
                if got is None or got[0] != i:
                    where = f"line {got[1]}: " if got else ""
                    raise DataError(f"{where}[{section}] needs the reserved token {tok} at id {i}")
        if not tables["criteria"]:
            raise DataError("[criteria] lists no criterion")
        for name, lineno in lexicon_lines.items():
            if name not in tables["criteria"]:
                raise DataError(f"line {lineno}: lexicon of unknown criterion {name!r}")
        for name, (_, lineno) in tables["criteria"].items():
            if f"<{name}>" not in tables["unigrams"] or name not in lexicons:
                raise DataError(f"line {lineno}: criterion {name!r} needs a <{name}> unigram"
                                f" and a [lexicon:{name}] section")
        criteria, unigrams, bigrams = ({name: i for name, (i, _) in tables[section].items()}
                                       for section in ("criteria", "unigrams", "bigrams"))
        return cls(unigrams=unigrams, bigrams=bigrams, criteria=criteria, lexicons=lexicons)

    @classmethod
    def load(cls, path) -> "Vocab":
        """Read a vocab file. Bytes that are not UTF-8, and whatever from_text
        refuses, are a DataError that names the path and the line."""
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            return cls.from_text(data.decode("utf-8"))
        except OSError as exc:
            raise DataError(f"cannot read vocab {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise DataError(f"{path}: line {line}: invalid UTF-8 ({exc.reason})") from exc
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from exc

    def sha256(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()


# -- model input assembly ----------------------------------------------------

def make_bigrams(tokens: list[str], vocab: Vocab) -> list[int]:
    """Bigram id per position: (previous token, this token), with <bos>
    standing in for the missing left neighbor at position 0. Unseen pairs
    map to the unknown-bigram id."""
    ids = []
    prev = BOS
    for tok in tokens:
        ids.append(vocab.bigram_id(prev + tok))
        prev = tok
    return ids


def index_sentence(tokens: list[str], vocab: Vocab, criterion_id: int,
                   gold_spans: list[tuple[int, int]] | None = None) -> Sentence:
    """A token sequence with its unigram and bigram ids."""
    return Sentence(tokens=tokens, chars=[vocab.uni_id(t) for t in tokens],
                    bigrams=make_bigrams(tokens, vocab), criterion_id=criterion_id,
                    gold_spans=gold_spans)


def prepare_sentence(raw: RawSentence, vocab: Vocab) -> Sentence:
    """Normalize, tokenize and index one gold sentence; word boundaries
    become gold spans in token coordinates."""
    tokens: list[str] = []
    spans: list[tuple[int, int]] = []
    for word in raw.words:
        toks = word_tokens(word)
        if not toks:
            raise DataError(f"word {word!r} vanished during preprocessing")
        spans.append((len(tokens), len(tokens) + len(toks)))
        tokens.extend(toks)
    return index_sentence(tokens, vocab, raw.criterion_id, spans)
