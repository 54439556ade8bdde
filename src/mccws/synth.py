"""Synthetic multi-criteria corpora.

Sentences are built from two character classes: content words drawn from a
fixed lexicon (segmented identically under every criterion) and runs of
digit-class characters, which each criterion segments by its own rule:

  pairs    - group a run into two-character words (odd runs end in a single)
  singles  - every digit-class character is its own word
  run      - the whole run is one word

The same underlying character sequences appear under every criterion with
criterion-specific gold segmentations, so a unified model must read the
criterion token to resolve them.
"""

from dataclasses import dataclass, field

from .autodiff import make_rng
from .corpus import RawSentence
from .errors import ConfigError

RULES = ("pairs", "singles", "run")

# Distinct CJK pools. Content words are one starter char plus follower
# chars, so word boundaries stay decidable from character classes alone;
# runs never sit adjacent to each other for the same reason. What remains
# criterion-dependent is purely how a run is carved into words.
STARTER_CHARS = "天地玄黄宇宙洪荒日月盈昃辰宿列"
FOLLOWER_CHARS = "张寒来暑往秋收冬藏闰余成岁律吕"
DIGIT_CHARS = "一二三四五六七八九十"
# A sentence has MIN_SEGMENTS..MAX_SEGMENTS segments, each a digit run of
# MIN_RUN..MAX_RUN characters with probability DIGIT_RUN_PROB (never right
# after another run), else a content word. Dev and test swap in one of
# HELDOUT_WORD_TYPES words unseen in training with probability HELDOUT_PROB.
MIN_SEGMENTS, MAX_SEGMENTS = 3, 6
DIGIT_RUN_PROB = 0.65
MIN_RUN, MAX_RUN = 2, 4
CONTENT_WORD_TYPES = 60
HELDOUT_WORD_TYPES = 4
HELDOUT_PROB = 0.03


@dataclass
class SyntheticSpec:
    criteria: dict[str, str] = field(default_factory=lambda: {"join": "run", "split": "singles"})
    n_train: int = 2000
    n_dev: int = 200
    n_test: int = 200

    def __post_init__(self):
        if not self.criteria:
            raise ConfigError("need at least one criterion")
        for name, rule in self.criteria.items():
            if rule not in RULES:
                raise ConfigError(f"unknown rule {rule!r} for criterion {name!r}; known: {RULES}")
        if len(self.criteria) > 1 and len(set(self.criteria.values())) == 1:
            raise ConfigError("criteria are identical; segmentations would never disagree")
        for name in ("n_train", "n_dev", "n_test"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")


def segment_run(length: int, rule: str) -> list[int]:
    """Word lengths a rule assigns to a digit run."""
    if rule == "singles":
        return [1] * length
    if rule == "run":
        return [length]
    out = [2] * (length // 2)
    if length % 2:
        out.append(1)
    return out


def _make_lexicon(rng) -> list[str]:
    total = CONTENT_WORD_TYPES + HELDOUT_WORD_TYPES
    words: list[str] = []
    seen = set()
    while len(words) < total:
        n = int(rng.integers(0, 3))  # follower count; word length 1..3
        w = STARTER_CHARS[int(rng.integers(0, len(STARTER_CHARS)))]
        w += "".join(FOLLOWER_CHARS[int(i)] for i in rng.integers(0, len(FOLLOWER_CHARS), n))
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def generate_synthetic(spec: SyntheticSpec, seed: int) -> dict[str, dict[str, list[RawSentence]]]:
    """Build train/dev/test splits for every criterion from shared base
    sentences. Deterministic in (spec, seed)."""
    rng = make_rng(seed)
    lexicon = _make_lexicon(rng)
    train_types = lexicon[:CONTENT_WORD_TYPES]
    heldout_types = lexicon[CONTENT_WORD_TYPES:]

    names = sorted(spec.criteria)
    corpora: dict[str, dict[str, list[RawSentence]]] = {n: {} for n in names}
    for split, count in (("train", spec.n_train), ("dev", spec.n_dev), ("test", spec.n_test)):
        per_criterion: dict[str, list[RawSentence]] = {n: [] for n in names}
        for _ in range(count):
            segments = []  # (kind, chars)
            n_seg = int(rng.integers(MIN_SEGMENTS, MAX_SEGMENTS + 1))
            for _ in range(n_seg):
                last_was_run = bool(segments) and segments[-1][0] == "run"
                if not last_was_run and rng.random() < DIGIT_RUN_PROB:
                    run_len = int(rng.integers(MIN_RUN, MAX_RUN + 1))
                    chars = "".join(DIGIT_CHARS[int(i)]
                                    for i in rng.integers(0, len(DIGIT_CHARS), run_len))
                    segments.append(("run", chars))
                else:
                    if split != "train" and rng.random() < HELDOUT_PROB:
                        word = heldout_types[int(rng.integers(0, len(heldout_types)))]
                    else:
                        word = train_types[int(rng.integers(0, len(train_types)))]
                    segments.append(("word", word))
            for cid, name in enumerate(names):
                rule = spec.criteria[name]
                words = []
                for kind, chars in segments:
                    if kind == "word":
                        words.append(chars)
                    else:
                        pos = 0
                        for wlen in segment_run(len(chars), rule):
                            words.append(chars[pos:pos + wlen])
                            pos += wlen
                per_criterion[name].append(RawSentence(words=words, criterion_id=cid))
        for name in names:
            corpora[name][split] = per_criterion[name]
    return corpora


def boundaries(words: list[str]) -> set[int]:
    """Interior boundary positions of a segmentation, in character offsets."""
    cuts = set()
    pos = 0
    for w in words[:-1]:
        pos += len(w)
        cuts.add(pos)
    return cuts


def boundary_disagreement(corpus_a: list[RawSentence], corpus_b: list[RawSentence]) -> float:
    """Fraction of interior character positions where the two gold
    segmentations disagree about a word boundary, micro-averaged."""
    if len(corpus_a) != len(corpus_b):
        raise ValueError("corpora must be parallel")
    differing = positions = 0
    for a, b in zip(corpus_a, corpus_b):
        text_a, text_b = "".join(a.words), "".join(b.words)
        if text_a != text_b:
            raise ValueError("parallel sentences have different text")
        positions += max(len(text_a) - 1, 0)
        differing += len(boundaries(a.words) ^ boundaries(b.words))
    return differing / positions if positions else 0.0
