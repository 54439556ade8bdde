"""Command-line interface: build-vocab, train, segment, evaluate, synth.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 divergence.
"""

import codecs
import collections
import contextlib
import io
import json
import os
import select
import sys

import click

from . import checkpoint as ckpt
from . import corpus as cp
from . import metrics as mt
from . import synth as sy
from . import trainer as tr
from .errors import ConfigError, DataError, DivergenceError, MccwsError
from .model import BATCH_SENTENCES, Model, ModelConfig

EXIT_CODES = {ConfigError: 2, DataError: 3, DivergenceError: 4}


def parse_pairs(pairs, what: str) -> dict[str, str]:
    out = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        if not sep or not name or not value:
            raise ConfigError(f"--{what} expects NAME=VALUE, got {item!r}")
        if name in out:
            raise ConfigError(f"duplicate {what} name {name!r}")
        out[name] = value
    return out


def load_criterion_corpora(pairs, vocab: cp.Vocab, option: str, prepare,
                           max_len: int) -> dict[str, list[cp.Sentence]]:
    """The NAME=PATH pairs of --option, each read as its criterion's corpus
    and prepared by prepare(raws, vocab, max_len), a trainer.prepare_for_*
    function. A file with no sentences is refused; a refusal names the
    file and its criterion. A file with prepared sentences of more than
    max_len - 1 tokens, which predict decodes in windows, gets one note on
    stderr that counts them."""
    corpora = {}
    for name, path in parse_pairs(pairs, option).items():
        raws = cp.load_corpus(path, vocab.criterion_id(name))
        try:
            if not raws:
                raise DataError("no sentences")
            corpora[name] = prepare(raws, vocab, max_len)
        except DataError as exc:
            raise DataError(f"{path} (criterion {name!r}): {exc}") from exc
        windowed = sum(len(sent) > max_len - 1 for sent in corpora[name])
        if windowed:
            click.echo(f"note: {path} (criterion {name!r}): {windowed} line(s) have more than"
                       f" {max_len - 1} tokens; they are decoded in windows of at most that many",
                       err=True)
    return corpora


def line_blocks(binary, encoding: str, translate: bool):
    """The lines of a byte stream, without their newlines, in blocks of at
    most BATCH_SENTENCES lines. A block's first line may wait for input;
    later lines join it only if they are already read or readable at once,
    so a caller who sends one line and waits for its answer gets it.

    translate=True ends a line at "\r\n", "\r" or "\n", as open() reads a
    text file; otherwise only "\n" ends one, as sys.stdin reads, and a "\r"
    stays in the line. An undecodable byte reads as a lone surrogate.
    """
    decoder = io.IncrementalNewlineDecoder(
        codecs.getincrementaldecoder(encoding)(errors="surrogateescape"), translate=translate)
    fd = binary.fileno()
    lines, block, tail, eof = collections.deque(), [], "", False
    while True:
        if lines and len(block) < BATCH_SENTENCES:
            block.append(lines.popleft())
        elif block and (len(block) == BATCH_SENTENCES or eof
                        or not select.select([fd], [], [], 0)[0]):
            yield block
            block = []
        elif eof:
            return
        else:
            # read1 makes at most one read and keeps nothing back, so select
            # sees every byte that is not yet in lines or tail
            chunk = binary.read1(1 << 16)
            eof = not chunk
            *done, tail = (tail + decoder.decode(chunk, final=eof)).split("\n")
            lines.extend(done)
            if eof and tail:
                lines.append(tail)


@click.group()
def cli():
    """Multi-criteria Chinese word segmentation."""


@cli.command("build-vocab")
@click.option("--corpus", "corpora", multiple=True, required=True,
              metavar="NAME=PATH", help="Training corpus for one criterion; repeatable.")
@click.option("--out", required=True, type=click.Path(), help="Vocab file to write.")
def cmd_build_vocab(corpora, out):
    """Build unigram/bigram/criterion tables from training corpora."""
    paths = parse_pairs(corpora, "corpus")
    raw = {name: cp.load_corpus(path, 0) for name, path in sorted(paths.items())}
    vocab = cp.Vocab.build(raw)
    vocab.save(out)
    click.echo(f"unigrams: {len(vocab.unigrams)}")
    click.echo(f"bigrams: {len(vocab.bigrams)}")
    click.echo(f"criteria: {vocab.num_criteria} ({', '.join(vocab.criterion_names)})")


@cli.command("train")
@click.option("--corpus", "corpora", multiple=True, required=True, metavar="NAME=PATH",
              help="Training corpus for one criterion; repeatable.")
@click.option("--dev", "dev_corpora", multiple=True, metavar="NAME=PATH",
              help="Dev corpus for one criterion; repeatable.")
@click.option("--vocab", "vocab_path", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path(), help="Best-dev checkpoint to write.")
@click.option("--metrics-log", type=click.Path(), help="Append JSONL metrics records here.")
@click.option("--epochs", default=tr.TrainConfig.epochs, show_default=True)
@click.option("--batch-size", default=tr.TrainConfig.batch_size, show_default=True)
@click.option("--lr", default=tr.TrainConfig.lr, show_default=True)
@click.option("--warmup-ratio", default=tr.TrainConfig.warmup_ratio, show_default=True)
@click.option("--weight-decay", default=tr.TrainConfig.weight_decay, show_default=True)
@click.option("--eval-every", default=tr.TrainConfig.eval_every, show_default=True)
@click.option("--seed", default=tr.TrainConfig.seed, show_default=True)
@click.option("--d-h", default=ModelConfig.d_h, show_default=True, help="Hidden size.")
@click.option("--d-e", default=ModelConfig.d_e, show_default=True, help="Bigram embedding size.")
@click.option("--layers", default=ModelConfig.encoder_layers, show_default=True,
              help="Encoder layers.")
@click.option("--heads", default=ModelConfig.heads, show_default=True, help="Attention heads.")
@click.option("--d-ff", default=ModelConfig.d_ff, show_default=True,
              help="Feed-forward inner size.")
@click.option("--max-len", default=ModelConfig.max_len, show_default=True,
              help="Max sequence length (with criterion token).")
@click.option("--dropout", default=ModelConfig.dropout_p, show_default=True,
              help="Dropout probability.")
@click.option("--no-bigram", is_flag=True, default=not ModelConfig.use_bigram,
              help="Disable the bigram feature channel.")
def cmd_train(corpora, dev_corpora, vocab_path, out, metrics_log,
              epochs, batch_size, lr, warmup_ratio, weight_decay, eval_every, seed,
              d_h, d_e, layers, heads, d_ff, max_len, dropout, no_bigram):
    """Train the unified model on one or more criteria."""
    cfg = tr.TrainConfig(epochs=epochs, batch_size=batch_size, seed=seed,
                         eval_every=eval_every, lr=lr, warmup_ratio=warmup_ratio,
                         weight_decay=weight_decay)
    if dev_corpora and 1 <= epochs < eval_every:
        raise ConfigError(f"--eval-every {eval_every} is more than --epochs {epochs},"
                          " so the dev set would never be evaluated")
    vocab = cp.Vocab.load(vocab_path)
    config = ModelConfig(num_criteria=vocab.num_criteria, d_h=d_h, d_e=d_e,
                         encoder_layers=layers, heads=heads, d_ff=d_ff, max_len=max_len,
                         dropout_p=dropout, use_bigram=not no_bigram)
    model = Model.for_vocab(config, vocab, seed=seed)

    train_sents = [sent for sents in load_criterion_corpora(
        corpora, vocab, "corpus", tr.prepare_for_training, config.max_len).values() for sent in sents]
    dev_sents = [sent for sents in load_criterion_corpora(
        dev_corpora, vocab, "dev", tr.prepare_for_eval, config.max_len).values() for sent in sents]

    if epochs == 0:
        click.echo("warning: --epochs 0 writes a checkpoint of initialized parameters",
                   err=True)
    cp.check_writable(out)
    log_file = cp.open_output(metrics_log, "a", encoding="utf-8") if metrics_log else None
    with log_file or contextlib.nullcontext():
        result = tr.train(model, vocab, train_sents, dev_sents or None, cfg)
        for name, data in result.best_params.items():
            model.params[name].data = data
        ckpt.save_checkpoint(out, model, vocab.sha256(), extra={"epochs": epochs, "seed": seed})
        if log_file is not None:
            for rec in result.metrics:
                log_file.write(json.dumps(rec, ensure_ascii=False) + "\n")
    if result.metrics:
        last_train = [r for r in result.metrics if r["split"] == "train"][-1]
        click.echo(f"final train loss: {last_train['loss']:.4f}")
    if dev_sents and epochs:
        click.echo(f"best dev mean F1: {result.best_f1:.4f}")
    click.echo(f"checkpoint written: {out}")


@cli.command("segment")
@click.option("--checkpoint", "checkpoint_path", required=True, type=click.Path(exists=True))
@click.option("--vocab", "vocab_path", required=True, type=click.Path(exists=True))
@click.option("--criterion", required=True, help="Criterion name to segment under.")
@click.option("--input", "input_path", type=click.Path(exists=True),
              help="Input text file, one sentence per line (default: stdin).")
@click.option("--output", "output_path", type=click.Path(),
              help="Output file (default: stdout).")
def cmd_segment(checkpoint_path, vocab_path, criterion, input_path, output_path):
    """Segment raw text, one sentence per line, words joined by spaces."""
    vocab = cp.Vocab.load(vocab_path)
    model, _, _ = ckpt.load_checkpoint(checkpoint_path, vocab)
    vocab.criterion_id(criterion)  # an unknown criterion exits 2 even on empty input
    if output_path:
        cp.check_writable(output_path)
    with contextlib.ExitStack() as stack:
        try:
            src = stack.enter_context(open(input_path, "rb")) if input_path else sys.stdin.buffer
        except OSError as exc:
            raise DataError(f"cannot read input {input_path}: {exc}") from exc
        # --output replaces its file only when every line is written, so it
        # may name the --input file
        dst = (stack.enter_context(cp.atomic_open(output_path, "w", encoding="utf-8"))
               if output_path else sys.stdout)
        # an undecodable byte reads as a lone surrogate (one <unk> token) and
        # is written back as the same byte
        dst.reconfigure(errors="surrogateescape")
        limit = model.config.max_len - 1
        number = 0
        blocks = (line_blocks(src, "utf-8", translate=True) if input_path
                  else line_blocks(src, sys.stdin.encoding, translate=False))
        for block in blocks:
            tokens = [cp.text_tokens(text) for text in block]
            for line_tokens in tokens:
                number += 1
                if len(line_tokens) > limit:
                    click.echo(f"note: line {number} has more than {limit} tokens;"
                               " it is segmented in windows of at most that many", err=True)
            for words in model.segment_text(block, criterion, vocab, tokens=tokens):
                dst.write(" ".join(words) + "\n")
            dst.flush()


@cli.command("evaluate")
@click.option("--checkpoint", "checkpoint_path", required=True, type=click.Path(exists=True))
@click.option("--vocab", "vocab_path", required=True, type=click.Path(exists=True))
@click.option("--gold", "gold_corpora", multiple=True, required=True, metavar="NAME=PATH",
              help="Gold segmented file for one criterion; repeatable.")
@click.option("--report", "report_path", type=click.Path(),
              help="Also write JSONL records here.")
def cmd_evaluate(checkpoint_path, vocab_path, gold_corpora, report_path):
    """Score the model against gold files; prints per-criterion rows plus an
    arithmetic-mean row when several criteria are given."""
    vocab = cp.Vocab.load(vocab_path)
    model, _, _ = ckpt.load_checkpoint(checkpoint_path, vocab)
    corpora = load_criterion_corpora(gold_corpora, vocab, "gold", tr.prepare_for_eval,
                                     model.config.max_len)
    sentences = [sent for sents in corpora.values() for sent in sents]
    results = tr.evaluate_model(model, vocab, sentences)
    reports = [results[name][0] for name in corpora]
    click.echo(mt.report_table(reports), nl=False)
    if report_path:
        with cp.atomic_open(report_path, "w", encoding="utf-8") as fh:
            fh.write(mt.report_jsonl(reports))


@cli.command("synth")
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
@click.option("--criteria", "criteria_pairs", multiple=True, metavar="NAME=RULE",
              help="Criterion rules (default "
                   + " ".join(f"{name}={rule}" for name, rule in sy.SyntheticSpec().criteria.items())
                   + f"); rules: {', '.join(sy.RULES)}.")
@click.option("--train-sentences", default=sy.SyntheticSpec.n_train, show_default=True)
@click.option("--dev-sentences", default=sy.SyntheticSpec.n_dev, show_default=True)
@click.option("--test-sentences", default=sy.SyntheticSpec.n_test, show_default=True)
@click.option("--seed", default=0, show_default=True)
def cmd_synth(out_dir, criteria_pairs, train_sentences, dev_sentences, test_sentences, seed):
    """Generate a synthetic multi-criteria corpus."""
    criteria = parse_pairs(criteria_pairs, "criteria") if criteria_pairs else None
    kwargs = dict(n_train=train_sentences, n_dev=dev_sentences, n_test=test_sentences)
    if criteria:
        kwargs["criteria"] = criteria
    spec = sy.SyntheticSpec(**kwargs)
    corpora = sy.generate_synthetic(spec, seed=seed)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create directory {out_dir}: {exc.strerror or exc}") from exc
    for name, splits in corpora.items():
        for split, sents in splits.items():
            path = os.path.join(out_dir, f"{name}.{split}.txt")
            with cp.atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
                for sent in sents:
                    fh.write(" ".join(sent.words) + "\n")
            click.echo(f"wrote {path} ({len(sents)} sentences)")
    names = sorted(corpora)
    if len(names) >= 2:
        rate = sy.boundary_disagreement(corpora[names[0]]["train"], corpora[names[1]]["train"])
        click.echo(f"boundary disagreement ({names[0]} vs {names[1]}): {rate:.3f}")


def main():
    try:
        cli(standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_CODES[ConfigError])
    except click.Abort:
        sys.exit(EXIT_CODES[ConfigError])
    except MccwsError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_CODES[type(exc)])


if __name__ == "__main__":
    main()
