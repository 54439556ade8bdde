"""Command-line interface: build-vocab, train, segment, evaluate, synth.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 divergence.
"""

import contextlib
import json
import os
import sys

import click

from . import checkpoint as ckpt
from . import corpus as cp
from . import metrics as mt
from . import synth as sy
from . import trainer as tr
from .errors import ConfigError, DataError, DivergenceError
from .model import Model, ModelConfig

EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGENCE = 2, 3, 4


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


def load_criterion_corpora(pairs, vocab: cp.Vocab, option: str) -> dict[str, list[cp.RawSentence]]:
    """The NAME=PATH pairs of --option, each read as its criterion's corpus."""
    corpora = {}
    for name, path in parse_pairs(pairs, option).items():
        corpora[name] = cp.load_corpus(path, vocab.criterion_id(name))
    return corpora


model_options = [
    click.option("--d-h", default=64, show_default=True, help="Hidden size."),
    click.option("--d-e", default=32, show_default=True, help="Bigram embedding size."),
    click.option("--layers", default=2, show_default=True, help="Encoder layers."),
    click.option("--heads", default=4, show_default=True, help="Attention heads."),
    click.option("--d-ff", default=256, show_default=True, help="Feed-forward inner size."),
    click.option("--max-len", default=128, show_default=True, help="Max sequence length (with criterion token)."),
    click.option("--dropout", default=0.1, show_default=True, help="Dropout probability."),
    click.option("--no-bigram", is_flag=True, help="Disable the bigram feature channel."),
]


def add_options(options):
    def wrap(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return wrap


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
@click.option("--epochs", default=10, show_default=True)
@click.option("--batch-size", default=64, show_default=True)
@click.option("--lr", default=2e-5, show_default=True)
@click.option("--warmup-ratio", default=0.1, show_default=True)
@click.option("--weight-decay", default=0.01, show_default=True)
@click.option("--eval-every", default=1, show_default=True)
@click.option("--seed", default=0, show_default=True)
@add_options(model_options)
def cmd_train(corpora, dev_corpora, vocab_path, out, metrics_log,
              epochs, batch_size, lr, warmup_ratio, weight_decay, eval_every, seed,
              d_h, d_e, layers, heads, d_ff, max_len, dropout, no_bigram):
    """Train the unified model on one or more criteria."""
    vocab = cp.Vocab.load(vocab_path)
    config = ModelConfig(num_criteria=vocab.num_criteria, d_h=d_h, d_e=d_e,
                         encoder_layers=layers, heads=heads, d_ff=d_ff, max_len=max_len,
                         dropout_p=dropout, use_bigram=not no_bigram)
    model = Model.for_vocab(config, vocab, seed=seed)

    train_sents = []
    for name, raws in load_criterion_corpora(corpora, vocab, "corpus").items():
        train_sents.extend(tr.prepare_for_training(raws, vocab, config.max_len))
    dev_sents = []
    for name, raws in load_criterion_corpora(dev_corpora, vocab, "dev").items():
        dev_sents.extend(tr.prepare_for_eval(raws, vocab, config.max_len))

    cfg = tr.TrainConfig(epochs=epochs, batch_size=batch_size, seed=seed,
                         eval_every=eval_every, lr=lr, warmup_ratio=warmup_ratio,
                         weight_decay=weight_decay)
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
    if result.best_f1 > 0:
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
    with contextlib.ExitStack() as stack:
        try:
            src = stack.enter_context(open(input_path, encoding="utf-8")) if input_path else sys.stdin
        except OSError as exc:
            raise DataError(f"cannot read input {input_path}: {exc}") from exc
        dst = (stack.enter_context(cp.open_output(output_path, "w", encoding="utf-8"))
               if output_path else sys.stdout)
        # an undecodable byte reads as a lone surrogate (one <unk> token) and
        # is written back as the same byte
        src.reconfigure(errors="surrogateescape")
        dst.reconfigure(errors="surrogateescape")
        limit = model.config.max_len - 1
        for number, line in enumerate(src, 1):
            text = line.rstrip("\n")
            tokens = cp.text_tokens(text)
            if len(tokens) > limit:
                click.echo(f"note: line {number} has more than {limit} tokens;"
                           " it is segmented in windows of at most that many", err=True)
            words = model.segment_text(text, criterion, vocab, tokens=tokens)
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
    corpora = load_criterion_corpora(gold_corpora, vocab, "gold")
    for name, raws in corpora.items():
        if not raws:
            raise DataError(f"gold file for criterion {name!r} has no sentences")
    sentences = [sent for raws in corpora.values()
                 for sent in tr.prepare_for_eval(raws, vocab, model.config.max_len)]
    results = tr.evaluate_model(model, vocab, sentences)
    reports = [results[name][0] for name in corpora]
    click.echo(mt.report_table(reports), nl=False)
    if report_path:
        with cp.atomic_open(report_path, "w", encoding="utf-8") as fh:
            fh.write(mt.report_jsonl(reports))


@cli.command("synth")
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
@click.option("--criteria", "criteria_pairs", multiple=True, metavar="NAME=RULE",
              help=f"Criterion rules (default join=run split=singles); rules: {', '.join(sy.RULES)}.")
@click.option("--train-sentences", default=2000, show_default=True)
@click.option("--dev-sentences", default=200, show_default=True)
@click.option("--test-sentences", default=200, show_default=True)
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
        sys.exit(EXIT_CONFIG)
    except click.Abort:
        sys.exit(EXIT_CONFIG)
    except ConfigError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except DataError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_DATA)
    except DivergenceError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_DIVERGENCE)


if __name__ == "__main__":
    main()
