import builtins
import json
import math
import os
import re
import select
import subprocess
import sys

import numpy as np
import pytest

from mccws import cli
from mccws import corpus as cp
from mccws.checkpoint import MAGIC, load_checkpoint, read_checkpoint, save_checkpoint
from mccws.corpus import RawSentence, Vocab
from mccws.errors import DataError
from mccws.metrics import f1_score
from mccws.model import Model, ModelConfig
from mccws.synth import SyntheticSpec
from mccws.trainer import TrainConfig, TrainResult

from gradutil import cast_params

CLI = [sys.executable, "-m", "mccws.cli"]


def run_cli(*args, expect=0):
    proc = subprocess.run([*CLI, *args], capture_output=True, text=True)
    assert proc.returncode == expect, f"exit {proc.returncode}\nstdout={proc.stdout}\nstderr={proc.stderr}"
    return proc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "ctb.txt").write_text("李娜 进入 半决赛\n", encoding="utf-8")
    (d / "pku.txt").write_text("李 娜 进入 半 决赛\n", encoding="utf-8")
    run_cli("build-vocab", "--corpus", f"ctb={d / 'ctb.txt'}",
            "--corpus", f"pku={d / 'pku.txt'}", "--out", str(d / "vocab.txt"))
    return d


@pytest.fixture(scope="module")
def trained(workdir):
    d = workdir
    run_cli("train",
            "--corpus", f"ctb={d / 'ctb.txt'}", "--corpus", f"pku={d / 'pku.txt'}",
            "--vocab", str(d / "vocab.txt"), "--out", str(d / "model.ckpt"),
            "--epochs", "200", "--batch-size", "2", "--lr", "2e-3",
            "--d-h", "32", "--d-e", "16", "--layers", "1", "--heads", "2",
            "--d-ff", "64", "--max-len", "32", "--seed", "0")
    return d


@pytest.fixture(scope="module")
def trained_float64(trained, tmp_path_factory):
    """The trained fixture's checkpoint with its parameters cast to float64,
    as checkpoints were written before models were built in float32."""
    vocab = Vocab.load(trained / "vocab.txt")
    model, _, _ = load_checkpoint(trained / "model.ckpt", vocab)
    path = tmp_path_factory.mktemp("float64") / "model.ckpt"
    save_checkpoint(path, cast_params(model), vocab.sha256())
    return path


# -- build-vocab ----------------------------------------------------------------

def test_build_vocab_output(workdir):
    proc = run_cli("build-vocab", "--corpus", f"ctb={workdir / 'ctb.txt'}",
                   "--corpus", f"pku={workdir / 'pku.txt'}",
                   "--out", str(workdir / "vocab2.txt"))
    assert "criteria: 2 (ctb, pku)" in proc.stdout
    vocab = Vocab.load(workdir / "vocab2.txt")
    assert "<ctb>" in vocab.unigrams and "<pku>" in vocab.unigrams
    # rerun on identical input: byte-identical file
    assert (workdir / "vocab2.txt").read_bytes() == (workdir / "vocab.txt").read_bytes()


def test_build_vocab_preprocesses(tmp_path):
    (tmp_path / "c.txt").write_text("ＡＢ12 李\n", encoding="utf-8")
    run_cli("build-vocab", "--corpus", f"x={tmp_path / 'c.txt'}",
            "--out", str(tmp_path / "v.txt"))
    vocab = Vocab.load(tmp_path / "v.txt")
    assert "<eng>" in vocab.unigrams and "<num>" in vocab.unigrams
    assert "Ａ" not in vocab.unigrams and "A" not in vocab.unigrams


def test_build_vocab_bad_pair(tmp_path):
    run_cli("build-vocab", "--corpus", "nonsense", "--out", str(tmp_path / "v.txt"),
            expect=2)


def test_build_vocab_refuses_a_reserved_criterion_name(workdir, tmp_path):
    # <eng> is the token of Latin runs; a criterion named eng used to take
    # its id and leave a file that train refuses
    proc = run_cli("build-vocab", "--corpus", f"eng={workdir / 'ctb.txt'}",
                   "--corpus", f"join={workdir / 'pku.txt'}", "--out", str(tmp_path / "v.txt"),
                   expect=2)
    assert proc.stderr == "error: criterion name 'eng' is taken by the reserved token <eng>\n"
    assert proc.stdout == "" and os.listdir(tmp_path) == []


# -- train -------------------------------------------------------------------------

def test_train_epochs_zero_warns(workdir, tmp_path):
    proc = run_cli("train", "--corpus", f"ctb={workdir / 'ctb.txt'}",
                   "--vocab", str(workdir / "vocab.txt"),
                   "--out", str(tmp_path / "init.ckpt"), "--epochs", "0")
    assert "epochs 0" in proc.stderr or "initialized" in proc.stderr
    assert (tmp_path / "init.ckpt").exists()


def test_train_unknown_criterion_exits_config(workdir, tmp_path):
    proc = run_cli("train", "--corpus", f"msr={workdir / 'ctb.txt'}",
                   "--vocab", str(workdir / "vocab.txt"),
                   "--out", str(tmp_path / "x.ckpt"), expect=2)
    assert "msr" in proc.stderr


def test_train_divergence_exit_code(workdir, tmp_path):
    run_cli("train", "--corpus", f"ctb={workdir / 'ctb.txt'}",
            "--corpus", f"pku={workdir / 'pku.txt'}",
            "--vocab", str(workdir / "vocab.txt"),
            "--out", str(tmp_path / "d.ckpt"),
            "--epochs", "4", "--batch-size", "1", "--lr", "1e160",
            "--d-h", "16", "--d-e", "8", "--layers", "1", "--heads", "2",
            "--d-ff", "32", "--max-len", "32", expect=4)


@pytest.mark.parametrize("flag,value", [("--epochs", "-1"), ("--batch-size", "0"),
                                        ("--eval-every", "0"), ("--max-len", "1"),
                                        ("--dev", "nonsense"),
                                        ("--warmup-ratio", "1.5"), ("--warmup-ratio", "nan"),
                                        ("--lr", "nan"), ("--lr", "-1"), ("--lr", "0"),
                                        ("--weight-decay", "nan"), ("--weight-decay", "-0.1")])
def test_train_config_out_of_range_exits_config(workdir, tmp_path, flag, value):
    proc = run_cli("train", "--corpus", f"ctb={workdir / 'ctb.txt'}",
                   "--vocab", str(workdir / "vocab.txt"),
                   "--out", str(tmp_path / "x.ckpt"), flag, value, expect=2)
    assert flag[2:].replace("-", "_") in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "x.ckpt").exists()


def test_train_seed_reproducible(workdir, tmp_path):
    args = ["train", "--corpus", f"ctb={workdir / 'ctb.txt'}",
            "--corpus", f"pku={workdir / 'pku.txt'}",
            "--dev", f"ctb={workdir / 'ctb.txt'}",
            "--vocab", str(workdir / "vocab.txt"),
            "--epochs", "3", "--batch-size", "2", "--lr", "1e-3",
            "--d-h", "16", "--d-e", "8", "--layers", "1", "--heads", "2",
            "--d-ff", "32", "--max-len", "32", "--seed", "7"]
    run_cli(*args, "--out", str(tmp_path / "a.ckpt"), "--metrics-log", str(tmp_path / "a.jsonl"))
    run_cli(*args, "--out", str(tmp_path / "b.ckpt"), "--metrics-log", str(tmp_path / "b.jsonl"))
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    records = [json.loads(line) for line in (tmp_path / "a.jsonl").read_text().splitlines()]
    assert {r["split"] for r in records} == {"train", "dev"}


def test_train_refuses_a_dev_set_it_would_never_evaluate(workdir, tmp_path):
    proc = run_cli("train", "--corpus", f"ctb={workdir / 'ctb.txt'}",
                   "--dev", f"ctb={workdir / 'ctb.txt'}", "--vocab", str(workdir / "vocab.txt"),
                   "--out", str(tmp_path / "x.ckpt"), "--metrics-log", str(tmp_path / "m.jsonl"),
                   "--epochs", "2", "--eval-every", "3", expect=2)
    assert "--eval-every 3" in proc.stderr and "--epochs 2" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("epochs,printed", [(1, True), (0, False)])
def test_train_prints_best_dev_f1_whenever_dev_was_evaluated(workdir, tmp_path, capsys,
                                                            monkeypatch, epochs, printed):
    # an evaluated dev set is reported even at F1 0
    def train(model, vocab, train_sents, dev_sents, cfg):
        return TrainResult({name: p.data for name, p in model.params.items()}, best_f1=0.0)

    monkeypatch.setattr(cli.tr, "train", train)
    cli.cli.main(["train", "--corpus", f"ctb={workdir / 'ctb.txt'}",
                  "--dev", f"ctb={workdir / 'ctb.txt'}", "--vocab", str(workdir / "vocab.txt"),
                  "--out", str(tmp_path / "x.ckpt"), "--epochs", str(epochs)],
                 standalone_mode=False)
    assert ("best dev mean F1: 0.0000" in capsys.readouterr().out) is printed


# -- segment -----------------------------------------------------------------------

def test_segment_table_rows(trained):
    d = trained
    (d / "input.txt").write_text("李娜进入半决赛\n", encoding="utf-8")
    proc = run_cli("segment", "--checkpoint", str(d / "model.ckpt"),
                   "--vocab", str(d / "vocab.txt"), "--criterion", "ctb",
                   "--input", str(d / "input.txt"))
    assert proc.stdout == "李娜 进入 半决赛\n"
    proc = run_cli("segment", "--checkpoint", str(d / "model.ckpt"),
                   "--vocab", str(d / "vocab.txt"), "--criterion", "pku",
                   "--input", str(d / "input.txt"))
    assert proc.stdout == "李 娜 进入 半 决赛\n"


def test_segment_overlong_line_is_windowed(trained, tmp_path):
    # max_len 32: a line of ~3 x 32 tokens is cut into windows of at most 31
    # tokens, at its last whitespace gap where one falls inside the window
    d = trained
    long_line = "李娜进入半决赛" * 6 + " " + " ".join(["李娜 进入半决赛"] * 7)
    assert 90 <= len(long_line.replace(" ", "")) <= 100
    (tmp_path / "in.txt").write_text(long_line + "\n李娜进入半决赛\n", encoding="utf-8")
    proc = run_cli("segment", "--checkpoint", str(d / "model.ckpt"),
                   "--vocab", str(d / "vocab.txt"), "--criterion", "ctb",
                   "--input", str(tmp_path / "in.txt"))
    first, second = proc.stdout.splitlines()
    assert second == "李娜 进入 半决赛"
    words = first.split(" ")
    assert "".join(words) == long_line.replace(" ", "")
    for chunk in long_line.split():  # no word crosses a whitespace gap
        got = ""
        while got != chunk:
            got += words.pop(0)
            assert chunk.startswith(got)
    assert words == []
    assert "line 1" in proc.stderr and "line 2" not in proc.stderr
    assert "Traceback" not in proc.stderr


def test_segment_unreadable_input_exits_data(trained, tmp_path):
    # a directory passes click's exists check, then fails to open
    d = trained
    proc = run_cli("segment", "--checkpoint", str(d / "model.ckpt"),
                   "--vocab", str(d / "vocab.txt"), "--criterion", "ctb",
                   "--input", str(tmp_path), expect=3)
    assert str(tmp_path) in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_segment_empty_input(trained, tmp_path):
    d = trained
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "out.txt"
    run_cli("segment", "--checkpoint", str(d / "model.ckpt"),
            "--vocab", str(d / "vocab.txt"), "--criterion", "ctb",
            "--input", str(empty), "--output", str(out))
    assert out.read_text() == ""


def test_segment_output_may_be_its_input(trained, tmp_path):
    # the output replaces its file only after the last line is segmented
    d = trained
    path = tmp_path / "text.txt"
    path.write_text("李娜进入半决赛\n半决赛\n", encoding="utf-8")
    args = ["segment", "--checkpoint", str(d / "model.ckpt"), "--vocab", str(d / "vocab.txt"),
            "--criterion", "ctb", "--input", str(path)]
    expected = run_cli(*args).stdout
    assert expected.startswith("李娜 进入 半决赛\n") and expected.count("\n") == 2
    run_cli(*args, "--output", str(path))
    assert path.read_text(encoding="utf-8") == expected
    assert os.listdir(tmp_path) == ["text.txt"]


def test_segment_unknown_criterion_lists_registered(trained):
    d = trained
    (d / "i2.txt").write_text("李娜\n", encoding="utf-8")
    proc = run_cli("segment", "--checkpoint", str(d / "model.ckpt"),
                   "--vocab", str(d / "vocab.txt"), "--criterion", "msr",
                   "--input", str(d / "i2.txt"), expect=2)
    assert "ctb" in proc.stderr and "pku" in proc.stderr


def test_segment_vocab_mismatch_refused(trained, tmp_path):
    d = trained
    (tmp_path / "other.txt").write_text("进入 了\n", encoding="utf-8")
    run_cli("build-vocab", "--corpus", f"ctb={tmp_path / 'other.txt'}",
            "--out", str(tmp_path / "otherv.txt"))
    (tmp_path / "i.txt").write_text("李娜\n", encoding="utf-8")
    proc = run_cli("segment", "--checkpoint", str(d / "model.ckpt"),
                   "--vocab", str(tmp_path / "otherv.txt"), "--criterion", "ctb",
                   "--input", str(tmp_path / "i.txt"), expect=2)
    assert "vocab" in proc.stderr


# A valid line, an undecodable byte inside a line and at its start, and a
# valid line after them.
UNDECODABLE = ("李娜进入半决赛\n李娜".encode() + b"\xff" + "进入\n".encode()
               + b"\x80" + "半决赛\n李娜\n".encode())


def segment_bytes(d, data: bytes, *args, io_errors: str) -> subprocess.CompletedProcess:
    """segment over raw bytes, with stdin and stdout set to utf-8:io_errors."""
    proc = subprocess.run(
        [*CLI, "segment", "--checkpoint", str(d / "model.ckpt"), "--vocab", str(d / "vocab.txt"),
         "--criterion", "ctb", *args],
        input=data, capture_output=True, env=dict(os.environ, PYTHONIOENCODING=f"utf-8:{io_errors}"))
    assert proc.returncode == 0 and b"Traceback" not in proc.stderr, proc.stderr.decode()
    return proc


def assert_partitions(out: bytes, data: bytes):
    # one output line per input line, whose words rejoin to it byte for byte
    assert out.count(b"\n") == data.count(b"\n")
    assert out.replace(b" ", b"") == data


def test_segment_input_file_passes_undecodable_bytes(trained, tmp_path):
    (tmp_path / "in.txt").write_bytes(UNDECODABLE)
    proc = segment_bytes(trained, b"", "--input", str(tmp_path / "in.txt"), io_errors="strict")
    assert_partitions(proc.stdout, UNDECODABLE)


def test_segment_strict_stdin_passes_undecodable_bytes(trained):
    proc = segment_bytes(trained, UNDECODABLE, io_errors="strict")
    assert_partitions(proc.stdout, UNDECODABLE)


def test_segment_output_file_passes_undecodable_bytes(trained, tmp_path):
    out = tmp_path / "out.txt"
    segment_bytes(trained, UNDECODABLE, "--output", str(out), io_errors="surrogateescape")
    assert_partitions(out.read_bytes(), UNDECODABLE)


def test_segment_newline_rules(trained, tmp_path):
    # on stdin only "\n" ends a line and "\r" stays in the text; a file is
    # read with universal newlines, so "\r\n", "\r" and "\n" each end one
    data = "李娜进入半决赛\r\n李娜\r进入半决赛\n半决赛".encode()
    (tmp_path / "in.txt").write_bytes(data)
    # "\r" is whitespace, so a line reads as it would with a space for it
    references = {"stdin": "李娜进入半决赛 \n 李娜 进入半决赛\n半决赛\n",
                  "file": "李娜进入半决赛\n 李娜\n进入半决赛\n半决赛\n"}
    for name, text in references.items():
        (tmp_path / f"{name}_lines.txt").write_text(text, encoding="utf-8")
    expected = {name: segment_bytes(trained, b"", "--input", str(tmp_path / f"{name}_lines.txt"),
                                    io_errors="strict").stdout
                for name in references}
    assert expected["stdin"].count(b"\n") == 3 and expected["file"].count(b"\n") == 4
    assert segment_bytes(trained, data, io_errors="strict").stdout == expected["stdin"]
    assert segment_bytes(trained, b"", "--input", str(tmp_path / "in.txt"),
                         io_errors="strict").stdout == expected["file"]


def mixed_lines(max_len: int) -> list[str]:
    """At least 150 lines: blank, whitespace-only, short, over max_len - 1
    tokens, and UNDECODABLE's lines, read with surrogateescape."""
    rng = np.random.default_rng(7)
    pieces = ["李娜", "进入", "半决赛", "李娜进入半决赛", " ", "\t", "2024", "ok"]
    lines = UNDECODABLE.decode("utf-8", "surrogateescape").splitlines()
    for i in range(150):
        kind = i % 10
        if kind == 0:
            lines.append("")
        elif kind == 1:
            lines.append(" \t ")
        elif kind == 2:  # over max_len - 1 tokens, with and without a gap
            lines.append("李娜进入半决赛" * (max_len // 7 + 1) + " 半决赛" * int(rng.integers(2)))
        else:
            lines.append("".join(rng.choice(pieces, size=int(rng.integers(1, 6)))))
    return lines


def test_segment_blocks_match_line_at_a_time(trained, tmp_path):
    # the lines waiting together are decoded together; each line's words
    # equal those of segmenting it alone, on stdin and from a file
    d = trained
    vocab = Vocab.load(d / "vocab.txt")
    model, _, _ = load_checkpoint(d / "model.ckpt", vocab)
    limit = model.config.max_len - 1
    lines = mixed_lines(model.config.max_len)
    expected = "".join(" ".join(model.segment_text([line], "ctb", vocab)[0]) + "\n"
                       for line in lines).encode("utf-8", "surrogateescape")
    overlong = [n for n, line in enumerate(lines, 1) if len(cp.text_tokens(line)) > limit]
    assert len(lines) >= 150 and len(overlong) >= 15
    data = "".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape")
    (tmp_path / "in.txt").write_bytes(data)
    for args, stdin in ((("--input", str(tmp_path / "in.txt")), b""), ((), data)):
        proc = segment_bytes(d, stdin, *args, io_errors="strict")
        assert proc.stdout == expected
        noted = [int(n) for n in re.findall(rb"note: line (\d+) ", proc.stderr)]
        assert noted == overlong


def test_segment_answers_each_line_before_the_next(trained):
    # a caller that sends one line and waits gets its answer at once, not
    # when more lines arrive or its input ends
    d = trained
    proc = subprocess.Popen(
        [*CLI, "segment", "--checkpoint", str(d / "model.ckpt"), "--vocab", str(d / "vocab.txt"),
         "--criterion", "ctb"], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, bufsize=0)
    try:
        for text in ("李娜进入半决赛", "李娜", "半决赛"):
            proc.stdin.write((text + "\n").encode())
            answer = b""
            while not answer.endswith(b"\n"):
                ready, _, _ = select.select([proc.stdout], [], [], 60)
                assert ready, f"no answer to {text!r}"
                chunk = proc.stdout.read(4096)
                assert chunk, proc.stderr.read().decode()
                answer += chunk
            assert answer.decode().replace(" ", "") == text + "\n"
        proc.stdin.close()
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


def test_segment_max_len_one_checkpoint_exits_data(trained, tmp_path):
    # such a checkpoint would window every line forever
    d = trained
    bad = tmp_path / "short.ckpt"
    bad.write_bytes(edit_header((d / "model.ckpt").read_bytes(),
                                lambda h: h["config"].update(max_len=1)))
    proc = subprocess.run(
        [*CLI, "segment", "--checkpoint", str(bad), "--vocab", str(d / "vocab.txt"),
         "--criterion", "ctb"], input="李娜\n", capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3 and "max_len" in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


# -- evaluate -----------------------------------------------------------------------

def test_evaluate_two_criteria_with_avg(trained, tmp_path):
    d = trained
    report = tmp_path / "report.jsonl"
    proc = run_cli("evaluate", "--checkpoint", str(d / "model.ckpt"),
                   "--vocab", str(d / "vocab.txt"),
                   "--gold", f"ctb={d / 'ctb.txt'}", "--gold", f"pku={d / 'pku.txt'}",
                   "--report", str(report))
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["criterion", "precision", "recall", "f1", "oov_recall", "oov_total"]
    assert any(line.startswith("avg") for line in lines)
    assert "1.0000" in proc.stdout
    records = [json.loads(line) for line in report.read_text().splitlines()]
    assert [r["criterion"] for r in records] == ["ctb", "pku"]
    for r in records:
        assert set(r) == {"criterion", "precision", "recall", "f1", "oov_recall", "oov_total"}
        assert r["f1"] == 1.0  # overfit on the training rows


def test_evaluate_rows_follow_gold_order(trained, tmp_path):
    # all gold files are scored in one pass; rows keep the --gold order
    d = trained
    report = tmp_path / "report.jsonl"
    proc = run_cli("evaluate", "--checkpoint", str(d / "model.ckpt"),
                   "--vocab", str(d / "vocab.txt"),
                   "--gold", f"pku={d / 'pku.txt'}", "--gold", f"ctb={d / 'ctb.txt'}",
                   "--report", str(report))
    assert [line.split()[0] for line in proc.stdout.splitlines()[1:]] == ["pku", "ctb", "avg"]
    records = [json.loads(line) for line in report.read_text().splitlines()]
    assert [r["criterion"] for r in records] == ["pku", "ctb"]


def test_evaluate_scores_overlong_lines_as_segment_cuts_them(trained, tmp_path):
    # a gold line of more than max_len - 1 tokens is decoded in the windows
    # that segment cuts its raw text into: for each criterion, evaluate's F1
    # is the F1 of segment's words on the same lines
    d = trained
    vocab = Vocab.load(d / "vocab.txt")
    model_args = ["--checkpoint", str(d / "model.ckpt"), "--vocab", str(d / "vocab.txt")]
    sentence = {"ctb": "李娜 进入 半决赛", "pku": "李 娜 进入 半 决赛"}
    gold_args = []
    for name, words in sentence.items():
        gold = "".join(" ".join([words] * n) + "\n" for n in (5, 6, 10, 1))  # 35, 42, 70, 7 tokens
        (tmp_path / f"{name}.gold").write_text(gold, encoding="utf-8")
        (tmp_path / f"{name}.raw").write_text(gold.replace(" ", ""), encoding="utf-8")
        gold_args += ["--gold", f"{name}={tmp_path / f'{name}.gold'}"]
    report = tmp_path / "report.jsonl"
    run_cli("evaluate", *model_args, *gold_args, "--report", str(report))
    f1 = {r["criterion"]: r["f1"] for r in map(json.loads, report.read_text().splitlines())}

    def spans(text):
        return [cp.prepare_sentence(RawSentence(line.split()), vocab).gold_spans
                for line in text.splitlines()]

    for name in sentence:
        proc = run_cli("segment", *model_args, "--criterion", name,
                       "--input", str(tmp_path / f"{name}.raw"))
        assert re.findall(r"note: line (\d+) ", proc.stderr) == ["1", "2", "3"]
        gold = (tmp_path / f"{name}.gold").read_text(encoding="utf-8")
        assert f1[name] == f1_score(spans(gold), spans(proc.stdout)).f1
        assert f1[name] < 1.0  # a cut after 31 tokens splits a word


@pytest.mark.parametrize("command", ["evaluate", "train"])
def test_overlong_gold_or_dev_line_is_decoded(trained, tmp_path, command):
    # the second of two files holds a line longer than max_len - 1 tokens;
    # evaluate scores it and train evaluates its dev set on it, in windows
    d = trained
    long = tmp_path / "long.txt"
    long.write_text("\n\n李 娜\n\n\n" + " ".join(["李娜"] * 40) + "\n", encoding="utf-8")
    option = "--gold" if command == "evaluate" else "--dev"
    files = [option, f"ctb={d / 'ctb.txt'}", option, f"pku={long}"]
    if command == "evaluate":
        proc = run_cli("evaluate", "--checkpoint", str(d / "model.ckpt"),
                       "--vocab", str(d / "vocab.txt"), *files)
        assert [line.split()[0] for line in proc.stdout.splitlines()[1:]] == ["ctb", "pku", "avg"]
    else:
        proc = run_cli("train", "--corpus", f"ctb={d / 'ctb.txt'}",
                       "--vocab", str(d / "vocab.txt"), "--out", str(tmp_path / "x.ckpt"),
                       "--epochs", "1", "--d-h", "16", "--d-e", "8", "--layers", "1",
                       "--heads", "2", "--d-ff", "32", "--max-len", "32", *files)
        assert "best dev mean F1: " in proc.stdout and (tmp_path / "x.ckpt").exists()
    # one note for the file with the long line, none for the other
    assert re.findall(r"^note: .*$", proc.stderr, re.M) == [
        f"note: {long} (criterion 'pku'): 1 line(s) have more than 31 tokens;"
        " they are decoded in windows of at most that many"]
    assert "note" not in proc.stdout and "Traceback" not in proc.stderr


@pytest.mark.parametrize("option", ["corpus", "dev", "gold"])
def test_empty_file_is_refused_naming_file_and_criterion(trained, tmp_path, option):
    # a blank --dev file used to drop its criterion from the dev mean F1,
    # which selects the checkpoint, and a blank --corpus file went unnoticed
    d = trained
    blank = tmp_path / "blank.txt"
    blank.write_text("\n  \n", encoding="utf-8")
    files = [f"--{option}", f"ctb={d / 'ctb.txt'}", f"--{option}", f"pku={blank}"]
    if option == "gold":
        proc = run_cli("evaluate", "--checkpoint", str(d / "model.ckpt"),
                       "--vocab", str(d / "vocab.txt"), *files, expect=3)
    else:
        corpus = ["--corpus", f"ctb={d / 'ctb.txt'}"] if option == "dev" else []
        proc = run_cli("train", *corpus, "--vocab", str(d / "vocab.txt"),
                       "--out", str(tmp_path / "x.ckpt"), *files, expect=3)
        assert not (tmp_path / "x.ckpt").exists()
    assert f"error: {blank} (criterion 'pku'): no sentences" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_train_word_longer_than_max_len_names_file_and_criterion(trained, tmp_path):
    # training splits long lines at word boundaries, but cannot split a word
    d = trained
    (tmp_path / "word.txt").write_text("李娜 " + "进" * 40 + "\n", encoding="utf-8")
    proc = run_cli("train", "--corpus", f"ctb={d / 'ctb.txt'}",
                   "--corpus", f"pku={tmp_path / 'word.txt'}", "--vocab", str(d / "vocab.txt"),
                   "--out", str(tmp_path / "x.ckpt"), "--max-len", "32", expect=3)
    assert f"error: {tmp_path / 'word.txt'} (criterion 'pku'): word " in proc.stderr
    assert "Traceback" not in proc.stderr and not (tmp_path / "x.ckpt").exists()


def test_train_refuses_a_word_that_fills_max_len(workdir, tmp_path):
    # --max-len 3 leaves 2 tokens beside the criterion token; ctb.txt holds
    # the 3-token word 半决赛, so the cut at gold word starts fails there
    d = workdir
    out = tmp_path / "x.ckpt"
    proc = run_cli("train", "--corpus", f"ctb={d / 'ctb.txt'}", "--vocab", str(d / "vocab.txt"),
                   "--out", str(out), "--max-len", "3", expect=3)
    assert proc.stderr == (f"error: {d / 'ctb.txt'} (criterion 'ctb'):"
                           " word '半决赛' alone exceeds the 2-token limit\n")
    assert proc.stdout == "" and not out.exists()


def test_evaluate_empty_gold_exits_data(trained, tmp_path):
    # a blank gold file used to print a 0.0000 row that dragged down the avg row
    d = trained
    (tmp_path / "blank.txt").write_text("\n  \n", encoding="utf-8")
    report = tmp_path / "report.jsonl"
    proc = run_cli("evaluate", "--checkpoint", str(d / "model.ckpt"),
                   "--vocab", str(d / "vocab.txt"),
                   "--gold", f"ctb={d / 'ctb.txt'}", "--gold", f"pku={tmp_path / 'blank.txt'}",
                   "--report", str(report), expect=3)
    assert "'pku'" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == "" and not report.exists()


# -- vocab files -----------------------------------------------------------------------

VOCAB_CORRUPTIONS = {
    "undecodable_byte": lambda text: text.replace("娜\t".encode(), b"\xff\t", 1),
    "unigram_without_tab": lambda text: text.replace("\n娜\t".encode(), "\n娜 ".encode(), 1),
    "unigram_id_99": lambda text: re.sub("\n娜\t[0-9]+\n".encode(), "\n娜\t99\n".encode(), text),
}


@pytest.mark.parametrize("command", ["train", "evaluate", "segment"])
@pytest.mark.parametrize("corruption", sorted(VOCAB_CORRUPTIONS))
def test_corrupt_vocab_exits_data(trained, tmp_path, command, corruption):
    d = trained
    bad = tmp_path / "vocab.txt"
    bad.write_bytes(VOCAB_CORRUPTIONS[corruption]((d / "vocab.txt").read_bytes()))
    assert bad.read_bytes() != (d / "vocab.txt").read_bytes()
    (tmp_path / "in.txt").write_text("李娜\n", encoding="utf-8")
    args = {"train": ["--corpus", f"ctb={d / 'ctb.txt'}", "--out", str(tmp_path / "x.ckpt")],
            "evaluate": ["--checkpoint", str(d / "model.ckpt"), "--gold", f"ctb={d / 'ctb.txt'}"],
            "segment": ["--checkpoint", str(d / "model.ckpt"), "--criterion", "ctb",
                        "--input", str(tmp_path / "in.txt")]}[command]
    proc = run_cli(command, "--vocab", str(bad), *args, expect=3)
    assert f"{bad}: line " in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == "" and not (tmp_path / "x.ckpt").exists()


# -- checkpoint files ----------------------------------------------------------------

def edit_header(blob: bytes, edit) -> bytes:
    """Rewrite the JSON header of checkpoint bytes through edit(header)."""
    start = len(MAGIC) + 8
    n = int.from_bytes(blob[len(MAGIC):start], "little")
    header = json.loads(blob[start:start + n])
    edit(header)
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    return MAGIC + len(new).to_bytes(8, "little") + new + blob[start + n:]


def set_byte(blob: bytes, offset: int, value: int) -> bytes:
    return blob[:offset] + bytes([value]) + blob[offset + 1:]


OTHER_DTYPE = {"<f4": "<f8", "<f8": "<f4"}


def first_array_retyped(blob: bytes) -> bytes:
    """Checkpoint bytes whose first array is stored in the other float dtype
    than the rest: a well-formed file that mixes parameter dtypes."""
    start = len(MAGIC) + 8
    body = start + int.from_bytes(blob[len(MAGIC):start], "little")
    first = json.loads(blob[start:body])["arrays"][0]
    tag = first["dtype"]
    end = body + np.dtype(tag).itemsize * math.prod(first["shape"])
    retyped = np.frombuffer(blob[body:end], dtype=tag).astype(OTHER_DTYPE[tag]).tobytes()
    return (edit_header(blob[:body], lambda h: h["arrays"][0].update(dtype=OTHER_DTYPE[tag]))
            + retyped + blob[end:])


def retagged(blob: bytes) -> bytes:
    """Checkpoint bytes whose arrays are all tagged with the other float
    dtype in the header only: each array reads back as garbage of half or
    twice its bytes, so the payload is half unread or runs short."""
    def edit(header):
        for item in header["arrays"]:
            item["dtype"] = OTHER_DTYPE[item["dtype"]]
    return edit_header(blob, edit)


HEADER = len(MAGIC) + 8
CORRUPTIONS = {
    "header_byte": lambda b: set_byte(b, HEADER, ord("!")),
    "header_utf8": lambda b: set_byte(b, HEADER + 1, 0xFF),
    "header_length": lambda b: b[:len(MAGIC)] + (10 ** 12).to_bytes(8, "little") + b[HEADER:],
    "unknown_config_key": lambda b: edit_header(b, lambda h: h["config"].update(bogus=1)),
    "missing_config_field": lambda b: edit_header(b, lambda h: h["config"].pop("num_criteria")),
    "float_config_int": lambda b: edit_header(b, lambda h: h["config"].update(heads=2.0)),
    "max_len_one": lambda b: edit_header(b, lambda h: h["config"].update(max_len=1)),
    "missing_arrays": lambda b: edit_header(b, lambda h: h.pop("arrays")),
    "missing_extra": lambda b: edit_header(b, lambda h: h.pop("extra")),
    "extra_not_object": lambda b: edit_header(b, lambda h: h.update(extra=[])),
    "bad_shape": lambda b: edit_header(b, lambda h: h["arrays"][0].update(shape=[-1])),
    "truncated": lambda b: b[:-8],
    "mixed_dtypes": first_array_retyped,
    "trailing_bytes": lambda b: b + bytes(range(40)),
    "retagged_dtype": retagged,
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupt_checkpoint_is_data_error(trained, trained_float64, tmp_path, corruption):
    # checkpoints of either dtype are refused the same way
    d = trained
    bad = tmp_path / "bad.ckpt"
    for source in (d / "model.ckpt", trained_float64):
        bad.write_bytes(CORRUPTIONS[corruption](source.read_bytes()))
        with pytest.raises(DataError):
            load_checkpoint(bad, Vocab.load(d / "vocab.txt"))


def test_segment_corrupt_checkpoint_exits_data(trained, tmp_path):
    d = trained
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(CORRUPTIONS["header_byte"]((d / "model.ckpt").read_bytes()))
    (tmp_path / "in.txt").write_text("李娜\n", encoding="utf-8")
    proc = run_cli("segment", "--checkpoint", str(bad), "--vocab", str(d / "vocab.txt"),
                   "--criterion", "ctb", "--input", str(tmp_path / "in.txt"), expect=3)
    assert "Traceback" not in proc.stderr


# AdamW state as the earliest checkpoint writers stored it, beside the
# parameters (float64, as every such file was)
LEGACY_OPTIMIZER = {"adamw.m.tok_emb": np.full((2, 3), 0.5), "adamw.step": np.array([7.0])}


def legacy_checkpoint(blob: bytes, label_count: bool, optimizer: bool) -> bytes:
    """Checkpoint bytes with config.label_count 4 and/or the AdamW arrays
    listed under optimizer_arrays, as early writers put them."""
    def edit(header):
        if label_count:
            header["config"]["label_count"] = 4
        if optimizer:
            header["arrays"] += [{"name": k, "shape": list(v.shape), "dtype": "<f8"}
                                 for k, v in LEGACY_OPTIMIZER.items()]
            header["optimizer_arrays"] = list(LEGACY_OPTIMIZER)
    arrays = b"".join(v.astype("<f8").tobytes() for v in LEGACY_OPTIMIZER.values())
    return edit_header(blob, edit) + (arrays if optimizer else b"")


@pytest.mark.parametrize("label_count,optimizer,message", [
    (True, False, "unknown model config keys ['label_count']"),
    (False, True, "extra=['adamw.m.tok_emb', 'adamw.step']"),
    (True, True, "unknown model config keys ['label_count']"),
], ids=["label_count", "optimizer_arrays", "both"])
def test_legacy_checkpoint_is_refused(trained, trained_float64, tmp_path, label_count, optimizer,
                                      message):
    d = trained
    old = tmp_path / "legacy.ckpt"
    old.write_bytes(legacy_checkpoint(trained_float64.read_bytes(), label_count, optimizer))
    (tmp_path / "in.txt").write_text("李娜\n", encoding="utf-8")
    for command, args in (("segment", ["--criterion", "ctb", "--input", str(tmp_path / "in.txt")]),
                          ("evaluate", ["--gold", f"ctb={d / 'ctb.txt'}"])):
        proc = run_cli(command, "--checkpoint", str(old), "--vocab", str(d / "vocab.txt"), *args,
                       expect=3)
        assert message in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == ""


def test_checkpoint_with_table_sizes_in_its_header_loads(trained, tmp_path):
    # files written before the header dropped n_unigrams and n_bigrams, which
    # the vocabulary and the embedding shapes carry, load and segment as before
    d = trained
    vocab = Vocab.load(d / "vocab.txt")
    model, _, _ = load_checkpoint(d / "model.ckpt", vocab)
    old = tmp_path / "old.ckpt"
    old.write_bytes(edit_header((d / "model.ckpt").read_bytes(), lambda h: h.update(
        n_unigrams=len(vocab.unigrams), n_bigrams=len(vocab.bigrams))))
    loaded, _, extra = load_checkpoint(old, vocab)
    assert loaded.config == model.config and extra == {"epochs": 200, "seed": 0}
    for name, p in model.params.items():
        assert np.array_equal(loaded.params[name].data, p.data), name
    (tmp_path / "in.txt").write_text("李娜进入半决赛\n", encoding="utf-8")
    outputs = [run_cli("segment", "--checkpoint", str(path), "--vocab", str(d / "vocab.txt"),
                       "--criterion", "pku", "--input", str(tmp_path / "in.txt"))
               for path in (d / "model.ckpt", old)]
    assert (outputs[0].stdout, outputs[0].stderr) == (outputs[1].stdout, outputs[1].stderr)
    assert outputs[0].stdout == "李 娜 进入 半 决赛\n"


def test_checkpoint_with_an_attention_key_bias_is_refused(trained, trained_float64, tmp_path):
    # files written while attention blocks still had a key bias carry *.attn.bk
    # (and are float64, as every such file was)
    d = trained

    def edit(header):  # the trained fixture's d_h is 32
        header["arrays"].append({"name": "enc0.attn.bk", "shape": [32], "dtype": "<f8"})
    old = tmp_path / "old.ckpt"
    old.write_bytes(edit_header(trained_float64.read_bytes(), edit)
                    + np.zeros(32, dtype="<f8").tobytes())
    (tmp_path / "in.txt").write_text("李娜\n", encoding="utf-8")
    for command, args in (("segment", ["--criterion", "ctb", "--input", str(tmp_path / "in.txt")]),
                          ("evaluate", ["--gold", f"ctb={d / 'ctb.txt'}"])):
        proc = run_cli(command, "--checkpoint", str(old), "--vocab", str(d / "vocab.txt"), *args,
                       expect=3)
        assert "extra=['enc0.attn.bk']" in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == ""



@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_checkpoint_round_trips_and_runs(trained, tmp_path, capsys, monkeypatch, dtype):
    # a model saves in its parameters' dtype, loads back bit-equal in that
    # dtype, re-saves byte-identically, and segment and evaluate run on it in
    # that dtype
    d = trained
    vocab = Vocab.load(d / "vocab.txt")
    model, _, _ = load_checkpoint(d / "model.ckpt", vocab)
    cast_params(model, dtype)
    path, again = tmp_path / "model.ckpt", tmp_path / "again.ckpt"
    save_checkpoint(path, model, vocab.sha256())
    header, _ = read_checkpoint(path)
    assert sorted(header) == ["arrays", "config", "extra", "format_version", "vocab_sha256"]
    assert {item["dtype"] for item in header["arrays"]} == {np.dtype(dtype).str}
    loaded, _, _ = load_checkpoint(path, vocab)
    for name, p in model.params.items():
        assert loaded.params[name].data.dtype == dtype
        assert np.array_equal(loaded.params[name].data, p.data), name
    save_checkpoint(again, loaded, vocab.sha256())
    assert again.read_bytes() == path.read_bytes()

    def run(*args):
        cli.cli.main([*args, "--checkpoint", str(path), "--vocab", str(d / "vocab.txt")],
                     standalone_mode=False)
        return capsys.readouterr().out

    logit_dtypes = set()
    forward = Model.forward_batch

    def recording(self, *args, **kwargs):
        out = forward(self, *args, **kwargs)
        logit_dtypes.add(out.label_logits.data.dtype)
        return out

    monkeypatch.setattr(Model, "forward_batch", recording)
    (tmp_path / "in.txt").write_text("李娜进入半决赛\n", encoding="utf-8")
    for criterion, expected in (("ctb", "李娜 进入 半决赛\n"), ("pku", "李 娜 进入 半 决赛\n")):
        assert run("segment", "--criterion", criterion, "--input", str(tmp_path / "in.txt")) == expected
    table = run("evaluate", "--gold", f"ctb={d / 'ctb.txt'}", "--gold", f"pku={d / 'pku.txt'}")
    assert logit_dtypes == {np.dtype(dtype)}
    assert table == run_cli("evaluate", "--checkpoint", str(d / "model.ckpt"),
                            "--vocab", str(d / "vocab.txt"), "--gold", f"ctb={d / 'ctb.txt'}",
                            "--gold", f"pku={d / 'pku.txt'}").stdout


def test_new_models_are_float32(trained):
    # models are built, trained and saved in float32; float64 checkpoints keep
    # their dtype (test_checkpoint_round_trips_and_runs[float64])
    vocab = Vocab.load(trained / "vocab.txt")
    model = Model.for_vocab(ModelConfig(num_criteria=vocab.num_criteria), vocab)
    assert {p.data.dtype for p in model.params.values()} == {np.dtype(np.float32)}
    header, _ = read_checkpoint(trained / "model.ckpt")
    assert {item["dtype"] for item in header["arrays"]} == {"<f4"}


class FailMidway:
    """A write handle that stores half of its first write, then fails; any
    other attribute is the wrapped file's."""

    def __init__(self, fh):
        self.fh = fh

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("target", ["checkpoint", "vocab", "report", "segment"])
def test_failed_write_keeps_previous_file(trained, tmp_path, monkeypatch, target):
    d = trained
    model, _, _ = load_checkpoint(d / "model.ckpt", Vocab.load(d / "vocab.txt"))
    path = tmp_path / target
    path.write_bytes(b"previous contents\n")
    writers = {
        "checkpoint": lambda: save_checkpoint(path, model, "0" * 64),
        "vocab": lambda: Vocab.build({"x": [RawSentence(["进入"], 0)]}).save(path),
        "report": lambda: cli.cli.main(
            ["evaluate", "--checkpoint", str(d / "model.ckpt"), "--vocab", str(d / "vocab.txt"),
             "--gold", f"ctb={d / 'ctb.txt'}", "--report", str(path)], standalone_mode=False),
        "segment": lambda: cli.cli.main(
            ["segment", "--checkpoint", str(d / "model.ckpt"), "--vocab", str(d / "vocab.txt"),
             "--criterion", "ctb", "--input", str(d / "ctb.txt"), "--output", str(path)],
            standalone_mode=False),
    }
    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return FailMidway(fh) if "w" in mode else fh

    monkeypatch.setattr(builtins, "open", failing_open)
    with pytest.raises(OSError, match="disk full"):
        writers[target]()
    monkeypatch.undo()
    assert path.read_bytes() == b"previous contents\n"
    assert os.listdir(tmp_path) == [target]


UNWRITABLE = {
    "build-vocab --out": lambda d, target: [
        "build-vocab", "--corpus", f"ctb={d / 'ctb.txt'}", "--out", target],
    "train --out": lambda d, target: [
        "train", "--corpus", f"ctb={d / 'ctb.txt'}", "--vocab", str(d / "vocab.txt"),
        "--epochs", "1", "--d-h", "16", "--d-e", "8", "--layers", "1", "--heads", "2",
        "--d-ff", "32", "--max-len", "32", "--out", target],
    "train --metrics-log": lambda d, target: [
        "train", "--corpus", f"ctb={d / 'ctb.txt'}", "--vocab", str(d / "vocab.txt"),
        "--epochs", "1", "--d-h", "16", "--d-e", "8", "--layers", "1", "--heads", "2",
        "--d-ff", "32", "--max-len", "32", "--out", str(d / "unwritable_ok.ckpt"),
        "--metrics-log", target],
    "evaluate --report": lambda d, target: [
        "evaluate", "--checkpoint", str(d / "model.ckpt"), "--vocab", str(d / "vocab.txt"),
        "--gold", f"ctb={d / 'ctb.txt'}", "--report", target],
    "segment --output": lambda d, target: [
        "segment", "--checkpoint", str(d / "model.ckpt"), "--vocab", str(d / "vocab.txt"),
        "--criterion", "ctb", "--input", str(d / "ctb.txt"), "--output", target],
}


@pytest.mark.parametrize("parts", [("missing_dir", "out.txt"), ("a_dir",)], ids=["missing", "dir"])
@pytest.mark.parametrize("flag", sorted(UNWRITABLE))
def test_unwritable_output_exits_data(trained, tmp_path, flag, parts):
    (tmp_path / "a_dir").mkdir()
    target = str(tmp_path.joinpath(*parts))
    proc = run_cli(*UNWRITABLE[flag](trained, target), expect=3)
    assert "Traceback" not in proc.stdout + proc.stderr
    assert target in proc.stderr and ".tmp" not in proc.stderr
    assert os.listdir(tmp_path) == ["a_dir"]


@pytest.mark.parametrize("parts", [("missing_dir", "out.txt"), ("a_dir",)], ids=["missing", "dir"])
@pytest.mark.parametrize("flag", ["--out", "--metrics-log"])
def test_train_checks_outputs_before_training(trained, tmp_path, monkeypatch, flag, parts):
    (tmp_path / "a_dir").mkdir()
    target = str(tmp_path.joinpath(*parts))
    outputs = {"--out": str(tmp_path / "model.ckpt"),
               "--metrics-log": str(tmp_path / "metrics.jsonl"), flag: target}

    def train(*args, **kwargs):
        raise AssertionError("trained before its outputs were checked")

    monkeypatch.setattr(cli.tr, "train", train)
    with pytest.raises(DataError, match=re.escape(target)) as info:
        cli.cli.main(["train", "--corpus", f"ctb={trained / 'ctb.txt'}",
                      "--vocab", str(trained / "vocab.txt"),
                      *(arg for pair in outputs.items() for arg in pair)],
                     standalone_mode=False)
    assert ".tmp" not in str(info.value)
    assert os.listdir(tmp_path) == ["a_dir"]  # neither a checkpoint nor a metrics log


# -- synth ---------------------------------------------------------------------------

def test_synth_writes_splits(tmp_path):
    proc = run_cli("synth", "--out-dir", str(tmp_path / "synth"),
                   "--train-sentences", "30", "--dev-sentences", "5",
                   "--test-sentences", "5", "--seed", "1")
    assert "boundary disagreement" in proc.stdout
    for name in ("join", "split"):
        for split, n in (("train", 30), ("dev", 5), ("test", 5)):
            path = tmp_path / "synth" / f"{name}.{split}.txt"
            assert path.exists()
            assert len(path.read_text(encoding="utf-8").splitlines()) == n
    assert len(os.listdir(tmp_path / "synth")) == 6  # no temporary file left behind
    # parallel text across criteria
    a = (tmp_path / "synth" / "join.train.txt").read_text(encoding="utf-8").splitlines()
    b = (tmp_path / "synth" / "split.train.txt").read_text(encoding="utf-8").splitlines()
    for la, lb in zip(a, b):
        assert la.replace(" ", "") == lb.replace(" ", "")


def test_synth_rejects_identical_rules(tmp_path):
    run_cli("synth", "--out-dir", str(tmp_path / "s2"),
            "--criteria", "a=run", "--criteria", "b=run", expect=2)


@pytest.mark.parametrize("option", ["--train-sentences", "--dev-sentences", "--test-sentences"])
def test_synth_negative_sentence_count_exits_config(tmp_path, option):
    proc = run_cli("synth", "--out-dir", str(tmp_path / "s3"), option, "-5", expect=2)
    assert "must be >= 0" in proc.stderr and "Traceback" not in proc.stderr
    assert os.listdir(tmp_path) == []


def test_synth_out_dir_under_file_exits_data(tmp_path):
    (tmp_path / "afile").write_text("not a directory\n", encoding="utf-8")
    target = str(tmp_path / "afile" / "sub")
    proc = run_cli("synth", "--out-dir", target, "--train-sentences", "5",
                   "--dev-sentences", "1", "--test-sentences", "1", expect=3)
    assert target in proc.stderr and "Traceback" not in proc.stderr
    assert os.listdir(tmp_path) == ["afile"]


# -- settings ---------------------------------------------------------------------------

def test_option_defaults_are_the_config_defaults(workdir, tmp_path, monkeypatch):
    # a setting has one default: train and synth given no optional option
    # build exactly the configs whose fields are all at their defaults
    built = {}

    class Built(Exception):
        pass

    def train(model, vocab, train_sents, dev_sents, cfg):
        built.update(model=model.config, train=cfg)
        raise Built

    def generate_synthetic(spec, seed):
        built.update(synth=spec)
        raise Built

    monkeypatch.setattr(cli.tr, "train", train)
    monkeypatch.setattr(cli.sy, "generate_synthetic", generate_synthetic)
    for args in (["train", "--corpus", f"ctb={workdir / 'ctb.txt'}",
                  "--vocab", str(workdir / "vocab.txt"), "--out", str(tmp_path / "x.ckpt")],
                 ["synth", "--out-dir", str(tmp_path / "synth")]):
        with pytest.raises(Built):
            cli.cli.main(args, standalone_mode=False)
    assert built["train"] == TrainConfig()
    assert built["model"] == ModelConfig(num_criteria=Vocab.load(workdir / "vocab.txt").num_criteria)
    assert built["model"].use_bigram  # --no-bigram is off by default
    assert built["synth"] == SyntheticSpec()
    criteria = " ".join(f"{name}={rule}" for name, rule in SyntheticSpec().criteria.items())
    [option] = [p for p in cli.cli.commands["synth"].params if p.name == "criteria_pairs"]
    assert f"(default {criteria})" in option.help


def test_command_options_are_pinned():
    # every option is a setting some caller varies; adding one means
    # editing this table on purpose
    options = {name: [opt for param in cmd.params for opt in param.opts]
               for name, cmd in cli.cli.commands.items()}
    assert options == {
        "build-vocab": ["--corpus", "--out"],
        "train": ["--corpus", "--dev", "--vocab", "--out", "--metrics-log", "--epochs",
                  "--batch-size", "--lr", "--warmup-ratio", "--weight-decay", "--eval-every",
                  "--seed", "--d-h", "--d-e", "--layers", "--heads", "--d-ff", "--max-len",
                  "--dropout", "--no-bigram"],
        "segment": ["--checkpoint", "--vocab", "--criterion", "--input", "--output"],
        "evaluate": ["--checkpoint", "--vocab", "--gold", "--report"],
        "synth": ["--out-dir", "--criteria", "--train-sentences", "--dev-sentences",
                  "--test-sentences", "--seed"],
    }
