import builtins
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from mccws import cli
from mccws.checkpoint import MAGIC, load_checkpoint, read_checkpoint, save_checkpoint
from mccws.corpus import RawSentence, Vocab
from mccws.errors import DataError

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


def test_evaluate_overlong_line_is_data_error(trained, tmp_path):
    d = trained
    long_line = " ".join(["李娜"] * 40)
    (tmp_path / "long.txt").write_text(long_line + "\n", encoding="utf-8")
    proc = run_cli("evaluate", "--checkpoint", str(d / "model.ckpt"),
                   "--vocab", str(d / "vocab.txt"),
                   "--gold", f"ctb={tmp_path / 'long.txt'}", expect=3)
    assert "lines" in proc.stderr


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


def first_array_float32(blob: bytes) -> bytes:
    """Checkpoint bytes whose first array is stored as float32 and the rest
    as float64: a well-formed file that mixes parameter dtypes."""
    start = len(MAGIC) + 8
    body = start + int.from_bytes(blob[len(MAGIC):start], "little")
    first = json.loads(blob[start:body])["arrays"][0]
    assert first["dtype"] == "<f8"
    end = body + 8 * math.prod(first["shape"])
    as_f4 = np.frombuffer(blob[body:end], dtype="<f8").astype("<f4").tobytes()
    return (edit_header(blob[:body], lambda h: h["arrays"][0].update(dtype="<f4"))
            + as_f4 + blob[end:])


def retagged_float32(blob: bytes) -> bytes:
    """Checkpoint bytes whose float64 arrays are all tagged float32 in the
    header only: each array reads back as float32 garbage of half its bytes,
    and half the payload is left unread."""
    def edit(header):
        for item in header["arrays"]:
            item["dtype"] = "<f4"
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
    "bad_shape": lambda b: edit_header(b, lambda h: h["arrays"][0].update(shape=[-1])),
    "truncated": lambda b: b[:-8],
    "mixed_dtypes": first_array_float32,
    "trailing_bytes": lambda b: b + bytes(range(40)),
    "retagged_float32": retagged_float32,
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupt_checkpoint_is_data_error(trained, tmp_path, corruption):
    d = trained
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(CORRUPTIONS[corruption]((d / "model.ckpt").read_bytes()))
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


def test_legacy_checkpoint_loads(trained, tmp_path):
    # files written with label_count and AdamW state in their header
    d = trained
    vocab = Vocab.load(d / "vocab.txt")
    model, _, _ = load_checkpoint(d / "model.ckpt", vocab)
    blob = (d / "model.ckpt").read_bytes()
    opt = {"adamw.m.tok_emb": np.full((2, 3), 0.5), "adamw.step": np.array([7.0])}

    def legacy(label_count):
        def edit(header):
            header["config"]["label_count"] = label_count
            header["arrays"] += [{"name": k, "shape": list(v.shape), "dtype": "<f8"}
                                 for k, v in opt.items()]
            header["optimizer_arrays"] = list(opt)
        return edit_header(blob, edit) + b"".join(v.astype("<f8").tobytes() for v in opt.values())

    old = tmp_path / "legacy.ckpt"
    old.write_bytes(legacy(4))
    loaded, opt_arrays, _ = load_checkpoint(old, vocab)
    assert loaded.config == model.config
    for name, p in model.params.items():
        assert np.array_equal(loaded.params[name].data, p.data), name
    assert {k: v.tolist() for k, v in opt_arrays.items()} == {k: v.tolist() for k, v in opt.items()}
    (tmp_path / "in.txt").write_text("李娜进入半决赛\n", encoding="utf-8")
    outputs = [run_cli("segment", "--checkpoint", str(path), "--vocab", str(d / "vocab.txt"),
                       "--criterion", "pku", "--input", str(tmp_path / "in.txt")).stdout
               for path in (d / "model.ckpt", old)]
    assert outputs[0] == outputs[1] == "李 娜 进入 半 决赛\n"

    (tmp_path / "legacy5.ckpt").write_bytes(legacy(5))
    with pytest.raises(DataError, match="label_count"):
        load_checkpoint(tmp_path / "legacy5.ckpt", vocab)



def test_float32_checkpoint_round_trips_and_runs(trained, tmp_path):
    # a model whose parameters are float32 saves as <f4, loads back bit-equal
    # in float32, re-saves byte-identically, and segment and evaluate run on it
    d = trained
    vocab = Vocab.load(d / "vocab.txt")
    model, _, _ = load_checkpoint(d / "model.ckpt", vocab)
    for p in model.params.values():
        p.data = p.data.astype(np.float32)
    path, again = tmp_path / "f32.ckpt", tmp_path / "again.ckpt"
    save_checkpoint(path, model, vocab.sha256())
    header, _ = read_checkpoint(path)
    assert {item["dtype"] for item in header["arrays"]} == {"<f4"}
    loaded, _, _ = load_checkpoint(path, vocab)
    for name, p in model.params.items():
        assert loaded.params[name].data.dtype == np.float32
        assert np.array_equal(loaded.params[name].data, p.data), name
    save_checkpoint(again, loaded, vocab.sha256())
    assert again.read_bytes() == path.read_bytes()

    (tmp_path / "in.txt").write_text("李娜进入半决赛\n", encoding="utf-8")
    for criterion, expected in (("ctb", "李娜 进入 半决赛\n"), ("pku", "李 娜 进入 半 决赛\n")):
        proc = run_cli("segment", "--checkpoint", str(path), "--vocab", str(d / "vocab.txt"),
                       "--criterion", criterion, "--input", str(tmp_path / "in.txt"))
        assert proc.stdout == expected
    tables = [run_cli("evaluate", "--checkpoint", str(ckpt), "--vocab", str(d / "vocab.txt"),
                      "--gold", f"ctb={d / 'ctb.txt'}", "--gold", f"pku={d / 'pku.txt'}").stdout
              for ckpt in (d / "model.ckpt", path)]
    assert tables[0] == tables[1]


class FailMidway:
    """A write handle that stores half of its first write, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("target", ["checkpoint", "vocab", "report"])
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


def test_synth_out_dir_under_file_exits_data(tmp_path):
    (tmp_path / "afile").write_text("not a directory\n", encoding="utf-8")
    target = str(tmp_path / "afile" / "sub")
    proc = run_cli("synth", "--out-dir", target, "--train-sentences", "5",
                   "--dev-sentences", "1", "--test-sentences", "1", expect=3)
    assert target in proc.stderr and "Traceback" not in proc.stderr
    assert os.listdir(tmp_path) == ["afile"]


# -- settings ---------------------------------------------------------------------------

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
