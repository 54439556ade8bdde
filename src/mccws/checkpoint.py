"""Versioned binary checkpoints.

Layout: magic line, 8-byte little-endian header length, a JSON header
(model config, vocab hash, per-array name/shape/dtype manifest), then the
raw little-endian array bytes in manifest order. Each array is stored and
read back in its own dtype, float64 or float32; a model's parameters share
one. Writing the same state twice produces byte-identical files, which the
determinism guarantees depend on.
"""

import json
import math
import os

import numpy as np

from .autodiff import Tensor
from .corpus import atomic_open
from .errors import ConfigError, DataError
from .model import Model, ModelConfig, param_shapes

MAGIC = b"MCCWS-CKPT\n"
VERSION = 1

_DTYPE_TAGS = {np.dtype(np.float64): "<f8", np.dtype(np.float32): "<f4"}


def save_checkpoint(path, model: Model, vocab_sha256: str, extra: dict | None = None) -> None:
    manifest = []
    buffers = []
    for name, p in model.params.items():
        tag = _DTYPE_TAGS[p.data.dtype]
        manifest.append({"name": name, "shape": list(p.data.shape), "dtype": tag})
        buffers.append(np.ascontiguousarray(p.data, dtype=tag).tobytes())
    header = {
        "format_version": VERSION,
        "config": model.config.to_dict(),
        "n_unigrams": model.n_unigrams,
        "n_bigrams": model.n_bigrams,
        "vocab_sha256": vocab_sha256,
        "arrays": manifest,
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for buf in buffers:
            fh.write(buf)


def _check_header(path, header) -> None:
    """Refuse a header that is not the shape save_checkpoint writes."""
    def bad(what):
        raise DataError(f"{path}: corrupt checkpoint header ({what})")

    if not isinstance(header, dict):
        bad("not an object")
    if header.get("format_version") != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version")
    for key, kind in (("config", dict), ("vocab_sha256", str), ("arrays", list)):
        if not isinstance(header.get(key), kind):
            bad(f"{key} missing or not a {kind.__name__}")
    for item in header["arrays"]:
        if not (isinstance(item, dict) and isinstance(item.get("name"), str)
                and item.get("dtype") in _DTYPE_TAGS.values()
                and isinstance(item.get("shape"), list)
                and all(type(n) is int and n >= 0 for n in item["shape"])):
            bad(f"bad array entry {item!r:.80}")
    opt_names = header.get("optimizer_arrays", [])
    if not (isinstance(opt_names, list) and all(isinstance(n, str) for n in opt_names)
            and set(opt_names) <= {item["name"] for item in header["arrays"]}):
        bad("optimizer_arrays must list arrays of the file")


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Raw read: (header, arrays by name). No vocabulary verification.

    A file that is not a well-formed checkpoint raises DataError, and so
    does one whose arrays do not end exactly where the file ends.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            magic = fh.read(len(MAGIC))
            if magic != MAGIC:
                raise DataError(f"{path}: not a checkpoint file")
            n = int.from_bytes(fh.read(8), "little")
            if n > size - fh.tell():
                raise DataError(f"{path}: header length {n} exceeds the file size {size}")
            try:
                header = json.loads(fh.read(n).decode("utf-8"))
            except ValueError as exc:  # JSON and UTF-8 decode errors
                raise DataError(f"{path}: corrupt checkpoint header ({exc})") from exc
            _check_header(path, header)
            arrays = {}
            for item in header["arrays"]:
                shape = tuple(item["shape"])
                dt = np.dtype(item["dtype"])
                nbytes = math.prod(shape) * dt.itemsize
                if nbytes > size - fh.tell():
                    raise DataError(f"{path}: truncated array {item['name']}")
                buf = fh.read(nbytes)
                # a writable copy (AdamW updates parameters in place), native byte order
                arrays[item["name"]] = np.frombuffer(buf, dtype=dt).reshape(shape).astype(
                    dt.newbyteorder("="))
            if fh.tell() != size:
                raise DataError(f"{path}: {size - fh.tell()} bytes after the last array")
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    return header, arrays


def load_checkpoint(path, vocab) -> tuple[Model, dict[str, np.ndarray], dict]:
    """Load and verify a checkpoint against a vocabulary.

    Refuses vocab hash mismatches, any missing/extra/mis-shaped parameter
    and parameters of mixed dtypes. Parameters keep their stored dtype.
    Returns (model, optimizer arrays, extra header dict). Only
    older files carry optimizer arrays (AdamW state listed under
    optimizer_arrays); they are returned as read, never as parameters.
    """
    header, arrays = read_checkpoint(path)
    if header["vocab_sha256"] != vocab.sha256():
        raise ConfigError(
            "checkpoint was trained with a different vocab "
            f"(checkpoint {header['vocab_sha256'][:12]}..., given {vocab.sha256()[:12]}...)")
    config = ModelConfig.from_dict(header["config"])
    expected = param_shapes(config, len(vocab.unigrams), len(vocab.bigrams))
    opt_names = header.get("optimizer_arrays", [])
    param_arrays = {k: v for k, v in arrays.items() if k not in opt_names}
    missing = sorted(set(expected) - set(param_arrays))
    extra_names = sorted(set(param_arrays) - set(expected))
    if missing or extra_names:
        raise DataError(f"checkpoint parameter names mismatch: missing={missing} extra={extra_names}")
    for name, shape in expected.items():
        if param_arrays[name].shape != shape:
            raise DataError(
                f"checkpoint parameter {name} has shape {param_arrays[name].shape}, expected {shape}")
    dtypes = sorted({a.dtype.name for a in param_arrays.values()})
    if len(dtypes) > 1:
        raise DataError(f"checkpoint parameters mix dtypes {dtypes}")
    params = {name: Tensor(param_arrays[name], requires_grad=True) for name in expected}
    model = Model(config, len(vocab.unigrams), len(vocab.bigrams), params=params)
    opt_arrays = {name: arrays[name] for name in opt_names}
    return model, opt_arrays, header.get("extra", {})
