"""Versioned task-pool files.

JSON container, format name "resadapt-pool", version 2. Every float64 is
stored as its C99 hex literal (float.hex / float.fromhex), which round-trips
bit-exactly through text. Shapes are explicit so a loader never guesses.

Layout:
  {"format": "resadapt-pool", "version": 2, "kind": "residual"|"prepend",
   "encoder": {"vocab": V, "embed_dim": d, "depth": D, "seed": S},
   "entries": [
     {"image_adapters": [att...], "text_adapters": [att...],
      "gaussian": {"mu": vec, "sigma": mtx, "ridge": hex}}]}
where mtx = {"rows": r, "cols": c, "data": [hex...]} (row-major),
vec = {"len": n, "data": [hex...]}, and att = {field: mtx} per field of the
kind's class in attention.ATTACHMENTS: k_r, v_r (residual) or p (prepend).

A Gaussian's Cholesky factor and log-determinant are not stored: the loader
recomputes both from sigma. The encoder record and every payload's rows,
cols and len hold JSON integers (no bools), every payload's data is a
JSON list, every stored value must be finite and the ridge positive.
Every attachment and Gaussian has the encoder's width, and an entry holds
as many image as text attachments, at most one per layer.
Version 1 files are rejected.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np

from .attention import ATTACHMENTS
from .backbone import EncoderSpec
from .errors import ConfigError, ContractError, ShapeError, SingularityError
from .learner import AdapterSet, PoolEntry, TaskPool
from .taskdist import TaskGaussian
from .numkernel import cholesky_factor, cholesky_logdet, mat, vec

FORMAT_NAME = "resadapt-pool"
FORMAT_VERSION = 2


def _enc_mtx(a: np.ndarray) -> dict:
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": [float(v).hex() for v in a.reshape(-1)],
    }


def _json_int(value, what: str) -> int:
    if type(value) is not int:  # a bool, a float or a string is no integer
        raise ConfigError(f"{what} needs an integer, got {value!r}")
    return value


def _dec_hex(data) -> np.ndarray:
    """A payload's hex strings as float64, each through float.fromhex."""
    if type(data) is not list:  # a dict or a string would iterate, too
        raise ConfigError(f"pool payload data needs a list, got {type(data).__name__}")
    return np.fromiter(map(float.fromhex, data), np.float64, count=len(data))


def _dec_mtx(obj: dict) -> np.ndarray:
    rows = _json_int(obj["rows"], "pool matrix rows")
    cols = _json_int(obj["cols"], "pool matrix cols")
    data = _dec_hex(obj["data"])
    if data.size != rows * cols:
        raise ConfigError(f"matrix payload has {data.size} values for {rows}x{cols}")
    return mat(data.reshape(rows, cols))


def _enc_vec(a: np.ndarray) -> dict:
    return {"len": int(a.shape[0]), "data": [float(v).hex() for v in a]}


def _dec_vec(obj: dict) -> np.ndarray:
    data = vec(_dec_hex(obj["data"]))
    if data.size != _json_int(obj["len"], "pool vector len"):
        raise ConfigError("vector payload length mismatch")
    return data


def _enc_attachment(att) -> dict:
    return {name: _enc_mtx(value) for name, value in vars(att).items()}


def _dec_attachment(obj: dict, kind: str):
    cls = ATTACHMENTS[kind]
    names = [f.name for f in fields(cls)]
    keys = sorted(obj) if isinstance(obj, dict) else type(obj).__name__
    if keys != sorted(names):
        raise ConfigError(f"a {kind} pool's attachments hold {names}, got {keys}")
    return cls(*(_dec_mtx(obj[name]) for name in names))


def save_pool(pool: TaskPool, path: str | Path, encoder: EncoderSpec) -> None:
    entries = []
    for e in pool.entries:
        entries.append(
            {
                "image_adapters": [_enc_attachment(a) for a in e.adapters.image_adapters],
                "text_adapters": [_enc_attachment(a) for a in e.adapters.text_adapters],
                "gaussian": {
                    "mu": _enc_vec(e.gaussian.mu),
                    "sigma": _enc_mtx(e.gaussian.sigma),
                    "ridge": float(e.gaussian.ridge).hex(),
                },
            }
        )
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": pool.kind,
        "encoder": {
            "vocab": encoder.vocab,
            "embed_dim": encoder.d,
            "depth": encoder.depth,
            "seed": encoder.seed,
        },
        "entries": entries,
    }
    Path(path).write_text(json.dumps(doc, indent=None, separators=(",", ":")))


def load_pool(path: str | Path) -> tuple[TaskPool, EncoderSpec]:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read pool file {path}: {exc}") from exc
    try:
        return _decode_pool(doc, path)
    except ConfigError:
        raise
    except (
        KeyError, TypeError, ValueError, OverflowError, ContractError, ShapeError,
        SingularityError,
    ) as exc:
        raise ConfigError(f"malformed pool file {path}: {type(exc).__name__}: {exc}") from exc


def _decode_gaussian(g: dict) -> TaskGaussian:
    sigma = _dec_mtx(g["sigma"])
    ridge = float.fromhex(g["ridge"])
    if not 0.0 < ridge < math.inf:
        raise ContractError(f"ridge must be finite and positive, got {ridge}")
    # The Cholesky factor and log-determinant are derived from sigma, whose
    # stored reals round-trip bit-exactly.
    chol = cholesky_factor(sigma)
    return TaskGaussian(
        mu=_dec_vec(g["mu"]), sigma=sigma, ridge=ridge, chol=chol, logdet=cholesky_logdet(chol)
    )


def _decode_entry(e: dict, kind: str, encoder: EncoderSpec) -> PoolEntry:
    image = tuple(_dec_attachment(a, kind) for a in e["image_adapters"])
    text = tuple(_dec_attachment(a, kind) for a in e["text_adapters"])
    if len(image) != len(text) or len(image) > encoder.depth:
        raise ConfigError(f"an entry holds {len(image)} image and {len(text)} text attachments, "
                          f"not an equal number up to the encoder depth {encoder.depth}")
    gaussian = _decode_gaussian(e["gaussian"])
    widths = {a.d for a in image + text} | {gaussian.d, *gaussian.sigma.shape}
    if widths != {encoder.d}:
        raise ConfigError(f"an entry's attachment and Gaussian widths {sorted(widths)} "
                          f"are not the encoder's embed_dim {encoder.d}")
    return PoolEntry(adapters=AdapterSet(image_adapters=image, text_adapters=text), gaussian=gaussian)


def _decode_pool(doc, path) -> tuple[TaskPool, EncoderSpec]:
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ConfigError(f"not a {FORMAT_NAME} file: {path}")
    if doc.get("version") != FORMAT_VERSION:
        raise ConfigError(f"unsupported pool version {doc.get('version')}")
    kind = doc.get("kind")
    if kind not in tuple(ATTACHMENTS):  # a tuple: kind may be unhashable
        raise ConfigError(f"unknown pool kind {kind!r}")
    enc_doc = doc.get("encoder")
    if not isinstance(enc_doc, dict):
        raise ConfigError("pool file is missing its encoder record")
    for key in ("vocab", "embed_dim", "depth", "seed"):
        _json_int(enc_doc[key], f"pool encoder {key}")
    encoder = EncoderSpec(
        vocab=enc_doc["vocab"], d=enc_doc["embed_dim"], depth=enc_doc["depth"], seed=enc_doc["seed"]
    )
    entries = [_decode_entry(e, kind, encoder) for e in doc["entries"]]
    return TaskPool(entries=entries, kind=kind), encoder
