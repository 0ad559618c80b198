"""Versioned task-pool files.

JSON container, format name "resadapt-pool", version 1. Every float64 is
stored as its C99 hex literal (float.hex / float.fromhex), which round-trips
bit-exactly through text. Shapes are explicit so a loader never guesses.

Layout:
  {"format": "resadapt-pool", "version": 1, "kind": "residual"|"prepend",
   "encoder": {"vocab": V, "embed_dim": d, "depth": D, "seed": S},
   "entries": [
     {"image_adapters": [att...], "text_adapters": [att...],
      "gaussian": {"mu": vec, "sigma": mtx, "ridge": hex, "logdet": hex},
      "mean_key": vec,
      "class_templates": [{"prefix": [int x3], "class_token": int}...]}]}
where mtx = {"rows": r, "cols": c, "data": [hex...]} (row-major),
vec = {"len": n, "data": [hex...]}, and att is {"k_r": mtx, "v_r": mtx}
for residual adapters or {"p": mtx} for prompts.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .attention import Adapter, PromptBaseline
from .backbone import ClassTemplate, EncoderSpec
from .errors import ConfigError, SingularityError
from .learner import AdapterSet, PoolEntry, TaskPool
from .taskdist import TaskGaussian
from .numkernel import cholesky_factor

FORMAT_NAME = "resadapt-pool"
FORMAT_VERSION = 1


def _enc_mtx(a: np.ndarray) -> dict:
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": [float(v).hex() for v in a.reshape(-1)],
    }


def _dec_mtx(obj: dict) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = np.array([float.fromhex(s) for s in obj["data"]], dtype=np.float64)
    if data.size != rows * cols:
        raise ConfigError(f"matrix payload has {data.size} values for {rows}x{cols}")
    return data.reshape(rows, cols)


def _enc_vec(a: np.ndarray) -> dict:
    return {"len": int(a.shape[0]), "data": [float(v).hex() for v in a]}


def _dec_vec(obj: dict) -> np.ndarray:
    data = np.array([float.fromhex(s) for s in obj["data"]], dtype=np.float64)
    if data.size != int(obj["len"]):
        raise ConfigError("vector payload length mismatch")
    return data


def _enc_attachment(att) -> dict:
    if isinstance(att, Adapter):
        return {"k_r": _enc_mtx(att.k_r), "v_r": _enc_mtx(att.v_r)}
    if isinstance(att, PromptBaseline):
        return {"p": _enc_mtx(att.p)}
    raise ConfigError(f"cannot serialize attachment {type(att).__name__}")


def _dec_attachment(obj: dict):
    if "p" in obj:
        return PromptBaseline(p=_dec_mtx(obj["p"]))
    return Adapter(k_r=_dec_mtx(obj["k_r"]), v_r=_dec_mtx(obj["v_r"]))


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
                    "logdet": float(e.gaussian.logdet).hex(),
                },
                "mean_key": _enc_vec(e.mean_key),
                "class_templates": [
                    {"prefix": list(c.prefix), "class_token": int(c.class_token)}
                    for c in e.class_templates
                ],
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
    except (KeyError, TypeError, ValueError, SingularityError) as exc:
        raise ConfigError(f"malformed pool file {path}: {type(exc).__name__}: {exc}") from exc


def _decode_pool(doc, path) -> tuple[TaskPool, EncoderSpec]:
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ConfigError(f"not a {FORMAT_NAME} file: {path}")
    if doc.get("version") != FORMAT_VERSION:
        raise ConfigError(f"unsupported pool version {doc.get('version')}")
    if doc.get("kind") not in ("residual", "prepend"):
        raise ConfigError(f"unknown pool kind {doc.get('kind')!r}")
    enc_doc = doc.get("encoder")
    if not isinstance(enc_doc, dict):
        raise ConfigError("pool file is missing its encoder record")
    encoder = EncoderSpec(
        vocab=int(enc_doc["vocab"]),
        d=int(enc_doc["embed_dim"]),
        depth=int(enc_doc["depth"]),
        seed=int(enc_doc["seed"]),
    )
    entries = []
    for e in doc["entries"]:
        g = e["gaussian"]
        sigma = _dec_mtx(g["sigma"])
        # The Cholesky cache is recomputed from sigma; stored reals are the
        # source of truth and round-trip bit-exactly.
        chol = cholesky_factor(sigma)
        gaussian = TaskGaussian(
            mu=_dec_vec(g["mu"]),
            sigma=sigma,
            ridge=float.fromhex(g["ridge"]),
            chol=chol,
            logdet=float.fromhex(g["logdet"]),
        )
        templates = tuple(
            ClassTemplate(prefix=tuple(c["prefix"]), class_token=int(c["class_token"]))
            for c in e["class_templates"]
        )
        entries.append(
            PoolEntry(
                adapters=AdapterSet(
                    image_adapters=tuple(_dec_attachment(a) for a in e["image_adapters"]),
                    text_adapters=tuple(_dec_attachment(a) for a in e["text_adapters"]),
                ),
                gaussian=gaussian,
                mean_key=_dec_vec(e["mean_key"]),
                class_templates=templates,
            )
        )
    return TaskPool(entries=entries, kind=doc["kind"]), encoder
