"""Synthetic domain-incremental task streams.

The vocabulary is partitioned deterministically: ids 0..2 are the template
prefix, the next num_tasks*classes_per_task ids are class tokens (unique
per class, disjoint across tasks), and the remainder is domain territory
split into per-task windows whose spacing scales with domain_shift. A
sample for (task, class) mixes four ingredients, then shuffles the
positions:

  * copies of its own class token (ties images to templates, so the frozen
    encoder has genuine zero-shot signal),
  * the task's salt block: the first few window ids, identical in every
    sample of the task (a domain fingerprint with near-zero within-task
    variance, so per-task Gaussians separate sharply),
  * tokens from the class's private slice of the task window,
  * at longer seq_len, free draws from the whole window (domain texture).

Distinct windows make frozen-feature clusters per task; distinct class
slices make sub-clusters per class. Same spec -> byte-identical stream.
"""

from __future__ import annotations

import json
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from ..errors import ConfigError
from ..numkernel import make_rng

TEMPLATE_PREFIX = (0, 1, 2)
TRAIN_FRACTION = 0.8
# What a value must be, by the declared type of its field; no other type may be declared.
FIELD_KINDS = {int: "an integer", float: "a number"}


def field_types(cls) -> dict[str, type]:
    """Each field of the dataclass cls by name, with its declared type; TypeError if
    a type is not in FIELD_KINDS, so a schema built at import fails there."""
    hints = typing.get_type_hints(cls)
    types = {f.name: hints[f.name] for f in fields(cls)}
    for name, kind in types.items():
        if kind not in FIELD_KINDS:
            raise TypeError(f"{cls.__name__}.{name} has type {kind!r}, not int or float")
    return types


@dataclass(frozen=True)
class StreamSpec:
    num_tasks: int = 5
    classes_per_task: int = 4
    samples_per_class: int = 200
    seq_len: int = 8
    vocab: int = 256
    domain_shift: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if min(self.num_tasks, self.classes_per_task, self.samples_per_class) < 1:
            raise ConfigError("num_tasks, classes_per_task, samples_per_class must be >= 1")
        if self.seq_len < 4:
            raise ConfigError("seq_len must be >= 4 (class token + domain context)")
        if not 0.0 <= self.domain_shift < np.inf:
            raise ConfigError(f"domain_shift must be finite and >= 0, got {self.domain_shift}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.samples_per_class < 5:
            raise ConfigError("need >= 5 samples per class for an 80/20 split")
        n_reserved = len(TEMPLATE_PREFIX) + self.num_tasks * self.classes_per_task
        domain = self.vocab - n_reserved
        if domain < 2 * self.num_tasks * self.classes_per_task:
            raise ConfigError(
                f"vocab {self.vocab} too small for {self.num_tasks} tasks of "
                f"{self.classes_per_task} classes"
            )


SPEC_TYPES = field_types(StreamSpec)


@dataclass(frozen=True)
class Task:
    index: int
    train_ids: np.ndarray
    train_labels: np.ndarray
    test_ids: np.ndarray
    test_labels: np.ndarray
    class_templates: np.ndarray  # (K, 4) int64: TEMPLATE_PREFIX, then the class token


def _template_rows(class_tokens) -> np.ndarray:
    """(K, 4) template token rows: the shared prefix, then each class token."""
    rows = np.empty((len(class_tokens), len(TEMPLATE_PREFIX) + 1), dtype=np.int64)
    rows[:, :-1] = TEMPLATE_PREFIX
    rows[:, -1] = class_tokens
    return rows


def _windows(spec: StreamSpec) -> tuple[int, list[int], int]:
    """(domain_start, per-task window starts, window width)."""
    start = len(TEMPLATE_PREFIX) + spec.num_tasks * spec.classes_per_task
    domain = spec.vocab - start
    width = domain // spec.num_tasks
    stride = int(round(spec.domain_shift * width))
    starts = [i * stride for i in range(spec.num_tasks)]
    if starts[-1] + width > domain:
        raise ConfigError(
            f"domain_shift {spec.domain_shift} pushes task windows past the vocabulary"
        )
    return start, starts, width


def _sample_counts(seq_len: int) -> tuple[int, int, int, int]:
    """(anchor, salt, class-slice, free-window) token counts per sample.

    Roughly half of each sample is the fixed task salt and a quarter is
    class-token anchors; what remains splits between class-slice draws and
    (at longer seq_len) free window draws.
    """
    n_anchor = max(1, seq_len // 4 + 1)
    n_salt = max(1, seq_len // 2)
    if n_anchor + n_salt + 1 > seq_len:
        n_salt = seq_len - n_anchor - 1
    left = seq_len - n_anchor - n_salt
    n_class = max(1, left // 2)
    return n_anchor, n_salt, n_class, left - n_class


def gen_stream(spec: StreamSpec) -> list[Task]:
    """Generate the task list; deterministic in spec alone."""
    base, starts, width = _windows(spec)
    n_anchor, n_salt, n_class, n_free = _sample_counts(spec.seq_len)
    slice_width = max(1, (width - n_salt) // spec.classes_per_task)
    if n_salt + spec.classes_per_task * slice_width > width:
        raise ConfigError(
            f"task window width {width} too small for a {n_salt}-token salt "
            f"plus {spec.classes_per_task} class slices"
        )
    tasks = []
    for t in range(spec.num_tasks):
        rng = make_rng(spec.seed, 11, t)
        win_lo = base + starts[t]
        salt = np.arange(win_lo, win_lo + n_salt, dtype=np.int64)
        templates = _template_rows(
            len(TEMPLATE_PREFIX) + t * spec.classes_per_task + np.arange(spec.classes_per_task)
        )
        ids_rows, labels = [], []
        for c in range(spec.classes_per_task):
            slice_lo = win_lo + n_salt + c * slice_width
            anchor = np.full(n_anchor, templates[c, -1], dtype=np.int64)
            for _ in range(spec.samples_per_class):
                parts = [
                    anchor,
                    salt,
                    rng.integers(slice_lo, slice_lo + slice_width, size=n_class),
                ]
                if n_free:
                    parts.append(rng.integers(win_lo, win_lo + width, size=n_free))
                row = np.concatenate(parts)
                rng.shuffle(row)
                ids_rows.append(row)
                labels.append(c)
        ids = np.stack(ids_rows)
        labels = np.array(labels, dtype=np.int64)
        # 80/20 split drawn per class so both splits stay balanced.
        train_mask = np.zeros(len(labels), dtype=bool)
        for c in range(spec.classes_per_task):
            members = np.flatnonzero(labels == c)
            n_train = int(round(TRAIN_FRACTION * len(members)))
            chosen = rng.permutation(len(members))[:n_train]
            train_mask[members[chosen]] = True
        tasks.append(
            Task(
                index=t,
                train_ids=ids[train_mask],
                train_labels=labels[train_mask],
                test_ids=ids[~train_mask],
                test_labels=labels[~train_mask],
                class_templates=templates,
            )
        )
    return tasks


def save_stream(spec: StreamSpec, stream: list[Task], path: str | Path) -> None:
    """Write the stream (spec + token data) as deterministic JSON."""
    doc = {
        "format": "resadapt-stream",
        "version": 1,
        "spec": asdict(spec),
        "tasks": [
            {
                "index": t.index,
                "train_ids": t.train_ids.tolist(),
                "train_labels": t.train_labels.tolist(),
                "test_ids": t.test_ids.tolist(),
                "test_labels": t.test_labels.tolist(),
                "class_templates": [
                    {"prefix": row[:-1].tolist(), "class_token": int(row[-1])}
                    for row in t.class_templates
                ],
            }
            for t in stream
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=None, separators=(",", ":")))


def load_stream(path: str | Path) -> tuple[StreamSpec, list[Task]]:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read stream file {path}: {exc}") from exc
    header = (doc.get("format"), doc.get("version")) if isinstance(doc, dict) else None
    if header != ("resadapt-stream", 1):
        raise ConfigError(f"not a version-1 resadapt-stream file: {path}")
    try:
        return _decode_stream(doc)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed stream file {path}: {type(exc).__name__}: {exc}") from exc


def _int_array(raw, what: str, ndim: int, hi: int) -> np.ndarray:
    # No dtype on the way in: a float, bool or string entry keeps its own
    # dtype and fails here instead of being cast to an id.
    a = np.array(raw)
    if a.ndim != ndim or a.dtype.kind not in "iu":
        kind = ("an integer", "a list of integers", "a list of integer rows")[ndim]
        raise ConfigError(f"{what} must be {kind}")
    if a.size and (a.min() < 0 or a.max() >= hi):
        raise ConfigError(f"{what} must lie in [0, {hi})")
    return a.astype(np.int64)


def _decode_split(t: dict, split: str, spec: StreamSpec, k: int, where: str):
    ids = _int_array(t[f"{split}_ids"], f"{where} {split}_ids", 2, spec.vocab)
    if ids.shape[1] != spec.seq_len:
        raise ConfigError(
            f"{where} {split}_ids rows have length {ids.shape[1]}, spec seq_len is {spec.seq_len}"
        )
    labels = _int_array(t[f"{split}_labels"], f"{where} {split}_labels", 1, k)
    if labels.shape != (ids.shape[0],):
        raise ConfigError(f"{where} has {len(labels)} {split}_labels for {len(ids)} rows")
    return ids, labels


def _decode_task(t: dict, spec: StreamSpec, where: str) -> Task:
    tokens = []
    for c in t["class_templates"]:
        prefix = tuple(_int_array(c["prefix"], f"{where} template prefix", 1, spec.vocab).tolist())
        if prefix != TEMPLATE_PREFIX:
            raise ConfigError(f"{where} template prefix must be {TEMPLATE_PREFIX}, got {prefix}")
        tokens.append(int(_int_array(c["class_token"], f"{where} class token", 0, spec.vocab)))
    if len(tokens) != spec.classes_per_task:
        raise ConfigError(
            f"{where} has {len(tokens)} class templates, spec has {spec.classes_per_task} classes"
        )
    templates = _template_rows(tokens)
    train_ids, train_labels = _decode_split(t, "train", spec, len(templates), where)
    test_ids, test_labels = _decode_split(t, "test", spec, len(templates), where)
    return Task(
        index=int(_int_array(t["index"], f"{where} index", 0, spec.num_tasks)),
        train_ids=train_ids,
        train_labels=train_labels,
        test_ids=test_ids,
        test_labels=test_labels,
        class_templates=templates,
    )


def _decode_stream(doc: dict) -> tuple[StreamSpec, list[Task]]:
    """The stream a file holds, checked once against its spec.

    Token ids are integers in [0, vocab) in rows of length seq_len, each
    row has one label within its task's classes, each task has one template
    per class with the shared prefix, the tasks are indexed 0..num_tasks-1
    in order, and each spec value has its field's type (a bool is no integer).
    """
    raw = doc["spec"]
    for key, kind in SPEC_TYPES.items():
        if key in raw and not (type(raw[key]) is int or (kind is float and type(raw[key]) is float)):
            raise ConfigError(f"stream spec {key} needs {FIELD_KINDS[kind]}, got {raw[key]!r}")
    spec = StreamSpec(**raw)
    tasks = [_decode_task(t, spec, f"task {i}") for i, t in enumerate(doc["tasks"])]
    indices = [t.index for t in tasks]
    if indices != list(range(spec.num_tasks)):
        raise ConfigError(f"task indices must be 0..{spec.num_tasks - 1} in order, got {indices}")
    return spec, tasks
