"""Snapshot files: declared state schemas and one pickle-free codec.

:data:`SCHEMAS` declares every ``to_state`` dict kind as a small field
table (the schema inventory); :func:`save` / :func:`load` write and read
them in one format::

    magic | CRC-32 | header length | JSON header | (frame length | raw numpy buffer)*

The JSON header mirrors the state tree.  An array field holds the index
of its buffer frame, so large integer lists (live ids, bucket keys and
members, reservoir pairs, ``shard_of``) never become JSON lists.  Field
kinds: ``plain`` (JSON), ``array`` (1-D int/float), ``nested`` (another
kind, or one of several chosen by the value's ``"kind"`` tag) and
``table`` (tuples with ``bytes``/``int``/``ints`` columns); ``many``
makes a list of them, ``optional`` lets the key be absent or ``None``.

Encode and decode both check the tables, so a missing or unknown key or
a value of the wrong kind is refused either way.  Loading never
unpickles and never runs code from the file, and every length is
checked against the bytes left before it is read: a damaged or hostile
file raises :class:`~repro.errors.ValidationError` and nothing else.
"""

from __future__ import annotations

import functools
import itertools
import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.errors import ValidationError

PLAIN, ARRAY, NESTED, TABLE = "plain", "array", "nested", "table"


@dataclass(frozen=True)
class Field:
    """One declared state field (see the module docs for the kinds)."""

    kind: str
    spec: Union[None, str, Tuple[str, ...]] = None
    many: bool = False
    optional: bool = False


def _kind(plain: str, **fields: Field) -> Dict[str, Field]:
    """A field table: the space-separated ``plain`` field names, then ``fields``."""
    return {**{name: Field(PLAIN) for name in plain.split()}, **fields}


_IDS, _FLOATS = Field(ARRAY, "int"), Field(ARRAY, "float")
_ESTIMATORS = Field(NESTED, "streaming-estimator", many=True, optional=True)
BACKEND_KINDS = ("static-backend", "streaming-backend", "sharded-backend", "process-backend")

#: The schema inventory: every snapshot state kind and its fields.
SCHEMAS: Dict[str, Dict[str, Field]] = {
    "engine-snapshot": _kind("format kind config", backend=Field(NESTED, BACKEND_KINDS)),
    "static-backend": _kind("format kind dimension", data=_FLOATS, indices=_IDS, indptr=_IDS),
    "streaming-backend": _kind("format kind", index=Field(NESTED, "mutable-index")),
    "sharded-backend": _kind("format kind", index=Field(NESTED, "sharded-index")),
    "process-backend": _kind("format kind", index=Field(NESTED, "sharded-index")),
    "mutable-index": _kind(
        "format dimension num_hashes num_tables next_id",
        live_ids=_IDS,
        rows=Field(NESTED, "row-store"),
        families=Field(NESTED, "lsh-family", many=True),
        tables=Field(TABLE, ("bytes", "ints"), many=True),
        estimators=_ESTIMATORS,
    ),
    "row-store": _kind("dimension", ids=_IDS, data=_FLOATS, indices=_IDS, indptr=_IDS),
    "lsh-family": _kind("kind family num_hashes dimension rng params"),
    "sharded-index": _kind(
        "format kind dimension num_hashes num_tables num_shards next_id"
        " shard_estimators estimator_kwargs",
        partitioner=Field(NESTED, "partitioner"),
        live_ids=_IDS,
        shard_of=_IDS,
        bucket_refs=Field(TABLE, ("bytes", "int", "int")),
        shards=Field(NESTED, "mutable-index", many=True),
        estimators=_ESTIMATORS,
    ),
    "partitioner": _kind("kind num_shards"),
    "streaming-estimator": _kind(
        "format kind sample_size_h sample_size_l answer_threshold dampening"
        " reservoir_size staleness_budget rng",
        reservoir_h=Field(NESTED, "reservoir"),
        reservoir_l=Field(NESTED, "reservoir"),
    ),
    "reservoir": _kind("target_size unseen_pairs degraded", left=_IDS, right=_IDS),
}

#: the backend a raw index file restores as
_RAW_BACKEND = {"mutable-index": "streaming-backend", "sharded-index": "sharded-backend"}
#: kinds a snapshot file may hold at its root
ROOT_KINDS = ("engine-snapshot", *_RAW_BACKEND)

_MAGIC, _PRELUDE, _LENGTH = b"REPROSNP", struct.Struct("<8sI"), struct.Struct("<Q")
_DTYPES = frozenset({"<i4", "<i8", "<u4", "<u8", "<f4", "<f8", "|u1"})
_ARRAY_KINDS = {"int": "iu", "float": "f"}


def _check_keys(kind: str, value: Any, path: str) -> Dict[str, Field]:
    if not isinstance(value, Mapping):
        raise ValidationError(f"{path}: expected a {kind!r} state, got {type(value).__name__}")
    fields = SCHEMAS[kind]
    missing = sorted(name for name, f in fields.items() if not f.optional and name not in value)
    unknown = sorted(str(name) for name in value if name not in fields)
    if missing or unknown:
        raise ValidationError(
            f"{path}: {kind!r} state has missing key(s) {missing} and unknown key(s) {unknown}"
        )
    return fields


def _as_array(value: Any, spec: str, path: str) -> np.ndarray:
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise ValidationError(f"{path}: expected an {spec} array, got {type(value).__name__}")
    array = np.asarray(value)
    if array.ndim != 1:
        raise ValidationError(f"{path}: expected a 1-D array, got shape {array.shape}")
    if array.size == 0:
        return array.astype(np.int64 if spec == "int" else np.float64)
    if array.dtype.kind not in _ARRAY_KINDS[spec]:
        raise ValidationError(f"{path}: expected {spec} values, got dtype {array.dtype}")
    return array


class _Walk:
    """Walks a state tree against the field tables; subclasses handle the leaves."""

    def state(self, kind: str, value: Any, path: str) -> Dict[str, Any]:
        fields = _check_keys(kind, value, path)
        return {
            name: self.field(fields[name], item, f"{path}.{name}") for name, item in value.items()
        }

    def field(self, field: Field, value: Any, path: str) -> Any:
        if value is None and field.optional:
            return None
        if not field.many:
            return self.one(field, value, path)
        if not isinstance(value, (list, tuple)):
            raise ValidationError(f"{path}: expected a list, got {type(value).__name__}")
        return [self.one(field, item, f"{path}[{i}]") for i, item in enumerate(value)]

    def one(self, field: Field, value: Any, path: str) -> Any:
        if field.kind != NESTED:
            return getattr(self, field.kind)(field.spec, value, path)
        if isinstance(field.spec, str):
            return self.state(field.spec, value, path)
        tag = value.get("kind") if isinstance(value, Mapping) else None
        if not isinstance(tag, str) or tag not in (field.spec or ()):
            raise ValidationError(f"{path}: expected a state of kind {field.spec}, got {tag!r}")
        return self.state(tag, value, path)


class _Encoder(_Walk):
    def __init__(self) -> None:
        self.frames: List[np.ndarray] = []

    def plain(self, spec: None, value: Any, path: str) -> Any:
        """A JSON-ready copy of ``value``; numpy scalars become Python numbers."""
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        if isinstance(value, np.generic) and value.dtype.kind in "biuf":
            return value.item()
        if isinstance(value, (list, tuple)):
            return [self.plain(spec, item, path) for item in value]
        if isinstance(value, Mapping) and all(isinstance(key, str) for key in value):
            return {key: self.plain(spec, item, f"{path}.{key}") for key, item in value.items()}
        raise ValidationError(f"{path}: {type(value).__name__} is not a plain (JSON) value")

    def array(self, spec: str, value: Any, path: str) -> int:
        array = _as_array(value, spec, path)
        if array.dtype.str not in _DTYPES:
            array = array.astype(np.float64 if array.dtype.kind == "f" else np.int64)
        self.frames.append(np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<")))
        return len(self.frames) - 1

    def table(self, columns: Tuple[str, ...], rows: Any, path: str) -> List[int]:
        if not isinstance(rows, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) and len(row) == len(columns) for row in rows
        ):
            raise ValidationError(f"{path}: expected a list of {len(columns)}-tuples")
        refs = []
        for position, column in enumerate(columns):
            values = [row[position] for row in rows]
            if column == "int":
                refs.append(self.array("int", values, path))
                continue
            try:
                if column == "bytes" and not all(isinstance(value, bytes) for value in values):
                    raise TypeError("bucket keys must be bytes")
                flat = (
                    np.frombuffer(b"".join(values), np.uint8)
                    if column == "bytes"
                    else np.fromiter(itertools.chain.from_iterable(values), np.int64)
                )
                lengths = [len(value) for value in values]
            except (TypeError, ValueError) as error:
                raise ValidationError(f"{path}: bad {column!r} column: {error}") from error
            refs += [self.array("int", flat, path), self.array("int", lengths, path)]
        return refs


class _Decoder(_Walk):
    def __init__(self, frames: List[np.ndarray]) -> None:
        self.frames = frames
        self.used: Set[int] = set()

    def plain(self, spec: None, value: Any, path: str) -> Any:
        return value  # any JSON value is plain

    def array(self, spec: str, ref: Any, path: str) -> np.ndarray:
        if type(ref) is not int or not 0 <= ref < len(self.frames) or ref in self.used:
            raise ValidationError(f"{path}: {ref!r} is not an unused buffer frame index")
        self.used.add(ref)
        return _as_array(self.frames[ref], spec, path)

    def table(self, columns: Tuple[str, ...], refs: Any, path: str) -> List[Tuple[Any, ...]]:
        wanted = sum(1 if column == "int" else 2 for column in columns)
        if not isinstance(refs, list) or len(refs) != wanted:
            raise ValidationError(f"{path}: expected {wanted} buffer frame indexes")
        refs_left = iter(refs)
        decoded: List[List[Any]] = []
        for column in columns:
            flat = self.array("int", next(refs_left), path)
            if column == "int":
                decoded.append(flat.tolist())
                continue
            lengths = self.array("int", next(refs_left), path)
            if (
                (column == "bytes" and flat.size and flat.dtype != np.uint8)
                or int(lengths.min(initial=0)) < 0
                or int(lengths.max(initial=0)) > flat.size
                or int(lengths.sum()) != flat.size
            ):
                raise ValidationError(f"{path}: malformed {column!r} column")
            raw = flat.tobytes() if column == "bytes" else flat.tolist()
            bounds = np.concatenate(([0], np.cumsum(lengths))).tolist()
            decoded.append([raw[a:b] for a, b in zip(bounds, bounds[1:])])
        if len({len(column) for column in decoded}) > 1:
            raise ValidationError(f"{path}: table columns differ in length")
        return list(zip(*decoded))


def encode(kind: str, state: Mapping[str, Any]) -> bytes:
    """Serialise a root ``state`` of ``kind`` (one of :data:`ROOT_KINDS`)."""
    if kind not in ROOT_KINDS:
        raise ValidationError(f"cannot write a {kind!r} state as a snapshot file")
    encoder = _Encoder()
    tree = encoder.state(kind, state, kind)
    dtypes = [frame.dtype.str for frame in encoder.frames]
    header = json.dumps(
        {"format": 1, "kind": kind, "frames": dtypes, "state": tree}, separators=(",", ":")
    ).encode("utf-8")
    parts: List[Any] = [_LENGTH.pack(len(header)), header]
    for frame in encoder.frames:
        parts += [_LENGTH.pack(frame.nbytes), memoryview(frame).cast("B")]
    checksum = functools.reduce(lambda crc, part: zlib.crc32(part, crc), parts, 0)
    return b"".join([_PRELUDE.pack(_MAGIC, checksum), *parts])


def decode(data: Union[bytes, bytearray, memoryview]) -> Tuple[str, Dict[str, Any]]:
    """Parse snapshot bytes into ``(root kind, state)``; refuses anything else."""
    view = memoryview(data).cast("B")
    if len(view) < _PRELUDE.size or bytes(view[: len(_MAGIC)]) != _MAGIC:
        raise ValidationError("not an engine or index snapshot")
    body, at = view[_PRELUDE.size :], 0
    if zlib.crc32(body) != _PRELUDE.unpack_from(view)[1]:
        raise ValidationError("snapshot checksum mismatch (truncated or corrupted file)")

    def chunk(what: str) -> memoryview:
        nonlocal at
        if len(body) - at < _LENGTH.size:
            raise ValidationError(f"snapshot truncated before the {what} length")
        (size,) = _LENGTH.unpack_from(body, at)
        at += _LENGTH.size
        if size > len(body) - at:
            raise ValidationError(f"{what} claims {size} bytes but only {len(body) - at} are left")
        at += size
        return body[at - size : at]

    raw_header = chunk("header")
    try:
        header = json.loads(bytes(raw_header).decode("utf-8"))
    except (ValueError, RecursionError) as error:
        raise ValidationError(f"snapshot header is not valid JSON: {error}") from error
    if not isinstance(header, dict) or set(header) != {"format", "kind", "frames", "state"}:
        raise ValidationError("snapshot header has the wrong fields")
    kind, dtypes = header["kind"], header["frames"]
    if header["format"] != 1 or not isinstance(kind, str) or kind not in ROOT_KINDS:
        raise ValidationError(f"unsupported snapshot format/kind {header['format']!r}/{kind!r}")
    frames = []
    for position, dtype in enumerate(dtypes if isinstance(dtypes, list) else [None]):
        if not isinstance(dtype, str) or dtype not in _DTYPES:
            raise ValidationError(f"frame {position} has an unsupported dtype {dtype!r}")
        raw = chunk(f"frame {position}")
        if len(raw) % np.dtype(dtype).itemsize:
            raise ValidationError(f"frame {position} is not a whole number of {dtype} items")
        frames.append(np.frombuffer(raw, dtype=dtype).copy())
    if at != len(body):
        raise ValidationError(f"{len(body) - at} trailing byte(s) after the last frame")
    decoder = _Decoder(frames)
    state = decoder.state(kind, header["state"], kind)
    if len(decoder.used) != len(frames):
        raise ValidationError("snapshot carries unreferenced buffer frames")
    return kind, state


def save(path: Union[str, Path], kind: str, state: Mapping[str, Any]) -> None:
    """Write a root ``state`` of ``kind`` to ``path`` (see :func:`encode`)."""
    Path(path).write_bytes(encode(kind, state))


def load(
    path: Union[str, Path], *, backends: Optional[Sequence[str]] = None
) -> Tuple[Optional[Dict[str, Any]], Dict[str, Any]]:
    """Read a snapshot file as ``(engine config dict or None, backend state)``.

    Engine bundles are unwrapped; a raw index file comes back wrapped as
    the backend that would hold it, with no config.  ``backends`` limits
    the accepted backend kinds, e.g. ``("sharded", "process")``.
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"snapshot not found: {path}")
    try:
        kind, state = decode(path.read_bytes())
    except ValidationError as error:
        raise ValidationError(f"{path}: {error}") from error
    if kind == "engine-snapshot":
        if state["format"] != 1 or state["kind"] != kind:
            raise ValidationError(f"{path}: unsupported engine snapshot format {state['format']!r}")
        config, backend = state["config"], state["backend"]
    else:
        config, backend = None, {"format": 1, "kind": _RAW_BACKEND[kind], "index": state}
    if backends is not None and backend["kind"] not in [f"{name}-backend" for name in backends]:
        raise ValidationError(
            f"{path} holds a {backend['kind']!r} state, not a {' or '.join(backends)} index"
        )
    return config, backend


__all__ = ["BACKEND_KINDS", "Field", "ROOT_KINDS", "SCHEMAS", "decode", "encode", "load", "save"]
