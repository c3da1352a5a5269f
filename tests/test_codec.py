"""Tests for the snapshot codec (src/repro/codec.py): round trips, the
per-kind field tables (refused on encode and decode), a hypothesis fuzz of
damaged files (``ValidationError`` only), and LSH family states."""

from __future__ import annotations

import contextlib
import copy
import json
import pickle
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import codec
from repro.codec import ARRAY, NESTED, PLAIN, SCHEMAS, TABLE
from repro.engine import EngineConfig, JoinEstimationEngine
from repro.errors import ValidationError
from repro.lsh.families import LSHFamily, MinHashFamily, PStableL2Family, SignRandomProjectionFamily
from repro.streaming import MutableLSHIndex


@pytest.fixture(scope="module")
def engine_states(small_collection):
    """In-memory engine states for the static, streaming, sharded and process backends."""
    dimension = small_collection.dimension
    configs = {
        "static": EngineConfig(backend="static", num_hashes=6, seed=3),
        "streaming": EngineConfig(backend="streaming", num_hashes=6, seed=3, dimension=dimension,
                                  options={"reservoir_size": 16}),
        "sharded": EngineConfig(backend="sharded", num_hashes=6, num_tables=2, seed=3,
                                dimension=dimension, options={"num_shards": 2}),
    }
    states = {}
    for name, config in configs.items():
        with JoinEstimationEngine(config) as engine:
            engine.ingest(type(small_collection)(small_collection.matrix[:60]))
            states[name] = {"format": 1, "kind": "engine-snapshot",
                            "config": engine.config.to_dict(), "backend": engine.backend.to_state()}
    # a process backend's state has the sharded backend's shape
    states["process"] = copy.deepcopy(states["sharded"])
    states["process"]["config"]["backend"] = "process"
    states["process"]["backend"]["kind"] = "process-backend"
    return states


@pytest.fixture(scope="module")
def snapshots(engine_states):
    return {name: codec.encode("engine-snapshot", state) for name, state in engine_states.items()}


# file layout: magic | crc | header length | header | (frame length | frame)*
def _seal(body: bytes) -> bytes:
    return b"REPROSNP" + struct.pack("<I", zlib.crc32(body)) + body


def _split(data: bytes):
    body = data[12:]
    (size,) = struct.unpack_from("<Q", body)
    return json.loads(body[8 : 8 + size]), body[8 + size :]


def _rebuild(header, frames: bytes) -> bytes:
    encoded = json.dumps(header).encode("utf-8")
    return _seal(struct.pack("<Q", len(encoded)) + encoded + frames)


def _length_offsets(data: bytes):
    """Body offsets of the header length and of every frame length prefix."""
    body, offsets = data[12:], [0]
    at = 8 + struct.unpack_from("<Q", body)[0]
    while at < len(body):
        offsets.append(at)
        at += 8 + struct.unpack_from("<Q", body, at)[0]
    return offsets


def _at(node, path):
    for step in path:
        node = node[step]
    return node


def _plainify(state):
    """Arrays and tuples as lists, bytes as hex: a state comparable across its two forms."""
    def leaf(value):
        return value.hex() if isinstance(value, bytes) else value.tolist()

    return json.loads(json.dumps(state, default=leaf))


def _decode_peak(data: bytes) -> int:
    """Peak traced allocation while decoding ``data`` (a refusal is fine)."""
    tracemalloc.start()
    try:
        with contextlib.suppress(ValidationError):
            codec.decode(data)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class _Tripwire:
    """Unpickling this creates ``path``: proof that code from the file ran."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (Path.touch, (self.path,))


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["static", "streaming", "sharded", "process"])
    def test_decode_returns_the_encoded_state(self, engine_states, snapshots, name):
        kind, state = codec.decode(snapshots[name])
        assert kind == "engine-snapshot"
        assert _plainify(state) == _plainify(engine_states[name])

    def test_large_id_lists_travel_as_frames(self, small_collection, tmp_path):
        def header_length(rows):
            index = MutableLSHIndex(small_collection.dimension, num_hashes=6, random_state=1)
            index.insert_many(small_collection.matrix[:rows])
            index.snapshot(tmp_path / "index.snap")
            header, _ = _split((tmp_path / "index.snap").read_bytes())
            assert isinstance(header["state"]["live_ids"], int)
            return len(json.dumps(header))

        # the header grows with the frame count, not with the rows
        assert header_length(300) - header_length(30) < 64

    def test_decode_allocates_within_a_multiple_of_the_file(self, snapshots):
        data = snapshots["sharded"]
        # frames are copied once; the header and decoded lists add a bounded multiple
        assert _decode_peak(data) < 4 * len(data) + (1 << 16)

    def test_pickle_file_refused_without_unpickling(self, tmp_path):
        marker, path = tmp_path / "unpickled", tmp_path / "hostile.pkl"
        path.write_bytes(pickle.dumps(_Tripwire(marker)))
        with pytest.raises(ValidationError, match="not an engine or index snapshot"):
            codec.load(path)
        assert not marker.exists()

    def test_refusals(self, engine_states, snapshots, tmp_path):
        header, frames = _split(snapshots["streaming"])
        header["frames"].append("<i8")  # a frame no field references
        with pytest.raises(ValidationError, match="unreferenced"):
            codec.decode(_rebuild(header, frames + struct.pack("<Q", 8) + bytes(8)))
        header, frames = _split(snapshots["streaming"])
        index = header["state"]["backend"]["index"]
        index["rows"]["ids"] = index["live_ids"]  # one frame expanded twice
        with pytest.raises(ValidationError, match="unused buffer frame"):
            codec.decode(_rebuild(header, frames))
        with pytest.raises(ValidationError, match="not found"):
            codec.load(tmp_path / "absent.snap")
        (tmp_path / "static.snap").write_bytes(snapshots["static"])
        with pytest.raises(ValidationError, match="not a sharded or process index"):
            codec.load(tmp_path / "static.snap", backends=("sharded", "process"))
        with pytest.raises(ValidationError, match="cannot write"):
            codec.encode("row-store", engine_states["streaming"]["backend"]["index"]["rows"])


#: where an instance of each kind sits in the engine states (a kind missing here fails below)
_KIND_SITES = {
    "engine-snapshot": ("sharded", ()),
    "static-backend": ("static", ("backend",)),
    "streaming-backend": ("streaming", ("backend",)),
    "sharded-backend": ("sharded", ("backend",)),
    "process-backend": ("process", ("backend",)),
    "sharded-index": ("sharded", ("backend", "index")),
    "partitioner": ("sharded", ("backend", "index", "partitioner")),
    "mutable-index": ("sharded", ("backend", "index", "shards", 0)),
    "row-store": ("sharded", ("backend", "index", "shards", 0, "rows")),
    "lsh-family": ("sharded", ("backend", "index", "shards", 0, "families", 1)),
    "streaming-estimator": ("streaming", ("backend", "index", "estimators", 0)),
    "reservoir": ("streaming", ("backend", "index", "estimators", 0, "reservoir_l")),
}
#: a value of the wrong kind for a field of each kind
_WRONG = {PLAIN: np.arange(3), ARRAY: {"not": "an array"}, NESTED: ["no", "state"], TABLE: "no"}


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_field_tables_refuse_on_encode_and_decode(engine_states, snapshots, kind):
    """Missing required key, unknown key, wrong field kind: refused both ways."""
    source, path = _KIND_SITES[kind]

    def refused(mutate, match, decode=True):
        state = copy.deepcopy(engine_states[source])
        mutate(_at(state, path))
        with pytest.raises(ValidationError, match=match):
            codec.encode("engine-snapshot", state)
        if decode:
            header, frames = _split(snapshots[source])
            mutate(_at(header["state"], path))
            with pytest.raises(ValidationError, match=match):
                codec.decode(_rebuild(header, frames))

    refused(lambda node: node.__setitem__("surplus_key", 1), "surplus_key")
    for name, field in SCHEMAS[kind].items():
        if field.optional:  # an optional key may be absent
            state = copy.deepcopy(engine_states[source])
            _at(state, path).pop(name, None)
            codec.decode(codec.encode("engine-snapshot", state))
        else:
            refused(lambda node, name=name: node.pop(name), name)
        wrong = [_WRONG[field.kind]] if field.many else _WRONG[field.kind]
        # any JSON value decodes as plain, so plain fields are checked on encode only
        refused(lambda node, name=name, wrong=wrong: node.__setitem__(name, wrong), name,
                decode=field.kind != PLAIN)


class TestFuzz:
    """Damaged files raise ValidationError and nothing else."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_truncation(self, snapshots, data):
        snapshot = snapshots["sharded"]
        with pytest.raises(ValidationError):
            codec.decode(snapshot[: data.draw(st.integers(0, len(snapshot) - 1))])
        # re-sealed, so the parser (not the checksum) meets the cut
        body = snapshot[12:]
        with pytest.raises(ValidationError):
            codec.decode(_seal(body[: data.draw(st.integers(0, len(body) - 1))]))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_byte_flips(self, snapshots, data):
        snapshot = bytearray(snapshots["sharded"])
        snapshot[data.draw(st.integers(0, len(snapshot) - 1))] ^= data.draw(st.integers(1, 255))
        with pytest.raises(ValidationError):
            codec.decode(bytes(snapshot))
        # re-sealed, a flipped value may decode; any error must be a ValidationError
        with contextlib.suppress(ValidationError):
            codec.decode(_seal(bytes(snapshot[12:])))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_oversized_lengths(self, snapshots, data):
        snapshot = snapshots["sharded"]
        body = bytearray(snapshot[12:])
        offset = data.draw(st.sampled_from(_length_offsets(snapshot)))
        size = data.draw(st.integers(len(body) - offset - 7, 2**64 - 1))
        struct.pack_into("<Q", body, offset, size)
        with pytest.raises(ValidationError, match="bytes but only"):
            codec.decode(_seal(bytes(body)))

    def test_oversized_length_allocates_nothing_extra(self, snapshots):
        snapshot = snapshots["sharded"]
        for offset in _length_offsets(snapshot):
            body = bytearray(snapshot[12:])
            struct.pack_into("<Q", body, offset, 2**62)
            assert _decode_peak(_seal(bytes(body))) < 4 * len(snapshot) + (1 << 16)

    @settings(max_examples=100, deadline=None)
    @given(junk=st.binary(min_size=1, max_size=64))
    def test_trailing_junk(self, snapshots, junk):
        snapshot = snapshots["sharded"]
        with pytest.raises(ValidationError):
            codec.decode(snapshot + junk)
        with pytest.raises(ValidationError, match="trailing"):
            codec.decode(_seal(snapshot[12:] + junk))


class TestFamilyState:
    @pytest.mark.parametrize(("family_class", "params"), [
        (SignRandomProjectionFamily, {}), (MinHashFamily, {}),
        (PStableL2Family, {"bucket_width": 2.5}),
    ])
    def test_restored_family_hashes_bit_identically(self, small_collection, family_class, params):
        family, matrix = family_class(12, random_state=5, **params), small_collection.matrix
        unbound = json.loads(json.dumps(family.to_state()))  # stored as JSON
        want = family.hash_matrix(matrix)
        bound = json.loads(json.dumps(family.to_state()))
        for state in (unbound, bound):
            revived = LSHFamily.from_state(state)
            assert type(revived) is type(family)
            np.testing.assert_array_equal(revived.hash_matrix(matrix), want)
        assert LSHFamily.from_state(bound).to_state() == family.to_state()

    def test_family_outside_the_shipped_three_refused(self, tmp_path):
        class CustomFamily(SignRandomProjectionFamily):
            pass

        index = MutableLSHIndex(4, num_hashes=3, family=CustomFamily, random_state=1)
        with pytest.raises(ValidationError, match="CustomFamily"):
            index.snapshot(tmp_path / "custom.snap")

    def test_bad_family_state_refused(self):
        state = SignRandomProjectionFamily(4, random_state=1).to_state()
        for bad in ({**state, "family": "nope"}, {**state, "params": {"bogus": 1}}):
            with pytest.raises(ValidationError):
                LSHFamily.from_state(bad)
        with pytest.raises(ValidationError):
            MinHashFamily.from_state(state)
