"""Every file reader fails only with a FoagenError on malformed bytes.

Inputs are arbitrary bytes, and truncated, bit-flipped, re-tailed or
header-patched copies of valid files. Runs are derandomized, so the examples are the
same on every run.
"""

import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from foagen.audio_io import (
    read_matrix,
    read_matrix_text,
    read_wav,
    write_matrix,
    write_matrix_text,
    write_wav,
)
from foagen.cleaning import ClipManifestEntry, read_manifest, write_manifest
from foagen.errors import FoagenError
from foagen.flow.network import VelocityModel, load_model, save_model
from foagen.foa import FoaSignal, MonoSignal
from foagen.panorama import check_frame, read_frame, write_frame

FUZZ = settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _valid_files(root: Path) -> dict[str, list[bytes]]:
    """Small valid files per reader, written by the package's own writers."""
    rng = np.random.default_rng(0)
    paths = {
        "wav": [root / "pcm.wav", root / "float.wav"],
        "frame": [root / "f.pgm", root / "f.ppm", root / "f.fframe"],
        "matrix": [root / "m.fmat"],
        "model": [root / "m.fgvm"],
        "text": [root / "m.txt"],
        "manifest": [root / "m.jsonl"],
    }
    write_wav(MonoSignal(0.3 * rng.standard_normal(6), 8000), paths["wav"][0], "pcm16")
    write_wav(FoaSignal(0.3 * rng.standard_normal((4, 3)), 16000), paths["wav"][1])
    write_frame(paths["frame"][0], rng.random((2, 4, 1)))
    write_frame(paths["frame"][1], rng.random((2, 4, 3)), bit_depth=16)
    write_frame(paths["frame"][2], rng.random((2, 4, 3)))
    write_matrix(paths["matrix"][0], rng.standard_normal((3, 2)))
    save_model(VelocityModel.initialize(2, 1, (3,), rng), paths["model"][0])
    write_matrix_text(paths["text"][0], rng.standard_normal((2, 3)))
    write_manifest(paths["manifest"][0], [
        ClipManifestEntry("a", "a.wav", 1.5, 16000, "a_*.pgm", ("x",), 3, 1.25),
        ClipManifestEntry("b", "b.wav", 2.0, 8000),
    ])
    return {kind: [p.read_bytes() for p in ps] for kind, ps in paths.items()}


READERS = {
    "wav": read_wav,
    "frame": read_frame,
    "matrix": read_matrix,
    "model": load_model,
    "text": read_matrix_text,
    "manifest": read_manifest,
}


_EXTREMES = [0, 1, 3, 2**31, 2**32 - 1, 2**62, 2**63, 2**64 - 1]


@st.composite
def _mutated(draw, valid: list[bytes]) -> bytes:
    blob = draw(st.sampled_from(valid))
    how = draw(st.sampled_from(["truncate", "flip", "patch", "retail"]))
    if how == "truncate":
        return blob[: draw(st.integers(0, len(blob)))]
    out = bytearray(blob)
    if how == "flip":
        for bit in draw(st.lists(st.integers(0, 8 * len(blob) - 1), min_size=1, max_size=4)):
            out[bit // 8] ^= 1 << (bit % 8)
    elif how == "patch":
        # header counts set to extreme values, 4-byte aligned like the headers
        for _ in range(draw(st.integers(1, 3))):
            at = 4 * draw(st.integers(0, (len(blob) - 1) // 4))
            word = struct.pack("<Q", draw(st.sampled_from(_EXTREMES)))
            out[at : at + 8] = word[: len(out[at : at + 8])]
    else:
        return blob[: draw(st.integers(0, len(blob)))] + draw(st.binary(max_size=64))
    return bytes(out)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def valid(scratch):
    return _valid_files(scratch)


@pytest.mark.parametrize("kind", sorted(READERS))
def test_reader_fails_only_with_domain_errors(kind, scratch, valid):
    path = scratch / f"input.{kind}"

    @FUZZ
    @given(blob=st.one_of(st.binary(max_size=128), _mutated(valid[kind])))
    def run(blob):
        path.write_bytes(blob)
        try:
            READERS[kind](path)
        except FoagenError:
            pass

    run()


def _raised(reader, path):
    """The class of the exception ``reader(path)`` raises, or None."""
    try:
        reader(path)
    except Exception as exc:
        return type(exc)
    return None


def _large_frame_files(root: Path) -> list[bytes]:
    """Frames longer than the header prefix check_frame reads (4 KiB),
    and anymaps whose header runs past it."""
    rng = np.random.default_rng(1)
    pgm, ppm, raw = root / "big.pgm", root / "big.ppm", root / "big.fframe"
    write_frame(pgm, rng.random((64, 64, 1)))
    write_frame(ppm, rng.random((64, 64, 3)), bit_depth=16)
    write_frame(raw, rng.random((64, 64, 1)))
    pixels = pgm.read_bytes()[len(b"P5\n64 64\n255\n"):]
    long_comment = b"P5\n# " + b"c" * 5000 + b"\n64 64\n255\n" + pixels
    # whitespace that makes the maxval, height and width tokens in turn
    # straddle the end of the prefix, or pads past it
    padded = [
        b"P5" + b" " * pad + b"64 64\n255\n" + pixels
        for pad in (4086, 4090, 4093, 4094, 4096, 5000)
    ]
    return [pgm.read_bytes(), ppm.read_bytes(), raw.read_bytes(), long_comment, *padded]


def test_frame_check_raises_exactly_when_read_frame_does(scratch, valid):
    path = scratch / "input.checked"
    large = _large_frame_files(scratch)

    @settings(FUZZ, max_examples=400)
    @given(blob=st.one_of(
        st.sampled_from(valid["frame"]), st.binary(max_size=128), _mutated(valid["frame"]),
        st.sampled_from(large), _mutated(large),
    ))
    def run(blob):
        path.write_bytes(blob)
        raised = _raised(check_frame, path)
        assert raised is _raised(read_frame, path)
        if raised is None:
            assert check_frame(path) == read_frame(path).shape

    run()


# NaN and the infinities are written as JSON extensions
_EDGE_VALUES = [
    None, True, 0, -1, 2**70, 1.5, 3.7, math.inf, -math.inf, math.nan, "", "8000", [1, 2], ["a"]
]
_JSON_VALUES = st.one_of(
    st.sampled_from(_EDGE_VALUES),  # edge values first
    st.integers(),
    st.floats(),
    st.text(max_size=8),
    st.lists(st.text(max_size=4), max_size=2),
)
_OPTIONAL = ("frames_pattern", "labels", "word_count", "alignment_score")
# a valid value for each key, so that records with one arbitrary field are
# often accepted and the types of their fields get checked
_VALID = {
    "id": st.text(min_size=1, max_size=8),
    "audio_path": st.text(max_size=8),
    "duration": st.integers(0, 100) | st.floats(0.0, 100.0),
    "sample_rate": st.integers(1, 96000),
    "frames_pattern": st.text(max_size=8),
    "labels": st.lists(st.text(max_size=4), max_size=2),
    "word_count": st.integers(0, 20),
    "alignment_score": st.integers(0, 3) | st.floats(0.0, 3.0),
}


@st.composite
def _one_arbitrary_field(draw):
    record = draw(st.fixed_dictionaries(
        {key: _VALID[key] for key in _VALID if key not in _OPTIONAL},
        optional={key: _VALID[key] for key in _OPTIONAL},
    ))
    record[draw(st.sampled_from(sorted(_VALID)))] = draw(_JSON_VALUES)
    return record


_RECORDS = _one_arbitrary_field() | st.fixed_dictionaries(
    {key: _JSON_VALUES for key in ("id", "audio_path", "duration", "sample_rate")},
    optional={key: _JSON_VALUES for key in _OPTIONAL},
)


@FUZZ
@given(records=st.lists(_RECORDS, min_size=1, max_size=3))
def test_manifest_reader_on_arbitrary_field_values(scratch, records):
    # every key is known, so any value read_manifest cannot use must fail as a domain error
    path = scratch / "fields.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    try:
        entries = read_manifest(path)
    except FoagenError:
        return
    for entry in entries:
        assert entry.sample_rate > 0 and math.isfinite(entry.duration)
        assert type(entry.duration) in (int, float) and type(entry.sample_rate) is int
        assert type(entry.word_count) in (type(None), int)
        assert type(entry.alignment_score) in (type(None), int, float)
        assert entry.frames_pattern is None or isinstance(entry.frames_pattern, str)
        assert isinstance(entry.id, str) and isinstance(entry.audio_path, str)
        assert all(isinstance(label, str) for label in entry.labels)


def test_manifest_reader_on_each_edge_value(scratch):
    # each edge value in each field of an otherwise valid record: rejected, or kept as written
    kinds = {
        "id": (str,), "audio_path": (str,), "frames_pattern": (str,), "labels": (tuple,),
        "duration": (int, float), "sample_rate": (int,), "word_count": (int,),
        "alignment_score": (int, float),
    }
    base = {"id": "a", "audio_path": "a.wav", "duration": 1.0, "sample_rate": 16000}
    path = scratch / "edge.jsonl"
    for key, kind in kinds.items():
        for value in _EDGE_VALUES:
            path.write_text(json.dumps({**base, key: value}) + "\n")
            if value is None and key not in base:  # null on an optional key means absent
                (entry,) = read_manifest(path)
                assert getattr(entry, key) == ClipManifestEntry.__dataclass_fields__[key].default
                continue
            try:
                (entry,) = read_manifest(path)
            except FoagenError:
                continue
            got = getattr(entry, key)
            assert type(got) in kind, (key, value)
            assert json.dumps(list(got) if key == "labels" else got) == json.dumps(value)
