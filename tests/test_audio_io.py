import math
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from foagen.audio_io import (
    _BLOCK_FRAMES,
    MATRIX_MAGIC,
    pcm16_decode,
    pcm16_encode,
    read_matrix,
    read_matrix_any,
    read_matrix_text,
    read_wav,
    write_matrix,
    write_matrix_text,
    write_wav,
)
from foagen.errors import (
    ChannelCountUnsupported,
    CorruptHeader,
    IoFailure,
    ParseError,
    SpecMismatch,
    UnsupportedFormat,
)
from foagen.foa import FoaSignal, MonoSignal, StereoSignal, signal_from_channels


def _float32_noise(rng, *shape):
    """Random values exactly representable in float32."""
    return rng.standard_normal(shape).astype(np.float32).astype(np.float64)


def test_pcm16_reference_codes():
    samples = np.array([0.0, 0.5, -1.0, 1.0, -2.0, 32767 / 32768])
    codes = pcm16_encode(samples)
    assert codes.tolist() == [0, 16384, -32768, 32767, -32768, 32767]


def test_pcm16_rounds_half_away_from_zero():
    half_code = 0.5 / 32768.0
    assert pcm16_encode(np.array([half_code]))[0] == 1
    assert pcm16_encode(np.array([-half_code]))[0] == -1


def test_pcm16_grid_round_trip_is_exact():
    codes = np.arange(-32768, 32768, dtype=np.int64)
    assert np.array_equal(pcm16_encode(pcm16_decode(codes)), codes)


def test_pcm16_encode_matches_rounding_formula():
    def reference(samples):
        scaled = np.asarray(samples, dtype=np.float64) * 32768.0
        rounded = np.copysign(np.floor(np.abs(scaled) + 0.5), scaled)
        return np.clip(rounded, -32768, 32767).astype("<i2")

    rng = np.random.default_rng(9)
    ties = (np.arange(-40, 40) + 0.5) / 32768.0
    edges = np.array([1.0, -1.0, 1.5, -1.5, 32767.5 / 32768, -32768.5 / 32768, 0.0, -0.0, 1e9])
    specials = np.array([
        math.inf, -math.inf, -0.0, 2.0, -2.0,
        0.49999999999999994 / 32768, -0.49999999999999994 / 32768,
    ])
    # Every code k/32768 past both int16 limits, the half-way points
    # between codes, and each of those one ulp either way.
    grid = np.concatenate([np.arange(-40000, 40001), np.arange(-40000, 40000) + 0.5]) / 32768.0
    grid = np.concatenate([grid, np.nextafter(grid, -math.inf), np.nextafter(grid, math.inf)])
    frames = rng.uniform(-1.2, 1.2, (4, 300))
    for samples in [
        ties,
        edges,
        specials,
        grid,
        ties.astype(np.float32),
        frames.astype(np.float32),
        frames.T,  # transposed, as write_wav passes (frames, channels)
        frames[:, ::3],
    ]:
        got = pcm16_encode(samples)
        want = reference(samples)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def _foa_10s():
    return FoaSignal(np.random.default_rng(16).uniform(-1.0, 1.0, (4, 160000)), 16000)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_wav_peak_is_the_payload_plus_blocks(tmp_path):
    # 10 s of 16 kHz FOA: a 1.28 MB pcm16 payload, and no float64 copy
    # of the 5.12 MB signal.
    signal = _foa_10s()
    payload = signal.channels.size * 2
    path = tmp_path / "foa.wav"
    peak = _traced_peak(lambda: write_wav(signal, path, "pcm16"))
    assert path.stat().st_size == 44 + payload
    assert peak < payload + 2**20


def test_ambix_read_peak_matches_the_plain_read(tmp_path):
    # The AmbiX order costs at most one block's float64 samples more.
    path = tmp_path / "foa.wav"
    write_wav(_foa_10s(), path)
    plain = _traced_peak(lambda: read_wav(path))
    ambix = _traced_peak(lambda: read_wav(path, ambix=True))
    assert ambix - plain <= _BLOCK_FRAMES * 4 * 8


def test_float32_wav_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    signals = [
        MonoSignal(_float32_noise(rng, 50), 16000),
        StereoSignal([_float32_noise(rng, 40), _float32_noise(rng, 40)], 44100),
        FoaSignal([_float32_noise(rng, 30) for _ in range(4)], 48000),
    ]
    for k, signal in enumerate(signals):
        path = tmp_path / f"sig{k}.wav"
        write_wav(signal, path)
        back = read_wav(path)
        assert type(back) is type(signal)
        assert back.sample_rate == signal.sample_rate
        assert np.array_equal(back.channels, signal.channels)


def _float32_wav_reference(matrix, rate):
    """A float32 WAV of a (channels, n) matrix, packed sample by sample."""
    channels, n = matrix.shape
    data = struct.pack(f"<{channels * n}f", *(float(v) for v in matrix.T.ravel()))
    fmt = struct.pack("<HHIIHH", 3, channels, rate, rate * 4 * channels, 4 * channels, 32)
    body = (
        b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"fact" + struct.pack("<II", 4, n)
        + b"data" + struct.pack("<I", len(data)) + data
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


def test_float32_wav_matches_packed_reference(tmp_path):
    rng = np.random.default_rng(3)
    base = rng.uniform(-2.0, 2.0, (4, 90))
    cases = {
        "mono": (MonoSignal(base[0, :31], 8000), False),
        "stereo": (StereoSignal([base[0, :17], base[1, :17]], 44100), False),
        "foa": (FoaSignal(base[:, :23], 48000), False),
        "ambix": (FoaSignal(base[:, :23], 48000), True),
        "strided": (MonoSignal(base[1, ::3], 16000), False),
    }
    for name, (signal, ambix) in cases.items():
        matrix = signal.channels
        if ambix:
            w, x, y, z = matrix
            matrix = np.stack([w * math.sqrt(2.0), y, z, x])
        path = tmp_path / f"{name}.wav"
        write_wav(signal, path, ambix=ambix)
        assert path.read_bytes() == _float32_wav_reference(matrix, signal.sample_rate), name


def test_pcm16_wav_round_trip_on_grid(tmp_path):
    rng = np.random.default_rng(1)
    grid = rng.integers(-32768, 32768, size=60) / 32768.0
    signal = MonoSignal(grid, 22050)
    path = tmp_path / "grid.wav"
    write_wav(signal, path, "pcm16")
    assert np.array_equal(read_wav(path).samples, grid)


def test_float32_wav_carries_fact_chunk(tmp_path):
    signal = MonoSignal(np.zeros(7), 8000)
    write_wav(signal, tmp_path / "f32.wav")
    assert b"fact" in (tmp_path / "f32.wav").read_bytes()
    write_wav(signal, tmp_path / "pcm.wav", "pcm16")
    assert b"fact" not in (tmp_path / "pcm.wav").read_bytes()


def test_ambix_disk_layout(tmp_path):
    w = np.array([0.5, -0.25])
    x = np.array([0.125, 0.0])
    y = np.array([-0.5, 0.0625])
    z = np.array([0.25, -0.125])
    signal = FoaSignal([w, x, y, z], 48000)
    path = tmp_path / "ambi.wav"
    write_wav(signal, path, ambix=True)

    # raw channel order on disk is w*sqrt(2), y, z, x
    raw = read_wav(path)
    scale = np.float64(np.float32(w * math.sqrt(2.0)))
    np.testing.assert_array_equal(raw.w, scale)
    assert np.array_equal(raw.x, y)
    assert np.array_equal(raw.y, z)
    assert np.array_equal(raw.z, x)

    back = read_wav(path, ambix=True)
    np.testing.assert_allclose(back.w, w, rtol=0, atol=1e-7)
    assert np.array_equal(back.x, x)
    assert np.array_equal(back.y, y)
    assert np.array_equal(back.z, z)


def test_ambix_requires_four_channels(tmp_path):
    mono = MonoSignal(np.zeros(4), 8000)
    with pytest.raises(SpecMismatch):
        write_wav(mono, tmp_path / "m.wav", ambix=True)
    write_wav(mono, tmp_path / "m.wav")
    with pytest.raises(SpecMismatch):
        read_wav(tmp_path / "m.wav", ambix=True)


def test_wav_spec_validation(tmp_path):
    with pytest.raises(UnsupportedFormat):
        write_wav(MonoSignal(np.zeros(4), 16000), tmp_path / "x.wav", "mp3")
    assert not (tmp_path / "x.wav").exists()


def test_wav_spec_refuses_a_byte_rate_past_32_bits(tmp_path):
    # The fmt chunk stores rate * channels * bytes per sample in 32 bits.
    path = tmp_path / "one.wav"
    for channels, rate, encoding in ((1, 0x7FFFFFFF, "pcm16"), (4, 0x3FFFFFFF // 4, "float32")):
        write_wav(signal_from_channels(np.zeros((channels, 1)), rate), path, encoding)
        back = read_wav(path)
        assert back.channels.shape == (channels, 1) and back.sample_rate == rate
    path.unlink()
    for channels, rate, encoding in (
        (1, 0x80000000, "pcm16"),
        (4, 0xFFFFFFFF, "pcm16"),
        (1, 0x40000000, "float32"),
        (2, 0xFFFFFFFF, "float32"),
    ):
        with pytest.raises(UnsupportedFormat, match="byte-rate"):
            write_wav(signal_from_channels(np.zeros((channels, 1)), rate), path, encoding)
        assert not path.exists()


def test_write_wav_refuses_a_data_chunk_past_32_bits(tmp_path):
    # A zero-stride matrix stands in for 2**30 frames without their memory.
    huge = SimpleNamespace(channels=np.broadcast_to(0.0, (4, 2**30)), sample_rate=16000)
    for encoding in ("pcm16", "float32"):
        with pytest.raises(UnsupportedFormat, match="RIFF size"):
            write_wav(huge, tmp_path / "huge.wav", encoding)
    assert not (tmp_path / "huge.wav").exists()


def test_write_wav_refuses_a_sample_past_the_float32_range(tmp_path):
    top = float(np.finfo(np.float32).max)
    path = tmp_path / "x.wav"
    # A value that rounds down to the float32 maximum still writes.
    edge = np.nextafter(top, math.inf)
    write_wav(MonoSignal([edge, -edge], 8000), path)
    assert read_wav(path).samples.tolist() == [top, -top]
    path.unlink()
    past = np.zeros((4, 3 * _BLOCK_FRAMES))
    past[2, -1] = 2.0 * top  # in the last block only
    # AmbiX scales w by sqrt(2), past the range: past float64's too for
    # the last case, whose overflow must raise no warning.
    huge = np.finfo(np.float64).max
    for matrix, ambix in ((past, False), (np.full((4, 2), top), True), (np.full((4, 2), huge), True)):
        with pytest.raises(SpecMismatch, match="float32 range"):
            write_wav(FoaSignal(matrix, 8000), path, ambix=ambix)
        assert not path.exists()
        # pcm16 saturates instead.
        write_wav(FoaSignal(matrix, 8000), path, "pcm16", ambix=ambix)
        assert np.abs(read_wav(path, ambix=ambix).channels).max() <= 1.0
        path.unlink()


def _wav_bytes(format_tag=1, channels=1, rate=8000, bits=16, data=b"\x00\x00", block=None):
    if block is None:
        block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", format_tag, channels, rate, rate * block, block, bits)
    body = b"WAVE"
    for fourcc, chunk in ((b"fmt ", fmt), (b"data", data)):
        body += fourcc + struct.pack("<I", len(chunk)) + chunk
    return b"RIFF" + struct.pack("<I", len(body)) + body


def test_read_wav_error_paths(tmp_path):
    cases = [
        (b"OggS" + b"\x00" * 40, CorruptHeader),  # not RIFF at all
        (_wav_bytes()[:30], CorruptHeader),  # data chunk truncated
        (_wav_bytes(bits=24), UnsupportedFormat),
        (_wav_bytes(format_tag=3, bits=64), UnsupportedFormat),
        (_wav_bytes(format_tag=7), UnsupportedFormat),  # mu-law
        (_wav_bytes(channels=3, data=b"\x00" * 6), ChannelCountUnsupported),
        (_wav_bytes(data=b""), CorruptHeader),  # no complete frame
        (_wav_bytes(rate=0), CorruptHeader),
        (_wav_bytes(block=4), CorruptHeader),  # block align disagrees with 2-byte frames
        (_wav_bytes(format_tag=3, bits=32, data=struct.pack("<ff", 0.5, math.nan)), ParseError),
        (_wav_bytes(format_tag=3, bits=32, data=struct.pack("<f", -math.inf)), ParseError),
    ]
    for k, (blob, err) in enumerate(cases):
        path = tmp_path / f"bad{k}.wav"
        path.write_bytes(blob)
        with pytest.raises(err):
            read_wav(path)
    with pytest.raises(IoFailure):
        read_wav(tmp_path / "missing.wav")


def test_read_wav_skips_odd_sized_foreign_chunks(tmp_path):
    # a 3-byte chunk forces the word-alignment padding path
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
    body = b"WAVE"
    body += b"junk" + struct.pack("<I", 3) + b"abc" + b"\x00"
    body += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", 4) + struct.pack("<hh", -32768, 16384)
    path = tmp_path / "padded.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    signal = read_wav(path)
    assert np.array_equal(signal.samples, [-1.0, 0.5])


def test_signal_channel_round_trip():
    rng = np.random.default_rng(2)
    for channels in (1, 2, 4):
        matrix = rng.standard_normal((channels, 10))
        signal = signal_from_channels(matrix, 16000)
        assert np.array_equal(signal.channels, matrix)
    with pytest.raises(ChannelCountUnsupported):
        signal_from_channels(rng.standard_normal((3, 10)), 16000)


def test_read_wav_decodes_into_a_c_contiguous_matrix(tmp_path):
    signal = FoaSignal(np.random.default_rng(12).uniform(-0.9, 0.9, (4, 25)), 16000)
    for name, encoding, ambix in (
        ("pcm16", "pcm16", False),
        ("float32", "float32", False),
        ("ambix", "float32", True),
    ):
        path = tmp_path / f"{name}.wav"
        write_wav(signal, path, encoding, ambix=ambix)
        channels = read_wav(path, ambix=ambix).channels
        assert channels.dtype == np.float64 and channels.flags.c_contiguous
        assert channels.shape == (4, 25)


def test_matrix_container_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((7, 5))
    matrix[0, :4] = [0.0, -0.0, 5e-324, 1e308]  # edge values survive verbatim
    path = tmp_path / "m.fmat"
    write_matrix(path, matrix)
    back = read_matrix(path)
    assert back.tobytes() == matrix.tobytes()


def test_matrix_container_errors(tmp_path):
    with pytest.raises(ValueError):
        write_matrix(tmp_path / "v.fmat", np.zeros(3))
    path = tmp_path / "m.fmat"
    write_matrix(path, np.zeros((2, 2)))
    blob = path.read_bytes()

    (tmp_path / "magic.fmat").write_bytes(b"XXXX0000" + blob[8:])
    with pytest.raises(CorruptHeader):
        read_matrix(tmp_path / "magic.fmat")
    (tmp_path / "short.fmat").write_bytes(blob[:-8])
    with pytest.raises(CorruptHeader):
        read_matrix(tmp_path / "short.fmat")
    (tmp_path / "long.fmat").write_bytes(blob + b"\x00")
    with pytest.raises(CorruptHeader):
        read_matrix(tmp_path / "long.fmat")
    # no payload bytes, but a row count numpy cannot hold
    (tmp_path / "huge.fmat").write_bytes(MATRIX_MAGIC + struct.pack("<QQ", 2**63, 0))
    with pytest.raises(CorruptHeader):
        read_matrix(tmp_path / "huge.fmat")
    with pytest.raises(IoFailure):
        read_matrix(tmp_path / "missing.fmat")


def test_matrix_text_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    matrix = rng.standard_normal((4, 3))
    path = tmp_path / "m.txt"
    write_matrix_text(path, matrix)  # %.17g keeps float64 exactly
    assert np.array_equal(read_matrix_text(path), matrix)


def test_matrix_text_parsing(tmp_path):
    path = tmp_path / "fancy.txt"
    path.write_text("# comment\n\n1, 2, 3\n4 5 6\n")
    assert np.array_equal(read_matrix_any(path), [[1, 2, 3], [4, 5, 6]])

    ragged = tmp_path / "ragged.txt"
    ragged.write_text("1 2\n3\n")
    with pytest.raises(ParseError) as err:
        read_matrix_text(ragged)
    assert "line 2" in str(err.value)

    bad = tmp_path / "bad.txt"
    bad.write_text("1 x\n")
    with pytest.raises(ParseError):
        read_matrix_text(bad)

    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ParseError):
        read_matrix_text(empty)

    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"1 2\n# caf\xe9\n")
    with pytest.raises(ParseError):
        read_matrix_text(latin1)


def test_read_matrix_any_dispatch(tmp_path):
    matrix = np.array([[1.5, -2.5]])
    write_matrix(tmp_path / "m.fmat", matrix)
    write_matrix_text(tmp_path / "m.tsv", matrix)
    assert np.array_equal(read_matrix_any(tmp_path / "m.fmat"), matrix)
    assert np.array_equal(read_matrix_any(tmp_path / "m.tsv"), matrix)
    assert (tmp_path / "m.fmat").read_bytes()[:8] == MATRIX_MAGIC
