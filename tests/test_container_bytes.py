"""Golden bytes for the three binary containers and for WAV files.

Each expected file is assembled here with ``struct`` and ``numpy`` alone,
following the documented layout, so these tests pin the on-disk format
independently of the codec that writes it.
"""

import struct

import numpy as np

from foagen.audio_io import WavSpec, read_matrix, read_wav, write_matrix, write_wav
from foagen.foa import signal_from_channels
from foagen.flow.network import VelocityModel, load_model, save_model
from foagen.panorama import read_frame, write_frame

# Values whose bit patterns a lossy path would disturb.
SPECIAL = [0.1, -0.0, 5e-324, -1.7976931348623157e308, 2.0 ** -1022, 1.0 / 3.0]


def _f8(values) -> bytes:
    flat = [float(v) for v in np.asarray(values, dtype=np.float64).ravel(order="C")]
    return struct.pack(f"<{len(flat)}d", *flat)


def _bits(arr: np.ndarray) -> bytes:
    return np.asarray(arr, dtype=np.float64).tobytes()


def test_fmat_golden_bytes(tmp_path):
    matrix = np.asfortranarray(np.array(SPECIAL).reshape(2, 3))
    expected = b"FMAT0001" + struct.pack("<QQ", 2, 3) + _f8(matrix)
    path = tmp_path / "m.fmat"
    write_matrix(path, matrix)
    assert path.read_bytes() == expected

    path.write_bytes(expected)
    got = read_matrix(path)
    assert got.dtype == np.float64 and got.shape == (2, 3)
    assert _bits(got) == _bits(np.ascontiguousarray(matrix))


def test_fmat_golden_bytes_empty_rows(tmp_path):
    expected = b"FMAT0001" + struct.pack("<QQ", 0, 4)
    path = tmp_path / "e.fmat"
    write_matrix(path, np.zeros((0, 4)))
    assert path.read_bytes() == expected
    assert read_matrix(path).shape == (0, 4)


def test_fframe_golden_bytes(tmp_path):
    rng = np.random.default_rng(11)
    for shape in ((2, 4, 3), (3, 6, 1)):
        frame = rng.random(shape)
        frame.flat[0] = SPECIAL[2]
        expected = b"FFRM0001" + struct.pack("<QQQ", *shape) + _f8(frame)
        path = tmp_path / f"f{shape[2]}.fframe"
        write_frame(path, frame)
        assert path.read_bytes() == expected

        path.write_bytes(expected)
        got = read_frame(path)
        assert got.dtype == np.float64 and got.shape == shape
        assert _bits(got) == _bits(frame)


def test_fgvm_golden_bytes(tmp_path):
    # latent 2, condition 1, one hidden layer of 3: widths 4, 3, 2
    widths = [4, 3, 2]
    rng = np.random.default_rng(12)
    weights = [rng.standard_normal((4, 3)), rng.standard_normal((3, 2))]
    biases = [np.array(SPECIAL[:3]), np.array(SPECIAL[3:5])]
    model = VelocityModel(2, 1, weights, biases)
    expected = (
        b"FGVM0001"
        + struct.pack("<I", len(widths))
        + struct.pack(f"<{len(widths)}I", *widths)
        + _f8(weights[0]) + _f8(biases[0])
        + _f8(weights[1]) + _f8(biases[1])
    )
    path = tmp_path / "m.fgvm"
    save_model(model, path)
    assert path.read_bytes() == expected

    path.write_bytes(expected)
    loaded = load_model(path)
    assert (loaded.latent_dim, loaded.cond_dim, loaded.widths) == (2, 1, widths)
    for got, want in zip(loaded.weights + loaded.biases, weights + biases):
        assert got.shape == want.shape
        assert _bits(got) == _bits(want)


# --- WAV -----------------------------------------------------------------------

# Frames per encoding block of foagen.audio_io; the lengths below straddle it.
WAV_BLOCK = 8192
WAV_LENGTHS = (1, WAV_BLOCK - 1, WAV_BLOCK, WAV_BLOCK + 1, 3 * WAV_BLOCK + 7)
# Rounding ties, the values one code either side of the int16 limits, and
# values past full scale that must saturate.
WAV_EDGES = [
    0.5 / 32768, -0.5 / 32768, 1.5 / 32768, -1.5 / 32768, 0.49999999999999994 / 32768,
    -0.0, 32767.5 / 32768, -32768.5 / 32768, 32766.5 / 32768, 1.0, -1.0, 2.0, -2.0, 1e9,
]

# Omni samples whose AmbiX pcm16 code, (w * sqrt(2)) * 32768, lies within
# an ulp of a rounding tie, so the order of those products shows.
AMBIX_TIES = (np.arange(-300, 300) + 0.5) / 32768 / np.sqrt(2.0)


def _wav_signal(rng, channels: int, n: int):
    matrix = rng.uniform(-1.1, 1.1, (channels, n))
    for row in range(channels):
        edges = np.roll(WAV_EDGES, row)[:n]
        matrix[row, : len(edges)] = edges
        matrix[row, n - len(edges) :] = -edges
    if channels == 4 and n > 2 * len(AMBIX_TIES):
        matrix[0, len(AMBIX_TIES) : 2 * len(AMBIX_TIES)] = AMBIX_TIES
    return signal_from_channels(matrix, 16000 + channels)


def _pcm16_codes(matrix) -> np.ndarray:
    # Scale, round half away from zero, saturate.
    scaled = np.asarray(matrix, dtype=np.float64) * 32768.0
    rounded = np.copysign(np.floor(np.abs(scaled) + 0.5), scaled)
    return np.clip(rounded, -32768, 32767).astype("<i2")


def _wav_expected(matrix, rate: int, encoding: str) -> bytes:
    channels, n = matrix.shape
    if encoding == "pcm16":
        data = _pcm16_codes(matrix.T).tobytes()
        tag, bits, fact = 1, 16, b""
    else:
        data = np.asarray(matrix.T, dtype="<f4").tobytes()
        tag, bits, fact = 3, 32, b"fact" + struct.pack("<II", 4, n)
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, bits)
    body = (
        b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + fact
        + b"data" + struct.pack("<I", len(data)) + data
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


def test_wav_golden_bytes(tmp_path):
    rng = np.random.default_rng(16)
    sqrt2 = np.sqrt(2.0)
    for n in WAV_LENGTHS:
        for channels, ambix in ((1, False), (2, False), (4, False), (4, True)):
            signal = _wav_signal(rng, channels, n)
            disk = signal.channels
            if ambix:  # w*sqrt(2), y, z, x on disk
                w, x, y, z = disk
                disk = np.array([w * sqrt2, y, z, x])
            for encoding in ("pcm16", "float32"):
                label = (n, channels, ambix, encoding)
                expected = _wav_expected(disk, signal.sample_rate, encoding)
                path = tmp_path / "s.wav"
                spec = WavSpec(channels, signal.sample_rate, encoding)
                write_wav(signal, path, spec, ambix=ambix)
                assert path.read_bytes() == expected, label

                path.write_bytes(expected)
                got = read_wav(path, ambix=ambix).channels
                if encoding == "pcm16":
                    file_rows = _pcm16_codes(disk) / 32768.0
                else:
                    file_rows = disk.astype(np.float32).astype(np.float64)
                want = file_rows
                if ambix:
                    want = np.array([file_rows[0] / sqrt2, file_rows[3], file_rows[1], file_rows[2]])
                assert got.dtype == np.float64 and got.shape == (channels, n), label
                assert _bits(got) == _bits(want), label
