"""Golden bytes for the three binary containers.

Each expected file is assembled here with ``struct`` and ``numpy`` alone,
following the documented layout, so these tests pin the on-disk format
independently of the codec that writes it.
"""

import struct

import numpy as np

from foagen.audio_io import read_matrix, write_matrix
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
