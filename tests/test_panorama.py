import math

import numpy as np
import pytest

import foagen.container
import foagen.panorama
from foagen.errors import (
    CorruptHeader,
    IoFailure,
    NotErpAspect,
    ShapeMismatch,
    TooFewFrames,
    UnsupportedFormat,
)
from foagen.panorama import (
    CameraSpec,
    FOV_PRESETS,
    StoredFrame,
    check_frame,
    erp_to_perspective,
    fov_cameras,
    frame_mse,
    make_fov_cuts,
    pad_to_square,
    read_frame,
    stationarity_verdict,
    write_frame,
)


def _gradient_erp(height=32, channels=1):
    """ERP whose value at pixel column j is (j + 0.5) / width.

    Linear in the horizontal sampling coordinate, so bilinear lookups
    reproduce u / width exactly away from the wrap seam.
    """
    width = 2 * height
    col = (np.arange(width) + 0.5) / width
    return np.broadcast_to(col[None, :, None], (height, width, channels)).copy()


def test_pad_to_square_even_split():
    erp = np.arange(4 * 8 * 1, dtype=float).reshape(4, 8, 1) / 100.0
    out = pad_to_square(erp)
    assert out.shape == (8, 8, 1)
    assert np.array_equal(out[2:6], erp)
    assert np.all(out[:2] == 0.0)
    assert np.all(out[6:] == 0.0)


def test_pad_to_square_odd_remainder_goes_below():
    erp = np.ones((3, 6, 1))
    out = pad_to_square(erp)
    # 3 rows of padding: 1 above, 2 below
    assert np.all(out[0] == 0.0)
    assert np.array_equal(out[1:4], erp)
    assert np.all(out[4:] == 0.0)


def test_pad_rejects_wrong_aspect():
    with pytest.raises(NotErpAspect):
        pad_to_square(np.ones((4, 9, 1)))


def test_camera_spec_validation():
    assert CameraSpec(yaw=2.0 * math.pi).yaw == 0.0
    with pytest.raises(ValueError):
        CameraSpec(pitch=2.0)
    with pytest.raises(ValueError):
        CameraSpec(hfov=math.pi)
    with pytest.raises(ValueError):
        CameraSpec(out_width=0)


def test_perspective_of_constant_frame_is_constant():
    erp = np.full((16, 32, 3), 0.625)
    for yaw, pitch in FOV_PRESETS["6cuts"]:
        cam = CameraSpec(yaw=yaw, pitch=pitch, out_width=20, out_height=12)
        cut = erp_to_perspective(erp, cam)
        assert cut.shape == (12, 20, 3)
        assert np.all(cut == 0.625)


def test_forward_cut_center_hits_front_of_panorama():
    erp = _gradient_erp(64)
    # odd output dims put one pixel ray exactly on the camera axis
    cam = CameraSpec(yaw=0.0, pitch=0.0, out_width=33, out_height=33)
    cut = erp_to_perspective(erp, cam)
    center = cut[16, 16, 0]
    # longitude 0 sits at u = width/2, i.e. value 0.5 on the gradient
    assert abs(center - 0.5) < 1e-12


def test_gradient_cut_matches_projection_formula():
    # every pixel of a yaw=0 cut of the gradient frame equals u / width;
    # at pitch 0 the longitude of a ray depends only on its column
    erp = _gradient_erp(32)
    cam = CameraSpec(hfov=math.pi / 2, out_width=17, out_height=9)
    cut = erp_to_perspective(erp, cam)

    half_w = math.tan(cam.hfov / 2)
    ndc_x = (np.arange(cam.out_width) + 0.5) / cam.out_width * 2 - 1
    lon = np.arctan2(ndc_x * half_w, 1.0)
    expect = lon / (2 * math.pi) + 0.5
    for i in range(cam.out_height):
        np.testing.assert_allclose(cut[i, :, 0], expect, rtol=0, atol=1e-12)


def test_rear_cut_wraps_seam_like_rolled_panorama():
    rng = np.random.default_rng(0)
    erp = rng.random((16, 32, 3))
    cam_back = CameraSpec(yaw=math.pi, out_width=15, out_height=11)
    cam_front = CameraSpec(yaw=0.0, out_width=15, out_height=11)
    # rolling half a turn moves the seam to the image center
    rolled = np.roll(erp, -16, axis=1)
    a = erp_to_perspective(erp, cam_back)
    b = erp_to_perspective(rolled, cam_front)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_make_fov_cuts_counts():
    erp = np.random.default_rng(1).random((8, 16, 1))
    assert len(make_fov_cuts(erp, "front", out_width=8, out_height=8)) == 1
    assert len(make_fov_cuts(erp, "2cuts", out_width=8, out_height=8)) == 2
    assert len(make_fov_cuts(erp, "4cuts", out_width=8, out_height=8)) == 4
    assert len(make_fov_cuts(erp, "6cuts", out_width=8, out_height=8)) == 6
    with pytest.raises(ValueError):
        make_fov_cuts(erp, "8cuts")


def _fancy_index_bilinear(erp, u, v):
    """Reference sampler: 2-D fancy-index gathers and the nested lerp."""
    height, width = erp.shape[0], erp.shape[1]
    x = u - 0.5
    y = v - 0.5
    j0 = np.floor(x).astype(np.int64)
    i0 = np.floor(y).astype(np.int64)
    fx = (x - j0)[..., None]
    fy = (y - i0)[..., None]
    j0w = j0 % width
    j1w = (j0 + 1) % width
    i0c = np.clip(i0, 0, height - 1)
    i1c = np.clip(i0 + 1, 0, height - 1)
    top = erp[i0c, j0w]
    top = top + fx * (erp[i0c, j1w] - top)
    bottom = erp[i1c, j0w]
    bottom = bottom + fx * (erp[i1c, j1w] - bottom)
    return top + fy * (bottom - top)


@pytest.mark.parametrize("channels", [1, 3])
def test_sampler_matches_fancy_index_reference(channels, monkeypatch):
    rng = np.random.default_rng(21)
    base = rng.random((48, 192, 3))
    erps = {
        "contiguous": np.ascontiguousarray(base[:, :96, :channels]),
        "strided view": base[:, ::2, 3 - channels :],
    }
    assert not erps["strided view"].flags.c_contiguous
    # Stored anymap pixels, as read_stored returns them (16-bit is big-endian).
    for maxval, dtype in ((255, "u1"), (65535, ">u2")):
        pixels = np.rint(base[:, :96, :channels] * maxval).astype(dtype)
        erps[f"stored {dtype}"] = StoredFrame(pixels, maxval)
    cameras = fov_cameras("6cuts", 2.0 * math.pi / 3.0, 24, 16)
    cameras += [  # at the seam, at the poles and anywhere
        CameraSpec(math.pi, 0.0, 1.2, 9, 13),
        CameraSpec(-math.pi + 1e-9, 0.3, 2.5, 16, 16),
        CameraSpec(0.4, math.pi / 2, 3.0, 12, 8),
        CameraSpec(-2.0, -math.pi / 2, 0.5, 7, 7),
    ]
    cameras += [
        CameraSpec(rng.uniform(-4, 4), rng.uniform(-1.5, 1.5), rng.uniform(0.2, 3.0), 11, 5)
        for _ in range(6)
    ]

    checked = []
    sampler = foagen.panorama._bilinear_wrap_clamp

    def compare(erp, u, v, maxval, out):
        assert out.shape == u.shape + (channels,)
        sampler(erp, u, v, maxval, out)
        decoded = erp if maxval is None else np.divide(erp, maxval, dtype=np.float64)
        assert np.array_equal(out, _fancy_index_bilinear(decoded, u, v))
        checked.append(u.size)

    monkeypatch.setattr(foagen.panorama, "_bilinear_wrap_clamp", compare)
    for erp in erps.values():
        for camera in cameras:
            erp_to_perspective(erp, camera)
        # coordinates past every edge: wrap left and right, clamp top and bottom
        u = rng.uniform(-300.0, 400.0, (5, 7))
        v = rng.uniform(-20.0, 70.0, (5, 7))
        pixels, maxval = erp if isinstance(erp, StoredFrame) else (erp, None)
        compare(pixels, u, v, maxval, np.empty(u.shape + (channels,)))
    assert len(checked) == 4 * (len(cameras) + 1)


def _full_grid_perspective(erp, camera):
    """Reference cut: every ray component as a full (out_height, out_width) grid."""
    height, width = erp.shape[0], erp.shape[1]
    half_w = math.tan(camera.hfov / 2.0)
    half_h = half_w * camera.out_height / camera.out_width
    shape = (camera.out_height, camera.out_width)
    ndc_x = (np.arange(camera.out_width) + 0.5) / camera.out_width * 2.0 - 1.0
    ndc_y = (np.arange(camera.out_height) + 0.5) / camera.out_height * 2.0 - 1.0
    cam_left = np.broadcast_to(ndc_x * half_w, shape)
    cam_up = np.broadcast_to((-ndc_y * half_h)[:, None], shape)
    cam_front = np.ones(shape)
    cos_p, sin_p = math.cos(camera.pitch), math.sin(camera.pitch)
    cos_y, sin_y = math.cos(camera.yaw), math.sin(camera.yaw)
    x_p = cos_p * cam_front - sin_p * cam_up
    z_w = sin_p * cam_front + cos_p * cam_up
    x_w = cos_y * x_p - sin_y * cam_left
    y_w = sin_y * x_p + cos_y * cam_left
    longitude = np.arctan2(y_w, x_w)
    latitude = np.arctan2(z_w, np.hypot(x_w, y_w))
    u = (longitude / (2.0 * math.pi) + 0.5) * width
    v = (0.5 - latitude / math.pi) * height
    return _fancy_index_bilinear(erp, u, v)


def test_cut_geometry_matches_full_grid_reference():
    rng = np.random.default_rng(23)
    rgb = rng.random((32, 64, 3))
    erps = [rgb, np.ascontiguousarray(rgb[:, :, :1]), rng.random((32, 128, 1))[:, ::2]]
    cameras = [
        camera
        for width, height in [(16, 16), (24, 10), (7, 19), (1, 1)]
        for camera in fov_cameras("6cuts", 2.0 * math.pi / 3.0, width, height)
    ]
    cameras += [
        CameraSpec(math.pi, 0.0, 1.2, 9, 13),
        CameraSpec(0.4, math.pi / 2, 3.0, 12, 8),
        CameraSpec(-2.0, -math.pi / 2, 0.5, 7, 7),
    ]
    cameras += [
        CameraSpec(rng.uniform(-4, 4), rng.uniform(-1.5, 1.5), rng.uniform(0.2, 3.0),
                   int(rng.integers(1, 20)), int(rng.integers(1, 20)))
        for _ in range(20)
    ]
    for erp in erps:
        for camera in cameras:
            assert np.array_equal(
                erp_to_perspective(erp, camera), _full_grid_perspective(erp, camera)
            ), camera


@pytest.mark.parametrize("block", [1, 7, 1 << 20])
def test_cut_does_not_depend_on_the_block_size(block, monkeypatch):
    # 1 pixel and 7 pixels (which divides no width below) split every cut,
    # and 2**20 holds each one whole.
    monkeypatch.setattr(foagen.panorama, "_BLOCK_PIXELS", block)
    rng = np.random.default_rng(24)
    base = rng.random((32, 128, 3))
    erps = {
        "float rgb": np.ascontiguousarray(base[:, :64]),
        "float grey strided view": base[:, ::2, 1:2],
    }
    assert not erps["float grey strided view"].flags.c_contiguous
    for maxval, dtype in ((255, "u1"), (65535, ">u2")):
        for channels in (1, 3):
            pixels = np.rint(base[:, :64, :channels] * maxval).astype(dtype)
            erps[f"stored {dtype} x{channels}"] = StoredFrame(pixels, maxval)
    cameras = [
        CameraSpec(math.pi, 0.0, 1.2, 9, 13),  # the seam; one row per 7-pixel block
        CameraSpec(-math.pi + 1e-9, 0.3, 2.5, 20, 6),
        CameraSpec(0.4, math.pi / 2, 3.0, 3, 8),  # a pole; two rows per 7-pixel block
        CameraSpec(-2.0, -math.pi / 2, 0.5, 5, 11),
        CameraSpec(0.0, 0.0, 2.0, 1, 1),
    ]
    for name, erp in erps.items():
        if isinstance(erp, StoredFrame):
            decoded = np.divide(erp.pixels, erp.maxval, dtype=np.float64)
        else:
            decoded = erp
        for camera in cameras:
            got = erp_to_perspective(erp, camera)
            want = _full_grid_perspective(decoded, camera)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (name, camera)


def test_frame_mse_matches_squared_difference_mean():
    rng = np.random.default_rng(22)
    for shape in [(2, 4, 1), (17, 34, 3), (64, 128, 1)]:
        a = rng.random(shape)
        b = rng.random(shape)
        assert frame_mse(a, b) == float(np.mean((a - b) ** 2))
    rgb = rng.random((16, 64, 3))
    a, b = rgb[:, ::2, :1], rgb[:, 1::2, 2:]  # non-contiguous views
    assert frame_mse(a, b) == float(np.mean((a - b) ** 2))


def test_frame_mse():
    a = np.zeros((2, 4, 1))
    b = np.full((2, 4, 1), 0.5)
    assert frame_mse(a, b) == 0.25
    assert frame_mse(a, a) == 0.0
    with pytest.raises(ShapeMismatch):
        frame_mse(a, np.zeros((4, 2, 1)))


def _stored_pair_cases(tmp_path):
    """(stored a, stored b, expected verdict, threshold) over seeded random
    anymap pairs: 8- and 16-bit, 1 and 3 channels, odd shapes, pairs from
    identical to unrelated, and thresholds on, just below and just above
    the float MSE of the decoded frames."""
    rng = np.random.default_rng(31)
    cases = []
    for k in range(240):
        bit_depth = (8, 16)[k % 2]
        channels = (1, 3)[(k // 2) % 2]
        shape = (int(rng.integers(1, 24)), int(rng.integers(1, 40)), channels)
        suffix = ".pgm" if channels == 1 else ".ppm"
        a = rng.random(shape)
        # Identical, a few levels apart, or unrelated (8-bit differences past 181).
        scale = (0.0, 1.0 / 255, 0.03, 1.0)[(k // 4) % 4]
        b = np.clip(a + scale * rng.standard_normal(shape), 0.0, 1.0)
        paths = tmp_path / f"a{k}{suffix}", tmp_path / f"b{k}{suffix}"
        for path, frame in zip(paths, (a, b)):
            write_frame(path, frame, bit_depth=bit_depth)
        mse = frame_mse(read_frame(paths[0]), read_frame(paths[1]))
        thresholds = [0.0, 1e-3, mse, float(np.nextafter(mse, -1.0)), float(np.nextafter(mse, 2.0))]
        thresholds.append(float(rng.uniform(0.0, 2.0 * mse + 1e-9)))
        stored = [foagen.panorama.read_stored(path) for path in paths]
        cases += [(*stored, mse < t, t) for t in thresholds]
    return cases


def test_stored_comparison_gives_the_float_verdict(tmp_path, monkeypatch):
    cases = _stored_pair_cases(tmp_path)
    decoded = []
    decode = foagen.panorama._decoded

    def counting_decode(frame):
        decoded.append(frame.maxval)
        return decode(frame)

    monkeypatch.setattr(foagen.panorama, "_decoded", counting_decode)
    for a, b, want, threshold in cases:
        assert foagen.panorama._mse_below(a, b, threshold) is want, (a.pixels.shape, a.maxval, threshold)
    # Both bit depths hit the threshold closely enough to fall back to the float MSE.
    assert {255, 65535} <= set(decoded)
    assert len(decoded) < len(cases)  # the rest was decided from integers


def test_stored_comparison_falls_back_to_floats(tmp_path):
    # .fframe pairs, mixed maxvals and float frames take the float MSE.
    rng = np.random.default_rng(32)
    frames = {}
    for name, bit_depth in (("a.fframe", None), ("b.fframe", None), ("c.pgm", 8), ("d.pgm", 16)):
        frame = rng.random((5, 7, 1))
        if bit_depth is None:
            write_frame(tmp_path / name, frame)
        else:
            write_frame(tmp_path / name, frame, bit_depth=bit_depth)
        frames[name] = read_frame(tmp_path / name)
    read_stored = foagen.panorama.read_stored
    for x, y in (("a.fframe", "b.fframe"), ("c.pgm", "d.pgm"), ("a.fframe", "c.pgm")):
        mse = frame_mse(frames[x], frames[y])
        for threshold in (mse, float(np.nextafter(mse, 1.0))):
            want = mse < threshold
            a, b = read_stored(tmp_path / x), read_stored(tmp_path / y)
            assert foagen.panorama._mse_below(a, b, threshold) is want
            assert foagen.panorama._mse_below(frames[x], b, threshold) is want
    with pytest.raises(ShapeMismatch):
        foagen.panorama._mse_below(read_stored(tmp_path / "c.pgm"), np.zeros((7, 5, 1)), 1.0)


def test_stationarity_all_static():
    frame = np.full((4, 8, 1), 0.25)
    result = stationarity_verdict([frame] * 33, interval=8)
    assert result.stationary
    assert result.ratio == 1.0
    assert result.comparisons == 4


def test_stationarity_moving_sequence():
    rng = np.random.default_rng(2)
    frames = [rng.random((4, 8, 1)) for _ in range(33)]
    result = stationarity_verdict(frames, interval=8)
    assert not result.stationary
    assert result.ratio == 0.0


def test_stationarity_threshold_is_strict():
    static = np.zeros((2, 4, 1))
    moving = np.ones((2, 4, 1))
    # comparisons at interval 1: pairs (0,1), (1,2), (2,3), (3,4)
    frames = [static, static, static, static, moving]
    result = stationarity_verdict(frames, interval=1, ratio_threshold=0.75)
    assert result.ratio == 0.75
    assert not result.stationary  # needs strictly more than the threshold


def test_stationarity_needs_two_comparisons():
    frame = np.zeros((2, 4, 1))
    with pytest.raises(TooFewFrames):
        stationarity_verdict([frame] * 16, interval=8)


def test_raw_frame_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    frame = rng.random((5, 7, 3))
    path = tmp_path / "cut.fframe"
    write_frame(path, frame)
    assert np.array_equal(read_frame(path), frame)


def test_pgm_round_trip_on_grid_values(tmp_path):
    # values on the 8-bit grid survive quantization unchanged
    levels = np.arange(256, dtype=float) / 255.0
    frame = levels.reshape(16, 16)[:8, :].reshape(8, 16, 1)
    path = tmp_path / "cut.pgm"
    write_frame(path, frame, bit_depth=8)
    assert np.array_equal(read_frame(path), frame)


def test_ppm_16_bit_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    grid = rng.integers(0, 65536, size=(4, 6, 3))
    frame = grid / 65535.0
    path = tmp_path / "cut.ppm"
    write_frame(path, frame, bit_depth=16)
    np.testing.assert_allclose(read_frame(path), frame, rtol=0, atol=1e-12)


@pytest.mark.parametrize("bit_depth", [8, 16])
@pytest.mark.parametrize("suffix, channels", [(".pgm", 1), (".ppm", 3)])
def test_read_frame_matches_integer_scaling(tmp_path, bit_depth, suffix, channels):
    frame = np.random.default_rng(23).random((9, 14, channels))
    path = tmp_path / f"cut{suffix}"
    write_frame(path, frame, bit_depth=bit_depth)
    maxval = (1 << bit_depth) - 1
    blob = path.read_bytes()
    offset = len(b"P5\n14 9\n%d\n" % maxval)
    stored = np.frombuffer(blob, "u1" if bit_depth == 8 else ">u2", offset=offset)
    want = stored.reshape(9, 14, channels).astype(np.float64) / maxval
    assert np.array_equal(read_frame(path), want)


class _CountingFile:
    """File wrapper that records how many bytes each read returned."""

    def __init__(self, fh, reads):
        self._fh = fh
        self._reads = reads

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def fileno(self):
        return self._fh.fileno()

    def read(self, size=-1):
        data = self._fh.read(size)
        self._reads.append(len(data))
        return data


def test_check_frame_reads_only_the_header(tmp_path, monkeypatch):
    path = tmp_path / "big.pgm"
    write_frame(path, np.random.default_rng(24).random((512, 1024, 1)))
    reads = []
    monkeypatch.setattr(
        foagen.container, "open",
        lambda *args, **kwargs: _CountingFile(open(*args, **kwargs), reads),
        raising=False,
    )
    check_frame(path)
    assert 0 < sum(reads) <= 4096

    short = tmp_path / "short.pgm"
    short.write_bytes(path.read_bytes()[:-1])
    reads.clear()
    with pytest.raises(CorruptHeader):
        check_frame(short)
    assert 0 < sum(reads) <= 4096


def test_frame_format_errors(tmp_path):
    frame = np.zeros((2, 4, 3))
    with pytest.raises(UnsupportedFormat):
        write_frame(tmp_path / "cut.png", frame)
    with pytest.raises(UnsupportedFormat):
        write_frame(tmp_path / "cut.pgm", frame)  # 3 channels into grayscale
    with pytest.raises(UnsupportedFormat):
        write_frame(tmp_path / "cut.ppm", np.zeros((2, 4, 1)))


def test_corrupt_frame_files(tmp_path):
    frame = np.random.default_rng(5).random((3, 4, 1))
    path = tmp_path / "cut.fframe"
    write_frame(path, frame)
    blob = path.read_bytes()

    truncated = tmp_path / "trunc.fframe"
    truncated.write_bytes(blob[:-8])
    with pytest.raises(CorruptHeader):
        read_frame(truncated)

    padded = tmp_path / "padded.fframe"
    padded.write_bytes(blob + b"\x00")
    with pytest.raises(CorruptHeader):
        read_frame(padded)

    garbage = tmp_path / "garbage.fframe"
    garbage.write_bytes(b"not a frame at all")
    with pytest.raises(UnsupportedFormat):
        read_frame(garbage)

    for k, blob in enumerate([
        b"P5\n4 3\n255\n\x00\x00",  # pixel data cut short
        b"P5\n4 3\n# no end of line",  # unterminated comment
        b"P5\n0 3\n255\n",  # no columns
        b"P5\n4#c 3\n255\n" + bytes(12),  # a comment only starts after whitespace
        b"P5 4 3255\n",  # two tokens: one token never splits into two
    ]):
        bad_pnm = tmp_path / f"bad{k}.pgm"
        bad_pnm.write_bytes(blob)
        for reader in (read_frame, check_frame):
            with pytest.raises(CorruptHeader):
                reader(bad_pnm)

    commented = tmp_path / "commented.pgm"
    commented.write_bytes(b"P5\n# written by hand\n2 1 # width height\n255\n\x00\xff")
    np.testing.assert_array_equal(read_frame(commented), [[[0.0], [1.0]]])


@pytest.mark.parametrize("header, shape", [
    (b"P5# right after the magic\n2 1\n255\n", (1, 2, 1)),
    (b"P5 #a\n2 #b\n#c\n1\t#d\n255\n", (1, 2, 1)),  # comments between all tokens
    (b"P5\r2\x0b1\x0c255\r", (1, 2, 1)),  # CR, VT and FF are whitespace
    (b"P54 3 255\n", (3, 4, 1)),  # no whitespace after the magic
    (b"P5 +4 1_0 255\n", (10, 4, 1)),  # tokens that int() reads
    (b"P6\n2 1\n65535\n", (1, 2, 3)),
])
def test_anymap_header_forms(header, shape, tmp_path):
    path = tmp_path / "f.pgm"
    itemsize = 2 if b"65535" in header else 1
    path.write_bytes(header + bytes(math.prod(shape) * itemsize))
    assert check_frame(path) == shape
    assert read_frame(path).shape == shape


def test_check_frame_and_read_frame_fail_alike_on_an_unopenable_path(tmp_path):
    for path in ("a\x00b.pgm", tmp_path):
        for reader in (read_frame, check_frame):
            with pytest.raises(IoFailure):
                reader(path)
