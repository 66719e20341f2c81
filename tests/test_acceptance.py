"""End-to-end acceptance checks, one verdict line per shipped guarantee.

Run ``pytest -s tests/test_acceptance.py`` to see the lines. Every check
derives its expectation independently of the code under test (closed
forms, counting oracles, replay fixtures) and fails loudly rather than
loosening a tolerance.
"""

import contextlib
import io
import math
import time

import numpy as np

from foagen.audio_io import read_matrix, read_wav, write_matrix, write_wav
from foagen.cleaning import (
    ClipManifestEntry,
    run_pipeline,
    silence_verdict,
    speech_filter,
)
from foagen.cli import build_parser, main
from foagen.flow import (
    CfgSpec,
    MIXTURE_CLASS_IDS,
    MIXTURE_MEANS,
    MaskSpec,
    VelocityModel,
    cfg_velocity,
    make_mask,
    sample_mixture,
    train_mixture,
)
from foagen.foa import Direction, FoaSignal, MonoSignal, estimate_doa, spatialize_mono
from foagen.metrics import frechet_distance, spatial_angle_error, theta_error
from foagen.panorama import (
    CameraSpec,
    erp_to_perspective,
    make_fov_cuts,
    stationarity_verdict,
    write_frame,
)

HALF_PI = math.pi / 2


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_01_direction_round_trip():
    rng = np.random.default_rng(2024)
    worst_theta = 0.0
    worst_phi = 0.0
    start = time.perf_counter()
    for _ in range(1000):
        theta = float(rng.uniform(-math.pi, math.pi))
        phi = float(rng.uniform(-(HALF_PI - 1e-3), HALF_PI - 1e-3))
        mono = MonoSignal(0.5 * rng.standard_normal(32), 16000)
        est = estimate_doa(spatialize_mono(mono, Direction(theta, phi)))
        worst_theta = max(worst_theta, theta_error(theta, est.azimuth))
        worst_phi = max(worst_phi, abs(est.elevation - phi))
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "encode/estimate direction round trip over 1000 random pairs",
        worst_theta < 1e-9 and worst_phi < 1e-9 and elapsed < 1.0,
        f"max az err {worst_theta:.2e}, max el err {worst_phi:.2e}, {elapsed:.2f}s",
    )


def test_02_angle_metric_identities():
    wrap_exact = theta_error(0.0, 3 * HALF_PI) == HALF_PI
    antipodal = abs(
        spatial_angle_error(Direction(0.0, 0.0), Direction(math.pi, 0.0)) - math.pi
    )

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        a = Direction(rng.uniform(-math.pi, math.pi), rng.uniform(-HALF_PI, HALF_PI))
        b = Direction(rng.uniform(-math.pi, math.pi), rng.uniform(-HALF_PI, HALF_PI))
        dot = float(np.clip(np.dot(a.unit_vector(), b.unit_vector()), -1.0, 1.0))
        worst = max(worst, abs(spatial_angle_error(a, b) - math.acos(dot)))
    _verdict(
        2,
        "angle-error identities and dot-product agreement on 1000 pairs",
        wrap_exact and antipodal <= 1e-12 and worst < 1e-9,
        f"antipodal dev {antipodal:.2e}, max oracle dev {worst:.2e}",
    )


def test_03_frechet_distance_oracle():
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    a = rng.standard_normal((50_000, 1))
    b = rng.standard_normal((50_000, 1)) + 1.0
    shifted = frechet_distance(a, b)
    identical = frechet_distance(a, a)
    elapsed = time.perf_counter() - start
    _verdict(
        3,
        "unit mean shift between 50k-sample normal sets scores 1.0",
        abs(shifted - 1.0) <= 0.05 and identical < 1e-8 and elapsed < 5.0,
        f"fd {shifted:.4f}, self {identical:.1e}, {elapsed:.2f}s",
    )


def test_04_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(20):
        latent = int(rng.integers(1, 4))
        cond = int(rng.integers(0, 5))
        depth = int(rng.integers(1, 3))
        hidden = tuple(int(rng.integers(2, 7)) for _ in range(depth))
        model = VelocityModel.initialize(latent, cond, hidden, rng)
        frames = int(rng.integers(1, 4))
        x = rng.standard_normal((frames, latent))
        c = rng.standard_normal((frames, cond)) if cond else None
        target = rng.standard_normal((frames, latent))
        t = float(rng.random())

        def loss() -> float:
            diff = model.forward(t, c, x) - target
            return float(np.mean(np.sum(diff**2, axis=1) / diff.shape[1]))

        out, cache = model.forward_cached(t, c, x)
        analytic = model.backward(
            cache, 2.0 * (out - target) / (out.shape[0] * out.shape[1])
        )
        h = 1e-5
        for layer, (aw, ab) in enumerate(analytic):
            for params, grads in (
                (model.weights[layer], aw),
                (model.biases[layer], ab),
            ):
                for idx in np.ndindex(params.shape):
                    keep = params[idx]
                    params[idx] = keep + h
                    up = loss()
                    params[idx] = keep - h
                    down = loss()
                    params[idx] = keep
                    numeric = (up - down) / (2 * h)
                    rel = abs(grads[idx] - numeric) / max(abs(numeric), 1e-8)
                    worst = max(worst, rel)
    _verdict(
        4,
        "backprop matches central differences on 20 random networks",
        worst < 1e-4,
        f"max relative gradient error {worst:.2e}",
    )


def test_05_mixture_transport():
    start = time.perf_counter()
    model, trace = train_mixture()
    lead = float(np.mean(trace[:100]))
    trail = float(np.mean(trace[-100:]))
    mean_errs = {}
    for class_id in MIXTURE_CLASS_IDS:
        points = sample_mixture(model, class_id)
        target = np.asarray(MIXTURE_MEANS[class_id])
        mean_errs[class_id] = float(np.linalg.norm(points.mean(axis=0) - target))
    elapsed = time.perf_counter() - start
    _verdict(
        5,
        "two-class mixture: sampled means hit targets, loss decays 10x",
        all(err < 0.2 for err in mean_errs.values())
        and trail < 0.1 * lead
        and elapsed < 60.0,
        f"mean errs {mean_errs[1]:.3f}/{mean_errs[2]:.3f}, "
        f"trail/lead {trail / lead:.3f}, {elapsed:.1f}s",
    )


def test_06_guidance_contract():
    rng = np.random.default_rng(5)
    v_cond = rng.standard_normal((8, 3))
    v_uncond = rng.standard_normal((8, 3))
    at_one = np.array_equal(cfg_velocity(v_cond, v_uncond, CfgSpec(1.0)), v_cond)
    at_zero = np.array_equal(cfg_velocity(v_cond, v_uncond, CfgSpec(0.0)), v_uncond)
    args = build_parser().parse_args(["fm-sample", "--model", "unused"])
    _verdict(
        6,
        "guidance endpoints are bit-exact and the CLI default scale is 5",
        at_one and at_zero and args.cfg_scale == 5.0,
        f"cli default {args.cfg_scale}",
    )


def test_07_mask_statistics():
    spec = MaskSpec(p_cond=0.1, n_mask=2, l_mask=3)
    rng = np.random.default_rng(11)
    frames = 200
    partial = 0
    spans_ok = True
    for _ in range(10_000):
        mask, fully_masked = make_mask(frames, spec, rng)
        if fully_masked:
            continue
        partial += 1
        runs = np.diff(np.flatnonzero(np.diff(np.r_[0, mask.astype(int), 0])))[::2]
        if len(runs) != spec.n_mask or (runs < spec.l_mask).any():
            spans_ok = False
    fraction = partial / 10_000
    _verdict(
        7,
        "10k mask draws: partial fraction 0.10 +/- 0.01, spans legal",
        abs(fraction - 0.10) <= 0.01 and spans_ok,
        f"partial fraction {fraction:.4f}",
    )


def _synthetic_corpus(tmp_path):
    """100 entries over shared unambiguous fixtures, with ground truth."""
    rate = 1000
    write_wav(
        MonoSignal(np.repeat([0.001] * 50, 20), rate), tmp_path / "quiet.wav"
    )
    write_wav(
        MonoSignal(np.repeat([0.5] * 50, 20), rate), tmp_path / "loud.wav"
    )
    static = np.full((4, 8, 1), 0.5)
    frame_rng = np.random.default_rng(99)
    for k in range(17):
        write_frame(tmp_path / f"static_{k:02d}.fframe", static)
        write_frame(tmp_path / f"moving_{k:02d}.fframe", frame_rng.random((4, 8, 1)))

    rng = np.random.default_rng(4242)
    entries = []
    truth = {}
    for i in range(100):
        has_audio = rng.random() < 0.9
        audio_silent = rng.random() < 0.4
        has_frames = rng.random() < 0.6
        frames_static = rng.random() < 0.4
        word_count = None if rng.random() < 0.2 else int(rng.integers(0, 11))
        alignment = None if rng.random() < 0.2 else float(rng.uniform(0.0, 3.0))

        entry_id = f"clip{i:03d}"
        entries.append(
            ClipManifestEntry(
                id=entry_id,
                audio_path=(
                    ("quiet.wav" if audio_silent else "loud.wav")
                    if has_audio
                    else "absent.wav"
                ),
                duration=1.0,
                sample_rate=rate,
                frames_pattern=(
                    ("static_*.fframe" if frames_static else "moving_*.fframe")
                    if has_frames
                    else None
                ),
                word_count=word_count,
                alignment_score=alignment,
            )
        )
        reasons = []
        if has_frames and frames_static:
            reasons.append("stationary")
        if has_audio and audio_silent:
            reasons.append("silent")
        if word_count is not None and word_count > 5:
            reasons.append("speech")
        if alignment is not None and alignment < 1.0:
            reasons.append("alignment")
        truth[entry_id] = reasons
    return entries, truth


def test_08_cleaning_thresholds(tmp_path):
    rate = 1000
    mostly_quiet = np.repeat([0.001] * 95 + [0.5] * 5, 20)
    silent_rule = silence_verdict(mostly_quiet, rate)
    silent_ok = silent_rule.silent and silent_rule.ratio == 0.95

    base = np.zeros((2, 4, 1))
    frames = [base] * 10 + [np.ones((2, 4, 1))]
    verdict = stationarity_verdict(frames, interval=1)
    stationary_ok = verdict.stationary and verdict.ratio == 0.9

    keeps_five = speech_filter(
        ClipManifestEntry("a", "a.wav", 1.0, rate, word_count=5)
    )
    drops_six = not speech_filter(
        ClipManifestEntry("b", "b.wav", 1.0, rate, word_count=6)
    )

    entries, truth = _synthetic_corpus(tmp_path)
    report = run_pipeline(entries, base_dir=str(tmp_path))
    oracle_kept = sorted(i for i, reasons in truth.items() if not reasons)
    oracle_removed = {i: reasons for i, reasons in truth.items() if reasons}
    corpus_ok = report.kept == oracle_kept and report.removed == oracle_removed

    _verdict(
        8,
        "cleaning rules and 100-entry corpus match the independent oracle",
        silent_ok and stationary_ok and keeps_five and drops_six and corpus_ok,
        f"kept {len(report.kept)}, removed {len(report.removed)}",
    )


def test_09_panorama_geometry():
    constant = np.full((16, 32, 3), 0.625)
    constant_ok = all(
        np.all(cut == 0.625)
        for cut in make_fov_cuts(constant, "6cuts", out_width=12, out_height=10)
    )

    height = 64
    width = 2 * height
    col = (np.arange(width) + 0.5) / width  # value = u / width at pixel centers
    gradient = np.broadcast_to(col[None, :, None], (height, width, 1)).copy()
    forward = erp_to_perspective(
        gradient, CameraSpec(yaw=0.0, out_width=33, out_height=33)
    )
    center_u = float(forward[16, 16, 0]) * width
    center_ok = abs(center_u - width / 2) <= 0.5

    # behind the camera the seam columns blend equally: value 0.5 again
    rear = erp_to_perspective(
        gradient, CameraSpec(yaw=math.pi, out_width=33, out_height=33)
    )
    seam_ok = abs(float(rear[16, 16, 0]) - 0.5) < 1e-9

    rng = np.random.default_rng(8)
    erp = rng.random((16, 32, 3))
    rolled = np.roll(erp, -16, axis=1)
    wrap_dev = float(
        np.max(
            np.abs(
                erp_to_perspective(erp, CameraSpec(yaw=math.pi, out_width=15, out_height=11))
                - erp_to_perspective(rolled, CameraSpec(yaw=0.0, out_width=15, out_height=11))
            )
        )
    )
    six = len(make_fov_cuts(erp, "6cuts", out_width=8, out_height=8))

    _verdict(
        9,
        "perspective cuts: constant invariance, centering, seam wrap, 6 cuts",
        constant_ok and center_ok and seam_ok and wrap_dev <= 1e-12 and six == 6,
        f"center off by {abs(center_u - width / 2):.2e} px, wrap dev {wrap_dev:.1e}",
    )


def test_10_io_round_trips(tmp_path):
    rng = np.random.default_rng(9)
    channels = rng.standard_normal((4, 200)).astype(np.float32).astype(np.float64)
    signal = FoaSignal(channels, 48000)
    wav_path = tmp_path / "foa.wav"
    write_wav(signal, wav_path)
    back = read_wav(wav_path)
    wav_ok = all(
        np.array_equal(getattr(back, n), getattr(signal, n)) for n in "wxyz"
    )

    matrix = rng.standard_normal((6, 4))
    write_matrix(tmp_path / "m.fmat", matrix)
    matrix_ok = read_matrix(tmp_path / "m.fmat").tobytes() == matrix.tobytes()

    mono_path = tmp_path / "mono.wav"
    write_wav(MonoSignal(0.3 * rng.standard_normal(2000), 16000), mono_path)
    out_path = tmp_path / "enc.wav"
    theta, phi = 0.6, -0.25
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code_a = main(
            ["spatialize", str(mono_path), str(out_path),
             "--theta", str(theta), "--phi", str(phi)]
        )
        code_b = main(["doa", str(out_path)])
    kv = dict(
        line.split("=", 1) for line in buf.getvalue().splitlines() if "=" in line
    )
    cli_theta_err = theta_error(theta, float(kv["theta"]))
    cli_phi_err = abs(float(kv["phi"]) - phi)
    cli_ok = (
        code_a == 0 and code_b == 0 and cli_theta_err < 1e-6 and cli_phi_err < 1e-6
    )

    _verdict(
        10,
        "float32/matrix round trips bit-exact; CLI survives pcm16 within 1e-6",
        wav_ok and matrix_ok and cli_ok,
        f"cli az err {cli_theta_err:.1e}, el err {cli_phi_err:.1e}",
    )
