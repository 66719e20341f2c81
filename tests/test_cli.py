import json
import math
import os
import struct
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

from foagen.audio_io import (
    read_matrix,
    read_wav,
    write_matrix,
    write_matrix_text,
    write_wav,
)
from foagen.cleaning import ClipManifestEntry, write_manifest
from foagen.container import encode, write_bytes
from foagen import cli
from foagen.cli import main
from foagen.flow import (
    MIXTURE_TRAIN,
    CfgSpec,
    euler_sample,
    load_model,
    mixture_condition,
    mixture_dataset,
    mixture_model,
    train,
)
from foagen.flow.network import CHECKPOINT_MAGIC
from foagen.foa import Direction, MonoSignal, StereoSignal, spatialize_mono
from foagen.metrics import eval_doa_batch
from foagen.panorama import make_fov_cuts, read_frame, write_frame

RATE = 16000


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    kv = {}
    for line in out.splitlines():
        key, _, value = line.partition("=")
        kv[key] = value
    return code, kv


def _mono_wav(path, n=500, seed=0):
    rng = np.random.default_rng(seed)
    write_wav(MonoSignal(0.3 * rng.standard_normal(n), RATE), path)
    return path


def test_spatialize_doa_round_trip_degrees(tmp_path, capsys):
    src = _mono_wav(tmp_path / "in.wav")
    out = tmp_path / "out.wav"
    code, kv = run_cli(
        capsys, "spatialize", src, out, "--theta", "90", "--degrees"
    )
    assert code == 0
    assert kv["samples"] == "500"
    assert kv["config.encoding"] == "pcm16"

    code, kv = run_cli(capsys, "doa", out, "--degrees")
    assert code == 0
    assert kv["theta"] == "90.000"
    assert kv["phi"] == "0.000"


def test_spatialize_doa_round_trip_radians(tmp_path, capsys):
    src = _mono_wav(tmp_path / "in.wav", n=2000)
    out = tmp_path / "out.wav"
    theta, phi = 0.7, -0.3
    code, _ = run_cli(
        capsys, "spatialize", src, out,
        "--theta", theta, "--phi", phi, "--encoding", "float32",
    )
    assert code == 0
    code, kv = run_cli(capsys, "doa", out)
    assert code == 0
    assert abs(float(kv["theta"]) - theta) < 1e-6
    assert abs(float(kv["phi"]) - phi) < 1e-6


def test_doa_silent_input_fails_cleanly(tmp_path, capsys):
    quiet = tmp_path / "quiet.wav"
    code, _ = run_cli(
        capsys, "spatialize", _mono_wav(quiet, seed=1), quiet,
        "--theta", "0",
    )
    assert code == 0
    silent = tmp_path / "silent.wav"
    write_wav(MonoSignal(np.zeros(100), RATE), silent)
    code, kv = run_cli(capsys, "doa", silent)
    assert code == 1
    assert kv["error"].startswith("ChannelCountUnsupported")

    # actual all-zero FOA: spatialize cannot make one, so build it directly
    from foagen.foa import FoaSignal

    z = np.zeros(100)
    write_wav(FoaSignal([z, z, z, z], RATE), silent)
    code, kv = run_cli(capsys, "doa", silent)
    assert code == 1
    assert kv["error"].startswith("ZeroEnergy")


def test_spatialize_refuses_a_rate_whose_byte_rate_overflows(tmp_path, capsys):
    # A valid mono pcm16 input at 0xFFFFFFFF Hz: the output's byte rate,
    # rate * 4 channels * bytes per sample, cannot fit the 32-bit field.
    rate = 0xFFFFFFFF
    data = struct.pack("<4h", 1000, -2000, 3000, -4000)
    fmt = struct.pack("<HHIIHH", 1, 1, rate, rate, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt + b"data" + struct.pack("<I", 8) + data
    src = tmp_path / "in.wav"
    src.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    assert read_wav(src).sample_rate == rate
    for encoding in ("pcm16", "float32"):
        out = tmp_path / f"{encoding}.wav"
        code, kv = run_cli(
            capsys, "spatialize", src, out, "--theta", "0.3", "--encoding", encoding
        )
        assert code == 1
        assert kv["error"].startswith("UnsupportedFormat ")
        assert "byte-rate" in kv["error"]
        assert not out.exists()


def test_stereo2foa(tmp_path, capsys):
    rng = np.random.default_rng(2)
    # float32-exact inputs so the disk round trip adds no rounding of its own
    left = (0.25 * rng.standard_normal(300)).astype(np.float32).astype(np.float64)
    right = (0.25 * rng.standard_normal(300)).astype(np.float32).astype(np.float64)
    src = tmp_path / "st.wav"
    write_wav(StereoSignal([left, right], RATE), src)
    out = tmp_path / "foa.wav"
    code, kv = run_cli(capsys, "stereo2foa", src, out)
    assert code == 0
    assert kv["config.encoding"] == "float32"
    foa = read_wav(out)
    np.testing.assert_array_equal(foa.w, (left + right).astype(np.float32))
    np.testing.assert_array_equal(foa.x, (left - right).astype(np.float32))
    assert np.all(foa.y == 0.0)
    assert np.all(foa.z == 0.0)


def test_stereo2foa_refuses_an_output_past_the_float32_range(tmp_path, capsys):
    # Each input sample fits float32; the omni channel, their sum, does not.
    src = tmp_path / "st.wav"
    write_wav(StereoSignal(np.full((2, 8), 3e38), RATE), src)
    assert read_wav(src).left[0] == np.float32(3e38)
    out = tmp_path / "foa.wav"
    code, kv = run_cli(capsys, "stereo2foa", src, out)
    assert code == 1
    assert kv["error"].startswith("SpecMismatch ")
    assert "samples" not in kv
    assert not out.exists()


def test_eval_doa_pair_and_directory(tmp_path, capsys):
    src = _mono_wav(tmp_path / "m.wav", seed=3)
    a = tmp_path / "a.wav"
    run_cli(capsys, "spatialize", src, a, "--theta", "0.5", "--phi", "0.2")
    code, kv = run_cli(capsys, "eval-doa", a, a)
    assert code == 0
    assert float(kv["d_theta"]) == 0.0
    assert float(kv["d_angular"]) == 0.0
    assert kv["evaluated"] == "1"
    assert kv["excluded"] == "0"

    truth_dir = tmp_path / "truth"
    est_dir = tmp_path / "est"
    truth_dir.mkdir()
    est_dir.mkdir()
    for k, theta in enumerate((0.0, 1.0)):
        run_cli(capsys, "spatialize", src, truth_dir / f"{k}.wav", "--theta", theta)
        run_cli(capsys, "spatialize", src, est_dir / f"{k}.wav", "--theta", theta)
    code, kv = run_cli(capsys, "eval-doa", truth_dir, est_dir, "--jobs", "2")
    assert code == 0
    assert kv["evaluated"] == "2"

    (est_dir / "extra.wav").write_bytes((est_dir / "0.wav").read_bytes())
    code, kv = run_cli(capsys, "eval-doa", truth_dir, est_dir)
    assert code == 1
    assert kv["error"].startswith("DimensionMismatch")

    for truth, estimate in ((a, est_dir), (truth_dir, a)):  # one file, one directory
        code, kv = run_cli(capsys, "eval-doa", truth, estimate)
        assert code == 1
        assert kv["error"].startswith("DimensionMismatch")


def test_eval_doa_pairs_directories_by_file_name(tmp_path, capsys):
    src = _mono_wav(tmp_path / "m.wav", seed=4)
    truth_dir, est_dir = tmp_path / "truth", tmp_path / "est"
    truth_dir.mkdir()
    est_dir.mkdir()
    for name, theta in (("a", 0.0), ("b", 1.0)):
        run_cli(capsys, "spatialize", src, truth_dir / f"{name}.wav", "--theta", theta)
    for name, theta in (("a", 0.0), ("c", 1.0)):
        run_cli(capsys, "spatialize", src, est_dir / f"{name}.wav", "--theta", theta)
    # Sorted by position, b.wav would pair with c.wav and score zero error.
    code, kv = run_cli(capsys, "eval-doa", truth_dir, est_dir)
    assert code == 1
    assert kv["error"] == "DimensionMismatch no file of the same name in the other directory for b.wav, c.wav"

    (est_dir / "c.wav").rename(est_dir / "b.wav")
    code, kv = run_cli(capsys, "eval-doa", truth_dir, est_dir)
    assert code == 0
    assert kv["evaluated"] == "2"
    assert float(kv["d_angular"]) == 0.0


def _foa_pair_dirs(tmp_path, count):
    """truth/ and est/ directories of ``count`` FOA pairs, each estimate
    off its truth by a different direction."""
    rng = np.random.default_rng(count)
    truth_dir, est_dir = tmp_path / "truth", tmp_path / "est"
    truth_dir.mkdir()
    est_dir.mkdir()
    for k in range(count):
        mono = MonoSignal(0.3 * rng.standard_normal(400), RATE)
        theta, phi = rng.uniform(-3.0, 3.0), rng.uniform(-1.2, 1.2)
        write_wav(spatialize_mono(mono, Direction(theta, phi)), truth_dir / f"p{k:02d}.wav")
        est = Direction(theta + 0.1 * (k + 1), phi / 2)
        write_wav(spatialize_mono(mono, est), est_dir / f"p{k:02d}.wav")
    return truth_dir, est_dir


def test_eval_doa_counts_a_pair_it_cannot_load_and_scores_the_rest(tmp_path, capsys):
    truth_dir, est_dir = _foa_pair_dirs(tmp_path, 3)
    bad = est_dir / "p01.wav"
    bad.write_bytes(bad.read_bytes()[:30])  # cut inside the fmt chunk
    code, kv = run_cli(capsys, "eval-doa", truth_dir, est_dir, "--jobs", "2")
    assert code == 0
    assert kv["evaluated"] == "2"
    assert kv["excluded"] == "0"
    assert kv["failed"] == "1"
    assert kv["failed.p01.wav"] == "CorruptHeader"
    good = [(read_wav(truth_dir / n), read_wav(est_dir / n)) for n in ("p00.wav", "p02.wav")]
    assert kv["d_angular"] == "%.12g" % eval_doa_batch(good).errors.d_angular


def test_eval_doa_counts_a_mono_file_as_unsupported(tmp_path, capsys):
    truth_dir, est_dir = _foa_pair_dirs(tmp_path, 2)
    _mono_wav(truth_dir / "p00.wav")
    code, kv = run_cli(capsys, "eval-doa", truth_dir, est_dir)
    assert code == 0
    assert kv["evaluated"] == "1"
    assert kv["failed"] == "1"
    assert kv["failed.p00.wav"] == "ChannelCountUnsupported"


def test_eval_doa_with_no_loadable_pair_is_an_empty_batch(tmp_path, capsys):
    truth_dir, est_dir = _foa_pair_dirs(tmp_path, 2)
    for path in est_dir.iterdir():
        path.write_bytes(path.read_bytes()[:30])
    code, kv = run_cli(capsys, "eval-doa", truth_dir, est_dir)
    assert code == 1
    assert kv["error"] == "EmptyBatch no signal pairs to evaluate"
    assert kv["failed"] == "2"
    assert kv["failed.p00.wav"] == kv["failed.p01.wav"] == "CorruptHeader"
    assert "evaluated" not in kv


def test_eval_doa_output_does_not_depend_on_jobs(tmp_path, capsys):
    truth_dir, est_dir = _foa_pair_dirs(tmp_path, 6)
    outputs = set()
    for jobs in ("1", "2", "3"):
        assert main(["eval-doa", str(truth_dir), str(est_dir), "--jobs", jobs]) == 0
        lines = capsys.readouterr().out.splitlines()
        outputs.add(tuple(line for line in lines if not line.startswith("config.jobs=")))
    assert len(outputs) == 1
    lines = next(iter(outputs))
    assert "evaluated=6" in lines and "failed=0" in lines


def test_eval_doa_holds_at_most_jobs_plus_one_pairs(tmp_path, capsys, monkeypatch):
    truth_dir, est_dir = _foa_pair_dirs(tmp_path, 10)
    jobs = 2
    lock = threading.RLock()  # a finalizer may run while its own thread holds it
    alive = peak = 0

    def released():
        nonlocal alive
        with lock:
            alive -= 1

    def counted_read_wav(*args, **kwargs):
        nonlocal alive, peak
        signal = read_wav(*args, **kwargs)
        with lock:
            alive += 1
            peak = max(peak, alive)
        weakref.finalize(signal, released)
        return signal

    monkeypatch.setattr(cli, "read_wav", counted_read_wav)
    code, kv = run_cli(capsys, "eval-doa", truth_dir, est_dir, "--jobs", jobs)
    assert code == 0
    assert kv["evaluated"] == "10"
    assert 0 < peak <= 2 * (jobs + 1)


def test_eval_fd_and_kl(tmp_path, capsys):
    rng = np.random.default_rng(4)
    a = rng.standard_normal((64, 3))
    write_matrix(tmp_path / "a.fmat", a)
    code, kv = run_cli(capsys, "eval-fd", tmp_path / "a.fmat", tmp_path / "a.fmat")
    assert code == 0
    assert float(kv["fd"]) < 1e-8

    write_matrix_text(tmp_path / "p.txt", np.array([0.5, 0.5]))
    write_matrix_text(tmp_path / "q.txt", np.array([0.25, 0.75]))
    code, kv = run_cli(capsys, "eval-kl", tmp_path / "p.txt", tmp_path / "q.txt")
    assert code == 0
    expect = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
    assert abs(float(kv["kl"]) - expect) < 1e-12

    write_matrix_text(tmp_path / "z.txt", np.array([1.0, 0.0]))
    code, kv = run_cli(capsys, "eval-kl", tmp_path / "p.txt", tmp_path / "z.txt")
    assert code == 1
    assert kv["error"].startswith("SupportViolation")


def test_eval_stft_identical_files(tmp_path, capsys):
    src = _mono_wav(tmp_path / "m.wav", n=4000, seed=5)
    a = tmp_path / "a.wav"
    run_cli(capsys, "spatialize", src, a, "--theta", "0.3", "--encoding", "float32")
    code, kv = run_cli(capsys, "eval-stft", a, a, "--windows", "256,512")
    assert code == 0
    assert float(kv["stft_distance"]) == 0.0


def test_pad_erp(tmp_path, capsys):
    frame = np.random.default_rng(6).random((4, 8, 1))
    write_frame(tmp_path / "erp.fframe", frame)
    code, kv = run_cli(
        capsys, "pad-erp", tmp_path / "erp.fframe", tmp_path / "sq.fframe"
    )
    assert code == 0
    assert kv["out_height"] == "8"
    assert kv["out_width"] == "8"
    assert read_frame(tmp_path / "sq.fframe").shape == (8, 8, 1)


def test_cut_fov_six_cuts(tmp_path, capsys):
    frame = np.random.default_rng(7).random((8, 16, 1))
    write_frame(tmp_path / "erp.fframe", frame)
    outdir = tmp_path / "cuts"
    code, kv = run_cli(
        capsys, "cut-fov", tmp_path / "erp.fframe", outdir,
        "--preset", "6cuts", "--width", "16", "--height", "16",
    )
    assert code == 0
    assert kv["frames"] == "6"
    assert kv["frame.4.pitch"] == "90.000"
    assert kv["frame.5.pitch"] == "-90.000"
    # the CLI renders exactly the library's cuts for the preset
    expected = make_fov_cuts(frame, "6cuts", math.radians(120.0), 16, 16)
    for i in range(6):
        cut = read_frame(outdir / f"erp_cut{i}.fframe")
        assert cut.shape == (16, 16, 1)
        np.testing.assert_array_equal(cut, expected[i])


@pytest.mark.parametrize("suffix, channels, bit_depth", [(".pgm", 1, 8), (".ppm", 3, 8), (".ppm", 3, 16)])
def test_cut_fov_of_an_anymap_matches_the_cuts_of_the_decoded_frame(tmp_path, capsys, suffix, channels, bit_depth):
    # cut-fov samples the stored integers; the cuts must be the bytes that
    # cutting the decoded float frame gives.
    erp = tmp_path / f"erp{suffix}"
    write_frame(erp, np.random.default_rng(8).random((16, 32, channels)), bit_depth=bit_depth)
    outdir = tmp_path / "cuts"
    code, kv = run_cli(
        capsys, "cut-fov", erp, outdir, "--preset", "6cuts", "--width", "12", "--height", "10",
        "--bit-depth", bit_depth,
    )
    assert code == 0
    cuts = make_fov_cuts(read_frame(erp), "6cuts", math.radians(120.0), 12, 10)
    for i, cut in enumerate(cuts):
        want = tmp_path / f"want{i}{suffix}"
        write_frame(want, cut, bit_depth=bit_depth)
        assert (outdir / f"erp_cut{i}{suffix}").read_bytes() == want.read_bytes()


def test_cut_fov_and_pad_erp_refuse_to_quantize_nan(tmp_path, capsys):
    # A float-container ERP with no suffix is cut into .pgm files.
    frame = np.random.default_rng(9).random((8, 16, 1))
    frame[:, :8] = np.nan
    erp = tmp_path / "erp"
    write_frame(tmp_path / "erp.fframe", frame)
    (tmp_path / "erp.fframe").rename(erp)
    outdir = tmp_path / "cuts"
    for argv, output in (
        (("cut-fov", erp, outdir, "--width", "4", "--height", "4"), outdir / "erp_cut0.pgm"),
        (("pad-erp", erp, tmp_path / "sq.pgm"), tmp_path / "sq.pgm"),
    ):
        code = main([str(a) for a in argv])
        errors = [line for line in capsys.readouterr().out.splitlines() if line.startswith("error=")]
        assert code == 1
        assert len(errors) == 1 and errors[0].startswith("error=ValueError frame holds NaN")
        assert not output.exists()
    assert list(outdir.iterdir()) == []


def test_cut_fov_writes_no_cut_when_a_later_cut_cannot_be_stored(tmp_path, capsys):
    # NaN only at the seam: the front cut encodes, the rear cut cannot.
    frame = np.random.default_rng(10).random((64, 128, 1))
    frame[:, :4] = np.nan
    frame[:, 124:] = np.nan
    erp = tmp_path / "erp2"
    write_frame(tmp_path / "erp2.fframe", frame)
    (tmp_path / "erp2.fframe").rename(erp)
    outdir = tmp_path / "cuts"
    code = main([str(a) for a in (
        "cut-fov", erp, outdir, "--preset", "4cuts", "--width", "8", "--height", "8",
    )])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [line for line in lines if line.startswith("frame")] == []
    errors = [line for line in lines if line.startswith("error=")]
    assert len(errors) == 1 and errors[0].startswith("error=ValueError frame holds NaN")
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("under_the_file", [False, True])
def test_cut_fov_and_segment_report_an_unusable_outdir_as_io_failure(tmp_path, capsys, under_the_file):
    write_frame(tmp_path / "erp.fframe", np.random.default_rng(11).random((8, 16, 1)))
    write_wav(MonoSignal(np.ones(2500) * 0.1, 1000), tmp_path / "long.wav")
    blocker = tmp_path / "taken"
    blocker.write_bytes(b"not a directory")
    outdir = blocker / "sub" if under_the_file else blocker
    for argv in (
        ("cut-fov", tmp_path / "erp.fframe", outdir, "--width", "4", "--height", "4"),
        ("segment", tmp_path / "long.wav", "--clip-seconds", "1.0", "--outdir", outdir),
    ):
        code = main([str(a) for a in argv])
        errors = [line for line in capsys.readouterr().out.splitlines() if line.startswith("error=")]
        assert code == 1
        assert len(errors) == 1 and errors[0].startswith("error=IoFailure cannot create directory")
    assert blocker.read_bytes() == b"not a directory"


def test_clean_pipeline(tmp_path, capsys):
    quiet = np.repeat([0.001] * 50, 20)
    loud = np.repeat([0.5] * 50, 20)
    write_wav(MonoSignal(quiet, 1000), tmp_path / "quiet.wav")
    write_wav(MonoSignal(loud, 1000), tmp_path / "loud.wav")
    entries = [
        ClipManifestEntry("a", "quiet.wav", 1.0, 1000, word_count=6),
        ClipManifestEntry("b", "loud.wav", 1.0, 1000, word_count=0),
    ]
    manifest = tmp_path / "manifest.jsonl"
    write_manifest(manifest, entries)
    report = tmp_path / "report.jsonl"
    code, kv = run_cli(
        capsys, "clean", manifest, "--report", report, "--base-dir", tmp_path
    )
    assert code == 0
    assert kv["evaluated"] == "2"
    assert kv["kept"] == "1"
    assert kv["removed"] == "1"
    assert kv["removed.silent"] == "1"
    assert kv["removed.speech"] == "1"
    assert kv["removed.alignment"] == "0"
    assert report.exists()
    assert (tmp_path / "report.jsonl.summary").exists()


def test_clean_skips_stationarity_for_a_frames_pattern_holding_a_nul(tmp_path, capsys):
    write_wav(MonoSignal(np.repeat([0.5] * 50, 20), 1000), tmp_path / "loud.wav")
    (tmp_path / "m.jsonl").write_text(
        '{"id": "nul", "audio_path": "loud.wav", "duration": 1.0, "sample_rate": 1000,'
        ' "frames_pattern": "clips/\\u0000/*.pgm"}\n'
        '{"id": "ok", "audio_path": "loud.wav", "duration": 1.0, "sample_rate": 1000}\n'
    )
    report = tmp_path / "r.jsonl"
    code, kv = run_cli(
        capsys, "clean", tmp_path / "m.jsonl", "--report", report, "--base-dir", tmp_path
    )
    assert code == 0, kv.get("error")
    assert kv["evaluated"] == "2"
    skipped = {r["id"]: r["skipped"] for r in map(json.loads, report.read_text().splitlines())}
    assert "stationary" in skipped["nul"]


def test_clean_counts_skipped_filters_in_filter_order(tmp_path, capsys):
    write_wav(MonoSignal(np.repeat([0.5] * 50, 20), 1000), tmp_path / "loud.wav")
    rng = np.random.default_rng(36)
    for clip in ("unscored", "bad"):
        (tmp_path / clip).mkdir()
        for k in range(3):
            write_frame(tmp_path / clip / f"{k}.pgm", rng.random((4, 8, 1)))
    (tmp_path / "bad" / "1.pgm").write_bytes(b"P5\n8 4\n254\n" + bytes(32))  # bad maxval
    write_manifest(tmp_path / "m.jsonl", [
        ClipManifestEntry("unscored", "loud.wav", 1.0, 1000, frames_pattern="unscored/*.pgm"),
        ClipManifestEntry("bad", "loud.wav", 1.0, 1000, frames_pattern="bad/*.pgm",
                          word_count=0, alignment_score=2.0),
    ])
    main(["clean", str(tmp_path / "m.jsonl"), "--report", str(tmp_path / "r.jsonl"),
          "--base-dir", str(tmp_path), "--frame-interval", "1"])
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("config.")]
    assert lines[:-1] == [
        "evaluated=2", "kept=2", "removed=0",
        "removed.alignment=0", "removed.silent=0", "removed.speech=0", "removed.stationary=0",
        "skipped.stationary=1", "skipped.silent=0", "skipped.speech=1", "skipped.alignment=1",
    ]
    assert lines[-1].startswith("report=")


def test_clean_rejects_unparsable_manifest(tmp_path, capsys):
    manifests = {
        "infinite.jsonl": (
            b'{"id": "a", "audio_path": "a.wav", "duration": 1.0, "sample_rate": Infinity}\n'
        ),
        "latin1.jsonl": (
            b'{"id": "caf\xe9", "audio_path": "a.wav", "duration": 1.0, "sample_rate": 1000}\n'
        ),
    }
    for name, blob in manifests.items():
        (tmp_path / name).write_bytes(blob)
        code, kv = run_cli(
            capsys, "clean", tmp_path / name, "--report", tmp_path / "report.jsonl"
        )
        assert code == 1
        assert kv["error"].startswith("ManifestParseError ")


def test_clean_min_alignment_two_is_the_strict_cut(tmp_path, capsys):
    entries = [
        ClipManifestEntry("low", "low.wav", 1.0, 1000, alignment_score=1.5),
        ClipManifestEntry("edge", "edge.wav", 1.0, 1000, alignment_score=2.0),
    ]
    write_manifest(tmp_path / "m.jsonl", entries)
    report = tmp_path / "r.jsonl"
    code, kv = run_cli(
        capsys, "clean", tmp_path / "m.jsonl", "--report", report, "--min-alignment", "2"
    )
    assert code == 0
    assert kv["config.min_alignment"] == "2"
    assert kv["removed.alignment"] == "1"
    status = {r["id"]: r["status"] for r in map(json.loads, report.read_text().splitlines())}
    assert status == {"low": "removed", "edge": "kept"}  # a score on the cut is kept

    with pytest.raises(SystemExit) as err:
        main(["clean", str(tmp_path / "m.jsonl"), "--strict-alignment"])
    assert err.value.code == 2
    capsys.readouterr()


def test_unwritable_outputs_fail_as_io_failure(tmp_path, capsys):
    write_manifest(tmp_path / "m.jsonl", [ClipManifestEntry("a", "a.wav", 1.0, 1000)])
    code, kv = run_cli(
        capsys, "clean", tmp_path / "m.jsonl", "--report", tmp_path / "missing" / "r.jsonl"
    )
    assert code == 1
    assert kv["error"].startswith("IoFailure ")

    code, kv = run_cli(
        capsys, "fm-train", "--fixture", "mixture", "--steps", "2",
        "--trace", tmp_path / "missing" / "t.tsv",
    )
    assert code == 1
    assert kv["error"].startswith("IoFailure ")


def test_segment(tmp_path, capsys):
    write_wav(MonoSignal(np.ones(2500) * 0.1, 1000), tmp_path / "long.wav")
    outdir = tmp_path / "segs"
    code, kv = run_cli(
        capsys, "segment", tmp_path / "long.wav",
        "--clip-seconds", "1.0", "--outdir", outdir,
    )
    assert code == 0
    assert kv["segments"] == "2"
    assert kv["segment.0"] == "0:1000"
    assert kv["segment.1"] == "1000:2000"
    assert read_wav(outdir / "long_seg000.wav").n_samples == 1000


def test_segment_spans_stay_inside_the_signal_for_a_fractional_clip(tmp_path, capsys):
    write_wav(MonoSignal(np.full(16, 0.1), RATE), tmp_path / "short.wav")
    outdir = tmp_path / "segs"
    # 1.5 samples per clip rounds to 2, so 16 samples make 8 spans
    code, kv = run_cli(
        capsys, "segment", tmp_path / "short.wav",
        "--clip-seconds", 1.5 / RATE, "--outdir", outdir,
    )
    assert code == 0
    assert kv["segments"] == "8"
    assert kv["segment.7"] == "14:16"
    assert len(list(outdir.iterdir())) == 8


def test_segment_refuses_a_clip_shorter_than_one_sample(tmp_path, capsys):
    write_wav(MonoSignal(np.full(1600, 0.1), RATE), tmp_path / "short.wav")
    outdir = tmp_path / "segs"
    code, kv = run_cli(
        capsys, "segment", tmp_path / "short.wav",
        "--clip-seconds", "1e-9", "--outdir", outdir,
    )
    assert code == 1
    assert kv["error"] == "ValueError clip_seconds 1e-09 is shorter than one sample at 16000 Hz"
    assert "segments" not in kv
    assert not outdir.exists()


def test_segment_refuses_a_clip_whose_sample_count_overflows(tmp_path, capsys):
    write_wav(MonoSignal(np.full(1600, 0.1), RATE), tmp_path / "short.wav")
    outdir = tmp_path / "segs"
    code, kv = run_cli(
        capsys, "segment", tmp_path / "short.wav",
        "--clip-seconds", "1e305", "--outdir", outdir,
    )
    assert code == 1
    assert kv["error"] == "ValueError clip_seconds 1e+305 overflows a sample count at 16000 Hz"
    assert "segments" not in kv
    assert not outdir.exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_clean_and_segment_reject_a_non_finite_duration(tmp_path, capsys, value):
    write_wav(MonoSignal(np.ones(2500) * 0.1, 1000), tmp_path / "long.wav")
    write_manifest(tmp_path / "m.jsonl", [ClipManifestEntry("a", "long.wav", 2.5, 1000)])
    report = tmp_path / "r.jsonl"
    outdir = tmp_path / "segs"
    for argv, flag in (
        (("clean", tmp_path / "m.jsonl", "--report", report, "--base-dir", tmp_path), "window_ms"),
        (("segment", tmp_path / "long.wav", "--outdir", outdir), "clip_seconds"),
    ):
        code = main([str(a) for a in argv] + [f"--{flag.replace('_', '-')}", value])
        errors = [line for line in capsys.readouterr().out.splitlines() if line.startswith("error=")]
        assert code == 1
        assert errors == [f"error=ValueError {flag} must be positive and finite, got {value}"]
    assert not report.exists()
    assert not outdir.exists()


@pytest.mark.parametrize("flag", ["silence_dbfs", "min_alignment", "frame_mse"])
def test_clean_rejects_a_nan_threshold(tmp_path, capsys, flag):
    write_wav(MonoSignal(np.ones(2500) * 0.1, 1000), tmp_path / "long.wav")
    write_manifest(tmp_path / "m.jsonl", [ClipManifestEntry("a", "long.wav", 2.5, 1000)])
    report = tmp_path / "r.jsonl"
    code = main([
        "clean", str(tmp_path / "m.jsonl"), "--report", str(report), "--base-dir", str(tmp_path),
        f"--{flag.replace('_', '-')}", "nan",
    ])
    errors = [line for line in capsys.readouterr().out.splitlines() if line.startswith("error=")]
    assert code == 1
    assert errors == [f"error=ValueError {flag} must be a number, got nan"]
    assert not report.exists()


def test_mask_stats(capsys):
    code, kv = run_cli(
        capsys, "mask-stats", "--frames", "30", "--draws", "400",
        "--p-cond", "0.3", "--spans", "2", "--min-len", "3", "--seed", "1",
    )
    assert code == 0
    assert kv["spans_ok"] == "true"
    assert int(kv["partial"]) + int(kv["full"]) == 400
    assert abs(float(kv["partial_fraction"]) - 0.3) < 0.08


@pytest.mark.parametrize("draws", ["0", "-1"])
def test_mask_stats_refuses_fewer_than_one_draw(capsys, draws):
    code, kv = run_cli(capsys, "mask-stats", "--frames", "30", "--draws", draws)
    assert code == 1
    assert kv["error"] == f"ValueError draws must be at least 1, got {draws}"
    assert "partial" not in kv


def test_fm_train_refuses_a_zero_width_hidden_layer(tmp_path, capsys):
    write_matrix(tmp_path / "x.fmat", np.tile([[2.0, -1.0]], (4, 1)))
    code, kv = run_cli(
        capsys, "fm-train", "--data", tmp_path / "x.fmat", "--steps", "2", "--hidden", "8,0",
    )
    assert code == 1
    assert kv["error"] == "ValueError hidden widths must be at least 1, got 0"
    assert "final_loss" not in kv


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_fm_train_refuses_a_non_finite_learning_rate(capsys, rate):
    code, kv = run_cli(capsys, "fm-train", "--fixture", "mixture", "--steps", "5", "--lr", rate)
    assert code == 1
    assert kv["error"] == f"ValueError learning_rate must be positive and finite, got {rate}"
    assert "final_loss" not in kv


def test_impossible_allocations_exit_with_an_error_line(tmp_path, capsys):
    ckpt = tmp_path / "m.fgvm"
    assert run_cli(capsys, "fm-train", "--fixture", "mixture", "--steps", "5", "--save", ckpt)[0] == 0
    wav = tmp_path / "a.wav"
    assert run_cli(capsys, "spatialize", _mono_wav(tmp_path / "m.wav"), wav, "--theta", "0.3")[0] == 0
    # Each request is past the 128 TiB of an x86-64 address space and below
    # 2**63 bytes, so it fails at once even under overcommit.
    for argv, output in (
        (("fm-sample", "--model", ckpt, "--frames", 10**14), "samples"),  # (10**14, 2) float64
        (("fm-train", "--fixture", "mixture", "--batch", 10**15), "final_loss"),  # int64 indices
        (("mask-stats", "--frames", 10**15, "--draws", 1), "draws"),  # one bool mask
        (("eval-stft", wav, wav, "--windows", 10**15), "stft_distance"),  # (4, 10**15) float64
    ):
        code, kv = run_cli(capsys, *argv)
        assert code == 1
        assert kv["error"].startswith("MemoryError Unable to allocate ")
        assert output not in kv


def test_fm_train_on_matrix_data(tmp_path, capsys):
    data = np.tile([[2.0, -1.0]], (16, 1))
    write_matrix(tmp_path / "x.fmat", data)
    ckpt = tmp_path / "model.fgvm"

    def train_once():
        return run_cli(
            capsys, "fm-train", "--data", tmp_path / "x.fmat",
            "--steps", "250", "--lr", "0.02", "--batch", "4", "--seed", "3",
            "--hidden", "8", "--save", ckpt,
        )

    code, kv = train_once()
    assert code == 0
    assert kv["steps"] == "250"
    assert float(kv["trail_loss"]) < float(kv["lead_loss"])
    first_final = kv["final_loss"]
    code, kv = train_once()
    assert kv["final_loss"] == first_final  # same seed, same trace

    code, kv = run_cli(
        capsys, "fm-sample", "--model", ckpt,
        "--frames", "32", "--steps", "16", "--seed", "5",
        "--out", tmp_path / "samples.fmat",
    )
    assert code == 0
    assert kv["samples"] == "32"
    assert kv["config.cfg_scale"] == "5"
    samples = read_matrix(tmp_path / "samples.fmat")
    assert samples.shape == (32, 2)
    assert np.allclose(samples.mean(axis=0), [float(kv["mean.0"]), float(kv["mean.1"])])


def test_fm_train_fixture_keeps_every_recipe_field(tmp_path, capsys):
    code, kv = run_cli(
        capsys, "fm-train", "--fixture", "mixture", "--steps", "300",
        "--trace", tmp_path / "loss.tsv",
    )
    assert code == 0
    lines = (tmp_path / "loss.tsv").read_text().splitlines()
    got = [float(line.split("\t")[1]) for line in lines]
    want = train(mixture_model(), mixture_dataset(), replace(MIXTURE_TRAIN, steps=300))
    assert got == want  # bit for bit, so the learning-rate tail reached the run


def test_fm_sample_without_a_class_on_a_conditioned_checkpoint(tmp_path, capsys):
    ckpt = tmp_path / "m.fgvm"
    code, _ = run_cli(
        capsys, "fm-train", "--fixture", "mixture", "--steps", "50", "--save", ckpt
    )
    assert code == 0
    code, kv = run_cli(
        capsys, "fm-sample", "--model", ckpt, "--frames", "16", "--steps", "8",
        "--out", tmp_path / "samples.fmat",
    )
    assert code == 0, kv.get("error")
    samples = read_matrix(tmp_path / "samples.fmat")
    assert samples.shape == (16, 2) and np.isfinite(samples).all()


@pytest.mark.parametrize("cfg_scale", ["1", "5"])
@pytest.mark.parametrize("source", ["--mixture-class", "--cond"])
def test_fm_sample_condition_matches_the_library(source, cfg_scale, tmp_path, capsys):
    ckpt = tmp_path / "m.fgvm"
    code, _ = run_cli(
        capsys, "fm-train", "--fixture", "mixture", "--steps", "20", "--save", ckpt
    )
    assert code == 0
    condition = mixture_condition(1)
    if source == "--cond":
        condition = np.array([0.25, -1.5, 3.0, 1e-3])
        write_matrix_text(tmp_path / "c.txt", condition)
        flag = ["--cond", tmp_path / "c.txt"]
    else:
        flag = ["--mixture-class", "1"]
    code, kv = run_cli(
        capsys, "fm-sample", "--model", ckpt, "--frames", "12", "--steps", "6",
        "--cfg-scale", cfg_scale, "--seed", "4", "--out", tmp_path / "s.fmat", *flag,
    )
    assert code == 0, kv.get("error")
    want = euler_sample(
        load_model(ckpt), 6, CfgSpec(float(cfg_scale)), global_cond=condition,
        frames=12, rng=np.random.default_rng(4),
    )
    got = read_matrix(tmp_path / "s.fmat")
    assert got.tobytes() == want.tobytes()


def test_fm_train_with_span_masking(tmp_path, capsys):
    write_matrix(tmp_path / "x.fmat", np.random.default_rng(6).standard_normal((8, 2)))

    def train_once(*mask):
        return run_cli(
            capsys, "fm-train", "--data", tmp_path / "x.fmat",
            "--steps", "30", "--batch", "2", "--seed", "1", *mask,
        )

    code, kv = train_once("--mask-spans", "1", "--p-cond", "0.5")
    assert code == 0, kv.get("error")
    assert kv["config.mask_spans"] == "1"
    assert kv["config.mask_min_len"] == "1"
    assert kv["config.p_cond"] == "0.5"
    assert kv["steps"] == "30" and math.isfinite(float(kv["final_loss"]))
    _, unmasked = train_once()
    assert unmasked["final_loss"] != kv["final_loss"]  # the mask reached training


def test_fm_train_logit_normal_far_location(capsys):
    # exp(-z) overflows for every draw at this location
    code, kv = run_cli(
        capsys, "fm-train", "--fixture", "mixture", "--steps", "20",
        "--time-sampler", "logit_normal", "--mu", "-1000",
    )
    assert code == 0
    assert math.isfinite(float(kv["lead_loss"])) and math.isfinite(float(kv["trail_loss"]))


def test_fm_train_source_is_exclusive(tmp_path, capsys):
    write_matrix(tmp_path / "x.fmat", np.zeros((4, 2)))
    code, kv = run_cli(
        capsys, "fm-train", "--fixture", "mixture", "--data", tmp_path / "x.fmat"
    )
    assert code == 1
    assert kv["error"].startswith("DimensionMismatch")
    code, kv = run_cli(capsys, "fm-train")
    assert code == 1
    assert kv["error"].startswith("DimensionMismatch")


def test_fm_train_condition_rows_must_match(tmp_path, capsys):
    write_matrix(tmp_path / "x.fmat", np.zeros((4, 2)))
    write_matrix(tmp_path / "c.fmat", np.zeros((3, 1)))
    code, kv = run_cli(
        capsys, "fm-train", "--data", tmp_path / "x.fmat",
        "--cond", tmp_path / "c.fmat", "--steps", "1",
    )
    assert code == 1
    assert kv["error"].startswith("DimensionMismatch")


def test_fm_sample_refuses_zero_frames(tmp_path, capsys):
    ckpt = tmp_path / "m.fgvm"
    code, _ = run_cli(
        capsys, "fm-train", "--fixture", "mixture", "--steps", "5", "--save", ckpt
    )
    assert code == 0
    code, kv = run_cli(capsys, "fm-sample", "--model", ckpt, "--frames", "0", "--steps", "2")
    assert code == 1
    assert kv["error"].startswith("ValueError")
    assert "samples" not in kv


def test_fm_sample_refuses_a_non_finite_condition(tmp_path, capsys):
    ckpt = tmp_path / "m.fgvm"
    code, _ = run_cli(
        capsys, "fm-train", "--fixture", "mixture", "--steps", "5", "--save", ckpt
    )
    assert code == 0
    (tmp_path / "c.txt").write_text("nan 0\n")
    out = tmp_path / "samples.fmat"
    code, kv = run_cli(
        capsys, "fm-sample", "--model", ckpt, "--cond", tmp_path / "c.txt",
        "--frames", "4", "--steps", "2", "--out", out,
    )
    assert code == 1
    assert kv["error"] == "ValueError global_cond contains non-finite values"
    assert "samples" not in kv
    assert not out.exists()


def test_fm_train_refuses_a_non_finite_condition(tmp_path, capsys):
    write_matrix(tmp_path / "x.fmat", np.zeros((4, 2)))
    write_matrix(tmp_path / "c.fmat", np.array([[0.0], [np.nan], [0.0], [0.0]]))
    code, kv = run_cli(
        capsys, "fm-train", "--data", tmp_path / "x.fmat",
        "--cond", tmp_path / "c.fmat", "--steps", "2",
    )
    assert code == 1
    assert kv["error"] == "ValueError global condition contains non-finite values"
    assert "final_loss" not in kv


def test_fm_sample_refuses_a_checkpoint_without_a_hidden_layer(tmp_path, capsys):
    ckpt = tmp_path / "m.fgvm"
    write_bytes(ckpt, *encode(CHECKPOINT_MAGIC, "<I2I", [2, 3, 2], [np.zeros((3, 2)), np.zeros(2)]))
    code, kv = run_cli(capsys, "fm-sample", "--model", ckpt, "--frames", "4")
    assert code == 1
    assert kv["error"].startswith("CorruptHeader ")
    assert "samples" not in kv


def test_fm_sample_condition_flags_exclusive(tmp_path, capsys):
    data = np.tile([[1.0, 1.0]], (8, 1))
    write_matrix(tmp_path / "x.fmat", data)
    ckpt = tmp_path / "m.fgvm"
    run_cli(
        capsys, "fm-train", "--data", tmp_path / "x.fmat",
        "--steps", "5", "--batch", "2", "--seed", "0", "--save", ckpt,
    )
    write_matrix_text(tmp_path / "c.txt", np.array([1.0, 0.0]))
    code, kv = run_cli(
        capsys, "fm-sample", "--model", ckpt,
        "--cond", tmp_path / "c.txt", "--mixture-class", "1",
    )
    assert code == 1
    assert kv["error"].startswith("DimensionMismatch")


def test_usage_errors_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["spatialize", "in.wav", "out.wav"])  # --theta is required
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2
    capsys.readouterr()  # swallow argparse noise


def test_jobs_default_is_usable_cpu_count(tmp_path, capsys):
    src = _mono_wav(tmp_path / "m.wav", seed=8)
    a = tmp_path / "a.wav"
    run_cli(capsys, "spatialize", src, a, "--theta", "0")
    code, kv = run_cli(capsys, "eval-doa", a, a)
    assert code == 0
    assert kv["config.jobs"] == str(len(os.sched_getaffinity(0)))


@pytest.mark.parametrize("command, inputs", [
    ("eval-doa", ["t.wav", "e.wav"]),
    ("cut-fov", ["erp.ppm", "cuts"]),
    ("clean", ["manifest.jsonl"]),
])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_fail_cleanly(tmp_path, capsys, command, inputs, jobs):
    # Rejected before any input is read, so the inputs need not exist.
    code, kv = run_cli(capsys, command, *(tmp_path / name for name in inputs), "--jobs", jobs)
    assert code == 1
    assert kv["config.jobs"] == jobs
    assert kv["error"] == f"ValueError jobs must be at least 1, got {jobs}"
    assert not (tmp_path / "cuts").exists()
