import argparse
import json
import math
import os
import struct
import subprocess
import sys
import threading
import tomllib
import tracemalloc
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from foagen.audio_io import (
    read_matrix,
    read_wav,
    write_matrix,
    write_wav,
)
from foagen.cleaning import ClipManifestEntry, FilterThresholds
from foagen.container import encode, write_bytes
from foagen.errors import CorruptHeader
from foagen import cli
from foagen.cli import main
from foagen.flow import (
    MIXTURE_TRAIN,
    CfgSpec,
    MaskSpec,
    euler_sample,
    load_model,
    mixture_condition,
    mixture_dataset,
    mixture_model,
    train,
)
from foagen.flow.network import CHECKPOINT_MAGIC
from foagen.foa import Direction, FoaSignal, MonoSignal, StereoSignal, spatialize_mono
from foagen.metrics import StftConfig, eval_doa_batch, pair_directions
from foagen.panorama import CameraSpec, make_fov_cuts, read_frame, write_frame

from _inputs import write_manifest

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
    assert kv["error"].startswith("ShapeMismatch")

    for truth, estimate in ((a, est_dir), (truth_dir, a)):  # one file, one directory
        code, kv = run_cli(capsys, "eval-doa", truth, estimate)
        assert code == 1
        assert kv["error"].startswith("ShapeMismatch")


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
    assert kv["error"] == "ShapeMismatch no file of the same name in the other directory for b.wav, c.wav"

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
    # The line is keyed by the truth file's name; its message names the bad file.
    assert kv["failed.p01.wav"] == f"CorruptHeader {bad}: chunk b'fmt ' truncated"
    good = [
        pair_directions(read_wav(truth_dir / n), read_wav(est_dir / n)) for n in ("p00.wav", "p02.wav")
    ]
    assert kv["d_angular"] == "%.12g" % eval_doa_batch(good).errors.d_angular


def test_eval_doa_counts_a_mono_file_as_unsupported(tmp_path, capsys):
    truth_dir, est_dir = _foa_pair_dirs(tmp_path, 2)
    _mono_wav(truth_dir / "p00.wav")
    code, kv = run_cli(capsys, "eval-doa", truth_dir, est_dir)
    assert code == 0
    assert kv["evaluated"] == "1"
    assert kv["failed"] == "1"
    assert kv["failed.p00.wav"] == (
        f"ChannelCountUnsupported {truth_dir / 'p00.wav'}: expected a 4-channel input file, got 1 channels"
    )


def test_eval_doa_prints_a_failed_pair_on_one_line(tmp_path, capsys, monkeypatch):
    truth_dir, est_dir = _foa_pair_dirs(tmp_path, 2)

    def refuse_p01(path, ambix=False):
        if Path(path).name == "p01.wav":
            raise CorruptHeader("first\nsecond")
        return read_wav(path, ambix=ambix)

    monkeypatch.setattr(cli, "read_wav", refuse_p01)
    code, kv = run_cli(capsys, "eval-doa", truth_dir, est_dir, "--jobs", "2")
    assert code == 0
    assert kv["failed.p01.wav"] == "CorruptHeader first second"


@pytest.mark.parametrize("brk", ["\n", "\r"])
def test_a_line_break_in_a_printed_key_or_value_prints_as_a_space(tmp_path, capsys, brk):
    truth_dir, est_dir = _foa_pair_dirs(tmp_path, 1)
    evil = f"evil{brk}d_angular=0.wav"
    _mono_wav(truth_dir / evil)
    _mono_wav(est_dir / evil)
    assert main(["eval-doa", str(truth_dir), str(est_dir)]) == 0
    lines = capsys.readouterr().out.splitlines()
    good = pair_directions(read_wav(truth_dir / "p00.wav"), read_wav(est_dir / "p00.wav"))
    want = "d_angular=%.12g" % eval_doa_batch([good]).errors.d_angular
    assert [line for line in lines if line.startswith("d_angular=")] == [want]
    flat = str(truth_dir / evil).replace(brk, " ")
    assert lines[-1] == (
        f"failed.evil d_angular=0.wav=ChannelCountUnsupported {flat}:"
        " expected a 4-channel input file, got 1 channels"
    )

    out = tmp_path / f"out{brk}put.wav"
    assert main(["spatialize", str(_mono_wav(tmp_path / "m.wav")), str(out), "--theta", "0.3"]) == 0
    assert out.exists()
    lines = capsys.readouterr().out.splitlines()
    flat = str(out).replace(brk, " ")
    assert [line for line in lines if line.startswith("config.output=")] == [f"config.output={flat}"]
    assert lines[-1] == f"output={flat}"


def test_eval_doa_with_no_loadable_pair_is_an_empty_batch(tmp_path, capsys):
    truth_dir, est_dir = _foa_pair_dirs(tmp_path, 2)
    for path in est_dir.iterdir():
        path.write_bytes(path.read_bytes()[:30])
    code, kv = run_cli(capsys, "eval-doa", truth_dir, est_dir)
    assert code == 1
    assert kv["error"] == "EmptyBatch no signal pairs to evaluate"
    assert kv["failed"] == "2"
    for name in ("p00.wav", "p01.wav"):
        assert kv[f"failed.{name}"] == f"CorruptHeader {est_dir / name}: chunk b'fmt ' truncated"
    assert "evaluated" not in kv


def _silent_foa(path):
    z = np.zeros(400)
    write_wav(FoaSignal([z, z, z, z], RATE), path)


def _cut_short(path):
    path.write_bytes(path.read_bytes()[:30])  # cut inside the fmt chunk


def test_eval_doa_a_read_failure_outranks_a_silent_file(tmp_path, capsys):
    truth_dir, est_dir = _foa_pair_dirs(tmp_path, 3)
    _silent_foa(truth_dir / "p00.wav")
    _cut_short(est_dir / "p00.wav")
    _cut_short(truth_dir / "p01.wav")
    _silent_foa(est_dir / "p01.wav")
    for jobs in ("1", "2"):
        code, kv = run_cli(capsys, "eval-doa", truth_dir, est_dir, "--jobs", jobs)
        assert code == 0
        assert (kv["evaluated"], kv["excluded"], kv["failed"]) == ("1", "0", "2")
        for name, bad in (("p00.wav", est_dir), ("p01.wav", truth_dir)):
            assert kv[f"failed.{name}"] == f"CorruptHeader {bad / name}: chunk b'fmt ' truncated"


def test_eval_doa_shows_the_truth_file_error_when_both_fail(tmp_path, capsys):
    truth_dir, est_dir = _foa_pair_dirs(tmp_path, 2)
    _cut_short(truth_dir / "p01.wav")
    (est_dir / "p01.wav").write_bytes(b"OggS" + bytes(40))
    for jobs in ("1", "2"):
        code, kv = run_cli(capsys, "eval-doa", truth_dir, est_dir, "--jobs", jobs)
        assert code == 0
        assert (kv["evaluated"], kv["failed"]) == ("1", "1")
        assert kv["failed.p01.wav"] == f"CorruptHeader {truth_dir / 'p01.wav'}: chunk b'fmt ' truncated"


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


def test_eval_doa_holds_at_most_jobs_pairs(tmp_path, capsys, monkeypatch):
    # Each task reads its pair's files one at a time, so the pool holds at
    # most ``jobs`` decoded signals.
    truth_dir, est_dir = _foa_pair_dirs(tmp_path, 10)
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
    for jobs in (1, 2):
        peak = 0
        code, kv = run_cli(capsys, "eval-doa", truth_dir, est_dir, "--jobs", jobs)
        assert code == 0
        assert kv["evaluated"] == "10"
        assert 0 < peak <= jobs


def test_eval_fd_and_kl(tmp_path, capsys):
    rng = np.random.default_rng(4)
    a = rng.standard_normal((64, 3))
    write_matrix(tmp_path / "a.fmat", a)
    code, kv = run_cli(capsys, "eval-fd", tmp_path / "a.fmat", tmp_path / "a.fmat")
    assert code == 0
    assert float(kv["fd"]) < 1e-8

    np.savetxt(tmp_path / "p.txt", [[0.5, 0.5]], fmt="%.17g")
    np.savetxt(tmp_path / "q.txt", [[0.25, 0.75]], fmt="%.17g")
    code, kv = run_cli(capsys, "eval-kl", tmp_path / "p.txt", tmp_path / "q.txt")
    assert code == 0
    expect = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
    assert abs(float(kv["kl"]) - expect) < 1e-12

    np.savetxt(tmp_path / "z.txt", [[1.0, 0.0]], fmt="%.17g")
    code, kv = run_cli(capsys, "eval-kl", tmp_path / "p.txt", tmp_path / "z.txt")
    assert code == 1
    assert kv["error"].startswith("InvalidValue")


def test_eval_fd_names_the_corrupt_matrix_file_once(tmp_path, capsys):
    good, bad = tmp_path / "good.fmat", tmp_path / "bad.fmat"
    write_matrix(good, np.eye(3))
    bad.write_bytes(good.read_bytes()[:8])  # the magic alone
    code, kv = run_cli(capsys, "eval-fd", bad, good)
    assert code == 1
    assert kv["error"] == f"CorruptHeader {bad}: container truncated at offset 8"


def test_eval_kl_names_the_unparsable_text_file_once(tmp_path, capsys):
    p, q = tmp_path / "p.txt", tmp_path / "q.txt"
    p.write_text("0.5 x\n")
    np.savetxt(q, [[0.5, 0.5]], fmt="%.17g")
    code, kv = run_cli(capsys, "eval-kl", p, q)
    assert code == 1
    assert kv["error"].startswith(f"ParseError {p}: line 1: bad number (")
    assert kv["error"].count(str(p)) == 1


def test_eval_stft_identical_files(tmp_path, capsys):
    src = _mono_wav(tmp_path / "m.wav", n=4000, seed=5)
    a = tmp_path / "a.wav"
    run_cli(capsys, "spatialize", src, a, "--theta", "0.3", "--encoding", "float32")
    code, kv = run_cli(capsys, "eval-stft", a, a, "--windows", "256,512")
    assert code == 0
    assert float(kv["stft_distance"]) == 0.0


def test_eval_stft_refuses_a_silent_reference(tmp_path, capsys):
    a = tmp_path / "a.wav"
    run_cli(capsys, "spatialize", _mono_wav(tmp_path / "m.wav", n=4000), a, "--theta", "0.3")
    silent = tmp_path / "silent.wav"
    write_wav(FoaSignal(np.zeros((4, 4000)), RATE), silent)
    for b in (silent, a):
        code, kv = run_cli(capsys, "eval-stft", silent, b, "--windows", "256", "--jobs", "2")
        assert code == 1
        assert kv["error"] == "ZeroEnergy the reference spectrogram at window 256 is zero"
        assert "stft_distance" not in kv
    code, kv = run_cli(capsys, "eval-stft", a, silent, "--windows", "256")
    assert code == 0
    assert math.isfinite(float(kv["stft_distance"]))


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


@pytest.mark.parametrize("command", ["pad-erp", "cut-fov"])
@pytest.mark.parametrize("name, blob, message", [
    ("bad.pgm", b"P5\n4 2\n255\n", "CorruptHeader {}: anymap pixel data truncated"),
    ("bad.fframe", b"FFRM0001", "CorruptHeader {}: container truncated at offset 8"),
    ("weird.pgm", b"P7\n4 2\n255\n", "UnsupportedFormat {}: neither a portable anymap nor a raw frame"),
    ("missing.pgm", None, "IoFailure cannot read {}: No such file or directory"),
], ids=["truncated-anymap", "truncated-fframe", "unknown-magic", "missing"])
def test_frame_commands_name_the_bad_frame_once(tmp_path, capsys, command, name, blob, message):
    frame = tmp_path / name
    if blob is not None:
        frame.write_bytes(blob)
    code, kv = run_cli(capsys, command, frame, tmp_path / "out.pgm")
    assert code == 1
    assert kv["error"] == message.format(frame)


def test_pad_erp_refuses_to_quantize_nan(tmp_path, capsys):
    frame = np.random.default_rng(9).random((8, 16, 1))
    frame[:, :8] = np.nan
    write_frame(tmp_path / "erp.fframe", frame)
    code = main([str(a) for a in ("pad-erp", tmp_path / "erp.fframe", tmp_path / "sq.pgm")])
    errors = [line for line in capsys.readouterr().out.splitlines() if line.startswith("error=")]
    assert code == 1
    out = tmp_path / "sq.pgm"
    assert errors == [f"error=InvalidValue {out}: frame holds NaN, which an anymap cannot store"]
    assert not out.exists()


def test_cut_fov_of_a_float_erp_writes_float_cuts(tmp_path, capsys):
    # A float-container ERP, here with no suffix and holding NaN, is cut
    # into .fframe files that keep every value; --bit-depth is unused.
    frame = np.random.default_rng(10).random((8, 16, 1))
    frame[:, :8] = np.nan
    erp = tmp_path / "erp"
    write_frame(tmp_path / "erp.fframe", frame)
    (tmp_path / "erp.fframe").rename(erp)
    outdir = tmp_path / "cuts"
    code, kv = run_cli(
        capsys, "cut-fov", erp, outdir, "--preset", "2cuts", "--width", "4", "--height", "4",
        "--bit-depth", "16",
    )
    assert code == 0
    cuts = make_fov_cuts(frame, "2cuts", math.radians(120.0), 4, 4)
    assert np.isnan(cuts[0]).any()
    for i, cut in enumerate(cuts):
        path = outdir / f"erp_cut{i}.fframe"
        assert kv[f"frame.{i}"] == str(path)
        np.testing.assert_array_equal(read_frame(path), cut)
    assert len(list(outdir.iterdir())) == 2


@pytest.mark.parametrize("name", ["erp", "erp.PPM"])
def test_cut_fov_names_its_cuts_by_the_format_it_writes(tmp_path, capsys, name):
    # The ERP is read by its magic bytes, so a P6 file without a suffix,
    # or with an upper-case one, is cut into .ppm files.
    write_frame(tmp_path / "made.ppm", np.random.default_rng(11).random((16, 32, 3)))
    erp = tmp_path / name
    (tmp_path / "made.ppm").rename(erp)
    outdir = tmp_path / "cuts"
    code, kv = run_cli(
        capsys, "cut-fov", erp, outdir, "--preset", "2cuts", "--width", "6", "--height", "5",
    )
    assert code == 0
    for i, cut in enumerate(make_fov_cuts(read_frame(erp), "2cuts", math.radians(120.0), 6, 5)):
        want = tmp_path / f"want{i}.ppm"
        write_frame(want, cut)
        path = outdir / f"erp_cut{i}.ppm"
        assert kv[f"frame.{i}"] == str(path)
        assert path.read_bytes() == want.read_bytes()


def test_cut_fov_holds_no_float_cut(tmp_path, capsys):
    # One float64 1024x1024 colour cut takes 25 MB; cut-fov quantizes
    # each block of rows as it renders, so its traced peak stays below.
    write_frame(tmp_path / "erp.ppm", np.random.default_rng(12).random((64, 128, 3)))
    tracemalloc.start()
    try:
        code = main([str(a) for a in (
            "cut-fov", tmp_path / "erp.ppm", tmp_path / "cuts", "--width", "1024", "--height", "1024",
            "--jobs", "1",
        )])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "cuts" / "erp_cut0.ppm").stat().st_size == len(b"P6\n1024 1024\n255\n") + 3 * 1024**2
    assert peak < 1024 * 1024 * 3 * 8, peak


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


def test_clean_names_an_unreadable_manifest_once(tmp_path, capsys):
    missing = tmp_path / "missing.jsonl"
    code, kv = run_cli(capsys, "clean", missing, "--report", tmp_path / "r.jsonl")
    assert code == 1
    assert kv["error"] == f"ManifestParseError cannot read {missing}: No such file or directory"


@pytest.mark.parametrize("name, text, message", [
    ("m.jsonl", b'{"id": 1}\n', "m.jsonl: line 1: missing keys ['audio_path', 'duration', 'sample_rate']"),
    ("nu.jsonl", b"\xff\xfe", "nu.jsonl: not UTF-8 text ('utf-8' codec can't decode byte 0xff "
     "in position 0: invalid start byte)"),
], ids=["missing-keys", "not-utf8"])
def test_clean_names_a_malformed_manifest_once(tmp_path, capsys, name, text, message):
    (tmp_path / name).write_bytes(text)
    code, kv = run_cli(capsys, "clean", tmp_path / name, "--report", tmp_path / "r.jsonl")
    assert code == 1
    assert kv["error"] == f"ManifestParseError {tmp_path}{os.sep}{message}"


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
    assert kv["error"] == "InvalidValue clip_seconds 1e-09 is shorter than one sample at 16000 Hz"
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
    assert kv["error"] == "InvalidValue clip_seconds 1e+305 overflows a sample count at 16000 Hz"
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
        assert errors == [f"error=InvalidValue {flag} must be positive and finite, got {value}"]
    assert not report.exists()
    assert not outdir.exists()


def test_clean_refuses_a_window_that_overflows_a_sample_count(tmp_path, capsys):
    write_wav(MonoSignal(np.ones(2500) * 0.1, 1000), tmp_path / "long.wav")
    write_manifest(tmp_path / "m.jsonl", [ClipManifestEntry("a", "long.wav", 2.5, 1000)])
    report = tmp_path / "r.jsonl"
    code = main([
        "clean", str(tmp_path / "m.jsonl"), "--report", str(report), "--base-dir", str(tmp_path),
        "--window-ms", "1e308",
    ])
    errors = [line for line in capsys.readouterr().out.splitlines() if line.startswith("error=")]
    assert code == 1
    assert errors == ["error=InvalidValue window_ms 1e+308 overflows a sample count at 4294967295 Hz"]
    assert not report.exists()


def test_clean_skips_the_silence_filter_for_a_window_shorter_than_a_sample(tmp_path, capsys):
    for name in ("a", "b"):
        write_wav(MonoSignal(np.full(1600, 0.1), RATE), tmp_path / f"{name}.wav")
    write_manifest(tmp_path / "m.jsonl", [
        ClipManifestEntry(name, f"{name}.wav", 0.1, RATE) for name in ("a", "b")
    ])
    report = tmp_path / "r.jsonl"
    code, kv = run_cli(
        capsys, "clean", tmp_path / "m.jsonl", "--report", report, "--base-dir", tmp_path,
        "--window-ms", "0.01",
    )
    assert code == 0
    assert "error" not in kv
    assert kv["skipped.silent"] == "2"
    rows = [json.loads(line) for line in report.read_text().splitlines()]
    assert [row["id"] for row in rows] == ["a", "b"]
    assert all("silent" in row["skipped"] for row in rows)


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
    assert errors == [f"error=InvalidValue {flag} must be a number, got nan"]
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


@pytest.mark.parametrize("hidden, flags", [
    ([(4, 6)], ["--min-len", "3"]),  # one span, two frames long
    ([(2, 5), (9, 12)], ["--spans", "1"]),  # two spans where one is asked for
])
def test_mask_stats_reports_spans_that_break_the_spec(capsys, monkeypatch, hidden, flags):
    mask = np.zeros(30, dtype=bool)
    for start, stop in hidden:
        mask[start:stop] = True
    monkeypatch.setattr(cli, "make_mask", lambda frames, spec, rng: (mask.copy(), False))
    code, kv = run_cli(capsys, "mask-stats", "--frames", "30", "--draws", "3", *flags)
    assert code == 0
    assert kv["partial"] == "3"
    assert kv["spans_ok"] == "false"


@pytest.mark.parametrize("draws", ["0", "-1"])
def test_mask_stats_refuses_fewer_than_one_draw(capsys, draws):
    code, kv = run_cli(capsys, "mask-stats", "--frames", "30", "--draws", draws)
    assert code == 1
    assert kv["error"] == f"InvalidValue draws must be at least 1, got {draws}"
    assert "partial" not in kv


def test_fm_train_refuses_a_zero_width_hidden_layer(tmp_path, capsys):
    write_matrix(tmp_path / "x.fmat", np.tile([[2.0, -1.0]], (4, 1)))
    code, kv = run_cli(
        capsys, "fm-train", "--data", tmp_path / "x.fmat", "--steps", "2", "--hidden", "8,0",
    )
    assert code == 1
    assert kv["error"] == "InvalidValue hidden widths must be at least 1, got 0"
    assert "final_loss" not in kv


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_fm_train_refuses_a_non_finite_learning_rate(capsys, rate):
    code, kv = run_cli(capsys, "fm-train", "--fixture", "mixture", "--steps", "5", "--lr", rate)
    assert code == 1
    assert kv["error"] == f"InvalidValue learning_rate must be positive and finite, got {rate}"
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


@pytest.mark.parametrize("steps, window", [(1, 1), (3, 1), (50, 25), (300, 100)])
def test_fm_train_lead_and_trail_windows_are_disjoint(steps, window, tmp_path, capsys):
    code, kv = run_cli(
        capsys, "fm-train", "--fixture", "mixture", "--steps", steps,
        "--trace", tmp_path / "loss.tsv",
    )
    assert code == 0
    trace = [float(line.split("\t")[1]) for line in (tmp_path / "loss.tsv").read_text().splitlines()]
    assert kv["lead_loss"] == cli._fmt(float(np.mean(trace[:window])))
    assert kv["trail_loss"] == cli._fmt(float(np.mean(trace[-window:])))
    assert steps == 1 or kv["lead_loss"] != kv["trail_loss"]


@pytest.mark.parametrize(
    "source, flags, named",
    [
        ("fixture", ["--mu", "0.5"], "--mu needs --time-sampler"),
        ("data", ["--sigma", "2"], "--sigma needs --time-sampler"),
        ("fixture", ["--hidden", "7"], "--hidden cannot be used with --fixture"),
        ("fixture", ["--init-seed", "3"], "--init-seed cannot be used with --fixture"),
        ("fixture", ["--cond", "missing.fmat"], "--cond cannot be used with --fixture"),
    ],
)
def test_fm_train_refuses_flags_that_cannot_act(source, flags, named, tmp_path, capsys):
    write_matrix(tmp_path / "x.fmat", np.zeros((4, 2)))
    given = ["--fixture", "mixture"] if source == "fixture" else ["--data", tmp_path / "x.fmat"]
    code, kv = run_cli(capsys, "fm-train", *given, "--steps", "1", *flags)
    assert code == 1
    assert kv["error"] == f"InvalidValue {named}"
    assert "final_loss" not in kv


def test_fm_train_flags_not_given_keep_their_defaults(tmp_path, capsys):
    write_matrix(tmp_path / "x.fmat", np.arange(8.0).reshape(4, 2))
    common = ["--data", tmp_path / "x.fmat", "--steps", "3", "--batch", "2", "--time-sampler", "logit_normal"]
    code, unset = run_cli(capsys, "fm-train", *common)
    assert code == 0 and unset["config.mu"] == unset["config.hidden"] == "None"
    code, given = run_cli(
        capsys, "fm-train", *common, "--mu", "0", "--sigma", "1", "--hidden", "32", "--init-seed", "0"
    )
    assert code == 0
    assert given["final_loss"] == unset["final_loss"]


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
        np.savetxt(tmp_path / "c.txt", [condition], fmt="%.17g")
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
    assert kv["error"].startswith("InvalidValue")
    code, kv = run_cli(capsys, "fm-train")
    assert code == 1
    assert kv["error"].startswith("InvalidValue")


def test_fm_train_condition_rows_must_match(tmp_path, capsys):
    write_matrix(tmp_path / "x.fmat", np.zeros((4, 2)))
    write_matrix(tmp_path / "c.fmat", np.zeros((3, 1)))
    code, kv = run_cli(
        capsys, "fm-train", "--data", tmp_path / "x.fmat",
        "--cond", tmp_path / "c.fmat", "--steps", "1",
    )
    assert code == 1
    assert kv["error"].startswith("ShapeMismatch")


def test_fm_sample_refuses_zero_frames(tmp_path, capsys):
    ckpt = tmp_path / "m.fgvm"
    code, _ = run_cli(
        capsys, "fm-train", "--fixture", "mixture", "--steps", "5", "--save", ckpt
    )
    assert code == 0
    for frames in ("0", "-1"):
        # Refused by the frame-count check, before numpy draws any noise.
        code, kv = run_cli(capsys, "fm-sample", "--model", ckpt, "--frames", frames, "--steps", "2")
        assert code == 1
        assert kv["error"] == f"InvalidValue frames must be at least 1, got {frames}"
        assert "samples" not in kv


def test_fm_sample_refuses_a_class_the_fixture_lacks(tmp_path, capsys):
    ckpt = tmp_path / "m.fgvm"
    code, _ = run_cli(
        capsys, "fm-train", "--fixture", "mixture", "--steps", "5", "--save", ckpt
    )
    assert code == 0
    for class_id in ("0", "3", "-1"):
        code, kv = run_cli(
            capsys, "fm-sample", "--model", ckpt, "--mixture-class", class_id,
            "--frames", "5", "--steps", "2",
        )
        assert code == 1
        assert kv["error"] == f"InvalidValue mixture class must be one of (1, 2), got {class_id}"
        assert "samples" not in kv


def test_installed_entry_point_exits_with_the_cli_codes(tmp_path):
    # The module run as a script, as the console script runs it: sys.exit
    # carries main's code to the process.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "foagen.cli", *map(str, argv)],
            capture_output=True, text=True, env=env, timeout=60,
        )

    missing = run("doa", tmp_path / "missing.wav")
    assert missing.returncode == 1
    assert missing.stdout.splitlines()[-1].startswith("error=IoFailure")
    assert run().returncode == 2  # no subcommand
    # The console script calls main itself and exits with what it returns.
    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    assert pyproject["project"]["scripts"] == {"foagen": "foagen.cli:main"}


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
    assert kv["error"] == "InvalidValue global_cond contains non-finite values"
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
    assert kv["error"] == "InvalidValue global condition contains non-finite values"
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
    np.savetxt(tmp_path / "c.txt", [[1.0, 0.0]], fmt="%.17g")
    code, kv = run_cli(
        capsys, "fm-sample", "--model", ckpt,
        "--cond", tmp_path / "c.txt", "--mixture-class", "1",
    )
    assert code == 1
    assert kv["error"].startswith("InvalidValue")


def _subcommand_flags(command):
    (commands,) = (
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {a.dest: a for a in commands.choices[command]._actions}


def test_cli_defaults_are_the_library_config_defaults():
    clean = _subcommand_flags("clean")
    for f in fields(FilterThresholds):  # _cmd_clean maps the flags by dest
        assert clean[f.name].option_strings == ["--" + f.name.replace("_", "-")]
        assert clean[f.name].default == f.default
    stft = _subcommand_flags("eval-stft")
    assert StftConfig(cli._int_list(stft["windows"].default), stft["hop"].default) == StftConfig()
    cut = _subcommand_flags("cut-fov")
    assert 120 / cli.DEGREES == CameraSpec.hfov  # the one default stated in degrees
    assert cut["hfov"].default == 120
    assert (cut["width"].default, cut["height"].default) == (CameraSpec.out_width, CameraSpec.out_height)
    mask = _subcommand_flags("mask-stats")
    assert (mask["spans"].default, mask["min_len"].default) == (MaskSpec.n_mask, MaskSpec.l_mask)


def test_usage_errors_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["spatialize", "in.wav", "out.wav"])  # --theta is required
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2
    # fm-train builds one-frame rows, on which a span mask cannot act.
    for flag, value in (("--mask-spans", "1"), ("--mask-min-len", "1"), ("--p-cond", "0.5")):
        with pytest.raises(SystemExit) as err:
            main(["fm-train", "--fixture", "mixture", "--steps", "1", flag, value])
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
    ("eval-stft", ["a.wav", "b.wav"]),
])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_fail_cleanly(tmp_path, capsys, command, inputs, jobs):
    # Rejected before any input is read, so the inputs need not exist.
    code, kv = run_cli(capsys, command, *(tmp_path / name for name in inputs), "--jobs", jobs)
    assert code == 1
    assert kv["config.jobs"] == jobs
    assert kv["error"] == f"InvalidValue jobs must be at least 1, got {jobs}"
    assert not (tmp_path / "cuts").exists()


@pytest.mark.parametrize("command, flag", [
    ("mask-stats", "--seed"),
    ("fm-train", "--seed"),
    ("fm-train", "--init-seed"),
    ("fm-sample", "--seed"),
])
def test_negative_seed_is_refused_before_any_work(tmp_path, capsys, command, flag):
    # Refused before any input is read, so the inputs need not exist.
    inputs = {"fm-train": ["--data", tmp_path / "x.fmat"], "fm-sample": ["--model", tmp_path / "m.fgvm"]}
    code, kv = run_cli(capsys, command, *inputs.get(command, []), flag, "-1")
    assert code == 1
    assert kv["error"] == f"InvalidValue {flag} must be non-negative, got -1"


@pytest.mark.parametrize("argv, message", [
    (["eval-stft", "a.wav", "b.wav", "--hop", "2"], "hop_fraction must lie in (0, 1]"),
    (["eval-stft", "a.wav", "b.wav", "--windows", "512,256"], "window sizes must be strictly increasing"),
    (["fm-train", "--data", "x.fmat", "--lr", "-1"], "learning_rate must be positive and finite, got -1.0"),
    (["fm-train", "--data", "x.fmat", "--steps", "0"], "batch_size and steps must be >= 1"),
    (["fm-train", "--data", "x.fmat", "--time-sampler", "logit_normal", "--sigma", "0"],
     "sigma must be positive and finite"),
    (["fm-sample", "--model", "m.fgvm", "--cfg-scale", "nan"], "guidance scale must be finite"),
    (["fm-sample", "--model", "m.fgvm", "--mixture-class", "7"], "mixture class must be one of (1, 2), got 7"),
    (["fm-sample", "--model", "m.fgvm", "--cond", "c.txt", "--mixture-class", "1"],
     "--cond and --mixture-class are mutually exclusive"),
    (["spatialize", "m.wav", "o.wav", "--theta", "nan"], "azimuth must be finite, got nan"),
    (["spatialize", "m.wav", "o.wav", "--theta", "0", "--phi", "2"],
     "elevation must lie in [-pi/2, pi/2], got 2.0"),
    (["cut-fov", "erp.ppm", "cuts/", "--hfov", "180"], "hfov must lie in (0, pi), got 3.141592653589793"),
    (["cut-fov", "erp.ppm", "cuts/", "--width", "0"], "output dimensions must be >= 1"),
    (["cut-fov", "erp.ppm", "cuts/", "--height", "0"], "output dimensions must be >= 1"),
    (["clean", "m.jsonl", "--window-ms", "0"], "window_ms must be positive and finite, got 0.0"),
    (["clean", "m.jsonl", "--silence-dbfs", "nan"], "silence_dbfs must be a number, got nan"),
    (["clean", "m.jsonl", "--silence-ratio", "2"], "silence_ratio must lie in [0, 1]"),
    (["clean", "m.jsonl", "--frame-interval", "0"], "frame_interval must be >= 1"),
    (["clean", "m.jsonl", "--frame-mse", "nan"], "frame_mse must be a number, got nan"),
    (["clean", "m.jsonl", "--stationary-ratio", "2"], "stationary_ratio must lie in [0, 1]"),
    (["clean", "m.jsonl", "--min-alignment", "nan"], "min_alignment must be a number, got nan"),
    (["fm-sample", "--model", "m.fgvm", "--steps", "0"], "steps must be at least 1, got 0"),
    (["fm-sample", "--model", "m.fgvm", "--frames", "-1"], "frames must be at least 1, got -1"),
    (["segment", "a.wav", "--clip-seconds", "nan"], "clip_seconds must be positive and finite, got nan"),
    (["segment", "a.wav", "--clip-seconds", "0"], "clip_seconds must be positive and finite, got 0.0"),
    (["segment", "a.wav", "--clip-seconds", "-1"], "clip_seconds must be positive and finite, got -1.0"),
    (["segment", "a.wav", "--clip-seconds", "inf"], "clip_seconds must be positive and finite, got inf"),
])
def test_a_bad_flag_is_refused_before_any_input_is_read(tmp_path, capsys, argv, message):
    # The inputs do not exist: reading one first would report IoFailure.
    files = (".wav", ".fmat", ".fgvm", ".txt", ".ppm", ".jsonl", "/")
    argv = [tmp_path / a if a.endswith(files) else a for a in argv]
    code, kv = run_cli(capsys, *argv)
    assert code == 1
    assert kv["error"] == f"InvalidValue {message}"


# Refusals that depend on the input, so they stay after the read: with the
# input missing, the read's IoFailure is reported instead.
REFUSED_AFTER_THE_READ = {
    ("segment", "a.wav", "--clip-seconds", "1e-9"): "shorter than one sample only at the file's rate",
    ("segment", "a.wav", "--clip-seconds", "1e305"): "overflows a sample count only at the file's rate",
}


@pytest.mark.parametrize("argv", list(REFUSED_AFTER_THE_READ))
def test_an_input_dependent_refusal_comes_after_the_read(tmp_path, capsys, argv):
    missing = tmp_path / argv[1]
    code, kv = run_cli(capsys, argv[0], missing, *argv[2:])
    assert code == 1
    assert kv["error"].startswith(f"IoFailure cannot read {missing}: ")


def test_fm_sample_names_the_corrupt_checkpoint_once(tmp_path, capsys):
    bad = tmp_path / "bad.fgvm"
    bad.write_bytes(b"FGVM")
    code, kv = run_cli(capsys, "fm-sample", "--model", bad, "--frames", "4", "--steps", "2")
    assert code == 1
    assert kv["error"] == f"CorruptHeader {bad}: bad magic; expected b'FGVM0001'"
    assert "samples" not in kv


@pytest.mark.parametrize("argv", [
    ["eval-stft", "a.wav", "b.wav", "--windows", "a,b"],
    ["eval-stft", "a.wav", "b.wav", "--windows", "8,1e3"],
    ["fm-train", "--data", "x.fmat", "--hidden", "x"],
    ["fm-train", "--data", "x.fmat", "--steps", "x"],
    ["eval-stft", "a.wav", "b.wav", "--windows", ","],
    ["eval-stft", "a.wav", "b.wav", "--windows", ""],
    ["eval-stft", "a.wav", "b.wav", "--windows", "256,,512"],
    ["fm-train", "--data", "x.fmat", "--hidden", "8,"],
])
def test_malformed_integer_flag_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ") and f"argument {argv[-2]}: invalid" in captured.err
    assert "_int_list" not in captured.err


@pytest.mark.parametrize("exc", [ValueError("boom"), OSError(5, "boom")])
def test_an_error_that_is_not_a_refusal_escapes_as_a_traceback(tmp_path, capsys, monkeypatch, exc):
    foa = spatialize_mono(MonoSignal(np.ones(64), RATE), Direction(0.5, 0.2))
    write_wav(foa, tmp_path / "foa.wav")

    def fail(signal):
        raise exc

    monkeypatch.setattr(cli, "estimate_doa", fail)
    with pytest.raises(type(exc), match="boom"):
        main(["doa", str(tmp_path / "foa.wav")])
    assert "error=" not in capsys.readouterr().out


def test_list_flag_past_what_numpy_can_address_is_refused(tmp_path, capsys):
    # numpy would raise its own ValueError or TypeError for these sizes.
    foa = spatialize_mono(MonoSignal(np.ones(64), RATE), Direction(0.5, 0.2))
    write_wav(foa, tmp_path / "a.wav")
    for windows in (f"8,{2**62}", f"8,{2**64}"):
        code, kv = run_cli(capsys, "eval-stft", tmp_path / "a.wav", tmp_path / "a.wav", "--windows", windows)
        assert code == 1
        assert kv["error"] == f"InvalidValue window sizes must be at most {2**58 - 1}"
    write_matrix(tmp_path / "x.fmat", np.zeros((4, 2)))
    for hidden in (str(2**62), str(2**64)):
        code, kv = run_cli(capsys, "fm-train", "--data", tmp_path / "x.fmat", "--steps", "1", "--hidden", hidden)
        assert code == 1
        assert kv["error"].startswith("InvalidValue hidden widths")
