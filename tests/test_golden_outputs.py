"""Every CLI output, pinned by its SHA-256.

One fixed seed builds a small input set inside the test: pcm16 and
float32 WAVs (mono, stereo, FOA), an 8-bit PGM and a 16-bit PPM ERP,
text matrices, and a cleaning manifest with one clip of each kind. The
bytes are laid out here by hand, so a change to foagen's own writers
shows as a changed output, not as a changed input. Every subcommand then
runs through ``cli.main``, and the SHA-256 of each output file, and of
each command's stdout with the work directory replaced by ``<tmp>``, is
compared against ``tests/golden_digests.json``. The failure names every
output that differs.

Some outputs pass through FFT, BLAS or libm (``stft_distance``, the
``fm-train`` losses, the ``fm-sample`` samples, the cut pixels), so the
table also records the numpy version and BLAS build it was made with. On
another build the test is skipped with both builds named; re-record the
table there with ``python tests/test_golden_outputs.py``, which rewrites
it from the code as it stands. On one build the flow outputs still depend
on the host: numpy's run-time SIMD targets and OpenBLAS's core. The
table records both under ``host``, outside its key, and a failure names
them beside this host's, so it shows whether the host or the code moved
the digests.

A change that alters an output on purpose updates only that output's
entries, and says which and why.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from foagen import cli

TABLE = Path(__file__).with_name("golden_digests.json")
RATE = 16000
SEED = 2026


def _build() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _host() -> str:
    """The host's arithmetic on this build: the SIMD targets numpy found at
    run time and the core numpy's bundled OpenBLAS chose. Either can move
    the flow digests with no change to the code; they are not in the key."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        simd = " ".join(name for name in __cpu_dispatch__ if __cpu_features__.get(name))
    except ImportError:
        simd = "unknown"
    core = "unknown"
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    return f"numpy SIMD {simd or 'none'}, OpenBLAS core {core}"


def _wav(samples: np.ndarray, encoding: str) -> bytes:
    """A canonical 44-byte-header WAV of (frames, channels) samples."""
    channels = samples.shape[1]
    if encoding == "pcm16":
        tag, bits = 1, 16
        payload = np.clip(np.rint(samples * 32768.0), -32768, 32767).astype("<i2").tobytes()
    else:
        tag, bits = 3, 32
        payload = samples.astype("<f4").tobytes()
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", tag, channels, RATE, RATE * block, block, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _pnm(pixels: np.ndarray, maxval: int = 255) -> bytes:
    height, width = pixels.shape[:2]
    magic = b"P5" if pixels.ndim == 2 else b"P6"
    dtype = "u1" if maxval < 256 else ">u2"
    return b"%s\n%d %d\n%d\n" % (magic, width, height, maxval) + pixels.astype(dtype).tobytes()


def _text(matrix: np.ndarray) -> bytes:
    return "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in np.atleast_2d(matrix)).encode()


def _foa(rng, n: int, azimuth: float, elevation: float) -> np.ndarray:
    """A plane wave from one direction plus a little diffuse noise, in FuMa order."""
    s = 0.3 * rng.standard_normal(n)
    gains = [math.sqrt(0.5), math.cos(azimuth) * math.cos(elevation),
             math.sin(azimuth) * math.cos(elevation), math.sin(elevation)]
    return np.stack([g * s for g in gains], axis=1) + 0.01 * rng.standard_normal((n, 4))


# One clip per kind of the benchmark's cleaning manifest:
# (frames stationary, audio, word_count, alignment_score).
CLIPS = {
    "normal": (False, "loud", 2, 2.5),
    "stationary": (True, "loud", 1, 2.0),
    "silent": (False, "quiet", 0, 1.5),
    "speech": (False, "loud", 12, 2.2),
    "misaligned": (False, "loud", 3, 0.4),
    "static_silent": (True, "quiet", 1, 1.8),
    "unscored": (False, "loud", None, None),
    "truncated_wav": (False, "truncated", 0, 2.0),
    "bad_pgm": (False, "loud", 0, 2.0),
    "nan_wav": (False, "nan", 0, 2.0),
}
CLIP_FRAMES = 9


def _write_inputs(root: Path) -> None:
    rng = np.random.default_rng(SEED)
    (root / "mono16.wav").write_bytes(_wav(0.25 * rng.uniform(-1, 1, (3200, 1)), "pcm16"))
    (root / "mono32.wav").write_bytes(_wav(0.25 * rng.standard_normal((2000, 1)), "float32"))
    (root / "stereo.wav").write_bytes(_wav(0.2 * rng.uniform(-1, 1, (1500, 2)), "pcm16"))
    for sub in ("truth", "estimate"):
        (root / sub).mkdir()
    for i, (azimuth, elevation, offset) in enumerate(((0.4, 0.1, 0.2), (-2.0, -0.3, 0.1))):
        (root / "truth" / f"p{i}.wav").write_bytes(_wav(_foa(rng, 2048, azimuth, elevation), "float32"))
        estimate = _foa(rng, 2048, azimuth + offset, elevation - offset / 2)
        (root / "estimate" / f"p{i}.wav").write_bytes(_wav(estimate, "pcm16"))
    (root / "erp8.pgm").write_bytes(_pnm(rng.integers(0, 256, (32, 64))))
    (root / "erp16.ppm").write_bytes(_pnm(rng.integers(0, 65536, (32, 64, 3)), 65535))
    (root / "a.txt").write_bytes(_text(rng.standard_normal((40, 3))))
    (root / "b.txt").write_bytes(_text(0.5 + 1.5 * rng.standard_normal((30, 3))))
    (root / "p.txt").write_bytes(_text(rng.dirichlet(np.ones(6))))
    (root / "q.txt").write_bytes(_text(rng.dirichlet(np.ones(6))))
    x1 = np.repeat([[1.5, -0.5], [-1.0, 1.0]], 6, axis=0) + 0.1 * rng.standard_normal((12, 2))
    (root / "x.txt").write_bytes(_text(x1))
    (root / "c.txt").write_bytes(_text(np.repeat([[1.0], [-1.0]], 6, axis=0)))
    (root / "cvec.txt").write_bytes(_text(np.array([1.0])))

    n = RATE // 4
    audio = {"loud": _wav(np.clip(0.2 * rng.standard_normal((n, 1)), -0.99, 0.99), "pcm16"),
             "quiet": _wav(1e-3 * rng.standard_normal((n, 1)), "pcm16")}
    audio["truncated"] = audio["loud"][: 44 + n]
    noisy = 0.2 * rng.standard_normal((n, 1))
    noisy[n // 2] = np.nan
    audio["nan"] = _wav(noisy, "float32")
    lines = []
    for kind, (stationary, sound, words, alignment) in CLIPS.items():
        clip = root / "clips" / kind
        clip.mkdir(parents=True)
        still = rng.integers(0, 256, (8, 12))
        for f in range(CLIP_FRAMES):
            pixels = still if stationary else rng.integers(0, 256, (8, 12))
            blob = _pnm(pixels)
            if kind == "bad_pgm" and f == 3:
                blob = b"P5\n12 x8\n255\n" + bytes(96)
            (clip / f"f{f:02d}.pgm").write_bytes(blob)
        (clip / "audio.wav").write_bytes(audio[sound])
        record = {"id": kind, "audio_path": f"clips/{kind}/audio.wav", "duration": 0.25,
                  "sample_rate": RATE, "frames_pattern": f"clips/{kind}/*.pgm"}
        if words is not None:
            record.update(word_count=words, alignment_score=alignment)
        lines.append(json.dumps(record) + "\n")
    (root / "manifest.jsonl").write_text("".join(lines))


# (label, argv); "{}" in an argument is the work directory.
RUNS = [
    ("spatialize", ["spatialize", "{}/mono16.wav", "{}/s16.wav", "--theta", "0.7", "--phi", "-0.2"]),
    ("spatialize-ambix", ["spatialize", "{}/mono32.wav", "{}/s32.wav", "--theta", "40", "--phi", "10",
                          "--degrees", "--encoding", "float32", "--ambix"]),
    ("stereo2foa", ["stereo2foa", "{}/stereo.wav", "{}/st.wav"]),
    ("stereo2foa-ambix", ["stereo2foa", "{}/stereo.wav", "{}/st16.wav", "--encoding", "pcm16", "--ambix"]),
    ("doa", ["doa", "{}/s16.wav", "--degrees"]),
    ("doa-ambix", ["doa", "{}/s32.wav", "--ambix"]),
    ("eval-doa", ["eval-doa", "{}/truth", "{}/estimate", "--degrees", "--jobs", "2"]),
    ("eval-doa-file", ["eval-doa", "{}/truth/p0.wav", "{}/estimate/p0.wav", "--jobs", "1"]),
    ("eval-fd", ["eval-fd", "{}/a.txt", "{}/b.txt"]),
    ("eval-kl", ["eval-kl", "{}/p.txt", "{}/q.txt"]),
    ("eval-stft", ["eval-stft", "{}/truth/p0.wav", "{}/estimate/p0.wav", "--windows", "64,256",
                   "--jobs", "2"]),
    ("eval-stft-ambix", ["eval-stft", "{}/st.wav", "{}/st16.wav", "--windows", "128", "--hop", "0.5", "--ambix",
                         "--jobs", "1"]),
    ("pad-erp", ["pad-erp", "{}/erp8.pgm", "{}/pad8.pgm"]),
    ("pad-erp-16", ["pad-erp", "{}/erp16.ppm", "{}/pad16.ppm", "--bit-depth", "16"]),
    ("cut-fov-jobs1", ["cut-fov", "{}/erp8.pgm", "{}/cuts1", "--preset", "4cuts", "--width", "16",
                       "--height", "12", "--jobs", "1"]),
    ("cut-fov-jobs2", ["cut-fov", "{}/erp16.ppm", "{}/cuts2", "--preset", "2cuts", "--hfov", "90",
                       "--width", "12", "--height", "12", "--bit-depth", "16", "--jobs", "2"]),
    # 81 rows per render block, the last block partial.
    ("cut-fov-blocks", ["cut-fov", "{}/erp8.pgm", "{}/cuts3", "--width", "200", "--height", "300",
                        "--jobs", "1"]),
    # One row per render block: a row is wider than a block.
    ("cut-fov-wide", ["cut-fov", "{}/erp16.ppm", "{}/cuts4", "--hfov", "150", "--width", "16400",
                      "--height", "3", "--bit-depth", "16", "--jobs", "1"]),
    ("clean", ["clean", "{}/manifest.jsonl", "--report", "{}/report.jsonl", "--base-dir", "{}",
               "--frame-interval", "2", "--jobs", "2"]),
    ("segment", ["segment", "{}/mono16.wav", "--clip-seconds", "0.05", "--outdir", "{}/segs"]),
    ("mask-stats", ["mask-stats", "--frames", "40", "--draws", "300", "--p-cond", "0.3",
                    "--spans", "2", "--min-len", "3", "--seed", "1"]),
    ("fm-train", ["fm-train", "--fixture", "mixture", "--steps", "50", "--save", "{}/m.fgvm",
                  "--trace", "{}/loss.tsv"]),
    ("fm-sample", ["fm-sample", "--model", "{}/m.fgvm", "--frames", "16", "--steps", "8",
                   "--mixture-class", "1", "--out", "{}/samples.fmat"]),
    ("fm-train-data", ["fm-train", "--data", "{}/x.txt", "--cond", "{}/c.txt", "--steps", "20",
                       "--batch", "4", "--hidden", "8", "--seed", "2", "--save", "{}/d.fgvm"]),
    ("fm-sample-cond", ["fm-sample", "--model", "{}/d.fgvm", "--cond", "{}/cvec.txt", "--frames", "8",
                        "--steps", "4", "--cfg-scale", "2", "--seed", "3", "--out", "{}/d.fmat"]),
]


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def run_all(root: Path) -> dict[str, str]:
    """Digests of every output made by RUNS under ``root``, keyed by name."""
    _write_inputs(root)
    inputs = {p for p in root.rglob("*") if p.is_file()}
    digests = {}
    for label, argv in RUNS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([arg.replace("{}", str(root)) for arg in argv])
        text = f"exit={code}\n" + out.getvalue().replace(str(root), "<tmp>")
        digests[f"{label}.stdout"] = _digest(text.encode())
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p not in inputs):
        digests[path.relative_to(root).as_posix()] = _digest(path.read_bytes())
    return digests


def test_every_cli_output_matches_its_recorded_digest(tmp_path):
    table = json.loads(TABLE.read_text())
    if table["build"] != _build():
        pytest.skip(f"digests were recorded on {table['build']}, this is {_build()}")
    got = run_all(tmp_path)
    want = table["digests"]
    differ = sorted(name for name in want.keys() & got.keys() if want[name] != got[name])
    missing = sorted(want.keys() - got.keys())
    extra = sorted(got.keys() - want.keys())
    assert not (differ or missing or extra), (
        f"outputs that differ: {differ}; recorded but not made: {missing}; made but not recorded: {extra}; "
        f"recorded on {table.get('host', 'an unnamed host')}, this host has {_host()}"
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        digests = run_all(Path(work))
    table = {"build": _build(), "host": _host(), "digests": digests}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {TABLE}", file=sys.stderr)
