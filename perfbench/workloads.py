"""The three benchmark workloads: inputs made from a seed, one timed pass, checks.

Each workload has ``setup(work, seed, size) -> state``, which writes every
input under ``work``, and ``run_pass(ops, state) -> (rates, extras)``,
which runs the workload's operations once through :class:`Ops` and
checks every output. ``rates`` maps an end-to-end throughput name to
(work done, seconds spent); ``extras`` holds per-layer counts that only
the outputs can give. README.md says why each workload was chosen.

foagen is reached through module attributes at call time (``cli.main``,
``flow.train``) so that a tracer installed between passes sees the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import struct
import time
from pathlib import Path

import numpy as np

import foagen.cli as cli
import foagen.flow as flow
from foagen.conditioning import synth_features


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# On a shared 2-core host the speed of one process swings by up to 1.5x over
# minutes, so raw seconds of two runs are not comparable. Every operation is
# bracketed by a short fixed probe, and its time is scaled to the speed at
# which the probe takes PROBE_REFERENCE_S (about its time on a quiet host).
# The probe is the geometric mean of a Python loop (dispatch speed, which
# bounds `mixture`) and a uint8-to-float64 conversion (memory speed, which
# bounds frame decoding in `dataset`); in 150 s sessions on each workload it
# tracked the host better than either part alone. README.md gives the
# measurements.
PROBE_REFERENCE_S = 0.003
_PROBE_BYTES = bytes(range(256)) * 2048  # 512 KB, one 512x1024 clip frame


def probe() -> float:
    """Seconds for a fixed piece of Python and numpy work; tracks how fast the host runs now."""
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    python = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(2):
        np.frombuffer(_PROBE_BYTES, dtype=np.uint8).astype(np.float64) / 255.0
    memory = time.perf_counter() - start
    return math.sqrt(python * memory)


def at_reference_speed(secs: float, before: float, after: float) -> float:
    """Scale seconds measured between two probes to the reference host speed."""
    return secs * PROBE_REFERENCE_S / ((before + after) / 2.0)


class Op:
    """One CLI or library call: its exit code, key=value output and duration."""

    def __init__(self, ops: "Ops", name: str):
        self.ops, self.name = ops, name
        self.rc, self.kv, self.value, self.secs = 0, {}, None, 0.0
        self.failed = False

    def fail(self) -> None:
        if not self.failed:
            self.failed = True
            self.ops.failed += 1

    def check(self, ok: bool, what: str) -> bool:
        """A failed check marks the operation failed and the run incorrect."""
        if not ok:
            self.ops.check_failures.append(f"{self.name}: {what}")
            self.fail()
        return ok


class Ops:
    """Runs and counts operations; a nonzero exit or an exception fails one.

    ``pass_secs`` sums the raw seconds of the operations run since it was
    last reset, ``pass_scaled`` the same at the reference host speed.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []
        self.commands: dict[int, str] = {}  # op id -> CLI command, for the tracer
        self.pass_secs = 0.0
        self.pass_scaled = 0.0
        self.tracer = None
        self._probe = None

    def _start(self, name: str) -> Op:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        if self._probe is None:
            self._probe = probe()
        return Op(self, name)

    def _finish(self, op: Op, start: float) -> Op:
        op.secs = time.perf_counter() - start
        after = probe()
        self.pass_secs += op.secs
        self.pass_scaled += at_reference_speed(op.secs, self._probe, after)
        self._probe = after
        return op

    def cli(self, *argv) -> Op:
        argv = [str(a) for a in argv]
        op = self._start(argv[0])
        self.commands[self.attempted] = argv[0]
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                op.rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation, not a benchmark crash
            op.rc = f"{type(exc).__name__}: {exc}"
        self._finish(op, start)
        for line in out.getvalue().splitlines():
            key, sep, value = line.partition("=")
            if sep:
                op.kv[key] = value
        if op.rc != 0:
            op.fail()
        return op

    def call(self, fn, *args, **kwargs) -> Op:
        op = self._start(fn.__name__)
        start = time.perf_counter()
        try:
            op.value = fn(*args, **kwargs)
        except Exception as exc:
            op.rc = f"{type(exc).__name__}: {exc}"
        self._finish(op, start)
        if op.rc != 0:
            op.fail()
        return op


def _num(op: Op, key: str) -> float:
    try:
        return float(op.kv[key])
    except (KeyError, ValueError):
        return math.nan


def _read_fmat(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if blob[:8] != b"FMAT0001":
        return np.empty((0, 0))
    rows, cols = struct.unpack_from("<QQ", blob, 8)
    if len(blob) != 24 + 8 * rows * cols:
        return np.empty((0, 0))
    return np.frombuffer(blob, dtype="<f8", offset=24).reshape(rows, cols)


FILTERS = ("stationary", "silent", "speech", "alignment")
NO_SKIPS = {f"cleaning.skipped.{name}": 0 for name in FILTERS}  # workloads without `clean`


# --- mixture ---------------------------------------------------------------------
#
# The frozen recipe (10k steps) takes about 45 s on a 2-core host, longer
# than one measured run, so each pass runs a fixed 500-step prefix of it:
# same fixture, seed and hyper-parameters. At the prefix the sampled means
# are still far from MIXTURE_MEANS, so the checks are loss decay and
# finite, well-formed samples rather than the acceptance thresholds.

MIXTURE_SIZES = {
    "full": {"steps": 500, "warmup_steps": 50},
    "tiny": {"steps": 250, "warmup_steps": 10},
}
MIXTURE_FRAMES = 1000  # fm-sample defaults: 1000 frames, 128 Euler steps
MIXTURE_SAMPLE_STEPS = 128
MIXTURE_DECAY = 0.5  # trail_loss must be below this share of lead_loss


def mixture_setup(work: Path, seed: int, size: dict) -> dict:
    work.mkdir(parents=True)
    # Warm-up: one short run of both commands so lazy imports and first-call
    # costs land in set-up rather than in the first timed pass.
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["fm-train", "--fixture", "mixture", "--steps", str(size["warmup_steps"]),
                  "--save", str(work / "warmup.fgvm")])
        cli.main(["fm-sample", "--model", str(work / "warmup.fgvm"), "--mixture-class", "1",
                  "--cfg-scale", "1", "--frames", "10", "--steps", "4"])
    return {"work": work, "seed": seed, "steps": size["steps"]}


def mixture_pass(ops: Ops, st: dict):
    work, steps = st["work"], st["steps"]
    model = work / "model.fgvm"
    train = ops.cli("fm-train", "--fixture", "mixture", "--steps", steps, "--save", model)
    lead, trail = _num(train, "lead_loss"), _num(train, "trail_loss")
    train.check(_num(train, "steps") == steps, "steps")
    train.check(math.isfinite(lead) and math.isfinite(trail), "finite losses")
    train.check(trail < MIXTURE_DECAY * lead, f"trail_loss {trail} >= {MIXTURE_DECAY} * lead_loss {lead}")
    train.check(model.is_file(), "checkpoint written")

    sample_secs = 0.0
    for class_id in flow.MIXTURE_CLASS_IDS:
        out = work / f"class{class_id}.fmat"
        sample = ops.cli("fm-sample", "--model", model, "--mixture-class", class_id,
                         "--cfg-scale", 1, "--seed", st["seed"] * 10 + class_id, "--out", out)
        sample_secs += sample.secs
        if sample.check(sample.rc == 0 and out.is_file(), "samples written"):
            points = _read_fmat(out)
            sample.check(points.shape == (MIXTURE_FRAMES, 2), f"shape {points.shape}")
            sample.check(bool(np.isfinite(points).all()), "finite samples")
            printed = np.array([_num(sample, "mean.0"), _num(sample, "mean.1")])
            sample.check(points.shape == (MIXTURE_FRAMES, 2)
                         and np.allclose(points.mean(axis=0), printed, rtol=1e-9, atol=1e-9),
                         "printed means match the written samples")
    rates = {
        "train_steps_per_s": (steps, train.secs),
        "sample_frame_steps_per_s": (
            len(flow.MIXTURE_CLASS_IDS) * MIXTURE_FRAMES * MIXTURE_SAMPLE_STEPS, sample_secs),
    }
    return rates, NO_SKIPS


# --- infill ----------------------------------------------------------------------

INFILL_SIZES = {
    "full": {"sequences": 128, "frames": 256, "dims": 16, "channels": 16, "hidden": (128, 128),
             "batch": 16, "steps": 40, "held_out": 8, "sample_steps": 32},
    "tiny": {"sequences": 16, "frames": 64, "dims": 8, "channels": 8, "hidden": (32, 32),
             "batch": 4, "steps": 24, "held_out": 2, "sample_steps": 8},
}


def _infill_sequence(rng, frames: int, dims: int, channels: int, class_id: int, feature_seed: int):
    """A class-offset smooth latent plus quarter-rate local features of the same class."""
    phase = rng.uniform(0.0, 2.0 * math.pi, dims)
    rate = rng.uniform(0.02, 0.1)
    x1 = (2 * class_id - 3) + 0.5 * np.sin(rate * np.arange(frames)[:, None] + phase)
    x1 = x1 + 0.1 * rng.standard_normal((frames, dims))
    return x1, synth_features(feature_seed, frames // 4, channels, class_id)


def _hidden_spans(rng, frames: int) -> np.ndarray:
    """Two disjoint hidden spans covering about a quarter of the sequence."""
    mask = np.zeros(frames, dtype=bool)
    length = max(1, frames // 8)
    first = int(rng.integers(0, frames // 2 - length))
    second = int(rng.integers(frames // 2, frames - length))
    mask[first:first + length] = True
    mask[second:second + length] = True
    return mask


def infill_setup(work: Path, seed: int, size: dict) -> dict:
    work.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    n, frames, dims, channels = size["sequences"], size["frames"], size["dims"], size["channels"]
    dataset = [
        _infill_sequence(rng, frames, dims, channels, 1 + i % 2, seed * 1000 + i) for i in range(n)
    ]
    held_out = []
    for h in range(size["held_out"]):
        x1, local = _infill_sequence(rng, frames, dims, channels, 1 + h % 2, seed * 1000 + n + h)
        held_out.append((flow.MaskedLatent(x1, _hidden_spans(rng, frames)), local))
    model = flow.VelocityModel.initialize(
        dims, dims + channels, size["hidden"], np.random.default_rng(seed + 1))
    config = flow.TrainConfig(
        learning_rate=0.05,
        batch_size=size["batch"],
        steps=size["steps"],
        seed=seed,
        time_sampler=flow.TimeSampler("logit_normal"),
        mask_spec=flow.MaskSpec(p_cond=0.3, n_mask=2, l_mask=4),
        span_choices=(1, 2, 3),
        cond_dropout=0.1,
    )
    return {"work": work, "seed": seed, "dataset": dataset, "held_out": held_out, "model": model,
            "config": config, "cfg": flow.CfgSpec(3.0), "sample_steps": size["sample_steps"]}


def infill_pass(ops: Ops, st: dict):
    initial = st["model"]
    model = flow.VelocityModel(initial.latent_dim, initial.cond_dim,
                               [w.copy() for w in initial.weights], [b.copy() for b in initial.biases])
    config = st["config"]
    train = ops.call(flow.train, model, st["dataset"], config)
    if train.check(train.rc == 0, "train returned"):
        trace = np.asarray(train.value)
        window = max(1, config.steps // 4)
        train.check(trace.shape == (config.steps,) and bool(np.isfinite(trace).all()), "finite loss trace")
        train.check(trace[-window:].mean() < trace[:window].mean(), "trailing loss below leading loss")

    path = st["work"] / "infill.fgvm"
    ops.call(flow.save_model, model, path)
    load = ops.call(flow.load_model, path)
    loaded = load.value if load.rc == 0 else model
    load.check(load.rc == 0 and len(loaded.weights) == len(model.weights) and all(
        np.array_equal(a, b) for a, b in zip(loaded.weights + loaded.biases, model.weights + model.biases)
    ), "checkpoint round trip is bit-exact")

    frames_total, sample_secs = 0, 0.0
    for h, (masked, local) in enumerate(st["held_out"]):
        sample = ops.call(flow.euler_sample, loaded, st["sample_steps"], cfg=st["cfg"],
                          masked_cond=masked, local=local, rng=np.random.default_rng(st["seed"] * 100 + h))
        sample_secs += sample.secs
        frames_total += masked.n_frames
        sample.check(sample.rc == 0 and sample.value.shape == masked.latent.shape
                     and bool(np.isfinite(sample.value).all()), "finite samples of the requested shape")
    rates = {
        "train_steps_per_s": (config.steps, train.secs),
        "sample_frame_steps_per_s": (frames_total * st["sample_steps"], sample_secs),
    }
    return rates, NO_SKIPS


# --- dataset ---------------------------------------------------------------------

# Clip frames are grayscale 512x1024: the 2048x1024 ERP frame of ROADMAP item 1
# at half resolution per side. The repository states no clip frame size, so
# the size is set by what `clean` must exercise: decoding dominates its time,
# and a clip's 33 decoded frames (4.2 MB each as float64) on two workers set
# the process's peak memory, about 316 MB against about 247 MB for `cut-fov`
# alone on a 2-core host. Reading only the compared frames (ROADMAP item 3)
# therefore moves `peak_rss_mb`.
DATASET_SIZES = {
    "full": {"pairs": 8, "pair_seconds": 10.0, "manifests": 4, "clips_per_manifest": 50,
             "frames_per_clip": 33, "frame_shape": (512, 1024), "erp_frames": 2, "erp_height": 1024,
             "cut": 512, "stft_calls": 2, "one_of_each_kind": False},
    "tiny": {"pairs": 2, "pair_seconds": 1.0, "manifests": 2, "clips_per_manifest": 10,
             "frames_per_clip": 33, "frame_shape": (16, 24), "erp_frames": 1, "erp_height": 128,
             "cut": 64, "stft_calls": 2, "one_of_each_kind": True},
}
RATE = 16000
CLIP_SECONDS = 2.0
DOA_TOLERANCE = 1e-3  # radians; pcm16 quantisation moves the estimate by ~1e-5

# Clip kinds: (count in a full run, expected status, removal reasons, skipped filters).
# Five clips in 200 (2.5%) are malformed media: two truncated WAVs, two clips
# with one bad-header PGM frame, and one float32 WAV holding a NaN. Today the
# NaN clip aborts its whole `clean` call (a ValueError escapes the pipeline),
# and that call counts as failed; its expected outcome is the one a domain
# error would give: the audio filter is skipped and the clip kept.
CLIP_KINDS = {
    "normal": (None, "kept", (), ()),
    "stationary": (6, "removed", ("stationary",), ()),
    "silent": (6, "removed", ("silent",), ()),
    "speech": (6, "removed", ("speech",), ()),
    "misaligned": (6, "removed", ("alignment",), ()),
    "static_silent": (3, "removed", ("stationary", "silent"), ()),
    "unscored": (4, "kept", (), ("speech", "alignment")),
    "truncated_wav": (2, "kept", (), ("silent",)),
    "bad_pgm": (2, "kept", (), ("stationary",)),
    "nan_wav": (1, "kept", (), ("silent",)),
}
# What the CLI prints when the NaN clip aborts its `clean` call.
NAN_ERROR = "ValueError samples contains non-finite samples"


def _wav_bytes(samples: np.ndarray, channels: int, encoding: str) -> bytes:
    if encoding == "pcm16":
        tag, bits = 1, 16
        payload = np.clip(np.rint(samples * 32768.0), -32768, 32767).astype("<i2").tobytes()
    else:
        tag, bits = 3, 32
        payload = samples.astype("<f4").tobytes()
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", tag, channels, RATE, RATE * block, block, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _pnm_bytes(pixels: np.ndarray) -> bytes:
    height, width = pixels.shape[:2]
    magic = b"P5" if pixels.ndim == 2 else b"P6"
    return b"%s\n%d %d\n255\n" % (magic, width, height) + pixels.tobytes()


def _unit(theta: float, phi: float) -> np.ndarray:
    return np.array([math.cos(theta) * math.cos(phi), math.sin(theta) * math.cos(phi), math.sin(phi)])


# Creating a file costs about 0.5 ms on the ext4 volume this was measured
# on, and that cost swings with other tenants' I/O, so 6600 fresh frame files
# made set-up take 1.5-6 s. Clips therefore draw their frames and audio from
# a small pool of distinct files, hard-linked (about 15 us each) into each
# clip's own directory. `clean` sees the same paths, bytes and directory
# layout either way. The pool holds more frames than a clip, so a moving
# clip's frames are all distinct.
FRAME_POOL = 64
AUDIO_POOL = 8


def _make_pool(pool: Path, rng, size: dict) -> dict:
    pool.mkdir()
    h, w = size["frame_shape"]
    frames = []
    for k in range(FRAME_POOL):
        frames.append(pool / f"frame{k:02d}.pgm")
        frames[-1].write_bytes(_pnm_bytes(rng.integers(0, 256, (h, w), dtype=np.uint8)))
    bad = pool / "bad_header.pgm"
    bad.write_bytes(b"P5\n%d x%d\n255\n" % (w, h) + bytes(h * w))
    n = int(CLIP_SECONDS * RATE)
    audio = {"loud": [], "quiet": []}
    for name, amplitude in (("loud", 0.2), ("quiet", 1e-3)):
        for k in range(AUDIO_POOL):
            audio[name].append(pool / f"{name}{k}.wav")
            samples = np.clip(amplitude * rng.standard_normal(n), -0.99, 0.99)
            audio[name][-1].write_bytes(_wav_bytes(samples, 1, "pcm16"))
    truncated = pool / "truncated.wav"
    truncated.write_bytes(audio["loud"][0].read_bytes()[: 44 + n])
    nan = pool / "nan.wav"
    samples = 0.2 * rng.standard_normal(n)
    samples[n // 2] = np.nan
    nan.write_bytes(_wav_bytes(samples, 1, "float32"))
    return {"frames": frames, "bad": bad, "truncated": truncated, "nan": nan, **audio}


def _link(source: Path, path: Path) -> None:
    try:
        os.link(source, path)
    except OSError:  # a filesystem without hard links
        path.write_bytes(source.read_bytes())


def _write_clip(clip_dir: Path, kind: str, rng, pool: dict, frames: int) -> None:
    clip_dir.mkdir()
    if kind in ("stationary", "static_silent"):
        sources = [pool["frames"][int(rng.integers(FRAME_POOL))]] * frames
    else:  # distinct frames, so every compared pair differs
        sources = [pool["frames"][k] for k in rng.choice(FRAME_POOL, frames, replace=False)]
    if kind == "bad_pgm":
        sources[3] = pool["bad"]
    for f, source in enumerate(sources):
        _link(source, clip_dir / f"f{f:03d}.pgm")
    if kind in ("truncated_wav", "nan_wav"):
        audio = pool["truncated" if kind == "truncated_wav" else "nan"]
    else:
        quiet = kind in ("silent", "static_silent")
        audio = pool["quiet" if quiet else "loud"][int(rng.integers(AUDIO_POOL))]
    _link(audio, clip_dir / "audio.wav")


def dataset_setup(work: Path, seed: int, size: dict) -> dict:
    rng = np.random.default_rng(seed)
    for sub in ("mono", "truth", "estimate", "erp", "cuts", "reports", "clips"):
        (work / sub).mkdir(parents=True)

    # Direction pairs for spatialize / eval-doa: truth and estimate differ by a known offset.
    pair_samples = int(size["pair_seconds"] * RATE)
    pairs = []
    for i in range(size["pairs"]):
        theta, phi = rng.uniform(-2.5, 2.5), rng.uniform(-0.6, 0.6)
        est = (theta + rng.uniform(0.05, 0.3), phi + rng.uniform(-0.1, 0.1))
        mono = work / "mono" / f"m{i:02d}.wav"
        mono.write_bytes(_wav_bytes(np.clip(0.2 * rng.standard_normal(pair_samples), -0.99, 0.99), 1, "pcm16"))
        pairs.append((mono, (theta, phi), est))
    angles = [math.acos(min(1.0, float(_unit(*t) @ _unit(*e)))) for _, t, e in pairs]

    # Clips for clean: kinds shuffled over the manifests, so the NaN clip's call varies by seed.
    # The NaN clip is then moved to the end of its manifest: its aborted call has evaluated
    # every other clip of the manifest before the error surfaces, whatever the seed, so the
    # work per pass does not depend on the seed and fixing the defect adds one clip's work.
    total = size["manifests"] * size["clips_per_manifest"]
    kinds = []
    for kind, (count, *_rest) in CLIP_KINDS.items():
        if count is not None:
            kinds += [kind] * (1 if size["one_of_each_kind"] else count)
    kinds += ["normal"] * (total - len(kinds))
    kinds = [kinds[i] for i in rng.permutation(total)]
    nan = kinds.index("nan_wav")
    last = (nan // size["clips_per_manifest"] + 1) * size["clips_per_manifest"] - 1
    kinds[nan], kinds[last] = kinds[last], kinds[nan]
    pool = _make_pool(work / "pool", rng, size)
    manifests, expected = [], {}
    for m in range(size["manifests"]):
        path = work / f"manifest{m}.jsonl"
        ids = []
        with open(path, "w", encoding="utf-8") as fh:
            for c in range(m * size["clips_per_manifest"], (m + 1) * size["clips_per_manifest"]):
                clip_id, kind = f"c{c:04d}", kinds[c]
                _write_clip(work / "clips" / clip_id, kind, rng, pool, size["frames_per_clip"])
                record = {"id": clip_id, "audio_path": f"clips/{clip_id}/audio.wav",
                          "duration": CLIP_SECONDS, "sample_rate": RATE,
                          "frames_pattern": f"clips/{clip_id}/*.pgm"}
                if kind != "unscored":
                    record["word_count"] = int(rng.integers(6, 20) if kind == "speech" else rng.integers(0, 6))
                    record["alignment_score"] = float(
                        rng.uniform(0.0, 0.9) if kind == "misaligned" else rng.uniform(1.2, 3.0))
                fh.write(json.dumps(record) + "\n")
                expected[clip_id] = CLIP_KINDS[kind][1:]
                ids.append(clip_id)
        manifests.append((path, ids))

    height = size["erp_height"]
    erps = []
    for e in range(size["erp_frames"]):
        path = work / "erp" / f"erp{e}.ppm"
        path.write_bytes(_pnm_bytes(rng.integers(0, 256, (height, 2 * height, 3), dtype=np.uint8)))
        erps.append(path)
    return {"work": work, "pairs": pairs, "angles": angles, "manifests": manifests,
            "nan_manifest": kinds.index("nan_wav") // size["clips_per_manifest"],
            "expected": expected, "erps": erps, "size": size, "jobs": nproc()}


def _check_wav_header(op: Op, path: Path, channels: int, samples: int) -> None:
    try:
        head = path.read_bytes()[:44]
        tag, ch, rate, _, _, bits = struct.unpack_from("<HHIIHH", head, 20)
        size = path.stat().st_size
    except (OSError, struct.error):
        op.check(False, f"{path.name} unreadable")
        return
    op.check(head[:4] == b"RIFF" and (tag, ch, rate, bits) == (1, channels, RATE, 16)
             and size == 44 + samples * channels * 2, f"{path.name} is pcm16 FOA of the right length")


def _check_clean(op: Op, report: Path, ids: list, expected: dict, skipped: dict) -> None:
    want = {i: expected[i] for i in ids}
    removed = [i for i, (status, _r, _s) in want.items() if status == "removed"]
    op.check(_num(op, "evaluated") == len(ids), "evaluated count")
    op.check(_num(op, "removed") == len(removed) and _num(op, "kept") == len(ids) - len(removed),
             "kept/removed counts")
    for name in FILTERS:
        count = sum(name in reasons for _s, reasons, _k in want.values())
        op.check(_num(op, f"removed.{name}") == count, f"removed.{name}")
    try:
        rows = [json.loads(line) for line in report.read_text(encoding="utf-8").splitlines()]
    except (OSError, ValueError):
        rows = []
    got = {r["id"]: (r["status"], tuple(r["reasons"]), tuple(r["skipped"])) for r in rows}
    op.check(got == want, "per-clip status, reasons and skipped filters")
    for _status, _reasons, skips in got.values():
        for name in skips:
            skipped[name] += 1


def dataset_pass(ops: Ops, st: dict):
    work, size, jobs = st["work"], st["size"], st["jobs"]
    rates = {}
    pair_samples = int(size["pair_seconds"] * RATE)

    secs = 0.0
    for i, (mono, truth, est) in enumerate(st["pairs"]):
        for sub, (theta, phi) in (("truth", truth), ("estimate", est)):
            out = work / sub / f"p{i:02d}.wav"
            op = ops.cli("spatialize", mono, out, "--theta", repr(theta), "--phi", repr(phi),
                         "--encoding", "pcm16")
            secs += op.secs
            op.check(_num(op, "samples") == pair_samples and _num(op, "channels") == 4, "printed shape")
            _check_wav_header(op, out, 4, pair_samples)
    rates["spatialize_audio_s_per_s"] = (2 * len(st["pairs"]) * size["pair_seconds"], secs)

    op = ops.cli("eval-doa", work / "truth", work / "estimate", "--jobs", jobs)
    want = float(np.mean(st["angles"]))
    op.check(_num(op, "evaluated") == len(st["pairs"]) and _num(op, "excluded") == 0, "pair counts")
    op.check(abs(_num(op, "d_angular") - want) < DOA_TOLERANCE,
             f"d_angular {op.kv.get('d_angular')} vs known offset {want:.6f}")
    rates["doa_pairs_per_s"] = (len(st["pairs"]), op.secs)

    secs = 0.0
    for k in range(size["stft_calls"]):
        a = work / "truth" / f"p{k % len(st['pairs']):02d}.wav"
        b = a if k % 2 == 0 else work / "estimate" / a.name
        op = ops.cli("eval-stft", a, b)
        secs += op.secs
        value = _num(op, "stft_distance")
        if a == b:
            op.check(value == 0.0, f"distance of a file to itself is {value}")
        else:
            op.check(math.isfinite(value) and value > 0.0, f"distance between different files is {value}")
    rates["stft_audio_s_per_s"] = (size["stft_calls"] * size["pair_seconds"], secs)

    secs, clips = 0.0, 0
    skipped = {name: 0 for name in FILTERS}
    for m, (manifest, ids) in enumerate(st["manifests"]):
        report = work / "reports" / f"report{m}.jsonl"
        op = ops.cli("clean", manifest, "--report", report, "--base-dir", work, "--jobs", jobs)
        secs += op.secs
        if m == st["nan_manifest"] and op.rc != 0:
            # The known defect: the call has already failed; any other error is a wrong result.
            op.check(op.kv.get("error") == NAN_ERROR, f"error={op.kv.get('error')}, not {NAN_ERROR}")
        elif op.check(op.rc == 0, f"exit {op.rc}, error={op.kv.get('error')}"):
            clips += len(ids)
            _check_clean(op, report, ids, st["expected"], skipped)
    rates["clean_clips_per_s"] = (clips, secs)

    secs, cut = 0.0, size["cut"]
    for erp in st["erps"]:
        op = ops.cli("cut-fov", erp, work / "cuts", "--preset", "6cuts", "--width", cut,
                     "--height", cut, "--jobs", jobs)
        secs += op.secs
        op.check(_num(op, "frames") == 6, "six cuts")
        for i in range(6):
            path = Path(op.kv.get(f"frame.{i}", work / "missing"))
            header = b"P6\n%d %d\n255\n" % (cut, cut)
            ok = path.is_file() and path.stat().st_size == len(header) + 3 * cut * cut
            op.check(ok and path.read_bytes()[: len(header)] == header, f"cut {i} is a {cut}x{cut} image")
    rates["cut_mpix_per_s"] = (len(st["erps"]) * 6 * cut * cut / 1e6, secs)

    return rates, {f"cleaning.skipped.{name}": n for name, n in skipped.items()}


WORKLOADS = {
    "mixture": (MIXTURE_SIZES, mixture_setup, mixture_pass),
    "infill": (INFILL_SIZES, infill_setup, infill_pass),
    "dataset": (DATASET_SIZES, dataset_setup, dataset_pass),
}

# Unit of each end-to-end throughput a workload reports besides the gated metrics.
RATE_UNITS = {
    "train_steps_per_s": "steps/s",
    "sample_frame_steps_per_s": "frame-steps/s",
    "spatialize_audio_s_per_s": "audio-s/s",
    "clean_clips_per_s": "clips/s",
    "cut_mpix_per_s": "Mpix/s",
    "doa_pairs_per_s": "pairs/s",
    "stft_audio_s_per_s": "audio-s/s",
}
