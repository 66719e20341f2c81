"""Command-line front end.

One subcommand per pipeline. Results go to stdout as key=value lines so
scripts can parse them without guessing; the resolved configuration is
echoed first as config.<name>=<value> lines. Domain failures exit 1 with
a single machine-parseable error line; argparse usage errors exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import container
from .audio_io import WAV_ENCODINGS, read_matrix_any, read_wav, write_matrix, write_wav
from .cleaning import (
    FILTER_ORDER,
    FilterThresholds,
    read_manifest,
    run_pipeline,
    segment_clips,
    write_report,
)
from .errors import ChannelCountUnsupported, EmptyBatch, FoagenError, InvalidValue, ShapeMismatch
from .foa import Direction, FoaSignal, MonoSignal, StereoSignal, estimate_doa, signal_from_channels, spatialize_mono, stereo_to_foa
from .flow import (
    MIXTURE_TRAIN,
    CfgSpec,
    MaskSpec,
    TimeSampler,
    TrainConfig,
    VelocityModel,
    euler_sample,
    load_model,
    make_mask,
    mixture_condition,
    mixture_dataset,
    mixture_model,
    save_model,
    train,
)
from .metrics import StftConfig, eval_doa_batch, frechet_distance, kl_divergence, multires_stft_distance, signal_direction
from .panorama import (
    FOV_PRESETS,
    CameraSpec,
    encode_stored,
    erp_to_perspective,
    fov_cameras,
    pad_to_square,
    read_frame,
    read_stored,
    write_frame,
)

DEGREES = 180.0 / math.pi

# The model fm-train --data builds when --hidden or --init-seed is unset.
_DATA_HIDDEN = (32,)
_DATA_INIT_SEED = 0


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.12g" % value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


def _emit(key: str, value) -> None:
    # A line break in a key or value prints as a space, so no path or
    # message can forge a line of its own.
    print(" ".join(f"{key}={_fmt(value)}".splitlines()))


def _emit_angle(key: str, radians: float, degrees: bool) -> None:
    # Degrees are a display convenience; radians keep full precision.
    if degrees:
        _emit(key, f"{radians * DEGREES:.3f}")
    else:
        _emit(key, radians)


def _angle_in(value: float, degrees: bool) -> float:
    return value / DEGREES if degrees else value


def _describe(exc: BaseException) -> str:
    """``<ErrorType> <message>``, as an ``error=`` line gives it; :func:`_emit`
    prints any line break in the message as a space."""
    # numpy raises a private subclass of MemoryError; name the public type.
    name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
    return f"{name} {exc}"


def _print_config(args: argparse.Namespace) -> None:
    for key in sorted(vars(args)):
        if key == "func":
            continue
        _emit(f"config.{key}", getattr(args, key))


def _require(path, kind, ambix=False):
    """The WAV file at ``path`` if it holds a ``kind`` signal, else
    ChannelCountUnsupported naming the file."""
    signal = read_wav(path, ambix=ambix)
    if not isinstance(signal, kind):
        raise ChannelCountUnsupported(
            f"{path}: expected a {kind.n_channels}-channel input file, "
            f"got {len(signal.channels)} channels"
        )
    return signal


def _int_list(text: str) -> tuple[int, ...]:
    """The comma-separated integers of a list flag; a bad or empty token,
    and so an empty list, is a usage error."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid list of integers: {text!r}") from None


# --- audio subcommands --------------------------------------------------------------


def _cmd_spatialize(args) -> int:
    mono = _require(args.input, MonoSignal)
    direction = Direction(
        _angle_in(args.theta, args.degrees), _angle_in(args.phi, args.degrees)
    )
    foa = spatialize_mono(mono, direction)
    write_wav(foa, args.output, args.encoding, ambix=args.ambix)
    _emit("samples", foa.w.shape[0])
    _emit("channels", 4)
    _emit("output", args.output)
    return 0


def _cmd_stereo2foa(args) -> int:
    stereo = _require(args.input, StereoSignal)
    foa = stereo_to_foa(stereo)
    write_wav(foa, args.output, args.encoding, ambix=args.ambix)
    _emit("samples", foa.w.shape[0])
    _emit("output", args.output)
    return 0


def _cmd_doa(args) -> int:
    foa = _require(args.input, FoaSignal, ambix=args.ambix)
    direction = estimate_doa(foa)
    _emit_angle("theta", direction.azimuth, args.degrees)
    _emit_angle("phi", direction.elevation, args.degrees)
    return 0


def _wav_pair_paths(truth: str, estimate: str) -> list[tuple[str, str]]:
    """The (truth, estimate) files to compare: the two arguments, or the
    .wav files of two directories paired by file name."""
    t_path, e_path = Path(truth), Path(estimate)
    if t_path.is_dir() != e_path.is_dir():
        raise ShapeMismatch("both arguments must be files or both directories")
    if not t_path.is_dir():
        return [(truth, estimate)]
    t_files = {p.name: str(p) for p in t_path.glob("*.wav")}
    e_files = {p.name: str(p) for p in e_path.glob("*.wav")}
    unmatched = sorted(t_files.keys() ^ e_files.keys())
    if unmatched:
        raise ShapeMismatch(
            f"no file of the same name in the other directory for {', '.join(unmatched)}"
        )
    return [(t_files[name], e_files[name]) for name in sorted(t_files)]


def _emit_failed(failed: dict[str, str]) -> None:
    _emit("failed", len(failed))
    for name in sorted(failed):
        _emit(f"failed.{name}", failed[name])


def _cmd_eval_doa(args) -> int:
    paths = _wav_pair_paths(args.truth, args.estimate)

    def directions(pair):
        # Each file is read and turned into its direction before the next
        # is read, and the signal dies when signal_direction returns, so a
        # task holds one decoded signal and the pool at most ``jobs``. A
        # read failure outranks a silent file, and the truth file's first.
        try:
            truth = signal_direction(_require(pair[0], FoaSignal, ambix=args.ambix))
            estimate = signal_direction(_require(pair[1], FoaSignal, ambix=args.ambix))
        except FoagenError as exc:
            return _describe(exc)
        return None if None in (truth, estimate) else (truth, estimate)

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        outcomes = list(pool.map(directions, paths))
    failed = {
        Path(truth).name: outcome
        for (truth, _), outcome in zip(paths, outcomes)
        if isinstance(outcome, str)
    }
    try:
        result = eval_doa_batch(o for o in outcomes if not isinstance(o, str))
    except EmptyBatch:
        _emit_failed(failed)  # say why no pair was left to evaluate
        raise
    _emit_angle("d_theta", result.errors.d_theta, args.degrees)
    _emit_angle("d_phi", result.errors.d_phi, args.degrees)
    _emit_angle("d_angular", result.errors.d_angular, args.degrees)
    _emit("evaluated", result.pairs_evaluated)
    _emit("excluded", result.pairs_excluded)
    _emit_failed(failed)
    return 0


def _cmd_eval_fd(args) -> int:
    a = read_matrix_any(args.a)
    b = read_matrix_any(args.b)
    _emit("fd", frechet_distance(a, b))
    return 0


def _cmd_eval_kl(args) -> int:
    p = read_matrix_any(args.p).ravel()
    q = read_matrix_any(args.q).ravel()
    _emit("kl", kl_divergence(p, q))
    return 0


def _cmd_eval_stft(args) -> int:
    config = StftConfig(window_sizes=args.windows, hop_fraction=args.hop)
    a = _require(args.a, FoaSignal, ambix=args.ambix)
    b = _require(args.b, FoaSignal, ambix=args.ambix)
    _emit("stft_distance", multires_stft_distance(a, b, config, jobs=args.jobs))
    return 0


# --- panorama subcommands -----------------------------------------------------------


def _cmd_pad_erp(args) -> int:
    frame = read_frame(args.input)
    padded = pad_to_square(frame)
    write_frame(args.output, padded, bit_depth=args.bit_depth)
    _emit("in_height", frame.shape[0])
    _emit("in_width", frame.shape[1])
    _emit("out_height", padded.shape[0])
    _emit("out_width", padded.shape[1])
    _emit("output", args.output)
    return 0


def _cmd_cut_fov(args) -> int:
    # Cuts sample the stored pixels; the ERP is never decoded whole.
    frame = read_stored(args.input)
    cameras = fov_cameras(args.preset, args.hfov / DEGREES, args.width, args.height)
    # Cuts keep the ERP's format and are named by it: an anymap's are
    # quantized to --bit-depth block by block as they render, so no task
    # holds a float cut; a float container's stay float.
    bit_depth = None if frame.maxval is None else args.bit_depth
    stem = Path(args.input).stem
    outdir = Path(args.outdir)
    paths = [outdir / f"{stem}_cut{i}{frame.suffix}" for i in range(len(cameras))]
    container.make_dirs(outdir)

    def encode_cut(i):
        return encode_stored(erp_to_perspective(frame, cameras[i], bit_depth))

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        encoded = list(pool.map(encode_cut, range(len(cameras))))

    _emit("frames", len(cameras))
    for i, (cam, path, parts) in enumerate(zip(cameras, paths, encoded)):
        container.write_bytes(path, *parts)
        _emit(f"frame.{i}", path)
        _emit_angle(f"frame.{i}.yaw", cam.yaw, degrees=True)
        _emit_angle(f"frame.{i}.pitch", cam.pitch, degrees=True)
    return 0


# --- dataset subcommands ------------------------------------------------------------


def _cmd_clean(args) -> int:
    entries = read_manifest(args.manifest)
    thresholds = FilterThresholds(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(FilterThresholds)}
    )
    report = run_pipeline(entries, thresholds, base_dir=args.base_dir, jobs=args.jobs)
    write_report(args.report, report)
    _emit("evaluated", report.evaluated)
    _emit("kept", len(report.kept))
    _emit("removed", len(report.removed))
    for name in sorted(report.counts):
        _emit(f"removed.{name}", report.counts[name])
    for name in FILTER_ORDER:
        _emit(f"skipped.{name}", sum(name in skips for skips in report.skipped.values()))
    _emit("report", args.report)
    return 0


def _cmd_segment(args) -> int:
    signal = read_wav(args.input)
    clips = segment_clips(signal.n_samples, signal.sample_rate, args.clip_seconds)
    _emit("segments", len(clips))
    outdir = Path(args.outdir) if args.outdir else None
    if outdir is not None:
        container.make_dirs(outdir)
    for index, clip in enumerate(clips):
        _emit(f"segment.{index}", f"{clip.start}:{clip.stop}")
        if outdir is not None:
            piece = signal_from_channels(signal.channels[:, clip], signal.sample_rate)
            path = outdir / f"{Path(args.input).stem}_seg{index:03d}.wav"
            write_wav(piece, path)
            _emit(f"segment.{index}.file", path)
    return 0


# --- flow subcommands ---------------------------------------------------------------


def _cmd_mask_stats(args) -> int:
    if args.draws < 1:
        raise InvalidValue(f"draws must be at least 1, got {args.draws}")
    spec = MaskSpec(p_cond=args.p_cond, n_mask=args.spans, l_mask=args.min_len)
    rng = np.random.default_rng(args.seed)
    partial = 0
    masked_total = 0
    spans_ok = True
    for _ in range(args.draws):
        mask, fully_masked = make_mask(args.frames, spec, rng)
        masked_total += int(mask.sum())
        if fully_masked:
            continue
        partial += 1
        runs = np.diff(np.flatnonzero(np.diff(np.r_[0, mask.astype(int), 0])))[::2]
        if len(runs) != spec.n_mask or (runs < spec.l_mask).any():
            spans_ok = False
    _emit("draws", args.draws)
    _emit("partial", partial)
    _emit("partial_fraction", partial / args.draws)
    _emit("full", args.draws - partial)
    _emit("spans_ok", spans_ok)
    _emit("mean_masked_fraction", masked_total / (args.draws * args.frames))
    return 0


def _given(**values) -> dict:
    """The keyword arguments whose flag was given, that is, is not None."""
    return {name: value for name, value in values.items() if value is not None}


def _resolve_train_config(args, fixture: bool) -> TrainConfig:
    overrides = _given(
        learning_rate=args.lr, batch_size=args.batch, steps=args.steps, seed=args.seed
    )
    if args.time_sampler is not None:
        overrides["time_sampler"] = TimeSampler(
            args.time_sampler, **_given(mu=args.mu, sigma=args.sigma)
        )
    return dataclasses.replace(MIXTURE_TRAIN if fixture else TrainConfig(), **overrides)


def _cmd_fm_train(args) -> int:
    if (args.fixture is None) == (args.data is None):
        raise InvalidValue("exactly one of --fixture or --data is required")
    # A flag that cannot act is refused rather than ignored.
    for name in ("mu", "sigma"):
        if getattr(args, name) is not None and args.time_sampler is None:
            raise InvalidValue(f"--{name} needs --time-sampler")
    for name in ("hidden", "init_seed", "cond"):
        if getattr(args, name) is not None and args.fixture is not None:
            raise InvalidValue(f"--{name.replace('_', '-')} cannot be used with --fixture")
    config = _resolve_train_config(args, fixture=args.fixture is not None)
    if args.fixture is not None:
        dataset = mixture_dataset()
        model = mixture_model()
    else:
        x1 = read_matrix_any(args.data)
        cond = read_matrix_any(args.cond) if args.cond else None
        if cond is not None and cond.shape[0] != x1.shape[0]:
            raise ShapeMismatch(
                f"{x1.shape[0]} data rows vs {cond.shape[0]} condition rows"
            )
        dataset = [
            (x1[i][None, :], cond[i] if cond is not None else None)
            for i in range(x1.shape[0])
        ]
        latent_dim = x1.shape[1]
        cond_dim = latent_dim + (cond.shape[1] if cond is not None else 0)
        hidden = args.hidden if args.hidden is not None else _DATA_HIDDEN
        init_seed = args.init_seed if args.init_seed is not None else _DATA_INIT_SEED
        model = VelocityModel.initialize(
            latent_dim, cond_dim, hidden, np.random.default_rng(init_seed)
        )

    trace = train(model, dataset, config)
    if args.trace:
        text = "".join("%d\t%.17g\n" % (step, loss) for step, loss in enumerate(trace))
        container.write_bytes(args.trace, text.encode("utf-8"))
        _emit("trace", args.trace)
    if args.save:
        save_model(model, args.save)
        _emit("model", args.save)
    # Disjoint lead and trail windows of up to 100 steps each.
    window = max(1, min(100, len(trace) // 2))
    _emit("steps", len(trace))
    _emit("lead_loss", float(np.mean(trace[:window])))
    _emit("trail_loss", float(np.mean(trace[-window:])))
    _emit("final_loss", "%.17g" % trace[-1])
    return 0


def _cmd_fm_sample(args) -> int:
    if args.cond and args.mixture_class is not None:
        raise InvalidValue("--cond and --mixture-class are mutually exclusive")
    cfg = CfgSpec(args.cfg_scale)
    global_cond = None
    if args.mixture_class is not None:
        global_cond = mixture_condition(args.mixture_class)
    model = load_model(args.model)
    if args.cond:
        global_cond = read_matrix_any(args.cond).ravel()
    samples = euler_sample(
        model,
        steps=args.steps,
        cfg=cfg,
        global_cond=global_cond,
        frames=args.frames,
        rng=np.random.default_rng(args.seed),
    )
    _emit("samples", samples.shape[0])
    mean = samples.mean(axis=0)
    for d in range(mean.shape[0]):
        _emit(f"mean.{d}", float(mean[d]))
    if args.out:
        write_matrix(args.out, samples)
        _emit("out", args.out)
    return 0


# --- parser -------------------------------------------------------------------------


def _add(subparsers, name: str, func, help_text: str):
    parser = subparsers.add_parser(
        name,
        help=help_text,
        description=help_text,
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.set_defaults(func=func)
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    caller, who must not change it: building it costs about 4 ms, which a
    script calling main once per file would pay on every call. ``--jobs``
    defaults to None and main resolves it."""
    root = argparse.ArgumentParser(
        prog="foagen",
        description="Spatial-audio generation toolkit: FOA encoding, metrics, "
        "flow matching, panorama cuts, dataset cleaning.",
    )
    subparsers = root.add_subparsers(dest="command", required=True)

    p = _add(subparsers, "spatialize", _cmd_spatialize, "Encode a mono WAV into FOA at a given direction.")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--theta", type=float, required=True, help="azimuth")
    p.add_argument("--phi", type=float, default=0.0, help="elevation")
    p.add_argument("--degrees", action="store_true", help="angles are degrees, not radians")
    p.add_argument("--encoding", choices=WAV_ENCODINGS, default="pcm16")
    p.add_argument("--ambix", action="store_true", help="write ACN/SN3D channel order")

    p = _add(subparsers, "stereo2foa", _cmd_stereo2foa, "Project a stereo WAV into FOA.")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--encoding", choices=WAV_ENCODINGS, default="float32")
    p.add_argument("--ambix", action="store_true", help="write ACN/SN3D channel order")

    p = _add(subparsers, "doa", _cmd_doa, "Estimate direction of arrival from a FOA WAV.")
    p.add_argument("input")
    p.add_argument("--degrees", action="store_true", help="print angles in degrees")
    p.add_argument("--ambix", action="store_true", help="input uses ACN/SN3D order")

    p = _add(subparsers, "eval-doa", _cmd_eval_doa, "Mean angular errors between truth/estimate FOA pairs.")
    p.add_argument("truth", help="FOA WAV file or directory of .wav files")
    p.add_argument("estimate", help="matching file or directory")
    p.add_argument("--degrees", action="store_true", help="print errors in degrees")
    p.add_argument("--ambix", action="store_true")
    p.add_argument("--jobs", type=int, help="parallel pair loads, each worker estimating its pair's directions one file at a time; at most jobs decoded signals are held at once; unset: usable CPU count")

    p = _add(subparsers, "eval-fd", _cmd_eval_fd, "Frechet distance between two feature matrices.")
    p.add_argument("a", help=".fmat container or delimited text")
    p.add_argument("b")

    p = _add(subparsers, "eval-kl", _cmd_eval_kl, "KL divergence between two label distributions.")
    p.add_argument("p", help="reference distribution file")
    p.add_argument("q", help="approximating distribution file")

    p = _add(subparsers, "eval-stft", _cmd_eval_stft, "Multi-resolution STFT distance between two FOA WAVs.")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--windows", type=_int_list, default=",".join(map(str, StftConfig.window_sizes)), help="comma-separated window sizes")
    p.add_argument("--hop", type=float, default=StftConfig.hop_fraction, help="hop as a fraction of the window")
    p.add_argument("--ambix", action="store_true")
    p.add_argument("--jobs", type=int, help="parallel frame blocks; at most jobs blocks are held at once; unset: usable CPU count")

    p = _add(subparsers, "pad-erp", _cmd_pad_erp, "Pad a 2:1 equirectangular image to square.")
    p.add_argument("input", help=".pgm/.ppm/.fframe image")
    p.add_argument("output")
    p.add_argument("--bit-depth", type=int, choices=(8, 16), default=8)

    p = _add(subparsers, "cut-fov", _cmd_cut_fov, "Extract perspective cuts from an equirectangular image.")
    p.add_argument("input", help=".pgm/.ppm/.fframe image")
    p.add_argument("outdir")
    p.add_argument("--preset", choices=sorted(FOV_PRESETS), default="front")
    p.add_argument("--hfov", type=float, default=120.0, help="horizontal field of view in degrees")
    p.add_argument("--width", type=int, default=CameraSpec.out_width)
    p.add_argument("--height", type=int, default=CameraSpec.out_height)
    p.add_argument("--bit-depth", type=int, choices=(8, 16), default=8,
                   help="bits per sample of anymap cuts; a .fframe ERP gives float cuts")
    p.add_argument("--jobs", type=int, help="parallel cut rendering; unset: usable CPU count")

    p = _add(subparsers, "clean", _cmd_clean, "Run the cleaning filters over a JSONL manifest.")
    p.add_argument("manifest")
    p.add_argument("--report", default="report.jsonl", help="output report path")
    p.add_argument("--base-dir", default="", help="prefix for relative audio/frame paths, taken literally: only frames_pattern is a glob")
    # Each threshold flag's dest names the FilterThresholds field it sets.
    p.add_argument("--silence-dbfs", type=float, default=FilterThresholds.silence_dbfs, help="window silence threshold (dBFS)")
    p.add_argument("--silence-ratio", type=float, default=FilterThresholds.silence_ratio, help="silent-window ratio above which a clip is removed")
    p.add_argument("--window-ms", type=float, default=FilterThresholds.window_ms, help="dBFS window length")
    p.add_argument("--stationary-ratio", type=float, default=FilterThresholds.stationary_ratio, help="near-identical frame-pair ratio")
    p.add_argument("--frame-mse", type=float, default=FilterThresholds.frame_mse, help="MSE below which two frames count as identical")
    p.add_argument("--frame-interval", type=int, default=FilterThresholds.frame_interval, help="frame-pair comparison stride")
    p.add_argument("--max-words", type=int, default=FilterThresholds.max_words, help="clips with more transcribed words are removed")
    p.add_argument("--min-alignment", type=float, default=FilterThresholds.min_alignment, help="clips scoring lower are removed; 2 is the strict cut")
    p.add_argument("--jobs", type=int, help="parallel entry evaluation; unset: usable CPU count")

    p = _add(subparsers, "segment", _cmd_segment, "Split a WAV into fixed-length clips (trailing remainder dropped).")
    p.add_argument("input")
    p.add_argument("--clip-seconds", type=float, default=10.0)
    p.add_argument("--outdir", default="", help="write one WAV per clip here")

    p = _add(subparsers, "mask-stats", _cmd_mask_stats, "Empirical statistics of the span-mask generator.")
    p.add_argument("--frames", type=int, default=200)
    p.add_argument("--draws", type=int, default=10000)
    p.add_argument("--p-cond", type=float, default=0.1, help="probability of a partial mask")
    p.add_argument("--spans", type=int, default=MaskSpec.n_mask, help="masked span count")
    p.add_argument("--min-len", type=int, default=MaskSpec.l_mask, help="minimum span length")
    p.add_argument("--seed", type=int, default=0)

    p = _add(subparsers, "fm-train", _cmd_fm_train, "Train the velocity model on the mixture fixture or on matrix data.")
    p.add_argument("--fixture", choices=("mixture",), help="built-in dataset (frozen hyperparameters)")
    p.add_argument("--data", help=".fmat/.txt matrix, one sample per row")
    p.add_argument("--cond", help="matching per-row condition matrix")
    p.add_argument("--steps", type=int, help="unset: fixture/library default")
    p.add_argument("--lr", type=float, help="unset: fixture/library default")
    p.add_argument("--batch", type=int, help="unset: fixture/library default")
    p.add_argument("--seed", type=int, help="unset: fixture/library default")
    p.add_argument("--hidden", type=_int_list, help=f"comma-separated hidden widths (--data only; unset: {','.join(map(str, _DATA_HIDDEN))})")
    p.add_argument("--init-seed", type=int, help=f"weight init seed (--data only; unset: {_DATA_INIT_SEED})")
    p.add_argument("--time-sampler", choices=("uniform", "logit_normal"))
    p.add_argument("--mu", type=float, help=f"logit-normal location (needs --time-sampler; unset: {TimeSampler.mu:g})")
    p.add_argument("--sigma", type=float, help=f"logit-normal scale (needs --time-sampler; unset: {TimeSampler.sigma:g})")
    p.add_argument("--save", default="", help="write a checkpoint here")
    p.add_argument("--trace", default="", help="write the per-step loss trace here (TSV)")

    p = _add(subparsers, "fm-sample", _cmd_fm_sample, "Draw samples from a trained velocity-model checkpoint.")
    p.add_argument("--model", required=True, help="checkpoint from fm-train --save")
    p.add_argument("--frames", type=int, default=1000, help="independent samples to draw")
    p.add_argument("--steps", type=int, default=128, help="Euler integration steps")
    p.add_argument("--cfg-scale", type=float, default=5.0, help="classifier-free guidance scale")
    p.add_argument("--cond", default="", help="global condition vector file")
    p.add_argument("--mixture-class", type=int, help="use a frozen mixture-class condition")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="", help="write samples as a .fmat matrix")

    return root


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "jobs", 0) is None:
        args.jobs = len(os.sched_getaffinity(0))
    _print_config(args)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise InvalidValue(f"jobs must be at least 1, got {args.jobs}")
        # numpy's generators take no negative seed.
        for name in ("seed", "init_seed"):
            seed = getattr(args, name, None)
            if seed is not None and seed < 0:
                raise InvalidValue(f"--{name.replace('_', '-')} must be non-negative, got {seed}")
        return args.func(args)
    except (FoagenError, MemoryError) as exc:
        _emit("error", _describe(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
