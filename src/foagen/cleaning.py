"""Dataset cleaning: silence and stationarity screens, speech and
alignment filters, and fixed-length clip segmentation.

Manifests are line-delimited JSON, one clip per line. Filters run in a
documented order (stationary, silent, speech, alignment) but each entry
is evaluated against every applicable filter, so removal reasons
accumulate and the kept set does not depend on the order. Entries
missing an optional score are never removed by that filter; they are
flagged as skipped instead.

All threshold comparisons are strict: a value sitting exactly on a
boundary is kept.
"""

from __future__ import annotations

import glob
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields
from numbers import Integral, Real

import numpy as np

from . import container
from .audio_io import read_wav
from .errors import EmptySignal, FoagenError, IoFailure, ManifestParseError, MissingScore
from .panorama import check_frame, read_stored, settle_stationarity


@dataclass(frozen=True)
class FilterThresholds:
    """Cleaning thresholds; defaults follow the shipped recipe.

    ``min_alignment`` defaults to the lenient 1.0 cut; 2.0 is the
    strict cut.
    """

    silence_dbfs: float = -35.0
    silence_ratio: float = 0.90
    stationary_ratio: float = 0.85
    max_words: int = 5
    min_alignment: float = 1.0
    window_ms: float = 20.0
    frame_interval: int = 8
    frame_mse: float = 1e-3

    def __post_init__(self):
        if not 0.0 <= self.silence_ratio <= 1.0:
            raise ValueError("silence_ratio must lie in [0, 1]")
        if not 0.0 <= self.stationary_ratio <= 1.0:
            raise ValueError("stationary_ratio must lie in [0, 1]")
        for name in ("silence_dbfs", "min_alignment", "frame_mse"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got nan")
        if not 0.0 < self.window_ms < math.inf:
            raise ValueError(f"window_ms must be positive and finite, got {self.window_ms!r}")
        if self.frame_interval < 1:
            raise ValueError("frame_interval must be >= 1")


@dataclass(frozen=True)
class ClipManifestEntry:
    """One media clip: paths, duration, and externally supplied scores.

    The constructor checks every field's type and range; :func:`read_manifest`
    relies on it and checks no field itself. Numbers are kept as given,
    never converted, and ``bool`` is not a number.
    """

    id: str
    audio_path: str
    duration: float
    sample_rate: int
    frames_pattern: str | None = None
    labels: tuple[str, ...] = ()
    word_count: int | None = None
    alignment_score: float | None = None

    def __post_init__(self):
        kinds = {"id": str, "audio_path": str, "duration": Real, "sample_rate": Integral,
                 "frames_pattern": str, "word_count": Integral, "alignment_score": Real}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in kinds or (value is None and f.default is None):
                continue
            if isinstance(value, bool) or not isinstance(value, kinds[f.name]):
                raise TypeError(f"{f.name} must be {kinds[f.name].__name__}, got {value!r}")
        if not self.id:
            raise ValueError("entry id must be non-empty")
        if self.duration < 0.0 or not math.isfinite(self.duration):
            raise ValueError(f"duration must be finite and >= 0, got {self.duration!r}")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not isinstance(self.labels, (list, tuple)) or not all(
            isinstance(label, str) for label in self.labels
        ):
            raise TypeError(f"labels must be a list of strings, got {self.labels!r}")
        object.__setattr__(self, "labels", tuple(self.labels))


# --- windowed level analysis --------------------------------------------------

def window_dbfs(samples, window_ms: float, sample_rate: int) -> np.ndarray:
    """Peak level per analysis window, in dBFS.

    ``samples`` is (n,) or (channels, n); the peak is taken across
    channels and samples inside each window. Windows tile the signal
    without overlap and are complete only (a trailing partial window is
    dropped). An all-zero window yields -inf.

    Raises:
        EmptySignal: when not even one complete window fits.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError("samples must be (n,) or (channels, n)")
    window = int(round(window_ms * sample_rate / 1000.0))
    if window < 1:
        raise ValueError(
            f"window of {window_ms} ms at {sample_rate} Hz holds no samples"
        )
    channels, n = arr.shape
    count = n // window
    if count == 0:
        raise EmptySignal(f"{n} samples cannot fill a {window}-sample window")
    windows = arr[:, : count * window].reshape(channels, count, window)
    peaks = np.abs(windows).max(axis=(0, 2))
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(peaks)


@dataclass(frozen=True)
class SilenceResult:
    """Silent-window fraction and the resulting verdict."""

    silent: bool
    ratio: float
    windows: int


def silence_verdict(
    samples, sample_rate: int, thresholds: FilterThresholds | None = None
) -> SilenceResult:
    """Decide whether a clip is mostly silent.

    A window is silent when its peak level falls strictly below
    ``silence_dbfs``; the clip is silent when the silent fraction
    strictly exceeds ``silence_ratio``.
    """
    if thresholds is None:
        thresholds = FilterThresholds()
    levels = window_dbfs(samples, thresholds.window_ms, sample_rate)
    silent_windows = int(np.sum(levels < thresholds.silence_dbfs))
    ratio = silent_windows / levels.shape[0]
    return SilenceResult(ratio > thresholds.silence_ratio, ratio, levels.shape[0])


# --- per-entry filters ---------------------------------------------------------

def speech_filter(entry: ClipManifestEntry, max_words: int = 5) -> bool:
    """True to keep: the clip's detected word count does not exceed the cap.

    Raises:
        MissingScore: when the entry carries no word count.
    """
    if entry.word_count is None:
        raise MissingScore(f"entry {entry.id!r} has no word_count")
    return entry.word_count <= max_words


def alignment_filter(entry: ClipManifestEntry, min_alignment: float = 1.0) -> bool:
    """True to keep: audio-visual alignment is not below the floor.

    Raises:
        MissingScore: when the entry carries no alignment score.
    """
    if entry.alignment_score is None:
        raise MissingScore(f"entry {entry.id!r} has no alignment_score")
    return entry.alignment_score >= min_alignment


# --- segmentation ---------------------------------------------------------------

@dataclass(frozen=True)
class ClipSpan:
    """A fixed-length span of a clip, in seconds and in samples."""

    index: int
    start_seconds: float
    end_seconds: float
    start_sample: int
    end_sample: int


def segment_clips(
    entry: ClipManifestEntry, clip_seconds: float = 10.0
) -> list[ClipSpan]:
    """Non-overlapping fixed-length spans; trailing remainder is dropped.

    Each span holds ``round(clip_seconds * sample_rate)`` samples, and the
    count is taken in whole samples, so every span lies inside the signal.

    Raises:
        ValueError: when ``clip_seconds`` is not positive and finite, is
            shorter than one sample at the entry's rate, or is so long that
            its sample count overflows a float.
    """
    if not 0.0 < clip_seconds < math.inf:
        raise ValueError(f"clip_seconds must be positive and finite, got {clip_seconds!r}")
    clip_samples = clip_seconds * entry.sample_rate
    if math.isinf(clip_samples):
        raise ValueError(
            f"clip_seconds {clip_seconds!r} overflows a sample count at {entry.sample_rate} Hz"
        )
    samples_per_clip = int(round(clip_samples))
    if samples_per_clip < 1:
        raise ValueError(
            f"clip_seconds {clip_seconds!r} is shorter than one sample at {entry.sample_rate} Hz"
        )
    count = int(round(entry.duration * entry.sample_rate)) // samples_per_clip
    return [
        ClipSpan(
            index=k,
            start_seconds=k * clip_seconds,
            end_seconds=(k + 1) * clip_seconds,
            start_sample=k * samples_per_clip,
            end_sample=(k + 1) * samples_per_clip,
        )
        for k in range(count)
    ]


# --- manifest I/O ----------------------------------------------------------------

def read_manifest(path) -> list[ClipManifestEntry]:
    """Read a line-delimited JSON manifest.

    Each line is one :class:`ClipManifestEntry` record; a ``null`` value
    means the key is absent.

    Raises:
        ManifestParseError: naming the offending line on bad JSON, bad or
            missing keys, or duplicate ids; or on an unreadable or non-UTF-8
            file.
    """
    keys = {f.name for f in fields(ClipManifestEntry)}
    required = {f.name for f in fields(ClipManifestEntry) if f.default is MISSING}
    entries: list[ClipManifestEntry] = []
    seen: set[str] = set()
    try:
        lines = container.read_lines(path)
    except (IoFailure, UnicodeDecodeError) as exc:
        raise ManifestParseError(f"cannot read manifest {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:  # bad syntax, huge ints, deep nesting
            raise ManifestParseError(f"line {lineno}: invalid JSON ({exc})") from exc
        if not isinstance(record, dict):
            raise ManifestParseError(f"line {lineno}: expected an object")
        missing = required - record.keys()
        if missing:
            raise ManifestParseError(
                f"line {lineno}: missing keys {sorted(missing)}"
            )
        unknown = record.keys() - keys
        if unknown:
            raise ManifestParseError(
                f"line {lineno}: unknown keys {sorted(unknown)}"
            )
        try:
            entry = ClipManifestEntry(
                **{key: value for key, value in record.items() if value is not None}
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ManifestParseError(f"line {lineno}: {exc}") from exc
        if entry.id in seen:
            raise ManifestParseError(f"line {lineno}: duplicate id {entry.id!r}")
        seen.add(entry.id)
        entries.append(entry)
    return entries


def write_manifest(path, entries) -> None:
    """Write entries as line-delimited JSON, one clip per line."""
    text = "".join(json.dumps(asdict(entry)) + "\n" for entry in entries)
    container.write_bytes(path, text.encode("utf-8"))


# --- the pipeline -----------------------------------------------------------------

FILTER_ORDER = ("stationary", "silent", "speech", "alignment")


@dataclass
class FilterReport:
    """Outcome of a cleaning run, keyed by entry id."""

    kept: list[str] = field(default_factory=list)
    removed: dict[str, list[str]] = field(default_factory=dict)
    skipped: dict[str, list[str]] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    evaluated: int = 0

    def summary_table(self) -> str:
        """Human-readable per-filter removal counts."""
        lines = [
            f"{'filter':<12} {'removed':>8}",
            f"{'-' * 12} {'-' * 8}",
        ]
        for name in FILTER_ORDER:
            lines.append(f"{name:<12} {self.counts.get(name, 0):>8}")
        lines.append(
            f"{'total':<12} {len(self.removed):>8}  "
            f"(kept {len(self.kept)} of {self.evaluated})"
        )
        return "\n".join(lines)


def write_report(path, report: FilterReport) -> None:
    """Write a report as line-delimited JSON plus a summary table."""
    lines = []
    for entry_id in sorted(set(report.kept) | set(report.removed)):
        record = {
            "id": entry_id,
            "status": "removed" if entry_id in report.removed else "kept",
            "reasons": report.removed.get(entry_id, []),
            "skipped": report.skipped.get(entry_id, []),
        }
        lines.append(json.dumps(record) + "\n")
    container.write_bytes(path, "".join(lines).encode("utf-8"))
    container.write_bytes(f"{path}.summary", (report.summary_table() + "\n").encode("utf-8"))


def _evaluate_entry(
    entry: ClipManifestEntry,
    thresholds: FilterThresholds,
    base_dir: str | None,
) -> tuple[str, list[str], list[str]]:
    """Run every applicable filter; reasons and skip notes accumulate.

    Every frame the pattern matches is checked from its header and file
    length, and so is the shape of every compared pair: one unreadable
    frame or mismatched pair anywhere skips the stationarity filter.
    Only frames 0, k, 2k, ... (k = ``frame_interval``), the ones the
    verdict compares, are read, in order and only until the verdict is
    settled; see :func:`~foagen.panorama.settle_stationarity`. They are
    compared in their stored integers. An OS read error inside the
    pixels of a frame that is never read, uncompared or compared after
    the decision, goes unnoticed.
    """
    def resolve(path: str) -> str:
        if base_dir is not None and not os.path.isabs(path):
            return os.path.join(base_dir, path)
        return path

    reasons: list[str] = []
    skipped: list[str] = []

    if entry.frames_pattern:
        pattern = resolve(entry.frames_pattern)
        # glob refuses a NUL byte with ValueError; no file's name holds one.
        frame_paths = [] if "\x00" in pattern else sorted(glob.glob(pattern))
        try:
            if settle_stationarity(
                [check_frame(p) for p in frame_paths],
                lambda i: read_stored(frame_paths[i]),
                thresholds.frame_interval,
                thresholds.frame_mse,
                thresholds.stationary_ratio,
            ):
                reasons.append("stationary")
        except FoagenError:
            # Unreadable or too-short sequences cannot be judged.
            skipped.append("stationary")
    else:
        skipped.append("stationary")

    try:
        # A missing or unreadable WAV fails as IoFailure and is skipped.
        signal = read_wav(resolve(entry.audio_path))
        result = silence_verdict(signal.channels, signal.sample_rate, thresholds)
        if result.silent:
            reasons.append("silent")
    except FoagenError:
        skipped.append("silent")

    try:
        if not speech_filter(entry, thresholds.max_words):
            reasons.append("speech")
    except MissingScore:
        skipped.append("speech")

    try:
        if not alignment_filter(entry, thresholds.min_alignment):
            reasons.append("alignment")
    except MissingScore:
        skipped.append("alignment")

    return entry.id, reasons, skipped


def run_pipeline(
    entries,
    thresholds: FilterThresholds | None = None,
    base_dir: str | None = None,
    jobs: int = 1,
) -> FilterReport:
    """Evaluate every entry against every applicable filter.

    Entries are processed independently in ``jobs`` threads and the
    report is merged in sorted-id order, so the result does not depend
    on the worker count.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if thresholds is None:
        thresholds = FilterThresholds()
    entries = sorted(entries, key=lambda e: e.id)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = list(
            pool.map(lambda e: _evaluate_entry(e, thresholds, base_dir), entries)
        )

    report = FilterReport(evaluated=len(entries))
    report.counts = {name: 0 for name in FILTER_ORDER}
    for entry_id, reasons, skipped in results:
        if skipped:
            report.skipped[entry_id] = skipped
        if reasons:
            report.removed[entry_id] = reasons
            for reason in reasons:
                report.counts[reason] += 1
        else:
            report.kept.append(entry_id)
    return report
