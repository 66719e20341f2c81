import json
import math
import os
import struct

import numpy as np
import pytest

import foagen.cleaning
import foagen.panorama
from foagen.audio_io import write_wav
from foagen.cleaning import (
    ClipManifestEntry,
    FilterThresholds,
    alignment_filter,
    read_manifest,
    run_pipeline,
    segment_clips,
    silence_verdict,
    speech_filter,
    window_dbfs,
    write_report,
)
from foagen.errors import (
    CorruptHeader,
    EmptySignal,
    FoagenError,
    InvalidValue,
    ManifestParseError,
    MissingScore,
    ShapeMismatch,
)
from foagen.foa import MonoSignal
from foagen.panorama import StationarityResult, read_frame, stationarity_verdict, write_frame

from _inputs import write_manifest

RATE = 1000  # 20 ms windows are 20 samples at this rate


def _blocky_signal(amplitudes, samples_per_block=20):
    """Constant-amplitude blocks; block k peaks at amplitudes[k]."""
    return np.repeat(np.asarray(amplitudes, dtype=float), samples_per_block)


def test_window_dbfs_known_levels():
    signal = _blocky_signal([0.5, 1.0, 0.0])
    levels = window_dbfs(signal, 20.0, RATE)
    assert levels.shape == (3,)
    assert levels[0] == 20.0 * math.log10(0.5)
    assert levels[1] == 0.0
    assert levels[2] == -math.inf


def test_window_dbfs_peak_spans_channels():
    quiet = _blocky_signal([0.001, 0.001])
    loud = _blocky_signal([0.001, 0.9])
    levels = window_dbfs(np.stack([quiet, loud]), 20.0, RATE)
    assert levels[1] == 20.0 * math.log10(0.9)


def test_window_dbfs_hop_and_trailing_window():
    # 20 ms = 20 samples: windows tile the signal, starting 0, 20, ..., 80
    assert window_dbfs(np.ones(100), 20.0, RATE).shape == (5,)
    # 30 samples fit a single complete 20-sample window
    assert window_dbfs(np.ones(30), 20.0, RATE).shape == (1,)


def test_window_dbfs_matches_per_window_loop():
    rng = np.random.default_rng(4)
    for channels, n in [(1, 20), (1, 59), (2, 100), (4, 997)]:
        signal = rng.standard_normal((n, channels)).T  # (channels, n), not contiguous
        signal[:, :20] = 0.0  # an all-zero first window reads -inf
        peaks = [np.abs(signal[:, s : s + 20]).max() for s in range(0, n - 19, 20)]
        with np.errstate(divide="ignore"):
            want = 20.0 * np.log10(peaks)
        assert np.array_equal(window_dbfs(signal, 20.0, RATE), want)


def test_window_dbfs_validation():
    with pytest.raises(EmptySignal):
        window_dbfs(np.ones(10), 20.0, RATE)
    with pytest.raises(EmptySignal, match="window of 0.1 ms at 1000 Hz holds no samples"):
        window_dbfs(np.ones(100), 0.1, RATE)  # window rounds to zero samples
    with pytest.raises(ValueError, match="samples must be"):
        window_dbfs(np.ones((2, 2, 400)), 20.0, RATE)


def test_silence_verdict_mostly_quiet():
    amplitudes = [0.001] * 48 + [0.5, 0.5]
    result = silence_verdict(_blocky_signal(amplitudes), RATE)
    assert result.windows == 50
    assert result.ratio == 0.96
    assert result.silent


def test_silence_ratio_boundary_is_strict():
    # exactly 90% silent windows must NOT trip the > 0.90 rule
    amplitudes = [0.001] * 45 + [0.5] * 5
    result = silence_verdict(_blocky_signal(amplitudes), RATE)
    assert result.ratio == 0.9
    assert not result.silent


def test_silence_level_boundary_is_strict():
    # a window sitting exactly on the threshold is not silent
    level = 20.0 * math.log10(0.25)
    thresholds = FilterThresholds(silence_dbfs=level)
    result = silence_verdict(_blocky_signal([0.25] * 10), RATE, thresholds)
    assert result.ratio == 0.0


def test_speech_filter_boundary():
    entry = ClipManifestEntry("a", "a.wav", 1.0, RATE, word_count=5)
    assert speech_filter(entry, max_words=5)  # at the cap: kept
    wordy = ClipManifestEntry("b", "b.wav", 1.0, RATE, word_count=6)
    assert not speech_filter(wordy, max_words=5)
    missing = ClipManifestEntry("c", "c.wav", 1.0, RATE)
    with pytest.raises(MissingScore):
        speech_filter(missing)


def test_alignment_filter_boundary():
    entry = ClipManifestEntry("a", "a.wav", 1.0, RATE, alignment_score=1.0)
    assert alignment_filter(entry, min_alignment=1.0)  # at the floor: kept
    assert not alignment_filter(entry, min_alignment=2.0)  # the strict cut
    missing = ClipManifestEntry("c", "c.wav", 1.0, RATE)
    with pytest.raises(MissingScore):
        alignment_filter(missing)


def test_segment_clips_spans():
    clips = segment_clips(35 * 16000, 16000, 10.0)
    assert len(clips) == 3  # trailing 5 s dropped
    assert clips[1] == slice(160000, 320000)
    assert segment_clips(159840, 16000, 10.0) == []  # 9.99 s
    with pytest.raises(ValueError, match="clip_seconds must be positive and finite, got 0.0"):
        segment_clips(35 * 16000, 16000, 0.0)


def test_segment_clips_count_whole_samples():
    # 1.5 samples per clip rounds to 2: 800 clips of a 1600-sample signal,
    # where a count in seconds made 1066 and ran past its end.
    clips = segment_clips(1600, 16000, 1.5 / 16000)
    assert len(clips) == 800
    assert clips[-1] == slice(1598, 1600)
    # 0.3 / 0.1 is 2.9999999999999996 in floating point
    assert len(segment_clips(300, 1000, 0.1)) == 3


def test_segment_clips_refuse_a_clip_shorter_than_one_sample():
    with pytest.raises(ValueError, match="shorter than one sample at 16000 Hz"):
        segment_clips(1600, 16000, 1e-9)
    with pytest.raises(ValueError, match="shorter than one sample"):
        segment_clips(1600, 16000, 0.4 / 16000)
    assert len(segment_clips(1600, 16000, 0.6 / 16000)) == 1600  # rounds up to one


def test_segment_clips_refuse_a_clip_whose_sample_count_overflows():
    # 1e305 s times 16000 Hz is infinite in floating point
    with pytest.raises(ValueError, match=r"clip_seconds 1e\+305 overflows a sample count at 16000 Hz"):
        segment_clips(1600, 16000, 1e305)
    assert segment_clips(1600, 16000, 1e300) == []  # finite, longer than the signal


def test_manifest_round_trip(tmp_path):
    entries = [
        ClipManifestEntry(
            "clip-1",
            "audio/clip-1.wav",
            12.5,
            48000,
            frames_pattern="frames/clip-1_*.fframe",
            labels=("rain", "street"),
            word_count=2,
            alignment_score=1.25,
        ),
        ClipManifestEntry("clip-2", "audio/clip-2.wav", 4.0, 16000),
    ]
    path = tmp_path / "manifest.jsonl"
    write_manifest(path, entries)
    assert read_manifest(path) == entries


@pytest.mark.parametrize("args", [
    (1, "a", 1.0, 16000),
    ("a", "a", 10**400, 16000),
    ("a", "a", 1.0, 16000, None, ["rain", 1]),
])
def test_manifest_entry_refuses_a_field_as_invalid_value(args):
    with pytest.raises(InvalidValue):
        ClipManifestEntry(*args)


def test_manifest_parse_errors(tmp_path):
    cases = {
        "bad-json": '{"id": "a"}\n{not json}\n',
        "not-object": '[1, 2, 3]\n',
        "missing-keys": '{"id": "a", "audio_path": "a.wav"}\n',
        "unknown-key": (
            '{"id": "a", "audio_path": "a.wav", "duration": 1.0, '
            '"sample_rate": 16000, "extra": 1}\n'
        ),
        "infinite-rate": (
            '{"id": "a", "audio_path": "a.wav", "duration": 1.0, "sample_rate": Infinity}\n'
        ),
        "huge-word-count": (
            '{"id": "a", "audio_path": "a.wav", "duration": 1.0, '
            '"sample_rate": 16000, "word_count": 1e999}\n'
        ),
        "huge-int": (
            '{"id": "a", "audio_path": "a.wav", "duration": 1.0, "sample_rate": '
            + "9" * 5000 + "}\n"
        ),
        "deep-nesting": "[" * 10000 + "]" * 10000 + "\n",
        "pattern-not-string": (
            '{"id": "a", "audio_path": "a.wav", "duration": 1.0, '
            '"sample_rate": 16000, "frames_pattern": 5}\n'
        ),
        "id-null": (
            '{"id": null, "audio_path": "a.wav", "duration": 1.0, "sample_rate": 16000}\n'
        ),
        "audio-path-number": (
            '{"id": "a", "audio_path": 5, "duration": 1.0, "sample_rate": 16000}\n'
        ),
        "labels-string": (
            '{"id": "a", "audio_path": "a.wav", "duration": 1.0, '
            '"sample_rate": 16000, "labels": "speech"}\n'
        ),
        "labels-not-strings": (
            '{"id": "a", "audio_path": "a.wav", "duration": 1.0, '
            '"sample_rate": 16000, "labels": [1, null]}\n'
        ),
        "duration-string": (
            '{"id": "a", "audio_path": "a.wav", "duration": "2.5", "sample_rate": 16000}\n'
        ),
        "rate-fraction": (
            '{"id": "a", "audio_path": "a.wav", "duration": 1.0, "sample_rate": 16000.9}\n'
        ),
        "rate-string": (
            '{"id": "a", "audio_path": "a.wav", "duration": 1.0, "sample_rate": "16000"}\n'
        ),
        "word-count-bool": (
            '{"id": "a", "audio_path": "a.wav", "duration": 1.0, '
            '"sample_rate": 16000, "word_count": true}\n'
        ),
        "word-count-fraction": (
            '{"id": "a", "audio_path": "a.wav", "duration": 1.0, '
            '"sample_rate": 16000, "word_count": 3.7}\n'
        ),
        "alignment-string": (
            '{"id": "a", "audio_path": "a.wav", "duration": 1.0, '
            '"sample_rate": 16000, "alignment_score": "1.5"}\n'
        ),
        # json reads NaN and Infinity; a score must be finite, as a threshold is
        "alignment-nan": (
            '{"id": "a", "audio_path": "a.wav", "duration": 1.0, '
            '"sample_rate": 16000, "alignment_score": NaN}\n'
        ),
        "alignment-infinity": (
            '{"id": "a", "audio_path": "a.wav", "duration": 1.0, '
            '"sample_rate": 16000, "alignment_score": Infinity}\n'
        ),
        "alignment-minus-infinity": (
            '{"id": "a", "audio_path": "a.wav", "duration": 1.0, '
            '"sample_rate": 16000, "alignment_score": -Infinity}\n'
        ),
        "duration-past-float": (
            '{"id": "a", "audio_path": "a.wav", "duration": 1' + "0" * 400 + ', '
            '"sample_rate": 16000}\n'
        ),
        "duplicate": (
            '{"id": "a", "audio_path": "a.wav", "duration": 1.0, "sample_rate": 16000}\n'
            '{"id": "a", "audio_path": "b.wav", "duration": 1.0, "sample_rate": 16000}\n'
        ),
    }
    for name, text in cases.items():
        path = tmp_path / f"{name}.jsonl"
        path.write_text(text)
        with pytest.raises(ManifestParseError) as err:
            read_manifest(path)
        assert "line" in str(err.value)
    with pytest.raises(ManifestParseError, match=r"id-null\.jsonl: line 1: missing keys \['id'\]$"):
        read_manifest(tmp_path / "id-null.jsonl")

    not_utf8 = tmp_path / "latin1.jsonl"
    not_utf8.write_bytes(
        b'{"id": "caf\xe9", "audio_path": "a.wav", "duration": 1.0, "sample_rate": 16000}\n'
    )
    with pytest.raises(ManifestParseError):
        read_manifest(not_utf8)

    blank_ok = tmp_path / "blanks.jsonl"
    blank_ok.write_text(
        '\n{"id": "a", "audio_path": "a.wav", "duration": 1.0, "sample_rate": 16000}\n\n'
    )
    assert len(read_manifest(blank_ok)) == 1


def _pipeline_fixture(tmp_path):
    """Four clips exercising each filter once; returns (entries, base_dir)."""
    write_wav(
        MonoSignal(_blocky_signal([0.001] * 50), RATE), tmp_path / "quiet.wav"
    )
    write_wav(
        MonoSignal(_blocky_signal([0.5] * 50), RATE), tmp_path / "loud.wav"
    )
    static = np.full((4, 8, 1), 0.5)
    rng = np.random.default_rng(0)
    for k in range(17):
        write_frame(tmp_path / f"static_{k:02d}.fframe", static)
        write_frame(tmp_path / f"moving_{k:02d}.fframe", rng.random((4, 8, 1)))
    entries = [
        ClipManifestEntry(
            "a_quiet_wordy", "quiet.wav", 1.0, RATE,
            word_count=6, alignment_score=1.0,
        ),
        ClipManifestEntry(
            "b_loud_ok", "loud.wav", 1.0, RATE,
            frames_pattern="moving_*.fframe", word_count=5, alignment_score=1.5,
        ),
        ClipManifestEntry(
            "c_missing", "nope.wav", 1.0, RATE, alignment_score=0.5,
        ),
        ClipManifestEntry(
            "d_static", "loud.wav", 1.0, RATE,
            frames_pattern="static_*.fframe", word_count=0, alignment_score=2.0,
        ),
    ]
    return entries, str(tmp_path)


def test_run_pipeline_reasons_and_counts(tmp_path):
    entries, base = _pipeline_fixture(tmp_path)
    report = run_pipeline(entries, base_dir=base)
    assert report.evaluated == 4
    assert report.kept == ["b_loud_ok"]
    assert report.removed == {
        "a_quiet_wordy": ["silent", "speech"],
        "c_missing": ["alignment"],
        "d_static": ["stationary"],
    }
    assert report.counts == {
        "stationary": 1, "silent": 1, "speech": 1, "alignment": 1,
    }
    assert report.skipped["a_quiet_wordy"] == ["stationary"]
    assert report.skipped["c_missing"] == ["stationary", "silent", "speech"]
    assert "b_loud_ok" not in report.skipped


def test_run_pipeline_takes_the_base_dir_literally(tmp_path):
    # "[1]" is part of the directory's name, not a glob character class.
    base = tmp_path / "run[1]"
    base.mkdir()
    entries, base_dir = _pipeline_fixture(base)
    report = run_pipeline(entries, base_dir=base_dir)
    assert report.removed["d_static"] == ["stationary"]
    assert "b_loud_ok" not in report.skipped


def test_run_pipeline_rejects_jobs_below_one(tmp_path):
    entries, base = _pipeline_fixture(tmp_path)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_pipeline(entries, base_dir=base, jobs=jobs)


def _assert_unreadable_audio_kept(tmp_path, format_tag, rate, samples):
    # unreadable audio: the silence filter is skipped for that clip and the
    # rest of the manifest is still evaluated
    entries, base = _pipeline_fixture(tmp_path)
    width = samples.itemsize
    fmt = struct.pack("<HHIIHH", format_tag, 1, rate, width * rate, width, 8 * width)
    body = b"WAVE"
    for fourcc, chunk in ((b"fmt ", fmt), (b"data", samples.tobytes())):
        body += fourcc + struct.pack("<I", len(chunk)) + chunk
    (tmp_path / "bad.wav").write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    entries.insert(0, ClipManifestEntry(
        "0_bad_audio", "bad.wav", 1.0, RATE,
        frames_pattern="moving_*.fframe", word_count=0, alignment_score=2.0,
    ))
    for jobs in (1, 2):
        report = run_pipeline(entries, base_dir=base, jobs=jobs)
        assert report.evaluated == 5
        assert report.kept == ["0_bad_audio", "b_loud_ok"]
        assert report.skipped["0_bad_audio"] == ["silent"]
        assert report.counts == {
            "stationary": 1, "silent": 1, "speech": 1, "alignment": 1,
        }


def test_run_pipeline_keeps_clip_with_non_finite_audio(tmp_path):
    samples = _blocky_signal([0.5] * 50).astype("<f4")
    samples[10] = np.nan
    _assert_unreadable_audio_kept(tmp_path, 3, RATE, samples)


def test_run_pipeline_keeps_clip_with_zero_sample_rate(tmp_path):
    samples = (_blocky_signal([0.5] * 50) * 32767).astype("<i2")
    _assert_unreadable_audio_kept(tmp_path, 1, 0, samples)


def test_run_pipeline_skips_silence_for_an_audio_path_holding_a_nul(tmp_path):
    entries, base = _pipeline_fixture(tmp_path)
    entries.append(ClipManifestEntry(
        "e_nul", "a\x00b.wav", 1.0, RATE, word_count=0, alignment_score=2.0,
    ))
    report = run_pipeline(entries, base_dir=base)
    assert report.evaluated == 5
    assert report.kept == ["b_loud_ok", "e_nul"]
    assert report.skipped["e_nul"] == ["stationary", "silent"]


def _write_moving_clip(clip_dir, frames, suffix=".fframe"):
    """Distinct random frames f000, f001, ...; returns their paths."""
    clip_dir.mkdir()
    rng = np.random.default_rng(0)
    paths = [clip_dir / f"f{i:03d}{suffix}" for i in range(frames)]
    for path in paths:
        write_frame(path, rng.random((4, 8, 1)))
    return paths


def _corrupt_pgm_header(path):
    path.write_bytes(b"P5\n8 x4\n255\n" + bytes(32))


def _truncate_pgm_pixels(path):
    path.write_bytes(path.read_bytes()[:-1])


def _corrupt_fframe_dims(path):
    blob = bytearray(path.read_bytes())
    blob[24:32] = struct.pack("<Q", 2)  # channels: neither 1 nor 3
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("suffix, corrupt", [
    (".pgm", _corrupt_pgm_header),
    (".pgm", _truncate_pgm_pixels),
    (".fframe", _corrupt_fframe_dims),
])
def test_bad_frame_the_verdict_never_compares_still_skips(tmp_path, suffix, corrupt):
    # 17 frames at interval 8 compare frames 0, 8 and 16; frame 3 is only checked
    entries, base = _pipeline_fixture(tmp_path)
    paths = _write_moving_clip(tmp_path / "clip", 17, suffix)
    entries.append(ClipManifestEntry(
        "e_bad_frame", "loud.wav", 1.0, RATE,
        frames_pattern=f"clip/*{suffix}", word_count=0, alignment_score=2.0,
    ))
    assert run_pipeline(entries, base_dir=base).skipped.get("e_bad_frame") is None
    corrupt(paths[3])
    report = run_pipeline(entries, base_dir=base)
    assert report.skipped["e_bad_frame"] == ["stationary"]
    assert "e_bad_frame" in report.kept


def test_run_pipeline_decodes_only_compared_frames(tmp_path, monkeypatch):
    # 33 frames at interval 8 compare frames 0, 8, 16, 24 and 32. The moving
    # clip's first comparison settles its verdict; the static clip needs all.
    _write_moving_clip(tmp_path / "moving", 33)
    static = _write_moving_clip(tmp_path / "static", 33)
    for path in static[1:]:
        path.write_bytes(static[0].read_bytes())
    calls = []
    read_stored = foagen.panorama.read_stored

    def counting_read_stored(path):
        calls.append(os.path.relpath(path, tmp_path))
        return read_stored(path)

    monkeypatch.setattr(foagen.panorama, "read_stored", counting_read_stored)
    entries = [
        ClipManifestEntry(clip, "none.wav", 1.0, RATE, frames_pattern=f"{clip}/*.fframe")
        for clip in ("moving", "static")
    ]
    report = run_pipeline(entries, FilterThresholds(frame_interval=8), base_dir=str(tmp_path))
    assert calls == [os.path.join("moving", f"f{i:03d}.fframe") for i in (0, 8)] + [
        os.path.join("static", f"f{i:03d}.fframe") for i in (0, 8, 16, 24, 32)
    ]
    assert report.skipped["moving"] == report.skipped["static"] == ["silent", "speech", "alignment"]
    assert report.kept == ["moving"]
    assert report.removed == {"static": ["stationary"]}


def _all_frames_outcome(paths, thresholds):
    """stationarity_verdict over every decoded frame, or the error class
    that reading or comparing them raises."""
    try:
        frames = [read_frame(p) for p in paths]
        return stationarity_verdict(
            frames, thresholds.frame_interval, thresholds.frame_mse, thresholds.stationary_ratio
        )
    except FoagenError as exc:
        return type(exc)


def _report_row(report, entry_id):
    status = "removed" if entry_id in report.removed else "kept"
    return status, report.removed.get(entry_id, []), report.skipped.get(entry_id, [])


def _expected_row(outcome):
    """The report row of a clip with no WAV and no scores, whose frames
    give ``outcome``."""
    judged = isinstance(outcome, StationarityResult)
    reasons = ["stationary"] if judged and outcome.stationary else []
    skipped = ([] if judged else ["stationary"]) + ["silent", "speech", "alignment"]
    return ("removed" if reasons else "kept"), reasons, skipped


@pytest.mark.parametrize("interval", [1, 3, 8])
def test_stationarity_outcome_matches_all_frames_reference(tmp_path, interval):
    # frames 0-11 are identical and the rest distinct, so the verdict
    # comes out both ways among the counts at every interval
    thresholds = FilterThresholds(frame_interval=interval, stationary_ratio=0.4)
    rng = np.random.default_rng(1)
    scenes = [rng.random((4, 8, 1)) for _ in range(33)]
    counts = sorted({0, 1, interval, 2 * interval, 2 * interval + 1, 33})
    entries, frame_paths = [], {}
    for n in counts:
        clip = tmp_path / f"clip{n:02d}"
        clip.mkdir()
        frame_paths[n] = [clip / f"f{i:03d}.fframe" for i in range(n)]
        for i, path in enumerate(frame_paths[n]):
            write_frame(path, scenes[max(i, 11)])
        entries.append(ClipManifestEntry(
            f"n{n:02d}", "none.wav", 1.0, RATE, frames_pattern=f"clip{n:02d}/*.fframe",
        ))

    report = run_pipeline(entries, thresholds, base_dir=str(tmp_path))
    wants = {}
    for n in counts:
        wants[n] = want = _all_frames_outcome(frame_paths[n], thresholds)
        entry_id = f"n{n:02d}"
        assert _report_row(report, entry_id) == _expected_row(want), n
        assert ("stationary" in report.skipped[entry_id]) == (want is InvalidValue)
        assert ("stationary" in report.removed.get(entry_id, [])) == (
            want is not InvalidValue and want.stationary
        )
    assert any(v is not InvalidValue and v.stationary for v in wants.values())
    assert any(v is not InvalidValue and not v.stationary for v in wants.values())


def _settling_comparison(moves, ratio):
    """1-based index of the comparison after which the stationary count
    decides the verdict, given which comparisons move."""
    comparisons, count = len(moves), 0
    for done, moved in enumerate(moves, start=1):
        count += not moved
        if count / comparisons > ratio or (count + comparisons - done) / comparisons <= ratio:
            return done
    raise AssertionError("a verdict is settled by its last comparison")


def test_settled_verdict_equals_the_all_frames_verdict(tmp_path):
    # Random clips of 0-40 frames at intervals 1-9, some frames NaN, judged
    # at ratios 0, 1, every exact tie j / comparisons and one random ratio.
    # Some clips get a bad frame, or a compared frame of another shape,
    # after the comparison that settles the verdict: the clip must still be
    # skipped, as the all-frames verdict skips it.
    rng = np.random.default_rng(10)
    blobs = {}
    for name, frame in [
        *((f"scene{k}", rng.random((2, 3, 1))) for k in range(6)),
        ("nan", np.full((2, 3, 1), np.nan)),
        ("shape", rng.random((3, 2, 1))),
    ]:
        write_frame(tmp_path / "blob.fframe", frame)
        blobs[name] = (tmp_path / "blob.fframe").read_bytes()
    blobs["bad"] = blobs["scene0"][:-1]
    scenes = [name for name in blobs if name.startswith("scene")]

    groups, clips, seen = {}, {}, set()
    for sequence in range(48):
        n, interval = int(rng.integers(0, 41)), int(rng.integers(1, 10))
        comparisons = max(0, n - 1) // interval
        compared = range(0, comparisons * interval + 1, interval)
        names = [scenes[k] for k in rng.integers(len(scenes), size=n)]
        hold = rng.random()
        for i in compared[1:]:
            if rng.random() < hold:
                names[i] = names[i - interval]
        for i in np.flatnonzero(rng.random(n) < 0.08):
            names[i] = "nan"
        moves = [names[i] != names[j] or names[i] == "nan" for i, j in zip(compared, compared[1:])]
        count = moves.count(False)
        ratios = [0.0, 1.0, float(rng.random())]
        ratios += [j / comparisons for j in range(comparisons + 1)] if comparisons else []
        for ratio in ratios:
            clip_names, fault = list(names), "none"
            if comparisons >= 2:
                settled = compared[_settling_comparison(moves, ratio)]
                fault = str(rng.choice(["none", "bad", "shape"]))
                later = [i for i in compared if i > settled] if fault == "shape" else []
                later = later or list(range(settled + 1, n))
                if fault != "none" and later:
                    clip_names[int(rng.choice(later))] = fault
                    seen.add((fault, settled < compared[-1]))
            clip_id = f"c{len(clips):04d}"
            clip = tmp_path / clip_id
            clip.mkdir()
            paths = [clip / f"f{i:03d}.fframe" for i in range(n)]
            for path, name in zip(paths, clip_names):
                path.write_bytes(blobs[name])
            thresholds = FilterThresholds(frame_interval=interval, stationary_ratio=ratio)
            groups.setdefault(thresholds, []).append(ClipManifestEntry(
                clip_id, "none.wav", 1.0, RATE, frames_pattern=f"{clip_id}/*.fframe",
            ))
            clips[clip_id] = paths, thresholds, count

    outcomes = []
    for thresholds, entries in groups.items():
        report = run_pipeline(entries, thresholds, base_dir=str(tmp_path))
        for entry in entries:
            paths, _, count = clips[entry.id]
            want = _all_frames_outcome(paths, thresholds)
            assert _report_row(report, entry.id) == _expected_row(want), entry.id
            if isinstance(want, StationarityResult):  # the reference itself is strict
                ratio = count / want.comparisons
                assert (want.ratio, want.stationary) == (ratio, ratio > thresholds.stationary_ratio)
            outcomes.append(want)
    # every branch was taken: both verdicts, each way to skip, and tail
    # faults behind an early decision
    assert {True, False} <= {v.stationary for v in outcomes if isinstance(v, StationarityResult)}
    assert {InvalidValue, CorruptHeader, ShapeMismatch} <= set(outcomes)
    assert {("bad", True), ("shape", True)} <= seen


def test_run_pipeline_worker_count_irrelevant(tmp_path):
    entries, base = _pipeline_fixture(tmp_path)
    assert run_pipeline(entries, base_dir=base) == run_pipeline(
        entries, base_dir=base, jobs=4
    )


def test_write_report(tmp_path):
    entries, base = _pipeline_fixture(tmp_path)
    report = run_pipeline(entries, base_dir=base)
    out = tmp_path / "report.jsonl"
    write_report(out, report)

    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["id"] for r in records] == sorted(r["id"] for r in records)
    by_id = {r["id"]: r for r in records}
    assert by_id["b_loud_ok"]["status"] == "kept"
    assert by_id["d_static"]["reasons"] == ["stationary"]

    summary = (tmp_path / "report.jsonl.summary").read_text()
    assert "silent" in summary
    assert "(kept 1 of 4)" in summary


def test_filter_thresholds_validation():
    with pytest.raises(ValueError):
        FilterThresholds(silence_ratio=1.5)
    with pytest.raises(ValueError, match="stationary_ratio"):
        FilterThresholds(stationary_ratio=-0.5)
    with pytest.raises(ValueError):
        FilterThresholds(window_ms=0.0)
    with pytest.raises(ValueError, match="window_ms 1e[+]308 overflows a sample count at 4294967295 Hz"):
        FilterThresholds(window_ms=1e308)
    FilterThresholds(window_ms=1e290)  # about 4e296 samples at the largest WAV rate
    with pytest.raises(ValueError):
        FilterThresholds(frame_interval=0)
    for name in ("silence_dbfs", "min_alignment", "frame_mse"):
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            FilterThresholds(**{name: math.nan})
        FilterThresholds(**{name: math.inf})  # an infinite cut is a valid, if extreme, choice
