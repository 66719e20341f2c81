"""Every int and float flag of every subcommand, at edge values, ends in
an exit code and, on failure, an ``error=`` line: never a traceback.

The sweep walks the parser itself, so a flag added later is swept too;
a subcommand with numeric flags needs a base command line in ``_inputs``.
The swept flag comes last, so it overrides the same flag in the base.
"""

import argparse

import numpy as np

from foagen import cli
from foagen.audio_io import write_wav
from foagen.cleaning import ClipManifestEntry
from foagen.flow import mixture_model, save_model
from foagen.foa import Direction, MonoSignal, spatialize_mono
from foagen.panorama import write_frame

from _inputs import write_manifest

VALUES = ("0", "-1", "nan", "inf", "-inf", "1e308", "1e-320", str(2**31))
HUGE = str(2**31)

# (command, flag, value) left out of the sweep, with the reason. An int
# flag refuses nan, inf, 1e308 and 1e-320 in argparse, so only 2**31 can
# mean hours of work or a huge allocation.
SKIPPED = {
    ("fm-train", "--steps", HUGE): "2**31 SGD steps: hours of honest work",
    ("fm-sample", "--steps", HUGE): "2**31 Euler steps: hours of honest work",
    ("mask-stats", "--draws", HUGE): "2**31 mask draws: hours of honest work",
    ("fm-train", "--batch", HUGE): "only allocates: 2**31 batch indices (16 GiB)",
    ("fm-sample", "--frames", HUGE): "only allocates: 2**31 noise rows (32 GiB)",
    ("mask-stats", "--frames", HUGE): "only allocates: a 2**31-frame mask per draw (2 GiB)",
    ("cut-fov", "--width", HUGE): "only allocates: a 2**31-pixel-wide cut",
    ("cut-fov", "--height", HUGE): "only allocates: a 2**31-pixel-high cut",
}


def _inputs(tmp):
    """Small valid inputs for every subcommand; returns the base argv of each."""
    rng = np.random.default_rng(0)
    mono = MonoSignal(0.3 * rng.standard_normal(1600), 16000)
    write_wav(mono, tmp / "mono.wav")
    # A short pair keeps eval-stft cheap when the hop falls to one sample.
    foa = spatialize_mono(MonoSignal(0.3 * rng.standard_normal(64), 16000), Direction(0.5, 0.2))
    write_wav(foa, tmp / "a.wav")
    write_wav(foa, tmp / "b.wav")
    write_frame(tmp / "erp.pgm", rng.random((4, 8, 1)))
    for i in range(3):
        write_frame(tmp / f"f{i}.pgm", rng.random((4, 8, 1)))
    write_manifest(tmp / "m.jsonl", [ClipManifestEntry(
        "a", "mono.wav", 0.1, 16000, frames_pattern="f*.pgm", word_count=3, alignment_score=1.5,
    )])
    np.savetxt(tmp / "d.txt", rng.standard_normal((4, 2)), fmt="%.17g")
    save_model(mixture_model(), tmp / "m.fgvm")
    return {
        "spatialize": ["spatialize", tmp / "mono.wav", tmp / "out.wav", "--theta", "0.5"],
        "eval-doa": ["eval-doa", tmp / "a.wav", tmp / "b.wav"],
        "eval-stft": ["eval-stft", tmp / "a.wav", tmp / "b.wav", "--windows", "8,16"],
        "pad-erp": ["pad-erp", tmp / "erp.pgm", tmp / "sq.pgm"],
        "cut-fov": ["cut-fov", tmp / "erp.pgm", tmp / "cuts", "--width", "4", "--height", "4"],
        "clean": ["clean", tmp / "m.jsonl", "--report", tmp / "r.jsonl", "--base-dir", tmp],
        "segment": ["segment", tmp / "mono.wav", "--clip-seconds", "0.05"],
        "mask-stats": ["mask-stats", "--frames", "20", "--draws", "10"],
        "fm-train": ["fm-train", "--data", tmp / "d.txt", "--steps", "2", "--batch", "2",
                     "--time-sampler", "logit_normal"],
        "fm-sample": ["fm-sample", "--model", tmp / "m.fgvm", "--frames", "2", "--steps", "2",
                      "--mixture-class", "1"],
    }


def _numeric_flags():
    """(command, flag) of every int or float option, from the parser."""
    root = cli.build_parser()
    (commands,) = (a for a in root._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in commands.choices.items():
        for action in parser._actions:
            if action.option_strings and action.type in (int, float):
                yield command, action.option_strings[-1]


def _outcome(argv, capsys):
    """None when ``cli.main(argv)`` ends as it should, else what went wrong."""
    try:
        code = cli.main([str(a) for a in argv])
    except SystemExit as exc:
        capsys.readouterr()
        return None if exc.code == 2 else f"SystemExit({exc.code!r})"
    except Exception as exc:  # any other escape is the finding
        capsys.readouterr()
        return f"{type(exc).__name__}: {exc}"
    lines = capsys.readouterr().out.splitlines()
    if code == 1 and not (lines and lines[-1].startswith("error=")):
        return "exit 1 without a final error= line"
    return None if code in (0, 1) else f"exit {code!r}"


def test_every_numeric_flag_value_ends_in_an_exit_code(tmp_path, capsys):
    base = _inputs(tmp_path)
    flags = list(_numeric_flags())
    assert {command for command, _ in flags} <= base.keys()
    assert set(SKIPPED) <= {(c, f, v) for c, f in flags for v in VALUES}
    escapes = []
    for command, flag in flags:
        for value in VALUES:
            if (command, flag, value) in SKIPPED:
                continue
            problem = _outcome([*base[command], f"{flag}={value}"], capsys)
            if problem is not None:
                escapes.append(f"{command} {flag}={value}: {problem}")
    assert escapes == []
