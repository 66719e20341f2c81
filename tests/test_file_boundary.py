"""Every whole-file read and write in foagen goes through ``container``.

One module owns opening files, so a file that cannot be read or written
fails the same way, as IoFailure, whichever command touched it.
"""

import ast
import os
from pathlib import Path

import numpy as np
import pytest

from foagen import container
from foagen.audio_io import write_matrix, write_wav
from foagen.cleaning import FilterReport, write_report
from foagen.errors import IoFailure
from foagen.flow import mixture_model, save_model
from foagen.foa import MonoSignal
from foagen.panorama import write_frame

PACKAGE = Path(container.__file__).resolve().parent

# Calls that open a file or make a directory, by the name they are called through.
OPENERS = {
    "open", "read_text", "write_text", "read_bytes", "write_bytes", "tofile", "fromfile",
    "mkdir", "makedirs",
}


def _opener_lines(tree):
    """The line of each call that opens a file."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in OPENERS:
            lines.append(node.lineno)
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in OPENERS
            and not (isinstance(func.value, ast.Name) and func.value.id == "container")
        ):
            lines.append(node.lineno)
    return lines


def test_only_container_opens_files():
    openers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for line in _opener_lines(ast.parse(path.read_text(encoding="utf-8"))):
            assert path.name == "container.py", f"{path.relative_to(PACKAGE)}:{line} opens a file"
            openers.add(path.name)
    assert openers == {"container.py"}  # the guard still sees the openers it allows


def _report():
    report = FilterReport(kept=["a"], removed={"b": ["silent"]}, evaluated=2)
    report.counts = {"silent": 1}
    return report


WRITERS = {
    "write_wav": lambda path: write_wav(MonoSignal(np.zeros(8), 8000), path / "x.wav"),
    "write_frame.pgm": lambda path: write_frame(path / "x.pgm", np.zeros((2, 4, 1))),
    "write_frame.fframe": lambda path: write_frame(path / "x.fframe", np.zeros((2, 4, 1))),
    "write_matrix": lambda path: write_matrix(path / "x.fmat", np.zeros((2, 2))),
    "save_model": lambda path: save_model(mixture_model(), path / "x.fgvm"),
    "write_report": lambda path: write_report(path / "x.jsonl", _report()),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writer_into_missing_directory_fails_as_io_failure(writer, tmp_path):
    with pytest.raises(IoFailure):
        WRITERS[writer](tmp_path / "missing")


def test_make_dirs_keeps_a_directory_and_fails_on_a_file_as_io_failure(tmp_path):
    container.make_dirs(tmp_path / "a" / "b")
    container.make_dirs(tmp_path / "a" / "b")  # an existing directory is kept
    assert (tmp_path / "a" / "b").is_dir()
    (tmp_path / "f").write_bytes(b"")
    for path in (tmp_path / "f", tmp_path / "f" / "sub"):
        with pytest.raises(IoFailure):
            container.make_dirs(path)


def test_write_failures_name_the_path_once(tmp_path):
    # make_dirs creates missing parents, so its OS failure is a file in the way.
    (tmp_path / "f").write_bytes(b"")
    cases = [
        (lambda path: container.write_bytes(path, b"x"), "cannot write",
         tmp_path / "missing" / "x.bin", "No such file or directory"),
        (container.make_dirs, "cannot create directory", tmp_path / "f" / "sub", "Not a directory"),
    ]
    for write, action, os_path, os_reason in cases:
        for path, reason in ((os_path, os_reason), ("a\x00b.bin", "embedded null byte")):
            with pytest.raises(IoFailure) as raised:
                write(path)
            assert str(raised.value) == f"{action} {path}: {reason}"


def test_write_report_summary_failure_is_io_failure(tmp_path):
    (tmp_path / "r.jsonl.summary").mkdir()  # the report is writable, its summary not
    with pytest.raises(IoFailure):
        write_report(tmp_path / "r.jsonl", _report())


READERS = {
    "read_bytes": container.read_bytes,
    "read_head": lambda path: container.read_head(path, 16),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("kind", ["nul", "missing", "directory"])
def test_unreadable_paths_fail_as_io_failure(reader, kind, tmp_path):
    # A directory opens and fails at its first read.
    path = {"nul": "a\x00b.pgm", "missing": tmp_path / "missing.pgm", "directory": tmp_path}[kind]
    with pytest.raises(IoFailure):
        READERS[reader](path)


def test_an_empty_file_reads_as_no_bytes(tmp_path):
    path = tmp_path / "empty"
    path.write_bytes(b"")
    assert container.read_bytes(path) == b""
    assert container.read_head(path, 4096) == (b"", 0)


def test_short_reads_go_on_until_the_file_ends(tmp_path, monkeypatch):
    blob = np.random.default_rng(35).bytes(300_000)
    path = tmp_path / "blob"
    path.write_bytes(blob)
    read = os.read
    asked = []

    def short_read(fd, size):
        asked.append(size)
        return read(fd, max(1, size // 7))

    monkeypatch.setattr(container.os, "read", short_read)
    assert container.read_bytes(path) == blob
    assert len(asked) > 2
    assert container.read_head(path, 5000) == (blob[:5000], len(blob))
    assert container.read_head(path, 400_000) == (blob, len(blob))


@pytest.mark.parametrize(
    "text",
    [
        "a\rb\r\nc\nd",
        "\r\n\r\r\n\n",
        "one\x0ctwo\x85three\x0bfour\x1cfive\u2028six\n",
        "\ufeffbom first\r\nsecond\r",
        "",
        "no newline",
    ],
)
def test_read_lines_splits_as_text_mode_open(text, tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(text.encode("utf-8"))
    with open(path, "r", encoding="utf-8") as fh:  # the oracle
        want = fh.readlines()
    assert container.read_lines(path) == want


def test_read_lines_failures(tmp_path):
    with pytest.raises(IoFailure):
        container.read_lines(tmp_path / "missing.txt")
    (tmp_path / "latin1.txt").write_bytes(b"caf\xe9\n")
    with pytest.raises(UnicodeDecodeError):
        container.read_lines(tmp_path / "latin1.txt")
