"""Every whole-file read and write in foagen goes through ``container``.

One module owns opening files, so a file that cannot be read or written
fails the same way, as IoFailure, whichever command touched it.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from foagen import container
from foagen.audio_io import write_matrix, write_matrix_text, write_wav
from foagen.cleaning import ClipManifestEntry, FilterReport, write_manifest, write_report
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


def _opener_calls(tree):
    """(enclosing function name or None, line) of each call that opens a file."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in OPENERS:
                found.append((function, node.lineno))
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in OPENERS
                and not (isinstance(func.value, ast.Name) and func.value.id == "container")
            ):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_only_container_and_check_frame_open_files():
    allowed = {("container.py", None), ("panorama.py", "check_frame")}
    openers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function, line in _opener_calls(tree):
            where = (path.name, None if path.name == "container.py" else function)
            assert where in allowed, f"{path.relative_to(PACKAGE)}:{line} opens a file"
            openers.add(where)
    assert openers == allowed  # the guard still sees the openers it allows


def _report():
    report = FilterReport(kept=["a"], removed={"b": ["silent"]}, evaluated=2)
    report.counts = {"silent": 1}
    return report


WRITERS = {
    "write_wav": lambda path: write_wav(MonoSignal(np.zeros(8), 8000), path / "x.wav"),
    "write_frame.pgm": lambda path: write_frame(path / "x.pgm", np.zeros((2, 4, 1))),
    "write_frame.fframe": lambda path: write_frame(path / "x.fframe", np.zeros((2, 4, 1))),
    "write_matrix": lambda path: write_matrix(path / "x.fmat", np.zeros((2, 2))),
    "write_matrix_text": lambda path: write_matrix_text(path / "x.txt", np.zeros((2, 2))),
    "save_model": lambda path: save_model(mixture_model(), path / "x.fgvm"),
    "write_manifest": lambda path: write_manifest(
        path / "x.jsonl", [ClipManifestEntry("a", "a.wav", 1.0, 8000)]
    ),
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


def test_write_report_summary_failure_is_io_failure(tmp_path):
    (tmp_path / "r.jsonl.summary").mkdir()  # the report is writable, its summary not
    with pytest.raises(IoFailure):
        write_report(tmp_path / "r.jsonl", _report())


def test_read_bytes_of_a_nul_path_fails_as_io_failure():
    with pytest.raises(IoFailure):
        container.read_bytes("a\x00b.wav")


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
