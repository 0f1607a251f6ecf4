"""The one output writer, ``difflab._files``: an existing regular file is
replaced by a new file, any other path is written through, and no other
module opens a file for writing."""

import ast
import io
import json
import math
import os
import re
import threading
from pathlib import Path

import pytest

import difflab
from difflab import (Cascade, CascadeSet, DirectedGraph, _files,
                     write_cascades)
from difflab.params import AsicParams, save_params


class TestWriteText:
    def test_regular_file_replaced_by_a_new_file(self, tmp_path):
        path, old = tmp_path / "out.txt", tmp_path / "old.txt"
        _files.write_text(path, "first\n")
        os.link(path, old)
        _files.write_text(path, "sécond\n")
        assert path.read_bytes() == "sécond\n".encode("utf-8")
        assert old.read_text() == "first\n"
        assert os.stat(path).st_ino != os.stat(old).st_ino

    def test_fifo_written_through(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(
            target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        _files.write_text(fifo, "through the pipe\n")
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == ["through the pipe\n"]
        assert fifo.is_fifo()

    def test_file_that_cannot_be_unlinked_is_truncated(self, tmp_path,
                                                      monkeypatch):
        path = tmp_path / "out.txt"
        path.write_text("a longer first text\n")
        ino = os.stat(path).st_ino

        def refuse(p):
            raise PermissionError(13, "Permission denied", str(p))

        monkeypatch.setattr(_files.os, "unlink", refuse)
        _files.write_text(path, "second\n")
        assert path.read_text() == "second\n"
        assert os.stat(path).st_ino == ino

    @pytest.mark.parametrize("where, error", [
        ("missing/out.txt", FileNotFoundError),
        ("a_dir", IsADirectoryError),
    ])
    def test_unwritable_path_raises_oserror(self, tmp_path, where, error):
        (tmp_path / "a_dir").mkdir()
        with pytest.raises(error):
            _files.write_text(tmp_path / where, "x\n")
        g = DirectedGraph(2, [(0, 1)])
        with pytest.raises(error):
            write_cascades(tmp_path / where,
                           CascadeSet([Cascade([(0, 0.0)], 1.0)]))
        with pytest.raises(error):
            save_params(tmp_path / where, "asic",
                        AsicParams.shared(0.5, 1.0), g)

    def test_json_bytes_equal_json_dump(self, tmp_path):
        doc = {"b": [1.5, math.nan, 1e-300], "a": {"z": "é", "y": None},
               "c": []}
        buf = io.StringIO()
        json.dump(doc, buf, indent=2, sort_keys=True)
        path = tmp_path / "doc.json"
        _files.write_json(path, doc)
        assert path.read_text(encoding="utf-8") == buf.getvalue() + "\n"


# -- every other module leaves writing to ``_files`` -------------------------

_MODE = re.compile(r"[rwaxbt+]+")


def _opens_for_writing(tree):
    """Line numbers of ``open(...)`` or ``<obj>.open(...)`` calls whose mode
    writes, appends or creates, or whose mode is not a literal string."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        builtin = isinstance(func, ast.Name) and func.id == "open"
        if not (builtin or isinstance(func, ast.Attribute)
                and func.attr == "open"):
            continue
        modes = [k.value for k in node.keywords if k.arg == "mode"]
        # open(file, mode) takes its mode second; Path.open(mode) first.
        modes += node.args[1:2] if builtin else node.args[:2]
        for mode in modes:
            literal = (isinstance(mode, ast.Constant)
                       and isinstance(mode.value, str))
            if (builtin and not literal or literal
                    and _MODE.fullmatch(mode.value)
                    and set(mode.value) & set("wax")):
                yield node.lineno


@pytest.mark.parametrize("code, hits", [
    ('open(p, "w", encoding="utf-8")', 1),
    ('open(p, mode="a")', 1),
    ('open(p, "xb")', 1),
    ('open(p, flags)', 1),
    ('Path(p).open("w")', 1),
    ('io.open(p, "w")', 1),
    ('open(p)', 0),
    ('open(p, "rb")', 0),
    ('Path("w").open()', 0),
])
def test_guard_recognises_writing_opens(code, hits):
    assert len(list(_opens_for_writing(ast.parse(code)))) == hits


def test_only_the_writer_opens_files_for_writing():
    src = Path(difflab.__file__).parent
    found = [f"{path.name}:{line}"
             for path in sorted(src.glob("*.py")) if path.name != "_files.py"
             for line in _opens_for_writing(ast.parse(path.read_text(),
                                                      str(path)))]
    assert found == [], ("write output files through difflab._files, "
                         "which replaces an existing file instead of "
                         "truncating it")
