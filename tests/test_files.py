import ast
import csv
import re
from pathlib import Path

import pytest

from l3rs import files
from l3rs.files import write_checkpoint, write_csv, write_json, write_text

SRC = Path(files.__file__).parent
MODE = re.compile(r"[rwxabt+]+")


def opens_for_writing(path):
    """Line numbers of ``open(...)`` calls in ``path`` with a literal write,
    append, exclusive-create or update mode."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        if getattr(node.func, "id", getattr(node.func, "attr", None)) != "open":
            continue
        args = node.args[:2] + [k.value for k in node.keywords if k.arg == "mode"]
        modes = [a.value for a in args if isinstance(a, ast.Constant)
                 and isinstance(a.value, str) and MODE.fullmatch(a.value)]
        if any(set(m) & set("wax+") for m in modes):
            lines.append(node.lineno)
    return lines


def test_only_the_writer_module_opens_files_for_writing():
    found = {p.name: opens_for_writing(p) for p in sorted(SRC.glob("*.py"))}
    assert found.pop("files.py"), "the scan no longer sees the writer's own open()"
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_csv_and_json_formats(tmp_path):
    write_csv(tmp_path / "a.csv", ["x", "y"], [[1, "a,b"], [2, "c"]])
    assert (tmp_path / "a.csv").read_bytes() == b'x,y\r\n1,"a,b"\r\n2,c\r\n'
    write_json(tmp_path / "a.json", {"b": 1, "a": [0.1]})
    assert (tmp_path / "a.json").read_bytes() == b'{\n "a": [\n  0.1\n ],\n "b": 1\n}\n'
    # a checkpoint keeps its keys in insertion order and puts its history
    # rows last, one per line
    write_checkpoint(tmp_path / "c.json", {"b": 1}, "v", [0.1],
                     extra={"history": [[1, 0.5], [2, 0.25]], "a": 2})
    assert (tmp_path / "c.json").read_text() == (
        '{\n "format_version": 1,\n "b": 1,\n "v": [\n  "0.10000000000000001"\n ],\n'
        ' "a": 2,\n "history": [\n  [1, 0.5],\n  [2, 0.25]\n ]\n}\n')


def test_write_that_dies_halfway_keeps_the_previous_file(tmp_path):
    path = tmp_path / "history.csv"
    write_csv(path, ["generation"], [[1], [2]])
    before = path.read_bytes()

    def rows():
        yield [3]
        yield [4]
        raise RuntimeError("killed mid-write")

    with pytest.raises(RuntimeError, match="killed mid-write"):
        write_csv(path, ["generation"], rows())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["history.csv"]
    with open(path, newline="") as fh:
        assert list(csv.reader(fh)) == [["generation"], ["1"], ["2"]]


def test_failed_rename_leaves_no_temporary_file(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    write_text(path, "old\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(files.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write_text(path, "new\n")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
