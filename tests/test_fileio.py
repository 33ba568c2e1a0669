import os
import random
import stat
import threading

import pytest

from gecmerge import dump_m2, load_m2
from gecmerge.cli import _write_lines
from gecmerge.fileio import atomic_write, json_field
from helpers import random_corpus


class Interrupted(Exception):
    pass


def test_completed_write_replaces_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n", encoding="utf-8")
    with atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_text(encoding="utf-8") == "new\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_interrupted_write_keeps_previous_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(Interrupted):
        with atomic_write(path) as fh:
            fh.write("partial")
            fh.flush()
            raise Interrupted
    assert path.read_text(encoding="utf-8") == "old\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_interrupted_writer_keeps_previous_file(tmp_path):
    path = tmp_path / "out.txt"
    _write_lines(str(path), ["first", "run"])

    def lines():
        yield "second"
        raise Interrupted

    with pytest.raises(Interrupted):
        _write_lines(str(path), lines())
    assert path.read_text(encoding="utf-8") == "first\nrun\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_interrupted_write_leaves_no_new_file(tmp_path):
    path = tmp_path / "out.txt"
    with pytest.raises(Interrupted):
        with atomic_write(path) as fh:
            fh.write("partial")
            raise Interrupted
    assert os.listdir(tmp_path) == []


def test_symlink_target_is_replaced_not_the_link(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("old\n", encoding="utf-8")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    with atomic_write(link) as fh:
        fh.write("new\n")
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8") == "new\n"


def test_pipe_is_written_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text(encoding="utf-8")), daemon=True)
    reader.start()
    with atomic_write(fifo) as fh:
        fh.write("through the pipe\n")
    reader.join(timeout=10)
    assert received == ["through the pipe\n"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_dump_m2_round_trips_through_replace(tmp_path):
    corpus = random_corpus(random.Random(4))
    path = tmp_path / "out.m2"
    path.write_text("stale", encoding="utf-8")
    dump_m2(path, corpus)
    assert load_m2(path) == corpus


def test_json_field_checks():
    data = {"n": 3, "flag": True, "x": float("nan"), "s": "a"}
    assert json_field(data, "n", int, "t") == 3
    assert json_field(data, "missing", int, "t", default=0) == 0
    for key, types in (("missing", int), ("flag", int), ("x", float), ("s", int)):
        with pytest.raises(ValueError):
            json_field(data, key, types, "t")
