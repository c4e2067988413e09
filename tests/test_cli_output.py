"""Where ``distlab`` outputs land, and the names the benchmark tracer wraps."""
import io
import os
import stat
import sys

import pytest

import distlab.cli
from distlab.bounds import family_graph
from distlab.cli import main
from distlab.graph6 import emit
from distlab.graphs import cycle_graph

FAMILY_4 = emit(family_graph(4)) + "\n"


@pytest.fixture
def umask():
    """Set the process umask for one test and restore it afterwards."""
    old = os.umask(0o022)
    try:
        yield os.umask
    finally:
        os.umask(old)


@pytest.mark.parametrize("mask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
                         ids=["umask-022", "umask-077", "umask-002"])
def test_new_output_file_gets_the_mode_a_plain_write_gives(tmp_path, umask, mask, mode):
    umask(mask)
    out = tmp_path / "f.g6"
    assert main(["family", "--k", "4", "--out", str(out)]) == 0
    assert out.read_text() == FAMILY_4
    assert stat.S_IMODE(out.stat().st_mode) == mode


def test_replaced_output_file_keeps_its_mode(tmp_path, umask):
    umask(0o077)
    out = tmp_path / "f.g6"
    out.write_text("old\n")
    out.chmod(0o654)
    assert main(["family", "--k", "4", "--out", str(out)]) == 0
    assert out.read_text() == FAMILY_4
    assert stat.S_IMODE(out.stat().st_mode) == 0o654


def test_fifo_output_is_written_in_place(tmp_path):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    # a reader that never blocks, so a writer that renames over the FIFO
    # fails the test instead of hanging it
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["family", "--k", "4", "--out", str(fifo)]) == 0
        received = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert received.decode() == FAMILY_4
    assert [p for p in os.listdir(tmp_path) if p.startswith(".distlab-")] == []


def test_symlinked_output_stays_a_symlink(tmp_path):
    real = tmp_path / "data" / "real.g6"
    real.parent.mkdir()
    real.write_text("old\n")
    link = tmp_path / "link.g6"
    link.symlink_to(real)
    assert main(["family", "--k", "4", "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_text() == FAMILY_4
    assert [p for p in os.listdir(real.parent) if p.startswith(".distlab-")] == []


def test_emit_cnf_to_stdout_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["sat-search", "--n", "6", "--p2-len", "2", "--min-d2", "3", "--emit-cnf", "-"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "--emit-cnf" in err
    assert os.listdir(tmp_path) == []


def test_main_calls_the_traced_names_at_call_time(monkeypatch, capsys):
    """The benchmark tracer wraps these module globals after import; ``main``
    must look them up when it runs, not bind them when the module loads."""
    calls = {}

    def counting(name):
        real = getattr(distlab.cli, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(distlab.cli, name, wrapper)

    for name in ("cmd_transform", "cmd_diam", "cmd_verify", "k_distance"):
        counting(name)
    text = emit(cycle_graph(6)) + "\n" + emit(cycle_graph(7)) + "\n"
    for command in (["transform", "--k", "2"], ["diam"], ["verify"]):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert main(command) == 0
    capsys.readouterr()
    assert calls == {"cmd_transform": 1, "k_distance": 2, "cmd_diam": 1, "cmd_verify": 1}
