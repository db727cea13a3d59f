"""The durable-write helpers (``repro.store.durable``)."""

import os
import subprocess
import sys

import pytest

from repro.faultinject import FaultSpec, InjectedFaultError, inject
from repro.store import ResultStore, StoreIndex
from repro.store.durable import (
    append_line,
    append_lines,
    atomic_write,
    sweep_stale_tempfiles,
)


@pytest.fixture(autouse=True)
def no_leftover_fault_plan(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


def dead_pid():
    """The pid of a child that has exited and been reaped."""
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


class TestAtomicWrite:
    def test_replaces_and_leaves_no_tempfile(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text("old")
        atomic_write(path, "new")
        assert path.read_text() == "new"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_commit_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text("old")
        with inject(FaultSpec(kind="transient", site="store.commit")):
            with pytest.raises(InjectedFaultError):
                atomic_write(path, "new")
        assert path.read_text() == "old"
        assert list(tmp_path.iterdir()) == [path]

    def test_commit_fault_filters_on_benchmark(self, tmp_path):
        path = tmp_path / "f.json"
        with inject(
            FaultSpec(kind="transient", benchmark="mcf", site="store.commit")
        ):
            atomic_write(path, "gcc row", benchmark="gcc")
            with pytest.raises(InjectedFaultError):
                atomic_write(path, "mcf row", benchmark="mcf")
        assert path.read_text() == "gcc row"

    def test_one_fsync_per_write(self, tmp_path, monkeypatch):
        calls = []
        fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or fsync(fd))
        atomic_write(tmp_path / "f.json", "x")
        append_line(tmp_path / "f.jsonl", "y")
        assert len(calls) == 2


class TestAppendLine:
    def test_appends_complete_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_line(path, "one")
        append_line(path, "two")
        assert path.read_text() == "one\ntwo\n"

    def test_torn_tail_is_closed_before_the_next_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('one\n{"torn')
        append_line(path, "three")
        assert path.read_text() == 'one\n{"torn\nthree\n'

    def test_no_blank_line_after_a_complete_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("one\n")
        append_line(path, "two")
        assert path.read_text() == "one\ntwo\n"


class TestAppendLines:
    def test_one_write_and_one_fsync_for_many_lines(self, tmp_path, monkeypatch):
        calls = []
        fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or fsync(fd))
        path = tmp_path / "log.jsonl"
        append_lines(path, [f"line {n}" for n in range(50)])
        assert len(calls) == 1
        assert path.read_text().splitlines() == [f"line {n}" for n in range(50)]

    def test_no_lines_write_nothing(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "fsync", calls.append)
        path = tmp_path / "log.jsonl"
        append_lines(path, [])
        assert calls == []
        assert not path.exists()

    def test_torn_tail_is_closed_before_the_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('one\n{"torn')
        append_lines(path, ["two", "three"])
        assert path.read_text() == 'one\n{"torn\ntwo\nthree\n'


class TestSweep:
    def test_only_dead_writers_tempfiles_go(self, tmp_path):
        live = tmp_path / f"a.json.{os.getpid()}.tmp"
        dead = tmp_path / "sub" / f"b.json.{dead_pid()}.tmp"
        legacy = tmp_path / "index.jsonl.tmp"
        dead.parent.mkdir()
        for path in (live, dead, legacy):
            path.write_text("x")
        sweep_stale_tempfiles(tmp_path)
        assert live.exists()
        assert not dead.exists()
        assert not legacy.exists()


class TestOneWalk:
    """A store open sweeps and sizes from one ``os.scandir`` walk; it
    must find what the two ``pathlib`` walks it replaced found."""

    #: A live writer other than this process, whose own index writes
    #: would reuse its tempfile name.
    LIVE = os.getppid()

    def build_tree(self, root):
        live, dead = self.LIVE, dead_pid()
        files = {
            "objects/ab/ab01.json": "x" * 11,
            "objects/ab/ab02.json": "x" * 22,
            "objects/cd/cd03.json": "x" * 33,
            "objects/cd/deeper/cd04.json": "x" * 44,
            f"objects/ab/ab05.json.{live}.tmp": "live",
            f"objects/cd/cd06.json.{dead}.tmp": "dead",
            "objects/cd/cd07.json.tmp": "pid-less",
            "quarantine/ab08.crc.json": "q" * 5,
            f"quarantine/ab09.torn.json.{dead}.tmp": "dead",
            f"index.jsonl.{dead}.tmp": "dead",
            f"index.jsonl.{live}.tmp": "live",
            "notes.txt": "kept",
        }
        for name, text in files.items():
            path = root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)

    def test_matches_the_pathlib_reference(self, tmp_path):
        root = tmp_path / "cache"
        self.build_tree(root)
        objects = root / "objects"
        sizes = {
            path.stem: path.stat().st_size for path in objects.rglob("*.json")
        }
        tempfiles = set(root.rglob("*.tmp"))
        live = {path for path in tempfiles if f".{self.LIVE}." in path.name}
        others = set(root.rglob("*")) - tempfiles
        store = ResultStore(root)
        indexed = {key: store.index.size_of(key) for key in store.index.lru_order()}
        assert indexed == sizes
        assert set(root.rglob("*.tmp")) == live
        assert others <= set(root.rglob("*"))
        assert store._scan_objects() == sizes

    def test_sweep_returns_the_files_it_kept(self, tmp_path):
        self.build_tree(tmp_path)
        kept = {entry.path for entry in sweep_stale_tempfiles(tmp_path)}
        assert kept == {str(path) for path in tmp_path.rglob("*") if path.is_file()}


def test_index_compaction_uses_a_per_process_tempfile(tmp_path, monkeypatch):
    renamed = []
    replace = os.replace

    def spy(src, dst):
        renamed.append(os.path.basename(src))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    StoreIndex(tmp_path / "index.jsonl")  # a new index writes its header
    assert renamed == [f"index.jsonl.{os.getpid()}.tmp"]
