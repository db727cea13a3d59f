"""The two durable writes every persistent file goes through.

:func:`atomic_write` replaces a whole file: the text goes to a
same-directory tempfile ``<name>.<pid>.tmp``, is flushed and fsync'd,
then ``os.replace``-renamed over the target, so a crash leaves the old
file or the new one and never a mix.  The ``store.commit``
fault-injection site sits between the fsync and the rename.  Result-store
entries, index compaction and the lint summary cache use it.

:func:`append_lines` appends records: a single ``write()`` of complete
lines, flushed and fsync'd once, so a crash tears at most the final
line.  If the file already ends in a torn line (its last byte is not a
newline), the write starts with a newline, so the new records never
join the torn one.  :func:`append_line` is its one-line case.  The
store index, the estimation records and the perf ledger use them; the
index and the records can hold lines back in a batch and append them
with one call.

``os.fsync`` is looked up on the ``os`` module at each call, so a
profiler that patches it sees every durable write.  Neither function
fsyncs the directory.

:func:`sweep_stale_tempfiles` deletes tempfiles whose writer process is
gone; a live writer's tempfile is left alone, so several processes can
share one directory.  It walks the tree once with ``os.scandir`` and
hands back the files it kept, so the result store sweeps and sizes its
objects in one walk.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Union

from repro.faultinject.plan import maybe_inject

__all__ = [
    "append_line",
    "append_lines",
    "atomic_write",
    "sweep_stale_tempfiles",
]

PathLike = Union[str, "os.PathLike[str]"]


def atomic_write(
    path: PathLike, text: str, benchmark: Optional[str] = None
) -> None:
    """Replace ``path`` with ``text`` (tempfile, fsync, rename).

    ``benchmark`` is what a ``store.commit`` fault rule filters on.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        # Crash-during-commit injection point: the bytes are durable in
        # the tempfile, the rename has not made them visible.
        maybe_inject("store.commit", benchmark=benchmark)
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def append_lines(path: PathLike, lines: Sequence[str]) -> None:
    """Append each of ``lines`` plus a newline as one fsync'd ``write()``."""
    if not lines:
        return
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    with open(path, "a+b") as handle:
        end = handle.seek(0, os.SEEK_END)
        if end:
            handle.seek(end - 1)
            if handle.read(1) != b"\n":
                data = b"\n" + data
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def append_line(path: PathLike, line: str) -> None:
    """Append ``line`` plus a newline as one fsync'd ``write()``."""
    append_lines(path, (line,))


def _walk_files(directory: PathLike) -> Iterator["os.DirEntry[str]"]:
    """Every non-directory entry under ``directory``, from one
    ``os.scandir`` walk.

    Like ``Path.rglob``, it does not follow symlinked directories and
    skips a directory it cannot list (one that vanished mid-walk, or an
    unreadable one).
    """
    pending = [os.fspath(directory)]
    while pending:
        try:
            with os.scandir(pending.pop()) as entries:
                for entry in entries:
                    if entry.is_dir(follow_symlinks=False):
                        pending.append(entry.path)
                    else:
                        yield entry
        except OSError:
            continue


def sweep_stale_tempfiles(directory: PathLike) -> List["os.DirEntry[str]"]:
    """Delete ``*.tmp`` files under ``directory`` whose writer is gone.

    The writer is the pid in ``<name>.<pid>.tmp``; a tempfile without
    one is treated as abandoned.  Returns the entries of every other
    file the walk met, so a caller that also needs the tree's files
    walks it once.
    """
    kept = []
    for entry in _walk_files(directory):
        if entry.name.endswith(".tmp") and not _writer_alive(entry.name):
            try:
                os.unlink(entry.path)
            except OSError:
                pass
        else:
            kept.append(entry)
    return kept


def _writer_alive(name: str) -> bool:
    pid_text = name[: -len(".tmp")].rpartition(".")[2]
    if not pid_text.isdigit() or int(pid_text) <= 0:
        return False
    try:
        os.kill(int(pid_text), 0)
    except ProcessLookupError:
        return False
    except OSError:
        # Exists but belongs to someone else: leave its file alone.
        return True
    return True
