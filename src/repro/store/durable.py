"""The two durable writes every persistent file goes through.

:func:`atomic_write` replaces a whole file: the text goes to a
same-directory tempfile ``<name>.<pid>.tmp``, is flushed and fsync'd,
then ``os.replace``-renamed over the target, so a crash leaves the old
file or the new one and never a mix.  The ``store.commit``
fault-injection site sits between the fsync and the rename.  Result-store
entries, index compaction and the lint summary cache use it.

:func:`append_line` appends one record: a single ``write()`` of one
complete line, flushed and fsync'd, so a crash tears at most the final
line.  If the file already ends in a torn line (its last byte is not a
newline), the write starts with a newline, so the new record never
joins the torn one.  The store index, the estimation records and the
perf ledger use it.

``os.fsync`` is looked up on the ``os`` module at each call, so a
profiler that patches it sees every durable write.  Neither function
fsyncs the directory.

:func:`sweep_stale_tempfiles` deletes tempfiles whose writer process is
gone; a live writer's tempfile is left alone, so several processes can
share one directory.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Union

from repro.faultinject.plan import maybe_inject

__all__ = ["append_line", "atomic_write", "sweep_stale_tempfiles"]

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


def append_line(path: PathLike, line: str) -> None:
    """Append ``line`` plus a newline as one fsync'd ``write()``."""
    data = line.encode("utf-8") + b"\n"
    with open(path, "a+b") as handle:
        end = handle.seek(0, os.SEEK_END)
        if end:
            handle.seek(end - 1)
            if handle.read(1) != b"\n":
                data = b"\n" + data
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def sweep_stale_tempfiles(directory: PathLike) -> None:
    """Delete ``*.tmp`` files under ``directory`` whose writer is gone.

    The writer is the pid in ``<name>.<pid>.tmp``; a tempfile without
    one is treated as abandoned.
    """
    for stray in Path(directory).rglob("*.tmp"):
        if _writer_alive(stray):
            continue
        try:
            stray.unlink()
        except OSError:
            pass


def _writer_alive(tmp: Path) -> bool:
    pid_text = tmp.name[: -len(".tmp")].rpartition(".")[2]
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
