"""Code-version fingerprint for result-store keys.

A memoized ``CampaignResult`` is only valid while the code that
produced it is the code that would reproduce it.  ``code_version()``
digests the source bytes of every package whose behaviour a simulation
result depends on — controllers, engine, cache model, SRAM model,
trace/workload synthesis, the sim layer itself, and the derivation
that serves campaign rows inside a memo scope
(``perf/derive.py``) — so any edit to
result-bearing code changes the version, changes every store key, and
turns the whole cache into misses.  Stale entries are never *served*;
they are garbage-collected by ``repro-8t cache gc`` (or evicted by the
LRU bound).

The observability, analysis and lint layers are deliberately excluded:
they read results, they do not make them, and invalidating a
multi-hour campaign cache because a docstring moved in ``repro.obs``
would be pure waste.  ``repro.store`` itself is *included* — a bug fix
in entry validation should not keep trusting entries written by the
buggy build.

``REPRO_CODE_VERSION`` overrides the computed version (tests use it to
simulate code drift without editing files).
"""

from __future__ import annotations

import hashlib
import os
from functools import lru_cache
from pathlib import Path
from typing import Dict, Optional, Union

__all__ = [
    "ENV_CODE_VERSION",
    "RESULT_CODE_PATHS",
    "ESTIMATOR_CODE_PATHS",
    "code_version",
]

#: Environment override: when set and non-empty, its value *is* the
#: code version (truncated to 16 chars for uniform key material).
ENV_CODE_VERSION = "REPRO_CODE_VERSION"

#: Paths (relative to the ``repro`` package root) whose source bytes
#: define the result-bearing code surface.
RESULT_CODE_PATHS = (
    "errors.py",
    "cache",
    "core",
    "engine",
    "sram",
    "store",
    "trace",
    "utils",
    "workload",
    "sim",
    "perf/derive.py",
)

#: The estimator-result code surface: an estimation record is valid
#: only while the power models (and the geometry code they derive
#: from) are unchanged.  Deliberately *narrower* than
#: :data:`RESULT_CODE_PATHS` — an edit to a controller invalidates
#: simulated campaign rows but not cached energy/area estimates, and
#: vice versa.
ESTIMATOR_CODE_PATHS = (
    "errors.py",
    "cache/config.py",
    "power",
    "sram/geometry.py",
    "sram/events.py",
)

#: Hex digits kept from the sha256 digest — plenty against accidental
#: collision, short enough to read in ``cache stats`` output.
VERSION_LENGTH = 16

_cache: Dict[str, str] = {}


@lru_cache(maxsize=None)
def _package_root() -> Path:
    """The installed ``repro`` package directory, resolved once per process."""
    import repro

    return Path(repro.__file__).resolve().parent


def _iter_source_files(root: Path, paths):
    for rel in paths:
        target = root / rel
        if target.is_file():
            yield rel, target
        elif target.is_dir():
            for path in sorted(target.rglob("*.py")):
                yield str(path.relative_to(root)), path


def code_version(
    root: Optional[Union[str, Path]] = None,
    paths=RESULT_CODE_PATHS,
) -> str:
    """Digest of the result-bearing source tree (16 hex chars).

    Deterministic in the file *contents* only — paths are hashed
    relative to the package root, so two checkouts of the same tree
    agree regardless of where they live.  The result is cached per
    (root, paths); a long-running process keeps one stable version for
    its lifetime (it runs one code build anyway).  ``paths`` selects
    the code surface: campaign results use :data:`RESULT_CODE_PATHS`,
    estimation records the narrower :data:`ESTIMATOR_CODE_PATHS`.
    """
    override = os.environ.get(ENV_CODE_VERSION)
    if override:
        return override[:VERSION_LENGTH]
    root = Path(root).resolve() if root is not None else _package_root()
    memo_key = f"{root}|{'|'.join(paths)}"
    cached = _cache.get(memo_key)
    if cached is not None:
        return cached
    hasher = hashlib.sha256()
    for rel, path in _iter_source_files(root, paths):
        # Portable separators so the digest agrees across platforms.
        hasher.update(rel.replace(os.sep, "/").encode())
        hasher.update(b"\x00")
        hasher.update(path.read_bytes())
        hasher.update(b"\x00")
    version = hasher.hexdigest()[:VERSION_LENGTH]
    _cache[memo_key] = version
    return version
