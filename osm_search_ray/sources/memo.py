"""Per-process memo for per-corpus state (the reference loads its LM/FST
once at boot and its index once it is built).

A corpus is the fingerprint of its input files — ``(path, st_size,
st_mtime_ns)`` for each — so a file rewritten at the same path is a new
corpus, never a stale hit. Each ``name`` holds ONE corpus at a time: a
lookup for another corpus evicts every entry of that name before building,
while entries for the same corpus under other ``params`` stay.

``store_dir`` puts an on-disk build on top: a directory under
``/tmp/osm_search_ray_<name>/`` named by a hash of (fingerprint, params),
so the name is stable across processes; one completion marker written
after the build returns, so a build that crashed partway is redone rather
than reused; and the directory removed when its corpus is evicted.
"""

from __future__ import annotations

import hashlib
import os
import shutil

_MARKER = "_MEMO_COMPLETE"
_held: dict[str, dict[tuple, object]] = {}


class _StoreDir(str):
    """A store directory the memo owns: removed when its entry is evicted."""


def _stat(path: str) -> tuple:
    try:
        st = os.stat(path)
    except FileNotFoundError:  # absence is a state too; a build that reads the file raises
        return (path, None, None)
    return (path, st.st_size, st.st_mtime_ns)


def _fingerprint(inputs) -> tuple:
    return tuple(_stat(p) for p in inputs)


def memo(name: str, inputs, build, *params):
    """The value held for ``name`` at the current fingerprint of the
    ``inputs`` files and ``params``; on a miss, ``build()`` makes it."""
    fp = _fingerprint(inputs)
    held = _held.setdefault(name, {})
    key = (fp, params)
    if key not in held:
        for k in [k for k in held if k[0] != fp]:
            if isinstance(held[k], _StoreDir):
                shutil.rmtree(held[k], ignore_errors=True)
            del held[k]
        held[key] = build()
    return held[key]


def store_dir(name: str, inputs, build, *params) -> str:
    """Directory of the on-disk store for ``name`` over ``inputs`` and
    ``params``; ``build(out_dir)`` runs only when its completion marker is
    missing. A build must tolerate the partial output of a crashed one."""

    def make() -> str:
        tag = hashlib.sha1(repr((_fingerprint(inputs), params)).encode()).hexdigest()[:12]
        out_dir = f"/tmp/osm_search_ray_{name}/{tag}"
        if not os.path.exists(f"{out_dir}/{_MARKER}"):
            build(out_dir)
            os.makedirs(out_dir, exist_ok=True)
            open(f"{out_dir}/{_MARKER}", "w").close()
        return _StoreDir(out_dir)

    return str(memo(name, inputs, make, *params))


def clear() -> None:
    """Drop every in-process entry. On-disk stores stay: their markers
    make them safe to reuse."""
    _held.clear()
