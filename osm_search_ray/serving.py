"""Low-latency serving path — the engine's answer to the reference's
resident HTTP searcher (SURVEY.md S11; /root/reference/pkg/http/http-router/
controllers/searcher.go:46-57 serves from in-RAM indexes at µs latency).

The batch jobs (jobs/run_queries.py) pay seconds of pipeline startup per
submission; a :class:`Session` instead holds one core — the in-RAM index
(``SearchCore``), the on-disk index (``DiskSearchCore``), a segmented index
(``SegmentedSearchCore``) or an IVF store (``annindex.IvfStoreCore``) —
built once and reused by every request.

The session runs IN THE CALLER'S PROCESS unless it is given a ``name``: a
request is then a plain method call on the core, like the reference's one
Go process. With a ``name`` the same class is hosted by a named Ray actor
that ``get_session(name)`` re-attaches to from any driver connected to the
cluster; each call is then one actor round trip.

Usage (driver owns the Ray session, as everywhere in this repo):

    session = start_session(index, corrector=sc)  # in process
    rows = [{"query_id": 0, "text": "pantai ancol"}]
    res = session.search(rows)                    # rows in, columns out
    res2 = session.autocomplete(rows)             # no rebuild between calls
    named = start_session(index, corrector=sc, name="searcher")  # actor
"""

from __future__ import annotations

import time

import ray

from .pipelines.search import DiskSearchCore, SearchCore, SegmentedSearchCore, autocomplete_columns
from .pipelines.text_index import TextIndex
from .stages.annindex import IvfStoreCore


class Session:
    """One core, built once by ``make_core(*args)``; the same class serves
    in process and, wrapped by ``ray.remote``, as a named actor."""

    def __init__(self, make_core, *args):
        self.core = make_core(*args)

    def search(self, rows: list[dict]) -> dict:
        """The core's ``search_columns``: rows in, columns out."""
        return self.core.search_columns(rows)

    def autocomplete(self, rows: list[dict], top_n: int = 3) -> dict:
        """``autocomplete_columns`` over the core's corrector."""
        corrector = getattr(self.core, "corrector", None)
        if corrector is None:
            raise ValueError("session started without a corrector")
        return autocomplete_columns(corrector, rows, top_n)

    def refresh(self) -> int:
        """Segmented core: attach segments committed since the last refresh
        (docs added via jobs/update_index.py become searchable without a
        rebuild or restart); returns the segment count now served."""
        return self.core.refresh()

    def topk(self, queries: dict, k: int, nprobe: int = 4):
        return self.core.topk(queries, k, nprobe)

    def warmup(self) -> None:
        """The core is built by the constructor; on a named session this is
        one actor round trip."""

    def stop(self) -> None:
        self.core = None


_RemoteSession = ray.remote(Session)


class _Named:
    """A :class:`Session` hosted by a named actor: each method is one
    blocking actor call; ``stop`` kills the actor."""

    def __init__(self, handle):
        self._handle = handle

    def __getattr__(self, method):
        if method.startswith("_"):
            raise AttributeError(method)
        call = getattr(self._handle, method).remote
        return lambda *a, **kw: ray.get(call(*a, **kw))

    def stop(self) -> None:
        ray.kill(self._handle)


def _start_named(name: str, make_core, *args) -> _Named:
    """Create (or kill-and-replace) the named session actor: a second start
    under a live name never raises (ADVICE r02). The actor is scoped to the
    driver's lifetime (not detached)."""
    try:
        ray.kill(ray.get_actor(name))
    except ValueError:
        pass  # no live actor under this name
    last_err = None
    for _ in range(50):  # the killed actor's name can linger briefly
        try:
            s = _Named(_RemoteSession.options(name=name).remote(make_core, *args))
            s.warmup()
            return s
        except ValueError as e:
            last_err = e
            time.sleep(0.1)
    raise last_err  # name never freed — surface the real error


def _start(name: str | None, make_core, *args):
    return Session(make_core, *args) if name is None else _start_named(name, make_core, *args)


def start_session(index: TextIndex, corrector=None, name: str | None = None):
    """A session over the in-RAM index; with ``name``, hosted by a named
    actor that replaces any live actor under that name."""
    return _start(name, SearchCore, index, corrector)


def start_disk_session(index_dir: str, corrector=None, name: str | None = None):
    """A session over the ON-DISK index (DiskSearchCore): per request only
    the queried terms' dictionary and postings buckets are read — the
    serving shape when the index exceeds RAM. A named session needs the
    index directory visible from the actor's node."""
    return _start(name, DiskSearchCore, index_dir, corrector)


def start_segmented_session(index_dir: str, corrector=None, name: str | None = None):
    """A session over a SEGMENTED index (SegmentedSearchCore): per-segment
    readers stay warm and ``refresh()`` attaches new segments."""
    return _start(name, SegmentedSearchCore, index_dir, corrector)


def start_ann_session(store_dir: str, name: str | None = None):
    """A session over an IVF store (IvfStoreCore): centroids stay warm and
    each ``topk`` reads only the probed list partitions."""
    return _start(name, IvfStoreCore, store_dir)


def get_session(name: str) -> _Named:
    """Re-attach to a running named session (no index reload)."""
    return _Named(ray.get_actor(name))
