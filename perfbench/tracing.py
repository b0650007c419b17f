"""Spans around the public functions of ``shellorder``, installed from
outside the package.

A span records its name, start, end and parent span.  Spans are kept in
flat arrays in memory and written out once, at the end of the run.  Self
time is a span's duration minus the time its child spans cover.

``from .x import y`` binds ``y`` again in the importing module (for
example ``shellorder.suites.evacuate``), so a wrapper replaces every
binding of the original object in every ``shellorder`` module; otherwise
calls from that module would escape their span.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name).  Attributes with a dot are methods.
SPANNED = (
    ("core", "FacetSequence.__post_init__", "core.facet_sequence"),
    ("core", "LabeledGraph.__post_init__", "core.labeled_graph"),
    ("shelling", "is_shelling_order", "shelling.is_shelling_order"),
    ("shelling", "dual_graph", "shelling.dual_graph"),
    ("shelling", "find_shelling_order", "shelling.find_shelling_order"),
    ("promotion", "track", "promotion.track"),
    ("promotion", "graph_of", "promotion.graph_of"),
    ("promotion", "promote", "promotion.promote"),
    ("promotion", "r_promote", "promotion.r_promote"),
    ("promotion", "evacuate", "promotion.evacuate"),
    ("promotion", "elementary_move", "promotion.elementary_move"),
    ("promotion", "promote_via_moves", "promotion.promote_via_moves"),
    ("bruhat", "strictly_below_masks", "bruhat.strictly_below_masks"),
    ("bruhat", "induced_covers", "bruhat.induced_covers"),
    ("bruhat", "is_order_ideal", "bruhat.is_order_ideal"),
    ("matroid", "is_matroid", "matroid.is_matroid"),
    ("matroid", "is_coxeter_matroid", "matroid.is_coxeter_matroid"),
    ("subdivision", "barycentric", "subdivision.barycentric"),
    ("subdivision", "flag_facet", "subdivision.flag_facet"),
    ("suites", "exhaustive_corpus", "suites.exhaustive_corpus"),
    ("suites", "random_corpus", "suites.random_corpus"),
    ("cli", "parse_input", "cli.parse_input"),
    ("cli", "serialize", "cli.serialize"),
    ("cli", "main", "cli.main"),
)
# Spanned, and the share of calls returning a true value is counted.
SPANNED_TRUTH = (
    ("shelling", "_append_ok", "shelling.append_ok"),
    ("matroid", "has_quasi_exchange", "matroid.has_quasi_exchange"),
)
# Generators: one span per call and one per resumption while consumed.
SPANNED_GENERATORS = (
    ("shelling", "shelling_orders", "shelling.shelling_orders"),
    ("bruhat", "linear_extensions", "bruhat.linear_extensions"),
)
# Counted only: called too often for a span each.
COUNTED = (("bruhat", "leq", "bruhat.leq"),)


class Tracer:
    """Records spans and counts while installed; restores every binding
    on ``uninstall``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.calls: Counter = Counter()
        self.truths: Counter = Counter()
        self.chunks = 0
        self._restore: list[tuple[object, str, object, bool]] = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        self.calls[name] += 1
        sid = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(sid)

    def _spanned(self, fn, name: str, truth: bool = False):
        nid = self._name_id(name)
        calls, truths, open_, close = self.calls, self.truths, self._open, self._close

        def wrapper(*args, **kwargs):
            calls[name] += 1
            sid = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if truth and result:
                truths[name] += 1
            return result

        return wrapper

    def _spanned_generator(self, fn, name: str):
        call = self._spanned(fn, name)
        nid = self._name_id(name)
        open_, close = self._open, self._close

        def resumed(gen):
            while True:
                sid = open_(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    close(sid)
                yield item

        return lambda *args, **kwargs: resumed(call(*args, **kwargs))

    def _counted(self, fn, name: str):
        self._name_id(name)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ---------------------------------------------------------

    def _rebind(self, module: str, attr: str, make) -> None:
        owner = sys.modules[f"shellorder.{module}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, make(original))
            self._restore.append((cls, method, original, True))
            return
        original = getattr(owner, attr)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "shellorder" and not mod_name.startswith("shellorder."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._restore.append((mod, key, original, True))

    def install(self) -> None:
        for module, attr, name in SPANNED:
            self._rebind(module, attr, lambda f, n=name: self._spanned(f, n))
        for module, attr, name in SPANNED_TRUTH:
            self._rebind(module, attr, lambda f, n=name: self._spanned(f, n, truth=True))
        for module, attr, name in SPANNED_GENERATORS:
            self._rebind(module, attr, lambda f, n=name: self._spanned_generator(f, n))
        for module, attr, name in COUNTED:
            self._rebind(module, attr, lambda f, n=name: self._counted(f, n))

        suites = sys.modules["shellorder.suites"]
        for check, fn in list(suites.CORPUS_CHECKS.items()):
            suites.CORPUS_CHECKS[check] = self._spanned(fn, f"suites.check.{check}")
            self._restore.append((suites.CORPUS_CHECKS, check, fn, False))
        run_chunked = suites._run_chunked

        def counting_run_chunked(worker, args_list, jobs):
            self.chunks += len(args_list)
            return run_chunked(worker, args_list, jobs)

        suites._run_chunked = counting_run_chunked
        self._restore.append((suites, "_run_chunked", run_chunked, True))

    def uninstall(self) -> None:
        for owner, key, original, is_attr in reversed(self._restore):
            if is_attr:
                setattr(owner, key, original)
            else:
                owner[key] = original
        self._restore.clear()

    # -- reading ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.start)
        for sid in range(len(self.start)):
            p = self.parent[sid]
            if p >= 0:
                covered[p] += self.end[sid] - self.start[sid]
        out: dict[str, float] = dict.fromkeys(self.names, 0.0)
        for sid in range(len(self.start)):
            own = self.end[sid] - self.start[sid] - covered[sid]
            out[self.names[self.name[sid]]] += own
        return out

    def wall_times(self) -> dict[str, float]:
        out: dict[str, float] = dict.fromkeys(self.names, 0.0)
        for sid in range(len(self.start)):
            out[self.names[self.name[sid]]] += self.end[sid] - self.start[sid]
        return out

    def write(self, path: Path) -> None:
        """Spans as four little-endian arrays (name id, parent id, start,
        end) preceded by a one-line JSON header naming the ids."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": ["name:i32", "parent:i32", "start:f64", "end:f64"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.start, self.end):
                if sys.byteorder != "little":
                    arr = array(arr.typecode, arr)
                    arr.byteswap()
                arr.tofile(fh)
