"""Layer spans for the traced run.

The tracer wraps borelcell's functions at the module attributes their
callers look up, so a call made anywhere in the package lands in a span.
A span is (name, start, end, parent, op id, size); spans stay in memory and
are reduced to per-layer metrics and written out when the run ends.  A
layer's self time is its span's duration minus the part of that interval
its child spans cover.  A wrapped name that no longer exists is recorded as
absent, never an error: later refactors are expected to delete internals
such as `restrict`.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
from time import perf_counter


def _entries(args, out):
    rows = args[0]
    return len(rows) * len(rows[0]) if rows and rows[0] else 0


def _degrees(args, out):
    return sum(1 for c in getattr(out, "checks", ()) if getattr(c, "name", "") == "acyclic")


def _length(args, out):
    return len(out)


def _inputs(args, out):
    return len(args[0])


def _as_list(args):
    return (list(args[0]),) + tuple(args[1:])


def _bytes_written(args, out):
    return os.path.getsize(args[1])


def _bytes_read(args, out):
    return os.path.getsize(args[0])


# (span name, module, attribute path, size hook, argument hook)
SPAN_TARGETS = [
    ("cli.main", "borelcell.cli", "main", None, None),
    ("complexes.orient", "borelcell.complexes", "LabeledComplex._finalize", None, None),
    ("complexes.restrict", "borelcell.complexes", "restrict", None, None),
    ("resolution.verify", "borelcell.resolution", "verify_resolution", _degrees, None),
    ("resolution.homology", "borelcell.resolution", "homology_dims", None, None),
    ("resolution.chain", "borelcell.resolution", "chain_complex", None, None),
    ("resolution.bsq", "borelcell.resolution", "check_boundary_squared_zero", None, None),
    ("exact.rank_q", "borelcell.exact", "rank_rationals", _entries, None),
    ("exact.rank_p", "borelcell.exact", "rank_mod_p", _entries, None),
    ("koszul.betti", "borelcell.koszul", "betti_via_koszul", None, None),
    ("borel.expand", "borelcell.borel", "BorelIdeal.from_borel_gens", None, None),
    ("borel.expand", "borelcell.borel", "borel_generators", None, None),
    ("monomials.minimal", "borelcell.monomials", "minimal_under_divisibility", _inputs, _as_list),
    ("lattice.build", "borelcell.lattice", "build_lattice", _length, None),
    ("lattice.ranked", "borelcell.lattice", "is_ranked", None, None),
    ("builders.build", "borelcell.builders", "power_complex", _length, None),
    ("builders.build", "borelcell.builders", "principal_complex", _length, None),
    ("builders.build", "borelcell.builders", "borel_complex", _length, None),
    ("builders.build", "borelcell.builders", "induced_complex", _length, None),
    ("serialize.export", "borelcell.serialize", "export_json", _bytes_written, None),
    ("serialize.import", "borelcell.serialize", "import_json", _bytes_read, None),
]

# counted without a span: one call per lcm-lattice degree of the Koszul oracle
COUNT_TARGETS = [("koszul.degree", "borelcell.koszul", "upper_koszul")]

NAME, START, END, PARENT, OP, SIZE = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.op = -1
        self._lock = threading.Lock()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, size=None, prep=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if prep is not None:
                args = prep(args)
            stack = tracer._stack()
            # a pool thread's first span hangs off the main thread's open span
            owner = stack or tracer._main_stack
            rec = [name, 0.0, 0.0, owner[-1] if owner else -1, tracer.op, 0]
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(rec)
            stack.append(idx)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if size is not None:
                rec[SIZE] = size(args, out)
            return out

        return wrapper

    def counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer._lock:
                tracer.counts[name] = tracer.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for name, module, path, size, prep in SPAN_TARGETS:
            self._patch(module, path, lambda fn, n=name, s=size, p=prep: self.span(n, fn, s, p))
        for name, module, path in COUNT_TARGETS:
            self._patch(module, path, lambda fn, n=name: self.counter(n, fn))

    def _patch(self, module: str, path: str, make) -> None:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            self.absent.append(f"{module}:{path}")
            return
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            cls = getattr(mod, owner_name, None)
            raw = getattr(cls, "__dict__", {}).get(attr)
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(make(raw.__func__)))
            elif callable(raw):
                setattr(cls, attr, make(raw))
            else:
                self.absent.append(f"{module}:{path}")
            return
        orig = getattr(mod, attr, None)
        if not callable(orig):
            self.absent.append(f"{module}:{path}")
            return
        wrapped = make(orig)
        # rebind every alias inside the package, so callers that imported
        # the name into their own module also see the wrapper
        for mname, m in list(sys.modules.items()):
            if m is None or not (mname == "borelcell" or mname.startswith("borelcell.")):
                continue
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)

    def write(self, path: str) -> None:
        names = sorted({s[NAME] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op", "size"],
                    "names": names,
                    "spans": [[code[s[NAME]]] + s[1:] for s in self.spans],
                },
                fh,
                separators=(",", ":"),
            )


def _covered(intervals, lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanStats:
    """Per-name reductions over one run's spans."""

    def __init__(self, spans, counts) -> None:
        self.counts = counts
        children: list[list[int]] = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                children[s[PARENT]].append(i)
        self.by_name: dict[str, list[tuple[float, float, int, bool]]] = {}
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            self_t = dur - _covered(
                [(spans[c][START], spans[c][END]) for c in children[i]], s[START], s[END]
            )
            outer = True
            p = s[PARENT]
            while p >= 0:
                if spans[p][NAME] == s[NAME]:
                    outer = False
                    break
                p = spans[p][PARENT]
            self.by_name.setdefault(s[NAME], []).append((dur, self_t, s[SIZE], outer))

    def calls(self, name, outer=False) -> int:
        return sum(1 for r in self.by_name.get(name, ()) if r[3] or not outer)

    def seconds(self, name) -> float:
        """Inclusive time, counting nested spans of the same name once."""
        return sum(r[0] for r in self.by_name.get(name, ()) if r[3])

    def self_seconds(self, name) -> float:
        return sum(r[1] for r in self.by_name.get(name, ()))

    def size(self, name, outer=False) -> int:
        return sum(r[2] for r in self.by_name.get(name, ()) if r[3] or not outer)

    def max_size(self, name) -> int:
        return max((r[2] for r in self.by_name.get(name, ())), default=0)


def layer_metrics(st: SpanStats) -> dict[str, float]:
    """The per-layer metrics of one traced repetition (values only)."""
    built = st.calls("builders.build", outer=True)
    imported = st.calls("serialize.import")
    orient = st.calls("complexes.orient")
    return {
        "complexes.orient_calls": orient,
        "complexes.orient_s": st.seconds("complexes.orient"),
        "complexes.orient_per_complex": orient / (built + imported) if built + imported else 0.0,
        "complexes.restrict_calls": st.calls("complexes.restrict"),
        "complexes.restrict_s": st.seconds("complexes.restrict"),
        "resolution.verify_s": st.seconds("resolution.verify"),
        "resolution.verify_self_s": st.self_seconds("resolution.verify"),
        "resolution.degrees_checked": st.size("resolution.verify"),
        "resolution.homology_calls": st.calls("resolution.homology"),
        "resolution.homology_s": st.seconds("resolution.homology"),
        "resolution.chain_s": st.seconds("resolution.chain"),
        "resolution.bsq_s": st.seconds("resolution.bsq"),
        "exact.rank_calls": st.calls("exact.rank_q") + st.calls("exact.rank_p"),
        "exact.rank_entries": st.size("exact.rank_q") + st.size("exact.rank_p"),
        "exact.rank_max_entries": max(st.max_size("exact.rank_q"), st.max_size("exact.rank_p")),
        "exact.rank_q_s": st.seconds("exact.rank_q"),
        "exact.rank_p_s": st.seconds("exact.rank_p"),
        "koszul.degrees": st.counts.get("koszul.degree", 0),
        "koszul.s": st.seconds("koszul.betti"),
        "koszul.self_s": st.self_seconds("koszul.betti"),
        "borel.expand_calls": st.calls("borel.expand", outer=True),
        "borel.expand_s": st.seconds("borel.expand"),
        "monomials.minimal_calls": st.calls("monomials.minimal"),
        "monomials.minimal_inputs": st.size("monomials.minimal"),
        "monomials.minimal_s": st.seconds("monomials.minimal"),
        "lattice.build_calls": st.calls("lattice.build"),
        "lattice.elements": st.size("lattice.build"),
        "lattice.build_s": st.seconds("lattice.build"),
        "lattice.ranked_s": st.seconds("lattice.ranked"),
        "builders.build_calls": built,
        "builders.cells_out": st.size("builders.build", outer=True),
        "builders.build_s": st.seconds("builders.build"),
        "serialize.export_s": st.seconds("serialize.export"),
        "serialize.import_s": st.seconds("serialize.import"),
        "serialize.bytes": st.size("serialize.export") + st.size("serialize.import"),
        "cli.calls": st.calls("cli.main"),
        "cli.self_s": st.self_seconds("cli.main"),
    }
