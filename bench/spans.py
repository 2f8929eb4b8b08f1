"""Spans around calls into the library's layers, recorded by wrappers.

`Tracer.install()` replaces each public function named in LAYER_CALLS,
wherever a `treedesk` module holds a reference to it, by a wrapper that
records one span per call: name, start, end, parent span and the item
the call worked for.  A function's recursive calls to itself run
unwrapped, inside the outer span.  Spans live in memory and are
summarised per name when a round ends; `uninstall()` puts the original
functions back.

Self time is a span's duration minus the durations of its child spans
(one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

LAYER_CALLS = (
    ("structure", "closure"),
    ("structure", "complete"),
    ("structure", "validate"),
    ("structure", "eval_term"),
    ("types", "tp_code"),
    ("types", "equiv_k"),
    ("types", "count_type_classes"),
    ("types", "atomic_basis"),
    ("qe", "extend_one_point"),
    ("qe", "eval_formula"),
    ("partition", "coloring_from_sequence"),
    ("partition", "find_homogeneous"),
    ("indis", "is_indiscernible"),
    ("indis", "classify"),
    ("indis", "search_indiscernible"),
    ("glue", "build_witness"),
    ("fileio", "fragment_from_dict"),
    ("fileio", "fragment_to_dict"),
)
NAMES = tuple("%s.%s" % call for call in LAYER_CALLS)

# Derived per-layer metrics beyond calls and self time.
EXTRA_METRICS = (
    ("structure.closure.calls_per_fragment", "ratio"),
    ("types.tp_code.repeat_ratio", "ratio"),
    ("structure.complete.nodes_minted", "count"),
    ("qe.extend_one_point.ok_per_attempt", "ratio"),
)


def metric_specs():
    """(name, unit) of every per-layer metric, in report order."""
    specs = []
    for name in NAMES:
        specs.append((name + ".calls", "count"))
        specs.append((name + ".self_s", "s"))
    return specs + list(EXTRA_METRICS)


def _tp_key(f, abar, a_set=(), k=0):
    return f, (tuple(abar), tuple(sorted(a_set)), k)


class Tracer:
    def __init__(self):
        self._originals: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.reset()

    # -- recording ---------------------------------------------------

    def reset(self):
        """Drop the spans and counts of the previous round."""
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.current_item = -1
        self._closure_fragments: dict[int, object] = {}
        self._tp_seen: dict[int, tuple[object, set]] = {}
        self.tp_repeats = 0
        self.nodes_minted = 0
        self.completes_under_extend = 0
        self.extends_ok = 0
        self._open_extends = 0

    def _wrap(self, nid: int, fn):
        name = NAMES[nid]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and self.name_id[stack[-1]] == nid:
                return fn(*args, **kwargs)
            self._before(name, args, kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.item.append(self.current_item)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
                if name == "qe.extend_one_point":
                    self._open_extends -= 1
            self._after(name, args, out)
            return out

        return traced

    def _before(self, name, args, kwargs):
        if name == "structure.closure":
            f = args[0]
            self._closure_fragments[id(f)] = f
        elif name == "types.tp_code":
            f, key = _tp_key(*args, **kwargs)
            entry = self._tp_seen.setdefault(id(f), (f, set()))
            if key in entry[1]:
                self.tp_repeats += 1
            else:
                entry[1].add(key)
        elif name == "structure.complete":
            if self._open_extends:
                self.completes_under_extend += 1
        elif name == "qe.extend_one_point":
            self._open_extends += 1

    def _after(self, name, args, out):
        if name == "structure.complete":
            self.nodes_minted += len(out.nodes) - len(args[0].nodes)
        elif name == "qe.extend_one_point":
            self.extends_ok += 1

    # -- patching ----------------------------------------------------

    def install(self):
        """Wrap every LAYER_CALLS function in all loaded treedesk modules."""
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "treedesk" or n.startswith("treedesk.")]
        for nid, (mod_name, fn_name) in enumerate(LAYER_CALLS):
            orig = getattr(sys.modules["treedesk." + mod_name], fn_name)
            wrapped = self._wrap(nid, orig)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._originals.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def uninstall(self):
        for mod, attr, orig in reversed(self._originals):
            setattr(mod, attr, orig)
        self._originals.clear()

    # -- summary -----------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        for i in range(n):
            nid = self.name_id[i]
            calls[nid] += 1
            self_s[nid] += self.end[i] - self.start[i] - child[i]
        out = {}
        for nid, name in enumerate(NAMES):
            out[name + ".calls"] = calls[nid]
            out[name + ".self_s"] = self_s[nid]
        by_name = dict(zip(NAMES, calls))
        n_frag = len(self._closure_fragments)
        out["structure.closure.calls_per_fragment"] = (
            by_name["structure.closure"] / n_frag if n_frag else 0.0)
        n_tp = by_name["types.tp_code"]
        out["types.tp_code.repeat_ratio"] = (
            self.tp_repeats / n_tp if n_tp else 0.0)
        out["structure.complete.nodes_minted"] = self.nodes_minted
        out["qe.extend_one_point.ok_per_attempt"] = (
            self.extends_ok / self.completes_under_extend
            if self.completes_under_extend else 0.0)
        return out
