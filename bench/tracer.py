"""Per-layer tracing from outside the program.

`Tracer.install` replaces the public functions of each `dicuts` module, on
every module that binds them by name (`class_partition`, for one, is
imported into d11, colorcut, peel and decompose), and patches `Digraph`,
`CutCertificate` and `RemovalState` methods on their classes.  `uninstall`
puts the originals back.  Nothing under `src/` is edited.

A span wrapper records (name, start, end, parent, op id) in memory and adds
its duration minus its children's to the name's self time.  The hot paths
carry no span: `Digraph.__init__` and the lazy adjacency properties only
count and time themselves (so their callers' self time excludes them), and
`RemovalState.swap_feasible`, called millions of times per peel, is only
counted; its time stays in `peel.find_improvement`.

The methods with a public trace argument (`dicut_d11`, `dicut_d11_connected`,
`dicut_d22`, `peel_to_lower_class`) are called by the CLI without one; their
wrappers hand in a list and count its entries by tag.  The peak memory of an
enumeration is measured by `peak_traced_mb` in a call of its own, outside
the timed rounds, since `tracemalloc` slows the call it watches.
"""

from __future__ import annotations

import functools
import gzip
import tracemalloc
from collections import Counter, defaultdict
from functools import cached_property
from time import perf_counter

import dicuts
from dicuts import (cli, colorcut, d11, decompose, digraph, enumeration,
                    generators, oracle, peel)

MODULES = (dicuts, cli, colorcut, d11, decompose, digraph, enumeration,
           generators, oracle, peel)

# (owner, public name, span name); several names may share a span name.
FUNCTION_SPANS = (
    (digraph, "parse_dg", "digraph.parse"),
    (digraph, "class_partition", "digraph.class_partition"),
    (digraph, "is_p3_free", "digraph.cert"),
    (digraph, "cut_from_partition", "digraph.cert"),
    (digraph, "extend_p3free_to_cut", "digraph.cert"),
    (d11, "dicut_d11", "d11.cut"),
    (d11, "dicut_d11_connected", "d11.connected"),
    (d11, "find_triangle_reduction", "d11.triangle_reduction"),
    (d11, "find_reducing_pair", "d11.reducing_pair"),
    (d11, "is_triangle_forest", "d11.triangle_forest"),
    (colorcut, "dicut_d22", "colorcut.d22"),
    (colorcut, "dicut_acyclic", "colorcut.acyclic"),
    (colorcut, "degeneracy_order", "colorcut.degeneracy"),
    (colorcut, "greedy_color", "colorcut.greedy_color"),
    (colorcut, "best_balanced_class_bipartition", "colorcut.balanced_split"),
    (peel, "peel_to_lower_class", "peel.peel"),
    (peel, "initial_removal", "peel.initial_removal"),
    (peel, "find_improvement", "peel.find_improvement"),
    (decompose, "split_dkk", "decompose.split"),
    (decompose, "bipartite_edge_coloring", "decompose.edge_coloring"),
    (oracle, "max_dicut_exact", "oracle.max_dicut"),
    (oracle, "max_triangle_packing", "oracle.triangle_packing"),
    (generators, "gen_example1", "generators.example1"),
    (generators, "gen_example2", "generators.example2"),
)
METHOD_SPANS = (
    (digraph.Digraph, "without_edges", "digraph.without_edges"),
    (digraph.Digraph, "weak_components", "digraph.weak_components"),
    (digraph.Digraph, "triangles", "digraph.triangles"),
    (digraph.Digraph, "has_digon", "digraph.has_digon"),
    (digraph.Digraph, "reverse", "digraph.reverse"),
    (digraph.Digraph, "induced", "digraph.induced"),
    (digraph.Digraph, "is_acyclic", "digraph.is_acyclic"),
    (digraph.CutCertificate, "verify", "digraph.cert"),
)
# (owner, public name, position of its trace argument, step counter key)
STEP_ARGS = (
    (d11, "dicut_d11", 1, lambda step: f"d11.steps.{step[0]}"),
    (d11, "dicut_d11_connected", 1, lambda step: f"d11.steps.{step[0]}"),
    (colorcut, "dicut_d22", 1, lambda step: "colorcut.d22.cycle_steps"),
    (peel, "peel_to_lower_class", 2, lambda step: f"peel.moves.{step[0]}"),
)
# Generator functions: the wrapper drains them into a list inside the span.
ENUMERATION_SPANS = (
    (enumeration, "digonfree_d11", "enumeration.d11"),
    (enumeration, "d22_with_digons", "enumeration.d22"),
)
ADJACENCY = ("succ", "pred", "edge_set")


def peak_traced_mb(fn, *args) -> float:
    """Peak memory traced by `tracemalloc` while draining `fn(*args)`."""
    tracemalloc.start()
    try:
        list(fn(*args))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list = []
        self.op_id = -1
        # frames: [start, time covered by children, span index]
        self._stack: list = [[0.0, 0.0, -1]]
        self._undo: list = []

    # -- wrappers ----------------------------------------------------------

    def _close(self, name: str, frame: list, end: float) -> None:
        dur = end - frame[0]
        self._stack[-1][1] += dur
        self.self_s[name] += dur - frame[1]
        self.total_s[name] += dur
        self.calls[name] += 1

    def _span(self, name: str, fn, drain: bool = False):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][2]
            frame = [0.0, 0.0, idx]
            stack.append(frame)
            frame[0] = perf_counter()
            try:
                if not drain:
                    return fn(*args, **kwargs)
                out = list(fn(*args, **kwargs))
                self.counts[name + ".graphs"] += len(out)
                return out
            finally:
                end = perf_counter()
                stack.pop()
                self._close(name, frame, end)
                spans[idx] = (name, frame[0], end, parent, self.op_id)

        return wrapper

    def _timed(self, name: str, fn, count_edges: bool = False):
        """Count and time without a span record."""
        stack, self_s, calls, counts = self._stack, self.self_s, self.calls, self.counts

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            start = perf_counter()
            out = fn(obj, *args, **kwargs)
            dur = perf_counter() - start
            stack[-1][1] += dur
            self_s[name] += dur
            calls[name] += 1
            if count_edges:
                counts[name + ".edges"] += len(obj.edges)
            return out

        return wrapper

    def _stepped(self, fn, pos: int, key):
        """Hand a trace list to `fn` when the caller gave none, and count
        its entries."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kwargs or len(args) > pos:
                return fn(*args, **kwargs)
            steps: list = []
            out = fn(*args, steps)
            counts.update(key(step) for step in steps)
            return out

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _rebind(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        for mod in MODULES:
            if mod.__dict__.get(attr) is original:
                setattr(mod, attr, wrapper)
                self._undo.append((mod, attr, original))

    def _patch(self, cls, attr: str, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        for owner, attr, pos, key in STEP_ARGS:
            self._rebind(owner, attr, self._stepped(getattr(owner, attr), pos, key))
        for owner, attr, name in FUNCTION_SPANS:
            self._rebind(owner, attr, self._span(name, getattr(owner, attr)))
        for owner, attr, name in ENUMERATION_SPANS:
            self._rebind(owner, attr, self._span(name, getattr(owner, attr), drain=True))
        for cls, attr, name in METHOD_SPANS:
            self._patch(cls, attr, self._span(name, cls.__dict__[attr]))
        D = digraph.Digraph
        self._patch(D, "__init__", self._timed("digraph.build", D.__init__, True))
        for attr in ADJACENCY:
            prop = cached_property(self._timed("digraph.adjacency", D.__dict__[attr].func))
            prop.__set_name__(D, attr)
            self._patch(D, attr, prop)
        rs = peel.RemovalState
        self._patch(rs, "swap_feasible", self._counted("peel.swap_feasible", rs.swap_feasible))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write_spans(self, path) -> None:
        """One `name start end parent op` line per span, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
