"""Outside-in layer tracing for the benchmark's traced run.

Spans are recorded around calls into the public functions of each layer
module (``cli``, ``core``, ``completion``, ``verify``, ``witnesses``,
``af_core``), from the benchmark's own code: the wrappers live here and are
installed on every module attribute that binds the function, then removed.
Nothing inside the package is edited.  The leaf value helpers of ``core``
(``vec``, ``add``, ``box_cells``, the ``Word`` methods ...) are not wrapped:
they run millions of times per pass, so a wrapper would cost more than the
work it measures, and their time lands in the caller's self time instead.

For a generator (``iter_grid_completions``, ``words_of_shape``) each
``next()`` is its own span, so its time is counted only while it computes,
not while the consumer holds it.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
from array import array
from time import perf_counter

# layer -> public functions wrapped in the traced run
TRACED = {
    "cli": ["main", "load_system"],
    "core": ["translates_agree", "is_periodic", "restrict", "validate_word"],
    "completion": ["iter_grid_completions", "words_of_shape", "extend_unit",
                   "word_from_path", "product", "list_extensions"],
    "verify": ["verify_report", "check_h0", "check_h1_local",
               "check_h1_oracle", "check_h2", "check_h3_star",
               "check_h3_bounded", "h3_bounded_witnesses",
               "nonperiodic_witness"],
    "witnesses": ["connect", "grow_to_shape", "distinct_pair",
                  "nonperiodic_all", "separate_translates",
                  "separating_family", "projection_support"],
    "af_core": ["dim_vector", "bratteli"],
}
GENERATORS = {"iter_grid_completions", "words_of_shape"}
LAYERS = list(TRACED)

# per-layer metric short names for traced functions
ALIASES = {"iter_grid_completions": "grid"}


def _box_size(lo, hi):
    n = 1
    for a, b in zip(lo, hi):
        if b < a:
            return 0
        n *= b - a + 1
    return n


class Tracer:
    """Records spans (name, start, end, parent) and work counts for one pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.command = array("i")
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._command = -1

    def set_command(self, index: int):
        self._command = index

    def count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _id(self, qualname: str) -> int:
        i = self._name_id.get(qualname)
        if i is None:
            i = self._name_id[qualname] = len(self.names)
            self.names.append(qualname)
        return i

    def _open(self, name_id: int) -> int:
        span = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.command.append(self._command)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(span)
        self.start[span] = perf_counter()
        return span

    def _close(self, span: int):
        self.end[span] = perf_counter()
        self._stack.pop()

    # -- wrappers ----------------------------------------------------------

    def wrap(self, layer: str, fn):
        name_id = self._id(f"{layer}.{fn.__name__}")
        key = f"{layer}.{ALIASES.get(fn.__name__, fn.__name__)}"
        counter = _COUNTERS.get(fn.__name__)

        if fn.__name__ in GENERATORS:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.count(key + ".calls")
                it = fn(*args, **kwargs)
                try:
                    while True:
                        span = self._open(name_id)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            self._close(span)
                        self.count(key + ".words")
                        yield item
                finally:
                    it.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(key + ".calls")
            span = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                counter(self, key, args, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self, package):
        """Wrap every traced function on every package module binding it."""
        prefix = package.__name__ + "."
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (m is package or name.startswith(prefix))]
        patches = []
        try:
            for layer, fnames in TRACED.items():
                home = sys.modules[prefix + layer]
                for fname in fnames:
                    original = getattr(home, fname)
                    wrapped = self.wrap(layer, original)
                    for mod in modules:
                        if mod.__dict__.get(fname) is original:
                            patches.append((mod, fname, original))
                            setattr(mod, fname, wrapped)
            yield self
        finally:
            for mod, fname, original in reversed(patches):
                setattr(mod, fname, original)

    # -- summaries ---------------------------------------------------------

    def layer_times(self) -> dict[str, float]:
        """Per-function outermost time and per-layer self time, in seconds."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, float] = {f"{layer}.self.s": 0.0 for layer in LAYERS}
        for i in range(n):
            qual = self.names[self.name[i]]
            layer, fname = qual.split(".", 1)
            out[f"{layer}.self.s"] += dur[i] - child[i]
            # count a function's time once even when it calls itself
            p = self.parent[i]
            nested = False
            while p >= 0:
                if self.name[p] == self.name[i]:
                    nested = True
                    break
                p = self.parent[p]
            if not nested:
                key = f"{layer}.{ALIASES.get(fname, fname)}.s"
                out[key] = out.get(key, 0.0) + dur[i]
        return out

    def write(self, fh, pass_index: int, workload: str, commands: list[str]):
        """Append this pass's spans as CSV rows."""
        rows = []
        for i in range(len(self.name)):
            c = self.command[i]
            rows.append("%d,%d,%s,%.9f,%.9f,%d,%s,%s\n" % (
                pass_index, i, self.names[self.name[i]], self.start[i],
                self.end[i], self.parent[i], workload,
                commands[c] if c >= 0 else ""))
        fh.write("".join(rows))


def open_span_file(path: str):
    fh = gzip.open(path, "wt", compresslevel=1)
    fh.write("pass,span,name,start,end,parent,workload,command\n")
    return fh


# -- work counters computed from arguments and results ----------------------

def _extend_unit_cells(tracer, key, args, result):
    tracer.count(key + ".cells", len(result.letters) - len(args[1].letters))


def _translates_agree_cells(tracer, key, args, result):
    w1, w2, p = args[:3]
    lo = [max(c, 0) for c in p]
    hi = [min(a, c + b) for a, b, c in zip(w1.shape, w2.shape, p)]
    tracer.count(key + ".overlap_cells", _box_size(lo, hi))


def _h3_star_sets(tracer, key, args, result):
    check, family = result
    tracer.count(key + ".sets", sum(len(s) for s in family.sets_by_origin.values()))
    if check.status.value == "cap-hit":
        tracer.count(key + ".cap_hit")


def _bratteli_levels(tracer, key, args, result):
    tracer.count(key + ".levels", len(result.nodes))


_COUNTERS = {
    "extend_unit": _extend_unit_cells,
    "translates_agree": _translates_agree_cells,
    "check_h3_star": _h3_star_sets,
    "bratteli": _bratteli_levels,
}
