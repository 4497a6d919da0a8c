"""In-memory span tracing around the public functions of coxfield's layers.

``Tracer.install`` wraps every public function defined in
``coxfield.dist``, ``coxfield.order``, ``coxfield.mfode`` and
``coxfield.sim`` at every loaded ``coxfield`` module attribute that binds
it.  Rebinding the attribute (not just the package export) matters because
the layers call each other through module globals: ``fixed_point`` and
``_rk4`` resolve ``coxfield.mfode.drift``, and ``mfode`` calls
``state_space_report`` under the name it imported from ``order``.

Each wrapped call records a span ``[name, start, end, parent, label]``
where ``name`` is ``<layer>.<function>``, ``parent`` is the index of the
enclosing span (-1 at top level) and ``label`` is the benchmark label that
was open when the call started (see ``Tracer.label``).  Spans stay in
memory until ``write`` is called.  Calls made inside ``replicate``'s worker
processes are not recorded: the workers run private functions only and
their memory is discarded.
"""

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("dist", "order", "mfode", "sim")

NAME, START, END, PARENT, LABEL = range(5)


class Tracer:
    """Records spans of wrapped library calls and benchmark labels."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._labels = [""]
        self._off = [False]
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        labels = self._labels
        off = self._off
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if off[0]:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, labels[-1]]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()

        return traced

    @contextmanager
    def label(self, text):
        """Tag every span started inside the block with ``text``.

        The label is also recorded as a span named ``bench.<text>`` so that
        benchmark-side time shows up in the span file.
        """
        rec = ["bench." + text, 0.0, 0.0, self._stack[-1] if self._stack else -1, text]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self._labels.append(text)
        rec[START] = time.perf_counter()
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._labels.pop()
            self._stack.pop()

    @contextmanager
    def paused(self):
        """Record nothing inside the block (used around correctness checks)."""
        self._off[0] = True
        try:
            yield
        finally:
            self._off[0] = False

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the layers' public functions wherever a module binds them."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"coxfield.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "coxfield" or modname.startswith("coxfield.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, obj))

    def uninstall(self):
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the time of direct children."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]

    def layer_self_s(self):
        """Total self time per layer, benchmark labels excluded."""
        out = dict.fromkeys(LAYERS, 0.0)
        for rec, own in zip(self.spans, self.self_times()):
            layer = rec[NAME].split(".", 1)[0]
            if layer in out:
                out[layer] += own
        return out

    def durations(self, name, label):
        """Durations of the spans called ``name`` recorded under ``label``."""
        return [
            rec[END] - rec[START]
            for rec in self.spans
            if rec[NAME] == name and rec[LABEL] == label
        ]

    def counts(self, lo=0, hi=None):
        """Calls per span name among the spans with index in [lo, hi)."""
        out = defaultdict(int)
        for rec in self.spans[lo:hi]:
            out[rec[NAME]] += 1
        return out

    def top_level(self, name, label):
        """Indices of ``name`` spans under ``label`` not nested in another."""
        spans = self.spans
        return [
            k
            for k, rec in enumerate(spans)
            if rec[NAME] == name
            and rec[LABEL] == label
            and (rec[PARENT] < 0 or spans[rec[PARENT]][NAME] != name)
        ]

    def subtree(self, index):
        """Index range [index, stop) of a span and everything nested in it.

        Spans are appended in start order, so a subtree is contiguous.
        """
        spans = self.spans
        end = spans[index][END]
        stop = index + 1
        while stop < len(spans) and spans[stop][START] < end:
            stop += 1
        return index, stop

    def write(self, path):
        """Write the spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec))
                fh.write("\n")
