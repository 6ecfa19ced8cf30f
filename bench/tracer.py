"""Spans and counts recorded from outside the library.

The tracer wraps calls into solvquot's modules from the benchmark's side:
the benchmark's own calls go through ``Tracer.span``, and calls that one
module makes into another are caught by replacing the callee's name in the
caller's module namespace (``Tracer.patch``).  Every call gives one span
(name, start, end, parent).  Spans are kept in flat arrays in memory and
written out when the run ends.

Self time is computed as spans close: a span's self time is its duration
minus the time its child spans were busy.  A generator (the solution
enumeration) is consumed interleaved with its caller's loop, so its span
carries a busy time, the sum of the time spent inside ``next``, and that
busy time is what its parent loses.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names = []
        self._name_id = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self._stack = []  # open spans: [span id, start, child busy time]
        self.counts = defaultdict(int)
        self.total = defaultdict(float)  # inclusive busy time per span name
        self.self_time = defaultdict(float)  # self time per span name
        self.top_layer = None  # the target's top layer during a query
        self.last_layer = None  # layer of the latest lifting system built
        self.kmax = None  # largest k of the running ak_sequence query
        self.query = None  # span name of the running query
        self._patched = []

    # -- spans --------------------------------------------------------------

    def _open(self, name):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.busy.append(0.0)
        return sid

    def _close(self, sid, name, start, end, busy, child):
        self.start[sid] = start
        self.end[sid] = end
        self.busy[sid] = busy
        self.total[name] += busy
        self.self_time[name] += busy - child
        self.counts[name + ".calls"] += 1

    def call(self, name, fn, *args, **kwargs):
        sid = self._open(name)
        frame = [sid, 0.0, 0.0]
        self._stack.append(frame)
        frame[1] = t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dur = t1 - t0
            if self._stack:
                self._stack[-1][2] += dur
            self._close(sid, name, t0, t1, dur, frame[2])

    def iterate(self, name, it, on_done=None):
        """Wrap an iterator so that the time spent producing its items is
        one span, parented to the span open when it was created."""
        sid = self._open(name)
        parent = self._stack[-1] if self._stack else None
        return _TimedIterator(self, sid, name, parent, iter(it), on_done)

    # -- patching -----------------------------------------------------------

    def patch(self, module, attr, name, before=None, after=None):
        """Route ``module.attr`` through a span.  ``before(args, kwargs)``
        runs ahead of the call and ``after(result, args, kwargs, seconds)``
        behind it.  Returns False (and patches nothing) when the module has
        no such attribute, so a renamed function reads as zero calls."""
        fn = getattr(module, attr, None)
        if fn is None:
            return False
        tracer = self

        def wrapped(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            t0 = time.perf_counter()
            out = tracer.call(name, fn, *args, **kwargs)
            if after is not None:
                after(out, args, kwargs, time.perf_counter() - t0)
            return out

        setattr(module, attr, wrapped)
        self._patched.append((module, attr, fn))
        return True

    def patch_iterator(self, module, attr, name, on_done_factory=None):
        """Route the iterator that ``module.attr`` returns through
        ``iterate``; ``on_done_factory()`` is called when the iterator is
        created and gives the callback run with its item count at the end."""
        fn = getattr(module, attr, None)
        if fn is None:
            return False
        tracer = self

        def wrapped(*args, **kwargs):
            on_done = on_done_factory() if on_done_factory is not None else None
            return tracer.iterate(name, fn(*args, **kwargs), on_done)

        setattr(module, attr, wrapped)
        self._patched.append((module, attr, fn))
        return True

    def unpatch(self):
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    # -- results ------------------------------------------------------------

    def module_self(self):
        out = defaultdict(float)
        for name, t in self.self_time.items():
            out[name.split(".", 1)[0]] += t
        return out

    def write(self, path, meta):
        """Write the spans as gzip'd JSON lines: one header line, then one
        [name, parent, start, end, busy] line per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(meta, names=self.names, spans=len(self.name))) + "\n")
            for i in range(len(self.name)):
                fh.write("[%d,%d,%.9f,%.9f,%.9f]\n" % (
                    self.name[i], self.parent[i], self.start[i], self.end[i], self.busy[i]))


class _TimedIterator:
    __slots__ = ("tracer", "sid", "name", "parent", "it", "on_done", "busy", "items", "first", "done")

    def __init__(self, tracer, sid, name, parent, it, on_done):
        self.tracer = tracer
        self.sid = sid
        self.name = name
        self.parent = parent
        self.it = it
        self.on_done = on_done
        self.busy = 0.0
        self.items = 0
        self.first = None
        self.done = False

    def __iter__(self):
        return self

    def __next__(self):
        t0 = time.perf_counter()
        if self.first is None:
            self.first = t0
        try:
            item = next(self.it)
        except StopIteration:
            self._finish(time.perf_counter(), t0)
            raise
        self.busy += time.perf_counter() - t0
        self.items += 1
        return item

    def _finish(self, t1, t0):
        if self.done:
            return
        self.done = True
        self.busy += t1 - t0
        if self.parent is not None:
            self.parent[2] += self.busy
        tr = self.tracer
        tr._close(self.sid, self.name, self.first, t1, self.busy, 0.0)
        tr.counts[self.name + ".items"] += self.items
        if self.on_done is not None:
            self.on_done(self.items)
