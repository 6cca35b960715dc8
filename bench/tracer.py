"""Outside-in span tracer for gridcert.

The tracer changes nothing in the package's source. It replaces, at run
time, every public function of each gridcert module, at every module where
callers look that function up by name, and every public method of the
package's public classes (the device models, `PowerSystem`, ...), with a
wrapper that records a span. `uninstall` puts the originals back.

A span is ``(id, name, site, start, end, parent, thread)``: the function
name (``network_hessian``) or ``Class.method`` (``VsgInverter.energy``),
the module through which the caller looked it up (``simulation`` for
``network_hessian`` called from the voltage Newton), `perf_counter`
timestamps, the id of the enclosing span on the same thread (or None) and
the thread id. Spans stay in memory until `take` hands them over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict

PACKAGE = "gridcert"
MODULES = ("config", "network", "system", "devices", "certificate",
           "linearization", "simulation", "cli")


class Tracer:
    """Records spans of gridcert calls; `install` patches, `uninstall` restores."""

    def __init__(self, result_hooks=None):
        self.result_hooks = dict(result_hooks or {})
        self.spans = []
        self.counters = defaultdict(float)
        self.installed = set()
        self.sites = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    # -- patching ---------------------------------------------------------
    def install(self):
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"{PACKAGE}.{short}")
            except ImportError:
                continue
        sites = dict(modules)
        sites[PACKAGE] = importlib.import_module(PACKAGE)

        patches = []
        for mod in modules.values():
            for attr in getattr(mod, "__all__", ()):
                obj = mod.__dict__.get(attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    for site_name, site in sites.items():
                        for site_attr, value in list(vars(site).items()):
                            if value is obj:
                                patches.append((site, site_attr, obj, attr, site_name))
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not issubclass(obj, BaseException)):
                    for name in dir(obj):
                        if name.startswith("_"):
                            continue
                        raw = inspect.getattr_static(obj, name)
                        if inspect.isfunction(raw):
                            patches.append((obj, name, raw, f"{obj.__name__}.{name}",
                                            mod.__name__.rsplit(".", 1)[-1]))
        # every original is read before any wrapper is set, so a subclass
        # never inherits its base's wrapper and spans are not nested twice
        for owner, attr, fn, span_name, site_name in patches:
            had_own = attr in vars(owner)
            setattr(owner, attr, self._wrap(fn, span_name, site_name))
            self._patches.append((owner, attr, fn, had_own))
            self.installed.add(span_name)
            self.sites.add((span_name, site_name))
        return self

    def uninstall(self):
        for owner, attr, fn, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, name, site):
        local = self._local
        ids = self._ids
        hook = self.result_hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans.append((sid, name, site, start, end, parent, threading.get_ident()))
            if hook is not None:
                with self._lock:
                    for key, value in hook(result).items():
                        self.counters[key] += value
            return result

        return wrapper

    # -- results ----------------------------------------------------------
    def take(self):
        """Spans and counters recorded since the last call; resets both."""
        spans, counters = self.spans, dict(self.counters)
        self.spans = []
        self.counters = defaultdict(float)
        return spans, counters


def aggregate(spans):
    """Per span name: calls, inclusive seconds, self seconds, per-call durations.

    Self time is the span's duration minus the durations of its direct
    children. A child always ran on its parent's thread (the parent link is
    thread-local), so work a thread pool runs elsewhere is not subtracted.
    Also returns call counts per (name, site).
    """
    child_time = defaultdict(float)
    for sid, name, site, start, end, parent, tid in spans:
        if parent is not None:
            child_time[parent] += end - start
    stats = {}
    site_calls = defaultdict(int)
    for sid, name, site, start, end, parent, tid in spans:
        d = end - start
        st = stats.get(name)
        if st is None:
            st = stats[name] = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}
        st["calls"] += 1
        st["s"] += d
        st["self_s"] += d - child_time.get(sid, 0.0)
        st["durations"].append(d)
        site_calls[(name, site)] += 1
    return stats, dict(site_calls)


def write_spans(spans, path):
    """Write spans as tab-separated text, one per line, times relative to the first start."""
    t0 = min((s[3] for s in spans), default=0.0)
    with open(path, "w") as fh:
        fh.write("id\tname\tsite\tstart_s\tend_s\tparent\tthread\n")
        for sid, name, site, start, end, parent, tid in spans:
            fh.write(f"{sid}\t{name}\t{site}\t{start - t0:.9f}\t{end - t0:.9f}\t"
                     f"{'' if parent is None else parent}\t{tid}\n")
