"""In-memory spans around the public functions of each spinledger layer.

The tracer replaces every public function of the layer modules on every
name it is bound to inside the package, so calls made through a caller's
imported name are timed too.  Private helpers stay unwrapped: their cost
shows up as their caller's self time.  A span is ``[name, start, end,
parent, key]``; parent is the index of the enclosing span (-1 for a root)
and key is the call's first positional argument when it is a number
(the apparatus spin L of a build, the length n of a streak).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("kernel", "angular", "ideal", "apparatus", "decoherence", "experiments")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = args[0] if args and isinstance(args[0], (int, float)) else None
            span = [name, clock(), 0.0, stack[-1] if stack else -1, key]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap ``__all__`` functions of each layer, and ``cli.main``."""
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"spinledger.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        cli = importlib.import_module("spinledger.cli")
        targets[id(cli.main)] = self._wrap("cli.main", cli.main)
        for modname, mod in list(sys.modules.items()):
            if modname == "spinledger" or modname.startswith("spinledger."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in targets:
                        setattr(mod, attr, targets[id(value)])


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent, key in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, start, end, parent, key), kids in zip(spans, children):
        covered = 0.0
        reach = start
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: total seconds, self seconds and call count.

    The total counts only spans with no ancestor of the same name, so a
    function that reaches itself again is not counted twice.
    """
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, parent, key = span
        entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["self_s"] += own
        entry["calls"] += 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            entry["s"] += end - start
    return out
