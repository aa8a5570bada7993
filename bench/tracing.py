"""In-memory call spans around the public functions of `defosc`.

`Tracer.install` replaces every binding of each traced function, both
`defosc.X` and `defosc.<module>.X`, with a wrapper that records one span
(name, start, end, parent, task, size, error).  Library modules look their
callees up in their own globals at call time, so a call from one module into
another nests under its caller.  Nothing in `defosc` is edited.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

# traced function -> index of the positional argument giving its size
# (a level, a dimension, or an object with a `dim`); None when it has none
LAYERS = {
    "dsf.phi_closed": 2,
    "dsf.phi_from_gh": 2,
    "families.gh_pair": None,
    "families.coefficients": None,
    "families.verify_ratio_recursions": 2,
    "spectra.energy": 2,
    "spectra.spectrum": 2,
    "spectra.degeneracy_equation": 2,
    "spectra.find_degeneracy": 1,
    "fock.build_rep": 2,
    "fock.verify_heisenberg": 0,
    "fock.verify_gh_relation": 0,
    "fock.verify_ladder": 0,
    "symmetry.find_metric": 0,
    "symmetry.hermiticity_defect": 0,
    "cli.main": None,
}

# prefix of the stderr line on which cli_shim.py hands its spans back
SHIM_MARKER = "@defosc-bench "

FIELDS = ("name", "start", "end", "parent", "task", "size", "error")
_WIDTH = len(FIELDS)


def _size(value) -> int:
    if isinstance(value, int):
        return value
    dim = getattr(value, "dim", None)
    return dim if isinstance(dim, int) else -1


class Tracer:
    """Span recorder; spans live in one flat array until `spans()` reads them."""

    def __init__(self):
        self.names: list[str] = []
        self.task = -1
        self._ids: dict[str, int] = {}
        self._buf = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str, size: int = -1) -> int:
        """Open a span under the innermost open one; returns its index."""
        buf = self._buf
        index = len(buf) // _WIDTH
        parent = self._stack[-1] if self._stack else -1
        buf.extend((self._name_id(name), 0.0, 0.0, parent, self.task, size, 0.0))
        self._stack.append(index)
        buf[index * _WIDTH + 1] = time.perf_counter()
        return index

    def end(self, index: int, error: bool = False) -> None:
        buf = self._buf
        buf[index * _WIDTH + 2] = time.perf_counter()
        buf[index * _WIDTH + 6] = float(error)
        self._stack.pop()

    def wrap(self, name: str, fn, size_arg: int | None):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = _size(args[size_arg]) if size_arg is not None and len(args) > size_arg else -1
            index = begin(name, size)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end(index, failed)

        return traced

    def install(self, package) -> None:
        """Wrap every binding of each LAYERS function inside `package`."""
        prefix = package.__name__ + "."
        modules = [package] + [mod for key, mod in sorted(sys.modules.items())
                               if key.startswith(prefix) and mod is not None]
        for target, size_arg in LAYERS.items():
            home = sys.modules.get(prefix + target.split(".")[0])
            if home is None:
                continue
            original = getattr(home, target.split(".")[1])
            wrapper = self.wrap(target, original, size_arg)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def spans(self) -> list[tuple]:
        """All spans recorded so far as (name, start, end, parent, task, size, error)."""
        buf, names, out = self._buf, self.names, []
        for i in range(0, len(buf), _WIDTH):
            nid, start, end, parent, task, size, error = buf[i:i + _WIDTH]
            out.append((names[int(nid)], start, end, int(parent), int(task), int(size), int(error)))
        return out

    def adopt(self, spans: list) -> None:
        """Append spans recorded elsewhere (a child process) under the innermost open span."""
        base = len(self._buf) // _WIDTH
        parent = self._stack[-1] if self._stack else -1
        for name, start, end, up, _task, size, error in spans:
            up = parent if up < 0 else base + up
            self._buf.extend((self._name_id(name), start, end, up, self.task, size, error))


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[tuple]) -> list[float]:
    """Per span: its duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered(children.get(i, ()), start, end)
            for i, (_name, start, end, *_) in enumerate(spans)]


def layer_totals(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """calls, self_ms and errors of every LAYERS function over `spans`."""
    totals = {name: {"calls": 0, "self_ms": 0.0, "errors": 0} for name in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.get(span[0])
        if entry is not None:
            entry["calls"] += 1
            entry["self_ms"] += own * 1e3
            entry["errors"] += span[6]
    return totals
