"""Outside-in tracing of the sublorentz layers.

The library carries no spans of its own, so the tracer wraps from outside:
every public module function of the traced layers, in every ``sublorentz``
namespace that bound it (``solver`` and ``cli`` use ``from ... import``, so
patching only the defining module would miss their calls), and every public
method defined on a class of the Cone / Antinorm / GroupModel / TimeForm
hierarchies.  Spans are kept in flat in-memory arrays and written out once,
after the traced pass.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array
from typing import Dict, List, Tuple

import numpy as np

LAYERS = ("cli", "config", "solver", "groups", "cones", "timeform", "dynamics")
SOLVE_SPANS = ("solver.solve_longest", "solver.solve_longest_reparametrized")
# argument validation called from every layer; its cost stays in its callers
UNTRACED = ("as_vector",)


def _layer(module_name: str) -> str:
    package, _, layer = module_name.rpartition(".")
    return layer if package == "sublorentz" and layer in LAYERS else ""


class Tracer:
    """Records spans (name, start, end, parent, operation id) in flat arrays."""

    def __init__(self) -> None:
        self.table: List[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self._stack: List[int] = []
        self.patched: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.table:
            self.table.append(name)
        return self.table.index(name)

    def _open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int, name: str) -> None:
        self.current_op = op_id
        self._open(self._name_id(f"op.{name}"))

    def end_op(self) -> None:
        self._close(self._stack[-1])
        self.current_op = -1

    def _wrap(self, name: str, fn):
        open_, close, name_id = self._open, self._close, self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)
        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Patch every traced entry point; ``uninstall`` restores them."""
        from sublorentz.cones import Antinorm, Cone
        from sublorentz.groups import GroupModel
        from sublorentz.timeform import TimeForm
        roots = (Cone, Antinorm, GroupModel, TimeForm)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "sublorentz" or n.startswith("sublorentz.")]
        wrappers: Dict[object, object] = {}
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if not isinstance(val, types.FunctionType) \
                        or val.__name__.startswith("_") or val.__name__ in UNTRACED:
                    continue
                layer = _layer(val.__module__)
                if not layer:
                    continue
                if val not in wrappers:
                    wrappers[val] = self._wrap(f"{layer}.{val.__name__}", val)
                self._patch(mod, attr, wrappers[val])
            for cls in list(vars(mod).values()):
                if not (isinstance(cls, type) and issubclass(cls, roots)
                        and cls.__module__ == mod.__name__):
                    continue
                layer = _layer(cls.__module__)
                for attr, val in list(vars(cls).items()):
                    if isinstance(val, types.FunctionType) and not attr.startswith("_"):
                        self._patch(cls, attr, self._wrap(f"{layer}.{attr}", val))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self.patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    # -- results -------------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {"names": np.array(self.table), "name": np.frombuffer(self.name, np.int32),
                "start": np.frombuffer(self.start), "end": np.frombuffer(self.end),
                "parent": np.frombuffer(self.parent, np.int32),
                "op": np.frombuffer(self.op, np.int32)}

    def save(self, path: str) -> None:
        np.savez(path, **self.arrays())

    def summarize(self) -> dict:
        """Per span name: calls, self time (duration minus direct children)
        and calls made inside a solve span; per layer: summed self time."""
        a = self.arrays()
        k = len(self.table)
        dur = a["end"] - a["start"]
        parent = a["parent"]
        has = parent >= 0
        own = dur - np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        solve_ids = [i for i, n in enumerate(self.table) if n in SOLVE_SPANS]
        in_solve = np.isin(a["name"], solve_ids)
        while True:  # parents precede children; spread the flag down the tree
            spread = in_solve.copy()
            spread[has] |= in_solve[parent[has]]
            if np.array_equal(spread, in_solve):
                break
            in_solve = spread
        calls = np.bincount(a["name"], minlength=k)
        self_s = np.bincount(a["name"], weights=own, minlength=k)
        solve_calls = np.bincount(a["name"], weights=in_solve, minlength=k)
        functions = {n: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                         "solve_calls": int(solve_calls[i])}
                     for i, n in enumerate(self.table)}
        layers: Dict[str, float] = {}
        for n, f in functions.items():
            layer = n.partition(".")[0]
            layers[layer] = layers.get(layer, 0.0) + f["self_s"]
        return {"spans": len(dur), "functions": functions, "layers": layers}
