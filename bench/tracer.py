"""Span tracing of filmlab's public functions, installed from outside.

The tracer wraps the functions and methods named in TARGETS for the
traced run only.  Modules import each other's functions by name
(``from .grid import boundary_grid``), so a wrapper replaces every
``filmlab.*`` module attribute bound to the original function object,
not just the defining module's.  Each call records a span (name, start,
end, parent, instance) in flat arrays kept in memory; ``save`` writes
them when the run ends.  A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

TARGETS = {
    "exact": ("RadicalSum.sign", "RadicalSum.enclosure"),
    "geom": ("split_simplex", "simplex_measure_sq", "point_simplex_dist_sq"),
    "grid": ("boundary_grid", "mass_grid"),
    "simplicial": ("boundary_simplicial", "embed_grid_chain"),
    "overlay": ("overlay_leftover", "chains_equal_mod2"),
    "dipolyhedra": ("spanning_check", "ProjectionDir.project2", "region_cells"),
    "flatnorm": ("flat_norm", "energy_flat_norm", "verify_certificate"),
    "deformation": ("deform_chain", "deform_dipolyhedron", "snap_parity"),
    "plateau": ("minimize_weight", "initial_cone_solution", "plateau_problem"),
    "io_formats": ("parse_input", "to_jsonable", "dumps_json"),
}

# results whose useful outcome is counted: spanning checks that span
OUTCOMES = {"dipolyhedra.spanning_check": lambda report: report.spans}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.outer = array("b")  # 0 for a call nested in a call of the same function
        self.start = array("d")
        self.end = array("d")
        self.useful = array("b")
        self.current_instance = -1
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._restore: list = []

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self.name_ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.instance.append(self.current_instance)
        self.outer.append(self._depth[nid] == 0)
        self.useful.append(0)
        self.end.append(0.0)
        self._depth[nid] += 1
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()
        self._depth[self.name[i]] -= 1

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        outcome = OUTCOMES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if outcome is not None and outcome(result):
                tracer.useful[i] = 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; a missing one records no spans."""
        # filmlab.cli binds library functions at import; import it before wrapping
        importlib.import_module("filmlab.cli")
        for module, qualnames in TARGETS.items():
            mod = importlib.import_module(f"filmlab.{module}")
            for qualname in qualnames:
                name = f"{module}.{qualname}"
                if "." in qualname:
                    cls_name, meth = qualname.split(".")
                    cls = getattr(mod, cls_name, None)
                    original = vars(cls).get(meth) if cls is not None else None
                    if original is None:
                        continue
                    setattr(cls, meth, self.wrap(name, original))
                    self._restore.append((cls, meth, original))
                    continue
                original = getattr(mod, qualname, None)
                if original is None:
                    continue
                wrapped = self.wrap(name, original)
                for mod_name, other in list(sys.modules.items()):
                    if other is None or mod_name.split(".")[0] != "filmlab":
                        continue
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, attr, wrapped)
                            self._restore.append((other, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "instance": np.frombuffer(self.instance, dtype=np.int32).copy(),
            "outer": np.frombuffer(self.outer, dtype=np.int8).copy(),
            "useful": np.frombuffer(self.useful, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names, dtype=object), **self.arrays())

    def merge(self, path: str, instance: int, parent_span: int) -> None:
        """Append the spans a traced child process saved, under one of ours."""
        with np.load(path, allow_pickle=True) as data:
            names = [str(n) for n in data["names"]]
            ids = np.array([self.name_id(n) for n in names], dtype=np.int32)
            offset = len(self.start)
            parent = data["parent"]
            self.name.extend(ids[data["name"]].tolist())
            self.parent.extend(np.where(parent < 0, parent_span, parent + offset).tolist())
            self.instance.extend([instance] * len(parent))
            self.outer.extend(data["outer"].tolist())
            self.useful.extend(data["useful"].tolist())
            self.start.extend(data["start"].tolist())
            self.end.extend(data["end"].tolist())


def aggregate(tracer: Tracer) -> dict:
    """Per span name: calls, s (outermost calls only), self_s, useful;
    and per (name, instance): s."""
    a = tracer.arrays()
    n = len(a["start"])
    out: dict = {}
    if n == 0:
        return out
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child
    outer = a["outer"] == 1
    for nid, name in enumerate(tracer.names):
        mask = a["name"] == nid
        if not mask.any():
            continue
        entry = {
            "calls": int(mask.sum()),
            "s": float(dur[mask & outer].sum()),
            "self_s": float(self_time[mask].sum()),
            "useful": int(a["useful"][mask].sum()),
            "by_instance": {},
        }
        for inst in np.unique(a["instance"][mask & outer]):
            sel = mask & outer & (a["instance"] == inst)
            entry["by_instance"][int(inst)] = float(dur[sel].sum())
        out[name] = entry
    return out
