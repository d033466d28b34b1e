"""JSON serialization.

Chains, pairs, and solver reports round-trip through a versioned JSON
schema ("filmlab/1").  Every exact scalar is written as a rational
string "p/q"; radical sums carry their term list plus a certified
rational enclosure.  Outputs are byte-deterministic: keys are sorted and
all cell and simplex lists are emitted in canonical order.

The module loads only the grid representation and no radical
arithmetic: filmlab.simplicial is imported when a document is
simplicial, and a simplicial chain or a RadicalSum is recognised through
sys.modules, as none exists before its module is loaded.  OFF and OBJ
meshes are written by filmlab.meshes.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .grid import GridCell, GridChain, GridSpec, cell_from_label
from .pairs import Dipolyhedron, EnergySplit
from .rationals import parse_fraction
from .records import Record

SCHEMA = "filmlab/1"


class SchemaError(ValueError):
    """Malformed or mistyped document; the message carries a JSON path."""


# ---------------------------------------------------------------------------
# scalars


def _frac_str(x) -> str:
    return str(Fraction(x))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_frac(value, path: str) -> Fraction:
    if isinstance(value, bool):
        raise SchemaError(f"{path}: expected a rational string, got a bool")
    if isinstance(value, (str, int)):
        try:
            return Fraction(value) if isinstance(value, int) else parse_fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"{path}: not a rational: {value!r}") from exc
    raise SchemaError(f"{path}: expected a rational string, got {type(value).__name__}")


def _radical_json(x) -> dict:
    lo, hi = x.enclosure(96)
    return {
        "terms": [[core, _frac_str(coeff)] for core, coeff in x.terms()],
        "enclosure": {"lo": _frac_str(lo), "hi": _frac_str(hi)},
    }


def _get(doc, key: str, path: str):
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected an object")
    if key not in doc:
        raise SchemaError(f"{path}.{key}: missing")
    return doc[key]


# ---------------------------------------------------------------------------
# chains and pairs


def _point_json(p) -> list:
    return [_frac_str(c) for c in p]


def _parse_point(doc, path: str) -> tuple:
    if not isinstance(doc, (list, tuple)) or len(doc) != 3:
        raise SchemaError(f"{path}: expected a 3-coordinate point")
    return tuple(_parse_frac(c, f"{path}[{i}]") for i, c in enumerate(doc))


def grid_to_json(grid: GridSpec) -> dict:
    return {
        "origin": _point_json(grid.origin),
        "epsilon": _frac_str(grid.epsilon),
        "dims": list(grid.dims),
    }


def grid_from_json(doc, path: str = "grid") -> GridSpec:
    origin = _parse_point(_get(doc, "origin", path), f"{path}.origin")
    epsilon = _parse_frac(_get(doc, "epsilon", path), f"{path}.epsilon")
    dims = _get(doc, "dims", path)
    if not isinstance(dims, list) or len(dims) != 3 or not all(_is_int(d) for d in dims):
        raise SchemaError(f"{path}.dims: expected three integers")
    return GridSpec(origin=origin, epsilon=epsilon, dims=tuple(dims))


def _cell_json(cell: GridCell) -> dict:
    return {"base": list(cell.base), "axes": cell.axes_label()}


def _parse_cell(doc, path: str) -> GridCell:
    base = _get(doc, "base", path)
    axes = _get(doc, "axes", path)
    if not isinstance(base, list) or len(base) != 3 or not all(_is_int(b) for b in base):
        raise SchemaError(f"{path}.base: expected three integers")
    if not isinstance(axes, str) or any(ch not in "xyz" for ch in axes):
        raise SchemaError(f"{path}.axes: expected a subset of 'xyz'")
    try:
        return cell_from_label(base, axes)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _is_simplicial_chain(obj) -> bool:
    """isinstance(obj, SimplicialChain) without loading filmlab.simplicial:
    no simplicial chain exists before that module is loaded."""
    simplicial = sys.modules.get(f"{__package__}.simplicial")
    return simplicial is not None and isinstance(obj, simplicial.SimplicialChain)


def _is_radical_sum(obj) -> bool:
    """isinstance(obj, RadicalSum) without loading filmlab.exact, as above."""
    exact = sys.modules.get(f"{__package__}.exact")
    return exact is not None and isinstance(obj, exact.RadicalSum)


def chain_to_json(chain) -> dict:
    if isinstance(chain, GridChain):
        return {
            "schema": SCHEMA,
            "type": "grid-chain",
            "grid": grid_to_json(chain.grid),
            "k": chain.k,
            "cells": [_cell_json(c) for c in chain.sorted_cells()],
        }
    if _is_simplicial_chain(chain):
        return {
            "schema": SCHEMA,
            "type": "simplicial-chain",
            "k": chain.k,
            "simplices": [[_point_json(v) for v in s] for s in sorted(chain.simplices)],
        }
    raise TypeError(f"not a chain: {type(chain).__name__}")


def chain_from_json(doc, path: str = "$"):
    kind = _get(doc, "type", path)
    if doc.get("schema") != SCHEMA:
        raise SchemaError(f"{path}.schema: expected {SCHEMA!r}, got {doc.get('schema')!r}")
    k = _get(doc, "k", path)
    if not _is_int(k):
        raise SchemaError(f"{path}.k: expected an integer")
    if kind == "grid-chain":
        grid = grid_from_json(_get(doc, "grid", path), f"{path}.grid")
        cells = _get(doc, "cells", path)
        if not isinstance(cells, list):
            raise SchemaError(f"{path}.cells: expected a list")
        parsed = [_parse_cell(c, f"{path}.cells[{i}]") for i, c in enumerate(cells)]
        try:
            return GridChain(grid, k, frozenset(parsed))
        except ValueError as exc:
            raise SchemaError(f"{path}: {exc}") from exc
    if kind == "simplicial-chain":
        from .simplicial import simplicial_chain

        raw = _get(doc, "simplices", path)
        if not isinstance(raw, list):
            raise SchemaError(f"{path}.simplices: expected a list")
        simplices = []
        for i, s in enumerate(raw):
            if not isinstance(s, list) or len(s) != k + 1:
                raise SchemaError(f"{path}.simplices[{i}]: expected {k + 1} vertices")
            simplices.append([_parse_point(v, f"{path}.simplices[{i}][{j}]") for j, v in enumerate(s)])
        try:
            return simplicial_chain(k, simplices)
        except ValueError as exc:
            raise SchemaError(f"{path}: {exc}") from exc
    raise SchemaError(f"{path}.type: unknown chain type {kind!r}")


def dip_to_json(A: Dipolyhedron) -> dict:
    return {
        "schema": SCHEMA,
        "type": "dipolyhedron",
        "k": A.k,
        "rep": A.rep,
        "B": chain_to_json(A.B),
        "C": chain_to_json(A.C),
    }


def dip_from_json(doc, path: str = "$") -> Dipolyhedron:
    if _get(doc, "type", path) != "dipolyhedron":
        raise SchemaError(f"{path}.type: expected 'dipolyhedron'")
    if doc.get("schema") != SCHEMA:
        raise SchemaError(f"{path}.schema: expected {SCHEMA!r}, got {doc.get('schema')!r}")
    B = chain_from_json(_get(doc, "B", path), f"{path}.B")
    C = chain_from_json(_get(doc, "C", path), f"{path}.C")
    try:
        A = Dipolyhedron(B, C)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    if "k" in doc and (not _is_int(doc["k"]) or doc["k"] != A.k):
        raise SchemaError(f"{path}.k: declared {doc['k']}, parts give {A.k}")
    if "rep" in doc and doc["rep"] != A.rep:
        raise SchemaError(f"{path}.rep: declared {doc['rep']!r}, parts give {A.rep!r}")
    return A


def load_document(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: malformed JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path}: JSON nested too deeply") from exc


def parse_input(doc, path: str = "$"):
    """Chain or dipolyhedron, decided by the document's type tag."""
    kind = _get(doc, "type", path)
    if kind == "dipolyhedron":
        return dip_from_json(doc, path)
    if kind in ("grid-chain", "simplicial-chain"):
        return chain_from_json(doc, path)
    raise SchemaError(f"{path}.type: unknown input type {kind!r}")


# ---------------------------------------------------------------------------
# report encoding


def to_jsonable(obj):
    """Recursive JSON image of reports, certificates, and solutions.

    Exact scalars keep exactness (rational strings, radical term lists
    with enclosures); chains and pairs embed in their schema form.
    """
    if obj is None or isinstance(obj, (bool, str, float)):
        return obj
    if isinstance(obj, (int, Fraction)):
        return _frac_str(obj)
    if _is_radical_sum(obj):
        return _radical_json(obj)
    if isinstance(obj, GridChain) or _is_simplicial_chain(obj):
        return chain_to_json(obj)
    if isinstance(obj, Dipolyhedron):
        return dip_to_json(obj)
    if isinstance(obj, GridCell):
        return _cell_json(obj)
    if isinstance(obj, GridSpec):
        return grid_to_json(obj)
    if isinstance(obj, EnergySplit):
        return {
            "energy": to_jsonable(obj.energy),
            "weight": to_jsonable(obj.weight),
            "mass_part": to_jsonable(obj.mass_part),
        }
    if isinstance(obj, Record):
        out = {"type": type(obj).__name__}
        for name in obj._fields:
            out[name] = to_jsonable(getattr(obj, name))
        return out
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, frozenset):
        return [to_jsonable(x) for x in sorted(obj)]
    raise TypeError(f"no JSON image for {type(obj).__name__}")


def dumps_json(doc) -> str:
    """Serialize an already-encoded document, byte-deterministically."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def dumps_report(obj) -> str:
    doc = to_jsonable(obj)
    if isinstance(doc, dict):
        doc.setdefault("schema", SCHEMA)
    return dumps_json(doc)
