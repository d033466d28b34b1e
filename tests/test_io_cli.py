import copy
import importlib.util
import io
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filmlab import cli
from filmlab.cli import main
from filmlab.dipolyhedra import Dipolyhedron, dip_equal
from filmlab.exact import RadicalSum
from filmlab.grid import GridCell, GridSpec, boundary_grid, chain_of, empty_chain
from filmlab.io_formats import (
    SchemaError,
    chain_from_json,
    chain_to_json,
    dip_from_json,
    dip_to_json,
    dumps_report,
    grid_from_json,
    grid_to_json,
    load_document,
    parse_input,
    to_jsonable,
)
from filmlab.meshes import write_obj, write_off
from filmlab.pairs import make_dipole
from filmlab.rationals import UndecidableComparison
from filmlab.simplicial import simplicial_chain

from conftest import (
    FOLD,
    HEX,
    make_grid,
    polygon_curve,
    random_grid_chain,
    refine_polygon,
    square_curve,
    stair22,
)

F = Fraction
FIX = "fixtures"


# -- JSON round trips --------------------------------------------------------


def test_grid_round_trip():
    grid = make_grid((2, 3, 1), origin=(F(-1, 2), 0, 1), eps=F(1, 4))
    doc = grid_to_json(grid)
    assert grid_from_json(doc) == grid


def test_grid_chain_round_trip():
    grid = make_grid((2, 2, 2))
    chain = random_grid_chain(grid, 2, random.Random(3), density=0.5)
    doc = chain_to_json(chain)
    back = chain_from_json(doc)
    assert back == chain
    assert doc["type"] == "grid-chain"
    assert doc["schema"] == "filmlab/1"


def test_simplicial_chain_round_trip():
    chain = simplicial_chain(
        2,
        [
            (
                (F(0), F(0), F(0)),
                (F(1), F(0), F(1, 3)),
                (F(1, 4), F(1), F(1, 2)),
            )
        ],
    )
    back = chain_from_json(chain_to_json(chain))
    assert back == chain


def test_dipolyhedron_round_trip_and_fields():
    grid = make_grid((2, 2, 1))
    B = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1))])
    C = chain_of(grid, 1, [GridCell((1, 1, 0), (0,))])
    A = Dipolyhedron(B, C)
    doc = dip_to_json(A)
    assert doc["k"] == 2 and doc["rep"] == "grid"
    back = dip_from_json(doc)
    assert dip_equal(back, A)


def test_dip_from_json_validates_declared_dimensions():
    grid = make_grid((1, 1, 1))
    A = make_dipole(chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1))]))
    doc = dip_to_json(A)
    doc["k"] = 1
    with pytest.raises(SchemaError):
        dip_from_json(doc)


def test_schema_errors_carry_paths():
    grid = make_grid((1, 1, 1))
    chain = chain_of(grid, 1, [GridCell((0, 0, 0), (0,))])
    doc = chain_to_json(chain)
    doc["cells"][0]["axes"] = "qq"
    with pytest.raises(SchemaError) as err:
        chain_from_json(doc)
    assert "cells[0]" in str(err.value)
    with pytest.raises(SchemaError):
        chain_from_json({"schema": "filmlab/1", "type": "grid-chain"})
    with pytest.raises(SchemaError):
        parse_input({"schema": "filmlab/1", "type": "no-such-thing"})


@pytest.mark.parametrize("where", ["k", "dims", "base", "declared k"])
def test_schema_rejects_bools_as_integers(where):
    grid = make_grid((1, 1, 1))
    edge = chain_of(grid, 1, [GridCell((0, 0, 0), (0,))])
    doc = chain_to_json(edge)
    if where == "k":
        doc["k"] = True
    elif where == "dims":
        doc["grid"]["dims"] = [True, 1, 1]
    elif where == "base":
        doc["cells"][0]["base"] = [False, 0, 0]
    else:
        doc = dip_to_json(make_dipole(edge))
        doc["k"] = True
    with pytest.raises(SchemaError):
        parse_input(doc)


FIXTURES = (
    "square.json",
    "square_curve.json",
    "patch2x2.json",
    "tilted_triangle.json",
    "cone.json",
    "empty_curve.json",
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
_DELETE = object()


def _json_paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


def _mutate(doc, path, value):
    if not path:
        return doc if value is _DELETE else value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_parse_input_fuzz_raises_only_schema_errors(data, tmp_path_factory):
    # arbitrary JSON values, and fixtures with up to three subtrees
    # replaced or deleted
    if data.draw(st.booleans(), label="arbitrary"):
        doc = data.draw(JSON_VALUES, label="doc")
    else:
        doc = copy.deepcopy(load_document(f"{FIX}/{data.draw(st.sampled_from(FIXTURES))}"))
        for _ in range(data.draw(st.integers(1, 3))):
            path = data.draw(st.sampled_from(list(_json_paths(doc))), label="path")
            doc = _mutate(doc, path, data.draw(st.just(_DELETE) | JSON_VALUES, label="value"))
    try:
        parse_input(doc)
        malformed = False
    except ValueError:  # SchemaError included
        malformed = True
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["mass", str(path)])
    if malformed:
        assert code == 2
        assert err.getvalue().startswith("filmlab mass: error: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert code == 0


def test_scalar_encodings():
    assert to_jsonable(F(3, 7)) == "3/7"
    assert to_jsonable(5) == "5"
    enc = to_jsonable(RadicalSum.sqrt(2))
    assert set(enc) == {"terms", "enclosure"}
    lo = F(enc["enclosure"]["lo"])
    hi = F(enc["enclosure"]["hi"])
    assert lo * lo <= 2 <= hi * hi


def test_report_bytes_deterministic():
    grid = make_grid((2, 2, 1))
    chain = random_grid_chain(grid, 1, random.Random(9), density=0.4)
    a = dumps_report(chain_to_json(chain))
    b = dumps_report(chain_to_json(chain))
    assert a == b
    assert a.endswith("\n")
    json.loads(a)  # stays valid JSON


def test_fixture_files_parse():
    for name in (
        "square.json",
        "square_curve.json",
        "patch2x2.json",
        "tilted_triangle.json",
        "cone.json",
        "empty_curve.json",
    ):
        obj = parse_input(load_document(f"{FIX}/{name}"))
        assert obj is not None


def test_load_document_reports_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(SchemaError):
        load_document(str(p))


# -- mesh exports ------------------------------------------------------------


def test_off_export_grid_faces(tmp_path):
    grid = make_grid((2, 2, 1))
    chain = chain_of(
        grid, 2, [GridCell((0, 0, 0), (0, 1)), GridCell((1, 1, 0), (0, 1))]
    )
    path = tmp_path / "faces.off"
    write_off(chain, str(path))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "OFF"
    nv, nf, _ = (int(x) for x in lines[2].split())
    assert nf == 2
    assert nv == 7  # the diagonal faces share one corner
    face_rows = lines[3 + nv :]
    assert all(row.split()[0] == "4" for row in face_rows)


def test_off_export_triangles(tmp_path):
    chain = simplicial_chain(
        2, [((F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0)))]
    )
    path = tmp_path / "tri.off"
    write_off(chain, str(path))
    lines = path.read_text().splitlines()
    nv, nf, _ = (int(x) for x in lines[2].split())
    assert (nv, nf) == (3, 1)
    assert lines[3 + nv].split()[0] == "3"


def test_obj_export_segments(tmp_path):
    grid = make_grid((1, 1, 1))
    curve = square_curve(grid, 0, 0, 1)
    path = tmp_path / "curve.obj"
    write_obj(curve, str(path))
    lines = path.read_text().splitlines()
    vs = [l for l in lines if l.startswith("v ")]
    ls = [l for l in lines if l.startswith("l ")]
    assert len(vs) == 4 and len(ls) == 4
    for l in ls:
        _, i, j = l.split()
        assert 1 <= int(i) <= 4 and 1 <= int(j) <= 4


# -- CLI ---------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_mass_empty_curve(capsys):
    code, out, _ = run_cli(capsys, "mass", f"{FIX}/empty_curve.json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "0"
    assert doc["schema"] == "filmlab/1"
    assert doc["op"] == "mass"


def test_cli_flatnorm_square_is_one(capsys):
    code, out, _ = run_cli(capsys, "flatnorm", f"{FIX}/square.json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "1"
    assert doc["status"] == "exact"


def test_cli_plateau_patch_is_four(capsys, tmp_path):
    prefix = tmp_path / "patch"
    code, out, _ = run_cli(
        capsys,
        "plateau",
        "--curve",
        f"{FIX}/patch2x2.json",
        "--eps",
        "1",
        "--mesh-prefix",
        str(prefix),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["weight"] == "4"
    assert doc["optimality"] == "exact"
    off = (tmp_path / "patch-B.off").read_text().splitlines()
    nv, nf, _ = (int(x) for x in off[2].split())
    assert nf == 4


def test_cli_boundary_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "boundary", f"{FIX}/square.json")
    assert code == 0
    doc = json.loads(out)
    assert doc["op"] == "boundary"


def test_cli_eflat_film_pair(capsys, tmp_path):
    # delta(square boundary) as a grid pair: relaxing through the face gives 1
    grid = make_grid((1, 1, 1))
    A = make_dipole(square_curve(grid, 0, 0, 1))
    p = tmp_path / "pair.json"
    p.write_text(dumps_report(A))
    code, out, _ = run_cli(capsys, "eflat", str(p))
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "exact"
    assert doc["value"] == "1"


def test_cli_cone_builds_triangles(capsys):
    code, out, _ = run_cli(
        capsys, "cone", f"{FIX}/square_curve.json", "--apex", "0,0,0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 2
    assert len(doc["simplices"]) == 4


def test_cli_span_check(capsys):
    code, out, _ = run_cli(
        capsys,
        "span-check",
        f"{FIX}/cone.json",
        "--curve",
        f"{FIX}/square_curve.json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "spans"


def test_cli_natural_norm(capsys):
    code, out, _ = run_cli(
        capsys, "natural-norm", f"{FIX}/square.json", "--levels", "0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "exact"
    # level 0 is the plain mass; the cost enclosure is the point 4
    assert doc["cost"]["enclosure"] == {"lo": "4", "hi": "4"}
    code1, out1, _ = run_cli(
        capsys, "natural-norm", f"{FIX}/square.json", "--levels", "1"
    )
    assert code1 == 0
    assert json.loads(out1)["status"] == "upper-bound"


def test_cli_natural_norm_rejects_negative_radius(capsys):
    argv = ("natural-norm", f"{FIX}/square.json", "--levels", "1", "--radius")
    code, out, err = run_cli(capsys, *argv, "-3")
    assert code == 2 and out == ""
    assert "radius" in err
    assert run_cli(capsys, *argv, "3")[0] == 0


def test_cli_deform_triangle(capsys):
    code, out, _ = run_cli(
        capsys,
        "deform",
        f"{FIX}/tilted_triangle.json",
        "--eps",
        "1",
        "--centers",
        "4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["identity"]["equal"] is True


def test_cli_deform_mesh_prefix_creates_directory(capsys, tmp_path):
    prefix = tmp_path / "missing_dir" / "tri"
    code, out, err = run_cli(
        capsys, "deform", f"{FIX}/tilted_triangle.json", "--eps", "1", "--centers", "4",
        "--mesh-prefix", str(prefix),
    )
    assert code == 0 and err == ""
    assert json.loads(out)["identity"]["equal"] is True
    # R of the triangle is a 3-chain, which has no mesh
    assert sorted(p.name for p in prefix.parent.iterdir()) == ["tri-P.off", "tri-Q.off"]
    assert (prefix.parent / "tri-Q.off").read_text().splitlines()[1] == "OFF"


@pytest.mark.parametrize(
    "argv",
    [
        ("deform", f"{FIX}/tilted_triangle.json", "--eps", "1", "--centers", "4"),
        ("plateau", "--curve", f"{FIX}/patch2x2.json"),
    ],
    ids=["deform", "plateau"],
)
def test_cli_failed_mesh_write_prints_no_report(capsys, tmp_path, argv):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run_cli(capsys, *argv, "--mesh-prefix", str(blocker / "x"))
    assert code == 2 and out == ""
    assert err.count("\n") == 1


class _Computed(BaseException):
    """Raised by a stubbed solver: the handler got as far as computing."""


@pytest.mark.parametrize("flag", ["--output", "--mesh-prefix"])
@pytest.mark.parametrize(
    "argv, solver",
    [
        (("deform", f"{FIX}/tilted_triangle.json", "--eps", "1/4", "--centers", "16"),
         "filmlab.deformation.deform_chain"),
        (("plateau", "--curve", f"{FIX}/square_curve.json"), "filmlab.plateau.plateau_problem"),
    ],
    ids=["deform", "plateau"],
)
def test_cli_uncreatable_output_fails_before_computing(capsys, monkeypatch, tmp_path, argv, solver, flag):
    """An output directory that cannot be created (a regular file is in the
    way) exits 2 before the solver runs, with one stderr line and no report."""

    def computed(*args, **kwargs):
        raise _Computed(solver)

    monkeypatch.setattr(solver, computed)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code, out, err = run_cli(capsys, *argv, flag, str(blocker / "x"))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"filmlab {argv[0]}: error: ")
    # the stub is what the handler calls, so the run above never reached it
    with pytest.raises(_Computed):
        main([*argv, flag, str(tmp_path / "free" / "x")])


def test_cli_restrict(capsys):
    code, out, _ = run_cli(
        capsys, "restrict", f"{FIX}/square.json", "--box", "0,0,0,1,1,1"
    )
    assert code == 0


@pytest.mark.parametrize("fixture", ["square.json", "tilted_triangle.json"])
def test_cli_restrict_rejects_reversed_box(capsys, fixture):
    # grid chains take lattice corners, simplicial chains world corners
    code, out, err = run_cli(capsys, "restrict", f"{FIX}/{fixture}", "--box", "0,0,0,-1,1,1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "out of order" in err


@pytest.mark.parametrize("eps", ["0", "-1/2"])
def test_cli_deform_rejects_nonpositive_eps(capsys, eps):
    code, out, err = run_cli(capsys, "deform", f"{FIX}/tilted_triangle.json", f"--eps={eps}")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "epsilon must be positive" in err


@pytest.mark.parametrize(
    "grid_args, message",
    [
        (["--origin=0,0,0", "--dims=1,1"], "expected 3"),
        (["--origin=0,0,0", "--dims=3,0,3"], "must be positive"),
        (["--origin=0,0,0"], "together"),
        (["--dims=3,3,3"], "together"),
    ],
    ids=["two-dims", "zero-dim", "origin-alone", "dims-alone"],
)
def test_cli_deform_grid_flags_validated(capsys, grid_args, message):
    code, out, err = run_cli(
        capsys, "deform", f"{FIX}/tilted_triangle.json", "--eps=1", *grid_args
    )
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and message in err


def test_cli_pushforward_rejects_negative_lipschitz(capsys):
    args = ["pushforward", f"{FIX}/tilted_triangle.json", "--matrix=2,0,0,0,2,0,0,0,2"]
    code, out, err = run_cli(capsys, *args, "--lipschitz=-2")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "nonnegative" in err
    code, _, err = run_cli(capsys, *args, "--lipschitz=1")
    assert code == 2 and "exceeds declared Lipschitz" in err


@pytest.mark.parametrize("dirs", ["-1", "5000"])
def test_cli_direction_count_out_of_range(capsys, dirs):
    code, out, err = run_cli(
        capsys, "span-check", f"{FIX}/cone.json",
        f"--curve={FIX}/square_curve.json", f"--dirs={dirs}",
    )
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "extra directions" in err


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["deform", f"{FIX}/patch2x2.json", "--eps", "1", "--dims", "6,6,6"], "--origin", "-3,-3,-3"),
        (["restrict", f"{FIX}/square.json"], "--box", "-1,-1,-1,1,1,1"),
        (["restrict", f"{FIX}/tilted_triangle.json"], "--box", "-1/2,-1,-1,1,1,1"),
        (["cone", f"{FIX}/square.json"], "--apex", "-1,0,0"),
        (
            ["pushforward", f"{FIX}/square.json", "--lipschitz", "1", "--matrix", "1,0,0,0,1,0,0,0,1"],
            "--offset",
            "-1/2,0,0",
        ),
        (["pushforward", f"{FIX}/square.json", "--lipschitz", "1"], "--matrix", "-1,0,0,0,1,0,0,0,1"),
    ],
    ids=["deform-origin", "restrict-grid-box", "restrict-world-box", "cone-apex",
         "pushforward-offset", "pushforward-matrix"],
)
def test_cli_negative_value_after_space(capsys, argv, option, value):
    # a value starting with "-" is the option's value, not a flag
    joined = run_cli(capsys, *argv, f"{option}={value}")
    spaced = run_cli(capsys, *argv, option, value)
    assert joined[0] == 0 and joined[1]
    assert spaced == joined


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mass"], "filmlab mass: error: the following arguments are required: input"),
        (
            ["plateau", "--curve", f"{FIX}/square_curve.json", "--method", "nope"],
            "filmlab plateau: error: argument --method: invalid choice: 'nope'",
        ),
        (["flatnorm", f"{FIX}/square.json", "--node-budget", "x"], "filmlab flatnorm: error: argument"),
        (["mass", f"{FIX}/square.json", "--nosuch"], "filmlab: error: unrecognized arguments"),
        ([], "filmlab: error: the following arguments are required: subcommand"),
    ],
    ids=["missing-input", "bad-choice", "bad-int", "unknown-flag", "no-subcommand"],
)
def test_cli_usage_errors_are_one_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(message)


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["mass", "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: filmlab mass")


def test_cli_lipschitz_violation_prints_rationals(capsys):
    code, out, err = run_cli(
        capsys, "pushforward", f"{FIX}/patch2x2.json", "--matrix", "2,0,0,0,1,0,0,0,1", "--lipschitz", "1"
    )
    assert code == 2 and out == ""
    assert err == (
        "filmlab pushforward: error: stretch on simplex ((-1, -1, 0), (0, -1, 0)) "
        "exceeds declared Lipschitz constant\n"
    )
    code, _, err = run_cli(
        capsys, "pushforward", f"{FIX}/tilted_triangle.json", "--matrix=3,0,0,0,1,0,0,0,1",
        "--lipschitz=1",
    )
    assert code == 2 and "simplex ((0, 0, 0), (1/4, 1, 1/2), (1, 0, 1/3)) exceeds" in err


def test_cli_diagnostics(capsys, tmp_path):
    grid = make_grid((3, 3, 2), origin=(F(-3, 2), F(-3, 2), F(-1)))
    gamma = square_curve(grid, 1, 1, 2)
    from filmlab.grid import empty_chain

    A = Dipolyhedron(empty_chain(grid, 2), gamma)
    p = tmp_path / "pair.json"
    p.write_text(dumps_report(A))
    code, out, _ = run_cli(capsys, "diagnostics", str(p))
    assert code == 0
    doc = json.loads(out)
    # numeric report fields are exact rational strings across the board
    assert doc["loop_count"] == "1"
    assert doc["total_length"] == "4"


def test_cli_schema_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "filmlab/1", "type": "grid-chain"}')
    code, _, err = run_cli(capsys, "mass", str(bad))
    assert code == 2
    assert err.strip()


def test_cli_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "mass", "no/such/file.json")
    assert code == 2
    assert err.strip()


@pytest.mark.parametrize(
    "exc",
    [
        RuntimeError("deformation identity failed\ngeometric verification"),
        AssertionError(),
        UndecidableComparison("sign undecided at maximum precision"),
    ],
    ids=lambda e: type(e).__name__,
)
def test_cli_internal_failure_exit_4(capsys, monkeypatch, exc):
    def failing(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_mass", failing)
    code, out, err = run_cli(capsys, "mass", f"{FIX}/square.json")
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"filmlab mass: internal error ({type(exc).__name__}):")
    assert "Traceback" not in err


def test_cli_require_exact_exit_3(capsys, tmp_path):
    # stair22's sweep film (18 faces) is above its shadow bound (6), so a
    # zero budget proves nothing (the square's and the skew hexagon's sweep
    # films meet their shadow bounds)
    path = tmp_path / "stair22.json"
    path.write_text(json.dumps(chain_to_json(stair22())))
    code, out, _ = run_cli(
        capsys,
        "plateau",
        "--curve",
        str(path),
        "--eps",
        "1",
        "--method",
        "bnb",
        "--node-budget",
        "0",
        "--require-exact",
    )
    assert code == 3
    doc = json.loads(out)
    assert (doc["optimality"], doc["nodes"]) == ("upper-bound", "0")


def test_cli_byte_determinism(capsys):
    _, out1, _ = run_cli(capsys, "flatnorm", f"{FIX}/square.json")
    _, out2, _ = run_cli(capsys, "flatnorm", f"{FIX}/square.json")
    assert out1 == out2


def test_cli_output_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "mass", f"{FIX}/square.json", "-o", str(out_path)
    )
    assert code == 0
    saved = json.loads(out_path.read_text())
    assert saved["value"] == "4"


@pytest.mark.parametrize(
    "argv, meshes",
    [(("mass", f"{FIX}/square.json"), False), (("plateau", "--curve", f"{FIX}/square_curve.json"), True)],
    ids=["mass", "plateau"],
)
def test_cli_output_creates_directory(capsys, tmp_path, argv, meshes):
    """--output into a missing directory creates it, as --mesh-prefix does,
    and the file holds the report stdout would carry."""
    if meshes:
        argv += ("--mesh-prefix", str(tmp_path / "d1" / "m"))
    report = tmp_path / "d2" / "r.json"
    code, out, err = run_cli(capsys, *argv, "--output", str(report))
    assert code == 0 and out == "" and err == ""
    code, expected, _ = run_cli(capsys, *argv)
    assert code == 0
    assert report.read_text() == expected


def test_cli_flatnorm_node_budget(capsys, tmp_path):
    argv = ("flatnorm", f"{FIX}/square.json", "--method", "bnb", "--node-budget")
    code, out, _ = run_cli(capsys, *argv, "1000")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "1"
    assert doc["status"] == "exact"
    # the cli benchmark's 2x2x1 chain: its projection bound is 7, the best
    # lift 9 and the optimum 8, so a budget too small to finish the search
    # falls back to an upper bound
    path = tmp_path / "chain_k1.json"
    P = random_grid_chain(make_grid((2, 2, 1)), 1, random.Random("filmlab-bench:cli-k1"), 0.35)
    path.write_text(dumps_report(P))
    code, out, _ = run_cli(capsys, "flatnorm", str(path), "--method", "bnb", "--node-budget", "1")
    assert code == 0
    doc = json.loads(out)
    assert (doc["status"], doc["value"], doc["flow"]) == ("upper-bound", "9", None)


def test_cli_flatnorm_negative_node_budget_exit_2(capsys):
    argv = ("flatnorm", f"{FIX}/square_curve.json", "--method", "bnb", "--node-budget", "-3")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "node budget must be nonnegative" in err


def test_cli_plateau_negative_node_budget_exit_2(capsys):
    argv = ("plateau", "--curve", f"{FIX}/square_curve.json", "--method", "bnb", "--node-budget", "-1")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "node budget must be nonnegative" in err


def test_cli_eflat_exhaustive_limit(capsys, tmp_path):
    grid = make_grid((1, 1, 1))
    p = tmp_path / "pair.json"
    p.write_text(dumps_report(make_dipole(square_curve(grid, 0, 0, 1))))
    code, out, _ = run_cli(capsys, "eflat", str(p), "--exhaustive-limit", "30")
    assert code == 0
    assert json.loads(out)["value"] == "1"
    # a limit below the free-cell count is refused as a usage error
    code, _, err = run_cli(capsys, "eflat", str(p), "--exhaustive-limit", "0")
    assert code == 2 and "exhaustive limit 0" in err


def test_cli_deeply_nested_json_exit_2(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "mass", str(deep))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("filmlab mass: error: ") and "nested too deeply" in err


def test_cli_refuses_exponent_in_document(capsys, tmp_path):
    doc = chain_to_json(square_curve(make_grid((2, 2, 1)), 0, 0, 1))
    doc["grid"]["epsilon"] = "1e10000000"
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "mass", str(p))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "$.grid.epsilon: not a rational" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("plateau", "--curve", f"{FIX}/square_curve.json", "--eps", "1e10000000"),
        ("deform", f"{FIX}/tilted_triangle.json", "--eps", "1E10000000"),
        ("clamp", f"{FIX}/square.json", "--radius", "1e400"),
        ("cone", f"{FIX}/square.json", "--apex", "0,0,1e9"),
    ],
    ids=["plateau-eps", "deform-eps", "clamp-radius", "cone-apex"],
)
def test_cli_refuses_exponent_arguments(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "exponent notation is not accepted" in err


def test_cli_zero_denominator_exit_2(capsys):
    code, _, err = run_cli(capsys, "clamp", f"{FIX}/square.json", "--radius", "1/0")
    assert code == 2
    assert err.count("\n") == 1 and "zero denominator" in err


@pytest.mark.parametrize("method", ["bnb", "exhaustive", "local"])
def test_cli_plateau_without_admissible_direction_exit_2(capsys, tmp_path, method):
    # the skew hexagon has an edge along every axis, so no axis alone is admissible
    hex1 = tmp_path / "hex1.json"
    hex1.write_text(dumps_report(polygon_curve(HEX, 3)))
    argv = ("plateau", "--curve", str(hex1), "--dirs", "0", "--method", method)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "no projection direction is admissible" in err


def test_cli_plateau_without_a_witness(capsys, tmp_path):
    # hex1 at direction seed 4 with three extra directions: two invisible
    # cycles, four cosets, all closed
    hex1 = tmp_path / "hex1.json"
    hex1.write_text(dumps_report(polygon_curve(HEX, 3)))
    argv = ("plateau", "--curve", str(hex1), "--seed", "4", "--dirs", "3", "--method", "exhaustive")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert (doc["weight"], doc["optimality"], doc["shadow_bound"]) == ("3", "exact", "2")
    # fold2 at direction seed 4 with one extra direction: 40 invisible
    # cycles and a root film above the shadow bound, too many cosets for
    # exhaustive without a budget, and upper-bound under a one-node budget
    fold2 = tmp_path / "fold2.json"
    fold2.write_text(dumps_report(polygon_curve(refine_polygon(FOLD, 2), 4)))
    argv = ("plateau", "--curve", str(fold2), "--seed", "4", "--dirs", "1")
    code, out, err = run_cli(capsys, *argv, "--method", "exhaustive")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "dimension 40" in err and "root film weighs 8 against the shadow bound 6" in err
    code, out, _ = run_cli(capsys, *argv, "--method", "bnb", "--node-budget", "1", "--require-exact")
    assert code == 3
    doc = json.loads(out)
    assert (doc["weight"], doc["optimality"], doc["nodes"]) == ("8", "upper-bound", "1")


def test_cli_plateau_local_rejects_node_budget(capsys):
    code, out, err = run_cli(
        capsys,
        "plateau",
        "--curve",
        f"{FIX}/square_curve.json",
        "--method",
        "local",
        "--node-budget",
        "5",
    )
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "no node budget" in err


SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


@pytest.mark.parametrize(
    "argv",
    [
        ("mass", f"{FIX}/cone.json"),
        ("boundary", f"{FIX}/tilted_triangle.json"),
        ("flatnorm", f"{FIX}/square.json"),
        ("plateau", "--curve", f"{FIX}/square_curve.json"),
        ("plateau", "--curve", f"{FIX}/patch2x2.json", "--method", "local"),
        ("deform", f"{FIX}/tilted_triangle.json", "--eps", "1", "--centers", "4"),
        ("span-check", f"{FIX}/cone.json", "--curve", f"{FIX}/square_curve.json"),
        ("clamp", f"{FIX}/cone.json", "--radius", "1/2"),
        ("diagnostics", "{pair}"),
        ("eflat", "{pair}", "--method", "bnb", "--node-budget", "1000"),
        ("cone", f"{FIX}/square.json", "--apex", "1/2,1/2,1"),
        ("pushforward", f"{FIX}/patch2x2.json", "--matrix", "1,0,0,0,1,0,0,0,1",
         "--offset", "1/2,0,0", "--lipschitz", "1"),
        ("restrict", f"{FIX}/tilted_triangle.json", "--box", "0,0,0,1/2,1/2,1/2"),
        ("natural-norm", f"{FIX}/square.json", "--levels", "1"),
        ("plateau", "--curve", "{fold2}", "--method", "bnb"),
        ("plateau", "--curve", f"{FIX}/square_curve.json", "--dirs", "0", "--method", "bnb"),
        ("flatnorm", "{block}", "--method", "bnb", "--node-budget", "0"),
        ("flatnorm", "{frustrated}", "--method", "bnb"),
        ("plateau", "--curve", "{fold2}"),
        ("flatnorm", "{block}"),
        ("flatnorm", "{frustrated27}"),
        ("plateau", "--curve", "{stair22}", "--method", "local"),
        ("flatnorm", f"{FIX}/square.json", "--method", "bnb", "--node-budget", "0"),
    ],
    ids=["mass", "boundary", "flatnorm", "plateau", "plateau-local", "deform", "span-check",
         "clamp", "diagnostics", "eflat", "cone", "pushforward", "restrict", "natural-norm",
         "plateau-bnb-fold2", "plateau-bnb-axes", "flatnorm-bnb-cover", "flatnorm-bnb-search",
         "plateau-fold2", "flatnorm-cover", "flatnorm-over-limit", "plateau-local-stair22",
         "flatnorm-projection"],
)
def test_cli_reports_survive_python_O(argv, tmp_path):
    """Invariants hold under python -O: no result depends on an assert."""
    # diagnostics and eflat read a grid pair: the fixture square as a bare mass part
    curve = parse_input(load_document(f"{FIX}/square_curve.json"))
    pair = tmp_path / "pair.json"
    pair.write_text(dumps_report(Dipolyhedron(empty_chain(curve.grid, 2), curve)))
    fold2 = tmp_path / "fold2.json"
    fold2.write_text(dumps_report(polygon_curve(refine_polygon(FOLD, 2), 4)))
    # a block boundary closes at the cover's root flow; seed 16's chain needs the search
    grid = make_grid((3, 3, 3))
    block = tmp_path / "block.json"
    cube = [GridCell(base, (0, 1, 2)) for base in itertools.product((0, 1), repeat=3)]
    block.write_text(dumps_report(boundary_grid(chain_of(grid, 3, cube))))
    frustrated = tmp_path / "frustrated.json"
    P = random_grid_chain(make_grid((2, 2, 2)), 2, random.Random(16), density=0.5)
    frustrated.write_text(dumps_report(P))
    # seed 1's chain needs the search too, over 27 cells: past the exhaustive limit
    frustrated27 = tmp_path / "frustrated27.json"
    P = random_grid_chain(grid, 2, random.Random(1), density=0.5)
    frustrated27.write_text(dumps_report(P))
    stairs = tmp_path / "stair22.json"
    stairs.write_text(dumps_report(stair22()))
    paths = {"{pair}": str(pair), "{fold2}": str(fold2), "{block}": str(block),
             "{frustrated}": str(frustrated), "{frustrated27}": str(frustrated27),
             "{stair22}": str(stairs)}
    labelled = "{fold2}" in argv
    method = argv[argv.index("--method") + 1] if "--method" in argv else "exhaustive"
    # the block closes at the cover, the square at the projection bound
    roots = {"{block}": True, "{frustrated}": False, f"{FIX}/square.json": True}
    covered = roots.get(argv[1]) if argv[0] == "flatnorm" else None
    refused = "{frustrated27}" in argv
    rooted = "{stair22}" in argv
    argv = [paths.get(a, a) for a in argv]
    env = {**os.environ, "PYTHONPATH": SRC}
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "filmlab.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        for flags in ((), ("-O",))
    ]
    plain, optimised = runs
    assert plain.returncode == (2 if refused else 0), plain.stderr
    assert (optimised.returncode, optimised.stdout) == (plain.returncode, plain.stdout)
    if refused:
        assert "27 free cells exceed the exhaustive limit 24" in plain.stderr
        assert optimised.stderr == plain.stderr
    if labelled:
        doc = json.loads(plain.stdout)
        assert (doc["weight"], doc["optimality"], doc["method"], doc["nodes"]) == (
            "8", "exact", method, "1")
    if rooted:
        doc = json.loads(plain.stdout)
        assert (doc["weight"], doc["optimality"], doc["nodes"]) == ("16", "exact", "1")
    if covered is not None:
        doc = json.loads(plain.stdout)
        assert doc["status"] == "exact"
        assert (doc["flow"] is not None) == covered


def test_flat_norm_searches_run_without_numpy(tmp_path):
    # the cli benchmark's 2x2x1 chain: the projection root leaves it open
    # (bound 7, optimum 8), so the search runs; eflat always searches
    k1 = random_grid_chain(make_grid((2, 2, 1)), 1, random.Random("filmlab-bench:cli-k1"), 0.35)
    grid = make_grid((1, 1, 1))
    rng = random.Random("no-numpy-eflat")
    pair = Dipolyhedron(random_grid_chain(grid, 2, rng, 0.4), random_grid_chain(grid, 1, rng, 0.25))
    chain_path, pair_path = tmp_path / "k1.json", tmp_path / "pair.json"
    chain_path.write_text(dumps_report(k1))
    pair_path.write_text(dumps_report(pair))
    run = (
        "import sys; from filmlab.cli import main; code = main(sys.argv[1:]); "
        "sys.exit(code if 'numpy' not in sys.modules else 'numpy was imported')"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    for argv, value in ((("flatnorm", str(chain_path)), "8"), (("eflat", str(pair_path)), None)):
        done = subprocess.run(
            [sys.executable, "-c", run, *argv], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        doc = json.loads(done.stdout)
        assert doc["status"] == "exact"
        if value is not None:
            assert (doc["value"], doc["flow"]) == (value, None)


def _without_grids(doc):
    if isinstance(doc, dict):
        return {key: _without_grids(value) for key, value in doc.items() if key != "grid"}
    if isinstance(doc, list):
        return [_without_grids(value) for value in doc]
    return doc


def _limit_address_space():
    # 512 MiB: room for the interpreter, far too little to list a 10^9-cell grid
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


@pytest.mark.parametrize(
    "argv",
    [("flatnorm",), ("flatnorm", "--method", "bnb", "--node-budget", "5"), ("eflat",)],
    ids=["flatnorm", "flatnorm-bnb", "eflat"],
)
def test_cli_flat_norms_ignore_the_declared_grid_size(argv, tmp_path):
    # the fixture square, or the pair with it as a bare mass part, declared
    # in its own grid and in a 10^9 x 1 x 1 one: the flat norms work in the
    # chain's lattice box, so both answer alike, under an address-space
    # limit and a timeout that turn a grid-sized allocation into a failure
    square = parse_input(load_document(f"{FIX}/square.json"))
    huge = GridSpec(square.grid.epsilon, square.grid.origin, (10**9, 1, 1))
    env = {**os.environ, "PYTHONPATH": SRC}
    docs = []
    for grid in (square.grid, huge):
        chain = chain_of(grid, 1, square.cells)
        obj = chain if argv[0] == "flatnorm" else Dipolyhedron(empty_chain(grid, 2), chain)
        path = tmp_path / f"{grid.dims[0]}.json"
        path.write_text(dumps_report(obj))
        done = subprocess.run(
            [sys.executable, "-m", "filmlab.cli", argv[0], str(path), *argv[1:]],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
            preexec_fn=_limit_address_space,
        )
        assert done.returncode == 0, done.stderr
        docs.append(json.loads(done.stdout))
    small, large = docs
    assert small["status"] == "exact"
    assert _without_grids(large) == _without_grids(small)


# every process loads the command, the JSON layer, the rational parser, the record base
# and the grid pair algebra; no radical arithmetic (exact) before the geometry needs it
BASE = {"cli", "grid", "io_formats", "pairs", "rationals", "records"}
SIMPLICIAL = BASE | {"exact", "geom", "simplicial"}
# the spanning check and the pair ops that leave the grid (dipolyhedra)
SPANNING = SIMPLICIAL | {"dipolyhedra", "overlay"}
FLAT = BASE | {"cover", "flatnorm"}


@pytest.mark.parametrize(
    "argv, modules",
    [
        (("mass", f"{FIX}/square.json"), BASE),
        (("boundary", f"{FIX}/square.json"), BASE),
        (("span-check", f"{FIX}/cone.json", "--curve", f"{FIX}/square_curve.json"), SPANNING),
        (("cone", f"{FIX}/square.json", "--apex", "1/2,1/2,1"), SIMPLICIAL),
        (("clamp", f"{FIX}/cone.json", "--radius", "1/2"), SPANNING),
        (("pushforward", f"{FIX}/patch2x2.json", "--matrix", "1,0,0,0,1,0,0,0,1",
          "--lipschitz", "1"), SIMPLICIAL),
        (("restrict", f"{FIX}/tilted_triangle.json", "--box", "0,0,0,1/2,1/2,1/2"), SIMPLICIAL),
        (("--help",), BASE),
        (("flatnorm", "--help"), BASE),
        (("plateau", "--help"), BASE),
        (("flatnorm", f"{FIX}/square.json"), FLAT),
        (("eflat", "{pair}", "--method", "bnb", "--node-budget", "1000"), FLAT),
        (("natural-norm", f"{FIX}/square.json", "--levels", "1"), BASE | {"exact", "natural_norm"}),
        (("deform", f"{FIX}/tilted_triangle.json", "--eps", "1", "--centers", "4"),
         SIMPLICIAL | {"overlay", "deformation"}),
        (("deform", f"{FIX}/tilted_triangle.json", "--eps", "1", "--centers", "4",
          "--mesh-prefix", "{out}"), SIMPLICIAL | {"overlay", "deformation", "meshes"}),
        # plateau labels cells in the doubled cover, not with the flat norms
        (("plateau", "--curve", f"{FIX}/square_curve.json"), SPANNING | {"cover", "plateau"}),
        # diagnostics walks the grid cells alone
        (("diagnostics", "{pair}"), BASE | {"loops"}),
        # simplicial inputs: each lazy import runs in a cold process
        (("mass", f"{FIX}/cone.json"), SIMPLICIAL),
        (("boundary", f"{FIX}/cone.json"), SIMPLICIAL),
        (("boundary", f"{FIX}/tilted_triangle.json"), SIMPLICIAL),
        (("restrict", f"{FIX}/cone.json", "--box", "0,0,0,1/2,1/2,1/2"), SPANNING),
        (("cone", f"{FIX}/cone.json", "--apex", "1,1,1"), SPANNING),
        (("cone", f"{FIX}/tilted_triangle.json"), SIMPLICIAL),
    ],
    ids=["mass", "boundary", "span-check", "cone", "clamp", "pushforward", "restrict", "help",
         "flatnorm-help", "plateau-help", "flatnorm", "eflat", "natural-norm", "deform",
         "deform-meshes", "plateau", "diagnostics", "mass-simplicial-pair",
         "boundary-simplicial-pair", "boundary-simplicial", "restrict-simplicial-pair",
         "cone-simplicial-pair", "cone-simplicial"],
)
def test_cli_loads_only_the_solvers_it_runs(argv, modules, tmp_path):
    """Each subcommand process imports the modules it calls and no other.

    A grid input loads no radical arithmetic, geometry, simplicial,
    overlay or spanning code unless its subcommand leaves the grid or
    sums radicals, a chain loads no pair op, only the flat-norm
    subcommands load the flat-norm solvers, and only --mesh-prefix loads
    the mesh writers.  No process loads dataclasses or inspect.
    """
    curve = parse_input(load_document(f"{FIX}/square_curve.json"))
    pair = tmp_path / "pair.json"
    pair.write_text(dumps_report(Dipolyhedron(empty_chain(curve.grid, 2), curve)))
    places = {"{pair}": str(pair), "{out}": str(tmp_path / "mesh")}
    argv = [places.get(a, a) for a in argv]
    record = tmp_path / "modules.json"
    run = (
        "import json, sys\n"
        "from filmlab.cli import main\n"
        "try:\n"
        "    code = main(sys.argv[2:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "loaded = [m for m in sys.modules if m.startswith('filmlab.')]\n"
        "heavy = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "open(sys.argv[1], 'w').write(json.dumps([code, loaded, heavy]))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", run, str(record), *argv], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    code, loaded, heavy = json.loads(record.read_text())
    assert code == 0, done.stderr
    assert {m.removeprefix("filmlab.") for m in loaded} == modules
    assert heavy == []


def test_import_filmlab_loads_submodules_on_first_use():
    run = (
        "import json, sys\n"
        "import filmlab\n"
        "bare = [m for m in sys.modules if m.startswith('filmlab.')]\n"
        "same = filmlab.flat_norm is sys.modules['filmlab.flatnorm'].flat_norm\n"
        "after = [m for m in sys.modules if m.startswith('filmlab.')]\n"
        "print(json.dumps([bare, same, after]))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", run], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    bare, same, after = json.loads(done.stdout)
    assert bare == []
    assert same
    assert "filmlab.flatnorm" in after
    assert not {"filmlab.plateau", "filmlab.deformation"} & set(after)


def test_fixtures_regenerate_byte_for_byte(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("make_fixtures", "scripts/make_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT", str(tmp_path))
    module.main()
    written = sorted(os.listdir(tmp_path))
    assert written == sorted(os.listdir(FIX))
    for name in written:
        assert (tmp_path / name).read_bytes() == open(os.path.join(FIX, name), "rb").read(), name
