"""The record contract: every immutable value type of the package.

Equal fields make equal objects with equal hashes, within one class only;
fields cannot be assigned or deleted; repr lists the fields in order;
copies rebuild equal objects; grid cells order by (base, axes); and the
JSON image of a report record is its class name plus its fields.
"""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import filmlab
from filmlab.cover import _BoxLabelling
from filmlab.deformation import (
    DeformationResult,
    DeformConfig,
    DipoleDeformationReport,
    SupportReport,
)
from filmlab.dipolyhedra import (
    ConeBound,
    DirectionReport,
    MeasureReport,
    ProjectionDir,
    SpanningReport,
)
from filmlab.exact import RadicalSum
from filmlab.flatnorm import (
    CutFlow,
    EnergyFlatCertificate,
    FlatNormCertificate,
    ProjectionFlows,
    SolverConfig,
)
from filmlab.grid import BoxRegion, GridCell, GridChain, GridSpec, empty_chain
from filmlab.io_formats import to_jsonable
from filmlab.loops import DiagnosticsReport
from filmlab.natural_norm import Multicell, MulticellDecomposition
from filmlab.overlay import EqualityCertificate
from filmlab.pairs import Dipolyhedron, EnergySplit
from filmlab.plateau import (
    ClampReport,
    ConeStart,
    MembershipReport,
    PlateauProblem,
    PlateauSolution,
)
from filmlab.records import Record
from filmlab.simplicial import PLMap, SimplicialChain

from conftest import make_grid, square_curve

F = Fraction
ONE = RadicalSum.from_fraction(1)


def _grid():
    return make_grid((3, 3, 2), origin=(F(-3, 2), F(-3, 2), F(-1)))


def _cell():
    return GridCell((1, 1, 1), (0,))


def _curve():
    return square_curve(_grid(), 1, 1, 2)


def _pair():
    return Dipolyhedron(empty_chain(_grid(), 2), _curve())


def _segment():
    return SimplicialChain(1, frozenset({((F(0), F(0), F(0)), (F(1), F(0), F(0)))}))


def _spanning():
    return SpanningReport(True, "spans", (_direction(),), ONE)


def _direction():
    return DirectionReport(ProjectionDir((F(0), F(0), F(1))), True, "ok", True, ONE)


def _membership():
    return MembershipReport(True, True, EnergySplit(F(4), F(0), F(4)), True, True, _spanning())


def _deformed():
    return DeformationResult(
        empty_chain(_grid(), 1), _segment(), SimplicialChain(2, frozenset()),
        {"ratio": F(1)}, {"ratio": True}, SupportReport(ONE, None, True),
        EqualityCertificate(True, "exact"), (),
    )


# each builder makes a fresh instance with the same field values every call
BUILDERS = {
    GridCell: _cell,
    GridSpec: _grid,
    GridChain: _curve,
    BoxRegion: lambda: BoxRegion((0, 0, 0), (1, 2, 1)),
    Dipolyhedron: _pair,
    _BoxLabelling: lambda: _BoxLabelling(1, (_cell(),), ((0, 1, 1),)),
    SolverConfig: lambda: SolverConfig(node_budget=10),
    CutFlow: lambda: CutFlow((1, 0, -1)),
    ProjectionFlows: lambda: ProjectionFlows(1, ((1,), (), (0, 2))),
    FlatNormCertificate: lambda: FlatNormCertificate(
        F(4), empty_chain(_grid(), 1), empty_chain(_grid(), 2), "exact", CutFlow((2,))
    ),
    EnergyFlatCertificate: lambda: EnergyFlatCertificate(
        F(4), *(empty_chain(_grid(), k) for k in (2, 1, 3, 2)), "upper-bound"
    ),
    Multicell: lambda: Multicell(_cell(), ((0, 1, 0),)),
    MulticellDecomposition: lambda: MulticellDecomposition(
        ((Multicell(_cell(), ()),),), empty_chain(_grid(), 2), ONE, "exact"
    ),
    PlateauProblem: lambda: PlateauProblem(_curve(), F(4), F(2), _grid(), (), 3),
    MembershipReport: _membership,
    ConeStart: lambda: ConeStart(_pair(), ONE, _membership(), {"plain": ONE}, {"plain": True}),
    PlateauSolution: lambda: PlateauSolution(
        _pair(), F(1), F(4), _membership(), "exact", "bnb", 7, F(1)
    ),
    ClampReport: lambda: ClampReport(
        _pair(), False, F(1), F(1), F(4), F(4), True, True, _spanning(), _spanning()
    ),
    DiagnosticsReport: lambda: DiagnosticsReport(((_cell(),),), 1, F(4), 0, True),
    ConeBound: lambda: ConeBound(ONE, ONE + ONE, RadicalSum.sqrt(3), True),
    MeasureReport: lambda: MeasureReport(BoxRegion((0, 0, 0), (1, 1, 1)), F(1), F(2), F(3)),
    ProjectionDir: lambda: ProjectionDir((F(1), F(2), F(3))),
    DirectionReport: _direction,
    SpanningReport: _spanning,
    DeformConfig: lambda: DeformConfig(F(1, 2), candidate_centers=4),
    SupportReport: lambda: SupportReport(ONE, None, True),
    DeformationResult: _deformed,
    DipoleDeformationReport: lambda: DipoleDeformationReport(
        _deformed(), _deformed(), F(1), F(2), ONE, ONE, {}, {"x": True}, ((1, 1, 1),)
    ),
    EqualityCertificate: lambda: EqualityCertificate(False, "exact"),
    SimplicialChain: _segment,
    PLMap: lambda: PLMap.affine(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 1), 1),
}

# written in their schema form, not as {"type": name, ...}
SCHEMA_FORM = {GridCell, GridSpec, GridChain, Dipolyhedron, SimplicialChain}


def test_every_record_class_is_covered():
    found = set()
    for info in pkgutil.iter_modules(filmlab.__path__):
        module = importlib.import_module(f"filmlab.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, Record) and value is not Record:
                found.add(value)
    assert found == set(BUILDERS)
    assert len(found) == 31


def _twin(record):
    """The same field values in another record class with the same fields."""
    cls = type(record)
    twin_cls = type(cls.__name__, (Record,), {"__slots__": cls._fields, "_fields": cls._fields})
    twin = twin_cls.__new__(twin_cls)
    for name in cls._fields:
        object.__setattr__(twin, name, getattr(record, name))
    return twin


@pytest.mark.parametrize("cls", list(BUILDERS), ids=lambda c: c.__name__)
def test_record_contract(cls):
    a, b = BUILDERS[cls](), BUILDERS[cls]()
    assert type(a) is cls and a is not b
    values = tuple(getattr(a, name) for name in cls._fields)

    # equal fields: equal objects and equal hashes, within one class
    assert a == b and not a != b
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected
    twin = _twin(a)
    assert a != twin and twin != a
    assert a.__eq__(twin) is NotImplemented
    assert a != values

    # no field can be assigned or deleted, and no attribute added
    for name in (cls._fields[0], cls._fields[-1], "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b

    # repr: Name(field=value, ...) in field order
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, values))
    assert repr(a) == f"{cls.__name__}({fields})"

    # copies rebuild through __init__
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(clone) is cls and clone == a

    # JSON image
    if cls not in SCHEMA_FORM:
        image = {"type": cls.__name__}
        image.update((name, to_jsonable(value)) for name, value in zip(cls._fields, values))
        assert to_jsonable(a) == image


def test_record_repr_is_the_field_listing():
    assert repr(GridCell((0, 0, 0), (0,))) == "GridCell(base=(0, 0, 0), axes=(0,))"
    assert repr(SolverConfig()) == "SolverConfig(exhaustive_limit=24, node_budget=1000000)"


def test_grid_cells_order_by_base_then_axes():
    cells = [
        GridCell((1, 0, 0), (0,)),
        GridCell((0, 0, 1), (0, 1)),
        GridCell((0, 0, 1), (0,)),
        GridCell((0, 0, 0), (2,)),
        GridCell((0, 0, 0), ()),
    ]
    assert sorted(cells) == sorted(cells, key=lambda c: (c.base, c.axes))
    # the bases decide first, the axes only between equal bases
    for a, b in (
        (GridCell((0, 0, 0), (2,)), GridCell((0, 0, 1), (0,))),
        (GridCell((0, 0, 1), (0,)), GridCell((0, 0, 1), (0, 1))),
    ):
        assert a < b and a <= b and b > a and b >= a and a <= a and a >= a
        assert not (b < a or b <= a or a > b or a >= b or a < a or a > a)
    for compare in (lambda: a < (0, 0, 1), lambda: a >= _twin(a)):
        with pytest.raises(TypeError):
            compare()


def test_record_init_checks_keep_their_messages():
    with pytest.raises(ValueError, match="node budget must be nonnegative"):
        SolverConfig(node_budget=-1)
    with pytest.raises(ValueError, match="axes must be strictly increasing"):
        GridCell((0, 0, 0), (1, 0))
    with pytest.raises(ValueError, match="nu must equal omega"):
        MeasureReport(None, F(1), F(1), F(1))
    # DeformConfig coerces its rationals
    cfg = DeformConfig(1, tau="1/4")
    assert (cfg.epsilon, cfg.tau) == (F(1), F(1, 4))
    assert type(cfg.epsilon) is Fraction and type(cfg.tau) is Fraction


# the record classes that check or coerce their arguments; every other
# record stores its fields through Record.__init__
CHECKING = {
    GridCell, GridSpec, GridChain, BoxRegion, Dipolyhedron, SimplicialChain, DeformConfig,
    SolverConfig, MeasureReport, ProjectionDir,
}


def test_only_checking_records_write_their_own_init():
    own = {cls for cls in BUILDERS if "__init__" in vars(cls)}
    assert own == CHECKING
    assert "__init__" in vars(Record)


def test_record_init_binds_positions_keywords_and_defaults():
    Q, R = empty_chain(_grid(), 1), empty_chain(_grid(), 2)
    full = FlatNormCertificate(F(4), Q, R, "exact", CutFlow((2,)))
    assert FlatNormCertificate(F(4), Q, R, status="exact", flow=CutFlow((2,))) == full
    assert FlatNormCertificate(flow=CutFlow((2,)), status="exact", R=R, Q=Q, value=F(4)) == full
    # trailing fields left out take their _defaults
    assert FlatNormCertificate(F(4), Q, R, "exact").flow is None
    assert PlateauProblem(_curve(), F(4), F(2), _grid(), ()).seed == 0
    assert PlateauProblem(_curve(), F(4), F(2), _grid(), (), seed=3) == BUILDERS[PlateauProblem]()
    plm = PLMap(ONE, table={})
    assert (plm.lipschitz, plm.matrix, plm.offset, plm.table) == (ONE, None, None, {})

    with pytest.raises(TypeError, match=r"takes 5 arguments but 6 were given"):
        FlatNormCertificate(F(4), Q, R, "exact", None, None)
    with pytest.raises(TypeError, match=r"missing required argument 'status'"):
        FlatNormCertificate(F(4), Q, R)
    with pytest.raises(TypeError, match=r"missing required argument 'lipschitz'"):
        PLMap(table={})
    with pytest.raises(TypeError, match=r"unexpected keyword argument 'flows'"):
        FlatNormCertificate(F(4), Q, R, "exact", flows=None)
    with pytest.raises(TypeError, match=r"multiple values for argument 'Q'"):
        FlatNormCertificate(F(4), Q, R, "exact", Q=Q)
