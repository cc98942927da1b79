"""Pins of the record classes' behaviour: their repr, the checks their
__post_init__ makes, equality and hashing on the field tuple, frozen and
mutable records, defaults and keyword arguments.  The pins were read off the
dataclass versions of these classes, so the package's one record base keeps
the dataclass behaviour that callers see."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from polyfunctor import FieldDescriptor, GradedRing, parse_polynomial
from polyfunctor.errors import AlgebraError
from polyfunctor.functors import (
    ConstF,
    ExtF,
    IdF,
    QuotF,
    ShiftF,
    ShiftMaps,
    SumF,
    Summand,
    SymF,
    TenAltF,
    TensorF,
    TenSymF,
)
from polyfunctor.hasse import DirectionalData, DirectionSubspace
from polyfunctor.matrices import BlockSolution
from polyfunctor.proofstep import (
    AffineAdditiveElement,
    CertificateEntry,
    Check,
    DeltaReport,
    EliminationCertificate,
    ProofStepReport,
    VarietyPresentation,
)
from polyfunctor.rings import RingVariable, Vector

Q = FieldDescriptor.rationals()
R = GradedRing(Q, ["x", "y"])
X = parse_polynomial("x", R)
Y = parse_polynomial("2*y - 1/3", R)


def _instances():
    return [
        FieldDescriptor("prime-field", 5, 5),
        ConstF(2),
        IdF(),
        SumF([IdF(), ConstF(1)]),
        TensorF([IdF(), IdF()]),
        SymF(2, IdF()),
        ExtF(3, IdF()),
        ShiftF(1, SymF(2, IdF())),
        QuotF(SumF((IdF(), ConstF(1))), 1),
        TenSymF(),
        TenAltF(),
        Summand("p0", SymF(2, IdF()), 2),
        ShiftMaps("A", "B", True, False, 6, 3),
        DirectionSubspace(R, ("y", "x")),
        DirectionalData("dependent", 0, X, (("x", "x_w"),)),
        BlockSolution(R, -1, (X,), (Y,), (frozenset({0}),)),
        VarietyPresentation("M", (X,), (), "p0"),
        DeltaReport("finite", 2, X),
        AffineAdditiveElement(X, 0, {"x": Y}, Y, ("x",), X),
        CertificateEntry("x", Y, 2),
        EliminationCertificate(X, 0, (CertificateEntry("y", X, 1),), (0, 1), Y),
        Check("x", "pass"),
        Check("y", "fail", witness="w"),
        ProofStepReport(
            X, Vector("direction", ("x",), (1,)), DeltaReport("infinite", None, None), Y, None, None, None, Y,
            None, [], None, "none", (("n", 3),), (), None, [Check("c", "skipped")],
        ),
        RingVariable("x"),
        RingVariable("z", weight=2),
        Vector("point", ("x", "y"), (1, 2)),
    ]


REPRS = [
    "FieldDescriptor(kind='prime-field', characteristic=5, char_exponent=5)",
    "ConstF(size=2)",
    "IdF()",
    "SumF(parts=(IdF(), ConstF(size=1)))",
    "TensorF(factors=(IdF(), IdF()))",
    "SymF(power=2, inner=IdF())",
    "ExtF(power=3, inner=IdF())",
    "ShiftF(by=1, inner=SymF(power=2, inner=IdF()))",
    "QuotF(inner=SumF(parts=(IdF(), ConstF(size=1))), drop_index=1)",
    "TenSymF()",
    "TenAltF()",
    "Summand(label='p0', expr=SymF(power=2, inner=IdF()), degree=2)",
    "ShiftMaps(alpha='A', beta='B', composite_is_identity=True, top_iso_check=False, top_dim_shift=6, top_dim_base=3)",
    "DirectionSubspace(ring=q[x, y], span_vars=('x', 'y'))",
    "DirectionalData(status='dependent', level=0, joint=<x>, copies=(('x', 'x_w'),))",
    "BlockSolution(ring=q[x, y], sign=-1, block_dets=(<x>,), numerators=(<2*y - 1/3>,), depends=(frozenset({0}),))",
    "VarietyPresentation(model='M', generators=(<x>,), q_generators=(), designated_r='p0')",
    "DeltaReport(status='finite', delta=2, witness=<x>)",
    "AffineAdditiveElement(poly=<x>, level=0, additive_part={'x': <2*y - 1/3>}, constant_part=<2*y - 1/3>, "
    "eliminated=('x',), pullback=<x>)",
    "CertificateEntry(variable='x', numerator=<2*y - 1/3>, h_power=2)",
    "EliminationCertificate(unit=<x>, level=0, entries=(CertificateEntry(variable='y', numerator=<x>, h_power=1),), "
    "minor_rows=(0, 1), minor_det=<2*y - 1/3>)",
    "Check(name='x', status='pass', witness='')",
    "Check(name='y', status='fail', witness='w')",
    "ProofStepReport(f=<x>, r0=Vector(space='direction', basis=('x',), coords=(1,)), "
    "delta=DeltaReport(status='infinite', delta=None, witness=None), h=<2*y - 1/3>, data=None, model_big=None, "
    "model_2u=None, h_big=<2*y - 1/3>, universal=None, elements=[], certificate=None, certificate_error='none', "
    "header=(('n', 3),), element_keys=(), delta_witness=None, checks=[Check(name='c', status='skipped', witness='')])",
    "RingVariable(name='x', part='main', weight=1)",
    "RingVariable(name='z', part='main', weight=2)",
    "Vector(space='point', basis=('x', 'y'), coords=(1, 2))",
]

FROZEN = {
    FieldDescriptor, ConstF, IdF, SumF, TensorF, SymF, ExtF, ShiftF, QuotF, TenSymF, TenAltF, Summand,
    ShiftMaps, DirectionSubspace, DirectionalData, BlockSolution, DeltaReport,
    CertificateEntry, RingVariable, Vector,
}


def test_the_pins_cover_every_record_class():
    assert len({type(r) for r in _instances()}) == 25


@pytest.mark.parametrize("index", range(len(REPRS)))
def test_repr_keeps_the_field_form(index):
    assert re.sub(r" at 0x[0-9a-f]+", "", repr(_instances()[index])) == REPRS[index]


POST_INIT_ERRORS = [
    (lambda: ConstF(-1), "constant space dimension must be nonnegative"),
    (lambda: SumF(()), "empty direct sum"),
    (lambda: TensorF([]), "empty tensor product"),
    (lambda: SymF(-1, IdF()), "symmetric power must be nonnegative"),
    (lambda: ExtF(-2, IdF()), "exterior power must be nonnegative"),
    (lambda: ShiftF(-1, IdF()), "shift dimension must be nonnegative"),
    (lambda: QuotF(IdF(), -1), "summand index must be nonnegative"),
    (lambda: QuotF(SumF((IdF(), IdF())), 2), "summand index out of range of the normalised sum"),
    (lambda: RingVariable("1x"), "bad variable name '1x'"),
    (lambda: RingVariable(""), "bad variable name ''"),
    (lambda: RingVariable("x", weight=-1), "variable weight must be nonnegative"),
    (lambda: Vector("point", ("x",), ()), "vector length does not match its basis"),
    (lambda: FieldDescriptor("prime-field", 4, 4), "4 is not prime"),
    (lambda: FieldDescriptor("prime-field", 5, 1), "characteristic exponent must equal p"),
    (lambda: FieldDescriptor("rationals", 2, 1), "rationals must have characteristic 0 and exponent 1"),
    (lambda: FieldDescriptor("reals", 0, 1), "unknown field kind 'reals'"),
    (lambda: DirectionSubspace(R, ()), "direction subspace needs at least one variable"),
    (lambda: DirectionSubspace(R, ("x", "x")), "duplicate span variable 'x'"),
    (lambda: DirectionSubspace(R, ("w",)), "variable 'w' not in ring"),
]


@pytest.mark.parametrize("make, message", POST_INIT_ERRORS)
def test_post_init_checks_raise_their_error(make, message):
    with pytest.raises(AlgebraError) as info:
        make()
    assert type(info.value) is AlgebraError and str(info.value) == message


def test_post_init_normalises_fields():
    assert SumF([IdF()]).parts == (IdF(),)
    assert TensorF(iter([IdF(), ConstF(1)])).factors == (IdF(), ConstF(1))
    assert DirectionSubspace(R, ("y", "x")).span_vars == ("x", "y")


def test_equality_holds_only_within_a_class():
    assert SymF(2, IdF()) == SymF(2, IdF())
    assert SymF(2, IdF()) != ExtF(2, IdF())
    assert IdF() != TenSymF() and TenSymF() != TenAltF()
    assert RingVariable("x") == RingVariable("x", "main", 1) != RingVariable("x", "aux", 1)
    assert Check("x", "pass") == Check("x", "pass", "") != Check("x", "fail")
    assert SymF(2, IdF()) != (2, IdF()) and ConstF(1) != 1


def test_hash_is_the_hash_of_the_field_tuple():
    for record in _instances():
        if type(record) in FROZEN and type(record) is not BlockSolution:
            values = tuple(vars(record).values())
            assert hash(record) == hash(values), record
    assert hash(BlockSolution(R, -1, (X,), (Y,), ())) == hash((R, -1, (X,), (Y,), ()))
    assert hash(ConstF(2)) == hash((2,)) != hash(2)
    assert hash(IdF()) == hash(())
    assert hash(RingVariable("x")) == hash(("x", "main", 1))
    assert hash(FieldDescriptor.prime_field(3)) == hash(("prime-field", 3, 3))
    assert len({SymF(2, IdF()), SymF(2, IdF()), ExtF(2, IdF())}) == 2


@pytest.mark.parametrize("record,values", [
    (ConstF(2), (2,)), (SumF((IdF(), ConstF(1))), ((IdF(), ConstF(1)),)), (IdF(), ()), (TenSymF(), ()),
])
def test_one_and_zero_field_records_compare_and_hash_as_their_field_tuple(record, values):
    assert type(record)._values(record) == values and hash(record) == hash(values)
    assert record == type(record)(*values) and record != values
    others = (ConstF(2), ConstF(3), SumF((IdF(), ConstF(1))), SumF((ConstF(2),)), SumF((IdF(),)), IdF(), TenSymF(),
              TenAltF(), SymF(1, IdF()))
    assert [other for other in others if other == record] == [record]


def test_frozen_records_refuse_assignment_and_deletion():
    for record in _instances():
        if type(record) not in FROZEN:
            continue
        name = re.match(r"\w+\((\w*)", repr(record)).group(1) or "anything"
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)


def test_mutable_records_accept_assignment_and_are_unhashable():
    mutable = [r for r in _instances() if type(r) not in FROZEN]
    assert {type(r).__name__ for r in mutable} == {
        "VarietyPresentation", "AffineAdditiveElement",
        "EliminationCertificate", "Check", "ProofStepReport",
    }
    for record in mutable:
        with pytest.raises(TypeError):
            hash(record)
    check = Check("x", "pass")
    check.status = "fail"
    assert check == Check("x", "fail")


def test_defaults_and_keyword_arguments():
    assert Check("x", "pass").witness == ""
    assert RingVariable("x").weight == 1 and RingVariable("x").part == "main"
    assert RingVariable(weight=3, name="y") == RingVariable("y", "main", 3)
    assert Check(status="pass", name="x", witness="w") == Check("x", "pass", "w")
    assert list(vars(ShiftF(1, IdF()))) == ["by", "inner"]
    # _run_stages fills in the stage results, its runner the rest
    report = ProofStepReport(X, None, None, Y, None, None, None, Y, None, [], None, "")
    assert (report.header, report.element_keys, report.delta_witness, report.checks) == ((), (), None, ())


@pytest.mark.parametrize(
    "make",
    [
        lambda: Check("x"),
        lambda: Check("x", "pass", "w", "extra"),
        lambda: Check("x", "pass", colour="red"),
        lambda: Check("x", "pass", name="y"),
        lambda: IdF(1),
    ],
)
def test_wrong_arguments_raise_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    root = Path(__file__).resolve().parents[1]
    probe = "import sys, polyfunctor.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    ).stdout
    assert out == "[]\n"
