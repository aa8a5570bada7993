"""The scalar records of dsf, families and spectra are frozen value objects with
the semantics of the frozen dataclasses they replace."""

import copy
import pickle

import pytest

from defosc import (
    CoefficientSet,
    DeformationParams,
    DegeneracyRoot,
    DomainError,
    FamilyId,
    FamilyTag,
    GHPair,
    SpectrumReport,
    StructureFunction,
)

A = FamilyId(FamilyTag.A)
B = FamilyId(FamilyTag.B)

# (class, fields in order, repr of the frozen dataclass built from them)
RECORDS = [
    (FamilyId, {"tag": FamilyTag.BT, "c0": 2.0, "d0": 0.5},
     "FamilyId(tag=<FamilyTag.BT: 'Bt'>, c0=2.0, d0=0.5)"),
    (DeformationParams, {"q": 1.2, "p": 1.1},
     "DeformationParams(q=1.2, p=1.1)"),
    (StructureFunction, {"family": A, "params": DeformationParams(1.05), "kind": "recipe"},
     "StructureFunction(family=FamilyId(tag=<FamilyTag.A: 'A'>, c0=1.0, d0=1.0), "
     "params=DeformationParams(q=1.05, p=None), kind='recipe')"),
    (CoefficientSet, {"f": abs, "g": len, "h": min, "k": max},
     "CoefficientSet(f=<built-in function abs>, g=<built-in function len>, "
     "h=<built-in function min>, k=<built-in function max>)"),
    (GHPair, {"G": abs, "H": len, "R": None},
     "GHPair(G=<built-in function abs>, H=<built-in function len>, R=None)"),
    (SpectrumReport, {"family": B, "params": DeformationParams(1.1),
                      "energies": ((0, 0.5475113122171946), (1, 1.9821551525150034))},
     "SpectrumReport(family=FamilyId(tag=<FamilyTag.B: 'B'>, c0=1.0, d0=1.0), "
     "params=DeformationParams(q=1.1, p=None), "
     "energies=((0, 0.5475113122171946), (1, 1.9821551525150034)))"),
    (DegeneracyRoot, {"n": 10, "m": 0, "q_star": 1.25, "residual": 0.0, "bracket": (1.2, 1.3)},
     "DegeneracyRoot(n=10, m=0, q_star=1.25, residual=0.0, bracket=(1.2, 1.3))"),
]
IDS = [case[0].__name__ for case in RECORDS]


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=IDS)
class TestRecordSemantics:
    def test_repr(self, cls, fields, text):
        assert repr(cls(**fields)) == text

    def test_keyword_and_positional_construction(self, cls, fields, text):
        record = cls(*fields.values())
        assert record == cls(**fields)
        assert {name: getattr(record, name) for name in fields} == fields

    def test_equal_and_hash_only_within_one_class(self, cls, fields, text):
        record, values = cls(**fields), tuple(fields.values())
        assert record == cls(**fields) and hash(record) == hash(cls(**fields)) == hash(values)
        assert record != values and record.__eq__(values) is NotImplemented
        subclass = type("Sub", (cls,), {"__slots__": ()})
        assert record != subclass(**fields)
        for other_cls, other_fields, _ in RECORDS:
            if other_cls is not cls:
                assert record != other_cls(**other_fields)

    def test_assignment_and_deletion_raise(self, cls, fields, text):
        record = cls(**fields)
        name = next(iter(fields))
        with pytest.raises(AttributeError):
            setattr(record, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record == cls(**fields)

    def test_pickle_and_copy_round_trip(self, cls, fields, text):
        record = cls(**fields)
        for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
            assert type(twin) is cls and twin == record and repr(twin) == text


def test_printed_family_id_equals_a_parsed_one():
    assert FamilyId(FamilyTag.A) == FamilyId.parse("a")
    assert hash(FamilyId(FamilyTag.A)) == hash(FamilyId.parse("a"))


def test_defaults():
    assert FamilyId(FamilyTag.A) == FamilyId(FamilyTag.A, 1.0, 1.0)
    assert DeformationParams(1.1).p is None
    assert StructureFunction(A, DeformationParams(1.1)).kind == "closed-form"
    assert GHPair(abs, len).R is None


def test_zero_p_is_refused():
    with pytest.raises(DomainError, match=r"^p = 0 is not admissible"):
        DeformationParams(1.0, 0)


def test_recipe_records_compare_by_family_and_params():
    params = DeformationParams(q=1.2, p=1.1)
    recipe = StructureFunction.from_gh("At", params)
    assert recipe == StructureFunction.from_gh("at", DeformationParams(q=1.2, p=1.1))
    assert hash(recipe) == hash(StructureFunction.from_gh("At", params))
    assert recipe != StructureFunction.closed_form("At", params)
    assert pickle.loads(pickle.dumps(recipe))(12) == recipe(12)


@pytest.mark.parametrize("family,params", [("At", 1.1), ("A", DeformationParams(1.2, 1.1)),
                                           ("A", -1.0), ("B", 1j)])
def test_recipe_refuses_bad_arguments_at_construction(family, params):
    with pytest.raises(DomainError, match="^gh_pair"):
        StructureFunction.from_gh(family, params)
