"""The value classes: immutability, equality and hashing where code relies
on them, fresh mutable defaults, and the checks their constructors make."""

from fractions import Fraction

import pytest

import scx.alex  # noqa: F401  (defines four of the classes)
from scx.algebra import QQ, Frozen, LaurentRing
from scx.chain import BettiVector
from scx.groups import (FiniteQuotient, GroupError, GroupPresentation,
                        permutation_quotient)
from scx.scxio import RepDocument, ScxDocument
from scx.sutured import SuturedError, ValidationReport, Verdict

R = LaurentRing(QQ)
PRES = GroupPresentation(("a", "b"), ())

# class name -> (constructor arguments, the fields == and hash go by); the
# values are placeholders, since only GroupPresentation and Verdict check
# theirs, and a class with no key fields compares by identity
FROZEN = {
    "AlexOrder": ((0, R.zero), ()),
    "ThurstonReport": (((), None, "", 1), ()),
    "DetFormReport": ((False, None, None, None, None, ""), ()),
    "DetabReport": ((1, None, True, True), ()),
    "LaurentPoly": ((0, ()), ("low", "coeffs")),
    "SubcomplexRef": (("R-", frozenset()), ()),
    "TwistedComplex": ((QQ, 1, {}, {}), ()),
    "BettiVector": (((0, 0, 0, 0), 1, "Q"), ("b", "k", "field_name")),
    "CheckReport": (("euler", True, {}), ()),
    "CellMap": ((None, None, (), {}), ()),
    "GroupPresentation": ((("x",), ()), ("gens", "relators")),
    "CohomologyClass": (({},), ()),
    "FiniteQuotient": ((PRES, 1, ((0,), (0,)), ((0,),)),
                       ("pres", "degree", "images")),
    "Representation": ((PRES, 1, QQ, (), (), "trivial", True), ()),
    "Verdict": (("unknown", None, {}), ()),
    "BoundReport": ((Fraction(0), 0, 0, 0, 0, 1, False), ()),
    "DoubleResult": ((None, None, None, {}), ()),
}


def _frozen_classes():
    found, todo = {}, [Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("scx."):
                found[sub.__name__] = sub
                todo.append(sub)
    return found


def test_every_frozen_class_is_listed():
    assert sorted(_frozen_classes()) == sorted(FROZEN)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_refuses_assignment(name):
    obj = _frozen_classes()[name](*FROZEN[name][0])
    field = next(iter(vars(obj)))
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, "changed")
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.new_field = 1
    assert getattr(obj, field) is before


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_fields_are_the_arguments_in_order(name):
    cls = _frozen_classes()[name]
    args = FROZEN[name][0]
    obj = cls(*args)
    assert tuple(vars(obj)) == cls._fields
    assert all(getattr(obj, f) is a for f, a in zip(cls._fields, args))
    for wrong in (args[:-1], args + (None,)):
        with pytest.raises(TypeError):
            cls(*wrong)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_equality_goes_by_the_key(name):
    """A class with key fields compares, hashes and prints by them and by
    nothing else; every other class compares by identity."""
    cls = _frozen_classes()[name]
    args, key = FROZEN[name]
    one, two = cls(*args), cls(*args)
    assert cls._key == key
    if not key:
        assert one != two and not one == two and one == one
        assert hash(one) == object.__hash__(one)
        assert repr(one) == object.__repr__(one)
        return
    assert one == two and not one != two and hash(one) == hash(two)
    assert repr(one) == (f"{name}(" + ", ".join(
        f"{f}={getattr(one, f)!r}" for f in key) + ")")
    for field in cls._fields:
        other = cls.__new__(cls)
        vars(other).update(vars(one), **{field: object()})
        assert (other == one) is (field not in key), field


def test_mutable_defaults_are_fresh():
    one, two = ScxDocument(), ScxDocument()
    one.boundaries["e"] = ()
    one.subs["R-"] = ("v",)
    one.metas["sutures"] = "1"
    one.phis["ab"] = {"x": 1}
    assert (two.boundaries, two.subs, two.metas, two.phis) == ({}, {}, {}, {})
    assert one != two and ScxDocument() == two
    rep_one, rep_two = RepDocument("perm"), RepDocument("perm")
    rep_one.perms["x"] = "(1 2)"
    rep_one.matrices["x"] = [[1]]
    assert (rep_two.perms, rep_two.matrices) == ({}, {})
    report_one, report_two = ValidationReport(), ValidationReport()
    report_one.add("error", "boom")
    assert report_two.entries == [] and report_two.ok


def test_presentation_checks_its_input():
    with pytest.raises(GroupError, match="duplicate generator names"):
        GroupPresentation(("x", "x"), ())
    for letter in (0, 2, -2):
        with pytest.raises(GroupError,
                           match="relator uses undeclared generator"):
            GroupPresentation(("x",), ((1, letter),))


def test_verdict_checks_its_status():
    with pytest.raises(SuturedError, match="unknown verdict status"):
        Verdict("certified-maybe", None, {})


def test_quotient_equality_ignores_elements():
    q = permutation_quotient(PRES, 3, {"a": "(1 2)", "b": "(1 2 3)"})
    other = FiniteQuotient(GroupPresentation(("a", "b"), ()), q.degree,
                           q.images, q.elements[:1])
    assert other == q and hash(other) == hash(q)
    assert FiniteQuotient(PRES, 3, q.images[::-1], q.elements) != q


def test_equal_values_hash_equal():
    p, q = R.poly(1, [2, 0, 3]), R.poly(0, [0, 2, 0, 3, 0])
    assert p is not q and p == q and hash(p) == hash(q)
    assert p != R.poly(0, [2, 0, 3])
    a = BettiVector((0, 1, 0, 0), 2, "Q")
    b = BettiVector((0, 1, 0, 0), 2, "Q")
    assert a == b and hash(a) == hash(b)
    assert a != BettiVector((0, 1, 0, 0), 1, "Q")
