"""The value classes: constructors by position and keyword with their
defaults, equality and hash over the compared fields, no assignment, and
the point checks of pointed models and actions."""

import pytest

from detl.action import ActionModel, PointedAction
from detl.formula import BOT, TOP, Signature
from detl.kripke import KripkeModel, PointedModel, PropertyReport
from detl.logic import Bisimulation
from detl.semantics import ProbeVerdict

SIG = Signature(("a",), ("p",))
FRAME = (SIG, ("e", "f"), {"a": [("e", "f")]}, [("e", "f")])
PRE = {"e": TOP, "f": TOP}


def _model():
    return KripkeModel(SIG, ("w", "v"), {"a": [("w", "v")]}, [("v", "w")],
                       {"p": ["w"]})


def test_positional_and_keyword_construction_agree():
    M = _model()
    assert M == KripkeModel(sig=SIG, worlds=("v", "w"),
                            epistemic={"a": [("w", "v")]},
                            yesterday=[("v", "w")], valuation={"p": ["w"]})
    assert M.worlds == ("v", "w") and M.valuation == (("p", ("w",)),)
    U = ActionModel(*FRAME, PRE, "V")
    assert U.name == "V" and U == ActionModel(
        sig=SIG, events=("f", "e"), epistemic={"a": [("e", "f")]},
        yesterday=[("e", "f")], pre=PRE, name="V")
    assert Signature(atoms=("q", "p"), agents=("a",)).atoms == ("p", "q")
    assert PropertyReport(property="x", holds=False, witness=(1,)).witness \
        == (1,)
    assert PointedModel(point="w", model=M) == PointedModel(M, "w")


def test_defaults():
    assert PropertyReport("x", True).witness is None
    assert ProbeVerdict(True).distinguishing is None
    assert ActionModel(*FRAME, PRE).name == "U"


@pytest.mark.parametrize("make", [
    lambda: Signature(("a",)),  # a field missing
    lambda: Signature(("a",), (), ()),  # one too many
    lambda: Signature(("a",), agents=("a",), atoms=()),  # given twice
    lambda: Signature(("a",), atoms=(), colour="red"),  # not a field
    lambda: PropertyReport("x"),
])
def test_wrong_arguments_are_a_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_equality_and_hash_ignore_the_action_name():
    U, V = ActionModel(*FRAME, PRE, "U"), ActionModel(*FRAME, PRE, "V")
    assert U == V and hash(U) == hash(V) and len({U, V}) == 1
    W = ActionModel(*FRAME, {"e": TOP, "f": BOT}, "U")
    assert U != W


def test_equality_is_by_class_and_fields():
    assert PropertyReport("x", True) == PropertyReport("x", True, None)
    assert PropertyReport("x", True) != PropertyReport("x", True, ())
    assert hash(PropertyReport("x", False, (1,))) == \
        hash(PropertyReport("x", False, (1,)))
    assert Bisimulation(frozenset()) != ProbeVerdict(frozenset())
    assert _model() == _model() and hash(_model()) == hash(_model())


@pytest.mark.parametrize("value,field", [
    (_model(), "worlds"),
    (ActionModel(*FRAME, PRE), "name"),
    (SIG, "agents"),
    (PropertyReport("x", True), "holds"),
    (PointedModel(_model(), "w"), "point"),
])
def test_values_are_immutable(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_repr_names_the_fields():
    assert repr(PropertyReport("x", False, ("w",))) == \
        "PropertyReport(property='x', holds=False, witness=('w',))"
    assert repr(SIG) == "Signature(agents=('a',), atoms=('p',))"


def test_points_are_checked():
    assert PointedModel(_model(), "v").point == "v"
    with pytest.raises(KeyError):
        PointedModel(_model(), "x")
    assert PointedAction(ActionModel(*FRAME, PRE), "f").point == "f"
    with pytest.raises(KeyError):
        PointedAction(ActionModel(*FRAME, PRE), "x")
