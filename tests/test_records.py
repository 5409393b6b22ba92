"""The public records: repr text, equality, hashing, immutability, defaults and `_replace`.

Each repr is the text the package printed when these records were frozen
dataclasses, so logs and doctest-style output read the same.  A model's
memo, what its checks computed, is no part of its value.
"""
from __future__ import annotations

import pickle
from fractions import Fraction as F

import pytest

from screenoff.corpus import CorpusEntry, random_quantal, random_stochastic
from screenoff.modelfile import LoadedModel
from screenoff.quantal import ComplexFraction, check_qso2
from screenoff.report import CheckReport, Counterexample, EventRef
from screenoff.stochastic import check_so1

CX = Counterexample(
    regions=(("A", ("a",)),), events=(("A", EventRef(1, 2, "a=0")),), values=(("mu", "1/2"),), note="n"
)
CX_TEXT = (
    "Counterexample(regions=(('A', ('a',)),), events=(('A', EventRef(mask=1, omega=2, expr='a=0')),), "
    "values=(('mu', '1/2'),), note='n')"
)

# name: (the class, its fields as keywords, field changes for `_replace`, repr text)
RECORDS = {
    "EventRef": (EventRef, dict(mask=5, omega=4, expr="a=0"), {"mask": 6}, "EventRef(mask=5, omega=4, expr='a=0')"),
    "Counterexample": (Counterexample, CX._asdict(), {"note": "m", "values": ()}, CX_TEXT),
    "CheckReport": (
        CheckReport,
        dict(condition="so1", verdict="violated", counterexample=CX, reason=None, stats={"pairs": 3}),
        {"condition": "so2", "stats": {}},
        f"CheckReport(condition='so1', verdict='violated', counterexample={CX_TEXT}, reason=None, "
        "stats={'pairs': 3})",
    ),
    "LoadedModel": (
        LoadedModel,
        dict(model="m", named_events={"A": "a=0"}, named_regions={"R": ("a", "b")}),
        {"named_regions": {}},
        "LoadedModel(model='m', named_events={'A': 'a=0'}, named_regions={'R': ('a', 'b')})",
    ),
    "CorpusEntry": (
        CorpusEntry,
        dict(name="e", model="m", expected={"so1": "holds"}, note="note", named_events={"A": "a=0"}),
        {"expected": {"so1": "violated"}},
        "CorpusEntry(name='e', model='m', expected={'so1': 'holds'}, note='note', named_events={'A': 'a=0'})",
    ),
    "ComplexFraction": (
        ComplexFraction,
        dict(re=F(1, 2), im=F(-1, 3)),
        None,  # no `_replace`: arithmetic builds every new value
        "ComplexFraction(re=Fraction(1, 2), im=Fraction(-1, 3))",
    ),
}


@pytest.mark.parametrize("record, text", [
    (EventRef(5, 4), "EventRef(mask=5, omega=4, expr=None)"),
    (Counterexample(), "Counterexample(regions=(), events=(), values=(), note='')"),
    (CheckReport("so1", "holds"),
     "CheckReport(condition='so1', verdict='holds', counterexample=None, reason=None, stats={})"),
    (CheckReport("so1", "vacuous", reason="no pairs"),
     "CheckReport(condition='so1', verdict='vacuous', counterexample=None, reason='no pairs', stats={})"),
    (LoadedModel("m", {}, {}), "LoadedModel(model='m', named_events={}, named_regions={})"),
    (ComplexFraction(), "ComplexFraction(re=Fraction(0, 1), im=Fraction(0, 1))"),
    *((cls(**fields), text) for cls, fields, _, text in RECORDS.values()),
])
def test_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("name", RECORDS)
class TestContract:
    def test_equality(self, name):
        cls, fields, _, _ = RECORDS[name]
        a, b = cls(**fields), cls(**fields)
        assert a is not b and a == b and not a != b

    def test_hash(self, name):
        # the hash of the tuple of the fields, as for a frozen dataclass
        cls, fields, _, _ = RECORDS[name]
        if any(isinstance(value, dict) for value in fields.values()):
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(cls(**fields))
        else:
            assert hash(cls(**fields)) == hash(tuple(fields.values()))
            assert len({cls(**fields), cls(**fields)}) == 1

    def test_assignment_is_refused(self, name):
        cls, fields, _, text = RECORDS[name]
        record = cls(**fields)
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
        assert repr(record) == text

    def test_replace(self, name):
        cls, fields, changes, text = RECORDS[name]
        record = cls(**fields)
        if changes is None:
            assert not hasattr(record, "_replace")
            return
        changed = record._replace(**changes)
        assert changed == cls(**{**fields, **changes}) != record
        assert repr(record) == text


def test_defaults():
    assert EventRef(5, 4).expr is None
    assert Counterexample() == Counterexample((), (), (), "")
    a, b = CheckReport("c", "holds"), CheckReport("c", "holds")
    assert (a.counterexample, a.reason, a.stats) == (None, None, {})
    assert a.stats is not b.stats  # a fresh dict per report
    assert ComplexFraction() == ComplexFraction(F(0), F(0))
    # named extras have no default, so no two records share one mutable dict
    with pytest.raises(TypeError):
        LoadedModel("m", {})
    with pytest.raises(TypeError):
        CorpusEntry("e", "m", {}, "note")


def test_a_complex_fraction_is_no_tuple():
    z = ComplexFraction(F(1), F(2))
    assert z != (F(1), F(2)) and z != 1
    with pytest.raises(TypeError):
        len(z)
    with pytest.raises(TypeError):
        iter(z)


def test_check_report_replace_refuses_an_unknown_field():
    with pytest.raises(TypeError):
        CheckReport("c", "holds")._replace(verdit="violated")


@pytest.mark.parametrize("draw, check", [(random_stochastic, check_so1), (random_quantal, check_qso2)])
def test_a_models_memo_is_no_part_of_its_value(draw, check):
    # equality, hash and repr read a model's data, not what its checks
    # computed; a checked model pickles with its memo and loads equal
    checked, fresh = draw(3), draw(3)
    report = check(checked).to_json_dict()
    assert checked._memo and fresh._memo == {}
    assert checked == fresh and hash(checked) == hash(fresh) and repr(checked) == repr(fresh)
    loaded = pickle.loads(pickle.dumps(checked))
    assert loaded == checked and hash(loaded) == hash(checked) and repr(loaded) == repr(checked)
    assert check(loaded).to_json_dict() == check(fresh).to_json_dict() == report
