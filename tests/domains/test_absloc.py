"""The interning contract of abstract locations and packs: one canonical
object per class and fields, kept through pickle, copy, the checkpoint
codec and value-table clears, with the sort keys and renderings of the
structural dataclasses they replaced."""

import copy
import json
import pickle

import pytest

from repro.domains.absloc import AllocLoc, FieldLoc, FuncLoc, RetLoc, VarLoc
from repro.domains.packs import Pack
from repro.domains.value import clear_intern_tables
from repro.runtime.checkpoint import (
    loc_from_wire,
    loc_to_wire,
    pack_from_wire,
    pack_to_wire,
)


def _locations():
    """Built afresh on each call, so ``is`` compares separate constructions."""
    return [
        VarLoc("x", "main"),
        VarLoc("g"),
        AllocLoc("main:3"),
        FieldLoc(VarLoc("s", "f"), "next"),
        FieldLoc(FieldLoc(AllocLoc("f:7"), "a"), "b"),
        RetLoc("f"),
        FuncLoc("cb"),
    ]


def _packs():
    return [
        Pack.of([VarLoc("x", "main"), RetLoc("f")]),
        Pack.of([VarLoc("i", "loop")]),
    ]


#: (sort_key, str, repr) of each of ``_locations()``, as the structural
#: dataclasses rendered them before locations were interned
RENDERINGS = [
    (("VarLoc", "main::x"), "main::x", "VarLoc(name='x', proc='main')"),
    (("VarLoc", "g"), "g", "VarLoc(name='g', proc=None)"),
    (("AllocLoc", "alloc<main:3>"), "alloc<main:3>", "AllocLoc(site='main:3')"),
    (
        ("FieldLoc", "f::s.next"),
        "f::s.next",
        "FieldLoc(base=VarLoc(name='s', proc='f'), fieldname='next')",
    ),
    (
        ("FieldLoc", "alloc<f:7>.a.b"),
        "alloc<f:7>.a.b",
        "FieldLoc(base=FieldLoc(base=AllocLoc(site='f:7'), fieldname='a'),"
        " fieldname='b')",
    ),
    (("RetLoc", "ret<f>"), "ret<f>", "RetLoc(proc='f')"),
    (("FuncLoc", "fun<cb>"), "fun<cb>", "FuncLoc(name='cb')"),
]


def test_constructors_return_canonical_instances():
    for first, second in zip(_locations(), _locations()):
        assert first is second
    assert VarLoc("g") is VarLoc("g", None) is VarLoc(name="g", proc=None)
    assert VarLoc("x", "f") is not VarLoc("x", "g")
    assert VarLoc("f") is not FuncLoc("f")


def test_pack_of_is_canonical_whatever_the_member_order():
    a, b = VarLoc("a", "f"), VarLoc("b", "f")
    assert Pack.of([a, b]) is Pack.of([b, a]) is Pack((a, b))
    for first, second in zip(_packs(), _packs()):
        assert first is second


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip_gives_back_the_same_object(protocol):
    for obj in _locations() + _packs():
        assert pickle.loads(pickle.dumps(obj, protocol)) is obj


def test_copy_and_deepcopy_give_back_the_same_object():
    for obj in _locations() + _packs():
        assert copy.copy(obj) is obj
        assert copy.deepcopy(obj) is obj


def test_checkpoint_codec_decodes_to_the_canonical_object():
    for loc in _locations():
        wire = json.loads(json.dumps(loc_to_wire(loc)))
        assert loc_from_wire(wire) is loc
    for pack in _packs():
        wire = json.loads(json.dumps(pack_to_wire(pack)))
        assert pack_from_wire(wire) is pack


def test_fields_are_immutable():
    for obj in _locations() + _packs():
        with pytest.raises(AttributeError):
            obj.name = "y"
    with pytest.raises(AttributeError):
        VarLoc("x", "main").proc = "other"


def test_value_table_clears_leave_locations_canonical():
    before = _locations() + _packs()
    clear_intern_tables()
    after = _locations() + _packs()
    assert all(old is new for old, new in zip(before, after))


def test_sort_key_str_and_repr_are_unchanged():
    got = [(loc.sort_key(), str(loc), repr(loc)) for loc in _locations()]
    assert got == RENDERINGS
    pack = _packs()[0]
    assert pack.sort_key() == ("Pack", ("ret<f>", "main::x"))
    assert str(pack) == "⟪ret<f>, main::x⟫"
    assert repr(pack) == (
        "Pack(members=(RetLoc(proc='f'), VarLoc(name='x', proc='main')))"
    )
    assert sorted(_locations(), key=lambda l: l.sort_key()) == sorted(_locations())
