"""Record types: plain immutable classes, no dataclasses.

Creating a dataclass cost about 1 ms of every CLI start, so no record is
one. A record rejects assignment, and the records that hold no array
compare and hash by value.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import pzbeam
from pzbeam import GeneralizedState, Section, builtin_materials, condense_to_plane, \
    convert_d_to_e, load_layup, make_beam, reduce_section
from pzbeam.materials import _Record

DOCS = Path(__file__).resolve().parent.parent / "docs"


def _modules():
    return [importlib.import_module(f"pzbeam.{info.name}")
            for info in pkgutil.iter_modules(pzbeam.__path__)]


def test_no_module_defines_a_dataclass():
    for module in _modules():
        tree = ast.parse(inspect.getsource(module))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "dataclasses" not in imported, module.__name__
        assert not [name for name, obj in vars(module).items()
                    if isinstance(obj, type) and hasattr(obj, "__dataclass_fields__")]


def _one_of_each_record():
    materials = builtin_materials()
    section = load_layup(DOCS / "sandwich.json")
    beam = make_beam(section, "nsr", 0.1)
    return [materials["PZT-5H"], materials["Al-6061"], materials["PZT-5H"].plane, section,
            GeneralizedState(eps=1e-4, voltages=(1.0,)),
            beam.constitutive, beam]


def test_every_record_rejects_assignment():
    records = _one_of_each_record()
    defined = {obj for module in _modules() for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, _Record) and obj is not _Record}
    assert {type(r) for r in records} == defined
    for record in records:
        for field in record._fields + ("not_a_field",):
            with pytest.raises(AttributeError):
                setattr(record, field, 0.0)
        with pytest.raises(AttributeError):
            delattr(record, record._fields[0])


def test_no_record_gains_state_after_its_constructor():
    # each record is built anew from its fields, so nothing read earlier is stored
    for built in _one_of_each_record():
        record = type(built)(*built._astuple(built))
        before = dict(vars(record))
        for name in dir(record):
            if not name.startswith("_"):
                getattr(record, name)
        assert vars(record).keys() == before.keys(), type(record).__name__
        assert all(vars(record)[name] is value for name, value in before.items())


def _value_pairs():
    """(record, an equal record built apart from it, an unequal record) per class."""
    records = builtin_materials()
    # the built-in record condenses once per process: the twin is condensed apart
    pzt, twin = records["PZT-5H"].plane, condense_to_plane(convert_d_to_e(records["PZT-5H"]))
    al = records["Al-6061"].plane
    section, rebuilt = (load_layup(DOCS / "sandwich.json") for _ in range(2))
    return [
        (pzt, twin, al),
        (Section((pzt,), (2.7e-4,), (1,), (True,), 0.01),
         Section([twin], [2.7e-4], [1], [True], width=0.01),
         Section((pzt,), (2.7e-4,), (-1,), (True,), 0.01)),
        (section, rebuilt, load_layup(DOCS / "unimorph.json")),
        (GeneralizedState(1e-4, 0.5, [1]), GeneralizedState(eps=1e-4, kappa=0.5, voltages=(1.0,)),
         GeneralizedState(1e-4, 0.5, (2.0,))),
    ]


@pytest.mark.parametrize("record, equal, other", _value_pairs(),
                         ids=["PlaneMaterial", "Section-from-columns", "Section",
                              "GeneralizedState"])
def test_value_records_compare_and_hash_by_value(record, equal, other):
    assert record is not equal and record == equal and hash(record) == hash(equal)
    assert record != other and not record == other
    assert record != tuple(getattr(record, f) for f in record._fields)
    assert len({record, equal, other}) == 2
    assert repr(record) == repr(equal) and repr(record).startswith(f"{type(record).__name__}(")


def test_cached_properties_stay_out_of_a_records_value():
    section, rebuilt = (load_layup(DOCS / "sandwich.json") for _ in range(2))
    assert section.terminals and section._table is section._table
    assert section == rebuilt and hash(section) == hash(rebuilt)


def test_one_field_record_compares_as_a_tuple():
    # SectionConstitutive holds one array: it behaves like every record that holds one
    section = load_layup(DOCS / "sandwich.json")
    k, equal = (reduce_section(section, "nsr") for _ in range(2))
    assert k._fields == ("matrix",) and k._astuple(k) == (k.matrix,)
    assert (k == k) is True
    with pytest.raises(ValueError, match="ambiguous"):
        k == equal
    with pytest.raises(TypeError, match="unhashable"):
        hash(k)
