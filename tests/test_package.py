"""The package's public names: one frozen set, importable every way, and
loaded only as far as a process uses them; the public result types' value
contract."""

import copy
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import perron

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PUBLIC = [
    "BoundaryCover", "CapTooSmallWarning", "CoverReport", "CylinderInterval",
    "DigitPredicate", "DigitRule", "DigitWord", "DimensionEstimate", "DomainError",
    "ExactQ", "FROM_INF", "FamilySet", "ISPoint", "QInterval", "Sign", "TO_SUP",
    "TransformKind", "ValidityError", "__version__", "all_digits", "alphabet_restrict",
    "alternating_digits", "bounded_ratio", "cover_boundary", "cover_interval", "cylinder",
    "enumerate_compatible_bases", "family_set_hull", "growth_floor", "measure_at_rank",
    "moran_dimension", "partial_sum", "pierce_notation_convert", "positive_digits",
    "pressure_root", "ratio_limit_window", "rule_value", "split_parameters",
    "split_to_finite", "t_ratio", "traditional_pierce_digits", "transform_digits",
    "transform_point", "validate_word", "verify_cover", "word_diameter",
]


def test_public_names_are_frozen():
    assert len(PUBLIC) == 46
    assert sorted(perron.__all__) == PUBLIC
    assert len(set(perron.__all__)) == len(perron.__all__)
    for name in PUBLIC:
        assert getattr(perron, name) is not None, name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from perron import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    assert namespace["DigitRule"] is perron.core.DigitRule


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(perron))


# Loaded only where a process uses them: the three lazy perron modules; and
# dataclasses and inspect, which no perron module needs and whose import
# costs every CLI process milliseconds.
WATCHED = ("perron.coverings", "perron.dimension", "perron.transforms", "dataclasses", "inspect")


def _lazy_modules_loaded(code: str) -> set:
    """The WATCHED modules, perron's without the package prefix, that a
    fresh interpreter has loaded after running code."""
    report = "import sys, json; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=60, check=True,
    )
    loaded = json.loads(proc.stdout.splitlines()[-1])
    return {name.removeprefix("perron.") for name in WATCHED if name in loaded}


def test_import_perron_loads_only_core_and_errors():
    assert _lazy_modules_loaded("import perron") == set()


def test_a_lazy_name_loads_its_module_and_binds_the_same_object():
    code = "import perron; assert perron.pressure_root is perron.dimension.pressure_root"
    assert _lazy_modules_loaded(code) == {"dimension"}
    assert _lazy_modules_loaded("import perron; perron.coverings") == {"coverings"}
    assert perron.TransformKind is perron.transforms.TransformKind
    assert perron.__getattr__("transforms") is perron.transforms
    with pytest.raises(AttributeError):
        perron.no_such_name


@pytest.mark.parametrize("code, module", [
    ("from perron import cover_interval", "coverings"),
    ("import perron; perron.verify_cover", "coverings"),
    ("from perron import transform_digits", "transforms"),
    ("import perron; perron.TransformKind", "transforms"),
    ("from perron import measure_at_rank", "dimension"),
])
def test_a_lazy_name_loads_only_the_module_that_declares_it(code, module):
    assert _lazy_modules_loaded(code) == {module}


def test_all_and_dir_list_the_public_names_without_loading_a_module():
    code = "import perron; assert len(perron.__all__) == 46 and set(perron.__all__) <= set(dir(perron))"
    assert _lazy_modules_loaded(code) == set()


@pytest.mark.parametrize("argv, modules", [
    (["expand", "--system", "engel", "--x", "3/7", "--n", "5"], set()),
    (["cylinder", "--system", "luroth", "--word", "2,3", "--sign", "P"], set()),
    (["dim", "--system", "engel", "--rank", "1", "--cap", "8"], {"dimension"}),
    (["measure", "--system", "pierce", "--predicate", "bounded-ratio:2", "--rank", "2",
      "--cap", "8"], {"dimension"}),
    (["transform-point", "--kind", "t", "--x", "1/3", "--rank", "4"], {"transforms"}),
    (["cover", "--system", "engel", "--sign", "P", "--lo", "1/5", "--hi", "1/3"], {"coverings"}),
])
def test_each_cli_command_loads_only_the_modules_it_runs(argv, modules):
    code = f"from perron.cli import run; assert run({argv!r}) == 0"
    assert _lazy_modules_loaded(code) == modules


_SET = "FamilySet(sign=<Sign.ALTERNATING: 'P-'>, prefix=(3,), start=5, end=None)"

# Each public record made by keyword with its defaults left out, and its repr
RECORDS = [
    (lambda: perron.DigitRule(kind="engel", a=1, b=-1),
     "DigitRule(kind='engel', phi0=1, a=1, b=-1, fn=None)"),
    (lambda: perron.ISPoint(rank=2, digits=(3,)), "ISPoint(rank=2, digits=(3,))"),
    (lambda: perron.CylinderInterval(lo=Fraction(1, 3), hi=Fraction(1, 2), lo_included=False,
                                     hi_included=True, sign=perron.Sign.POSITIVE, word=(2,)),
     "CylinderInterval(lo=Fraction(1, 3), hi=Fraction(1, 2), lo_included=False, "
     "hi_included=True, sign=<Sign.POSITIVE: 'P'>, word=(2,))"),
    (lambda: perron.FamilySet(sign=perron.Sign.ALTERNATING, prefix=[3], start=5), _SET),
    (lambda: perron.QInterval(lo=0, hi=1),
     "QInterval(lo=Fraction(0, 1), hi=Fraction(1, 1), lo_included=False, hi_included=True)"),
    (lambda: perron.BoundaryCover(tight=(perron.FamilySet(perron.Sign.ALTERNATING, (3,), 5),),
                                  single=perron.FamilySet(perron.Sign.ALTERNATING, (3,), 5)),
     f"BoundaryCover(tight=({_SET},), single={_SET})"),
    (lambda: perron.CoverReport(covers=True, max_diameter=Fraction(1, 6), cost=0.5),
     "CoverReport(covers=True, max_diameter=Fraction(1, 6), cost=0.5)"),
    (lambda: perron.DimensionEstimate(rank=2, digit_cap=8, s_value=0.5, residual=1e-09,
                                      bases_count=12),
     "DimensionEstimate(rank=2, digit_cap=8, s_value=0.5, residual=1e-09, bases_count=12)"),
    (lambda: perron.TransformKind(name="t-engel"), "TransformKind(name='t-engel', rule=None)"),
]


@pytest.mark.parametrize("make, text", RECORDS, ids=[t[: t.index("(")] for _, t in RECORDS])
def test_records_are_frozen_values(make, text):
    rec = make()
    cls, fields = type(rec), type(rec).__match_args__
    values = tuple(getattr(rec, name) for name in fields)
    assert repr(rec) == text
    assert list(vars(rec)) == list(fields)
    # equal to the record of its fields, made positionally or by keyword,
    # and to nothing else: not its tuple, nor a record of another class
    assert rec == cls(*values) == cls(**dict(zip(fields, values)))
    assert rec != values and values != rec
    assert all(rec != other() for other, _ in RECORDS if other is not make)
    assert hash(rec) == hash(values) == hash(make())
    match rec:
        case cls(first, second):
            assert (first, second) == values[:2]
        case _:
            raise AssertionError("no match on __match_args__")
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], None)
    with pytest.raises(AttributeError):
        delattr(rec, fields[0])
    assert getattr(rec, fields[0]) is values[0]
    for twin in (pickle.loads(pickle.dumps(rec)), copy.copy(rec)):
        assert type(twin) is cls and twin == rec and vars(twin) == vars(rec)
