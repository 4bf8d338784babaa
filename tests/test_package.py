"""The package's public names: one frozen set, importable every way."""

import perron

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
