"""Command-line front end: JSON output, exit codes, pipelines."""

import argparse
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from perron import (
    CapTooSmallWarning,
    DigitRule,
    Sign,
    TransformKind,
    alternating_digits,
    cli,
    growth_floor,
    pressure_root,
    transform_digits,
    transform_point,
)


def run_cli(capsys, argv, stdin="", env=None, monkeypatch=None):
    if stdin and monkeypatch is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.run(argv)
    out, err = capsys.readouterr()
    return code, out, err


def lines(out):
    return [json.loads(ln) for ln in out.splitlines() if ln]


# ---------------------------------------------------------------------------
# worked command outputs, byte-exact
# ---------------------------------------------------------------------------


def test_expand(capsys):
    code, out, _ = run_cli(capsys, ["expand", "--system", "engel", "--x", "3/8", "--n", "4"])
    assert code == 0
    assert out == '{"digits":[3,9,9,9]}\n'


def test_cylinder(capsys):
    code, out, _ = run_cli(
        capsys, ["cylinder", "--system", "engel", "--word", "2,3", "--sign", "P"]
    )
    assert code == 0
    assert out == '{"lo":"2/3","hi":"3/4","diam":"1/12"}\n'


def test_alt_expand_termination(capsys):
    code, out, _ = run_cli(
        capsys, ["alt-expand", "--system", "pierce", "--x", "2/5", "--n", "4"]
    )
    assert code == 0
    assert out == '{"digits":[3],"is_point":true,"rank":2}\n'


def test_alt_expand_full_word(capsys):
    code, out, _ = run_cli(
        capsys, ["alt-expand", "--system", "luroth", "--x", "2/3", "--n", "3"]
    )
    assert code == 0
    assert out == '{"digits":[2,2,2]}\n'


def test_eval(capsys):
    code, out, _ = run_cli(
        capsys, ["eval", "--system", "luroth", "--word", "2", "--sign", "P"]
    )
    assert code == 0
    assert out == '{"value":"1/2"}\n'


def test_cover_three_sets(capsys):
    code, out, _ = run_cli(
        capsys,
        ["cover", "--system", "luroth", "--sign", "P", "--lo", "21/100", "--hi", "3/5"],
    )
    assert code == 0
    assert lines(out) == [
        {"sign": "P", "prefix": [5], "from": 2, "to": 5},
        {"sign": "P", "prefix": [], "from": 3, "to": 4},
        {"sign": "P", "prefix": [2], "from": 6, "to": "inf"},
    ]


def test_split_blocks(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "split", "--system", "luroth", "--sign", "P",
            "--from", "2", "--alpha", "1", "--eps", "0.5", "--blocks", "3",
        ],
    )
    assert code == 0
    blocks = lines(out)
    assert len(blocks) == 3
    assert blocks[0]["from"] == 2
    for a, b in zip(blocks, blocks[1:]):
        assert b["from"] == a["to"] + 1


def test_split_negative_blocks_is_a_domain_error(capsys):
    code, out, err = run_cli(
        capsys,
        [
            "split", "--system", "luroth", "--sign", "P",
            "--from", "2", "--alpha", "1", "--eps", "0.5", "--blocks", "-1",
        ],
    )
    assert code == 3
    assert out == ""
    assert "--blocks" in err


@pytest.mark.parametrize("start,alpha,code", [("1", "0.5", 2), ("2", "-1", 3)])
def test_split_checks_its_arguments_without_blocks(capsys, start, alpha, code):
    # --blocks 0 asks for no block; a bad --from or --alpha is still an error
    got, out, err = run_cli(
        capsys,
        [
            "split", "--system", "luroth", "--sign", "P",
            "--from", start, "--alpha", alpha, "--eps", "0.5", "--blocks", "0",
        ],
    )
    assert (got, out) == (code, "") and "error" in err


def test_split_ratio_whose_power_overflows_a_float(capsys):
    # 2**2000 is beyond float range, so s = 2 passes s**alpha > 1 + 1/eps;
    # the ratio search used to end in an OverflowError traceback (exit 1)
    code, out, err = run_cli(
        capsys,
        [
            "split", "--system", "luroth", "--sign", "P",
            "--from", "2", "--alpha", "2000", "--eps", "0.5", "--blocks", "2",
        ],
    )
    assert (code, err) == (0, "")
    assert out == (
        '{"sign":"P","prefix":[],"from":2,"to":4}\n'
        '{"sign":"P","prefix":[],"from":5,"to":13}\n'
    )


def test_float_flags_exit_with_a_documented_code(capsys):
    # every cell of this grid of extreme float flags ends in one of the
    # documented exit codes and raises nothing out of cli.run
    split = ["split", "--system", "luroth", "--sign", "P", "--from", "2", "--blocks", "2"]
    grid = [
        [*split, "--alpha", alpha, "--eps", eps]
        for alpha in ("1e-5", "0.5", "700", "2000", "1e308", "inf")
        for eps in ("1e-300", "0.5", "1e308")
    ]
    dim = ["dim", "--system", "luroth", "--predicate", "all", "--rank", "2", "--cap", "20"]
    grid += [[*dim, "--tol", tol] for tol in ("1e-300", "10")]
    grid.append(["moran", "--ratios", "1/2,1/3", "--tol", "1e-300"])
    for argv in grid:
        code, _, _ = run_cli(capsys, argv)
        assert code in (0, 2, 3, 64), argv


def test_cover_pipes_into_verify(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["cover", "--system", "engel", "--sign", "P", "--lo", "1/7", "--hi", "5/9"],
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys,
        [
            "verify", "--system", "engel", "--sign", "P",
            "--lo", "1/7", "--hi", "5/9", "--alpha", "1",
        ],
        stdin=out,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    report = lines(out)[0]
    assert report["covers"] is True
    assert set(report) == {"covers", "max_diameter", "cost"}


def test_verify_rejects_malformed_stdin(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys,
        [
            "verify", "--system", "engel", "--sign", "P",
            "--lo", "1/7", "--hi", "5/9", "--alpha", "1",
        ],
        stdin="{not json}\n",
        monkeypatch=monkeypatch,
    )
    assert code == 2
    assert "error" in err


def test_transform(capsys):
    code, out, _ = run_cli(capsys, ["transform", "--kind", "t", "--word", "2,3,5"])
    assert code == 0
    assert out == '{"digits":[2,4,7]}\n'


def test_transform_point_bracket(capsys):
    code, out, _ = run_cli(
        capsys, ["transform-point", "--kind", "t", "--x", "3/8", "--rank", "3"]
    )
    assert code == 0
    obj = lines(out)[0]
    assert set(obj) == {"lo", "hi", "diam"}
    assert obj["diam"].count("/") == 1


def test_transform_point_termination(capsys):
    code, out, _ = run_cli(
        capsys, ["transform-point", "--kind", "g", "--x", "2/5", "--rank", "4"]
    )
    assert code == 0
    assert out == '{"digits":[4],"is_point":true,"rank":2}\n'


def test_transform_fp_reads_its_system(capsys):
    kind = TransformKind.fp(DigitRule.engel())
    code, out, _ = run_cli(
        capsys, ["transform", "--kind", "fp", "--system", "engel", "--word", "2,3,3"]
    )
    assert (code, lines(out)) == (0, [{"digits": list(transform_digits(kind, (2, 3, 3)))}])
    code, out, _ = run_cli(
        capsys,
        ["transform-point", "--kind", "fp", "--system", "engel", "--x", "3/8", "--rank", "3"],
    )
    cyl = transform_point(kind, Fraction(3, 8), 3)
    assert (code, lines(out)) == (
        0, [{"lo": str(cyl.lo), "hi": str(cyl.hi), "diam": str(cyl.diameter)}]
    )


def test_constant_growth_shape(capsys):
    code, out, _ = run_cli(
        capsys,
        ["dim", "--system", "engel", "--predicate", "growth:3", "--rank", "2", "--cap", "9"],
    )
    est = pressure_root(DigitRule.engel(), Sign.POSITIVE, growth_floor(lambda n: 3), 2, 9, 1e-9)
    assert (code, lines(out)) == (0, [
        {"s": est.s_value, "rank": 2, "cap": 9, "residual": est.residual,
         "bases": est.bases_count}
    ])


def test_dim_fields(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "dim", "--system", "luroth", "--predicate", "alphabet:2,3",
            "--rank", "4", "--cap", "3",
        ],
    )
    assert code == 0
    obj = lines(out)[0]
    assert list(obj) == ["s", "rank", "cap", "residual", "bases"]
    assert obj["bases"] == 16
    assert 0.59 < obj["s"] < 0.61


def test_dim_cost_does_not_grow_with_the_base_count(capsys):
    # 118 827 850 bases, which the built-in rule and predicate merge into at
    # most 1200 states per level: no base is listed one by one
    with pytest.warns(CapTooSmallWarning, match="position 2"):
        code, out, _ = run_cli(
            capsys,
            ["dim", "--system", "pierce", "--predicate", "growth:10^n", "--rank", "3",
             "--cap", "1200"],
        )
    assert code == 0
    assert '"bases":118827850' in out


def test_moran(capsys):
    code, out, _ = run_cli(capsys, ["moran", "--ratios", "1/2,1/2"])
    assert code == 0
    assert lines(out)[0]["s"] == 1.0


def test_moran_single_ratio(capsys):
    code, out, _ = run_cli(capsys, ["moran", "--ratios", "1/2"])
    assert code == 0
    assert lines(out)[0]["s"] == 0.0


def test_measure_lowest_terms(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "measure", "--system", "pierce", "--sign", "P-",
            "--predicate", "all", "--rank", "1", "--cap", "5",
        ],
    )
    assert code == 0
    assert out == '{"measure":"4/5"}\n'


def test_measure_infinite_cap(capsys):
    code, out, _ = run_cli(
        capsys,
        ["measure", "--system", "luroth", "--rank", "3", "--cap", "inf"],
    )
    assert code == 0
    assert out == '{"measure":"1"}\n'


def test_measure_infinite_cap_refuses_a_rule_that_prunes_words(capsys):
    # digits 2..5 lead to r < 1, so the cylinders do not tile: with a cap
    # of 100000 the total is 19999/100000, and with none it read 1
    code, out, err = run_cli(
        capsys,
        ["measure", "--system", "oppenheim:1,-5", "--rank", "1", "--cap", "inf"],
    )
    assert (code, out) == (3, "") and "the rule prunes words at position 1" in err


# ---------------------------------------------------------------------------
# frozen stdout: exact bytes of representative commands, both signs
# ---------------------------------------------------------------------------

# the first 64 luroth digits of 271828/314159
LUROTH_64 = (
    "2,2,3,2,2,16,2,419,2,3,7,919,3,3,2,5,2,2,2,13,3,2,3,2,4,3,15,2,8,6,2,2,"
    "13,2,2,2,2,15,2,2,2,3,2,4,6,2,2,2,2,2,7,2,2,2,2,2,2,5,2,2,6,2,2,4"
)
ENGEL_COVER_P = (
    '{"sign":"P","prefix":[5],"from":6,"to":25}\n'
    '{"sign":"P","prefix":[],"from":3,"to":4}\n'
    '{"sign":"P","prefix":[2],"from":11,"to":"inf"}\n'
)
PIERCE_COVER_A = (
    '{"sign":"P-","prefix":[],"from":3,"to":7}\n'
    '{"sign":"P-","prefix":[2,3],"from":10,"to":"inf"}\n'
)
FROZEN_STDOUT = [
    (["expand", "--system", "engel", "--x", "271828/314159", "--n", "12"], "",
     '{"digits":[2,2,3,3,7,23,41,189,933,1200,1304,2992]}\n'),
    (["alt-expand", "--system", "pierce", "--x", "271828/314159", "--n", "10"], "",
     '{"digits":[2,8,18,29,30,33,76,92,189,276]}\n'),
    (["cylinder", "--system", "luroth", "--word", LUROTH_64, "--sign", "P"], "",
     '{"lo":"3114251192524793433652144150720073282972780409412803071/'
     '3599224658211797829225554226371335927518304665600000000",'
     '"hi":"700706518318078522571732433912016488668875592117880691/'
     '809825548097654511575749700933550583691618549760000000",'
     '"diam":"1/32393021923906180463029988037342023347664741990400000000"}\n'),
    (["cylinder", "--system", "engel", "--word", ",".join(["3"] * 60), "--sign", "P-"], "",
     '{"lo":"5298894784402025439286804150/14130386091738734504764811067",'
     '"hi":"31793368706412152635720824901/84782316550432407028588866402",'
     '"diam":"1/84782316550432407028588866402"}\n'),
    (["cover", "--system", "engel-mod", "--sign", "P", "--lo", "21/100", "--hi", "3/5"], "",
     ENGEL_COVER_P),
    (["verify", "--system", "engel-mod", "--sign", "P", "--lo", "21/100", "--hi", "3/5",
      "--alpha", "0.5"], ENGEL_COVER_P,
     '{"covers":true,"max_diameter":"1/4","cost":1.016227766016838}\n'),
    (["cover", "--system", "pierce", "--sign", "P-", "--lo", "1/7", "--hi", "5/9"], "",
     PIERCE_COVER_A),
    (["verify", "--system", "pierce", "--sign", "P-", "--lo", "1/7", "--hi", "5/9",
      "--alpha", "0.5"], PIERCE_COVER_A,
     '{"covers":true,"max_diameter":"5/14","cost":0.8333165650627126}\n'),
    (["dim", "--system", "luroth", "--predicate", "alphabet:2,3", "--rank", "4",
      "--cap", "3"], "",
     '{"s":0.6009668516926467,"rank":4,"cap":3,"residual":3.371858348089063e-10,'
     '"bases":16}\n'),
    (["dim", "--system", "engel", "--sign", "P-", "--predicate", "bounded-ratio:3/2",
      "--rank", "3", "--cap", "12"], "",
     '{"s":0.7004208251601085,"rank":3,"cap":12,"residual":3.700004747031471e-10,'
     '"bases":98}\n'),
    (["measure", "--system", "luroth", "--sign", "P-", "--predicate", "bounded-ratio:2",
      "--rank", "3", "--cap", "8"], "",
     '{"measure":"2527/4608"}\n'),
    (["measure", "--system", "engel", "--predicate", "alphabet:3,4,6", "--rank", "3",
      "--cap", "6"], "",
     '{"measure":"91/1728"}\n'),
]


def test_stdout_bytes_are_frozen(capsys, monkeypatch):
    for argv, stdin, expected in FROZEN_STDOUT:
        code, out, _ = run_cli(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out) == (0, expected), argv


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_usage_errors_exit_64(capsys):
    dim = ["dim", "--system", "luroth", "--rank", "2", "--cap", "9", "--predicate"]
    for argv, message in (
        (["no-such-command"], "invalid choice"),
        (["expand", "--system", "martian", "--x", "1/2", "--n", "3"],
         "unknown system 'martian'"),
        (["expand", "--system", "engel", "--x", "one half", "--n", "3"],
         "Invalid literal for Fraction: 'one half'"),
        (["expand", "--system", "engel", "--x", "1/0", "--n", "3"], "Fraction(1, 0)"),
        (["expand", "--system", "engel", "--x", "1/2"], "--n"),
        (["expand", "--system", "oppenheim:-1,2", "--x", "1/2", "--n", "3"],
         "oppenheim needs a >= 0"),
        (["expand", "--system", "oppenheim:1", "--x", "1/2", "--n", "3"],
         "oppenheim needs two parameters: oppenheim:a,b"),
        (["eval", "--system", "engel", "--word", "2,3", "--sign", "Q"],
         "sign must be P or P-, got 'Q'"),
        (dim + ["ratio-window:nan,0.1"], "alpha and delta must not be NaN"),
        (dim + ["ratio-window:1,-0.1"], "delta must be >= 0"),
        (dim + ["ratio-window:1"], "ratio-window needs two parameters: ratio-window:a,d"),
        (dim + ["bounded-ratio:0"], "ratio bound must be positive"),
        (dim + ["growth:x"], "growth shape 'x' not one of: c, n^k, b^n"),
        (dim + ["foo"], "unknown predicate 'foo'"),
        (["moran", "--ratios", "1/2,1/0"], "Fraction(1, 0)"),
        (["transform", "--kind", "z", "--word", "2,3"], "kind must be fp, t, or g, got 'z'"),
        ([], "required"),
    ):
        code, _, err = run_cli(capsys, argv)
        assert code == 64, argv
        assert message in err, argv


def test_validity_errors_exit_2(capsys):
    code, _, err = run_cli(
        capsys, ["eval", "--system", "engel-mod", "--word", "2,2", "--sign", "P"]
    )
    assert code == 2
    assert "error" in err


def test_domain_errors_exit_3(capsys):
    for argv, message in (
        (["expand", "--system", "engel", "--x", "5/4", "--n", "3"], "outside (0, 1]"),
        (["cover", "--system", "luroth", "--sign", "P", "--lo", "1/2", "--hi", "1/3"],
         "empty interval"),
        # fp reinterprets a rule, so it needs --system; t and g ignore it
        (["transform", "--kind", "fp", "--word", "2,3"], "fp"),
        (["transform-point", "--kind", "fp", "--x", "3/8", "--rank", "3"], "fp"),
        (["moran", "--ratios", "1/25,1/8,1/10,1/25", "--tol", "1e-16"], "best residual"),
    ):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (3, ""), argv
        assert message in err, argv


@pytest.mark.parametrize("alpha", ["nan", "0", "-1"])
def test_verify_non_positive_alpha_exits_3(capsys, monkeypatch, alpha):
    # --alpha nan printed "cost":NaN, which is not JSON, and -1 a cost of 3.33
    code, out, err = run_cli(
        capsys,
        [
            "verify", "--system", "luroth", "--sign", "P",
            "--lo", "1/5", "--hi", "1/2", "--alpha", alpha,
        ],
        stdin='{"sign":"P","prefix":[],"from":3,"to":5}\n',
        monkeypatch=monkeypatch,
    )
    assert (code, out) == (3, "") and "alpha" in err


def test_verify_mixed_signs_exits_3(capsys, monkeypatch):
    code, out, err = run_cli(
        capsys,
        [
            "verify", "--system", "luroth", "--sign", "P",
            "--lo", "1/5", "--hi", "1/2", "--alpha", "1",
        ],
        stdin='{"sign":"P","prefix":[],"from":3,"to":3}\n'
        '{"sign":"P-","prefix":[],"from":4,"to":5}\n',
        monkeypatch=monkeypatch,
    )
    assert (code, out) == (3, "") and "sign" in err


def test_oversized_digit_exits_3(capsys):
    code, out, err = run_cli(
        capsys, ["alt-expand", "--system", "engel", "--x", "61/215", "--n", "48"]
    )
    assert (code, out) == (3, "") and "position 31" in err


def test_verify_positive_target_with_alternating_sets_exits_3(capsys, monkeypatch):
    # --sign P makes the target half-open, which no alternating cover follows
    code, out, err = run_cli(
        capsys,
        [
            "verify", "--system", "luroth", "--sign", "P",
            "--lo", "1/5", "--hi", "1/2", "--alpha", "1",
        ],
        stdin='{"sign":"P-","prefix":[],"from":3,"to":5}\n',
        monkeypatch=monkeypatch,
    )
    assert (code, out) == (3, "") and "open" in err


@pytest.mark.parametrize(
    "record",
    [
        '{"sign":"P","prefix":[],"from":3.9,"to":5.9}',
        '{"sign":"P","prefix":[2.5],"from":2,"to":"inf"}',
        '{"sign":"P","prefix":"2","from":2,"to":"inf"}',
        '{"sign":"P","prefix":[],"from":true,"to":5}',
        '{"sign":"P","prefix":[],"from":3,"to":false}',
        '{"sign":"P","prefix":[false],"from":3,"to":5}',
    ],
)
def test_verify_reads_family_sets_strictly(capsys, monkeypatch, record):
    # a float was truncated (3.9 read as 3) and a string split into digits
    code, out, err = run_cli(
        capsys,
        [
            "verify", "--system", "luroth", "--sign", "P",
            "--lo", "1/5", "--hi", "1/2", "--alpha", "1",
        ],
        stdin=record + "\n",
        monkeypatch=monkeypatch,
    )
    assert (code, out) == (2, "") and "malformed family set" in err


@pytest.mark.parametrize(
    "record",
    [
        '{"sign":"P","prefix":[],"from":5,"to":3}',  # before: "end 3 below start 5"
        '{"sign":"P","prefix":{},"from":3,"to":5}',  # would read as an empty prefix
    ],
)
def test_verify_reads_an_end_below_start_as_a_malformed_family_set(capsys, monkeypatch, record):
    # the set checks its own contract when it is made, inside the reader
    code, out, err = run_cli(
        capsys,
        [
            "verify", "--system", "luroth", "--sign", "P",
            "--lo", "1/5", "--hi", "1/2", "--alpha", "1",
        ],
        stdin=record + "\n",
        monkeypatch=monkeypatch,
    )
    assert (code, out) == (2, "") and "malformed family set" in err


needs_int_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit"
)


def parse_big(out):
    """The JSON lines of out, read with the int/str digit limit lifted."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return lines(out)
    finally:
        sys.set_int_max_str_digits(saved)


@needs_int_limit
def test_output_digits_past_the_int_string_limit(capsys):
    # digit 30 of 61/215 has about 63 kbit, some 19000 decimal digits
    saved = sys.get_int_max_str_digits()
    code, out, err = run_cli(
        capsys, ["alt-expand", "--system", "engel", "--x", "61/215", "--n", "30"]
    )
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == saved
    word = alternating_digits(DigitRule.engel(), Fraction(61, 215), 30)
    assert word[-1].bit_length() > 60000
    assert parse_big(out) == [{"digits": list(word)}]


@needs_int_limit
def test_verify_reads_a_prefix_digit_past_the_int_string_limit(capsys, monkeypatch):
    # a 5000-digit prefix digit on stdin, and its cylinder as the target
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        d = 10**4999
        lo, hi, diam = f"1/{d}", f"1/{d - 1}", f"1/{d * (d - 1)}"
        line = '{"sign":"P","prefix":[%d],"from":2,"to":"inf"}\n' % d
    finally:
        sys.set_int_max_str_digits(saved)
    code, out, err = run_cli(
        capsys,
        ["verify", "--system", "luroth", "--sign", "P", "--lo", lo, "--hi", hi,
         "--alpha", "1"],
        stdin=line,
        monkeypatch=monkeypatch,
    )
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == saved
    report = parse_big(out)[0]
    assert (report["covers"], report["max_diameter"]) == (True, diam)


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_exits_3(capsys, tol):
    code, out, err = run_cli(
        capsys, ["dim", "--system", "luroth", "--rank", "1", "--cap", "5", "--tol", tol]
    )
    assert (code, out) == (3, "") and "tol" in err
    code, out, err = run_cli(capsys, ["moran", "--ratios", "1/2,1/6", "--tol", tol])
    assert (code, out) == (3, "") and "tol" in err


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_output_is_deterministic(capsys):
    argv = [
        "dim", "--system", "engel", "--predicate", "bounded-ratio:3/2",
        "--rank", "3", "--cap", "20",
    ]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_rationals_always_lowest_terms(capsys):
    code, out, _ = run_cli(
        capsys, ["eval", "--system", "luroth", "--word", "2,2", "--sign", "P"]
    )
    assert code == 0
    value = lines(out)[0]["value"]
    assert value == "3/4"


# ---------------------------------------------------------------------------
# the command surface: flags, defaults, the real entry point
# ---------------------------------------------------------------------------

# each subcommand's required flags with a valid value, and its optional flags
COMMAND_FLAGS = {
    "expand": (["--system", "engel", "--x", "1/2", "--n", "3"], []),
    "alt-expand": (["--system", "engel", "--x", "1/2", "--n", "3"], []),
    "eval": (["--system", "engel", "--word", "2", "--sign", "P"], []),
    "cylinder": (["--system", "engel", "--word", "2", "--sign", "P"], []),
    "cover": (["--system", "engel", "--sign", "P", "--lo", "1/7", "--hi", "5/9"], []),
    "split": (
        ["--system", "luroth", "--sign", "P", "--from", "2", "--alpha", "1", "--eps", "0.5"],
        ["--prefix", "--blocks"],
    ),
    "verify": (
        ["--system", "engel", "--sign", "P", "--lo", "1/7", "--hi", "5/9", "--alpha", "1"],
        [],
    ),
    "transform": (["--kind", "t", "--word", "2,3"], ["--system"]),
    "transform-point": (["--kind", "t", "--x", "3/8", "--rank", "2"], ["--system"]),
    "dim": (
        ["--system", "luroth", "--rank", "1", "--cap", "5"], ["--sign", "--predicate", "--tol"]
    ),
    "moran": (["--ratios", "1/2,1/6"], ["--tol"]),
    "measure": (["--system", "luroth", "--rank", "1", "--cap", "5"], ["--sign", "--predicate"]),
}


def test_every_subcommand_names_its_flags(capsys):
    code, out, _ = run_cli(capsys, ["-h"])
    assert code == 0
    assert all(command in out for command in COMMAND_FLAGS)
    for command, (required, optional) in COMMAND_FLAGS.items():
        code, out, _ = run_cli(capsys, [command, "-h"])
        assert code == 0, command
        for flag in required[::2] + optional:
            assert flag in out, (command, flag)


def test_measure_help_states_when_the_cap_may_be_inf(capsys):
    code, out, _ = run_cli(capsys, ["measure", "-h"])
    assert code == 0
    assert "or inf (unrestricted predicate only, and a rule that prunes no word of the rank)" in (
        " ".join(out.split()))


def test_every_required_flag_is_required(capsys):
    for command, (required, _) in COMMAND_FLAGS.items():
        for i in range(0, len(required), 2):
            argv = [command] + required[:i] + required[i + 2 :]
            code, out, err = run_cli(capsys, argv)
            assert (code, out) == (64, ""), argv
            assert "required" in err and required[i] in err, argv


@pytest.mark.parametrize(
    "omitted,explicit",
    [
        (["dim", "--system", "engel", "--rank", "2", "--cap", "9"],
         ["--sign", "P", "--predicate", "all", "--tol", "1e-9"]),
        (["measure", "--system", "engel", "--rank", "2", "--cap", "9"],
         ["--sign", "P", "--predicate", "all"]),
        (["split", "--system", "luroth", "--sign", "P", "--from", "2", "--alpha", "1",
          "--eps", "0.5"],
         ["--prefix", "", "--blocks", "10"]),
        (["moran", "--ratios", "1/2,1/6"], ["--tol", "1e-12"]),
    ],
)
def test_omitted_flags_take_their_defaults(capsys, omitted, explicit):
    code, out, err = run_cli(capsys, omitted)
    assert (code, err) == (0, "") and out
    assert run_cli(capsys, omitted + explicit) == (0, out, "")


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_python_m_cover_pipes_into_verify():
    # the pierce pair of FROZEN_STDOUT, as two processes joined by a pipe
    cover = next(argv for argv, _, out in FROZEN_STDOUT if out == PIERCE_COVER_A)
    verify, _, verify_out = next(case for case in FROZEN_STDOUT if case[1] == PIERCE_COVER_A)
    env = dict(os.environ, PYTHONPATH=SRC)
    entry = [sys.executable, "-m", "perron.cli"]
    with subprocess.Popen(entry + cover, stdout=subprocess.PIPE, env=env) as first:
        with subprocess.Popen(
            entry + verify, stdin=first.stdout, stdout=subprocess.PIPE, env=env
        ) as second:
            first.stdout.close()
            out, _ = second.communicate(timeout=120)
        assert first.wait(timeout=120) == 0
    assert second.returncode == 0
    assert out.decode() == verify_out


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--system", "luroth", "--x", "1e-100000000", "--n", "2"],
        ["cover", "--system", "luroth", "--sign", "P", "--lo", "1e-100000000", "--hi", "1/2"],
        ["dim", "--system", "luroth", "--rank", "2", "--cap", "9",
         "--predicate", "bounded-ratio:1e100000000"],
        ["moran", "--ratios", "1/2,1E-100000000"],
    ],
)
def test_rational_exponents_are_bounded(argv):
    # Fraction reads 1e-N as 10**N: a 15-character argument used to run for
    # minutes, so the exponent is refused before it is expanded
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "perron.cli", *argv],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == 64
    assert "exceeds 131072 in magnitude" in proc.stderr


def test_rational_exponent_bound_is_inclusive():
    assert cli._parse_rational("1e-131072") == Fraction(1, 10**131072)
    assert cli._parse_rational("2E+0131072") == 2 * 10**131072
    with pytest.raises(argparse.ArgumentTypeError, match="exceeds 131072"):
        cli._parse_rational("1e131073")


def test_growth_exponents_are_bounded():
    # n^k used to be worked out exactly for every child tested: a 10**7-bit
    # power per child at position 2, minutes for a 17-character predicate
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "perron.cli", "dim", "--system", "luroth",
         "--predicate", "growth:n^10000000", "--rank", "3", "--cap", "50"],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == '{"s":0.0,"rank":3,"cap":50,"residual":1.0,"bases":0}\n'


def test_growth_floor_bound_keeps_every_comparison():
    # a --cap has at most 131072 characters, so every digit tested lies
    # below the floor bound; below it a power floor is exact, at or above it
    # the floor is replaced by the bound itself
    bound = 1 << cli._FLOOR_BITS
    assert 10**cli._MAX_EXPONENT < bound
    cases = [("n^262144", 2), ("n^262144", 3), ("n^262144", 4), ("n^262144", 5),
             ("n^524287", 2), ("n^524288", 2), ("n^-2", 4), ("n^3", 1000),
             ("2^n", 524287), ("2^n", 524288), ("3^n", 262144), ("7^n", 262144), ("1^n", 10**6)]
    for shape, n in cases:
        base, exponent = (n, int(shape[2:])) if shape.startswith("n^") else (int(shape[:-2]), n)
        exact = Fraction(base) ** exponent
        floor = cli._parse_growth(shape)(n)
        assert min(floor, bound) == min(exact, bound), (shape, n)
        assert floor == exact or floor == bound, (shape, n)


def test_main_exits_64_on_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["perron", "expand", "--system", "martian"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 64
    assert "unknown system 'martian'" in capsys.readouterr().err
