"""Command-line front end: JSON output, exit codes, pipelines."""

import argparse
import io
import json
import os
import shlex
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
# command outputs checked by their shape or against library calls
# ---------------------------------------------------------------------------


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


def test_transform_point_bracket(capsys):
    code, out, _ = run_cli(
        capsys, ["transform-point", "--kind", "t", "--x", "3/8", "--rank", "3"]
    )
    assert code == 0
    obj = lines(out)[0]
    assert set(obj) == {"lo", "hi", "diam"}
    assert obj["diam"].count("/") == 1


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


def test_moran_counts_a_ratio_below_the_float_range(capsys):
    # 1e-400 is exactly 10**-400, whose float is 0.0: the command used to
    # print 9.094947017729282e-13 and exit 0
    code, out, _ = run_cli(capsys, ["moran", "--ratios", "1/2,1e-400"])
    assert code == 0
    assert abs(lines(out)[0]["s"] - 0.0059617453508) < 1e-12


def rows(table):
    """The rows of a table, each led by its test id, as pytest params."""
    return [pytest.param(*row[1:], id=row[0]) for row in table]


# ---------------------------------------------------------------------------
# frozen stdout: exact bytes of worked and representative commands, both
# signs; each row exits 0 and writes nothing to stderr
# ---------------------------------------------------------------------------

# the first 64 luroth digits of 271828/314159
LUROTH_64 = ("2,2,3,2,2,16,2,419,2,3,7,919,3,3,2,5,2,2,2,13,3,2,3,2,4,3,15,2,8,6,2,2,"
             "13,2,2,2,2,15,2,2,2,3,2,4,6,2,2,2,2,2,7,2,2,2,2,2,2,5,2,2,6,2,2,4")
ENGEL_COVER_P = ('{"sign":"P","prefix":[5],"from":6,"to":25}\n'
                 '{"sign":"P","prefix":[],"from":3,"to":4}\n'
                 '{"sign":"P","prefix":[2],"from":11,"to":"inf"}\n')
PIERCE_COVER_A = ('{"sign":"P-","prefix":[],"from":3,"to":7}\n'
                  '{"sign":"P-","prefix":[2,3],"from":10,"to":"inf"}\n')
# (test id, command line, stdin, stdout)
FROZEN_STDOUT = [
    ("test_expand", "expand --system engel --x 3/8 --n 4", "", '{"digits":[3,9,9,9]}\n'),
    ("test_cylinder", "cylinder --system engel --word 2,3 --sign P", "",
     '{"lo":"2/3","hi":"3/4","diam":"1/12"}\n'),
    ("test_alt_expand_termination", "alt-expand --system pierce --x 2/5 --n 4", "",
     '{"digits":[3],"is_point":true,"rank":2}\n'),
    ("test_alt_expand_full_word", "alt-expand --system luroth --x 2/3 --n 3", "",
     '{"digits":[2,2,2]}\n'),
    ("test_eval", "eval --system luroth --word 2 --sign P", "", '{"value":"1/2"}\n'),
    ("test_rationals_always_lowest_terms", "eval --system luroth --word 2,2 --sign P", "",
     '{"value":"3/4"}\n'),
    ("test_cover_three_sets", "cover --system luroth --sign P --lo 21/100 --hi 3/5", "",
     '{"sign":"P","prefix":[5],"from":2,"to":5}\n{"sign":"P","prefix":[],"from":3,"to":4}\n'
     '{"sign":"P","prefix":[2],"from":6,"to":"inf"}\n'),
    ("test_transform", "transform --kind t --word 2,3,5", "", '{"digits":[2,4,7]}\n'),
    ("test_transform_point_termination", "transform-point --kind g --x 2/5 --rank 4", "",
     '{"digits":[4],"is_point":true,"rank":2}\n'),
    # 2**2000 is beyond float range, so s = 2 passes s**alpha > 1 + 1/eps;
    # the ratio search used to end in an OverflowError traceback (exit 1)
    ("test_split_ratio_whose_power_overflows_a_float",
     "split --system luroth --sign P --from 2 --alpha 2000 --eps 0.5 --blocks 2", "",
     '{"sign":"P","prefix":[],"from":2,"to":4}\n{"sign":"P","prefix":[],"from":5,"to":13}\n'),
    ("test_moran", "moran --ratios 1/2,1/2", "", '{"s":1.0}\n'),
    ("test_moran_single_ratio", "moran --ratios 1/2", "", '{"s":0.0}\n'),
    ("test_measure_lowest_terms",
     "measure --system pierce --sign P- --predicate all --rank 1 --cap 5", "",
     '{"measure":"4/5"}\n'),
    ("test_measure_infinite_cap", "measure --system luroth --rank 3 --cap inf", "",
     '{"measure":"1"}\n'),
    ("expand-engel-12", "expand --system engel --x 271828/314159 --n 12", "",
     '{"digits":[2,2,3,3,7,23,41,189,933,1200,1304,2992]}\n'),
    ("alt-expand-pierce-10", "alt-expand --system pierce --x 271828/314159 --n 10", "",
     '{"digits":[2,8,18,29,30,33,76,92,189,276]}\n'),
    ("cylinder-luroth-64", f"cylinder --system luroth --word {LUROTH_64} --sign P", "",
     '{"lo":"3114251192524793433652144150720073282972780409412803071/'
     '3599224658211797829225554226371335927518304665600000000",'
     '"hi":"700706518318078522571732433912016488668875592117880691/'
     '809825548097654511575749700933550583691618549760000000",'
     '"diam":"1/32393021923906180463029988037342023347664741990400000000"}\n'),
    ("cylinder-engel-60", f"cylinder --system engel --word {','.join(['3'] * 60)} --sign P-", "",
     '{"lo":"5298894784402025439286804150/14130386091738734504764811067",'
     '"hi":"31793368706412152635720824901/84782316550432407028588866402",'
     '"diam":"1/84782316550432407028588866402"}\n'),
    ("cover-engel-mod", "cover --system engel-mod --sign P --lo 21/100 --hi 3/5", "",
     ENGEL_COVER_P),
    ("verify-engel-mod", "verify --system engel-mod --sign P --lo 21/100 --hi 3/5 --alpha 0.5",
     ENGEL_COVER_P, '{"covers":true,"max_diameter":"1/4","cost":1.016227766016838}\n'),
    ("cover-pierce", "cover --system pierce --sign P- --lo 1/7 --hi 5/9", "", PIERCE_COVER_A),
    ("verify-pierce", "verify --system pierce --sign P- --lo 1/7 --hi 5/9 --alpha 0.5",
     PIERCE_COVER_A, '{"covers":true,"max_diameter":"5/14","cost":0.8333165650627126}\n'),
    ("dim-luroth-alphabet", "dim --system luroth --predicate alphabet:2,3 --rank 4 --cap 3", "",
     '{"s":0.6009668516926467,"rank":4,"cap":3,"residual":3.371858348089063e-10,"bases":16}\n'),
    ("dim-engel-bounded-ratio",
     "dim --system engel --sign P- --predicate bounded-ratio:3/2 --rank 3 --cap 12", "",
     '{"s":0.7004208251601085,"rank":3,"cap":12,"residual":3.700004747031471e-10,"bases":98}\n'),
    # one gapless run of 19 999 last digits: summed by a series past its
    # first 64, with the bytes the digit-by-digit sum printed
    ("dim-luroth-long-run", "dim --system luroth --predicate all --rank 1 --cap 20000", "",
     '{"s":0.9999755532480776,"rank":1,"cap":20000,"residual":5.618459031353495e-10,'
     '"bases":19999}\n'),
    ("measure-luroth-bounded-ratio",
     "measure --system luroth --sign P- --predicate bounded-ratio:2 --rank 3 --cap 8", "",
     '{"measure":"2527/4608"}\n'),
    ("measure-engel-alphabet",
     "measure --system engel --predicate alphabet:3,4,6 --rank 3 --cap 6", "",
     '{"measure":"91/1728"}\n'),
]


@pytest.mark.parametrize("command,stdin,expected", rows(FROZEN_STDOUT))
def test_stdout_bytes_are_frozen(capsys, monkeypatch, command, stdin, expected):
    argv = shlex.split(command)
    assert run_cli(capsys, argv, stdin=stdin, monkeypatch=monkeypatch) == (0, expected, "")


# ---------------------------------------------------------------------------
# exit codes: each failing command exits with its code, writes nothing to
# stdout and states its own message on stderr
# ---------------------------------------------------------------------------

DIM = "dim --system luroth --rank 2 --cap 9 --predicate"
SPLIT = "split --system luroth --sign P --eps 0.5 --from"
VERIFY = "verify --system luroth --sign P --lo 1/5 --hi 1/2 --alpha"
MALFORMED = (2, "malformed family set")
# (test id, command line, stdin, exit code, text of the message)
ERRORS = [
    # usage errors exit 64
    ("unknown-command", "no-such-command", "", 64, "invalid choice"),
    ("system", "expand --system martian --x 1/2 --n 3", "", 64, "unknown system 'martian'"),
    ("x-not-a-number", "expand --system engel --x 'one half' --n 3", "",
     64, "Invalid literal for Fraction: 'one half'"),
    ("x-over-0", "expand --system engel --x 1/0 --n 3", "", 64, "Fraction(1, 0)"),
    ("n-missing", "expand --system engel --x 1/2", "", 64, "--n"),
    ("oppenheim-a", "expand --system oppenheim:-1,2 --x 1/2 --n 3", "",
     64, "a must be >= 0"),
    ("oppenheim-one-parameter", "expand --system oppenheim:1 --x 1/2 --n 3", "",
     64, "oppenheim needs two parameters: oppenheim:a,b"),
    ("sign", "eval --system engel --word 2,3 --sign Q", "", 64, "sign must be P or P-, got 'Q'"),
    ("window-nan", f"{DIM} ratio-window:nan,0.1", "", 64, "alpha and delta must not be NaN"),
    ("window-delta", f"{DIM} ratio-window:1,-0.1", "", 64, "delta must be >= 0"),
    ("window-one-parameter", f"{DIM} ratio-window:1", "",
     64, "ratio-window needs two parameters: ratio-window:a,d"),
    ("bounded-ratio", f"{DIM} bounded-ratio:0", "", 64, "ratio bound must be positive"),
    ("growth", f"{DIM} growth:x", "", 64, "growth shape 'x' not one of: c, n^k, b^n"),
    ("predicate", f"{DIM} foo", "", 64, "unknown predicate 'foo'"),
    ("ratios", "moran --ratios 1/2,1/0", "", 64, "Fraction(1, 0)"),
    ("kind", "transform --kind z --word 2,3", "", 64, "kind must be fp, t, or g, got 'z'"),
    ("no-command", "", "", 64, "required"),
    # validity errors exit 2
    ("test_validity_errors_exit_2", "eval --system engel-mod --word 2,2 --sign P", "",
     2, "digit 2 at position 2 violates c >= 3"),
    ("test_verify_rejects_malformed_stdin",
     "verify --system engel --sign P --lo 1/7 --hi 5/9 --alpha 1", "{not json}\n",
     2, "bad JSON input line"),
    # --blocks 0 asks for no block; a bad --from or --alpha is still an error
    ("test_split_checks_its_arguments_without_blocks-1-0.5-2",
     f"{SPLIT} 1 --alpha 0.5 --blocks 0", "", 2, "below first admissible digit"),
    ("test_split_checks_its_arguments_without_blocks-2--1-3",
     f"{SPLIT} 2 --alpha -1 --blocks 0", "", 3, "alpha and eps must be positive"),
    # a float was truncated (3.9 read as 3) and a string split into digits
    *[(f"test_verify_reads_family_sets_strictly-{name}", f"{VERIFY} 1", record + "\n", *MALFORMED)
      for name, record in [
          ("float-ends", '{"sign":"P","prefix":[],"from":3.9,"to":5.9}'),
          ("float-digit", '{"sign":"P","prefix":[2.5],"from":2,"to":"inf"}'),
          ("string-prefix", '{"sign":"P","prefix":"2","from":2,"to":"inf"}'),
          ("bool-start", '{"sign":"P","prefix":[],"from":true,"to":5}'),
          ("bool-end", '{"sign":"P","prefix":[],"from":3,"to":false}'),
          ("bool-digit", '{"sign":"P","prefix":[false],"from":3,"to":5}'),
      ]],
    # the set checks its own contract when it is made, inside the reader; the
    # first read "end 3 below start 5" before, the second would read as an empty prefix
    ("test_verify_reads_an_end_below_start_as_a_malformed_family_set-end-below-start",
     f"{VERIFY} 1", '{"sign":"P","prefix":[],"from":5,"to":3}\n', *MALFORMED),
    ("test_verify_reads_an_end_below_start_as_a_malformed_family_set-object-prefix",
     f"{VERIFY} 1", '{"sign":"P","prefix":{},"from":3,"to":5}\n', *MALFORMED),
    # domain errors exit 3
    ("x-outside", "expand --system engel --x 5/4 --n 3", "", 3, "outside (0, 1]"),
    ("empty", "cover --system luroth --sign P --lo 1/2 --hi 1/3", "", 3, "empty interval"),
    # the refusal printed the QInterval's repr
    ("interval-outside", "cover --system luroth --sign P --lo 0 --hi 3/2", "",
     3, "perron: error: interval (0, 3/2] not inside (0, 1]\n"),
    ("interval-outside-alternating", "cover --system luroth --sign P- --lo 1/3 --hi 3/2", "",
     3, "perron: error: interval (1/3, 3/2) not inside (0, 1)\n"),
    # fp reinterprets a rule, so it needs --system; t and g ignore it
    ("transform-fp", "transform --kind fp --word 2,3", "", 3, "fp"),
    ("transform-point-fp", "transform-point --kind fp --x 3/8 --rank 3", "", 3, "fp"),
    ("tol-unreached", "moran --ratios 1/25,1/8,1/10,1/25 --tol 1e-16", "", 3, "best residual"),
    ("test_split_negative_blocks_is_a_domain_error", f"{SPLIT} 2 --alpha 1 --blocks -1", "",
     3, "--blocks"),
    # --alpha nan printed "cost":NaN, which is not JSON, and -1 a cost of 3.33
    *[(f"test_verify_non_positive_alpha_exits_3-{alpha}", f"{VERIFY} {alpha}",
       '{"sign":"P","prefix":[],"from":3,"to":5}\n', 3, "alpha") for alpha in ("nan", "0", "-1")],
    ("test_verify_mixed_signs_exits_3", f"{VERIFY} 1",
     '{"sign":"P","prefix":[],"from":3,"to":3}\n{"sign":"P-","prefix":[],"from":4,"to":5}\n',
     3, "sign"),
    ("test_oversized_digit_exits_3", "alt-expand --system engel --x 61/215 --n 48", "",
     3, "position 31"),
    # --sign P makes the target half-open, which no alternating cover follows
    ("test_verify_positive_target_with_alternating_sets_exits_3", f"{VERIFY} 1",
     '{"sign":"P-","prefix":[],"from":3,"to":5}\n', 3, "open"),
    *[(f"test_non_finite_tol_exits_3-{command.split()[0]}-{tol}", f"{command} --tol {tol}", "",
       3, "tol")
      for command in ("dim --system luroth --rank 1 --cap 5", "moran --ratios 1/2,1/6")
      for tol in ("nan", "inf")],
    # digits 2..5 lead to r < 1, so the cylinders do not tile: with a cap
    # of 100000 the total is 19999/100000, and with none it read 1
    ("test_measure_infinite_cap_refuses_a_rule_that_prunes_words",
     "measure --system oppenheim:1,-5 --rank 1 --cap inf", "",
     3, "the rule prunes words at position 1"),
]


@pytest.mark.parametrize("command,stdin,code,text", rows(ERRORS))
def test_failing_commands(capsys, monkeypatch, command, stdin, code, text):
    argv = shlex.split(command)
    got, out, err = run_cli(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
    assert (got, out) == (code, "") and text in err


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
def test_an_error_prints_a_value_past_the_int_string_limit_in_full(capsys):
    # the library shows such a value by its size in bits; the command lifts
    # the limit while it runs, so its message prints every digit
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        x = f"{10**5000 + 1}/{10**5000}"
    finally:
        sys.set_int_max_str_digits(saved)
    code, out, err = run_cli(capsys, ["expand", "--system", "pierce", "--x", x, "--n", "3"])
    assert (code, out, err) == (3, "", f"perron: error: x = {x} outside (0, 1]\n")


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


def test_expand_help_states_what_n_costs(capsys):
    for command in ("expand", "alt-expand"):
        code, out, _ = run_cli(capsys, [command, "-h"])
        assert code == 0
        text = " ".join(out.split())
        assert "number of digits, not bounded, though a digit past 2^16 bits is an error" in text
        assert ("the cost is at most about n times (the bits of x's denominator plus the sum "
                "of the rule values' bits)") in text


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
    cover = next(command for _, command, _, out in FROZEN_STDOUT if out == PIERCE_COVER_A)
    _, verify, _, verify_out = next(case for case in FROZEN_STDOUT if case[2] == PIERCE_COVER_A)
    env = dict(os.environ, PYTHONPATH=SRC)
    entry = [sys.executable, "-m", "perron.cli"]
    with subprocess.Popen(entry + shlex.split(cover), stdout=subprocess.PIPE, env=env) as first:
        with subprocess.Popen(
            entry + shlex.split(verify), stdin=first.stdout, stdout=subprocess.PIPE, env=env
        ) as second:
            first.stdout.close()
            out, _ = second.communicate(timeout=120)
        assert first.wait(timeout=120) == 0
    assert second.returncode == 0
    assert out.decode() == verify_out


def test_a_warning_is_one_perron_warning_line():
    # stderr held Python's default format: the path of cli.py, a line
    # number, the category and the source line that warned
    argv = [sys.executable, "-m", "perron.cli", "dim", "--system", "engel-mod", "--rank", "3",
            "--cap", "4"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert (done.returncode, done.stdout, done.stderr) == (
        0, '{"s":0.0,"rank":3,"cap":4,"residual":0.0,"bases":1}\n',
        "perron: warning: digit_cap 4 excludes all digits at position 2, cutting off 1 "
        "compatible prefix(es)\n")


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
