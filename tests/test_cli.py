"""Command-line front end: JSON output, exit codes, pipelines."""

import io
import json

import pytest

from perron import cli


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


def test_moran(capsys):
    code, out, _ = run_cli(capsys, ["moran", "--ratios", "1/2,1/2"])
    assert code == 0
    assert lines(out)[0]["s"] == 1.0


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


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_usage_errors_exit_64(capsys):
    for argv in (
        ["no-such-command"],
        ["expand", "--system", "martian", "--x", "1/2", "--n", "3"],
        ["expand", "--system", "engel", "--x", "one half", "--n", "3"],
        ["expand", "--system", "engel", "--x", "1/2"],
        ["eval", "--system", "engel", "--word", "2,3", "--sign", "Q"],
        ["dim", "--system", "luroth", "--predicate", "ratio-window:nan,0.1",
         "--rank", "2", "--cap", "9"],
        [],
    ):
        code, _, err = run_cli(capsys, argv)
        assert code == 64, argv
        assert err


def test_validity_errors_exit_2(capsys):
    code, _, err = run_cli(
        capsys, ["eval", "--system", "engel-mod", "--word", "2,2", "--sign", "P"]
    )
    assert code == 2
    assert "error" in err


def test_domain_errors_exit_3(capsys):
    code, _, err = run_cli(capsys, ["expand", "--system", "engel", "--x", "5/4", "--n", "3"])
    assert code == 3
    code, _, err = run_cli(
        capsys,
        ["cover", "--system", "luroth", "--sign", "P", "--lo", "1/2", "--hi", "1/3"],
    )
    assert code == 3


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_exits_3(capsys, tol):
    code, out, err = run_cli(
        capsys, ["dim", "--system", "luroth", "--rank", "1", "--cap", "5", "--tol", tol]
    )
    assert (code, out) == (3, "") and "tol" in err
    code, out, err = run_cli(capsys, ["moran", "--ratios", "1/2,1/6", "--tol", tol])
    assert (code, out) == (3, "") and "tol" in err


def test_threads_env_validation(capsys, monkeypatch):
    monkeypatch.setenv("PERRON_THREADS", "0")
    code, _, err = run_cli(capsys, ["moran", "--ratios", "1/2"])
    assert code == 64 and "PERRON_THREADS" in err

    monkeypatch.setenv("PERRON_THREADS", "soon")
    code, _, _ = run_cli(capsys, ["moran", "--ratios", "1/2"])
    assert code == 64

    monkeypatch.setenv("PERRON_THREADS", "4")
    code, out, _ = run_cli(capsys, ["moran", "--ratios", "1/2"])
    assert code == 0
    assert lines(out)[0]["s"] == 0.0


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
