"""The tools: bench_pairs.py's pair summary on synthetic pairs, its
export of the two sides (the working tree, and a copy of it with the base
revision's src/) and its comparison of output digests, output_digest.py on
one round of a pool (its pool digest and its per-op lines), ab_calls.py's
summary and its two sides (a throwaway repository's committed package and
its working tree), code_lines.py's count and untested_lines.py's list
on small fixture packages, and bench_trajectory.py's lines on two small
synthetic BENCH files."""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "tools", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab_calls = _tool("ab_calls")
bench_pairs = _tool("bench_pairs")
bench_trajectory = _tool("bench_trajectory")
code_lines = _tool("code_lines")
untested_lines = _tool("untested_lines")

OPS = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
P50 = {"name": "latency_p50_ms", "better": "lower", "bound": 0.25}


def _pairs(base, change, name="ops_per_s", failed=(0, 0)):
    def run(value, fail):
        return {"correct": not fail, "attempted": 100, "failed": fail, "metrics": {name: value}}

    return [{"base": run(b, failed[0]), "change": run(c, failed[1])} for b, c in zip(base, change)]


def test_a_quiet_base_flags_only_regressions_beyond_the_bound():
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    summary = bench_pairs.summarise(_pairs(base, [v * 0.7 for v in base]), [OPS])
    verdict = summary["ops_per_s"]
    assert verdict["bound"] == 0.25
    assert verdict["worse_beyond_bound"] and not verdict["unresolved"]
    assert verdict["change_wins"] == 0

    verdict = bench_pairs.summarise(_pairs(base, [v * 0.8 for v in base]), [OPS])["ops_per_s"]
    assert not verdict["worse_beyond_bound"] and not verdict["unresolved"]


def test_lower_is_better_metrics_regress_upwards():
    base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    worse = bench_pairs.summarise(_pairs(base, [v * 1.3 for v in base], P50["name"]), [P50])
    better = bench_pairs.summarise(_pairs(base, [v * 0.7 for v in base], P50["name"]), [P50])
    assert worse["latency_p50_ms"]["worse_beyond_bound"]
    assert not better["latency_p50_ms"]["worse_beyond_bound"]
    assert better["latency_p50_ms"]["change_wins"] == 10


def test_a_noisy_base_leaves_the_comparison_unresolved():
    base = [60, 140, 70, 130, 80, 120, 100, 100, 65, 135]  # IQR 62.5, 62.5% of the median
    verdict = bench_pairs.summarise(_pairs(base, [v + 5 for v in base]), [OPS])["ops_per_s"]
    assert verdict["base_iqr"] > 0.25 * verdict["base_median"]
    assert not verdict["worse_beyond_bound"] and verdict["unresolved"]
    # unless every change run beats every base run
    verdict = bench_pairs.summarise(_pairs(base, [150 + v / 100 for v in base]), [OPS])["ops_per_s"]
    assert not verdict["unresolved"]


def test_failures_are_summed_per_side_and_the_summary_is_json():
    summary = bench_pairs.summarise(_pairs([100] * 4, [100] * 4, failed=(0, 3)), [OPS])
    assert summary["failures"]["base"] == {
        "failed": 0, "attempted": 400, "failed_share": 0.0, "all_correct": True,
    }
    assert summary["failures"]["change"]["failed_share"] == 12 / 400
    assert not summary["failures"]["change"]["all_correct"]
    json.dumps(summary)


def test_every_end_to_end_metric_of_the_benchmark_has_a_bound():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    base = [10.0, 10.5, 9.5, 10.0]
    summary = bench_pairs.summarise(
        [{side: {"correct": True, "attempted": 1, "failed": 0,
                 "metrics": {spec["name"]: v for spec in end_to_end}}
          for side in ("base", "change")} for v in base],
        end_to_end,
    )
    for spec in end_to_end:
        assert summary[spec["name"]]["bound"] == spec["bound"]
        assert not summary[spec["name"]]["worse_beyond_bound"]


def _bench_file(path, workloads):
    """A BENCH file whose summary holds, per workload, each metric's
    (base median, change median, base IQR)."""
    summary = {w: {"summary": {"failures": {}, **{
        name: {"base_median": b, "change_median": c, "base_iqr": iqr}
        for name, (b, c, iqr) in metrics.items()}}} for w, metrics in workloads.items()}
    path.write_text(json.dumps({"workloads": summary}))
    return str(path)


def test_bench_trajectory_prints_each_files_metrics_in_the_order_given(tmp_path, capsys):
    early = _bench_file(tmp_path / "BENCH_9.json", {
        "pressure": {"ops_per_s": (2000.0, 2500.0, 100.0), "latency_p50_ms": (0.25, 0.2, 0.01)}})
    late = _bench_file(tmp_path / "BENCH_10.json", {
        "cover": {"peak_rss_mb": (24.0, 24.6, 0.12), "unknown": (1.0, 1.0, 0.0)},
        "cli": {"ops_per_s": (12.5, 12.0, 0.5)}})
    assert bench_trajectory.main([early, late]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "  pr  workload  metric               change   ratio base_iqr",
        "   9  pressure  ops_per_s              2500   1.250    0.050",
        "   9  pressure  latency_p50_ms          0.2   0.800    0.040",
        "  10  cover     peak_rss_mb            24.6   1.025    0.005",
        "  10  cli       ops_per_s                12   0.960    0.040",
    ]
    assert sorted([late, early], key=bench_trajectory.pr_number) == [early, late]


def test_the_change_side_is_the_working_tree_without_build_output(tmp_path):
    # a throwaway repository, so the test needs no checkout around it
    repo, dest = tmp_path / "repo", tmp_path / "change"
    tracked = {".gitignore": "__pycache__/\n", "BENCHMARK.json": "{}\n",
               "bench/run.py": "print(1)\n", "src/perron/__init__.py": "x = 1\n", "gone.py": ""}
    for name, text in tracked.items():
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run(["git", "add", "-A"], cwd=repo, check=True)
    (repo / "src/perron/__init__.py").write_text("x = 2\n")  # an edit not staged
    (repo / "new.py").write_text("y = 1\n")  # untracked and not ignored
    (repo / "gone.py").unlink()  # tracked, deleted in the working tree
    (repo / "src/perron/__pycache__").mkdir()
    (repo / "src/perron/__pycache__/__init__.cpython-311.pyc").write_bytes(b"\0")

    bench_pairs.export_change(str(dest), str(repo))
    copied = sorted(p.relative_to(dest).as_posix() for p in dest.rglob("*") if p.is_file())
    assert copied == [".gitignore", "BENCHMARK.json", "bench/run.py", "new.py",
                      "src/perron/__init__.py"]
    for name in copied:
        assert (dest / name).read_bytes() == (repo / name).read_bytes(), name


def test_the_base_side_takes_only_src_from_the_base_revision(tmp_path):
    # both sides run the change side's harness; the base differs in src/ alone
    repo, change, base = tmp_path / "repo", tmp_path / "change", tmp_path / "base"
    committed = {"BENCHMARK.json": "{}\n", "bench/run.py": "print(1)\n",
                 "tools/output_digest.py": "print('a')\n", "src/perron/core.py": "x = 1\n",
                 "src/perron/old.py": ""}
    for name, text in committed.items():
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run(["git", "add", "-A"], cwd=repo, check=True)
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "base"],
                   cwd=repo, check=True)
    edits = {"BENCHMARK.json": '{"run_seconds": 1}\n', "bench/run.py": "print(2)\n",
             "bench/workloads/new.py": "", "tools/output_digest.py": "print('b')\n",
             "src/perron/core.py": "x = 2\n", "src/perron/new.py": ""}
    for name, text in edits.items():
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)
    (repo / "src/perron/old.py").unlink()

    bench_pairs.export_change(str(change), str(repo))
    commit = bench_pairs.export_base("HEAD", str(base), str(change), str(repo))
    assert commit == bench_pairs.git("rev-parse", "HEAD", cwd=str(repo)).decode().strip()
    files = sorted(p.relative_to(base).as_posix() for p in base.rglob("*") if p.is_file())
    assert files == ["BENCHMARK.json", "bench/run.py", "bench/workloads/new.py",
                     "src/perron/core.py", "src/perron/old.py", "tools/output_digest.py"]
    for name in files:
        expected = committed if name.startswith("src/") else edits
        assert (base / name).read_text() == expected[name], name


def test_outputs_equal_compares_the_digests_each_checkout_prints(tmp_path):
    # stand-in checkouts whose digest tool prints a file of its checkout
    # and keeps the arguments it was given
    stub = ("import sys\nprint(open('outputs').read())\n"
            "open('argv', 'w').write(' '.join(sys.argv[1:]))\n")
    for side, outputs in (("base", "a"), ("change", "a"), ("other", "b")):
        (tmp_path / side / "tools").mkdir(parents=True)
        (tmp_path / side / "tools" / "output_digest.py").write_text(stub)
        (tmp_path / side / "outputs").write_text(outputs)
    assert bench_pairs.outputs_equal(str(tmp_path / "base"), str(tmp_path / "change"), "cover")
    assert not bench_pairs.outputs_equal(str(tmp_path / "base"), str(tmp_path / "other"), "cover")
    for side in ("base", "change", "other"):
        assert (tmp_path / side / "argv").read_text() == "--workload cover"


def test_output_digest_is_deterministic_on_a_one_round_pool():
    argv = [sys.executable, os.path.join(ROOT, "tools", "output_digest.py"),
            "--workload", "cover", "--seed", "5", "--seed", "11", "--rounds", "1"]
    first, second = (
        subprocess.run(argv, capture_output=True, text=True, timeout=300, check=True).stdout
        for _ in range(2)
    )
    assert first == second
    lines = [line.split() for line in first.splitlines()]
    assert [line[:6] for line in lines] == [["cover", "seed", "5", "ops", "101", "sha256"],
                                           ["cover", "seed", "11", "ops", "101", "sha256"]]
    # one hex digest per seed, and the two pools hash apart
    assert all(len(line[6]) == 64 for line in lines) and lines[0][6] != lines[1][6]


def test_output_digest_per_op_prints_each_op_line_hash_and_the_same_pool_digest():
    argv = [sys.executable, os.path.join(ROOT, "tools", "output_digest.py"),
            "--workload", "cover", "--seed", "5", "--rounds", "1"]
    plain, per_op = (
        subprocess.run(argv + extra, capture_output=True, text=True, timeout=300, check=True).stdout
        for extra in ([], ["--per-op"])
    )
    *ops, pool = per_op.splitlines()
    assert pool == plain.strip()
    assert [line.split()[:3] for line in ops] == [["op", str(i), "sha256"] for i in range(101)]
    assert all(len(line.split()[3]) == 64 for line in ops)
    # each op's text starts with its position, so a diff of two runs names the op
    assert all(line.split(maxsplit=4)[4][1:].startswith(f"{i}\\t") for i, line in enumerate(ops))


def _repo(path, files):
    """A throwaway git repository at path with files committed."""
    for name, text in files.items():
        (path / name).parent.mkdir(parents=True, exist_ok=True)
        (path / name).write_text(text)
    subprocess.run(["git", "init", "-q"], cwd=path, check=True)
    subprocess.run(["git", "add", "-A"], cwd=path, check=True)
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "base"],
                   cwd=path, check=True)


def _ab_calls(repo, *argv):
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab_calls.py"), "--repo", str(repo), *argv],
        capture_output=True, text=True, timeout=300,
    )


def test_ab_calls_summary_of_synthetic_times():
    # two calls, three rounds, in seconds: round totals base 5, 7, 9 and
    # change 3, 3, 10 (ms below)
    times = {"base": [[1, 2, 3], [4, 5, 6]], "change": [[1, 1, 1], [2, 2, 9]]}
    report = ab_calls.summarise(times)
    assert report["base"] == {"total_min_ms": 5e3, "total_median_ms": 7e3,
                              "call_p50_ms": 1e3, "call_p90_ms": 4e3}
    assert report["change"] == {"total_min_ms": 3e3, "total_median_ms": 3e3,
                                "call_p50_ms": 1e3, "call_p90_ms": 2e3}
    assert report["ratio"] == {"total_min_ms": 0.6, "total_median_ms": 3 / 7,
                               "call_p50_ms": 1.0, "call_p90_ms": 0.5}
    assert report["change_won"] == 2


def test_ab_calls_runs_the_committed_package_against_the_working_tree(tmp_path):
    repo = tmp_path / "repo"
    _repo(repo, {"src/perron/__init__.py": "from . import mod\nN = 1000\n",
                 "src/perron/mod.py": "def triangle(n):\n    return sum(range(n))\n"})
    mod = repo / "src/perron/mod.py"
    argv = ["--call", "mod:triangle", "--args", "perron.N", "--rounds", "3"]

    mod.write_text("def triangle(n):\n    return n * (n - 1) // 2\n")  # the same outputs
    proc = _ab_calls(repo, *argv)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True,
                            text=True, check=True).stdout.strip()
    assert record["base_commit"] == commit
    assert (record["what"], record["calls"], record["rounds"]) == (
        "call mod:triangle(perron.N)", 1, 3)
    assert record["outputs_equal"] and 0 <= record["change_won"] <= 3
    for side in ("base", "change"):
        assert set(record[side]) == {"total_min_ms", "total_median_ms", "call_p50_ms",
                                     "call_p90_ms"}
        assert record[side]["total_min_ms"] <= record[side]["total_median_ms"]

    # each side ran its own code: the base the commit, the change the edit
    mod.write_text("def triangle(n):\n    return n * (n - 1) // 2 + 1\n")
    proc = _ab_calls(repo, *argv)
    assert proc.returncode == 1 and not proc.stdout
    assert "call 0 differs" in proc.stderr
    assert "base   499500" in proc.stderr and "change 499501" in proc.stderr


def test_ab_calls_runs_a_bench_pool_on_each_side(tmp_path):
    # a throwaway repository holding this one's package and harness
    repo = tmp_path / "repo"
    files = {"BENCHMARK.json": open(os.path.join(ROOT, "BENCHMARK.json")).read()}
    for top in ("src/perron", "bench"):
        for folder, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs[:] = [d for d in dirs if d not in ("__pycache__", ".bench_out")]
            for name in names:
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    with open(path) as f:
                        files[os.path.relpath(path, ROOT)] = f.read()
    _repo(repo, files)
    argv = ["--pool", "cover", "--seed", "5", "--pool-rounds", "1", "--rounds", "1"]

    proc = _ab_calls(repo, *argv)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert (record["what"], record["calls"], record["rounds"]) == ("pool cover seed 5", 101, 1)

    # a change to verify_cover's cost changes every cover op's output
    coverings = repo / "src/perron/coverings.py"
    text = coverings.read_text()
    assert text.count("cost = math.fsum(") == 1
    coverings.write_text(text.replace("cost = math.fsum(", "cost = 2 * math.fsum("))
    proc = _ab_calls(repo, *argv)
    assert proc.returncode == 1 and "differs" in proc.stderr


FIXTURE = '''"""A module docstring
over two lines."""

# a comment line
import os  # a comment after code


def f(x):
    """A function docstring."""

    # a comment inside
    return (x +
            1)


class C:
    """A class docstring."""

    y = """a string value,
    not a docstring"""
'''


def test_code_lines_count_code_and_not_docstrings_comments_or_blanks():
    # import, def, the two lines of the return, class, the two of y
    assert code_lines.code_lines(FIXTURE) == 7
    assert code_lines.code_lines("x = 1\n\n# done\n") == 1
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(FIXTURE)
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["     1  a.py", "     7  b.py", "     8  total"]


MODULE = '''"""A fixture module."""


@staticmethod
def called(x):
    """Run by the test."""
    if (x >
            0):
        return x
    return -x


def uncalled():
    global STATE
    STATE = 1
    return STATE


if __name__ == "__main__":
    uncalled()
'''


def test_statement_spans_skip_docstrings_and_end_compound_headers_before_the_body():
    spans = untested_lines.statement_spans(MODULE)
    # the decorated def from its decorator, the two-line if header, the
    # simple statements; no docstring, no global declaration and no main
    # guard
    assert spans == {
        4: range(4, 6), 7: range(7, 9), 9: range(9, 10), 10: range(10, 11),
        13: range(13, 14), 15: range(15, 16), 16: range(16, 17),
    }
    assert untested_lines.untested(MODULE, {4, 8, 9}) == [10, 13, 15, 16]


def test_untested_lines_lists_what_the_tests_never_run(tmp_path):
    package = tmp_path / "src" / "fixture"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text(
        "from hypothesis import settings\n"
        "from fixture.mod import called\n\n\n"
        "def test_called():\n    assert called(2) == 2\n\n\n"
        "def test_hypothesis_deadlines_are_off():\n    assert settings.default.deadline is None\n"
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "untested_lines.py"),
         "--package", str(package), "-q", "-p", "no:cacheprovider", str(tests)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = [line for line in proc.stdout.splitlines() if line.startswith("mod.py:")]
    # the def of uncalled runs on import; its body never does, and the
    # main guard, which an imported module never enters, is not listed
    assert report == ["mod.py:10: return -x", "mod.py:15: STATE = 1", "mod.py:16: return STATE"]
    assert proc.stdout.splitlines()[-1] == "3 untested statement lines: mod 3"
