import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from sftbounds import model_from_doc
from sftbounds.cli import CliError, main, parse_args
from sftbounds.enumeration import count_patterns_dfs
from sftbounds.sampling import SamplingError

import cli_reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARD_SQUARE_DOC = {
    "dimension": 2,
    "alphabet": ["0", "1"],
    "forbidden": [[["1", "1"]], [["1", "1"]]],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_builtin(capsys):
    code, out, _ = run_cli(capsys, "--builtin", "hard-square", "--dim", "2", "count", "--n", "3")
    assert code == 0
    assert out.strip() == "C_3 = 63"


def test_count_coloring_shorthand(capsys):
    code, out, _ = run_cli(capsys, "--builtin", "coloring:3", "--dim", "2", "count", "--n", "2")
    assert code == 0
    assert out.strip() == "C_2 = 18"


def test_count_range_json(capsys):
    code, out, _ = run_cli(
        capsys, "--builtin", "hard-square", "--dim", "2", "--format", "json",
        "count", "--n", "1", "--n-max", "4",
    )
    assert code == 0
    doc = json.loads(out)
    assert [row["C_n"] for row in doc["counts"]] == ["2", "7", "63", "1234"]


def test_count_range_csv(capsys):
    code, out, err = run_cli(
        capsys, "--builtin", "hard-square", "--dim", "2", "--format", "csv",
        "count", "--n", "1", "--n-max", "3",
    )
    assert (code, out, err) == (0, "n,C_n\n1,2\n2,7\n3,63\n", "")


def test_count_model_file(capsys, tmp_path):
    doc = {
        "dimension": 2,
        "alphabet": ["0", "1"],
        "forbidden": [
            [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]],
            [],
        ],
    }
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "--model", str(path), "count", "--n", "2")
    assert code == 0
    assert out.strip() == "C_2 = 0"


def test_bounds_human_table(capsys):
    code, out, _ = run_cli(
        capsys, "--builtin", "hard-square", "--dim", "2", "bounds", "--n-max", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert "0.486478" in lines[2]
    assert "-0.177224" in lines[2]


def test_bounds_text_prints_undecided_bounds_as_na(capsys):
    # hard-square d=3: C_6 is past the state budget, so row 5 has no lower bound
    code, out, _ = run_cli(
        capsys, "--builtin", "hard-square", "--dim", "3", "bounds", "--n-max", "5"
    )
    assert code == 0
    row = out.splitlines()[5].split()
    assert row[:2] == ["5", "1621477990380993035885"]
    assert row[2] == "n/a"
    assert "n/a" not in out.splitlines()[4]


def test_bounds_text_prints_minus_inf(capsys):
    # coloring:1 has one side-1 pattern and none from side 2 on
    code, out, _ = run_cli(
        capsys, "--builtin", "coloring:1", "--dim", "2", "bounds", "--n-max", "2"
    )
    assert code == 0
    rows = [line.split() for line in out.splitlines()[1:]]
    assert rows == [["1", "1", "-inf", "0.000000", "0.000000"],
                    ["2", "0", "-inf", "-inf", "0.000000"]]


def test_bounds_json_and_determinism(capsys):
    args = (
        "--builtin", "hard-square", "--dim", "2", "--format", "json",
        "bounds", "--n-max", "3",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["rows"][2]["C_n"] == "63"
    assert doc["log_base"] == "e"


def test_bounds_csv(capsys):
    code, out, _ = run_cli(
        capsys, "--builtin", "hard-square", "--dim", "2", "--format", "csv",
        "bounds", "--n-max", "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[1].split(",")[1] == "2"


def test_bounds_log_base_two(capsys):
    code, out, _ = run_cli(
        capsys, "--builtin", "hard-square", "--dim", "2", "--log-base", "2",
        "bounds", "--n-max", "1",
    )
    assert code == 0
    assert "1.000000" in out


def test_verify_passes(capsys):
    code, out, _ = run_cli(
        capsys, "--builtin", "hard-square", "--dim", "2", "--seed", "42",
        "verify", "--n", "2", "--samples", "25",
    )
    assert code == 0
    assert "C_3 = 63 >= sum_s C_2^(s)^4 = 35 ... PASS" in out
    assert "recurrence sweep" in out
    assert "FAIL" not in out


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys, "--builtin", "hard-square", "--dim", "2", "--seed", "1",
        "--format", "json", "verify", "--n", "2", "--samples", "5",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert all(check["pass"] for check in doc["checks"])


@pytest.mark.parametrize("samples", ["3", "20"])
def test_verify_without_patterns_leaves_sampling_undecided(capsys, samples):
    # coloring:1 has C_2 = 0: no group can be drawn, whatever --samples is
    code, out, _ = run_cli(
        capsys, "--builtin", "coloring:1", "--dim", "2", "--seed", "1",
        "verify", "--n", "2", "--samples", samples,
    )
    assert code == 0
    assert f"samples ({samples} draws, seed 1), 0 checked ... UNDECIDED" in out
    assert "all checks passed" not in out
    assert out.rstrip().endswith("no check failed; 1 undecided")
    code, out, _ = run_cli(
        capsys, "--builtin", "coloring:1", "--dim", "2", "--seed", "1",
        "--format", "json", "verify", "--n", "2", "--samples", samples,
    )
    doc = json.loads(out)
    assert code == 0
    assert [check["pass"] for check in doc["checks"]] == [True] * 4 + [None]
    assert doc["all_pass"] is None


def test_verify_names_the_draws_it_checked(capsys, monkeypatch):
    import sftbounds.sampling as sampling_mod

    real = sampling_mod.sample_same_state_group
    calls = []

    def every_other_draw_fails(*args):
        calls.append(None)
        if len(calls) % 2:
            raise SamplingError("no admissible pattern found")
        return real(*args)

    monkeypatch.setattr(sampling_mod, "sample_same_state_group", every_other_draw_fails)
    code, out, _ = run_cli(
        capsys, "--builtin", "hard-square", "--dim", "2", "--seed", "1",
        "verify", "--n", "2", "--samples", "6",
    )
    assert code == 0
    assert "samples (6 draws, seed 1), 3 checked ... PASS" in out
    assert "all checks passed" in out


def test_verify_refused_table_exits_two(capsys, monkeypatch):
    import sftbounds.gluing as gluing_mod
    from sftbounds import BudgetExceededError

    def refused(*args, **kwargs):
        raise BudgetExceededError("more than 7 boundary-state keys at side 3")

    monkeypatch.setattr(gluing_mod, "state_counts", refused)
    code, out, err = run_cli(
        capsys, "--builtin", "hard-square", "--dim", "2", "verify", "--n", "3",
    )
    assert code == 2
    assert err == "resource limit: more than 7 boundary-state keys at side 3\n"
    assert out == ""


def test_table_that_misses_the_count_exits_three(capsys, monkeypatch):
    # the table/count cross-check is a bug signal: one stderr line, no
    # traceback, the verification exit code, in both commands that run it
    import sftbounds.gluing as gluing_mod

    real = gluing_mod.state_counts

    def short(side):
        table = real(side)
        table.popitem()
        return table

    monkeypatch.setattr(gluing_mod, "state_counts", short)
    for command, side, count in [(("verify", "--n", "3"), 3, 63),
                                 (("bounds", "--n-max", "4"), 1, 2)]:
        code, out, err = run_cli(capsys, "--builtin", "hard-square", "--dim", "2", *command)
        assert code == 3
        assert err == (f"verification failure: the per-state table of side {side} "
                       f"does not sum to {count}\n")
        assert out == ""


@pytest.mark.parametrize("argv, line", [
    ("--dim 2 verify --n 1", "verify needs --n >= 2"),
    ("--dim 2 count --n 0", "need 1 <= --n <= --n-max"),
    ("--dim 1 glue-demo --n 2", "glue-demo supports dimension 2 or 3"),
    ("--dim 4 glue-demo --n 2", "glue-demo supports dimension 2 or 3"),
    ("--dim 2 glue-demo --n 1", "glue-demo needs --n >= 2"),
])
def test_commands_refuse_sides_and_dimensions_they_do_not_run(capsys, argv, line):
    code, out, err = run_cli(capsys, "--builtin", "hard-square", *argv.split())
    assert (code, out, err) == (1, "", line + "\n")


def test_glue_error_exits_three(capsys, monkeypatch):
    import sftbounds.cli as cli_mod
    from sftbounds.gluing import GlueError

    def broken(model, group):
        raise GlueError("blocks disagree on their shared face")

    monkeypatch.setattr(cli_mod, "glue_and_check", broken)
    code, _, err = run_cli(
        capsys, "--builtin", "hard-square", "--dim", "2", "glue-demo", "--n", "2",
    )
    assert code == 3
    assert err == "construction failure: blocks disagree on their shared face\n"


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_rejects_samples_below_one(capsys, samples):
    code, out, err = run_cli(
        capsys, "--builtin", "hard-square", "--dim", "2",
        "verify", "--n", "2", "--samples", samples,
    )
    assert code == 1
    assert "--samples" in err
    assert "PASS" not in out


def test_bounds_rejects_n_max_below_one(capsys):
    code, _, err = run_cli(
        capsys, "--builtin", "hard-square", "--dim", "2", "bounds", "--n-max", "0",
    )
    assert code == 1
    assert "--n-max" in err


def test_glue_demo_deterministic(capsys):
    args = (
        "--builtin", "hard-square", "--dim", "2", "--seed", "11",
        "glue-demo", "--n", "2",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "admissible: yes, wrap: yes" in out1
    assert "# glued" in out1


def test_glue_demo_d3(capsys):
    code, out, _ = run_cli(
        capsys, "--builtin", "hard-square", "--dim", "3", "--seed", "3",
        "glue-demo", "--n", "2",
    )
    assert code == 0
    assert "admissible: yes, wrap: yes" in out


def test_glue_demo_empty_model_exits_budget(capsys, tmp_path):
    doc = {
        "dimension": 2,
        "alphabet": ["0"],
        "forbidden": [[["0", "0"]], []],
    }
    path = tmp_path / "impossible.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "--model", str(path), "glue-demo", "--n", "2")
    assert code == 2
    assert "admits no side-2 pattern" in err


def test_exit_usage_on_bad_args(capsys):
    code, _, err = run_cli(capsys, "--builtin", "hard-square", "count", "--n", "2")
    assert code == 1  # missing --dim
    code, _, err = run_cli(capsys, "count", "--n", "2")
    assert code == 1  # no model source
    code, _, err = run_cli(capsys, "--builtin", "nonsense", "--dim", "2", "count", "--n", "1")
    assert code == 1


def test_dim_with_model_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "hs.json"
    path.write_text(json.dumps(HARD_SQUARE_DOC))
    code, out, err = run_cli(
        capsys, "--model", str(path), "--dim", "3", "count", "--n", "2"
    )
    assert code == 1
    assert out == ""
    assert "--dim applies only to --builtin" in err
    code, out, _ = run_cli(capsys, "--model", str(path), "count", "--n", "2")
    assert (code, out.strip()) == (0, "C_2 = 7")


def test_builtin_parameter_on_hard_square_is_a_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "--builtin", "hard-square:7", "--dim", "2", "count", "--n", "2"
    )
    assert code == 1
    assert out == ""
    assert "hard-square takes no parameter" in err
    code, out, err = run_cli(
        capsys, "--builtin", "hard-square:", "--dim", "2", "count", "--n", "2"
    )
    assert (code, out) == (1, "")
    assert "builtin parameter must be an integer, got ''" in err


def test_exit_usage_on_model_parse_failure(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "--model", str(path), "count", "--n", "1")
    assert code == 1
    assert "syntax error" in err


def test_model_file_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(capsys, "--model", str(path), "count", "--n", "2")
    assert (code, out) == (1, "")
    # one line, naming the file and the encoding
    assert err.startswith(f"cannot read {path}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


def test_deeply_nested_model_file(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run_cli(capsys, "--model", str(path), "count", "--n", "2")
    assert (code, out, err) == (1, "", "model error: the document is nested too deeply\n")


def test_format_a_command_does_not_print_is_a_usage_error(capsys):
    head = ("--builtin", "hard-square", "--dim", "2")
    for fmt, command, formats in [
        ("csv", "verify", "human or json"),
        ("json", "glue-demo", "human"),
        ("csv", "glue-demo", "human"),
    ]:
        code, out, err = run_cli(capsys, *head, "--format", fmt, command)
        assert (code, out) == (1, ""), (fmt, command)
        assert err == f"{command} prints --format {formats}, not {fmt}\n"
    # the formats each command has still run
    for argv in (
        ["--format", "json", "verify", "--samples", "2"],
        ["--format", "human", "verify", "--samples", "2"],
        ["--format", "human", "glue-demo"],
    ):
        code, out, _ = run_cli(capsys, *head, *argv)
        assert code == 0 and out, argv


def test_node_budget_flag_is_a_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "--builtin", "hard-square", "--dim", "2",
        "--node-budget=5", "count", "--n", "4",
    )
    assert code == 1
    assert "unrecognized arguments: --node-budget=5" in err
    code, out, _ = run_cli(
        capsys, "--builtin", "hard-square", "--dim", "2",
        "--node-budget", "5", "count", "--n", "4",
    )
    assert (code, out) == (1, "")


def test_count_d1_long_line(capsys):
    # F(62): one transfer product per step, no search over the patterns
    code, out, _ = run_cli(
        capsys, "--builtin", "hard-square", "--dim", "1", "count", "--n", "60",
    )
    assert code == 0
    assert out.strip() == "C_60 = 4052739537881"


def test_bounds_within_node_budget_fills_every_row(capsys):
    # the per-state table of every row with C_{2n-1} counted must not abort
    code, out, _ = run_cli(
        capsys, "--builtin", "hard-square", "--dim", "2",
        "--format", "json", "bounds", "--n-max", "6",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["n"] for r in rows] == [1, 2, 3, 4, 5, 6]
    assert [r["checks"]["key_inequality"] for r in rows] == [True] * 4 + [None] * 2


def test_exit_budget_on_slice_count_before_building_slices(capsys):
    # hard-square d = 2 C_6 = 5,598,861 slices, over the 5M state budget
    code, _, err = run_cli(
        capsys, "--builtin", "hard-square", "--dim", "3", "count", "--n", "6",
    )
    assert code == 2
    assert "more than 5000000 slices at side 6" in err


def test_cli_imports_without_numpy():
    # nor argparse, whose first parser loads gettext and locale
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    code = (
        "import sys\n"
        "import sftbounds.cli\n"
        "sftbounds.cli.main(['--builtin', 'hard-square', '--dim', '2', 'count', '--n', '2'])\n"
        "print(sorted({'numpy', 'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "C_2 = 7\n[]\n"


def test_backend_flag_is_a_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "--builtin", "hard-square", "--dim", "2", "--backend=dfs",
        "count", "--n", "3",
    )
    assert code == 1
    assert "unrecognized arguments: --backend=dfs" in err


def test_usage_error_exit_code_from_argparse(capsys):
    code, _, _ = run_cli(capsys, "--builtin", "hard-square", "--dim", "2", "count")
    assert code == 1  # --n is required


def test_verify_failure_exits_three(capsys, monkeypatch):
    import sftbounds.bounds as bounds_mod

    monkeypatch.setattr(bounds_mod, "verify_qd_recurrence", lambda d, n: False)
    code, out, _ = run_cli(
        capsys, "--builtin", "hard-square", "--dim", "2", "--seed", "1",
        "verify", "--n", "2", "--samples", "2",
    )
    assert code == 3
    assert "FAIL" in out


def run_main(argv):
    """``main`` with its output captured, for tests that take no fixture."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def model_docs(draw):
    """Valid documents: d in {1, 2}, q <= 3, symmetric or closed on request."""
    d = draw(st.integers(1, 2))
    q = draw(st.integers(1, 3))
    names = [f"s{i}" for i in range(q)]
    closure = draw(st.booleans())
    forbidden = []
    for _ in range(d):
        pairs = draw(
            st.sets(st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)), max_size=4)
        )
        if not closure:
            pairs |= {(b, a) for a, b in pairs}
        forbidden.append([[names[a], names[b]] for a, b in sorted(pairs)])
    doc = {"dimension": d, "alphabet": names, "forbidden": forbidden}
    if closure or draw(st.booleans()):
        doc["symmetrize"] = closure
    return doc


WRONG_TYPES = {
    "dimension": ["2", 2.0, True, None, [2]],
    "alphabet": ["s0", [0, 1], None, {"s0": 0}],
    "forbidden": [{}, "s0", None, [["s0", "s0"]]],
    "symmetrize": ["false", "true", 1, None],
}


@st.composite
def corrupt_docs(draw):
    """A valid document with one fault that must be refused."""
    doc = draw(model_docs())
    names, d = doc["alphabet"], doc["dimension"]
    kind = draw(
        st.sampled_from(["type", "missing", "symbol", "pair", "axes", "asymmetric"])
    )
    if kind == "type":
        key = draw(st.sampled_from(sorted(WRONG_TYPES)))
        doc[key] = draw(st.sampled_from(WRONG_TYPES[key]))
    elif kind == "missing":
        del doc[draw(st.sampled_from(["dimension", "alphabet", "forbidden"]))]
    elif kind == "symbol":
        axis = draw(st.integers(0, d - 1))
        pair = [draw(st.sampled_from(names)), "zz"]
        doc["forbidden"][axis].append(draw(st.permutations(pair)))
    elif kind == "pair":
        axis = draw(st.integers(0, d - 1))
        bad = [[names[0]], [names[0]] * 3, [[names[0]], names[0]], [0, 1], names[0]]
        doc["forbidden"][axis].append(draw(st.sampled_from(bad)))
    elif kind == "axes":
        if draw(st.booleans()):
            doc["forbidden"] = doc["forbidden"][:-1]
        else:
            doc["forbidden"] = doc["forbidden"] + [[]]
    else:
        # "extra" is new, so (extra, s) or (s, extra) has no reversed pair
        doc["alphabet"] = names + ["extra"]
        axis = draw(st.integers(0, d - 1))
        doc["forbidden"][axis].append(draw(st.permutations([names[-1], "extra"])))
        doc["symmetrize"] = False
    return doc


@settings(max_examples=60, deadline=None)
@given(model_docs(), st.integers(1, 3))
def test_cli_count_of_random_documents_matches_dfs(tmp_path_factory, doc, n):
    path = tmp_path_factory.mktemp("doc") / "model.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main(
        ["--model", str(path), "--format", "json", "count", "--n", str(n)]
    )
    assert (code, err) == (0, "")
    counts = json.loads(out)["counts"]
    assert counts == [{"n": n, "C_n": str(count_patterns_dfs(model_from_doc(doc), n))}]


@settings(max_examples=200, deadline=None)
@given(corrupt_docs())
@example({"dimension": 1, "alphabet": ["s0"], "forbidden": [[[["s0"], "s0"]]]})
def test_cli_refuses_corrupt_documents(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("doc") / "model.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main(["--model", str(path), "count", "--n", "2"])
    assert code == 1
    assert out == ""
    assert err.startswith("model error: ")


# The four benchmark workloads' argv (seed 7), then every flag in both
# spellings, unique prefixes, a repeated flag and a negative value.
ACCEPTED = [
    "--builtin hard-square --dim 2 --format json bounds --n-max 14",
    "--builtin coloring:3 --dim 2 --format json bounds --n-max 10",
    "--builtin hard-square --dim 3 --format json bounds --n-max 3",
    "--builtin hard-square --dim 2 --seed 7 --format json verify --n 4 --samples 50",
    "--model m.json --builtin coloring:3 --dim 3 --format csv --seed 5 --log-base 2"
    " count --n 2 --n-max 4",
    "--model=m.json --builtin=coloring:3 --dim=3 --format=csv --seed=5 --log-base=2"
    " count --n=2 --n-max=4",
    "bounds --n-max 6",
    "bounds --n-max=6",
    "verify --n 3 --samples 9",
    "verify --n=3 --samples=9",
    "glue-demo --n 3",
    "glue-demo --n=3",
    "--form json bounds --n 3",
    "--form=json --b hard-square --d 2 --s 1 --l 2 bounds --n=3",
    "--mod m.json count --n 2 --n-m 5",
    "--format json --format csv --seed 1 --seed 2 count --n 2 --n 3",
    "verify --samples -5",
    "--seed -5 verify --samples=-5",
    "--dim 2",
]


@pytest.mark.parametrize("argv", ACCEPTED)
def test_parse_args_matches_argparse_reference(argv):
    argv = argv.split()
    expected = vars(cli_reference.build_parser().parse_args(argv))
    assert vars(parse_args(argv)) == expected


# The last stderr line of each usage error, as argparse printed it before
# the flag table replaced it (CPython 3.11); every one exits 1.
REJECTED = [
    ("--bogus count --n 2", "sftbounds: error: unrecognized arguments: --bogus"),
    ("count --n 2 --bogus", "sftbounds: error: unrecognized arguments: --bogus"),
    ("count --n 2 --dim 2", "sftbounds: error: unrecognized arguments: --dim 2"),
    ("count --n", "sftbounds count: error: argument --n: expected one argument"),
    ("count --n x", "sftbounds count: error: argument --n: invalid int value: 'x'"),
    ("--format xml count --n 2",
     "sftbounds: error: argument --format: invalid choice: 'xml'"
     " (choose from 'human', 'json', 'csv')"),
    ("count", "sftbounds count: error: the following arguments are required: --n"),
    ("frob",
     "sftbounds: error: argument COMMAND: invalid choice: 'frob'"
     " (choose from 'count', 'bounds', 'verify', 'glue-demo')"),
    ("--dim 2 -- count --n 2",
     "sftbounds: error: argument COMMAND: invalid choice: '--'"
     " (choose from 'count', 'bounds', 'verify', 'glue-demo')"),
    ("--builtin hard-square --dim 2",
     "sftbounds: error: a command is required (count, bounds, verify, glue-demo)"),
    # an empty long prefix matches every long flag, "-h" takes no value,
    # and "-.5" reads as a value, not a flag
    ("--=x",
     "sftbounds: error: ambiguous option: --=x could match --help, --model,"
     " --builtin, --dim, --format, --seed, --log-base"),
    ("-hx", "sftbounds: error: argument -h/--help: ignored explicit argument 'x'"),
    ("--seed -.5", "sftbounds: error: argument --seed: invalid int value: '-.5'"),
]


@pytest.mark.parametrize("argv, line", REJECTED)
def test_usage_errors_print_argparse_lines(capsys, argv, line):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == line
    if line.startswith("sftbounds"):  # a parse error: the usage line comes first
        prog = line.split(":")[0]
        assert err.startswith(f"usage: {prog} [-h] ")
        assert err.count("\n") == 2


# Tokens whose reading argparse has kept across Python versions.
TOKENS = st.sampled_from([
    "count", "bounds", "verify", "glue-demo", "frob", "7", "-5", "x", "json", "2",
    "--model", "--builtin", "--b", "--dim", "--di=3", "--format", "--form=csv",
    "--seed", "--seed=-1", "--log-base", "--log=2", "--n", "--n=4", "--n-max",
    "--n-m", "--samples", "--sa=-5", "--bogus", "--bogus=1",
])


@settings(max_examples=300, deadline=None)
@given(st.lists(TOKENS, max_size=8))
def test_parse_args_accepts_what_argparse_accepted(argv):
    err = io.StringIO()
    with redirect_stderr(err):
        try:
            expected = vars(cli_reference.build_parser().parse_args(argv))
        except CliError as exc:
            assert exc.code == 1
            expected = None
        try:
            got = vars(parse_args(argv))
        except CliError as exc:
            assert exc.code == 1
            got = None
    assert got == expected


def _flag_cells(parser):
    """Each flag's usage cell, default, help and whether it is required, in
    an argparse parser."""
    for action in parser._actions:
        if action.dest in ("help", "command"):
            continue
        metavar = action.metavar or (
            "{" + ",".join(action.choices) + "}" if action.choices else action.dest.upper()
        )
        cell = f"{action.option_strings[0]} {metavar}"
        yield cell, action.default, action.help, action.required


@pytest.mark.parametrize("command", [None, "count", "bounds", "verify", "glue-demo"])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_flag_and_returns(capsys, command, flag):
    reference = cli_reference.build_parser()
    prog = "sftbounds"
    if command is not None:
        reference = reference._subparsers._group_actions[0].choices[command]
        prog += f" {command}"
    argv = ["--builtin", "hard-square"] + ([command] if command else []) + [flag]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: {prog} [-h] ")
    assert "-h, --help" in out
    for cell, default, text, required in _flag_cells(reference):
        line = next(line for line in out.splitlines() if line.startswith(f"  {cell} "))
        if required:
            assert line.endswith("(required)"), line
        if default is not None:
            assert line.endswith(f"(default: {default})"), line
        if text is not None:
            assert text in line
    if command is None:
        for name in ("count", "bounds", "verify", "glue-demo"):
            assert f"\n  {name} " in out
