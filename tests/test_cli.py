import argparse
import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import reference_expand_one, rng_for, tribonacci_vector
from jperron import cli, intmat
from jperron.cf import (
    Expansion,
    Tail,
    expansion_to_json,
    jpa_expand,
    scalar_mat_vec,
    step_matrix,
)
from jperron.errors import JperronError, MalformedInput
from jperron import scalars as scalars_module
from jperron.scalars import (
    ScalarVector,
    algebraic,
    rational,
    scalar_from_json,
    vector_to_json,
)

RATIONAL_THETA = '[["rat",[1,1]],["rat",[7,5]],["rat",[11,5]]]'
# the bound on decimal exponents is the one int() puts on decimal digits
EXPONENT_LIMIT = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def run_cli(*args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "jperron.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
    )
    return proc


def test_expand_rational_terminates():
    proc = run_cli("expand", "--theta", RATIONAL_THETA, "--depth", "10")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["blocks"] == [[1, 2], [0, 2], [1, 2]]
    assert payload["tail"]["kind"] == "terminated"
    assert payload["theta"][0] == {"rat": [1, 1]}


def test_expand_depth_zero():
    proc = run_cli("expand", "--theta", RATIONAL_THETA, "--depth", "0", "--budget", "0")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["blocks"] == []


def test_expand_malformed_json_exit_1():
    proc = run_cli("expand", "--theta", "[[nope", "--depth", "3")
    assert proc.returncode == 1
    err = json.loads(proc.stderr)
    assert err["error"] == "parse"
    assert "position" in err


def test_expand_indeterminate_exit_2():
    theta = json.dumps(
        [["rat", [1, 1]], ["ivl", {"lo": [9, 10], "hi": [11, 10]}]]
    )
    proc = run_cli("expand", "--theta", theta, "--depth", "4")
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "indeterminate"


def test_expand_interval_mode_points():
    proc = run_cli(
        "expand", "--theta", '["1", "1.4", "2.2"]', "--mode", "interval",
        "--depth", "6",
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tail"]["kind"] == "terminated"


def test_expand_deterministic_bytes():
    a = run_cli("expand", "--theta", RATIONAL_THETA, "--depth", "10")
    b = run_cli("expand", "--theta", RATIONAL_THETA, "--depth", "10")
    assert a.stdout == b.stdout


def test_expand_periodic_tagging(tmp_path):
    theta = json.dumps(vector_to_json(tribonacci_vector()))
    proc = run_cli("expand", "--theta", theta, "--depth", "12")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["tail"] == {"kind": "periodic", "preperiod": 0, "period": [[1, 1]]}
    assert payload["blocks"] == [[1, 1]] * 12


def test_expand_batch_jobs(tmp_path):
    batch = [
        [["rat", [1, 1]], ["rat", [7, 5]]],
        [["rat", [1, 1]], ["rat", [10, 7]]],
    ]
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(batch))
    seq = run_cli("expand", "--input", str(path), "--depth", "12")
    par = run_cli("expand", "--input", str(path), "--depth", "12", "--jobs", "2")
    assert seq.returncode == par.returncode == 0
    assert seq.stdout == par.stdout
    out = json.loads(seq.stdout)
    assert [e["blocks"] for e in out] == [[[1], [2], [2]], [[1], [2], [3]]]


def test_round_trip_expand_bratteli_represent(tmp_path):
    theta = json.dumps(vector_to_json(tribonacci_vector()))
    expand = run_cli("expand", "--theta", theta, "--depth", "8")
    path = tmp_path / "exp.json"
    path.write_text(expand.stdout)

    brat = run_cli("bratteli", "--input", str(path))
    assert brat.returncode == 0
    diagram = json.loads(brat.stdout)
    assert diagram["diagram"]["levels"] == 8
    assert diagram["blocks"] == json.loads(expand.stdout)["blocks"]

    rep = run_cli("represent", "--input", str(path))
    assert rep.returncode == 0
    payload = json.loads(rep.stdout)
    assert payload["rank"] == 3
    assert payload["report"]["stationary"] is True


def test_bratteli_dot_output(tmp_path):
    path = tmp_path / "exp.json"
    exp = Expansion(rank=3, blocks=((1, 2),), tail=Tail.truncated())
    path.write_text(json.dumps(expansion_to_json(exp)))
    proc = run_cli("bratteli", "--input", str(path), "--format", "dot")
    assert proc.returncode == 0
    assert proc.stdout.startswith("digraph")
    assert proc.stdout.count("root ->") == 3


def test_bratteli_compare(tmp_path):
    a = Expansion(rank=3, blocks=((1, 1),) * 2, tail=Tail.periodic(0, [(1, 1)]))
    b = Expansion(
        rank=3, blocks=((3, 4), (1, 1), (1, 1)), tail=Tail.periodic(1, [(1, 1)])
    )
    c = Expansion(rank=3, blocks=((1, 2),) * 2, tail=Tail.periodic(0, [(1, 2)]))
    paths = {}
    for name, e in (("a", a), ("b", b), ("c", c)):
        p = tmp_path / (name + ".json")
        p.write_text(json.dumps(expansion_to_json(e)))
        paths[name] = str(p)
    eq = run_cli("bratteli", "--compare", paths["a"], paths["b"])
    assert eq.returncode == 0
    verdict = json.loads(eq.stdout)
    assert verdict["verdict"] == "equivalent" and verdict["offsets"] == [0, 1]
    ne = run_cli("bratteli", "--compare", paths["a"], paths["c"], "--format", "text")
    assert ne.returncode == 0
    assert "not equivalent" in ne.stdout


def test_bratteli_text_budget_is_the_period_search_budget(capsys):
    # (1, phi) pushed through the step matrices (2), (3), ..., (34) has
    # canonical preperiod 33 and period 1: the default 32 steps see no
    # period, 40 steps do
    m = intmat.identity(2)
    for d in range(2, 35):
        m = intmat.mat_mul(m, step_matrix((d,)))
    phi = algebraic([-1, -1, 1], 1, 2)
    theta = ScalarVector(scalar_mat_vec(m, [rational(1), phi])).normalized()
    expansion = json.dumps(expansion_to_json(jpa_expand(theta, 4)))
    argv = ["bratteli", "--format", "text", "--theta", expansion]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.endswith("stationary: False\n")
    assert cli.main(argv + ["--budget", "40"]) == 0
    assert capsys.readouterr().out.endswith("stationary: True\n")


def test_represent_without_a_tail_vector_reports_the_alignment(capsys):
    # the alignment consumes the whole terminated base stream
    job = json.dumps({
        "theta": [1, "7/5", "11/5"],
        "generators": [{"name": "g", "matrix": [[1, 0, 0], [0, 1, 0], [0, 2, 1]]}],
    })
    assert cli.main(["represent", "--theta", job]) == 0
    entries = json.loads(capsys.readouterr().out)["report"]["entries"]
    assert [e["kind"] for e in entries] == ["reconstruction", "alignment", "aperiodicity"]
    assert cli.main(["represent", "--theta", job, "--format", "text"]) == 0
    kinds = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()[2:]]
    assert kinds == ["[FLAG] reconstruction (g)", "[ok] alignment", "[ok] aperiodicity"]


def test_represent_identity_action(tmp_path):
    job = {
        "rank": 3,
        "theta": [["rat", [1, 1]], ["rat", [7, 5]], ["rat", [11, 5]]],
        "generators": [
            {"name": "e", "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
        ],
        "relations": [[["e", 1], ["e", -1]]],
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    proc = run_cli("represent", "--input", str(path))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["matrices"]["e"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert all(
        entry["ok"]
        for entry in payload["report"]["entries"]
        if entry["kind"] in ("reconstruction", "relation")
    )


def test_represent_incompatible_tails_exit_3(tmp_path):
    theta = vector_to_json(tribonacci_vector())
    other = Expansion(rank=3, blocks=((1, 2),) * 2, tail=Tail.periodic(0, [(1, 2)]))
    job = {
        "rank": 3,
        "theta": theta,
        "generators": [{"name": "g", "expansion": expansion_to_json(other)}],
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    proc = run_cli("represent", "--input", str(path))
    assert proc.returncode == 3
    assert json.loads(proc.stderr)["error"] == "no_common_tail"


_CUBE_ROOT = {"poly": [-2, 0, 0, 1], "lo": [1, 1], "hi": [2, 1]}
# theta = (1, 2^(1/3), 4^(1/3)) and M = [[1,-2,1],[0,1,0],[0,-1,1]]: the
# streams agree within depth 24, but A*theta is not M*theta (A has
# entries near 9*10^11)
_FALSE_ALIGNMENT = {
    "theta": [1, {"alg": _CUBE_ROOT}, {"alg": dict(_CUBE_ROOT, coeffs=[[0, 1], [0, 1], [1, 1]])}],
    "generators": [{"name": "m", "matrix": [[1, -2, 1], [0, 1, 0], [0, -1, 1]]}],
}


def test_represent_refuses_a_false_bounded_alignment(capsys):
    argv = ["represent", "--depth", "24", "--theta", json.dumps(_FALSE_ALIGNMENT)]
    for fmt in ("json", "text"):
        assert cli.main(argv + ["--format", fmt]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "no_common_tail"
        assert payload["message"].startswith("generator 'm': the depth-bounded")


def test_genus_command():
    assert json.loads(run_cli("genus", "2").stdout) == {"genus": 2, "rank": 6}
    assert run_cli("genus", "3", "--format", "text").stdout.strip() == "12"
    bad = run_cli("genus", "0")
    assert bad.returncode == 1
    assert json.loads(bad.stderr)["error"] == "invalid_genus"


def test_stdin_input():
    proc = run_cli("expand", "--input", "-", "--depth", "6", stdin=RATIONAL_THETA)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tail"]["kind"] == "terminated"


def test_missing_input_is_exit_1():
    proc = run_cli("expand", "--depth", "3")
    assert proc.returncode == 1


def test_nonpositive_theta_is_exit_1():
    proc = run_cli("expand", "--theta", '[["rat",[1,1]],["rat",[-1,2]]]', "--depth", "3")
    assert proc.returncode == 1


def test_text_formats(tmp_path):
    exp = run_cli("expand", "--theta", RATIONAL_THETA, "--depth", "6", "--format", "text")
    assert exp.returncode == 0
    assert "tail terminated" in exp.stdout

    job = {
        "rank": 2,
        "theta": [["rat", [1, 1]], ["rat", [7, 5]]],
        "generators": [{"name": "e", "matrix": [[1, 0], [0, 1]]}],
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    rep = run_cli("represent", "--input", str(path), "--format", "text")
    assert rep.returncode == 0
    assert "certification" in rep.stdout and "e:" in rep.stdout


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs inline."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "items,jobs,cpus,workers",
    [
        (6, 2, 2, [2]),
        (6, 64, 2, [2]),
        (2, 64, 8, [2]),
        (6, 3, 8, [3]),
        (6, 64, None, []),
        (1, 4, 8, []),
        (6, 1, 8, []),
    ],
)
def test_expand_jobs_capped(monkeypatch, capsys, items, jobs, cpus, workers):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "created", [])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    batch = json.dumps([[1, "%d/5" % (k + 6)] for k in range(items)])
    code = cli.main(["expand", "--theta", batch, "--depth", "8", "--jobs", str(jobs)])
    assert code == 0
    assert _RecordingPool.created == workers
    assert len(json.loads(capsys.readouterr().out)) == items


def test_expand_rejects_huge_decimal_exponent():
    theta = json.dumps([1, "1e%d" % (EXPONENT_LIMIT + 1)])
    proc = run_cli("expand", "--theta", theta, "--depth", "3")
    assert proc.returncode == 1
    err = json.loads(proc.stderr)
    assert err["error"] == "parse" and "exponent" in err["message"]


def test_decimal_exponent_checked_before_any_fraction(monkeypatch):
    # the bound applies to the text, so no power of ten is ever built: in a
    # JSON number literal and in a decimal string, in either mode
    class Refused(Fraction):
        def __new__(cls, *args):
            raise AssertionError("Fraction built for an out-of-range exponent")

    monkeypatch.setattr(cli, "Fraction", Refused)
    monkeypatch.setattr(scalars_module, "Fraction", Refused)
    over = EXPONENT_LIMIT + 1
    for text in ("1e%d" % over, "2.5E-%d" % over, "1e999999999"):
        with pytest.raises(MalformedInput):
            cli._load_json("[1, %s]" % text)
        for mode in ("rational", "interval"):
            with pytest.raises(MalformedInput):
                cli._theta_from_obj([text, 1], mode)


def test_decimal_exponent_at_the_limit_is_read():
    text = "1e-%d" % EXPONENT_LIMIT
    assert cli._load_json(text) == Fraction(1, 10**EXPONENT_LIMIT)
    assert scalar_from_json(text).value == Fraction(1, 10**EXPONENT_LIMIT)
    assert cli._coerce_entry("2.5e3", "interval") == {
        "ivl": {"lo": [2500, 1], "hi": [2500, 1]}
    }


@pytest.fixture
def digit_limit():
    """Python's int/str digit limit, set to its default for the test."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield sys.get_int_max_str_digits()
    finally:
        sys.set_int_max_str_digits(saved)


def test_integer_literal_beyond_digit_limit_is_malformed(digit_limit, capsys):
    theta = "[1, 1%s]" % ("0" * (digit_limit + 100))
    code = cli.main(["expand", "--theta", theta, "--depth", "3"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "parse" and "limit" in payload["message"]


def test_unprintable_result_is_a_json_error(digit_limit, capsys):
    # 1e-limit is accepted, but the digit 10^limit has one digit too many
    theta = json.dumps([1, "1e-%d" % digit_limit])
    code = cli.main(["expand", "--theta", theta, "--depth", "3"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "error" and "cannot print" in payload["message"]


def test_unprintable_text_report_is_a_json_error(digit_limit, capsys):
    # the text report is built whole before anything is written
    theta = json.dumps([1, "1e-%d" % digit_limit])
    code = cli.main(["expand", "--theta", theta, "--depth", "3", "--format", "text"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "error" and "cannot print" in payload["message"]


@pytest.mark.parametrize("theta", ["[1, 0]", "[1, 0, 1]", "[1, 0.5, 0]", "[0, 1]"])
@pytest.mark.parametrize("flags", [[], ["--budget", "0"]])
def test_expand_rejects_non_positive_input(theta, flags, capsys):
    # the period search used to accept zero entries, and a zero head
    # raised ZeroDivisionError; positivity no longer depends on the budget
    code = cli.main(["expand", "--theta", theta, *flags])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "error"
    assert payload["message"] == "input vector must be strictly positive"


def _expand_inputs():
    """(JSON theta, mode) at ranks 2-4: rational, algebraic, interval; the
    algebraic vectors carry their own JSON tags."""
    rng = rng_for("cli-expand-reference")
    out = [
        (["%d/%d" % (rng.randint(1, 400), rng.randint(1, 400)) for _ in range(rank)],
         "rational")
        for rank in (2, 3, 4)
        for _ in range(3)
    ]
    out.append((["1", "10946/6765"], "rational"))  # terminates after 20 steps
    out.append((vector_to_json(tribonacci_vector()), "rational"))
    r2 = algebraic([-2, 0, 1], 1, 2)
    # cube roots of 3 and 5: periodic from step 2 and from step 7; the
    # fourth root of 2: no period within these budgets
    c3, c5 = (algebraic([-c, 0, 0, 1], 1, 2) for c in (3, 5))
    q = algebraic([-2, 0, 0, 0, 1], 1, 2)
    for entries in ([r2], [c3, c3 * c3], [c5, c5 * c5], [q, q * q, q * q * q]):
        theta = vector_to_json(ScalarVector([rational(1), *entries]))
        out.append((theta, "rational"))
    out.append((["1", "1.4", "2.2"], "interval"))
    out.append((["1", "10946/6765"], "interval"))
    out.append(([1, {"ivl": {"lo": [14142, 10000], "hi": [14143, 10000]}}], "interval"))
    out.append(([1, {"ivl": {"lo": [12, 10], "hi": [13, 10]}}, "1.9"], "interval"))
    # the second state has an entry of uncertain sign, >= 0 as the loop
    # built it: the next termination test is indeterminate
    out.append(([1, "1.5", {"ivl": {"lo": [2, 1], "hi": [5, 2]}}], "interval"))
    return out


def _expand_outcome(fn, *args):
    try:
        return expansion_to_json(fn(*args))
    except JperronError as exc:
        return type(exc).__name__, str(exc)


def test_expand_matches_search_then_expand_reference():
    # depths below, at and above the budget; the reference takes the
    # budget split into its two halves
    kinds = set()
    for theta, mode in _expand_inputs():
        for budget in (0, 2, 4, 8, 16):
            split = budget // 2, budget - budget // 2
            for depth in (0, 1, 4, 8, 16, 20):
                args = theta, mode, depth
                got = _expand_outcome(cli._expand_one, *args, budget)
                want = _expand_outcome(reference_expand_one, *args, *split)
                assert got == want, (args, budget)
                kinds.add(got[0] if isinstance(got, tuple) else got["tail"]["kind"])
    assert kinds == {"terminated", "truncated", "periodic", "IndeterminateFloor"}


_MALFORMED_JOBS = {
    "non-integer entry": {"generators": [{"name": "a", "matrix": [["x", 0, 0], [0, 1, 0], [0, 0, 1]]}]},
    "ragged matrix": {"generators": [{"name": "a", "matrix": [[1], [0, 1], [0, 0, 1]]}]},
    "scalar matrix": {"generators": [{"name": "a", "matrix": 5}]},
    "empty matrix": {"generators": [{"name": "a", "matrix": []}]},
    "short relation pair": {"generators": [], "relations": [[["a"]]]},
    "non-integer rank": {"generators": [], "rank": "x"},
    "scalar generators": {"generators": 5},
}


@pytest.mark.parametrize("job", list(_MALFORMED_JOBS.values()), ids=list(_MALFORMED_JOBS))
def test_represent_malformed_job_is_a_json_parse_error(job, capsys):
    # each used to end in an uncaught ValueError, IndexError or TypeError
    text = json.dumps(dict(job, theta=[1, "7/5", "11/5"]))
    code = cli.main(["represent", "--theta", text])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "parse"


_MAT3 = [[0, 0, 1], [1, 0, 1], [0, 1, 1]]
_MALFORMED_INPUTS = {
    "float numerator": ("expand", [{"rat": [1.5, 1]}, {"rat": [7, 2]}]),
    "boolean numerator": ("expand", [{"rat": [1, 1]}, {"rat": [True, 1]}]),
    "float denominator": ("expand", [{"rat": [1, 1]}, {"rat": [7, 2.9]}]),
    "string numerator": ("expand", [{"rat": [1, 1]}, {"rat": ["7", 2]}]),
    "float modulus coefficient": (
        "represent",
        {"theta": [1, {"alg": {"poly": [-2, 0, 1.7], "lo": [1, 1], "hi": [2, 1]}}],
         "generators": []},
    ),
    "boolean theta entry": ("represent", {"theta": [1, True, "3"], "generators": []}),
    "unreadable theta string": ("represent", {"theta": [1, "abc", "3"], "generators": []}),
    "zero denominator string": ("represent", {"theta": [1, "1/0", "3"], "generators": []}),
    "huge decimal exponent": ("represent", {"theta": [1, "1e5000", "3"], "generators": []}),
    "float and boolean matrix entries": (
        "represent",
        {"theta": [1, "7/5", "11/5"],
         "generators": [{"name": "a", "matrix": [[1.9, 0, 0], [0, 1, 0], [0, 0, True]]}],
         "relations": [[["a", 1]]]},
    ),
    "float relation exponent": (
        "represent",
        {"theta": [1, "7/5", "11/5"], "generators": [{"name": "a", "matrix": _MAT3}],
         "relations": [[["a", 2.7]]]},
    ),
    "huge relation exponent": (
        "represent",
        {"theta": [1, "7/5", "11/5"], "generators": [{"name": "a", "matrix": _MAT3}],
         "relations": [[["a", 1000000000]]]},
    ),
    "float rank": ("represent", {"theta": [1, "7/5", "11/5"], "generators": [], "rank": 3.0}),
    "float expansion rank": (
        "represent",
        {"rank": 2.0, "blocks": [[1]], "tail": {"kind": "truncated"}, "theta": [1, "1/2"]},
    ),
    "float digit": (
        "represent",
        {"rank": 2, "blocks": [[1.5]], "tail": {"kind": "truncated"}, "theta": [1, "1/2"]},
    ),
    "float preperiod": (
        "represent",
        {"rank": 2, "blocks": [[1]], "tail": {"kind": "periodic", "preperiod": 0.5,
                                              "period": [[1]]}, "theta": [1, "1/2"]},
    ),
}


@pytest.mark.parametrize(
    "command,obj", list(_MALFORMED_INPUTS.values()), ids=list(_MALFORMED_INPUTS)
)
def test_malformed_json_numbers_are_parse_errors(command, obj, capsys):
    # each used to be read as other input (int() truncates floats and takes
    # booleans), to end in a traceback, or to fail only when printed
    code = cli.main([command, "--theta", json.dumps(obj)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "parse"


_JOB = json.dumps({
    "theta": [1, "7/5", "11/5"],
    "generators": [{"name": "g", "matrix": [[1, 0, 0], [0, 1, 0], [1, 1, 1]]}],
})
_EXPANSION = '{"rank": 3, "blocks": [[1, 2], [0, 2]], "tail": {"kind": "truncated"}}'
_REJECTED_ARGS = {
    "represent negative depth": ["represent", "--depth", "-1", "--theta", _JOB],
    "represent negative period budget": ["represent", "--budget", "-3", "--theta", _JOB],
    "compare negative offset budget": ["bratteli", "--compare", "A", "A", "--budget", "-1"],
    "expand negative budget": ["expand", "--budget", "-1", "--theta", RATIONAL_THETA],
    "dot negative depth": ["bratteli", "--format", "dot", "--depth", "-4", "--theta", _EXPANSION],
    "json negative budget": ["bratteli", "--format", "json", "--budget", "-1", "--theta", _EXPANSION],
    "dot negative budget": ["bratteli", "--format", "dot", "--budget", "-1", "--theta", _EXPANSION],
    "non-integer option": ["expand", "--depth", "abc", "--theta", RATIONAL_THETA],
    "no command": [],
    "unknown command": ["nosuch"],
    "unknown option": ["genus", "2", "--nosuch"],
    "missing argument": ["genus"],
}


@pytest.mark.parametrize("argv", list(_REJECTED_ARGS.values()), ids=list(_REJECTED_ARGS))
def test_negative_budgets_and_usage_errors_exit_1(argv, tmp_path, capsys):
    # negative budgets used to give bounded verdicts at negative depths or
    # dangling edges, and usage errors exited 2, the code of indeterminate
    # arithmetic
    path = tmp_path / "a.json"
    path.write_text(_EXPANSION)
    code = cli.main([str(path) if arg == "A" else arg for arg in argv])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "parse"


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["represent", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: jperron represent")


def test_cli_import_leaves_multiprocessing_out():
    # only an expand batch with --jobs above 1 starts worker processes
    code = "import jperron.cli, sys; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout == "False\n"


# flags a subcommand never read, --format choices it printed as JSON, the
# two-part budgets that one --budget replaced, and --mode algebraic, which
# read bare numbers as --mode rational does
_REMOVED_FLAGS = {
    "represent --mode": ["represent", "--mode", "algebraic", "--theta", _JOB],
    "represent --jobs": ["represent", "--jobs", "2", "--theta", _JOB],
    "represent --budget-preperiod": ["represent", "--budget-preperiod", "4", "--theta", _JOB],
    "represent --format dot": ["represent", "--format", "dot", "--theta", _JOB],
    "bratteli --mode": ["bratteli", "--mode", "rational", "--theta", _EXPANSION],
    "bratteli --jobs": ["bratteli", "--jobs", "1", "--theta", _EXPANSION],
    "bratteli --budget-period": ["bratteli", "--compare", "A", "A", "--budget-period", "4"],
    "expand --format dot": ["expand", "--format", "dot", "--theta", RATIONAL_THETA],
    "expand --mode algebraic": ["expand", "--mode", "algebraic", "--theta", RATIONAL_THETA],
    "expand --budget-preperiod": ["expand", "--budget-preperiod", "4", "--theta", RATIONAL_THETA],
    "expand --budget-period": ["expand", "--budget-period", "4", "--theta", RATIONAL_THETA],
    "represent --budget-period": ["represent", "--budget-period", "4", "--theta", _JOB],
    "bratteli --budget-preperiod": ["bratteli", "--compare", "A", "A", "--budget-preperiod", "3"],
}
_KEPT_FLAGS = {
    "represent": ["represent", "--depth", "8", "--budget", "8", "--format", "text",
                  "--theta", _JOB],
    "bratteli dot": ["bratteli", "--format", "dot", "--depth", "2", "--theta", _EXPANSION],
    "bratteli compare": ["bratteli", "--compare", "A", "A", "--budget", "3"],
    "bratteli text": ["bratteli", "--format", "text", "--theta", _EXPANSION],
    "expand": ["expand", "--mode", "interval", "--jobs", "1", "--budget", "8",
               "--format", "text", "--theta", RATIONAL_THETA],
}


def _main_with_file(argv, tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text(_EXPANSION)
    code = cli.main([str(path) if arg == "A" else arg for arg in argv])
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("argv", list(_REMOVED_FLAGS.values()), ids=list(_REMOVED_FLAGS))
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv, tmp_path, capsys):
    code, out, err = _main_with_file(argv, tmp_path, capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "parse"


@pytest.mark.parametrize("argv", list(_KEPT_FLAGS.values()), ids=list(_KEPT_FLAGS))
def test_flags_a_subcommand_reads_still_run(argv, tmp_path, capsys):
    code, out, err = _main_with_file(argv, tmp_path, capsys)
    assert code == 0 and out and err == ""


def _readme_flag_table():
    """{subcommand: set of ``--`` options} from the README's CLI table."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", readme.read_text(), re.MULTILINE)
    return {name: set(re.findall(r"--[\w-]+", flags)) for name, flags in rows}


def test_readme_flag_table_matches_the_parser():
    # the table is the documentation of which flags each subcommand reads
    sub = next(
        a for a in cli._build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    parsed = {
        name: {
            opt
            for action in parser._actions
            for opt in action.option_strings
            if opt.startswith("--") and opt != "--help"
        }
        for name, parser in sub.choices.items()
    }
    assert _readme_flag_table() == parsed


# ------------------------------------------------- states the loop built


_UNCERTAIN_SIGN = (
    '[1, {"ivl": {"lo": [14,10], "hi": [15,10]}}, '
    '{"ivl": {"lo": [2,1], "hi": [21,10]}}]'
)


def test_interval_state_built_by_the_loop_is_not_checked_again(capsys):
    # the first step leaves the entry [0, 1/4]: >= 0 by construction, so
    # the next step is indeterminate (exit 2), not a sign error (exit 1)
    code = cli.main(["expand", "--theta", _UNCERTAIN_SIGN, "--depth", "5"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "indeterminate"
    assert payload["message"].startswith("cannot decide termination")
    assert cli.main(["expand", "--theta", _UNCERTAIN_SIGN, "--depth", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["blocks"] == [[1, 2]] and payload["tail"]["kind"] == "truncated"


def test_an_error_message_past_the_digit_limit_is_printed(capsys):
    # the interval endpoints double their digits each step, and the
    # message of the floor that becomes indeterminate shows the state
    theta = (
        '[1, {"ivl": {"lo": [31415926999999999999999999999, '
        '10000000000000000000000000000], "hi": [31415927000000000000000000001, '
        '10000000000000000000000000000]}}, 2.7182818]'
    )
    code = cli.main(["expand", "--theta", theta, "--depth", "40"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "indeterminate"
    assert " bits>" in payload["message"]


# ------------------------------------------------- JSON numbers read exactly


def _main_json(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, json.loads(out) if out else json.loads(err)


def test_json_number_literals_are_read_exactly(capsys):
    # a float would read 1.00000000000000001 as 1 and terminate at once
    code, payload = _main_json(
        capsys, "expand", "--theta", "[1, 1.00000000000000001, 2.5]", "--depth", "3"
    )
    assert code == 0
    assert payload["theta"][1] == {"rat": [100000000000000001, 10**17]}
    _, want = _main_json(
        capsys, "expand", "--theta", '[1, "1.00000000000000001", "5/2"]', "--depth", "3"
    )
    assert payload == want and payload["blocks"][0] == [1, 2]


def test_json_number_literal_below_float_range_is_positive(capsys):
    # a float underflows 1e-400 to 0, which is not strictly positive
    code, payload = _main_json(capsys, "expand", "--theta", "[1, 1e-400, 2.5]", "--depth", "1")
    assert code == 0
    assert payload["theta"][1] == {"rat": [1, 10**400]}
    assert payload["blocks"] == [[0, 2]]


def test_represent_reads_json_number_literals(capsys):
    job = '{"theta": [1, 1.5, 2.25], "generators": []}'
    code, payload = _main_json(capsys, "represent", "--theta", job)
    assert code == 0
    _, want = _main_json(
        capsys, "represent", "--theta", '{"theta": [1, "3/2", "9/4"], "generators": []}'
    )
    assert payload == want
    code, expand = _main_json(capsys, "expand", "--theta", "[1, 1.5, 2.25]")
    assert code == 0 and expand["theta"] == [{"rat": [1, 1]}, {"rat": [3, 2]}, {"rat": [9, 4]}]


def test_json_number_literal_in_an_integer_position_is_malformed(capsys):
    for job in (
        '{"theta": [1, 1.5, 2.25], "generators": [], "rank": 3.0}',
        '{"theta": [1, 1.5, 2.25], "generators": [{"name": "a", '
        '"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1e0]]}]}',
    ):
        code, payload = _main_json(capsys, "represent", "--theta", job)
        assert code == 1 and payload["error"] == "parse"
