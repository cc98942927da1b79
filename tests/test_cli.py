import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from polyfunctor import AlgebraError, BudgetExceededError, CertificateNotFoundError, ParseError, dim, parse_functor
from polyfunctor.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("functor", ("sym(0,id)", "ext(0,id)"))
def test_dim_of_a_zeroth_power_of_the_zero_space(capsys, functor):
    code, out, _ = run_cli(capsys, "dim", "--functor", functor, "--n", "0")
    assert code == 0
    assert out.strip() == "1"


def test_dderiv_characteristic_five(capsys):
    code, out, _ = run_cli(
        capsys,
        "dderiv",
        "--field",
        "fp:5",
        "--poly",
        "y^25*z^2 + x^10*y^25*z",
        "--w-vars",
        "x,y",
        "--dir",
        "1,1",
    )
    assert code == 0
    assert out.strip() == "2*x^5*y^25*z"


def test_example_rank1_json(capsys):
    code, out, _ = run_cli(
        capsys, "example-rank1", "--n", "3", "--field", "q", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["h"] == "2*z_1_2"
    assert len(doc["certificate"]) == 3
    assert doc["all_passed"] is True
    assert doc["e0"] == 0
    assert doc["delta"]["value"] == 4


def test_hasse_and_taylor(capsys):
    code, out, _ = run_cli(
        capsys, "hasse", "--field", "q", "--poly", "x^6", "--w-vars", "x", "--dir", "1", "--r", "2"
    )
    assert code == 0
    assert out.strip() == "15*x^4"
    code, out, _ = run_cli(
        capsys, "taylor", "--field", "q", "--poly", "x^2", "--w-vars", "x"
    )
    assert code == 0
    assert out.strip() == "x^2 + 2*x*t*x_w + t^2*x_w^2"
    # a taken copy name is passed over for a fresh one
    code, out, err = run_cli(capsys, "taylor", "--field", "q", "--poly", "x*x_w", "--w-vars", "x")
    assert (code, out, err) == (0, "x*x_w + x_w*t*x_w_\n", "")


@pytest.mark.parametrize("argv, code, message", [
    ("hasse --field q --w-vars x,y --dir 1 --r 1", 1, "error: direction length does not match the subspace variables"),
    ("taylor --field q --w-vars x --t x", 1, "error: auxiliary variable 'x' is not fresh"),
    ("taylor --field r --w-vars x", 2, "parse error: unknown field selector 'r' (at position 0)"),
])
def test_hasse_and_taylor_refusals(capsys, argv, code, message):
    assert run_cli(capsys, *argv.split(), "--poly", "x*y") == (code, "", message + "\n")


def test_round_trip_of_printed_polynomials(capsys):
    from polyfunctor import GradedRing, parse_polynomial
    from conftest import F5

    code, out, _ = run_cli(
        capsys,
        "dderiv",
        "--field",
        "fp:5",
        "--poly",
        "y^25*z^2 + x^10*y^25*z",
        "--w-vars",
        "x,y",
        "--dir",
        "2,3",
    )
    ring = GradedRing(F5, ["x", "y", "z"])
    reparsed = parse_polynomial(out.strip(), ring)
    assert reparsed.to_text() == out.strip()


def test_round_trip_of_printed_functors(capsys):
    from polyfunctor import format_functor, parse_functor

    for text in (
        "shift(2,tensor(id,id))",
        "quot(shift(2,sum(tsym,talt)),5)",
        "sum(sym(2,id),ext(3,const(4)))",
    ):
        expr = parse_functor(text)
        assert parse_functor(format_functor(expr)) == expr


def test_decompose_output(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--functor", "shift(2,tensor(id,id))")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree 0: p0 const(4) dim = 4"
    assert "tensor(id,id)" in lines[-1]


def _decompose_corpus():
    """240 seeded expressions, each constructor among them, with their
    dimension polynomials' printed forms covering fractions and minus signs."""
    import random

    from conftest import random_functor
    from polyfunctor import format_functor

    rng = random.Random(25)
    return [format_functor(random_functor(rng, max_degree=3, depth=3)) for _ in range(240)]


# sha256 of the decompose stdout over _decompose_corpus, captured while
# dimension polynomials had their own interpolation and printer
DECOMPOSE_GOLDEN = {
    "text": "fd3790cb4f820f14ffd015d8e024bcad36f28f31cb506a1d91cead1467fd666b",
    "json": "e5f594b2733cc02184333f25e5b7f31a010eefd0f62c3fd9a7ff445ae6db04ce",
}


@pytest.mark.parametrize("fmt", sorted(DECOMPOSE_GOLDEN))
def test_decompose_golden_stdout(capsys, fmt):
    digest = hashlib.sha256()
    for text in _decompose_corpus():
        code, out, err = run_cli(capsys, "decompose", "--functor", text, "--format", fmt)
        assert (code, err) == (0, "")
        digest.update(out.encode())
    assert digest.hexdigest() == DECOMPOSE_GOLDEN[fmt]


def test_decompose_corpus_covers_the_grammar(capsys):
    import re

    corpus = _decompose_corpus()
    names = {name for text in corpus for name in re.findall("[a-z]+", text)}
    assert names == {"const", "id", "tsym", "talt", "sum", "tensor", "sym", "ext", "shift", "quot"}
    assert any(re.search(r"(sym|ext)\(\d,sum\(", text) for text in corpus)
    printed = "".join(run_cli(capsys, "decompose", "--functor", text)[1] for text in corpus)
    assert "/" in printed and " - " in printed


def test_compare_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "compare",
        "--functor-a",
        "quot(shift(2,sum(tsym,talt)),5)",
        "--functor-b",
        "tensor(id,id)",
    )
    assert code == 0
    assert out.splitlines()[0] == "lex-smaller"


def test_shift_check_output(capsys):
    code, out, _ = run_cli(
        capsys, "shift-check", "--functor", "sym(3,id)", "--u", "2", "--n", "3"
    )
    assert code == 0
    assert "composite is identity: true" in out
    assert "top-degree part isomorphic: true" in out


def test_delta_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "delta",
        "--field",
        "q",
        "--vars",
        "z_1_2",
        "--weights",
        "2",
        "--generators",
        "z_1_2^2",
    )
    assert code == 0
    assert "delta: 4" in out


@pytest.mark.parametrize("weights", ["2", "2,1,1"])
def test_delta_refuses_weights_that_disagree_with_the_variables(capsys, weights):
    code, out, err = run_cli(
        capsys, "delta", "--field", "q", "--vars", "x,y", "--weights", weights,
        "--generators", "x",
    )
    assert code == 1 and out == ""
    assert "weights and variables disagree in length" in err


@pytest.mark.parametrize("argv", [
    ("delta", "--field", "q", "--vars", "x", "--generators", "x"),
    ("hasse", "--field", "q", "--poly", "x", "--w-vars", "x", "--dir", "1", "--r", "1"),
    ("taylor", "--field", "q", "--poly", "x", "--w-vars", "x"),
    ("dderiv", "--field", "q", "--poly", "x", "--w-vars", "x", "--dir", "1"),
])
def test_a_non_integer_weight_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--weights", "a"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "argument --weights: not a comma-separated list of integers: 'a'" in captured.err
    assert "Traceback" not in captured.err


def test_proofstep_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "proofstep",
        "--field",
        "q",
        "--functor",
        "sum(tsym,talt)",
        "--u",
        "2",
        "--n",
        "2",
        "--f",
        "y_1_1*y_2_2 - y_1_2^2 + z_1_2^2",
        "--r0",
        "1",
        "--r-part",
        "p1",
    )
    assert code == 0
    assert "h: 2*z_1_2" in out
    assert "all passed: true" in out


def test_parse_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "dim", "--functor", "bogus(", "--n", "2")
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize("poly, direction", [("1/0*x", "1"), ("x", "1/0")])
def test_zero_denominator_exit_code(capsys, poly, direction):
    code, out, err = run_cli(
        capsys, "hasse", "--field", "q", "--poly", poly, "--w-vars", "x", "--dir", direction, "--r", "1"
    )
    assert code == 2
    assert err.startswith("parse error: zero denominator (at position 2)")
    assert "Traceback" not in err
    assert out == ""


def test_domain_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "example-rank1", "--n", "3", "--field", "fp:2")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_example_rank1_without_samples_is_a_domain_error(capsys, samples):
    # no sample drawn means no sampling check can pass
    code, out, err = run_cli(
        capsys, "example-rank1", "--n", "2", "--field", "q", "--samples", samples
    )
    assert code == 1
    assert "at least one sample" in err
    assert out == ""


def test_certificate_not_found_exit_code(capsys):
    # one element cannot eliminate three moving coordinates
    code, out, _ = run_cli(
        capsys,
        "proofstep",
        "--field",
        "q",
        "--functor",
        "sum(tsym,talt)",
        "--u",
        "2",
        "--n",
        "3",
        "--f",
        "y_1_1*y_2_2 - y_1_2^2 + z_1_2^2",
        "--r0",
        "1",
        "--r-part",
        "p1",
        "--phi",
        "1,0,0;0,1,0",
    )
    assert code == 3
    assert "INCONCLUSIVE certificate-found" in out


def test_proofstep_default_projections_refuse_n_below_two(capsys, monkeypatch):
    from polyfunctor import cli

    def never(*args, **kwargs):
        raise AssertionError("the stages ran")

    monkeypatch.setattr(cli, "run_proofstep", never)
    code, out, err = run_cli(capsys, *PROOFSTEP_BASE, "--field", "q", "--n", "1")
    assert code == 1
    assert out == ""
    assert err == "error: default pair projections need n >= 2; pass --phi\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["dim"])  # missing required arguments
    assert exc.value.code == 2


def test_byte_identical_reports(capsys):
    args = ("example-rank1", "--n", "2", "--field", "q", "--seed", "3", "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_report_polynomials_reparse(capsys):
    from polyfunctor import parse_polynomial
    from polyfunctor.functors import SumF, TenAltF, TenSymF
    from polyfunctor.proofstep import CoordinateModel
    from conftest import Q

    code, out, _ = run_cli(
        capsys, "example-rank1", "--n", "3", "--field", "q", "--format", "json"
    )
    doc = json.loads(out)
    big = CoordinateModel(SumF((TenSymF(), TenAltF())), Q, 5).ring
    small = CoordinateModel(SumF((TenSymF(), TenAltF())), Q, 2).ring
    assert parse_polynomial(doc["f"], small).to_text() == doc["f"]
    assert parse_polynomial(doc["h"], small).to_text() == doc["h"]
    for item in doc["k"]:
        assert parse_polynomial(item["value"], big).to_text() == item["value"]
    for entry in doc["certificate"]:
        assert parse_polynomial(entry["numerator"], big).to_text() == entry["numerator"]


def test_byte_identical_across_processes():
    import os
    import subprocess
    import sys

    import polyfunctor

    # the child imports the package this process imported, whether or not
    # PYTHONPATH names it (pytest's pythonpath setting reaches no child)
    package_root = os.path.dirname(os.path.dirname(polyfunctor.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    cmd = [
        sys.executable,
        "-m",
        "polyfunctor",
        "example-rank1",
        "--n",
        "2",
        "--field",
        "fp:3",
        "--format",
        "json",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True, env=env)
    second = subprocess.run(cmd, capture_output=True, check=True, env=env)
    assert first.stdout == second.stdout


def test_induce_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "induce",
        "--functor",
        "ext(2,id)",
        "--field",
        "q",
        "--phi",
        "1,2,0;3,4,0;0,0,1",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"][0][0] == "-2"  # det [[1,2],[3,4]]


def _with_statuses(real, *statuses):
    """Wrap a report-producing function so the last checks get the statuses."""

    def run(*args, **kwargs):
        report = real(*args, **kwargs)
        for check, status in zip(reversed(report.checks), statuses):
            check.status = status
        return report

    return run


PROOFSTEP_ARGS = (
    "proofstep", "--field", "q", "--functor", "sum(tsym,talt)", "--u", "2", "--n", "2",
    "--f", "y_1_1*y_2_2 - y_1_2^2 + z_1_2^2", "--r0", "1", "--r-part", "p1",
)
RANK1_ARGS = ("example-rank1", "--n", "2", "--field", "q", "--samples", "5")


@pytest.mark.parametrize(
    "target,args",
    [("run_rank_one_example", RANK1_ARGS), ("run_proofstep", PROOFSTEP_ARGS)],
)
@pytest.mark.parametrize(
    "statuses,expected",
    [(("fail",), 4), (("inconclusive",), 3), (("inconclusive", "fail"), 4)],
)
def test_check_statuses_set_the_exit_code(capsys, monkeypatch, target, args, statuses, expected):
    from polyfunctor import cli

    monkeypatch.setattr(cli, target, _with_statuses(getattr(cli, target), *statuses))
    code, out, _ = run_cli(capsys, *args)
    assert code == expected
    assert "all passed: false" in out


def test_example_rank1_without_a_certificate_fails_and_never_exits_3(capsys, monkeypatch):
    # every check of the example is decided, so a missing certificate is a
    # failed check (4), where proofstep reports it inconclusive (3)
    from polyfunctor import CertificateNotFoundError, proofstep

    def nothing(*args, **kwargs):
        raise CertificateNotFoundError("no unit minor found within the search budget")

    monkeypatch.setattr(proofstep, "eliminate", nothing)
    code, out, _ = run_cli(capsys, *RANK1_ARGS)
    assert code == 4
    assert "FAIL   certificate-found" in out
    assert "INCONCLUSIVE" not in out


def test_nested_shift_check(capsys):
    code, out, _ = run_cli(
        capsys, "shift-check", "--functor", "shift(1,sym(2,id))", "--u", "2", "--n", "3"
    )
    assert code == 0
    assert "top-degree part isomorphic: true" in out
    assert "top dims: shift=6 base=6" in out


def test_failed_shift_check_exit_code(capsys, monkeypatch):
    from polyfunctor import cli
    from polyfunctor.functors import ShiftMaps

    real = cli.shift_maps

    def failing(*args):
        maps = real(*args)
        return ShiftMaps(
            maps.alpha, maps.beta, maps.composite_is_identity, False, maps.top_dim_shift, maps.top_dim_base
        )

    monkeypatch.setattr(cli, "shift_maps", failing)
    code, out, _ = run_cli(
        capsys, "shift-check", "--functor", "sym(2,id)", "--u", "1", "--n", "2"
    )
    assert code == 4
    assert "top-degree part isomorphic: false" in out


def test_shift_check_at_base_dimension_zero(capsys):
    code, out, err = run_cli(
        capsys, "shift-check", "--functor", "sym(2,id)", "--u", "1", "--n", "0"
    )
    assert (code, err) == (0, "")
    assert "composite is identity: true" in out.splitlines()
    assert "top-degree part isomorphic: true" in out.splitlines()


@pytest.mark.parametrize("u, n", [(1, -2), (-1, 2)])
def test_shift_check_refuses_negative_dimensions(capsys, u, n):
    code, out, err = run_cli(
        capsys, "shift-check", "--functor", "sym(2,id)", "--u", str(u), "--n", str(n)
    )
    assert (code, out, err) == (1, "", "error: shift and base dimensions must be nonnegative\n")


@pytest.mark.parametrize(
    "command",
    [
        ("hasse", "--field", "q", "--poly", "x^2*y", "--dir", "1,1", "--r", "1"),
        ("taylor", "--field", "q", "--poly", "x^2*y"),
        ("dderiv", "--field", "fp:5", "--poly", "y^25*z^2 + x^10*y^25*z", "--dir", "1,1"),
    ],
)
def test_spaced_w_vars_read_like_plain_ones(capsys, command):
    plain = run_cli(capsys, *command, "--w-vars", "x,y")
    assert plain[0] == 0
    assert run_cli(capsys, *command, "--w-vars", "x, y") == plain
    assert run_cli(capsys, *command, "--w-vars", " x ,y,") == plain


# a ring variable takes only the names the polynomial grammar reads
@pytest.mark.parametrize(
    "argv, name",
    [
        (("hasse", "--field", "q", "--vars", "x,x y", "--poly", "x", "--w-vars", "x", "--dir", "1", "--r", "0"), "x y"),
        (("hasse", "--field", "q", "--vars", "x,é", "--poly", "x", "--w-vars", "x", "--dir", "1", "--r", "0"), "é"),
        (("taylor", "--field", "q", "--poly", "x^2", "--w-vars", "x", "--t", "t t"), "t t"),
    ],
    ids=["spaced-var", "non-ascii-var", "spaced-t"],
)
def test_unreadable_variable_name_is_a_usage_error(capsys, argv, name):
    assert run_cli(capsys, *argv) == (1, "", f"error: bad variable name {name!r}\n")


def test_oversized_modulus_is_a_domain_error(capsys):
    code, _, err = run_cli(
        capsys, "induce", "--functor", "id", "--field", "fp:3317044064679887385961981",
        "--phi", "1",
    )
    assert code == 1
    assert "too large" in err


PROOFSTEP_F = "y_1_1*y_2_2 - y_1_2^2 + z_1_2^2"
PROOFSTEP_BASE = (
    "proofstep", "--functor", "sum(tsym,talt)", "--u", "2", "--f", PROOFSTEP_F,
    "--r0", "1", "--r-part", "p1",
)
# per option, a command line whose value for it begins with "-"
LEADING_MINUS = {
    "--poly": ("hasse", "--field", "q", "--poly", "-x*y", "--w-vars", "x,y", "--dir", "1,1", "--r", "1"),
    "--dir": ("hasse", "--field", "q", "--poly", "x*y", "--w-vars", "x,y", "--dir", "-2,1", "--r", "1"),
    "--phi": ("induce", "--functor", "id", "--field", "q", "--phi", "-1,2;3,4"),
    "--generators": ("delta", "--field", "q", "--vars", "x", "--generators", "-x^2"),
    "--q-generators": PROOFSTEP_BASE + ("--field", "q", "--n", "2", "--q-generators", "-y_1_1"),
    "--f": ("proofstep", "--functor", "sum(tsym,talt)", "--u", "2", "--f", "-y_1_1*y_2_2+y_1_2^2-z_1_2^2",
            "--r0", "1", "--r-part", "p1", "--field", "q", "--n", "2"),
    "--r0": ("proofstep", "--functor", "sum(tsym,talt)", "--u", "2", "--f", PROOFSTEP_F, "--r0", "-1/2",
             "--r-part", "p1", "--field", "q", "--n", "2"),
}


@pytest.mark.parametrize("option", sorted(LEADING_MINUS))
def test_an_option_value_may_begin_with_a_minus(capsys, option):
    argv = list(LEADING_MINUS[option])
    at = argv.index(option)
    attached = argv[:at] + [f"{option}={argv[at + 1]}"] + argv[at + 2:]
    code, out, err = run_cli(capsys, *attached)
    assert (code, err) == (0, "") and out
    assert run_cli(capsys, *argv) == (code, out, err)


@pytest.mark.parametrize("argv", [
    ("-h",), ("hasse", "-h"), ("hasse", "--poly", "-x", "--help"), ("hasse", "--help", "-x"),
])
def test_help_still_reads_as_help(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: polyfunctor")


def test_internal_check_failure_exit_code(capsys, monkeypatch):
    from polyfunctor import InternalCheckError, cli

    def broken(*args, **kwargs):
        raise InternalCheckError("coefficient matrix mismatch at the ends")

    monkeypatch.setattr(cli, "run_proofstep", broken)
    code, out, err = run_cli(capsys, *PROOFSTEP_ARGS)
    assert code == 5
    assert out == ""
    assert err == "internal check failed: coefficient matrix mismatch at the ends\n"
    assert "Traceback" not in err


# -- an inconclusive run exits 3 -----------------------------------------------

def _budget_exceeded(*args, **kwargs):
    raise BudgetExceededError("normal-form step budget exceeded")


def test_delta_with_an_exhausted_budget_reports_inconclusive(capsys, monkeypatch):
    from polyfunctor import proofstep

    monkeypatch.setattr(proofstep, "buchberger", _budget_exceeded)
    args = ("delta", "--field", "q", "--vars", "x,y,z", "--generators", "x*y;y^2", "--q-generators", "x - y")
    assert run_cli(capsys, *args) == (3, "status: inconclusive\n", "")
    code, out, err = run_cli(capsys, *args, "--format", "json")
    assert (code, json.loads(out), err) == (3, {"status": "inconclusive", "delta": None, "witness": None}, "")


def test_an_escaping_budget_error_exits_3(capsys, monkeypatch):
    from polyfunctor import proofstep

    monkeypatch.setattr(proofstep, "buchberger", _budget_exceeded)
    code, out, err = run_cli(capsys, *PROOFSTEP_ARGS, "--q-generators", "y_1_1*y_2_2 - y_1_2^2")
    assert (code, out, err) == (3, "", "inconclusive: normal-form step budget exceeded\n")


def test_a_proof_step_runs_buchberger_once(capsys, monkeypatch):
    """delta-degree and the derivative decide membership modulo the
    q-generators on one basis per run."""
    from polyfunctor import proofstep

    runs, buchberger = [], proofstep.buchberger
    q_generators = ("--q-generators", "y_1_1*y_2_2 - y_1_2^2 + y_1_1^2;y_1_1*y_1_2 - y_2_2^2")
    monkeypatch.setattr(proofstep, "buchberger", lambda *args: runs.append(args) or buchberger(*args))
    code, out, err = run_cli(capsys, *PROOFSTEP_ARGS, *q_generators)
    assert (code, err, len(runs)) == (0, "", 1)
    assert "all passed: true" in out.splitlines()


def test_an_escaping_certificate_error_exits_3(capsys, monkeypatch):
    from polyfunctor import cli

    def nothing(*args, **kwargs):
        raise CertificateNotFoundError("no unit minor found within the search budget")

    monkeypatch.setattr(cli, "run_proofstep", nothing)
    code, out, err = run_cli(capsys, *PROOFSTEP_ARGS)
    assert (code, out, err) == (3, "", "inconclusive: no unit minor found within the search budget\n")


# -- the designated summand by default (its refusals are pinned runs) ----------

ONE_TOP_SUMMAND = (
    "proofstep", "--field", "q", "--functor", "sum(id,talt)", "--u", "2", "--n", "3",
    "--f", "z_1_2^2 + p0_1^2*p0_2^2", "--r0", "1",
)


def test_proofstep_designates_the_one_top_degree_summand(capsys):
    code, out, err = run_cli(capsys, *ONE_TOP_SUMMAND)
    assert (code, err) == (0, "")
    assert "all passed: true" in out.splitlines()
    # the same run as naming that summand
    assert run_cli(capsys, *ONE_TOP_SUMMAND, "--r-part", "p1") == (0, out, "")


# -- the proof step's witness is --f -------------------------------------------

WITNESS_ARGS = (
    "proofstep", "--field", "q", "--functor", "sum(tsym,talt)", "--u", "2", "--n", "3",
    "--f", "y_1_1*y_2_2 - y_1_2^2 + 2*z_1_2^2", "--r0", "1", "--r-part", "p1",
)


def test_proofstep_witness_follows_f_not_the_generators(capsys):
    # a generator of f's degree other than f changes only the delta witness
    alone = run_cli(capsys, *WITNESS_ARGS)
    code, out, err = run_cli(capsys, *WITNESS_ARGS, "--generators", PROOFSTEP_F)
    assert (code, err) == (0, "")
    assert {"f: y_1_1*y_2_2 - y_1_2^2 + 2*z_1_2^2", "h: 4*z_1_2", "all passed: true"} <= set(out.splitlines())
    assert (code, out, err) == alone
    code, out, _ = run_cli(capsys, *WITNESS_ARGS, "--generators", PROOFSTEP_F, "--format", "json")
    doc, expected = json.loads(out), json.loads(run_cli(capsys, *WITNESS_ARGS, "--format", "json")[1])
    assert doc["delta"] == {**expected["delta"], "witness": PROOFSTEP_F}
    assert {**doc, "delta": None} == {**expected, "delta": None}


def test_proofstep_refuses_an_empty_generator_list(capsys):
    code, out, err = run_cli(capsys, *WITNESS_ARGS, "--generators", ";")
    assert (code, out) == (1, "")
    assert err == "error: a presentation needs at least one generator\n"


# -- each command builds only the rendering it prints --------------------------


def _refused(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} ran")

    return refuse


@pytest.mark.parametrize("argv", (RANK1_ARGS, PROOFSTEP_ARGS), ids=("example-rank1", "proofstep"))
@pytest.mark.parametrize("fmt, unprinted", (("json", "to_text"), ("text", "to_json_dict")))
def test_a_report_is_rendered_only_in_the_printed_format(capsys, monkeypatch, argv, fmt, unprinted):
    from polyfunctor.proofstep import ProofStepReport

    monkeypatch.setattr(ProofStepReport, unprinted, _refused(unprinted))
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert json.loads(out)["all_passed"] is True if fmt == "json" else "all passed: true" in out.splitlines()


@pytest.mark.parametrize("fmt", ("text", "json"))
@pytest.mark.parametrize("compute, argv", (
    ("hasse_derivative", ("hasse", "--field", "q", "--poly", "x^6", "--w-vars", "x", "--dir", "1", "--r", "2")),
    ("taylor_expand", ("taylor", "--field", "q", "--poly", "x^2", "--w-vars", "x")),
))
def test_hasse_and_taylor_render_their_polynomial_once(capsys, monkeypatch, compute, argv, fmt):
    from polyfunctor import cli
    from polyfunctor.rings import GradedPoly

    results, rendered = [], []
    real, to_text = getattr(cli, compute), GradedPoly.to_text
    monkeypatch.setattr(cli, compute, lambda *args: results.append(real(*args)) or results[-1])
    monkeypatch.setattr(GradedPoly, "to_text", lambda self: rendered.append(self) or to_text(self))
    code, out, _ = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0 and out
    assert len(results) == 1 and sum(p is results[0] for p in rendered) == 1


def test_induce_text_builds_no_json_entry(capsys, monkeypatch):
    from polyfunctor import cli

    monkeypatch.setattr(cli, "format_functor", _refused("format_functor"))
    code, out, err = run_cli(capsys, "induce", "--functor", "ext(2,id)", "--field", "q", "--phi", "1,2,0;3,4,0;0,0,1")
    assert (code, err) == (0, "")
    assert out.startswith("rows: ")


# -- one argument parser per process -----------------------------------------


def test_a_monkeypatched_handler_is_the_one_that_runs(capsys, monkeypatch):
    from polyfunctor import cli

    seen = []
    run_cli(capsys, "dim", "--functor", "id", "--n", "2")  # the parser exists now
    monkeypatch.setattr(cli, "cmd_dim", lambda args: seen.append((args.functor, args.n)) or 7)
    code, out, _ = run_cli(capsys, "dim", "--functor", "sym(2,id)", "--n", "3")
    assert (code, out, seen) == (7, "", [("sym(2,id)", 3)])
    monkeypatch.undo()
    assert run_cli(capsys, "dim", "--functor", "sym(2,id)", "--n", "3")[:2] == (0, "6\n")


def test_repeated_options_give_each_call_its_own_list(capsys, monkeypatch):
    from polyfunctor import cli

    seen = []
    monkeypatch.setattr(cli, "cmd_proofstep", seen.append)
    run_cli(capsys, *PROOFSTEP_ARGS, "--phi", "1,0;0,1", "--phi", "0,1;1,0")
    run_cli(capsys, *PROOFSTEP_ARGS, "--phi", "2,0;0,2")
    run_cli(capsys, *PROOFSTEP_ARGS)
    assert [args.phi for args in seen] == [["1,0;0,1", "0,1;1,0"], ["2,0;0,2"], None]
    assert seen[0].phi is not seen[1].phi


# -- the README's command-line examples ----------------------------------------


def _readme_commands():
    """(argv, expected first stdout line or None) of each polyfunctor line
    in the README's "Command line" block, continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    line = ""
    for physical in block.splitlines():
        line += physical
        if line.endswith("\\"):
            line = line[:-1]
            continue
        if line.startswith("polyfunctor "):
            command, _, expected = line.partition(" #")
            commands.append((shlex.split(command)[1:], expected.strip() or None))
        line = ""
    return commands


README_COMMANDS = _readme_commands()


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv, _ in README_COMMANDS} == {
        "dim", "decompose", "induce", "shift-check", "compare", "hasse", "taylor", "dderiv",
        "delta", "proofstep", "example-rank1",
    }


@pytest.mark.parametrize("argv, expected", README_COMMANDS, ids=[" ".join(a[:3]) for a, _ in README_COMMANDS])
def test_readme_command_line_examples(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    if expected is not None:
        assert out.splitlines()[0] == expected


# Exit codes README documents for hasse, taylor and dderiv: 4 belongs to the
# commands with checks, and 5 (an internal check failed) is a bug.
_CALCULUS_EXIT_CODES = {0, 1, 2, 3}

_TERM = st.builds(
    lambda coeff, powers: "*".join([coeff] + [f"{v}^{e}" if e > 1 else v for v, e in powers if e]),
    st.sampled_from(["1", "2", "-3", "1/2", "5/7", "0"]),
    st.lists(st.tuples(st.sampled_from("xyzw"), st.integers(0, 5)), max_size=3),
)
_POLY = st.lists(_TERM, min_size=1, max_size=4).map(lambda terms: " + ".join(terms).replace("+ -", "- "))


def _spoilt(draw) -> bool:
    """True for about one draw in ten."""
    return draw(st.integers(0, 9)) == 7


@st.composite
def _calculus_argv(draw):
    """hasse, taylor or dderiv on a polynomial text, a --w-vars list and a
    direction, each well formed or spoilt: a character inserted into or
    deleted from the text, unknown or repeated names, a short, junk or zero
    denominator direction, a non-prime field, a negative order."""
    command = draw(st.sampled_from(["hasse", "taylor", "dderiv"]))
    poly = draw(_POLY)
    if _spoilt(draw):
        at = draw(st.integers(0, len(poly)))
        inserted = draw(st.sampled_from(["", *"xq1/0^*+-() ,."]))
        poly = poly[:at] + inserted + poly[at + (not inserted):]
    w_vars = draw(st.lists(st.sampled_from("xyzw"), min_size=1, max_size=3, unique=True))
    coords = draw(st.lists(st.sampled_from(["0", "1", "-2", "1/3"]), min_size=len(w_vars), max_size=len(w_vars)))
    if _spoilt(draw):
        w_vars = draw(st.lists(st.sampled_from(["x", "y", "t", "1x", ""]), max_size=3))
    if _spoilt(draw):
        coords = draw(st.lists(st.sampled_from(["1", "1/0", "a", ""]), max_size=3))
    field = draw(st.sampled_from(["fp:4", "fp:x"] if _spoilt(draw) else ["q", "fp:2", "fp:3", "fp:5", "fp:101"]))
    # --opt=value; "--opt value" with a leading minus reads the same (test_an_option_value_may_begin_with_a_minus)
    argv = [command, f"--field={field}", f"--poly={poly}", f"--w-vars={','.join(w_vars)}"]
    if draw(st.booleans()):
        argv += ["--vars", "w,x,y,z"]
    if command != "taylor":
        argv.append(f"--dir={','.join(coords)}")
    if command == "hasse":
        argv.append(f"--r={draw(st.integers(-1, 4))}")
    return argv


def _run_in_process(argv, out=None):
    """Exit code and standard error of one in-process command line, its
    standard output written to out when one is given."""
    out, err = io.StringIO() if out is None else out, io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse reports a usage error this way
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_calculus_argv())
def test_calculus_commands_exit_with_a_documented_code(argv):
    code, err = _run_in_process(argv)
    assert code in _CALCULUS_EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err, argv
    if code == 0:
        assert err == "", argv
    else:
        assert err, argv


# Exit codes README documents for induce, shift-check and compare: 4 is a
# false shift-check result, and 5 (an internal check failed) is a bug.
_FUNCTOR_EXIT_CODES = {0, 1, 2, 3, 4}

_FUNCTOR_TEXT = st.recursive(
    st.sampled_from(["id", "tsym", "talt", "const(0)", "const(2)"]),
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(lambda parts: f"sum({','.join(parts)})"),
        st.lists(inner, min_size=1, max_size=2).map(lambda parts: f"tensor({','.join(parts)})"),
        st.tuples(st.sampled_from(["sym", "ext", "shift"]), st.integers(0, 3), inner).map(
            lambda t: f"{t[0]}({t[1]},{t[2]})"),
        # mostly the first summand, now and then an index past the last one
        st.tuples(inner, st.sampled_from([0] * 6 + [1, 3])).map(lambda t: f"quot({t[0]},{t[1]})"),
    ),
    max_leaves=4,
)


def _small(text) -> bool:
    """No unbounded input: dim at most 36 at every n <= 5, the benchmark's
    bound for the functors workload, or a text that does not parse."""
    try:
        expr = parse_functor(text)
    except (ParseError, AlgebraError):
        return True
    return all(dim(expr, n) <= 36 for n in range(6))


_SCALAR = st.sampled_from(["0", "1", "-2", "1/2", "-5/3", "7"])


@st.composite
def _functor_argv(draw):
    """induce, shift-check or compare on functors from the grammar (quot
    indices out of range among them), each spoilt now and then: a ragged,
    empty, junk or zero-denominator --phi of up to 3 x 3, a field that is not
    prime, negative --u/--n."""
    command = draw(st.sampled_from(["induce", "shift-check", "compare"]))
    functor = draw(_FUNCTOR_TEXT.filter(_small))
    field = draw(st.sampled_from(["q", "fp:2", "fp:3", "fp:101", "fp:4"]))
    if command == "compare":
        return [command, f"--functor-a={functor}", f"--functor-b={draw(_FUNCTOR_TEXT.filter(_small))}"]
    if command == "shift-check":
        u, n = draw(st.integers(-1, 3)), draw(st.integers(-1, 3))
        return [command, f"--functor={functor}", f"--field={field}", f"--u={u}", f"--n={min(n, 5 - u)}"]
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows = [draw(st.lists(_SCALAR, min_size=n, max_size=n)) for _ in range(m)]
    if draw(st.integers(0, 3)) == 3:  # a ragged, empty, junk or zero-denominator last row
        rows[-1] = draw(st.lists(st.sampled_from(["1", "", "a", "1/0", "2/4"]), max_size=4))
    phi = ";".join(",".join(row) for row in rows)
    return [command, f"--functor={functor}", f"--field={field}", f"--phi={phi}"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_functor_argv())
def test_functor_commands_exit_with_a_documented_code(argv):
    out = io.StringIO()
    code, err = _run_in_process(argv, out)
    assert code in _FUNCTOR_EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err, argv
    if code == 0:
        assert err == "", argv
    else:
        assert err, argv
    if argv[0] == "induce" and code == 0:
        # an entry row per basis label of F at the map's target dimension
        m = argv[3].count(";") + 1
        rows = [line for line in out.getvalue().splitlines() if line.startswith("[")]
        assert len(rows) == dim(parse_functor(argv[1].split("=", 1)[1]), m), argv
