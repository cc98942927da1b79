import hashlib
import json

import pytest

from polyfunctor.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_shift_tensor_square(capsys):
    code, out, _ = run_cli(capsys, "dim", "--functor", "shift(2,tensor(id,id))", "--n", "3")
    assert code == 0
    assert out.strip() == "25"


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
    from polyfunctor.proofstep import coordinate_model
    from conftest import Q

    code, out, _ = run_cli(
        capsys, "example-rank1", "--n", "3", "--field", "q", "--format", "json"
    )
    doc = json.loads(out)
    big = coordinate_model(SumF((TenSymF(), TenAltF())), Q, 5).ring
    small = coordinate_model(SumF((TenSymF(), TenAltF())), Q, 2).ring
    assert parse_polynomial(doc["f"], small).to_text() == doc["f"]
    assert parse_polynomial(doc["h"], small).to_text() == doc["h"]
    for item in doc["k"]:
        assert parse_polynomial(item["value"], big).to_text() == item["value"]
    for entry in doc["certificate"]:
        assert parse_polynomial(entry["numerator"], big).to_text() == entry["numerator"]


def test_byte_identical_across_processes():
    import subprocess
    import sys

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
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
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


# sha256 of the example-rank1 stdout, captured before the sampling checks
# moved from substitution to t-coefficient evaluation; the n = 2 and n = 5
# entries over q were captured before the checks moved to integer plans
RANK1_GOLDEN = {
    ("2", "q", "json"): "4d290dc3a6c7bca754b65ff54c62e90dccf43f705718881873628f2730abf60c",
    ("2", "q", "text"): "08cd0b7d4d1a52fac2a9a621368f6f08967ea27ffb0e9c1e868bda4b01d9146c",
    ("5", "q", "json"): "28c4c70151ccc34c5acafef6b7ad15da8e9f3f5fa161ead961b7c2864adcb738",
    ("5", "q", "text"): "cf88ce42f3a9d84dd8eaee492b465a3f16886a4cc20af50bebeec09a9bebf5da",
    ("3", "q", "json"): "f724e06aec8b7022507d923086d6c27ae7a6cadafe89c5e2dfcb13f73db32d0b",
    ("3", "q", "text"): "e3591d15d527cc64cc92600a4e99c4d684b28f1287f9464a17c766fb8e868438",
    ("3", "fp:101", "json"): "6757eb6a8b6c6aff7b1b12c09bf3c4a27f723402da5ca77f99a19b11d3c40981",
    ("3", "fp:101", "text"): "39772b267af397dd2787324c1cc271bec0bca061425a8147968f15e02f384dcd",
    ("4", "fp:3", "json"): "4f707d4d6fb22984625902b5caa101177bc9ad4a4bc9270502f320518aad8aea",
    ("4", "fp:3", "text"): "9bfaef4e0998afa8c184254020ff81bde75b16caf67f72cc792e1f6321b789e7",
}


@pytest.mark.parametrize("n,field,fmt", sorted(RANK1_GOLDEN))
def test_example_rank1_golden_stdout(capsys, n, field, fmt):
    code, out, _ = run_cli(
        capsys, "example-rank1", "--n", n, "--field", field, "--format", fmt
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RANK1_GOLDEN[(n, field, fmt)]


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


def test_nested_shift_check(capsys):
    code, out, _ = run_cli(
        capsys, "shift-check", "--functor", "shift(1,sym(2,id))", "--u", "2", "--n", "3"
    )
    assert code == 0
    assert "top-degree part isomorphic: true" in out
    assert "top dims: shift=6 base=6" in out


def test_failed_shift_check_exit_code(capsys, monkeypatch):
    from dataclasses import replace

    from polyfunctor import cli

    real = cli.shift_maps
    monkeypatch.setattr(
        cli, "shift_maps", lambda *a: replace(real(*a), top_iso_check=False)
    )
    code, out, _ = run_cli(
        capsys, "shift-check", "--functor", "sym(2,id)", "--u", "1", "--n", "2"
    )
    assert code == 4
    assert "top-degree part isomorphic: false" in out


def test_oversized_modulus_is_a_domain_error(capsys):
    code, _, err = run_cli(
        capsys, "induce", "--functor", "id", "--field", "fp:3317044064679887385961981",
        "--phi", "1",
    )
    assert code == 1
    assert "too large" in err


# sha256 of the proofstep and delta stdout, captured before the rank-one
# example and the proof step shared one stage runner and one report
PROOFSTEP_F = "y_1_1*y_2_2 - y_1_2^2 + z_1_2^2"
PROOFSTEP_BASE = (
    "proofstep", "--functor", "sum(tsym,talt)", "--u", "2", "--f", PROOFSTEP_F,
    "--r0", "1", "--r-part", "p1",
)
PIPELINE_CASES = {
    "proofstep q n=3": PROOFSTEP_BASE + ("--field", "q", "--n", "3"),
    "proofstep fp:101 n=2": PROOFSTEP_BASE + ("--field", "fp:101", "--n", "2"),
    "proofstep q n=3 phi": PROOFSTEP_BASE + (
        "--field", "q", "--n", "3",
        "--phi", "1,2,0;0,1,1", "--phi", "1,0,0;0,0,1", "--phi", "0,1,0;3,0,1",
    ),
    "delta finite": (
        "delta", "--field", "q", "--vars", "x,y,z", "--weights", "1,1,2",
        "--generators", "x*y*z;y^2 - x*z;x^3", "--q-generators", "x",
    ),
    "delta infinite": (
        "delta", "--field", "fp:5", "--vars", "x,y", "--generators", "x^2;x*y",
        "--q-generators", "x",
    ),
}
PIPELINE_GOLDEN = {
    ("proofstep q n=3", "text"): "82630ca8092cbe993edcc3f67a4eca9a164712ee8a6947bfc73559142bce3b1a",
    ("proofstep q n=3", "json"): "99ffcdaa81483fc1f2b20218ee6ac4d1aeb6654f1750fb2762064dc31265a179",
    ("proofstep fp:101 n=2", "text"): "1236db267a672328ac118b1ba7f293684a3022da3c237f6402145db0b0806c37",
    ("proofstep fp:101 n=2", "json"): "6c7474dbbc9773574549c155fe5d571a1cd633768dd3dda284727b014cb84fa7",
    ("proofstep q n=3 phi", "text"): "41063de2c224152b9203c22b30c2c8c78474c2576bec5fa5cb258cefbbb6f8fd",
    ("proofstep q n=3 phi", "json"): "3889c471f0618b62e4936787fc73af50097f38728dc002c4331bed4ac5ef8db6",
    ("delta finite", "text"): "f2936d161fa4debdb44874f400fa361b7fa6d2436582205dd09cc09dc6b98de7",
    ("delta finite", "json"): "4c156adb04ea6c00d6f16c43d02b93f3163e1587781c7558db9c03a884f0c027",
    ("delta infinite", "text"): "7007dbd54e40a02c9a1ad33dcf0a8b3d356ba554c749074d5855a0155a5652e2",
    ("delta infinite", "json"): "2c5efba4ecaf1afee705fb5702d37a894a16478ede7346d66e9f8c2c493c96e6",
}


@pytest.mark.parametrize("case,fmt", sorted(PIPELINE_GOLDEN))
def test_proofstep_and_delta_golden_stdout(capsys, case, fmt):
    code, out, _ = run_cli(capsys, *PIPELINE_CASES[case], "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PIPELINE_GOLDEN[(case, fmt)]


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


# sha256 of the hasse, taylor and dderiv stdout, captured before the Hasse
# calculus moved to raw coefficients
HASSE_CLI_CASES = {
    "hasse fp:3 weighted": (
        "hasse", "--field", "fp:3", "--vars", "x,y,z", "--weights", "1,2,1",
        "--poly", "x^9*y^3*z + 2*x^4*y^5 - z^2 + x*y", "--w-vars", "x,y", "--dir", "1,0",
        "--r", "3",
    ),
    "hasse fp:5 above p": (
        "hasse", "--field", "fp:5", "--poly", "x^12*y^7 + 3*x^6*y + y^10",
        "--w-vars", "x,y", "--dir", "2,4", "--r", "7",
    ),
    "hasse q fractions": (
        "hasse", "--field", "q", "--poly", "1/2*x^3*y - 3/4*y^2*z + 5",
        "--w-vars", "x,y,z", "--dir", "2,0,-1/3", "--r", "1",
    ),
    "taylor fp:5": (
        "taylor", "--field", "fp:5", "--poly", "x^5*y + 3*y^2*z", "--w-vars", "x,y",
    ),
    "taylor q weighted": (
        "taylor", "--field", "q", "--vars", "x,y", "--weights", "2,1",
        "--poly", "1/2*x^2*y - y^3", "--w-vars", "y", "--t", "s",
    ),
    "dderiv fp:3 level 1": (
        "dderiv", "--field", "fp:3", "--poly", "y^9*z^2 + x^6*y^9*z",
        "--w-vars", "x,y", "--dir", "2,1",
    ),
    "dderiv fp:101": (
        "dderiv", "--field", "fp:101", "--poly", "x^3*y + 7*y^2*z - 4*z",
        "--w-vars", "x,z", "--dir", "0,5",
    ),
    "dderiv q independent": (
        "dderiv", "--field", "q", "--vars", "x,z", "--poly", "z^2 + 1",
        "--w-vars", "x", "--dir", "1",
    ),
}
HASSE_CLI_GOLDEN = {
    ("dderiv fp:101", "json"): "89e071d99d2ef4c67bfa58ff1d4be5d15395fb6db3be36586ee71fb761986f5f",
    ("dderiv fp:101", "text"): "41a8562f71eb5121e3be05dde50ce96e78789003148d9dc9c162be1f60f019ac",
    ("dderiv fp:3 level 1", "json"): "6c13679fba36ef5dc9519754a08dfe887e71063ec13b04df0dedbb29445934fb",
    ("dderiv fp:3 level 1", "text"): "0c8a570aef0935e4c29741ee46fd68cb51ee2127445bd561ff61b46688e494a1",
    ("dderiv q independent", "json"): "849023695c380a13b6c6b999c55f05c78e0eb07c42713b461d591528994c0d12",
    ("dderiv q independent", "text"): "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    ("hasse fp:3 weighted", "json"): "a30d32375646cb141a48d00a68884ef6fb12dbe6832e24bd620b31b29c7781c6",
    ("hasse fp:3 weighted", "text"): "98e39a64bb738fe26d4b361b470767e79fab0dc80470a0fec3483e84b44af414",
    ("hasse fp:5 above p", "json"): "94b2002e18e2275604c100ff0146ea8581eee516b5954764158f265fb4ea34aa",
    ("hasse fp:5 above p", "text"): "e6ac1f0542e71313c5d2a51b242100093d011834977ddbb1783065bb818acc0b",
    ("hasse q fractions", "json"): "8598b8f84009d1531295b2274cfa5f820ba5e7e7fca236c752278a69271f8cdd",
    ("hasse q fractions", "text"): "0c5cc700d37f906f267804df78f536cc8dfba49896aea0b3778346df5309eb3b",
    ("taylor fp:5", "json"): "c443ec4749a6b49bb7d9decfcb8f1ef4bcb9623ab23ba7eeecfc56d89a98e0b6",
    ("taylor fp:5", "text"): "116a79c91cc81ce0ebfe908b6bf532f57c19b8bfa14bd35bc1e5842c4f6c447f",
    ("taylor q weighted", "json"): "d729866edd8dc0404a00461d3f6666cdb2757356ac57bbfa157b0675760b5ec3",
    ("taylor q weighted", "text"): "d68f5698dba97a84684da2a83ef10882ba140f6100ff1b49f68d93311ba5b007",
}


@pytest.mark.parametrize("case,fmt", sorted(HASSE_CLI_GOLDEN))
def test_hasse_commands_golden_stdout(capsys, case, fmt):
    code, out, _ = run_cli(capsys, *HASSE_CLI_CASES[case], "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HASSE_CLI_GOLDEN[(case, fmt)]


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
