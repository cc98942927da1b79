"""Command-line surface.

Every operation is exposed as a subcommand with text or JSON output; fixed
inputs and seed give byte-identical output.  Exit codes: 0 success, 1 domain
error, 2 usage/parse error, 3 inconclusive (budget exhausted or no
certificate found), 4 a check failed, 5 an internal check failed (a bug).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import (
    AlgebraError,
    BudgetExceededError,
    CertificateNotFoundError,
    InternalCheckError,
    ParseError,
)
from .fields import FieldDescriptor
from .functors import (
    compare_order,
    decompose,
    dim,
    dim_polynomial,
    dimension_sequence,
    format_dim_polynomial,
    format_functor,
    induced_map,
    parse_functor,
    shift_maps,
)
from .hasse import (
    DirectionSubspace,
    directional_data,
    hasse_derivative,
    specialise_joint,
    taylor_expand,
)
from .matrices import space_matrix
from .parsing import (
    parse_coords,
    parse_matrix,
    parse_polynomial,
    polynomial_variable_names,
)
from .proofstep import (
    VarietyPresentation,
    coordinate_model,
    delta_degree,
    pair_projections,
    run_proofstep,
    run_rank_one_example,
)
from .rings import GradedRing, Vector


def _checks_exit_code(checks) -> int:
    """4 when any check failed, else 3 when any is inconclusive, else 0."""
    statuses = {c.status for c in checks}
    if "fail" in statuses:
        return 4
    if "inconclusive" in statuses:
        return 3
    return 0


def _emit(args, text_value: str, json_value):
    if args.format == "json":
        print(json.dumps(json_value, indent=2))
    else:
        print(text_value)


def _build_ring(args, inferred=()):
    """Ring over --field on the --vars list, else on the sorted inferred
    names, with --weights."""
    field = FieldDescriptor.parse(args.field)
    if args.vars:
        names = [v.strip() for v in args.vars.split(",") if v.strip()]
    else:
        names = sorted(set(inferred))
    if args.weights:
        weights = [int(w) for w in args.weights.split(",")]
        if len(weights) != len(names):
            raise AlgebraError("weights and variables disagree in length")
    else:
        weights = [1] * len(names)
    return GradedRing(field, [(n, "main", w) for n, w in zip(names, weights)])


def _poly_ring(args):
    """Ring of --poly and the --w-vars it is differentiated along."""
    return _build_ring(args, polynomial_variable_names(args.poly) + tuple(args.w_vars.split(",")))


def _generators(text, ring) -> list:
    """The ';'-separated polynomials of text over ring, none for no text."""
    return [parse_polynomial(g, ring) for g in (text or "").split(";") if g.strip()]


def _subspace(args, ring) -> DirectionSubspace:
    w_vars = tuple(v.strip() for v in args.w_vars.split(",") if v.strip())
    return DirectionSubspace(ring, w_vars)


def _direction(args, W: DirectionSubspace) -> Vector:
    names = [v.strip() for v in args.w_vars.split(",") if v.strip()]
    coords = parse_coords(args.dir, W.ring.field)
    if len(coords) != len(names):
        raise AlgebraError("direction length does not match the subspace variables")
    by_name = dict(zip(names, coords))
    return Vector("direction", W.span_vars, tuple(by_name[n] for n in W.span_vars))


# -- subcommand handlers --------------------------------------------------------


def cmd_dim(args):
    expr = parse_functor(args.functor)
    value = dim(expr, args.n)
    _emit(args, str(value), {"functor": format_functor(expr), "n": args.n, "dim": value})


def cmd_decompose(args):
    expr = parse_functor(args.functor)
    dec = decompose(expr)
    lines = []
    parts_json = []
    for e in dec.degrees():
        for s in dec.parts[e]:
            formula = format_dim_polynomial(dim_polynomial(s.expr))
            lines.append(f"degree {e}: {s.label} {format_functor(s.expr)} dim = {formula}")
            parts_json.append(
                {
                    "degree": e,
                    "label": s.label,
                    "summand": format_functor(s.expr),
                    "dim": formula,
                }
            )
    _emit(args, "\n".join(lines), {"functor": format_functor(expr), "parts": parts_json})


def cmd_induce(args):
    expr = parse_functor(args.functor)
    field = FieldDescriptor.parse(args.field)
    phi = space_matrix(field, parse_matrix(args.phi, field))
    mat = induced_map(expr, phi)
    # a map can have a million entries: format only the selected output
    if args.format == "text":
        print(mat)
        return
    doc = {
        "functor": format_functor(expr),
        "rows": [str(lab) for lab in mat.row_labels],
        "cols": [str(lab) for lab in mat.col_labels],
        "entries": [[e.to_text() for e in row] for row in mat.rows],
    }
    print(json.dumps(doc, indent=2))


def cmd_shift_check(args):
    expr = parse_functor(args.functor)
    field = FieldDescriptor.parse(args.field)
    result = shift_maps(expr, field, args.u, args.n)
    text = "\n".join(
        [
            f"composite is identity: {str(result.composite_is_identity).lower()}",
            f"top-degree part isomorphic: {str(result.top_iso_check).lower()}",
            f"top dims: shift={result.top_dim_shift} base={result.top_dim_base}",
        ]
    )
    _emit(
        args,
        text,
        {
            "functor": format_functor(expr),
            "u": args.u,
            "n": args.n,
            "composite_is_identity": result.composite_is_identity,
            "top_iso_check": result.top_iso_check,
            "top_dim_shift": result.top_dim_shift,
            "top_dim_base": result.top_dim_base,
        },
    )
    if not (result.composite_is_identity and result.top_iso_check):
        return 4
    return 0


def cmd_compare(args):
    a = parse_functor(args.functor_a)
    b = parse_functor(args.functor_b)
    relation = compare_order(a, b)
    d = max(a.degree(), b.degree())
    N = max(d, 1)
    seq_a = dimension_sequence(a, d, N)
    seq_b = dimension_sequence(b, d, N)
    text = "\n".join(
        [
            relation,
            f"dims a (degrees 1..{d} at n={N}): {list(seq_a)}",
            f"dims b (degrees 1..{d} at n={N}): {list(seq_b)}",
        ]
    )
    _emit(
        args,
        text,
        {
            "relation": relation,
            "n": N,
            "dims_a": list(seq_a),
            "dims_b": list(seq_b),
        },
    )


def cmd_hasse(args):
    ring = _poly_ring(args)
    f = parse_polynomial(args.poly, ring)
    W = _subspace(args, ring)
    w = _direction(args, W)
    result = hasse_derivative(f, w, args.r, W)
    _emit(args, result.to_text(), {"derivative": result.to_text(), "r": args.r})


def cmd_taylor(args):
    ring = _poly_ring(args)
    f = parse_polynomial(args.poly, ring)
    W = _subspace(args, ring)
    expanded = taylor_expand(f, W, args.t)
    _emit(args, expanded.to_text(), {"expansion": expanded.to_text(), "t": args.t})


def cmd_dderiv(args):
    ring = _poly_ring(args)
    f = parse_polynomial(args.poly, ring)
    W = _subspace(args, ring)
    w = _direction(args, W)
    data = directional_data(f, W)
    result = specialise_joint(data, w, W)
    _emit(
        args,
        result.to_text(),
        {
            "derivative": result.to_text(),
            "status": data.status,
            "level": data.level,
        },
    )


def cmd_delta(args):
    ring = _build_ring(args)
    report = delta_degree(_generators(args.generators, ring), _generators(args.q_generators, ring))
    witness = report.witness.to_text() if report.witness is not None else None
    text_lines = [f"status: {report.status}"]
    if report.status == "finite":
        text_lines.append(f"delta: {report.delta}")
        text_lines.append(f"witness: {witness}")
    _emit(
        args,
        "\n".join(text_lines),
        {"status": report.status, "delta": report.delta, "witness": witness},
    )
    if report.status == "inconclusive":
        return 3
    return 0


def cmd_proofstep(args):
    field = FieldDescriptor.parse(args.field)
    functor = parse_functor(args.functor)
    model = coordinate_model(functor, field, args.u)
    f = parse_polynomial(args.f, model.ring)
    generators = _generators(args.generators, model.ring) if args.generators else [f]
    q_generators = _generators(args.q_generators, model.ring)
    if args.r_part:
        r_label = args.r_part
    else:
        dec = model.decomposition
        top = max(s.degree for s in dec.summands)
        top_labels = [s.label for s in dec.summands if s.degree == top]
        if len(top_labels) != 1:
            raise AlgebraError(
                f"several top-degree summands {top_labels}; pick one with --r-part"
            )
        r_label = top_labels[0]
    X = VarietyPresentation.make(functor, field, args.u, generators, q_generators, r_label)
    r_coords = parse_coords(args.r0, field)
    r_vars = X.r_vars()
    if len(r_coords) != len(r_vars):
        raise AlgebraError(
            f"r0 needs {len(r_vars)} coordinates over {list(r_vars)}"
        )
    r0 = Vector("r", r_vars, r_coords)
    if args.phi:
        phis = [space_matrix(field, parse_matrix(text, field)) for text in args.phi]
    else:
        if args.u != 2:
            raise AlgebraError("default pair projections need u = 2; pass --phi")
        if args.n < 2:
            raise AlgebraError("default pair projections need n >= 2; pass --phi")
        phis = list(pair_projections(field, args.n).values())
    report = run_proofstep(X, args.n, r0, phis)
    _emit(args, report.to_text().rstrip("\n"), report.to_json_dict())
    return _checks_exit_code(report.checks)


def cmd_example_rank1(args):
    field = FieldDescriptor.parse(args.field)
    report = run_rank_one_example(args.n, field, seed=args.seed, sample_count=args.samples)
    _emit(args, report.to_text().rstrip("\n"), report.to_json_dict())
    return _checks_exit_code(report.checks)


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyfunctor",
        description="Exact computation with finite-degree polynomial functors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("dim", help="dimension of a functor value")
    p.add_argument("--functor", required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("decompose", help="homogeneous decomposition")
    p.add_argument("--functor", required=True)

    p = add("induce", help="matrix induced on a functor value")
    p.add_argument("--functor", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--phi", required=True, help="matrix rows 'a,b;c,d'")

    p = add("shift-check", help="shift embedding/projection checks")
    p.add_argument("--functor", required=True)
    p.add_argument("--field", default="q")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("compare", help="dimension-sequence order comparison")
    p.add_argument("--functor-a", required=True)
    p.add_argument("--functor-b", required=True)

    for name, needs in (("hasse", "r"), ("taylor", "t"), ("dderiv", None)):
        p = add(name, help=f"{name} operation")
        p.add_argument("--field", required=True)
        p.add_argument("--poly", required=True)
        p.add_argument("--vars", help="ordered variable list (default: inferred, sorted)")
        p.add_argument("--weights", help="comma-separated weights")
        p.add_argument("--w-vars", required=True, help="variables spanning the direction subspace")
        if name != "taylor":
            p.add_argument("--dir", required=True, help="direction coordinates")
        if needs == "r":
            p.add_argument("--r", type=int, required=True, help="derivative order")
        if needs == "t":
            p.add_argument("--t", default="t", help="fresh expansion variable")

    p = add("delta", help="minimal surviving generator degree")
    p.add_argument("--field", required=True)
    p.add_argument("--vars", required=True)
    p.add_argument("--weights")
    p.add_argument("--generators", required=True, help="';'-separated polynomials")
    p.add_argument("--q-generators", help="';'-separated base polynomials")

    p = add("proofstep", help="one elimination step on a presentation")
    p.add_argument("--field", required=True)
    p.add_argument("--functor", required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--f", required=True, help="witness polynomial at dimension u")
    p.add_argument("--r0", required=True, help="direction coordinates over the designated summand")
    p.add_argument("--r-part", help="label of the designated top-degree summand")
    p.add_argument("--generators", help="';'-separated generators at dimension u")
    p.add_argument("--q-generators", help="';'-separated base-projection generators")
    p.add_argument("--phi", action="append", help="projection matrix (repeatable)")

    p = add("example-rank1", help="rank-one tensor example end to end")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field", default="q")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()  # once per process: parse_args leaves it unchanged


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so a rebound cmd_* handler is the one that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        code = handler(args)
        return 0 if code is None else code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceededError, CertificateNotFoundError) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
