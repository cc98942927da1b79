"""Seeded job lists for the four benchmark workloads, and their correctness gates.

A workload's job list is made of cycles.  One cycle holds every job class of
the workload's mix once (or a fixed number of times), in a fixed order; the
seed only changes the values inside the jobs, never the mix.  Each workload
has three parts:

* `cycle(rng)` draws one cycle of job specs.  A spec is plain data (strings,
  numbers, tuples), so two job lists can be compared.
* `prepare(spec)` turns a spec into the inputs handed to the program.  It runs
  during set-up, before the first timed job.
* `run(inputs)` is the timed job; `check(job, result)` is the untimed
  correctness gate.  It returns None for a right answer, else the reason.
* `traced(jobs)` picks, from the jobs of one cycle, the fixed subset that the
  traced pass runs, so per-layer counts always cover the same work.

The program is reached only through module attributes (`groebner.buchberger`,
not an imported name), so that the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
DIGESTS = Path(__file__).with_name("rank1_digests.json")
DIGEST_CYCLES = 10  # rank1 cycles covered by DIGESTS; later jobs skip the digest gate


@dataclass(frozen=True)
class Job:
    index: int
    kind: str  # job class: the part of the spec the seed does not change
    spec: tuple
    inputs: object


def _pf(module: str):
    return importlib.import_module(f"polyfunctor.{module}")


def _nonzero_mod(rng: random.Random, low: int, high: int, p: int) -> int:
    while True:
        value = rng.randint(low, high)
        if value % p if p else value:
            return value


def _char(field: str) -> int:
    return 0 if field == "q" else int(field[3:])


# ---------------------------------------------------------------------------
# rank1: the worked example through the command line
# ---------------------------------------------------------------------------


class Rank1:
    """`example-rank1` for n in {2,3,4} x field in {q, fp:3, fp:101}, plus
    `proofstep` on sum(tsym,talt), all through `cli.main` in this process."""

    name = "rank1"
    # Latin square: every three consecutive example jobs cover n = 2, 3, 4.
    EXAMPLES = ((2, "q"), (3, "fp:3"), (4, "fp:101"), (2, "fp:3"), (3, "fp:101"),
                (4, "q"), (2, "fp:101"), (3, "q"), (4, "fp:3"))
    PROOFSTEPS = ((2, "fp:101"), (3, "q"), (4, "fp:3"))
    CYCLE_JOBS = len(EXAMPLES) + len(PROOFSTEPS)
    cycle_s = 6.5

    def __init__(self, seed: int):
        self.digests, self.digested_jobs = None, 0
        if seed == DEFAULT_SEED:
            doc = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {"cycles": 0, "digests": {}}
            self.digests = doc["digests"]
            self.digested_jobs = doc["cycles"] * self.CYCLE_JOBS

    def cycle(self, rng: random.Random):
        specs = []
        for k, (n, field) in enumerate(self.EXAMPLES):
            specs.append(("example-rank1", "--n", str(n), "--field", field,
                          "--seed", str(rng.randrange(10**6)), "--format", "json"))
            if k % 3 == 2:
                n, field = self.PROOFSTEPS[k // 3]
                p = _char(field)
                c = _nonzero_mod(rng, 1, 9, p)
                r0 = _nonzero_mod(rng, 1, 9, p)
                f = f"{c}*y_1_1*y_2_2 - {c}*y_1_2^2 + {c}*z_1_2^2"
                specs.append(("proofstep", "--field", field, "--functor", "sum(tsym,talt)",
                              "--u", "2", "--n", str(n), "--f", f, "--r0", str(r0),
                              "--r-part", "p1", "--format", "json"))
        return specs

    @staticmethod
    def kind(spec) -> str:
        return f"{spec[0]} n={spec[spec.index('--n') + 1]} {spec[spec.index('--field') + 1]}"

    def prepare(self, spec):
        return list(spec)

    def traced(self, jobs):
        return jobs

    def run(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = _pf("cli").main(argv)
        return code, out.getvalue()

    def check(self, job: Job, result):
        code, out = result
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(out)
        if doc.get("all_passed") is not True:
            failed = [c["name"] for c in doc["checks"] if c["status"] != "pass"]
            return f"all_passed is false: {failed}"
        n = int(job.spec[job.spec.index("--n") + 1])
        if len(doc["certificate"]) != n * (n - 1) // 2:
            return f"certificate has {len(doc['certificate'])} entries"
        if self.digests is not None and job.index < self.digested_jobs:
            digest = hashlib.sha256(out.encode()).hexdigest()
            want = self.digests.get(" ".join(job.spec))
            if want is None:
                return "no reference digest for this job"
            if digest != want:
                return "stdout differs from the reference digest"
        return None


# ---------------------------------------------------------------------------
# groebner: Buchberger, normal forms and division membership
# ---------------------------------------------------------------------------


def _minors(rows: int, cols: int):
    names = [f"x{i}{j}" for i in range(rows) for j in range(cols)]

    def gens(ring):
        v = lambda i, j: ring.var(f"x{i}{j}")
        return [v(a, c) * v(b, d) - v(a, d) * v(b, c)
                for a, b in itertools.combinations(range(rows), 2)
                for c, d in itertools.combinations(range(cols), 2)]
    return names, gens


def _katsura(n: int):
    names = [f"u{i}" for i in range(n + 1)]

    def gens(ring):
        def u(i):
            return ring.var(f"u{abs(i)}") if abs(i) <= n else ring.zero()
        out = [sum((u(i) for i in range(-n, n + 1)), ring.zero()) - 1]
        for m in range(n):
            out.append(sum((u(k) * u(m - k) for k in range(-n, n + 1)), ring.zero()) - u(m))
        return out
    return names, gens


def _cyclic(n: int):
    names = [f"c{i}" for i in range(n)]

    def gens(ring):
        v = [ring.var(x) for x in names]
        out = []
        for d in range(1, n):
            total = ring.zero()
            for i in range(n):
                term = ring.one()
                for k in range(d):
                    term = term * v[(i + k) % n]
                total = total + term
            out.append(total)
        prod = ring.one()
        for x in v:
            prod = prod * x
        out.append(prod - 1)
        return out
    return names, gens


class Groebner:
    """Buchberger on six ideals over q and fp:32003, then the normal forms and
    division membership of seeded members and of member + 1 against the basis.

    `normal_form(f, gens)` is `reduce_poly(f, buchberger(gens))`; a job computes
    the basis once and reduces both polynomials against it, as normal_form
    would, instead of running Buchberger once per polynomial."""

    name = "groebner"
    IDEALS = {
        "minors3x4": _minors(3, 4),
        "minors3x5": _minors(3, 5),
        "minors4x4": _minors(4, 4),
        "katsura3": _katsura(3),
        "katsura4": _katsura(4),
        "cyclic4": _cyclic(4),
    }
    FIELDS = ("q", "fp:32003")
    # A cycle has ROUNDS rounds of the small ideals over both fields; after
    # every third round comes one large ideal over one field, so each of the
    # six large (ideal, field) pairs runs once per cycle.  The large jobs are
    # about 60 % of the job time and so drive jobs_per_s; the small ones come
    # ROUNDS times each, so job_s_p50 (a katsura3 job) and job_s_tail (a
    # minors3x4 job) sit inside a block of jobs of one class.
    SMALL = ("cyclic4", "katsura3", "minors3x4")
    LARGE = (("katsura4", "q"), ("minors3x5", "fp:32003"), ("minors4x4", "q"),
             ("katsura4", "fp:32003"), ("minors3x5", "q"), ("minors4x4", "fp:32003"))
    ROUNDS = 18
    # The traced pass runs each ideal once, over alternating fields.
    TRACED = {("cyclic4", "q"), ("katsura3", "fp:32003"), ("minors3x4", "q"),
              ("katsura4", "fp:32003"), ("minors3x5", "q"), ("minors4x4", "fp:32003")}
    cycle_s = 22.6

    def __init__(self, seed: int):
        self._gens = {}

    def cycle(self, rng: random.Random):
        order = []
        for rep in range(self.ROUNDS):
            order += [(ideal, field) for ideal in self.SMALL for field in self.FIELDS]
            if rep % 3 == 1:
                order.append(self.LARGE[rep // 3])
        specs = []
        for ideal, field in order:
            # member = c1*x*g_0 + c2*y*g_1: the seed picks the variables x, y and
            # the coefficients, the shape stays fixed so job cost does not
            # depend on the seed.
            names, _ = self.IDEALS[ideal]
            terms = []
            for g in (0, 1):
                exps = [0] * len(names)
                exps[rng.randrange(len(names))] = 1
                terms.append((g, _nonzero_mod(rng, -20, 20, _char(field)), tuple(exps)))
            specs.append((ideal, field, tuple(terms)))
        return specs

    @staticmethod
    def kind(spec) -> str:
        return f"{spec[0]} {spec[1]}"

    def _generators(self, ideal: str, field: str):
        key = (ideal, field)
        if key not in self._gens:
            names, build = self.IDEALS[ideal]
            ring = _pf("rings").GradedRing(_pf("fields").FieldDescriptor.parse(field), names)
            self._gens[key] = build(ring)
        return self._gens[key]

    def prepare(self, spec):
        ideal, field, terms = spec
        gens = self._generators(ideal, field)
        member = gens[0].ring.zero()
        for g, c, exps in terms:
            member = member + gens[g].mul_term(exps, c)
        return gens, member

    def traced(self, jobs):
        out, seen = [], set()
        for job in jobs:
            key = job.spec[:2]
            if key in self.TRACED and key not in seen:
                seen.add(key)
                out.append(job)
        return out

    def run(self, inputs):
        groebner = _pf("groebner")
        gens, member = inputs
        shifted = member + 1
        basis = groebner.buchberger(gens)
        return (basis,
                groebner.reduce_poly(member, basis), groebner.reduce_poly(shifted, basis),
                groebner.membership_by_division(member, basis),
                groebner.membership_by_division(shifted, basis))

    def check(self, job: Job, result):
        groebner = _pf("groebner")
        gens, member = job.inputs
        basis, nf, nf1, div, div1 = result
        for g in gens:
            if groebner.reduce_poly(g, basis):
                return "a generator does not reduce to zero modulo the basis"
        if not member:
            return "the member is the zero polynomial"
        if nf or nf1 != 1:
            return f"normal forms {nf} and {nf1}, expected 0 and 1"
        if div is not True or div1 is not False:
            return f"division membership {div} and {div1}, expected True and False"
        return None


# ---------------------------------------------------------------------------
# functors: induced maps of scalar matrices
# ---------------------------------------------------------------------------


class Functors:
    """induced_map of seeded scalar n x n matrices A, B and A*B for n = 3..6 over
    q and fp:101, plus dim and shift_maps."""

    name = "functors"
    EXPRESSIONS = ("sym(2,id)", "sym(3,id)", "sym(4,id)", "ext(2,id)", "ext(3,id)",
                   "ext(4,id)", "tensor(id,id)", "tensor(id,sym(2,id))",
                   "shift(1,sym(2,id))", "shift(2,ext(2,id))", "tsym", "talt",
                   "sum(tsym,talt)", "quot(shift(2,sum(tsym,talt)),1)",
                   "sym(2,ext(2,id))")
    # Composing two d x d induced maps costs d^3 entry products; above this
    # dimension one job would take seconds.
    MAX_DIM = 36
    # shift_maps on an expression that is itself a shift reports a failed top
    # isomorphism check (label_degree ignores the inner shift), so shift_maps
    # jobs use unshifted expressions.
    SHIFT_EXPRESSIONS = ("sym(2,id)", "sym(3,id)", "ext(2,id)", "tensor(id,id)",
                         "sum(tsym,talt)", "sym(2,ext(2,id))")
    FIELDS = ("q", "fp:101")
    cycle_s = 8.0

    def __init__(self, seed: int):
        functors = _pf("functors")
        self.combos = [(e, n) for n in range(3, 7) for e in self.EXPRESSIONS
                       if 0 < functors.dim(functors.parse_functor(e), n) <= self.MAX_DIM]

    def cycle(self, rng: random.Random):
        # Entries are nonzero: a zero entry makes an induced map cheaper, so
        # with zeros a job's cost would depend on the seed (by up to 2x).
        def entry():
            return rng.choice((-1, 1)) * rng.randint(1, 5)

        induce = []
        for expr, n in self.combos:
            for field in self.FIELDS:
                a = tuple(tuple(entry() for _ in range(n)) for _ in range(n))
                b = tuple(tuple(entry() for _ in range(n)) for _ in range(n))
                induce.append(("induce", expr, n, field, a, b))
        shifts = [("shift_maps", expr, n, rng.choice(self.FIELDS), u)
                  for u, n in ((1, 2), (2, 3)) for expr in self.SHIFT_EXPRESSIONS]
        # Small sizes first, shift_maps spread evenly through the cycle.
        stride = len(induce) // len(shifts)
        specs = []
        for k, spec in enumerate(induce):
            specs.append(spec)
            if k % stride == 0 and k // stride < len(shifts):
                specs.append(shifts[k // stride])
        return specs

    @staticmethod
    def kind(spec) -> str:
        if spec[0] == "induce":
            return f"induce {spec[1]} n={spec[2]} {spec[3]}"
        return f"shift_maps {spec[1]} u={spec[4]} n={spec[2]}"

    def prepare(self, spec):
        functors, fields, matrices = _pf("functors"), _pf("fields"), _pf("matrices")
        expr = functors.parse_functor(spec[1])
        field = fields.FieldDescriptor.parse(spec[3])
        if spec[0] == "shift_maps":
            return spec[0], expr, field, spec[4], spec[2]
        a, b = spec[4], spec[5]
        n = spec[2]
        ab = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        return (spec[0], expr, n,
                matrices.space_matrix(field, a),
                matrices.space_matrix(field, b),
                matrices.space_matrix(field, ab))

    def traced(self, jobs):
        return jobs[::2]

    def run(self, inputs):
        functors = _pf("functors")
        if inputs[0] == "shift_maps":
            _, expr, field, u, n = inputs
            return functors.shift_maps(expr, field, u, n), functors.dim(expr, n)
        _, expr, n, a, b, ab = inputs
        fa = functors.induced_map(expr, a)
        fb = functors.induced_map(expr, b)
        fab = functors.induced_map(expr, ab)
        return fa, fb, fab, fa.compose(fb), functors.dim(expr, n)

    def check(self, job: Job, result):
        if job.spec[0] == "shift_maps":
            maps, d = result
            if not (maps.composite_is_identity and maps.top_iso_check):
                return "shift embedding/projection checks failed"
            if maps.alpha.shape[1] != d or maps.top_dim_shift != maps.top_dim_base:
                return "shift map dimensions disagree"
            return None
        fa, fb, fab, composed, d = result
        for m in (fa, fb, fab):
            if m.shape != (d, d):
                return f"induced matrix shape {m.shape}, dim {d}"
        if composed != fab:
            return "induced(A*B) differs from induced(A) composed with induced(B)"
        return None


# ---------------------------------------------------------------------------
# hasse: parsing and directional calculus on random polynomials
# ---------------------------------------------------------------------------


def _poly_text(rng: random.Random, names, terms: int, degree: int) -> str:
    seen = set()
    chunks = []
    while len(chunks) < terms:
        exps = [0] * len(names)
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(len(names))] += 1
        if tuple(exps) in seen:
            continue
        seen.add(tuple(exps))
        c = rng.choice((-1, 1)) * rng.randint(1, 9)
        mono = "*".join(f"{x}^{e}" if e > 1 else x for x, e in zip(names, exps) if e)
        body = f"{abs(c)}*{mono}" if mono else str(abs(c))
        chunks.append((" - " if c < 0 else " + ") + body)
    text = "".join(chunks)
    return "-" + text[3:] if text.startswith(" - ") else text[3:]


class Hasse:
    """parse_polynomial, taylor_expand, hasse_derivative for every order and
    directional_data on seeded random polynomials given as text."""

    name = "hasse"
    FIELDS = ("q", "fp:3", "fp:5", "fp:101")
    SIZES = ((20, 6), (60, 8), (120, 10), (300, 12))  # (terms, degree)
    VARIABLES = ("x", "y", "z", "u")
    cycle_s = 4.2

    def __init__(self, seed: int):
        pass

    def cycle(self, rng: random.Random):
        specs = []
        for terms, degree in self.SIZES:
            for field in self.FIELDS:
                for nvars in (3, 4):
                    names = self.VARIABLES[:nvars]
                    p = _char(field)
                    text = _poly_text(rng, names, terms, degree)
                    w = tuple(_nonzero_mod(rng, -5, 5, p) for _ in range(2))
                    point = tuple(rng.randint(-6, 6) for _ in names)
                    s = _nonzero_mod(rng, -4, 4, p)
                    specs.append((field, names, terms, degree, text, w, point, s))
        return specs

    @staticmethod
    def kind(spec) -> str:
        return f"hasse {spec[0]} vars={len(spec[1])} terms={spec[2]} deg={spec[3]}"

    def prepare(self, spec):
        fields, rings, hasse = _pf("fields"), _pf("rings"), _pf("hasse")
        field_text, names, _, _, text, w = spec[:6]
        ring = rings.GradedRing(fields.FieldDescriptor.parse(field_text), names)
        W = hasse.DirectionSubspace(ring, names[:2])
        return text, ring, W, W.direction(w)

    def traced(self, jobs):
        return jobs[::2]  # every size and field, three variables

    def run(self, inputs):
        parsing, hasse = _pf("parsing"), _pf("hasse")
        text, ring, W, w = inputs
        f = parsing.parse_polynomial(text, ring)
        expansion = hasse.taylor_expand(f, W)
        top = f.total_degree() or 0
        derivatives = [hasse.hasse_derivative(f, w, r, W) for r in range(top + 2)]
        data = hasse.directional_data(f, W)
        return f, expansion, derivatives, data

    def check(self, job: Job, result):
        hasse = _pf("hasse")
        _, ring, W, w = job.inputs
        f, expansion, derivatives, data = result
        field = ring.field
        if derivatives[-1]:
            return "a derivative above the degree is nonzero"
        direction = dict(zip(W.span_vars, w.coords))
        a = {x: field.scalar(c) for x, c in zip(ring.names, job.spec[6])}
        s = field.scalar(job.spec[7])
        moved = {x: a[x] + s * direction.get(x, field.zero()) for x in ring.names}
        want = f.evaluate(moved)
        got = field.zero()
        for r, d in enumerate(derivatives):
            got = got + s ** r * d.evaluate(a)
        if got != want:
            return f"sum of s^r D^(r)f(a) is {got}, f(a + s*w) is {want}"
        point = dict(a, t=s)
        for x in W.span_vars:
            point[x + "_w"] = direction[x]
        if expansion.evaluate(point) != want:
            return "Taylor expansion disagrees with f(a + s*w)"
        if data.dependent:
            order = field.char_exponent ** data.level
            joint = hasse.specialise_joint(data, w, W)
            if joint.evaluate(a) != derivatives[order].evaluate(a):
                return "joint coefficient at w differs from the Hasse derivative"
        return None


WORKLOADS = {w.name: w for w in (Rank1, Groebner, Functors, Hasse)}


def cycles_for(workload: str, seconds: float) -> int:
    """The most whole cycles of the job mix, at least one, whose job time fits
    in `seconds` at the reference speed (see run.py): `cycle_s` is one cycle's
    job time at that speed, measured when the benchmark was written.  Checks,
    calibrations and set-up come on top."""
    return max(1, int(seconds // WORKLOADS[workload].cycle_s))


def make_jobs(workload: str, seed: int, cycles: int):
    """The workload object and its job list: `cycles` cycles drawn from seed."""
    w = WORKLOADS[workload](seed)
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for _ in range(cycles):
        for spec in w.cycle(rng):
            jobs.append(Job(len(jobs), w.kind(spec), spec, w.prepare(spec)))
    return w, jobs
