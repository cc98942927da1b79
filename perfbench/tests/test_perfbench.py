"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

run._import_package()


def test_self_time_of_nested_spans():
    # a: 0..10 holds b: 1..4 (which holds c: 2..3) and d: 5..9
    names = [0, 1, 2, 3]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert spans.self_times(names, parents, starts, ends) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_folds_self_time_per_name():
    tracer = spans.Tracer()
    outer, inner = tracer._name_id("proofstep.run_rank_one_example"), tracer._name_id(
        "rings.GradedPoly.substitute")
    tracer.start_job(7)
    for name, parent, start, end in ((outer, -1, 0.0, 5.0), (inner, 0, 1.0, 3.0)):
        tracer.names.append(name)
        tracer.parents.append(parent)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.jobs.append(7)
    tracer.end_job()
    metrics = tracer.layer_metrics()
    assert metrics["proofstep.run_rank_one_example.self_s"] == 3.0
    assert metrics["rings.substitute.self_s"] == 2.0
    assert metrics["rings.substitute.sampling.self_s"] == 2.0
    assert len(tracer.names) == 0


def _bindings():
    """Every module attribute and class attribute the tracer may replace."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "polyfunctor" or name.startswith("polyfunctor."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


def test_uninstall_restores_every_original():
    from polyfunctor import cli, groebner, matrices
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        original = before[("polyfunctor.groebner", "divide_exact")]
        assert matrices.divide_exact is groebner.divide_exact is not original
        assert matrices.divide_exact.__wrapped__ is original
        assert cli.run_rank_one_example is not before[("polyfunctor.cli", "run_rank_one_example")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_job_records_spans_and_counters():
    w, jobs = workloads.make_jobs("groebner", 3, 1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        records = run.run_jobs(w, jobs[:4], tracer)
    finally:
        tracer.uninstall()
    assert all(error is None for _, _, error in records)
    metrics = tracer.layer_metrics()
    assert metrics["groebner.buchberger.calls"] == 4
    assert metrics["groebner.pairs_considered"] > 0
    assert 0 < metrics["groebner.spairs_useful_ratio"] < 1
    assert metrics["groebner.self_s"] > 0


def test_injected_wrong_answer_counts_as_failed():
    w, jobs = workloads.make_jobs("hasse", 1, 1)
    jobs = jobs[:3]
    honest = w.run

    def wrong_second_derivative(inputs):
        f, expansion, derivatives, data = honest(inputs)
        if inputs is jobs[1].inputs:
            derivatives[2] = derivatives[2] + 1
        return f, expansion, derivatives, data

    w.run = wrong_second_derivative
    records = run.run_jobs(w, jobs)
    metrics, lines = run.end_to_end(records, ([0.1], [0.1]))
    assert [error is None for _, _, error in records] == [True, False, True]
    assert any(line.split()[:2] == ["fail_ratio", "0.333333"] for line in lines)
    assert metrics["jobs_per_s"]["value"] > 0


def test_raising_job_counts_as_failed():
    w, jobs = workloads.make_jobs("functors", 1, 1)

    def broken(inputs):
        raise ZeroDivisionError("injected")

    w.run = broken
    records = run.run_jobs(w, jobs[:2])
    assert all("ZeroDivisionError" in error for _, _, error in records)


def test_changed_rank1_output_fails_the_digest_gate():
    w, jobs = workloads.make_jobs("rank1", workloads.DEFAULT_SEED, 1)
    job = jobs[0]
    code, out = w.run(job.inputs)
    assert w.check(job, (code, out)) is None
    doc = json.loads(out)
    doc["seed"] += 1
    assert w.check(job, (code, json.dumps(doc, indent=2) + "\n")) == (
        "stdout differs from the reference digest")


def test_digest_gate_covers_only_the_digested_cycles():
    w, jobs = workloads.make_jobs("rank1", workloads.DEFAULT_SEED, 1)
    code, out = w.run(jobs[0].inputs)
    doc = json.loads(out)
    doc["seed"] += 1
    changed = json.dumps(doc, indent=2) + "\n"
    later = dataclasses.replace(jobs[0], index=workloads.DIGEST_CYCLES * len(jobs))
    assert w.digested_jobs == later.index
    assert w.check(later, (code, changed)) is None


def test_traced_subset_is_fixed_per_workload():
    for name in run.WORKLOAD_NAMES:
        w, first = workloads.make_jobs(name, 5, 1)
        _, other = workloads.make_jobs(name, 6, 1)
        picked = w.traced(first)
        assert [j.kind for j in picked] == [j.kind for j in w.traced(other)]
        assert 0 < len(picked) <= len(first)
    w, jobs = workloads.make_jobs("groebner", 5, 1)
    assert sorted(j.spec[0] for j in w.traced(jobs)) == sorted(workloads.Groebner.IDEALS)


def test_same_seed_same_jobs_other_seed_same_mix():
    for name in run.WORKLOAD_NAMES:
        _, first = workloads.make_jobs(name, 5, 1)
        _, again = workloads.make_jobs(name, 5, 1)
        _, other = workloads.make_jobs(name, 6, 1)
        assert [j.spec for j in first] == [j.spec for j in again]
        assert [j.kind for j in first] == [j.kind for j in other]
        assert [j.spec for j in first] != [j.spec for j in other]


def test_speed_log_takes_off_and_scales_by_its_calibrations(monkeypatch):
    monkeypatch.setattr(run, "calibrate", lambda: 2 * run.CALIBRATION_REF_S)
    handler = signal.getsignal(signal.SIGALRM)
    speed = run.SpeedLog()
    speed.start()
    speed._sample(signal.SIGALRM, None)
    wall = speed.stop(1.0)
    inside = len(speed.took) - 2  # all but the calibrations before and after
    assert inside >= 1
    assert wall == 1.0 - inside * 2 * run.CALIBRATION_REF_S
    assert speed.scaled == [pytest.approx(wall / 2)]
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tail_has_ten_jobs_beyond_it():
    times = list(range(1, 37))
    value, pct = run.tail(times)
    assert value == 26
    assert sum(t > value for t in times) == 10
    assert round(pct, 1) == 72.2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rank1", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_setup_reimports_the_package_each_time():
    w, jobs, cycles, (wall, scaled) = run.setup("rank1", 1, 1)
    assert cycles == 1 and len(wall) == len(scaled) == run.SETUP_SAMPLES
    records = run.run_jobs(w, jobs[-1:])
    assert records[0][2] is None
