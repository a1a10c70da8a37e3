"""Self-test of the benchmark at toy sizes (a few seconds in all).

Runs bench/run.py on every workload with --scale toy and checks the result
line against BENCHMARK.json, the traced run's spans, that wrong expected
values raise the failure count, and that session traffic is a pure
function of the seed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_plan
import bench_refs
import bench_worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
           "--scale", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench_plan.WORKLOADS)
def test_prints_every_declared_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        report = json.loads(proc.stdout.strip().splitlines()[-2])["report"]
        check_spans(ROOT / report["spans_file"])


def check_spans(path):
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert spans
    by_key = {(s["run"], s["id"]): s for s in spans}
    for s in spans:
        assert set(s) == {"run", "id", "name", "start", "end", "parent"}
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = by_key[(s["run"], s["parent"])]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
    names = {s["name"] for s in spans}
    assert {"pass.cold", "sequences.v_seq"} <= names


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("tables", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_wrong_expected_value_counts_as_failed():
    digests = bench_refs.load_digests()
    ok = bench_worker.run_job("tables", 1, "toy", None, digests)
    assert ok["failed"] == 0
    digests["tables"]["v"][3] = "0" * 16
    bad = bench_worker.run_job("tables", 1, "toy", None, digests)
    assert bad["failed"] > 0 and bad["attempted"] == ok["attempted"]


def test_float_reference_rejects_a_lost_digit(monkeypatch):
    ok = bench_worker.run_job("stokes", 1, "toy", None, bench_refs.load_digests())
    assert ok["failed"] == 0
    real = bench_refs.ref_s
    # the toy sprime transform (order 10 at n = 60, 60 digits) keeps about
    # 45 digits; a reference off at the 40th must fail the check
    monkeypatch.setattr(bench_refs, "ref_s",
                        lambda *a: real(*a) * (1 + bench_refs.mpmath.mpf("1e-40")))
    bad = bench_worker.run_job("stokes", 1, "toy", None, bench_refs.load_digests())
    assert bad["failed"] > 0


def test_session_requests_are_a_function_of_the_seed():
    digests = bench_refs.load_digests()["cli"]
    first = bench_plan.session_requests(7)
    assert json.dumps(first) == json.dumps(bench_plan.session_requests(7))
    assert json.dumps(first) != json.dumps(bench_plan.session_requests(8))
    for seed in range(5):
        ops = bench_plan.session_requests(seed)
        assert len(ops) >= 200
        assert {op["argv"][0] for op in ops} == {
            "seq", "transseries", "vpm", "asym", "richardson", "stokes",
            "quad", "intersect", "plotdata"}
        hits = bench_plan.classify(ops)
        assert 0.5 < sum(hits) / len(hits) < 0.95
        for op in ops:
            if op["argv"][0] not in ("asym", "richardson", "stokes", "plotdata"):
                assert " ".join(op["argv"]) in digests
