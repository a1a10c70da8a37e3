#!/usr/bin/env python3
"""crosscap benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload stokes --seed 1 --seconds 30 --trace 0

Run from the repository root.  Child processes (bench_worker.py) are started
one at a time until the time is used up; each imports crosscap from src/
with empty tables, runs the workload's job cold and then warm, and checks
every output; every time is scaled to reference seconds by calibration
loops timed between the child's ops.  With --trace 0 the last line carries the end-to-end metrics
of BENCHMARK.json, with --trace 1 the per-layer metrics; the line before it
is a report with sample counts, the error rate, per-op and per-command
times, and the environment.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import bench_plan  # noqa: E402

# Import-only children started before each job child, for setup_s; spread
# through the run so that slow spells of a shared machine hit both alike.
SETUP_PROBES = {"full": 1, "toy": 0}
CHILD_TIMEOUT_S = 150  # a run must end within 180 s
HARD_LIMIT_S = 170
# Every time a child reports is scaled to reference seconds, so that a slow
# spell of the shared host moves none of them (see bench_worker.SpeedProbe):
# an op's time is multiplied by CAL_REF_S over the median of the CAL_NEAREST
# calibration loops nearest to it in time, and set-up and traced self times
# by CAL_REF_S over the median of all the child's loops.  CAL_REF_S is about
# the loop's median on the host of the baseline in README.md, so reference
# seconds are close to seconds there.
CAL_REF_S = 0.032
CAL_NEAREST = 3


def child_env() -> dict:
    env = dict(os.environ)
    # Precision is passed explicitly; a stray CROSSCAP_PREC would silently
    # change the CLI requests' default.
    env.pop("CROSSCAP_PREC", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args, mode: str, run_id: int = 0, trace_out: Path | None = None,
          timeout: float = CHILD_TIMEOUT_S) -> dict:
    cmd = [sys.executable, str(HERE / "bench_worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", args.scale, "--run-id", str(run_id)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + ["--spawned-at", repr(t0)], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return to_reference_speed(result)


def nearest_factors(res: dict, mids: list[float]) -> list[float]:
    """CAL_REF_S over the median of the calibration loops nearest each time."""
    loops = list(zip(res["cal_t"], res["cal_s"]))
    out = []
    for mid in mids:
        near = sorted(loops, key=lambda tc: abs(tc[0] - mid))[:CAL_NEAREST]
        out.append(CAL_REF_S / statistics.median(c for _, c in near))
    return out


def to_reference_speed(res: dict) -> dict:
    """Scale a child's times to reference seconds (see CAL_REF_S)."""
    f = CAL_REF_S / statistics.median(res["cal_s"])
    res["speed"] = f
    res["setup_s"] *= f
    res["import_s"] *= f
    if "trace" in res:
        # A share of measured times, taken before the ops are scaled each by
        # its own factor, which would skew it.
        trace = res["trace"]
        trace["uncovered_share"] = 1 - trace["covered_s"] / sum(res["cold_lat"])
        trace["self_s"] = {k: v * f for k, v in trace["self_s"].items()}
    if "cold_lat" in res:
        res["raw_cold_s"] = sum(res["cold_lat"])
        res["cold_lat"] = [x * g for x, g in zip(
            res["cold_lat"], nearest_factors(res, res["cold_mid"]))]
        res["warm_lat"] = [[x * g for x, g in zip(lat, nearest_factors(res, mid))]
                           for lat, mid in zip(res["warm_lat"], res["warm_mid"])]
    return res


def p95(values: list[float]) -> float:
    """Nearest-rank 95th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


def growth_exp(t_small: float, t_large: float, n_small: int, n_large: int) -> float:
    return math.log(t_large / t_small) / math.log(n_large / n_small)


def source_id() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "crosscap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def run_children(args, traced: bool):
    """Start children one at a time until --seconds are used up."""
    start = time.perf_counter()
    deadline = start + args.seconds
    spans_path = None
    if traced:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        spans_path.unlink(missing_ok=True)
    setups, jobs, crashes = [], [], []
    longest = 0.0
    rounds: list[float] = []  # wall time of each set-up probe plus job child
    run_id = 0
    # The traced run alternates untraced and traced children, so the
    # tracing overhead is measured against untraced children of the same run.
    # Another child starts if the run would end at most half a child past
    # the deadline, so a run of a few long children does not stop well
    # short of it.
    while True:
        now = time.perf_counter()
        need = 2 if traced else 1
        if len(jobs) >= need and now + statistics.fmean(rounds) / 2 > deadline:
            break
        if now - start + longest > HARD_LIMIT_S - 10:
            break
        trace_out = spans_path if traced and run_id % 2 == 1 else None
        try:
            setups += [spawn(args, "setup") for _ in range(SETUP_PROBES[args.scale])]
            res = spawn(args, "job", run_id, trace_out,
                        timeout=max(1.0, HARD_LIMIT_S - (now - start)))
            res["traced"] = trace_out is not None
            jobs.append(res)
            longest = max(longest, res["wall_s"])
            rounds.append(time.perf_counter() - now)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            crashes.append(str(exc)[-500:])
            if len(crashes) > 2 or isinstance(exc, subprocess.TimeoutExpired):
                break
        run_id += 1
    return setups, jobs, crashes, spans_path


def end_to_end(setups, jobs) -> tuple[dict, dict]:
    """Each figure is taken per child and then averaged over the children.
    The mean, not the median: children of one run differed by up to 2x on
    a shared 2-core host, and over the same ten runs of stokes there the
    mean spread about half as much as the median (cold_s 0.060 against
    0.117, lat_p50_ms 0.12 against 0.23).  setup_s, many short samples, and
    peak_rss_mb, which barely moves, keep the median."""
    cold = [sum(j["cold_lat"]) for j in jobs]
    # A child's warm figure is the median over its warm passes: tables
    # repeats its microsecond-scale warm pass many times, and a pass that
    # meets a garbage collection is an outlier at that scale.
    warm = [statistics.median(sum(lat) for lat in j["warm_lat"]) for j in jobs]
    mean = statistics.fmean
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups + jobs), "s"),
        "cold_s": (mean(cold), "s"),
        "warm_s": (mean(warm), "s"),
        "req_per_s": (mean(len(j["cold_lat"]) / c for j, c in zip(jobs, cold)), "1/s"),
        "lat_p50_ms": (1000 * mean(statistics.median(j["cold_lat"]) for j in jobs), "ms"),
        "lat_p95_ms": (1000 * mean(p95(j["cold_lat"]) for j in jobs), "ms"),
        "peak_rss_mb": (statistics.median(j["rss_mb"] for j in jobs), "MB"),
    }
    counts = {"children": len(jobs), "setup_samples": len(setups) + len(jobs),
              "latency_samples_per_child": len(jobs[0]["cold_lat"]),
              "warm_passes_per_child": len(jobs[0]["warm_lat"]),
              "calibration_samples": sum(len(c["cal_s"]) for c in setups + jobs),
              "speed_factor": statistics.median(c["speed"] for c in setups + jobs),
              "raw_cold_s": mean(j["raw_cold_s"] for j in jobs)}
    return metrics, counts


def op_times(jobs) -> dict:
    """Median cold and warm time of each op, by position in the job."""
    out = {}
    for i, label in enumerate(jobs[0]["labels"]):
        key = f"{i}:{label}"
        out[key] = {"cold_s": statistics.median(j["cold_lat"][i] for j in jobs)}
        warm = [lat[i] for j in jobs for lat in j["warm_lat"]]
        if warm:
            out[key]["warm_s"] = statistics.median(warm)
    return out


def hit_extend_ms(jobs) -> tuple[float, float, int, int]:
    hit, ext = [], []
    for j in jobs:
        lats = j["cold_lat"] + [x for lat in j["warm_lat"] for x in lat]
        for x, is_hit in zip(lats, j["hits"]):
            (hit if is_hit else ext).append(1000 * x)
    return statistics.median(hit), statistics.median(ext), len(hit), len(ext)


def workload_report(args, jobs) -> dict:
    """Per-workload figures that only some workloads have."""
    first = jobs[0]
    rep = {}
    cold_med = [statistics.median(j["cold_lat"][i] for j in jobs)
                for i in range(len(first["labels"]))]
    if args.workload == "tables":
        n_half, n_full = first["sizes"][1][0], first["sizes"][2][0]
        rep["sequences.v_seq.growth_exp"] = growth_exp(
            cold_med[1], cold_med[1] + cold_med[2], n_half, n_full)
    if args.workload == "series":
        (q1,), (q2,), (o1,), (o2,) = first["sizes"][:4]
        rep["specgeom.quadrangulation_counts.growth_exp"] = growth_exp(
            cold_med[0], cold_med[1], q1, q2)
        rep["transseries.vpm_series.growth_exp"] = growth_exp(
            cold_med[2], cold_med[3], o1, o2)
        rep["transseries.vpm_series.repeat_s"] = cold_med[4]
    if args.workload != "session":
        rep["ops"] = op_times(jobs)
    else:
        ops = bench_plan.job_ops("session", args.seed, args.scale)
        hits = bench_plan.classify(ops)
        rep["cli.cache_hit_share"] = sum(hits) / len(hits)
        rep["requests"] = len(ops)
        rep["plan_sha256"] = hashlib.sha256(
            json.dumps(ops).encode()).hexdigest()[:16]
        by_cmd: dict[str, list[float]] = {}
        for j in jobs:
            for op, x in zip(ops, j["cold_lat"]):
                by_cmd.setdefault(op["argv"][0], []).append(1000 * x)
        for cmd, xs in sorted(by_cmd.items()):
            rep[f"cli.{cmd}_ms"] = statistics.median(xs)
    return rep


def per_layer(jobs) -> tuple[dict, dict]:
    plain = [j for j in jobs if not j["traced"]]
    traced = [j for j in jobs if j["traced"]]
    hit_ms, ext_ms, n_hit, n_ext = hit_extend_ms(plain)
    self_s: dict[str, list[float]] = {}
    for j in traced:
        for name, t in j["trace"]["self_s"].items():
            self_s.setdefault(name, []).append(t)
    self_med = {name: statistics.median(ts + [0.0] * (len(traced) - len(ts)))
                for name, ts in self_s.items()}
    cold_plain = statistics.median(sum(j["cold_lat"]) for j in plain)
    cold_traced = statistics.median(sum(j["cold_lat"]) for j in traced)
    uncovered = statistics.median(j["trace"]["uncovered_share"] for j in traced)
    metrics = {
        "cli.import_s": (statistics.median(j["import_s"] for j in jobs), "s"),
        "sequences.u_seq_s": (self_med.get("sequences.u_seq", 0.0), "s"),
        "sequences.v_seq_s": (self_med.get("sequences.v_seq", 0.0), "s"),
        "transseries.nu_seq_s": (self_med.get("transseries.nu_seq", 0.0), "s"),
        "transseries.vk_table_s": (self_med.get("transseries.vk_table", 0.0), "s"),
        "cache.hit_ms": (hit_ms, "ms"),
        "cache.extend_ms": (ext_ms, "ms"),
        "trace.uncovered_share": (uncovered, "ratio"),
        "trace.overhead_s": (cold_traced - cold_plain, "s"),
        "exactnum.max_coeff_bits": (jobs[0]["max_coeff_bits"], "count"),
    }
    report = {"self_s": dict(sorted(self_med.items(), key=lambda kv: -kv[1])),
              "cold_s_untraced": cold_plain, "cold_s_traced": cold_traced,
              "children_untraced": len(plain), "children_traced": len(traced),
              "hit_samples": n_hit, "extend_samples": n_ext,
              "cold_spans": statistics.median(j["trace"]["spans"] for j in traced)}
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=bench_plan.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(bench_plan.SCALES), default="full",
                        help="toy sizes are for the self-test only")
    args = parser.parse_args(argv)
    if not (SRC / "crosscap" / "__init__.py").is_file():
        print(f"run.py: no crosscap package under {SRC}", file=sys.stderr)
        return 2

    setups, jobs, crashes, spans_path = run_children(args, bool(args.trace))
    if not jobs or (args.trace and not any(j["traced"] for j in jobs)):
        print("run.py: no child completed:\n" + "\n".join(crashes), file=sys.stderr)
        return 1
    attempted = sum(j["attempted"] for j in jobs) + len(crashes)
    failed = sum(j["failed"] for j in jobs) + len(crashes)
    if args.trace:
        metrics, extra = per_layer(jobs)
        extra["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics, extra = end_to_end(setups, jobs)
    report = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "error_rate": failed / attempted,
        "failures": [f for j in jobs for f in j["failures"]][:20] + crashes,
        **extra,
        **workload_report(args, [j for j in jobs if not j["traced"]]),
        "env": {**jobs[0]["env"], "nproc": os.cpu_count(), **source_id()},
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
