"""One benchmark child process: import crosscap, run one workload's job cold
and then warm, check every output, print one JSON result line.

run.py starts these one at a time, with ``src/`` on PYTHONPATH and
CROSSCAP_PREC removed, so every child starts with empty tables.  Between
ops it times a fixed calibration loop, by which run.py scales the op times
to reference seconds.  With ``--trace-out`` the public layer functions are
wrapped so that each call records a span (name, start, end, parent, run
id); the spans are appended to that file when the child ends.
"""

import sys
import time

_T_IMPORT = time.perf_counter()
import crosscap.cli  # noqa: E402  (timed: this is the set-up being measured)
_T_READY = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402

import mpmath  # noqa: E402

import bench_plan  # noqa: E402
import bench_refs  # noqa: E402

# Public functions traced as layers; a span is named module.function.
LAYER_FUNCS = (
    "u_seq", "v_seq", "t_of_g", "p_of_g", "intersection_number",
    "mu_seq", "nu_seq", "vk_table", "vpm_series",
    "alpha2_series", "x02_series", "rp2_correlator_series",
    "quadrangulation_counts",
    "s_seq", "r_seq", "richardson", "estimate_stokes", "convergence_rows",
    "asym_u", "asym_v", "asym_vk",
)


# Host speed.  The shared host changes speed by itself, by a fifth and more,
# over seconds to minutes, and a slow spell slows a fixed pure-Python
# Fraction loop much as it slows crosscap's recursions.  So a child times
# such a loop (a frozen copy of the u recursion, about 30 ms) before its
# first op and then between ops whenever CAL_EVERY_S have passed; run.py
# scales each op's time by the loops nearest to it in time.
CAL_TERMS = 75
CAL_EVERY_S = 0.3


def calibration_loop() -> float:
    """Seconds one fixed pass of the u recursion in plain Fractions takes.
    The code is frozen here, so no change to crosscap moves it."""
    t0 = time.perf_counter()
    vals = [Fraction(1)]
    for m in range(1, CAL_TERMS):
        acc = Fraction(0)
        for k in range(1, m):
            acc += vals[k] * vals[m - k]
        vals.append(Fraction(25 * (m - 1) ** 2 - 1, 48) * vals[m - 1] - acc / 2)
    return time.perf_counter() - t0


class SpeedProbe:
    """Calibration samples taken between timed ops, never inside one."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.times: list[float] = []  # midpoint of each sample
        self._last = float("-inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibration_loop())
        self._last = time.perf_counter()
        self.times.append((t0 + self._last) / 2)

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= CAL_EVERY_S:
            self.sample()

    def report(self) -> dict:
        return {"cal_s": self.samples, "cal_t": self.times}


class Tracer:
    """In-memory spans around calls into crosscap's layers."""

    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"run": self.run_id, "id": sid, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def install(self) -> None:
        """Replace each layer function, wherever a crosscap module refers to
        it, by a wrapper that records a span around the call."""
        wrapped = {}
        for name in LAYER_FUNCS:
            fn = getattr(crosscap, name)
            label = f"{fn.__module__.rsplit('.', 1)[-1]}.{name}"
            wrapped[id(fn)] = self._wrap(fn, label)
        for modname, mod in list(sys.modules.items()):
            if modname == "crosscap" or modname.startswith("crosscap."):
                for attr, val in list(vars(mod).items()):
                    if id(val) in wrapped:
                        setattr(mod, attr, wrapped[id(val)])

    def _wrap(self, fn, label):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(label):
                return fn(*args, **kwargs)
        return traced

    def summary(self, root: int) -> dict:
        """Self time per span name under span ``root``, and the time its
        layer spans cover."""
        children: dict[int, list[dict]] = {}
        for s in self.spans:
            children.setdefault(s["parent"], []).append(s)
        self_s: dict[str, float] = {}
        covered = 0.0

        def walk(s, depth):
            nonlocal covered
            dur = s["end"] - s["start"]
            kids = children.get(s["id"], [])
            if depth >= 2:  # below pass and op spans: a layer
                self_s[s["name"]] = self_s.get(s["name"], 0.0) + dur \
                    - sum(k["end"] - k["start"] for k in kids)
                if depth == 2:
                    covered += dur
            for k in kids:
                walk(k, depth + 1)

        walk(self.spans[root], 0)
        return {"self_s": self_s, "covered_s": covered,
                "spans": sum(1 for s in self.spans if root <= s["id"])}


def execute(op: dict):
    if "call" in op:
        args = [tuple(a) if isinstance(a, list) else a for a in op["args"]]
        return getattr(crosscap, op["call"])(*args)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = crosscap.cli.run(list(op["argv"]))
    return code, out.getvalue()


def op_label(op: dict) -> str:
    return op["call"] if "call" in op else f"cli.{op['argv'][0]}"


def run_pass(ops, tracer, probe, pass_name):
    """Run ops in order, timing each call alone; returns (results, latencies)."""
    results, lat, mid = [], [], []
    ctx = tracer.span(f"pass.{pass_name}") if tracer else contextlib.nullcontext()
    with ctx:
        for op in ops:
            probe.maybe()
            span = tracer.span(f"op.{op_label(op)}") if tracer else contextlib.nullcontext()
            with span:
                t0 = time.perf_counter()
                try:
                    res = execute(op)
                except Exception as exc:  # a raising op is a failed op
                    res = exc
                lat.append(time.perf_counter() - t0)
                mid.append(t0 + lat[-1] / 2)
            results.append(res)
    return results, lat, mid


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _rows(n, k):
    table = crosscap.vk_table(n, k)
    return [table.row(i) for i in range(k + 1)]


_ROW_NAMES = ("v", "nu", "vk2", "vk3")


def _verified_rows(chk, n, k):
    rows = _rows(n, k)
    for name, row in zip(_ROW_NAMES, rows):
        chk.entries(name, row)
    return rows


def _check_transform(chk, which, order, n, dps, value):
    v = chk.verified("v", crosscap.v_seq(n + order))
    ref = (bench_refs.ref_s if which == "s" else bench_refs.ref_r)(v, order, n, dps)
    if not bench_refs.close(value, ref, bench_refs.transform_tol(order, n, dps)):
        raise bench_refs.CheckError(f"{which}^({order})_{n} off its exact reference")


def _check_stokes(chk, which, n, order, dps, value, digits, min_digits=0):
    if which == "sprime":
        v = chk.verified("v", crosscap.v_seq(n + order))
        ref = bench_refs.ref_s(v, order, n, dps)
        with mpmath.workdps(dps):
            target = mpmath.sqrt(6)
    else:
        rows = _verified_rows(chk, n + order, 3)
        ref = bench_refs.ref_sminus1(rows[2], rows[3], n, order, dps)
        with mpmath.workdps(dps):
            target = -mpmath.sqrt(6) / 12
    if not bench_refs.close(value, ref, bench_refs.transform_tol(order, n, dps)):
        raise bench_refs.CheckError(f"{which} estimate off its exact reference")
    if int(digits) != bench_refs.matched_digits(ref, target, dps):
        raise bench_refs.CheckError(f"{which}: matched digits {digits} wrong")
    if int(digits) < min_digits:
        raise bench_refs.CheckError(f"{which}: only {digits} digits")


def _asym_ref(chk, k, n, L, dps):
    return bench_refs.ref_asym_vk(_verified_rows(chk, L, k + 1), k, n, L, dps)


def _check_rows(chk, which, rows, n_max, orders, dps, rng):
    if len(rows) != n_max:
        raise bench_refs.CheckError(f"{len(rows)} rows, expected {n_max}")
    for n in sorted({1, n_max, *rng.sample(range(1, n_max + 1), min(3, n_max))}):
        row = rows[n - 1]
        if int(row[0]) != n:
            raise bench_refs.CheckError(f"row {n} labelled {row[0]}")
        for order, value in zip(orders, row[1:]):
            _check_transform(chk, which, order, n, dps, value)


def check_call(chk, op, res, rng, min_digits):
    name, a = op["call"], op["args"]
    if name in ("u_seq", "v_seq"):
        if len(res) != a[0] + 1:
            raise bench_refs.CheckError("wrong length")
        chk.entries(name[0], res)
    elif name == "vk_table":
        for k, table in zip(range(a[1] + 1), _ROW_NAMES):
            row = res.row(k)
            if len(row) != a[0] + 1:
                raise bench_refs.CheckError("wrong row length")
            chk.entries(table, row)
    elif name == "estimate_stokes":
        _check_stokes(chk, a[0], a[1], a[2], a[3], res.value, res.digits,
                      min_digits if a[0] == "sprime" else 0)
    elif name == "convergence_rows":
        _check_rows(chk, a[0], res, a[1], a[2], a[3], rng)
    elif name == "quadrangulation_counts":
        if len(res) != a[0]:
            raise bench_refs.CheckError("wrong length")
        chk.entries("quad", res)
    elif name == "vpm_series":
        for table, series in zip(("vpm_plus", "vpm_minus"), res):
            chk.entries(table, [series.coefficient(e) for e in range(a[0] + 1)])
    elif name in ("asym_v", "asym_vk"):
        k, (n, L, dps) = (0, a) if name == "asym_v" else (a[0], a[1:])
        ref = _asym_ref(chk, k, n, L, dps)
        if not bench_refs.close(res, ref, bench_refs.asym_tol(dps)):
            raise bench_refs.CheckError(f"{name} off its exact reference")
    else:
        raise bench_refs.CheckError(f"no check for {name}")


def check_cli(chk, argv, res, rng):
    code, text = res
    if code != 0:
        raise bench_refs.CheckError(f"exit code {code}")
    cmd = argv[0]
    if cmd not in bench_plan.FLOAT_COMMANDS:
        chk.cli_bytes(argv, text)
        return
    arg = lambda flag: argv[argv.index(flag) + 1]  # noqa: E731
    dps = int(arg("--prec"))
    got = bench_refs.float_fields(argv, text)
    if cmd == "richardson":
        _check_transform(chk, arg("--target"), int(arg("--order")), int(arg("--n")),
                         dps, got["value"])
    elif cmd == "stokes":
        _check_stokes(chk, arg("--which"), int(arg("--n")), int(arg("--order")),
                      dps, got["estimate"], got["matched_digits"])
    elif cmd == "asym":
        n, L = int(arg("--n")), int(arg("--trunc"))
        k = 0 if argv[1] == "v" else int(arg("--k"))
        exact = _rows(n, k)[k][n]
        chk.entries(_ROW_NAMES[k], [got["exact"]], start=n)
        ref = _asym_ref(chk, k, n, L, dps)
        if not bench_refs.close(got["asym"], ref, bench_refs.asym_tol(dps)):
            raise bench_refs.CheckError("asym value off its exact reference")
        with mpmath.workdps(dps + 30):
            rel = abs(ref / bench_refs.to_mpf(bench_refs.pair(exact), dps + 30) - 1)
        if not bench_refs.close(got["rel_error"], rel, mpmath.mpf("1e-8")):
            raise bench_refs.CheckError("rel_error off its exact reference")
    else:
        which = "s" if argv[1] == "unorquot" else "r"
        _check_rows(chk, which, got["rows"], int(arg("--nmax")), (0, 1, 5), dps, rng)


def check_op(chk, op, res, rng, min_digits):
    if isinstance(res, Exception):
        raise res
    if "call" in op:
        check_call(chk, op, res, rng, min_digits)
    else:
        check_cli(chk, op["argv"], res, rng)


def comparable(res):
    """What a warm result must equal: the cold result, already checked."""
    if isinstance(res, crosscap.VkTable):
        return [res.row(k) for k in range(res.max_sector + 1)]
    return res


def max_coeff_bits(state: dict) -> int:
    """Largest numerator or denominator bit length in the filled tables."""
    tables = {"u": crosscap.u_seq, "v": crosscap.v_seq, "mu": crosscap.mu_seq,
              "nu": crosscap.nu_seq}
    bits = 0
    for name, n in state.items():
        if name in tables:
            values = tables[name](n)
        else:
            values = crosscap.vk_table(n, int(name[2:])).row(int(name[2:]))
        for x in values:
            for q in bench_refs.pair(x):
                bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return bits


def run_job(workload, seed, scale, tracer, digests):
    cfg = bench_plan.SCALES[scale][workload]
    ops = bench_plan.job_ops(workload, seed, scale)
    warm_reps = cfg["warm_reps"]
    state: dict = {}
    hits = bench_plan.classify(ops * (1 + warm_reps), state)
    if tracer:
        tracer.install()
    probe = SpeedProbe()
    cold, cold_lat, cold_mid = run_pass(ops, tracer, probe, "cold")
    warm_lat, warm_mid = [], []
    # Each warm pass is compared with the cold pass as soon as it ends and
    # then dropped, so repeated passes neither hold memory nor grow the
    # garbage collector's work in later passes.
    warm_same = []
    for _ in range(warm_reps):
        res, lat, mid = run_pass(ops, tracer, probe, "warm")
        warm_mid.append(mid)
        warm_same.append([comparable(r) == comparable(c) for r, c in zip(res, cold)])
        warm_lat.append(lat)
    probe.sample()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    chk = bench_refs.Checker(digests)
    rng = random.Random(f"check:{workload}:{seed}")
    min_digits = cfg.get("min_digits", 0)
    cold_ok = [chk.record(f"cold {op_label(op)} {i}",
                          functools.partial(check_op, chk, op, res, rng, min_digits))
               for i, (op, res) in enumerate(zip(ops, cold))]
    for rep in warm_same:
        for i, (op, equal, ok) in enumerate(zip(ops, rep, cold_ok)):
            def same(equal=equal, ok=ok):
                if not ok:
                    raise bench_refs.CheckError("cold output already failed")
                if not equal:
                    raise bench_refs.CheckError("warm output differs from cold")
            chk.record(f"warm {op_label(op)} {i}", same)

    labels = [op_label(op) for op in ops]
    out = {
        "cold_lat": cold_lat, "warm_lat": warm_lat, "labels": labels,
        "hits": hits, "rss_mb": rss_mb, "sizes": [op.get("args") for op in ops],
        "cold_mid": cold_mid, "warm_mid": warm_mid, **probe.report(),
        "attempted": chk.attempted, "failed": chk.failed,
        "failures": chk.failures[:20],
        "max_coeff_bits": max_coeff_bits(state),
    }
    if tracer:
        roots = [s["id"] for s in tracer.spans if s["name"] == "pass.cold"]
        out["trace"] = tracer.summary(roots[0])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=bench_plan.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", choices=tuple(bench_plan.SCALES), default="full")
    parser.add_argument("--mode", choices=("setup", "job"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    result = {"setup_s": _T_READY - args.spawned_at,
              "import_s": _T_READY - _T_IMPORT,
              "env": {"python": sys.version.split()[0],
                      "mpmath": mpmath.__version__,
                      "mpmath_backend": mpmath.libmp.BACKEND}}
    if args.mode == "setup":
        probe = SpeedProbe()
        for _ in range(3):
            probe.sample()
        result.update(probe.report())
    else:
        tracer = Tracer(args.run_id) if args.trace_out else None
        result.update(run_job(args.workload, args.seed, args.scale, tracer,
                              bench_refs.load_digests()))
        if tracer:
            with open(args.trace_out, "a", encoding="utf-8") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps(s) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
