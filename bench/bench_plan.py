"""Workload plans: what each benchmark run asks the library to do.

A plan is plain data (lists of dicts), a pure function of the workload
name, the seed and the scale, so the same seed always gives byte-identical
requests.  An op is either ``{"call": name, "args": [...]}``, a call into a
public crosscap function, or ``{"argv": [...]}``, one request through
``crosscap.cli.run``.

The table-need model below says which cached recursion tables an op reads
and how far; it classifies each op as a cache hit (it grows no table) or
an extension, from the plan alone.
"""

from __future__ import annotations

import random

WORKLOADS = ("stokes", "tables", "series", "session")

# Sizes per scale.  "full" is the benchmark; "toy" is the self-test's.
SCALES = {
    "full": {
        "stokes": {"sprime": (250, 30), "sminus1": (100, 10), "conv_n": 250,
                   "dps": 200, "min_digits": 32, "warm_reps": 1},
        "tables": {"u": 150, "v": 210, "vk": 100, "warm_reps": 200},
        "series": {"quad": (90, 180), "vpm": (16, 32), "warm_reps": 1},
        "session": {"per_kind": 14, "cap": 1.0, "warm_reps": 1},
    },
    "toy": {
        "stokes": {"sprime": (60, 10), "sminus1": (30, 6), "conv_n": 40,
                   "dps": 60, "min_digits": 6, "warm_reps": 1},
        "tables": {"u": 30, "v": 40, "vk": 20, "warm_reps": 1},
        "series": {"quad": (10, 20), "vpm": (4, 8), "warm_reps": 1},
        "session": {"per_kind": 3, "cap": 0.25, "warm_reps": 1},
    },
}

# The session's request kinds: the CLI examples of the top-level README, one
# kind each, with the flag whose value grows over the session up to the
# example's own value (see HALF_SIZE_COMMANDS).  The defaults of the sminus1
# example are spelled out.
README_EXAMPLES = (
    ("seq v --n 3 --format json", "--n"),
    ("seq t --n 2", "--n"),
    ("seq p --n 8 --format csv", "--n"),
    ("transseries --k 3 --n 10", "--n"),
    ("vpm --order 5", "--order"),
    ("asym v --n 100 --trunc 5 --prec 60", "--n"),
    ("asym vk --k 2 --n 60 --trunc 0 --prec 60", "--n"),
    ("richardson --target s --n 250 --order 20", "--n"),
    ("stokes --which sprime --n 250 --order 30 --prec 200", "--n"),
    ("stokes --which sminus1 --n 100 --order 10", "--n"),
    ("quad --n 7", "--n"),
    ("quad --n 20 --plain", "--n"),
    ("intersect --g 2", "--g"),
    ("plotdata unorquot --nmax 250 --format csv", "--nmax"),
    ("plotdata firstcorr --nmax 250 --format csv", "--nmax"),
)
# Commands whose output holds floats; the others print exact values only.
FLOAT_COMMANDS = ("asym", "richardson", "stokes", "plotdata")
# Commands that redo a Richardson transform on every request grow to half
# their README size.  At full size a session child (cold pass, warm replay,
# checks) takes about 20 s, so a 30 s run held one child and the session's
# warm_s and lat_p50_ms spread 0.28 and 0.29 over ten seeds; at half size a
# run holds two to four.  The README sizes run in the stokes workload.
HALF_SIZE_COMMANDS = ("richardson", "stokes", "plotdata")
MIN_SIZE = {"intersect": 2}  # intersect --g 1 is outside the formula's domain
FORMATS = ("table", "json", "csv")
DEFAULT_PREC = "200"  # the CLI default, passed explicitly


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"crosscap-bench:{workload}:{seed}")


def job_ops(workload: str, seed: int, scale: str = "full") -> list[dict]:
    """The op list of one cold job (the warm pass repeats it)."""
    cfg = SCALES[scale][workload]
    rng = _rng(workload, seed)
    if workload == "stokes":
        dps = cfg["dps"]
        (n1, o1), (n2, o2) = cfg["sprime"], cfg["sminus1"]
        n_top = cfg["conv_n"]
        # asym checks read only nu and the k <= 3 rows that the sminus1
        # estimate has already built, so they stay cache hits.
        return [
            {"call": "estimate_stokes", "args": ["sprime", n1, o1, dps]},
            {"call": "estimate_stokes", "args": ["sminus1", n2, o2, dps]},
            {"call": "convergence_rows", "args": ["s", n_top, [0, 1, 5], dps]},
            {"call": "convergence_rows", "args": ["r", n_top, [0, 1, 5], dps]},
            {"call": "asym_v", "args": [rng.randint(n2, n1), rng.randint(2, o2), dps]},
            {"call": "asym_vk", "args": [rng.randint(1, 2), rng.randint(o2 + 1, n2),
                                         rng.randint(1, o2 - 1), dps]},
        ]
    if workload == "tables":
        d = rng.randint(0, 2)
        nv = cfg["v"] + d
        return [
            {"call": "u_seq", "args": [cfg["u"] + d]},
            {"call": "v_seq", "args": [nv // 2]},
            {"call": "v_seq", "args": [nv]},
            {"call": "vk_table", "args": [cfg["vk"] + d, 3]},
        ]
    if workload == "series":
        # vpm_series costs O(order^3), so its orders stay fixed: a seed
        # offset there would move the cost between seeds by up to 20%.
        d = rng.randint(0, 2)
        (q1, q2), (o1, o2) = cfg["quad"], cfg["vpm"]
        return [
            {"call": "quadrangulation_counts", "args": [q1 + d]},
            {"call": "quadrangulation_counts", "args": [q2 + d]},
            {"call": "vpm_series", "args": [o1]},
            {"call": "vpm_series", "args": [o2]},
            {"call": "vpm_series", "args": [o2]},
        ]
    if workload == "session":
        return session_requests(seed, scale)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# session traffic
# ---------------------------------------------------------------------------

def kind_requests(example: str, flag: str, scale: str = "full") -> list[list[str]]:
    """The requests of one kind in session order, without their format:
    the example with its size flag growing in equal steps to the example's
    value (to half of it for HALF_SIZE_COMMANDS, and scaled down at toy
    scale), and its precision made explicit."""
    cfg = SCALES[scale]["session"]
    base = example.split()
    if "--format" in base:
        i = base.index("--format")
        del base[i:i + 2]
    if "--prec" not in base:
        base += ["--prec", DEFAULT_PREC]
    i = base.index(flag) + 1
    share = cfg["cap"] / (2 if base[0] in HALF_SIZE_COMMANDS else 1)
    cap = max(1, round(int(base[i]) * share))
    count = cfg["per_kind"]
    out = []
    for j in range(count):
        argv = list(base)
        argv[i] = str(max(MIN_SIZE.get(base[0], 1), -(-cap * (j + 1) // count)))
        out.append(argv)
    return out


def with_format(argv: list[str], fmt: str) -> list[str]:
    return [*argv, "--format", fmt]


def exact_grid(scale: str = "full"):
    """Every exact-valued request a session at this scale can send."""
    for example, flag in README_EXAMPLES:
        if example.split()[0] in FLOAT_COMMANDS:
            continue
        for argv in kind_requests(example, flag, scale):
            for fmt in FORMATS:
                yield with_format(argv, fmt)


def session_requests(seed: int, scale: str = "full") -> list[dict]:
    """A seeded closed-loop session whose sizes grow as it goes.

    Each README example gives the same number of requests, their sizes
    growing as kind_requests says, so most requests find their tables filled and
    a minority extend them in small steps.  The session goes in rounds:
    round j sends the j-th request of every kind.  Each kind's sizes are the
    same for every seed, so every seed sends the same work; the seed picks
    the order of the kinds within each round (and with it which requests
    extend a table) and where each kind's rotation through the three formats
    starts.  Shuffling within rounds, not across the whole session, keeps
    the share of cache hits, and with it the median latency, nearly the
    same for every seed (0.83 to 0.85 over seeds 1 to 20).
    """
    rng = _rng("session", seed)
    queues = []
    for example, flag in README_EXAMPLES:
        offset = rng.randrange(len(FORMATS))
        queues.append([{"argv": with_format(argv, FORMATS[(j + offset) % len(FORMATS)])}
                       for j, argv in enumerate(kind_requests(example, flag, scale))])
    out = []
    for j in range(len(queues[0])):
        order = list(range(len(queues)))
        rng.shuffle(order)
        out += [queues[k][j] for k in order]
    return out


# ---------------------------------------------------------------------------
# table-need model
# ---------------------------------------------------------------------------

def _arg(argv: list[str], flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


def direct_needs(op: dict) -> dict[str, int]:
    """Cached tables an op reads directly, with the last index it needs."""
    if "call" in op:
        name, a = op["call"], op["args"]
        if name == "u_seq":
            return {"u": a[0]}
        if name == "v_seq":
            return {"v": a[0]}
        if name == "vk_table":
            return {f"vk{a[1]}": a[0]} if a[1] >= 1 else {"v": a[0]}
        if name == "vpm_series":
            return {"vk2": a[0]}
        if name == "quadrangulation_counts":
            return {}
        if name == "estimate_stokes":
            top = a[1] + a[2]
            return {"v": top} if a[0] == "sprime" else {"vk3": top}
        if name == "convergence_rows":
            return {"v": a[1] + max(a[2])}
        if name == "asym_v":
            return {"nu": a[1]}
        if name == "asym_vk":
            return {f"vk{a[0] + 1}": a[2]}
        raise ValueError(name)
    argv = op["argv"]
    cmd = argv[0]
    if cmd == "seq":
        name, n = argv[1], _arg(argv, "--n")
        return {"u": {"u": n}, "t": {"u": n}, "v": {"v": n}, "p": {"v": n - 1},
                "mu": {"mu": n}, "nu": {"nu": n}}[name]
    if cmd == "transseries":
        return {f"vk{_arg(argv, '--k')}": _arg(argv, "--n")}
    if cmd == "vpm":
        return {"vk2": _arg(argv, "--order")}
    if cmd == "intersect":
        return {"u": _arg(argv, "--g")}
    if cmd == "quad":
        return {}
    if cmd == "asym":
        n, trunc = _arg(argv, "--n"), _arg(argv, "--trunc")
        if argv[1] == "v":
            return {"v": n, "nu": trunc}
        k = _arg(argv, "--k")
        return {f"vk{k}": n, f"vk{k + 1}": trunc}
    if cmd == "richardson":
        return {"v": _arg(argv, "--n") + _arg(argv, "--order")}
    if cmd == "stokes":
        top = _arg(argv, "--n") + _arg(argv, "--order")
        return {"v": top} if argv[argv.index("--which") + 1] == "sprime" \
            else {"vk3": top}
    if cmd == "plotdata":
        return {"v": _arg(argv, "--nmax") + 5}
    raise ValueError(cmd)


def _closure(needs: dict[str, int]) -> dict[str, int]:
    """Add the tables each table is built from (v from u, nu from v, ...)."""
    out: dict[str, int] = {}

    def need(table: str, n: int) -> None:
        if n < 0 or out.get(table, -1) >= n:
            return
        out[table] = n
        if table == "v":
            need("u", n // 2)
        elif table == "mu":
            need("u", (n + 1) // 2)
        elif table == "nu":
            need("v", n + 1)
        elif table.startswith("vk"):
            need("v", n)
            for lower in range(1, int(table[2:])):
                need("nu" if lower == 1 else f"vk{lower}", n)

    for table, n in needs.items():
        need({"vk0": "v", "vk1": "nu"}.get(table, table), n)
    return out


def classify(ops: list[dict], state: dict[str, int] | None = None) -> list[bool]:
    """True for each op that grows no cached table, given the tables filled
    by the ops before it.  ``state`` (table -> last filled index) is updated."""
    state = {} if state is None else state
    hits = []
    for op in ops:
        needs = _closure(direct_needs(op))
        hits.append(all(state.get(t, -1) >= n for t, n in needs.items()))
        for t, n in needs.items():
            state[t] = max(state.get(t, -1), n)
    return hits
