"""Output checks: recorded digests for exact values, exact references for
floats.

Exact outputs (recursion table entries, and the stdout bytes of
exact-valued CLI requests, quadrangulation counts and v_plus/v_minus
coefficients among them) must hash to the digests in ``digests.json``,
recorded by ``record_digests.py``.

Float outputs (Stokes estimates, Richardson transforms, asymptotic values)
are compared with a reference evaluated here exactly in Q(sqrt3), from the
public ``v_seq``/``vk_table`` values (themselves checked against the
digests first), and rounded once.  The tolerance is the accuracy the float
path reaches: an order-N transform at n loses the c digits of
sum_k (n+k)^N / (k! (N-k)!), so it must agree to 10^-(dps - c + 1); the
asymptotic evaluators agree to 10^(2 - dps).
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import mpmath

DIGESTS_PATH = Path(__file__).with_name("digests.json")

# Elements a + b sqrt3 of Q(sqrt3) as (a, b) pairs of Fractions; kept apart
# from crosscap's own QF3 so the references share no arithmetic with it.
ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
LAMBDA = (Fraction(0), Fraction(4, 5))       # A/2 = 4 sqrt3 / 5
LAMBDA_INV = (Fraction(0), Fraction(5, 12))  # 5 / (4 sqrt3)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def pair(x) -> tuple:
    """An exact crosscap value (QF3, Fraction or int) as an (a, b) pair."""
    if hasattr(x, "b"):
        return (Fraction(x.a), Fraction(x.b))
    return (Fraction(x), Fraction(0))


def _mul(x, y):
    return (x[0] * y[0] + 3 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _scale(x, q):
    return (x[0] * q, x[1] * q)


@functools.lru_cache(maxsize=None)
def _pow(x, m):
    out = ONE
    for _ in range(m):
        out = _mul(out, x)
    return out


def to_mpf(x, dps):
    with mpmath.workdps(dps):
        a = mpmath.mpf(x[0].numerator) / x[0].denominator
        b = mpmath.mpf(x[1].numerator) / x[1].denominator
        return a + mpmath.sqrt(3) * b


def cancel_digits(order: int, n: int) -> int:
    """Digits an order-``order`` transform at ``n`` cancels."""
    total = sum(Fraction((n + k) ** order, factorial(k) * factorial(order - k))
                for k in range(order + 1))
    return len(str(int(total)))


def transform_tol(order: int, n: int, dps: int) -> mpmath.mpf:
    return mpmath.mpf(10) ** (cancel_digits(order, n) - dps - 1) \
        + mpmath.mpf(10) ** (1 - dps)


def asym_tol(dps: int) -> mpmath.mpf:
    return mpmath.mpf(10) ** (2 - dps)


def _weights(order: int, n: int) -> list[Fraction]:
    return [Fraction((-1) ** (k + order) * comb(order, k) * (n + k) ** order,
                     factorial(order)) for k in range(order + 1)]


def _s_core(v: list, m: int):
    """(A/2)^m v_m / Gamma(m), exact."""
    return _scale(_mul(_pow(LAMBDA, m), pair(v[m])), Fraction(1, factorial(m - 1)))


def ref_s(v: list, order: int, n: int, dps: int) -> mpmath.mpf:
    """Order-``order`` transform of s_m = 2 pi (A/2)^m v_m / Gamma(m) at n."""
    acc = ZERO
    for k, w in enumerate(_weights(order, n)):
        acc = _add(acc, _scale(_s_core(v, n + k), w))
    with mpmath.workdps(dps + 30):
        return 2 * mpmath.pi * to_mpf(acc, dps + 30)


def ref_r(v: list, order: int, n: int, dps: int) -> mpmath.mpf:
    """Transform of r_m = m (s_m / sqrt6 - 1) at n."""
    acc, lin = ZERO, Fraction(0)
    for k, w in enumerate(_weights(order, n)):
        acc = _add(acc, _scale(_s_core(v, n + k), w * (n + k)))
        lin += w * (n + k)
    with mpmath.workdps(dps + 30):
        return 2 * mpmath.pi / mpmath.sqrt(6) * to_mpf(acc, dps + 30) - lin


def ref_sminus1(row2: list, row3: list, n: int, order: int, dps: int) -> mpmath.mpf:
    """estimate_stokes("sminus1", n, order) evaluated exactly: the transform
    of (-1)^m [2 pi lam^m v_{m,2} / Gamma(m) - 3 sqrt6 brace_m] splits into
    two exact transforms combined once in floats."""
    width = (n + order) // 2
    lead, brace = ZERO, ZERO
    for k, w in enumerate(_weights(order, n)):
        m = n + k
        w = w if m % 2 == 0 else -w
        lead = _add(lead, _scale(_mul(_pow(LAMBDA, m), pair(row2[m])),
                                 w / factorial(m - 1)))
        b, prod, power = ZERO, Fraction(1), ONE
        for l in range(min(m // 2, width, m - 1) + 1):
            if l:
                prod *= m - l
                power = _mul(power, LAMBDA)
            b = _add(b, _scale(_mul(pair(row3[l]), power), 1 / prod))
        brace = _add(brace, _scale(b, w))
    with mpmath.workdps(dps + 30):
        return (2 * mpmath.pi * to_mpf(lead, dps + 30)
                - 3 * mpmath.sqrt(6) * to_mpf(brace, dps + 30))


def _brace(row: list, lam, n: int, L: int):
    acc, power, prod = pair(row[0]), ONE, Fraction(1)
    for l in range(1, L + 1):
        power = _mul(power, lam)
        prod *= n - l
        acc = _add(acc, _scale(_mul(pair(row[l]), power), 1 / prod))
    return acc


def ref_asym_vk(rows: list, k: int, n: int, L: int, dps: int) -> mpmath.mpf:
    """The large-n expansion of v_{n,k} truncated at L (k = 0 is asym_v),
    from the table rows k - 1 .. k + 1."""
    pref = _scale(_pow(LAMBDA_INV, n), Fraction(factorial(n - 1)))
    fwd = _scale(_mul(pref, _brace(rows[k + 1], LAMBDA, n, L)), Fraction(k + 1))
    with mpmath.workdps(dps + 30):
        val = to_mpf(fwd, dps + 30) * mpmath.sqrt(6) / (2 * mpmath.pi)
        if k >= 2:
            neg = (-LAMBDA[0], -LAMBDA[1])
            back = _scale(_mul(pref, _brace(rows[k - 1], neg, n, L)),
                          Fraction((k - 1) * (1 if n % 2 == 0 else -1)))
            val -= to_mpf(back, dps + 30) * mpmath.sqrt(6) / (24 * mpmath.pi)
        return val


def matched_digits(value, target, dps: int) -> int:
    with mpmath.workdps(dps):
        rel = abs(mpmath.mpf(value) / target - 1)
        if rel == 0:
            return dps
        return max(0, min(int(mpmath.floor(1 - mpmath.log10(2 * rel))), dps))


def close(value, ref, tol) -> bool:
    """|value / ref - 1| <= tol; value may be a printed string."""
    with mpmath.workdps(mpmath.mp.dps + 400):
        return abs(mpmath.mpf(value) - ref) <= tol * abs(ref)


class CheckError(AssertionError):
    """An output differs from its recorded digest or exact reference."""


class Checker:
    """Checks outputs; counts what it checked and what failed."""

    def __init__(self, digests: dict) -> None:
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, label: str, check) -> bool:
        """Run one check; True when it passed."""
        self.attempted += 1
        try:
            check()
        except Exception as exc:  # any failure of the output counts
            self.failed += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return False
        return True

    # exact values ---------------------------------------------------------

    def entries(self, table: str, values, start: int = 0) -> None:
        """values[i] must match the recorded digest of table[start + i]."""
        recorded = self.digests["tables"][table]
        if start + len(values) > len(recorded):
            raise CheckError(f"{table} beyond the recorded {len(recorded)} entries")
        for i, x in enumerate(values):
            if digest(str(x)) != recorded[start + i]:
                raise CheckError(f"{table}[{start + i}] differs from its digest")

    def cli_bytes(self, argv: list[str], text: str) -> None:
        key = " ".join(argv)
        recorded = self.digests["cli"].get(key)
        if recorded is None:
            raise CheckError(f"no digest recorded for {key!r}")
        if digest(text) != recorded:
            raise CheckError(f"output of {key!r} differs from its digest")

    def verified(self, table: str, values: list) -> list:
        """Reference inputs: the public table, digest-checked first."""
        self.entries(table, values)
        return values


# ---------------------------------------------------------------------------
# float fields of CLI output
# ---------------------------------------------------------------------------

def float_fields(argv: list[str], text: str) -> dict:
    """The printed values of a float-valued CLI request, by field."""
    cmd, fmt = argv[0], argv[argv.index("--format") + 1]
    if fmt == "json":
        vals = json.loads(text)["values"]
        if cmd == "richardson":
            return {"value": vals[0]}
        if cmd == "plotdata":
            return {"rows": vals}
        return vals
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
        if cmd == "richardson":
            return {"value": rows[0][2]}
        if cmd == "stokes":
            return {"estimate": rows[0][3], "matched_digits": rows[0][4]}
        if cmd == "asym":
            return {"exact": rows[0][2], "asym": rows[0][3], "rel_error": rows[0][4]}
        return {"rows": rows}
    lines = text.splitlines()[1:]  # after "# precision: P"
    if cmd == "richardson":
        return {"value": lines[0]}
    if cmd == "stokes":
        return {"estimate": lines[0].split("\t")[1],
                "matched_digits": lines[1].split()[1]}
    if cmd == "asym":
        return {name: line.split("\t")[1]
                for name, line in zip(("exact", "asym", "rel_error"), lines)}
    return {"rows": [line.split("\t") for line in lines]}
