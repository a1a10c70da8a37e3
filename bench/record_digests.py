"""Record the digests that bench_refs checks exact outputs against.

Run from the repository root at a commit whose exact outputs are trusted:

    PYTHONPATH=src python3 bench/record_digests.py

It writes bench/digests.json: a 16-hex-digit SHA-256 of str() of every
table entry (recursion tables, quadrangulation counts, v_plus/v_minus
coefficients) up to the largest index any workload reads, and of the bytes
of every exact-valued CLI request a session can send, at either scale.
"""

import contextlib
import io
import json
import sys

import crosscap
import crosscap.cli

import bench_plan
from bench_refs import DIGESTS_PATH, digest

# Last index of each table that any workload, at any seed, reads.
TABLE_TOPS = {"u": 202, "v": 282, "nu": 132, "vk2": 132, "vk3": 132}
QUAD_TOP = 182  # quadrangulation counts for n = 1 .. QUAD_TOP
VPM_TOP = 32    # v_plus / v_minus coefficients of t^0 .. t^VPM_TOP


def main() -> int:
    tops = TABLE_TOPS
    vk = crosscap.vk_table(tops["vk3"], 3)
    plus, minus = crosscap.vpm_series(VPM_TOP)
    tables = {
        "u": crosscap.u_seq(tops["u"]),
        "v": crosscap.v_seq(tops["v"]),
        "nu": crosscap.nu_seq(tops["nu"]),
        "vk2": vk.row(2),
        "vk3": vk.row(3),
        "quad": crosscap.quadrangulation_counts(QUAD_TOP),
        "vpm_plus": [plus.coefficient(e) for e in range(VPM_TOP + 1)],
        "vpm_minus": [minus.coefficient(e) for e in range(VPM_TOP + 1)],
    }

    cli = {}
    for argv in (a for scale in bench_plan.SCALES for a in bench_plan.exact_grid(scale)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = crosscap.cli.run(argv)
        assert code == 0, argv
        cli[" ".join(argv)] = digest(out.getvalue())

    doc = {"tables": {name: [digest(str(x)) for x in values]
                      for name, values in tables.items()},
           "cli": cli}
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {DIGESTS_PATH}: {sum(map(len, doc['tables'].values()))} "
          f"table entries, {len(cli)} CLI requests", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
