"""Exact outputs replayed against the digests the benchmark records.

``bench/digests.json`` holds a 16-hex-digit SHA-256 of str() of every
table entry the benchmark reads and of the stdout bytes of every
exact-valued CLI request a session can send.  Every one must still match,
so exact values and default CLI output stay byte-identical.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import crosscap
from crosscap.cli import run

DIGESTS = json.loads((Path(__file__).parents[1] / "bench" / "digests.json")
                     .read_text(encoding="utf-8"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def tables() -> dict:
    top = {name: len(values) - 1 for name, values in DIGESTS["tables"].items()}
    vk = crosscap.vk_table(top["vk3"], 3)
    plus, minus = crosscap.vpm_series(top["vpm_plus"])
    return {
        "u": crosscap.u_seq(top["u"]),
        "v": crosscap.v_seq(top["v"]),
        "nu": crosscap.nu_seq(top["nu"]),
        "vk2": vk.row(2),
        "vk3": vk.row(3),
        "quad": crosscap.quadrangulation_counts(top["quad"] + 1),
        "vpm_plus": plus.coefficients(0, top["vpm_plus"]),
        "vpm_minus": minus.coefficients(0, top["vpm_minus"]),
    }


def test_table_entries_match_their_digests():
    built = tables()
    assert sorted(built) == sorted(DIGESTS["tables"])
    for name, recorded in DIGESTS["tables"].items():
        assert [digest(str(x)) for x in built[name]] == recorded, name


def test_cli_requests_match_their_digests():
    assert len(DIGESTS["cli"]) == 153
    mismatched = []
    for key, recorded in DIGESTS["cli"].items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(key.split(" ")) == 0, key
        if digest(out.getvalue()) != recorded:
            mismatched.append(key)
    assert mismatched == []
