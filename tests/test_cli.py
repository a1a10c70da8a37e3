import ast
import csv
import io
import json
import os
import subprocess
import sys
from unittest.mock import patch

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import crosscap
from crosscap import cli
from crosscap.asymptotics import asym_vk, relative_error
from crosscap.cli import build_parser, run
from crosscap.exactnum import SymConst, _nstr
from crosscap.extrapolation import probe_richardson
from crosscap.transseries import vk_table


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_seq_v_json_values(capsys):
    code, out, _ = invoke(capsys, "seq", "v", "--n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "seq"
    assert doc["values"] == ["-1√3", "1/4", "5/48√3", "25/96"]


def test_seq_u_table(capsys):
    code, out, _ = invoke(capsys, "seq", "u", "--n", "2")
    assert code == 0
    assert out.splitlines() == ["0\t1", "1\t-1/48", "2\t-49/4608"]


def test_seq_float_column(capsys):
    code, out, _ = invoke(capsys, "seq", "u", "--n", "1", "--float", "30",
                          "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == '"index","exact","float[dps=30]"'
    assert lines[1].startswith('1,"1"') or lines[1].startswith('0,"1"')


def test_seq_p_symbolic_float_is_blank(capsys):
    code, out, _ = invoke(capsys, "seq", "p", "--n", "1", "--float", "30")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# precision: 30"
    assert lines[1].split("\t")[2] == ""


def test_quad_table_line(capsys):
    code, out, _ = invoke(capsys, "quad", "--n", "7")
    assert code == 0
    assert out.strip() == "5 38 331 3098 30330 306276 3163737"


def test_quad_json(capsys):
    code, out, _ = invoke(capsys, "quad", "--n", "3", "--format", "json")
    doc = json.loads(out)
    assert doc["values"] == [5, 38, 331]


def test_intersect(capsys):
    code, out, _ = invoke(capsys, "intersect", "--g", "2")
    assert code == 0
    assert out.strip() == "7/240"


def test_intersect_domain_error_exit_1(capsys):
    code, _, err = invoke(capsys, "intersect", "--g", "1")
    assert code == 1
    assert "crosscap:" in err


def test_stokes_sprime_output(capsys):
    code, out, _ = invoke(capsys, "stokes", "--which", "sprime",
                          "--n", "60", "--order", "8", "--prec", "60")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# precision: 60"
    assert lines[1].startswith("estimate\t2.4494897")
    assert "digits of sqrt(6)" in lines[2]
    digits = int(lines[2].split()[1])
    assert digits >= 8


def test_richardson_cli(capsys):
    code, out, _ = invoke(capsys, "richardson", "--target", "r",
                          "--n", "40", "--order", "5", "--prec", "40")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# precision: 40"
    assert lines[1].startswith("-0.200000")


def test_vpm_cli(capsys):
    code, out, _ = invoke(capsys, "vpm", "--order", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["values"]["plus"][0] == "1/6√3"
    assert doc["values"]["minus"][0] == "1"


def test_transseries_cli(capsys):
    code, out, _ = invoke(capsys, "transseries", "--k", "2", "--n", "1",
                          "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == '"k","n","exact"'
    assert len(lines) == 1 + 3 * 2


def test_asym_cli(capsys):
    code, out, _ = invoke(capsys, "asym", "v", "--n", "50", "--trunc", "2",
                          "--prec", "40", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["precision"] == 40
    assert float(doc["values"]["rel_error"]) < 1e-4


def test_asym_vk_cli(capsys):
    code, out, _ = invoke(capsys, "asym", "vk", "--k", "2", "--n", "60",
                          "--trunc", "3", "--prec", "60", "--format", "json")
    assert code == 0
    exact = vk_table(60, 2).value(60, 2)
    approx = asym_vk(2, 60, 3, 60)
    assert json.loads(out)["values"] == {
        "exact": str(exact), "asym": _nstr(approx, 60),
        "rel_error": _nstr(relative_error(approx, exact, 60), 10)}


def test_plotdata_csv(capsys):
    code, out, _ = invoke(capsys, "plotdata", "unorquot", "--nmax", "8",
                          "--prec", "60", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == '"n","s0[dps=60]","s1[dps=60]","s5[dps=60]"'
    assert len(lines) == 9


CSV_TEXT = st.lists(st.sampled_from(
    ['"', ",", "\n", "\r", "√", "Γ(1/4)", "Γ(-3/4)", "-2", "1/24", " "]),
    max_size=6).map("".join)
CSV_INT = st.one_of(st.integers(), st.builds(
    lambda digits, lead: lead * 10 ** digits + 7,  # past 4300 digits
    st.integers(4300, 4400), st.integers(-9, 9)))
CSV_ROWS = st.lists(st.lists(st.one_of(CSV_INT, CSV_TEXT), max_size=5),
                    min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(CSV_ROWS)
def test_csv_text_matches_the_csv_module(table):
    header, *rows = table
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # as run() prints exact values
    try:
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_NONNUMERIC,
                            lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        assert cli._csv_text(header, iter(rows)) == buf.getvalue()
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("argv", [
    ["plotdata", "unorquot", "--nmax", "6", "--prec", "40"],
    ["seq", "u", "--n", "5"],
    ["seq", "t", "--n", "5", "--float", "40"],
])
def test_json_and_csv_build_no_table_lines(capsys, monkeypatch, argv):
    def refuse(rows):
        raise AssertionError("table lines built")

    monkeypatch.setattr(cli, "_tab_lines", refuse)
    for fmt in ("json", "csv"):
        assert invoke(capsys, *argv, "--format", fmt)[0] == 0
    with pytest.raises(AssertionError, match="table lines built"):
        run(argv)


def test_deterministic_output(capsys):
    one = invoke(capsys, "seq", "nu", "--n", "12", "--format", "json")
    two = invoke(capsys, "seq", "nu", "--n", "12", "--format", "json")
    assert one == two


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = invoke(capsys, "quad", "--n", "2", "--format", "json",
                          "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["values"] == [5, 38]
    code, _, err = invoke(capsys, "quad", "--n", "2",
                          "--output", str(tmp_path / "missing" / "out.txt"))
    assert code == 1
    assert err.startswith("crosscap: ") and err.count("\n") == 1


def test_usage_errors_exit_2(capsys):
    assert invoke(capsys, "nosuchcommand")[0] == 2
    assert invoke(capsys, "seq", "u", "--n", "notanint")[0] == 2
    assert invoke(capsys, "seq", "u", "--n", "3", "--prec", "10")[0] == 2
    assert invoke(capsys, "seq", "u", "--n", "3", "--float", "5")[0] == 2
    # out-of-domain sizes are rejected by the parser, before any work
    assert invoke(capsys, "seq", "u", "--n", "-1")[0] == 2
    assert invoke(capsys, "transseries", "--k", "-1", "--n", "3")[0] == 2
    assert invoke(capsys, "transseries", "--k", "1", "--n", "-1")[0] == 2
    assert invoke(capsys, "vpm", "--order", "-1")[0] == 2
    assert invoke(capsys, "vpm", "--order", "0")[0] == 2
    assert invoke(capsys, "asym", "v", "--n", "0", "--trunc", "0")[0] == 2
    assert invoke(capsys, "asym", "v", "--n", "3", "--trunc", "-1")[0] == 2
    assert invoke(capsys, "quad", "--n", "0")[0] == 2
    assert invoke(capsys, "asym", "vk", "--k", "-1", "--n", "5",
                  "--trunc", "1")[0] == 2
    # the checks after parsing report through the subcommand's usage
    checked = [(("seq", "p", "--n", "0"), "seq",
                "argument --n: must be at least 1 for p"),
               (("asym", "vk", "--n", "5", "--trunc", "1"), "asym",
                "argument --k: required for vk")]
    # a sector only vk reads
    checked += [(("asym", name, "--n", "5", "--trunc", "1", "--k", "7",
                  "--format", "json"), "asym", "argument --k: only for vk")
                for name in ("u", "v")]
    for argv, command, message in checked:
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"usage: crosscap {command} [-h]"), argv
        assert f"crosscap {command}: error: {message}\n" in err, argv


def test_env_default_precision(capsys, monkeypatch):
    # read on every call: one process sees each value in turn
    seen = []
    for raw in ("31", "45", None):
        if raw is None:
            monkeypatch.delenv("CROSSCAP_PREC")
        else:
            monkeypatch.setenv("CROSSCAP_PREC", raw)
        code, out, _ = invoke(capsys, "asym", "v", "--n", "20", "--trunc", "1",
                              "--format", "json")
        assert code == 0
        seen.append(json.loads(out)["precision"])
    assert seen == [31, 45, 200]


def test_quad_plain_list(capsys):
    code, out, _ = invoke(capsys, "quad", "--n", "4", "--plain")
    assert code == 0
    assert out.splitlines() == ["5", "38", "331", "3098"]


def test_asym_csv_header_carries_precision(capsys):
    code, out, _ = invoke(capsys, "asym", "u", "--n", "10", "--trunc", "0",
                          "--prec", "40", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == '"n","trunc","exact","asym[dps=40]","rel_error"'


def test_transseries_json_rows(capsys):
    code, out, _ = invoke(capsys, "transseries", "--k", "2", "--n", "0",
                          "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["values"] == [["-1\u221a3"], ["1"], ["-1/6\u221a3"]]


def test_transform_domain_is_a_usage_error(capsys):
    for argv in (("richardson", "--target", "s", "--n", "0", "--order", "2"),
                 ("richardson", "--target", "r", "--n", "5", "--order", "-1"),
                 ("stokes", "--which", "sprime", "--n", "0"),
                 ("stokes", "--which", "sminus1", "--order", "-2"),
                 ("plotdata", "unorquot", "--nmax", "0"),
                 ("plotdata", "firstcorr", "--nmax", "-4")):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "must be at least" in err, argv


QUAD_USAGE = ("usage: crosscap quad [-h] [--format {table,json,csv}] [--output PATH]\n"
              "                     [--prec PREC] --n N [--plain]\n")


def test_bad_env_precision_is_a_usage_error(capsys, monkeypatch):
    # reported by the subcommand's parser as a bad --prec value, in the
    # words argparse used when CROSSCAP_PREC was --prec's default
    monkeypatch.setenv("COLUMNS", "80")
    for raw, message in (("abc", "invalid int value: 'abc'"),
                         ("", "invalid int value: ''"),
                         ("12.5", "invalid int value: '12.5'"),
                         ("10", "must be at least 30")):
        monkeypatch.setenv("CROSSCAP_PREC", raw)
        code, out, err = invoke(capsys, "quad", "--n", "3")
        assert (code, out) == (2, ""), raw
        assert err == QUAD_USAGE + \
            f"crosscap quad: error: argument --prec: {message}\n", raw


def test_parser_is_built_once(capsys, monkeypatch):
    monkeypatch.setenv("CROSSCAP_PREC", "31")
    build_parser.cache_clear()
    for _ in range(20):
        assert invoke(capsys, "intersect", "--g", "2")[0] == 0
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 19)
    # and left as built: no run() has set a --prec default on it
    assert build_parser().parse_args(["intersect", "--g", "2"]).prec is None


def test_explicit_prec_wins_over_bad_env(capsys, monkeypatch):
    monkeypatch.setenv("CROSSCAP_PREC", "abc")
    code, out, err = invoke(capsys, "asym", "v", "--n", "20", "--trunc", "1",
                            "--prec", "40", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["precision"] == 40


def test_bugs_propagate_and_domain_errors_exit_1(capsys, monkeypatch):
    def bug(args, dps):
        raise TypeError("a bug")

    def domain(args, dps):
        raise ValueError("out of domain")

    limit = sys.get_int_max_str_digits()
    monkeypatch.setitem(cli._HANDLERS, "intersect", bug)
    with pytest.raises(TypeError, match="a bug"):
        run(["intersect", "--g", "2"])
    assert sys.get_int_max_str_digits() == limit
    monkeypatch.setitem(cli._HANDLERS, "intersect", domain)
    assert invoke(capsys, "intersect", "--g", "2") == \
        (1, "", "crosscap: out of domain\n")


def test_richardson_cli_prints_the_exact_transform(capsys):
    # order 12 at n = 60 cancels ~14 digits, so a transform of s_n rounded
    # to 40 digits would print wrong trailing digits here
    code, out, _ = invoke(capsys, "richardson", "--target", "s",
                          "--n", "60", "--order", "12", "--prec", "40")
    assert code == 0
    value = probe_richardson("s", 12, 60, 40).value
    assert out.splitlines()[1] == mpmath.nstr(value, 40, strip_zeros=True)


def test_exact_values_past_the_int_string_limit(capsys):
    # u_128 is the first u_n with more than 640 digits, the lowest limit
    # Python accepts; the CLI prints it and leaves the limit as it was
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = invoke(capsys, "seq", "u", "--n", "130")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 131
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("name", ["t", "p"])
def test_repeated_seq_prints_the_cached_text(capsys, name):
    # t_g and p_g are printed once per process, into their tables' entries:
    # a repeat formats no SymConst
    first = invoke(capsys, "seq", name, "--n", "60")
    assert first[0] == 0
    with patch.object(SymConst, "__str__",
                      side_effect=AssertionError("printed again")):
        assert invoke(capsys, "seq", name, "--n", "60") == first


# modules that only the float commands may load
FLOAT_ONLY = {"mpmath", "dataclasses", "inspect"}


def fresh_run(*argvs) -> tuple:
    """Run each argv through cli.run in one new interpreter: its stdout
    lines, and the FLOAT_ONLY modules loaded before importing crosscap and
    at the end."""
    script = (
        "import sys\n"
        f"before = sorted(set(sys.modules) & {FLOAT_ONLY!r})\n"
        "import crosscap, crosscap.cli\n"
        f"for argv in {list(argvs)!r}:\n"
        "    assert crosscap.cli.run(argv) == 0\n"
        f"print(repr((before, sorted(set(sys.modules) & {FLOAT_ONLY!r}))))\n")
    src = os.path.dirname(os.path.dirname(crosscap.__file__))
    env = {k: v for k, v in os.environ.items() if k != "CROSSCAP_PREC"}
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    return out[:-1], *ast.literal_eval(out[-1])


def test_exact_commands_never_import_mpmath():
    out, before, after = fresh_run(["seq", "v", "--n", "3"],
                                   ["quad", "--n", "7"],
                                   ["transseries", "--k", "3", "--n", "4"])
    if before:
        pytest.skip(f"loaded at interpreter start: {before}")
    assert len(out) == 4 + 1 + 4
    assert after == []


SMINUS1_30_6 = [
    "# precision: 200",
    "estimate\t-0.20340595462492433184962939254311406653749712423401138024901"
    "468926026678260883427149644039134181756388551969145630329680281220041525"
    "577599083921499165536723378588431970819125067315369480416439284922831",
    "matched 3 digits of -sqrt(6)/12"]


def test_float_command_loads_mpmath_and_prints_the_same_bytes():
    out, _, after = fresh_run(["stokes", "--which", "sminus1", "--n", "30",
                               "--order", "6"])
    assert out == SMINUS1_30_6
    assert "mpmath" in after
