import copy
import pickle
from fractions import Fraction

import mpmath
import pytest

import crosscap
from crosscap import (HALF_ACTION, INSTANTON_ACTION, SQRT3, FloatSeq, QF3,
                      SymConst, asym_u, asym_v, asymptotics, cli,
                      estimate_stokes, exactnum, extrapolation,
                      matched_digits, nu_seq, p_of_g, probe_richardson,
                      rational_to_float, relative_error, richardson,
                      sequences, series, t_of_g, transseries, v_seq,
                      vk_table, vpm_series)
from crosscap.series import Series

REMOVED = {
    crosscap: ("AsymParams", "const_pi", "const_sqrt2", "const_sqrt3",
               "const_sqrt6", "TransseriesError", "gamma_half_integer"),
    asymptotics: ("AsymParams", "gamma_exact_half"),
    cli: ("_PLOT_TEXT", "_plot_text"),
    transseries: ("TransseriesError",),
    extrapolation: ("_transform",),
    exactnum: ("const_pi", "const_sqrt2", "const_sqrt3", "const_sqrt6",
               "RationalLike", "sqrt_fraction", "gamma_half_integer"),
    QF3: ("as_dict", "conjugate"),
    SymConst: ("as_dict", "normalized"),
    series: ("_field_inverse", "_is_scalar", "_over_qf3", "_scale",
             "_convolve", "_unscale"),
    Series: ("inverse", "sqrt", "__truediv__", "__rtruediv__", "from_terms",
             "truncate", "shift", "_scalar_series", "__add__", "__radd__",
             "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__"),
}


def test_all_names_resolve_once():
    assert len(crosscap.__all__) == len(set(crosscap.__all__))
    for name in crosscap.__all__:
        assert hasattr(crosscap, name), name


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)
            assert name not in getattr(module, "__all__", ())


# one call per public function that returns or compares floats at dps digits
FLOAT_ENTRY_POINTS = {
    "rational_to_float": lambda dps: rational_to_float(Fraction(1, 3), dps),
    "QF3.to_float": lambda dps: QF3(1, 1).to_float(dps),
    "SymConst.to_float": lambda dps: SymConst(3, rad2=1).to_float(dps),
    "asym_u": lambda dps: asym_u(20, 2, dps),
    "asym_v": lambda dps: asym_v(20, 2, dps),
    "relative_error": lambda dps: relative_error(mpmath.mpf(2), 3, dps),
    "probe_richardson": lambda dps: probe_richardson("s", 2, 10, dps),
    "estimate_stokes": lambda dps: estimate_stokes("sprime", 10, 2, dps),
    "richardson": lambda dps: richardson(
        FloatSeq(1, tuple(map(mpmath.mpf, range(1, 6))), dps), 2, 1),
    "matched_digits": lambda dps: matched_digits(mpmath.mpf(2),
                                                 mpmath.mpf(2), dps),
}


@pytest.mark.parametrize("dps", [0, -3])
@pytest.mark.parametrize("name", sorted(FLOAT_ENTRY_POINTS))
def test_float_entry_points_reject_dps_below_one(name, dps, monkeypatch):
    # before any table is read, let alone grown
    def grown(table, n):
        raise AssertionError("a table was read before dps was checked")
    monkeypatch.setattr(sequences.Table, "grown", grown)
    with pytest.raises(ValueError, match="dps must be >= 1"):
        FLOAT_ENTRY_POINTS[name](dps)


def test_returned_values_pickle_and_copy():
    table = vk_table(30, 3)
    rows = [v_seq(40), nu_seq(40), *map(table.row, range(4)),
            [t_of_g(g) for g in range(11)], [p_of_g(g) for g in range(1, 11)],
            [SQRT3, HALF_ACTION, INSTANTON_ACTION]]
    for value in [*rows, *vpm_series(20), *(x for row in rows for x in row)]:
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                      copy.deepcopy(value)):
            assert clone == value and type(clone) is type(value), value
    clone = pickle.loads(pickle.dumps(table))
    assert [clone.row(k) for k in range(4)] == [table.row(k) for k in range(4)]


def test_cached_values_cannot_be_deleted_from():
    before = [(x.a, x.b) for x in v_seq(3)]
    with pytest.raises(AttributeError):
        del v_seq(3)[3].a
    assert [(x.a, x.b) for x in v_seq(3)] == before
