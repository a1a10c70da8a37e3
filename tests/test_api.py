import crosscap
from crosscap import (asymptotics, cli, exactnum, extrapolation, series,
                      transseries)
from crosscap.series import Series

REMOVED = {
    crosscap: ("AsymParams", "const_pi", "const_sqrt2", "const_sqrt3",
               "const_sqrt6", "TransseriesError"),
    asymptotics: ("AsymParams", "gamma_exact_half"),
    cli: ("_PLOT_TEXT", "_plot_text"),
    transseries: ("TransseriesError",),
    extrapolation: ("_transform",),
    exactnum: ("const_pi", "const_sqrt2", "const_sqrt3", "const_sqrt6",
               "RationalLike", "sqrt_fraction"),
    series: ("_field_inverse",),
    Series: ("inverse", "sqrt", "__truediv__", "__rtruediv__"),
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
