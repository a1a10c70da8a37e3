"""Exact sequences, trans-series, and high-precision asymptotics for
counting rooted maps on non-orientable surfaces."""

__version__ = "0.1.0"

from .exactnum import (DEFAULT_DPS, QF3, SQRT3, SymConst, GammaPoleError,
                       SymbolicConstantError, rational_to_float)
from .series import Series, SeriesError
from .sequences import (intersection_number, p_of_g, t_of_g, u_seq, v_seq)
from .transseries import (VkTable, mu_seq, nu_seq, seed_v0k, vk_table,
                          vpm_series)
from .asymptotics import (HALF_ACTION, INSTANTON_ACTION, asym_u, asym_v,
                          asym_vk, relative_error)
from .extrapolation import (FloatSeq, PrecisionWarning, RichardsonResult,
                            StokesEstimate, estimate_stokes, matched_digits,
                            probe_richardson, r_seq, richardson, s_seq,
                            convergence_rows)
from .specgeom import (SpectralCurveError, alpha2_series,
                       quadrangulation_counts, rp2_correlator_series,
                       x02_series)

__all__ = [
    "DEFAULT_DPS", "QF3", "SQRT3", "SymConst", "GammaPoleError",
    "SymbolicConstantError", "rational_to_float",
    "Series", "SeriesError",
    "u_seq", "v_seq", "t_of_g", "p_of_g", "intersection_number",
    "VkTable", "mu_seq", "nu_seq", "seed_v0k", "vk_table", "vpm_series",
    "INSTANTON_ACTION", "HALF_ACTION", "asym_u", "asym_v", "asym_vk",
    "relative_error",
    "FloatSeq", "PrecisionWarning", "RichardsonResult", "StokesEstimate",
    "estimate_stokes", "matched_digits", "r_seq", "richardson", "s_seq",
    "convergence_rows", "probe_richardson",
    "SpectralCurveError", "alpha2_series", "quadrangulation_counts",
    "rp2_correlator_series", "x02_series",
]
