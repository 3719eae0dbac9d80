"""Delivery-time bounds and precoding schemes for transceiver cache-aided
networks: exact rational NDT lower bounds and tradeoff curves, executable
corner schemes (unicast, MISO zero-forcing), the combined zero-forcing /
subspace-alignment scheme for one relay and three users, and a seeded
numerical verification harness.
"""

__version__ = "0.1.0"

from .bounds import (
    CHARACTERIZED,
    AchievablePoint,
    NdtCurve,
    UncharacterizedConfigError,
    achievable_catalog,
    lower_bound,
    lower_bound_curve,
    memory_sharing_envelope,
    optimal_ndt,
    optimal_ndt_curve,
)
from .corner import miso_zf_plan, unicast_schedule
from .model import ChannelSet, NetworkConfig, as_rational
from .scheme_m1k3 import (
    SymbolId,
    effective_channel_matrix,
    rn_cache_cancel,
    solve_precoders,
)
from .verify import (
    RateEstimate,
    SubspaceReport,
    VerificationFailure,
    VerificationReport,
    draw_channels,
    finite_snr_rates,
    rank_with_gap,
    verify_corner,
    verify_m1k3,
)

__all__ = [
    "__version__",
    "AchievablePoint",
    "CHARACTERIZED",
    "ChannelSet",
    "NdtCurve",
    "NetworkConfig",
    "RateEstimate",
    "SubspaceReport",
    "SymbolId",
    "UncharacterizedConfigError",
    "VerificationFailure",
    "VerificationReport",
    "achievable_catalog",
    "as_rational",
    "draw_channels",
    "effective_channel_matrix",
    "finite_snr_rates",
    "lower_bound",
    "lower_bound_curve",
    "memory_sharing_envelope",
    "miso_zf_plan",
    "optimal_ndt",
    "optimal_ndt_curve",
    "rank_with_gap",
    "rn_cache_cancel",
    "solve_precoders",
    "unicast_schedule",
    "verify_corner",
    "verify_m1k3",
]
