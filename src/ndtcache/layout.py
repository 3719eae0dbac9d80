"""Each implemented scheme's layout and exact accounting, on the standard
library alone. The M = 1, K = 3 scheme at mu = 4/5 is its SymbolId tables,
the corner schemes the unicast schedule and the MISO user groups.
``accounting`` reads each scheme's (mu, ndt, per_ue_dof, rn_dof, sum_dof)
off them, for both ``bounds.achievable_catalog`` and the verifiers. A
receiver is a (kind, index) pair, kind "ue" or "rn"; "ue1" is its label.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

T_SLOTS = 8
NUM_FILES = 4
SYMBOLS_PER_FILE = 5


def _mbar3(a: int) -> int:
    """User or file index a (always 2..5 here) wrapped into [1:3]."""
    return a if a <= 3 else a - 3


@dataclass(frozen=True, order=True)
class SymbolId:
    """Symbol j of file i, written eta_{i,j}."""

    file: int
    index: int

    def __post_init__(self) -> None:
        if not 1 <= self.file <= NUM_FILES:
            raise ValueError(f"file must be in [1:{NUM_FILES}], got {self.file}")
        if not 1 <= self.index <= SYMBOLS_PER_FILE:
            raise ValueError(f"index must be in [1:{SYMBOLS_PER_FILE}], got {self.index}")


# The scheme's layout, stated once. Users 1..3 request files 1..3, the
# relay file 4, and the relay caches indices 1..4 of every file (4/5 of
# it). TRANSMITTED_SYMBOLS, the column order of every matrix, are the 15
# symbols of files 1..3 and the relay's one uncached symbol eta_{4,5}. The
# base station sends all but index 4; the relay sends what it has cached.
RN_CACHED: frozenset[SymbolId] = frozenset(
    SymbolId(i, j) for i in range(1, NUM_FILES + 1) for j in range(1, 5)
)
TRANSMITTED_SYMBOLS: tuple[SymbolId, ...] = tuple(
    SymbolId(i, j) for i in range(1, 4) for j in range(1, 6)
) + (SymbolId(4, 5),)
DENB_SYMBOLS: tuple[SymbolId, ...] = tuple(s for s in TRANSMITTED_SYMBOLS if s.index != 4)
RN_SYMBOLS: tuple[SymbolId, ...] = tuple(s for s in TRANSMITTED_SYMBOLS if s in RN_CACHED)
# the relay's unknowns once it cancels what it has cached
UNCACHED: tuple[SymbolId, ...] = tuple(s for s in DENB_SYMBOLS if s not in RN_CACHED)
# At user k (file indices wrapped into [1:3]): three zero-forced symbols,
# and the other eight interfering symbols in three alignment groups, one
# per chain layer. The index-4 symbols link layers 1 and 2 across users,
# the index-5 symbols layers 2 and 3.
ZERO_FORCED: dict[int, tuple[SymbolId, ...]] = {
    k: (SymbolId(_mbar3(k + 1), 1), SymbolId(_mbar3(k + 1), 2), SymbolId(_mbar3(k + 2), 3))
    for k in (1, 2, 3)
}
ALIGNMENT_GROUPS: dict[int, tuple[tuple[SymbolId, ...], ...]] = {
    k: (
        (SymbolId(4, 5), SymbolId(_mbar3(k + 1), 4)),
        (SymbolId(_mbar3(k + 2), 4), SymbolId(_mbar3(k + 2), 2), SymbolId(_mbar3(k + 1), 5)),
        (SymbolId(_mbar3(k + 2), 5), SymbolId(_mbar3(k + 2), 1), SymbolId(_mbar3(k + 1), 3)),
    )
    for k in (1, 2, 3)
}


def receivers(M: int, K: int) -> tuple[tuple[str, int], ...]:
    """Users then relays, ("ue", 1..K) and ("rn", 1..M)."""
    return tuple(("ue", u) for u in range(1, K + 1)) + tuple(("rn", r) for r in range(1, M + 1))


def unicast_schedule(cfg) -> tuple[tuple[str, int], ...]:
    """The receivers served one per slot, users then relays (see
    receivers): each of the K + M worst-case demands is a distinct file, so
    the NDT is the slot count. Only valid at mu = 0 (cfg a NetworkConfig)."""
    if cfg.mu != 0:
        raise ValueError(f"unicast schedule applies at mu = 0 only, got mu = {cfg.mu}")
    return receivers(cfg.M, cfg.K)


def user_groups(M: int, K: int) -> tuple[tuple[int, ...], ...]:
    """Users 1..K in consecutive groups of at most M + 1, one per slot."""
    return tuple(tuple(range(u, min(u + M + 1, K + 1))) for u in range(1, K + 1, M + 1))


def miso_ndt_and_dof(groups: tuple[tuple[int, ...], ...]) -> tuple[Fraction, int]:
    """NDT and sum DoF of zero-forcing over ``groups`` (user_groups'
    output). The largest group, min(M + 1, K) users, is served at once: the
    sum DoF is its size and the NDT is K over it, which is max{K/(M+1), 1}."""
    served = max(map(len, groups))
    return Fraction(sum(map(len, groups)), served), served


def accounting(M: int, K: int) -> dict[str, tuple[Fraction, ...]]:
    """Each implemented scheme at (M, K), by catalog label: its exact
    (mu, ndt, per_ue_dof, rn_dof, sum_dof), read off its layout. Unicast
    serves a receiver a slot; MISO zero-forcing its largest group at once,
    the relays nothing. The (1, 3) relay caches RN_CACHED, its share of the
    files; in T_SLOTS slots each user decodes a file's SYMBOLS_PER_FILE
    symbols and the relay its own file's uncached ones."""
    slot = Fraction(1, len(receivers(M, K)))
    ndt, served = miso_ndt_and_dof(user_groups(M, K))
    schemes = {"unicast": (Fraction(0), 1 / slot, slot, slot, Fraction(1)),
               "miso-zf": (Fraction(1), ndt, Fraction(served, K), Fraction(0), Fraction(served))}
    if (M, K) == (1, 3):
        schemes["zf-ia-m1k3"] = (
            Fraction(len(RN_CACHED), NUM_FILES * SYMBOLS_PER_FILE),
            Fraction(T_SLOTS, SYMBOLS_PER_FILE), Fraction(SYMBOLS_PER_FILE, T_SLOTS),
            Fraction(sum(s.file == NUM_FILES for s in TRANSMITTED_SYMBOLS), T_SLOTS),
            Fraction(len(TRANSMITTED_SYMBOLS), T_SLOTS))
    return schemes
