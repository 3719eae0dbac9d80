"""Combined zero-forcing / subspace-alignment delivery scheme for one relay
and three users at cache size mu = 4/5.

Every file is split into 5 symbols; the relay caches the first 4 symbols of
every file. With users 1..3 requesting files 1..3 and the relay requesting
file 4, the 16 symbols that need the air are the 15 symbols of files 1..3
plus the relay's single uncached symbol eta_{4,5}. Per slot, scalar
precoders (nu at the base station, beta at the relay) are chosen so that at
each user

  * three interfering symbols are zero-forced outright, and
  * the remaining eight interfering symbols collapse into three alignment
    groups (one per chain layer), i.e. three receive dimensions,

leaving 5 clean dimensions for the 5 desired symbols inside T = 8 slots.
This module states that fixed layout once, as module tables with their
integer column forms, and solves the per-slot precoders.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DEGENERACY_TOL, check_tol

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

# Integer forms of the layout, so the checks index arrays instead of
# hashing SymbolIds. Row k - 1 belongs to user k; the relay's positions
# count among its DENB_SYMBOLS columns.
COLUMN: dict[SymbolId, int] = {s: n for n, s in enumerate(TRANSMITTED_SYMBOLS)}
DESIRED_COLS = np.array([[COLUMN[SymbolId(k, j)] for j in range(1, SYMBOLS_PER_FILE + 1)]
                         for k in (1, 2, 3)])
INTERFERENCE_COLS = np.array([[COLUMN[s] for s in TRANSMITTED_SYMBOLS if s.file != k]
                              for k in (1, 2, 3)])
ZERO_FORCED_COLS = np.array([[COLUMN[s] for s in ZERO_FORCED[k]] for k in (1, 2, 3)])
ALIGNED_COLS = [[np.array([COLUMN[s] for s in group]) for group in ALIGNMENT_GROUPS[k]]
                for k in (1, 2, 3)]
DENB_COLS = np.array([COLUMN[s] for s in DENB_SYMBOLS])
RN_CACHED_POS = np.array([n for n, s in enumerate(DENB_SYMBOLS) if s in RN_CACHED])
UNCACHED_POS = np.array([DENB_SYMBOLS.index(s) for s in UNCACHED])
ETA45 = UNCACHED.index(SymbolId(4, 5))  # eta_{4,5}'s place among UNCACHED


def solve_precoders(g: np.ndarray, h: np.ndarray, tol: float = DEGENERACY_TOL):
    """Solve all per-slot precoders of the mu = 4/5 scheme.

    g and h (..., T_SLOTS, 3) hold the users' base-station and relay
    coefficients; leading axes are a batch of draws, and one draw has
    none. Returns (nu, beta, scale, slot_scale, degenerate) with the batch
    axes in front: column c of nu and beta (..., T_SLOTS, 16) holds the
    precoders of TRANSMITTED_SYMBOLS[c]. nu is zero for relay-only symbols
    (index 4), beta for base-station-only ones (index 5).

    Each slot is independent. Writing g_k, h_k for the slot's user-k
    coefficients from base station and relay:

    1. nu of eta_{4,5} is fixed to the product
       j13*j23*j33 * g1*g2*g3 * h1*h2*h3 with
       j13 = g2 h3 - g3 h2, j23 = g3 h1 - g1 h3, j33 = g1 h2 - g2 h1.
    2. Layer-1 alignment at user k pins the relay precoder of
       eta_{k+1,4} to nu_{4,5} g_k / h_k.
    3. Layer 2 at user k pins nu of eta_{k+1,5} to beta_{k+2,4} h_k / g_k
       and determines (nu, beta) of eta_{k+2,2} from the 2x2 system that
       pairs the layer equality with that symbol's ZF condition.
    4. Layer 3 likewise determines (nu, beta) of eta_{k+2,1} and of
       eta_{k+1,3} against the now-known nu of the index-5 symbols.
    5. Normalize. The raw chain inherits the product nu_{4,5}, whose
       magnitude swings over many orders across slots, so first every
       slot is multiplied by slot_scale, a common positive factor (the
       whole chain is linear in nu_{4,5}[t], hence all per-slot ZF and
       alignment equalities survive verbatim), then each symbol by scale,
       one positive factor uniform across slots, so its peak precoder
       magnitude is 1. The per-symbol step keeps zero-forced entries
       exactly zero and alignment groups colinear, though the literal
       per-slot equalities then only hold for the raw chain,
       nu / (slot_scale[..., None] * scale[..., None, :]), and for beta.

    The 2x2 determinants all coincide with +-j terms, so a draw with a j
    term of magnitude below tol (relative to the squared slot channel
    scale) is degenerate; so is one with a channel coefficient below tol
    relative to the slot scale, since steps 2-3 divide by g_k and h_k.
    ``degenerate`` (the batch shape) flags those draws; their other
    outputs are meaningless.
    """
    check_tol(tol)
    g, h = np.asarray(g), np.asarray(h)
    if g.shape[-2:] != (T_SLOTS, 3) or g.shape != h.shape:
        raise ValueError(f"g and h must both have shape (..., {T_SLOTS}, 3), "
                         f"got {g.shape} and {h.shape}")
    gk = {k: g[..., k - 1] for k in (1, 2, 3)}
    hk = {k: h[..., k - 1] for k in (1, 2, 3)}
    j13 = gk[2] * hk[3] - gk[3] * hk[2]
    j23 = gk[3] * hk[1] - gk[1] * hk[3]
    j33 = gk[1] * hk[2] - gk[2] * hk[1]
    # determinant of the (alignment at UE a, ZF at UE b) system
    det = {(1, 2): j33, (2, 3): j13, (3, 1): j23,
           (2, 1): -j33, (3, 2): -j13, (1, 3): -j23}

    chan_scale = np.max(np.abs(np.concatenate([g, h], axis=-1)), axis=-1)
    degenerate = np.zeros(g.shape[:-2], dtype=bool)
    for j in (j13, j23, j33):
        degenerate |= np.any(np.abs(j) < tol * chan_scale**2, axis=-1)
    small = tol * chan_scale[..., None]
    degenerate |= np.any((np.abs(g) < small) | (np.abs(h) < small), axis=(-2, -1))

    n = len(TRANSMITTED_SYMBOLS)
    nu = np.zeros(g.shape[:-1] + (n,), dtype=complex)
    beta = np.zeros_like(nu)
    with np.errstate(all="ignore"):  # degenerate draws may divide by ~0
        nu45 = j13 * j23 * j33 * gk[1] * gk[2] * gk[3] * hk[1] * hk[2] * hk[3]
        nu[..., COLUMN[SymbolId(4, 5)]] = nu45
        for k in (1, 2, 3):
            beta[..., COLUMN[SymbolId(_mbar3(k + 1), 4)]] = nu45 * gk[k] / hk[k]
        for k in (1, 2, 3):
            nu[..., COLUMN[SymbolId(_mbar3(k + 1), 5)]] = (
                beta[..., COLUMN[SymbolId(_mbar3(k + 2), 4)]] * hk[k] / gk[k]
            )
        for k in (1, 2, 3):
            i2 = _mbar3(k + 2)
            b = _mbar3(k + 1)  # ZF user of eta_{i2,1} and eta_{i2,2}
            target2 = beta[..., COLUMN[SymbolId(i2, 4)]] * hk[k]
            nu[..., COLUMN[SymbolId(i2, 2)]] = target2 * hk[b] / det[(k, b)]
            beta[..., COLUMN[SymbolId(i2, 2)]] = -target2 * gk[b] / det[(k, b)]

            target3 = nu[..., COLUMN[SymbolId(i2, 5)]] * gk[k]
            nu[..., COLUMN[SymbolId(i2, 1)]] = target3 * hk[b] / det[(k, b)]
            beta[..., COLUMN[SymbolId(i2, 1)]] = -target3 * gk[b] / det[(k, b)]

            i3 = _mbar3(k + 1)
            b3 = _mbar3(k + 2)  # ZF user of eta_{i3,3}
            nu[..., COLUMN[SymbolId(i3, 3)]] = target3 * hk[b3] / det[(k, b3)]
            beta[..., COLUMN[SymbolId(i3, 3)]] = -target3 * gk[b3] / det[(k, b3)]

        slot_peak = np.maximum(np.abs(nu), np.abs(beta)).max(axis=-1)
        degenerate |= np.any(slot_peak == 0, axis=-1)  # identically zero slot
        slot_scale = 1.0 / slot_peak
        nu *= slot_scale[..., None]
        beta *= slot_scale[..., None]
        peak = np.maximum(np.abs(nu), np.abs(beta)).max(axis=-2)
        degenerate |= np.any(peak == 0, axis=-1)  # identically zero symbol
        scale = 1.0 / peak
        nu *= scale[..., None, :]
        beta *= scale[..., None, :]
        return nu, beta, scale, slot_scale, degenerate


def effective_channel_matrix(nu, beta, f, g, h, receiver: str) -> np.ndarray:
    """Effective receive matrix over the T = 8 slots, with any leading
    batch axes: nu and beta as solve_precoders returns them, f
    (..., T_SLOTS, 1), g and h (..., T_SLOTS, 3).

    For receiver "ue1".."ue3": an 8 x 16 matrix whose column for symbol x
    is g_k[t] nu_x[t] + h_k[t] beta_x[t], columns in TRANSMITTED_SYMBOLS
    order. For "rn": the 8 x 13 matrix f_1[t] nu_x[t] over DENB_SYMBOLS
    (the relay hears only the base station).
    """
    if receiver == "rn":
        return f * nu[..., DENB_COLS]
    if receiver in ("ue1", "ue2", "ue3"):
        k = int(receiver[2])
        return g[..., k - 1 : k] * nu + h[..., k - 1 : k] * beta
    raise ValueError(f"receiver must be 'ue1'..'ue3' or 'rn', got {receiver!r}")


def rn_cache_cancel(matrix: np.ndarray) -> np.ndarray:
    """Strip cached-symbol columns from the relay's 8 x 13 receive matrix,
    or a stack of them (..., 8, 13).

    The relay knows every RN_CACHED symbol, subtracts their contribution,
    and is left with the 8 x 4 system over the UNCACHED unknowns
    {eta_{1,5}, eta_{2,5}, eta_{3,5}, eta_{4,5}}.
    """
    matrix = np.asarray(matrix)
    if matrix.shape[-2:] != (T_SLOTS, len(DENB_SYMBOLS)):
        raise ValueError(f"expected {T_SLOTS} x {len(DENB_SYMBOLS)} relay matrices, "
                         f"got shape {matrix.shape}")
    return matrix[..., UNCACHED_POS]
