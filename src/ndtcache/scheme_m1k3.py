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
Its SymbolId tables live in ``layout`` and are bound here too; this module
adds their integer column forms and solves the per-slot precoders: the
raw chain once, in field operations only (``_chain``, exact on Fraction
or sympy object arrays), then the float mask and normalization
(``solve_precoders``). ``effective_channel_matrix(nu, beta, f, g, h)``
yields the four receive matrices (ue1, ue2, ue3, rn) one at a time.
"""
from __future__ import annotations

import numpy as np

from .layout import (ALIGNMENT_GROUPS, DENB_SYMBOLS, RN_CACHED, SYMBOLS_PER_FILE, T_SLOTS,
                     TRANSMITTED_SYMBOLS, UNCACHED, ZERO_FORCED, SymbolId)
from .model import DEGENERACY_TOL, check_tol

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

# solve_precoders' chain read off the tables, one step per alignment group
# in walk order: (user row, anchor column, anchor sent by the base station,
# members), a member (column, sent by the base station, zero-forcing user row or -1).
_ZF_ROW = {s: b - 1 for b in ZERO_FORCED for s in ZERO_FORCED[b]}
_CHAIN = tuple(
    (k, COLUMN[anchor], anchor in DENB_SYMBOLS,
     tuple((COLUMN[s], s in DENB_SYMBOLS, _ZF_ROW.get(s, -1)) for s in members))
    for layer in zip(*ALIGNMENT_GROUPS.values())
    for k, (anchor, *members) in enumerate(layer))
_ETA45_COL = COLUMN[SymbolId(4, 5)]  # the chain's seed


def _chain(g, h):
    """The raw chain of solve_precoders: nu and beta (..., 16) for g and h
    (..., 3), and the j terms (j13, j23, j33). Field operations only, so
    object arrays of Fraction or sympy symbols give it exactly."""
    (g1, g2, g3), (h1, h2, h3) = np.moveaxis(g, -1, 0), np.moveaxis(h, -1, 0)
    j13 = g2 * h3 - g3 * h2
    j23 = g3 * h1 - g1 * h3
    j33 = g1 * h2 - g2 * h1
    nu = np.zeros(g.shape[:-1] + (len(TRANSMITTED_SYMBOLS),), dtype=np.result_type(g, h, complex))
    beta = np.zeros_like(nu)
    nu[..., _ETA45_COL] = j13 * j23 * j33 * g1 * g2 * g3 * h1 * h2 * h3
    for k, anchor, anchor_on_bs, members in _CHAIN:
        gk, hk = g[..., k], h[..., k]
        target = nu[..., anchor] * gk if anchor_on_bs else beta[..., anchor] * hk
        for c, on_bs, b in members:
            if b >= 0:
                gb, hb = g[..., b], h[..., b]
                det = gk * hb - gb * hk
                nu[..., c] = target * hb / det
                beta[..., c] = -target * gb / det
            elif on_bs:
                nu[..., c] = target / gk
            else:
                beta[..., c] = target / hk
    return nu, beta, (j13, j23, j33)


def solve_precoders(g: np.ndarray, h: np.ndarray, tol: float = DEGENERACY_TOL):
    """Solve all per-slot precoders of the mu = 4/5 scheme.

    g and h (..., T_SLOTS, 3) hold the users' base-station and relay
    coefficients; leading axes are a batch of draws, and one draw has
    none. Returns (nu, beta, degenerate) with the batch axes in front:
    column c of nu and beta (..., T_SLOTS, 16) holds the precoders of
    TRANSMITTED_SYMBOLS[c]. nu is zero for relay-only symbols (index 4),
    beta for base-station-only ones (index 5).

    Each slot is independent. Writing g_k, h_k for the slot's user-k
    coefficients from base station and relay, the raw chain (``_chain``):

    1. nu of eta_{4,5} is fixed to the product
       j13*j23*j33 * g1*g2*g3 * h1*h2*h3 with
       j13 = g2 h3 - g3 h2, j23 = g3 h1 - g1 h3, j33 = g1 h2 - g2 h1.
    2. Walk ALIGNMENT_GROUPS layer by layer, users k = 1..3 within a
       layer. A group's first symbol a, known by then, is its anchor: at
       user k every other member matches target = nu_a g_k, or
       beta_a h_k if the relay sends a. A member one transmitter sends
       takes one division, nu = target / g_k or beta = target / h_k. One
       both send is zero-forced at its ZERO_FORCED user b too, so
       nu = target h_b / det and beta = -target g_b / det, where
       det = g_k h_b - g_b h_k is a +-j term.

    Then normalize. The raw chain inherits the product nu_{4,5}, whose
    magnitude swings over many orders across slots, so first every slot
    is multiplied by one over its peak precoder magnitude (the chain is
    linear in nu_{4,5}[t], so every per-slot ZF and alignment equality
    survives verbatim), then every symbol by one over its peak across
    slots, so that peak is 1. This step keeps zero-forced entries exactly
    zero and alignment groups colinear; the literal per-slot equalities
    are those of ``_chain``.

    A draw is degenerate if step 2 divides by a j term of magnitude below
    tol (relative to the squared slot channel scale) or by a coefficient
    below tol relative to the slot scale, if a slot's scale is not above
    zero (a slot of zeros, or a NaN coefficient), or if a slot or a symbol
    is identically zero. ``degenerate`` (the batch shape) flags those draws;
    their other outputs are meaningless.
    """
    check_tol(tol)
    g, h = np.asarray(g), np.asarray(h)
    if g.shape[-2:] != (T_SLOTS, 3) or g.shape != h.shape:
        raise ValueError(f"g and h must both have shape (..., {T_SLOTS}, 3), "
                         f"got {g.shape} and {h.shape}")
    with np.errstate(all="ignore"):  # degenerate draws may divide by ~0
        nu, beta, j_terms = _chain(g, h)
        chan_scale = np.max(np.abs(np.concatenate([g, h], axis=-1)), axis=-1)
        degenerate = ~np.all(chan_scale > 0, axis=-1)  # a NaN makes its slot's scale NaN
        for j in j_terms:
            degenerate |= np.any(np.abs(j) < tol * chan_scale**2, axis=-1)
        small = tol * chan_scale[..., None]
        degenerate |= np.any((np.abs(g) < small) | (np.abs(h) < small), axis=(-2, -1))

        for axis in (-1, -2):  # each slot's peak, then each symbol's
            peak = np.maximum(np.abs(nu), np.abs(beta)).max(axis=axis, keepdims=True)
            degenerate |= np.any(peak == 0, axis=(-2, -1))  # identically zero
            inv = 1.0 / peak
            nu *= inv
            beta *= inv
        return nu, beta, degenerate


def effective_channel_matrix(nu, beta, f, g, h):
    """Yield the effective receive matrices ue1, ue2, ue3, rn over the T = 8
    slots, each built when asked for (``tuple(...)`` gives all four), with any
    leading batch axes: nu and beta as solve_precoders returns them, f
    (..., T_SLOTS, 1), g and h (..., T_SLOTS, 3).

    User k's is 8 x 16, its column for symbol x g_k[t] nu_x[t] +
    h_k[t] beta_x[t], columns in TRANSMITTED_SYMBOLS order. The relay's is
    the 8 x 13 matrix f_1[t] nu_x[t] over DENB_SYMBOLS (the relay hears
    only the base station).
    """
    for k in range(3):
        yield g[..., k : k + 1] * nu + h[..., k : k + 1] * beta
    yield f * nu[..., DENB_COLS]


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
