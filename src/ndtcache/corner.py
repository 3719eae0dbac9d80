"""Delivery schemes at the extremal cache sizes.

mu = 0: the relays hold nothing, the network degenerates to a single-
antenna broadcast channel with K + M receivers and the base station
unicasts every demand in turn (NDT K + M). mu = 1: every relay holds the
whole library, so base station plus relays act as one (M+1)-antenna
transmitter and zero-forcing beamforming serves user groups of size up to
M + 1 (NDT max{K/(M+1), 1}; relays need no delivery). The schedule and
the groups live in ``layout``, bound here too. Each group's beamformers
and degeneracy mask come from one stacked SVD.
"""
from __future__ import annotations

import numpy as np

from .layout import unicast_schedule, user_groups
from .model import DEGENERACY_TOL, check_tol


def user_rows(g: np.ndarray, H: np.ndarray, group: tuple[int, ...]) -> np.ndarray:
    """Rows (..., len(group), M + 1) of the group's users against the antennas
    (base station, relay 1..M) in one slot; g is (..., K), H is (..., K, M)."""
    cols = [k - 1 for k in group]
    return np.concatenate([g[..., cols, None], H[..., cols, :]], axis=-1)


def miso_zf_plan(g: np.ndarray, H: np.ndarray, tol: float = DEGENERACY_TOL):
    """Per-group zero-forcing beamformers at mu = 1: g is (..., T, K), H is
    (..., T, K, M), leading axes a batch of draws, and group i of
    user_groups(M, K) uses slot i. Beamformers are the pseudo-inverse of
    the group rows C (unit gain at the intended user, zero at the rest, up
    to rounding), by one stacked SVD per group.

    Returns per group the (..., M + 1, len(group)) beamformers; per user k
    at column k - 1 its largest cross gain over its group's weakest direct
    gain (the nulling residual is their maximum); and the mask of
    degenerate draws, those where a group's rows have a singular value
    below tol relative to the largest, or none above zero.

    Each group's one SVD is ``np.linalg.pinv``'s: of C.conj(), without
    full matrices. The beamformers follow pinv's own steps (its default
    cut 1e-15 of the largest singular value, reciprocals of the kept ones,
    V diag(1/s) U^T of the conjugate's factors), so they are pinv(C) bit
    for bit, and the mask reads the same singular values. Rows with a NaN
    make that SVD raise ``LinAlgError``; infinite rows give NaN singular
    values, which the mask flags.
    """
    check_tol(tol)
    g, H = np.asarray(g), np.asarray(H)
    if H.ndim < 3 or H.shape[:-1] != g.shape or 0 in H.shape[-2:]:
        raise ValueError(f"g (..., T, K) and H (..., T, K, M) must match with K, M >= 1, "
                         f"got {g.shape} and {H.shape}")
    groups = user_groups(H.shape[-1], g.shape[-1])
    if g.shape[-2] < len(groups):
        raise ValueError(f"need at least {len(groups)} slots, got T = {g.shape[-2]}")
    beamformers, cross = [], []
    degenerate = np.zeros(g.shape[:-2], dtype=bool)
    for t, group in enumerate(groups):
        C = user_rows(g[..., t, :], H[..., t, :, :], group)
        u, s, vt = np.linalg.svd(C.conj(), full_matrices=False)
        degenerate |= (s[..., -1] < tol * s[..., 0]) | ~(s[..., 0] > 0)
        large = s > 1e-15 * s.max(axis=-1, keepdims=True)  # pinv's default cut
        inv = np.divide(1, s, where=large, out=np.zeros_like(s))
        W = vt.swapaxes(-1, -2) @ (inv[..., None] * u.swapaxes(-1, -2))
        gains = np.abs(C @ W)
        off = np.where(np.eye(len(group), dtype=bool), 0.0, gains).max(axis=-1)
        with np.errstate(all="ignore"):  # degenerate draws may have zero gains
            cross.append(off / np.diagonal(gains, axis1=-2, axis2=-1).min(axis=-1, keepdims=True))
        beamformers.append(W)
    return beamformers, np.concatenate(cross, axis=-1), degenerate
