"""Delivery schemes at the extremal cache sizes.

mu = 0: the relays hold nothing, the network degenerates to a single-
antenna broadcast channel with K + M receivers and the base station
unicasts every demand in turn (NDT K + M). mu = 1: every relay holds the
whole library, so base station plus relays act as one (M+1)-antenna
transmitter and zero-forcing beamforming serves user groups of size up to
M + 1 (NDT max{K/(M+1), 1}; relays need no delivery).
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .model import DEGENERACY_TOL, NetworkConfig, check_tol


def unicast_schedule(cfg: NetworkConfig) -> tuple[str, ...]:
    """The receivers served one per slot, users then relays (ue1..ueK,
    rn1..rnM): each of the K + M worst-case demands is a distinct file, so
    the NDT is the slot count. Only valid at mu = 0."""
    if cfg.mu != 0:
        raise ValueError(f"unicast schedule applies at mu = 0 only, got mu = {cfg.mu}")
    return tuple(f"ue{u}" for u in range(1, cfg.K + 1)) + tuple(
        f"rn{r}" for r in range(1, cfg.M + 1))


def user_rows(g: np.ndarray, H: np.ndarray, group: tuple[int, ...]) -> np.ndarray:
    """Rows (..., len(group), M + 1) of the group's users against the antennas
    (base station, relay 1..M) in one slot; g is (..., K), H is (..., K, M)."""
    cols = [k - 1 for k in group]
    return np.concatenate([g[..., cols, None], H[..., cols, :]], axis=-1)


def user_groups(M: int, K: int) -> tuple[tuple[int, ...], ...]:
    """Users 1..K in consecutive groups of at most M + 1, one per slot."""
    return tuple(tuple(range(u, min(u + M + 1, K + 1))) for u in range(1, K + 1, M + 1))


def miso_ndt_and_dof(groups: tuple[tuple[int, ...], ...]) -> tuple[Fraction, int]:
    """NDT and sum DoF of zero-forcing over ``groups`` (user_groups'
    output). The largest group, min(M + 1, K) users, is served at once: the
    sum DoF is its size and the NDT is K over it, which is max{K/(M+1), 1}."""
    served = max(map(len, groups))
    return Fraction(sum(map(len, groups)), served), served


def miso_zf_plan(g: np.ndarray, H: np.ndarray, tol: float = DEGENERACY_TOL):
    """Per-group zero-forcing beamformers at mu = 1: g is (..., T, K), H is
    (..., T, K, M), leading axes a batch of draws, and group i of
    user_groups(M, K) uses slot i. Beamformers are the pseudo-inverse of
    the group rows (unit gain at the intended user, zero at the rest, up
    to rounding), by stacked SVD and pinv per group.

    Returns per group the (..., M + 1, len(group)) beamformers; per user k
    at column k - 1 its largest cross gain over its group's weakest direct
    gain (the nulling residual is their maximum); and the mask of
    degenerate draws, those where a group's rows have a singular value
    below tol relative to the largest.
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
        sv = np.linalg.svd(C, compute_uv=False)
        degenerate |= sv[..., -1] < tol * sv[..., 0]
        W = np.linalg.pinv(C)
        gains = np.abs(C @ W)
        off = np.where(np.eye(len(group), dtype=bool), 0.0, gains).max(axis=-1)
        with np.errstate(all="ignore"):  # degenerate draws may have zero gains
            cross.append(off / np.diagonal(gains, axis1=-2, axis2=-1).min(axis=-1, keepdims=True))
        beamformers.append(W)
    return beamformers, np.concatenate(cross, axis=-1), degenerate
