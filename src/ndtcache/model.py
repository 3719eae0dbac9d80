"""Shared domain types for transceiver cache-aided networks.

A network has one base station (full library access), M cache-equipped
full-duplex relays and K users. All delivery-time bookkeeping is done in
exact rational arithmetic; floating point is confined to the channel /
linear-algebra layer.
"""
from __future__ import annotations

import operator
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


def as_rational(value: int | str | Fraction) -> Fraction:
    """Convert ``value`` to an exact rational.

    Accepts integers, Fractions and strings ("4/5", "0.8"). Decimal
    strings convert exactly from their decimal expansion. Binary floats
    are rejected: they silently misrepresent values like 0.8 and would
    poison exact breakpoint comparisons. A plain Fraction is kept as it is.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(
            "floats are not accepted for exact quantities; pass a string like '4/5' or '0.8'"
        )
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return _parse_rational(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational")


def _parse_rational(text: str) -> Fraction:
    # Fraction builds 10 ** exponent before anything can check the value,
    # and str() of a result with more digits than the int-to-str limit
    # fails; refuse both, the exponent before any big integer is built.
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    exponent = re.search(r"[eE][-+]?(\d+(?:_\d+)*)$", text)
    digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
    if len(digits) > len(str(limit)) or int(digits or 0) > limit:
        raise ValueError(f"{text!r} has an exponent beyond {limit}")
    value = Fraction(text)
    if max(abs(value.numerator), value.denominator) >= 10 ** limit:
        raise ValueError(f"{text!r} has more than {limit} digits")
    return value


def as_count(name: str, value) -> int:
    """``value`` as a Python int through operator.index, so numpy integers
    count and floats do not; a TypeError names the argument."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an int, got {value!r}") from None


# Default relative tolerance of the degeneracy guards and the redraw decision.
DEGENERACY_TOL = 1e-9


def check_tol(tol: float) -> None:
    """Require a relative tolerance in (0, 1). NaN and inf fail too: a NaN
    tol would silently pass every degeneracy guard."""
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")


@dataclass(frozen=True)
class NetworkConfig:
    """Network instance: M relays, K users, N library files, fractional
    per-relay cache size mu (exact rational in [0, 1])."""

    M: int
    K: int
    N: int
    mu: Fraction

    def __post_init__(self) -> None:
        for name in ("M", "K", "N"):
            v = as_count(name, getattr(self, name))
            if v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "mu", as_rational(self.mu))
        if self.N < self.M + self.K:
            # worst-case distinct demands need at least M + K files
            raise ValueError(f"need N >= M + K, got N={self.N}, M+K={self.M + self.K}")
        if not 0 <= self.mu <= 1:
            raise ValueError(f"mu must lie in [0, 1], got {self.mu}")


def check_coefficients(*parts: tuple[str, bool, bool]) -> None:
    """Require every coefficient finite and nonzero, given each part as
    (name, all finite, some zero) in order: ChannelSet's own arrays, or
    verify's drawer's tallies of a block. Non-finite is raised before zero."""
    for name, finite, zero in parts:
        if not finite:
            raise ValueError(f"{name} contains non-finite coefficients")
        if zero:
            raise ValueError(f"{name} contains zero coefficients")


@dataclass(frozen=True)
class ChannelSet:
    """Per-slot complex channel coefficients over T slots.

    f[t, m]    base station -> relay m
    g[t, k]    base station -> user k
    H[t, k, m] relay m -> user k

    Coefficients must be finite and nonzero (draws from a continuous
    distribution are nonzero with probability 1).
    """

    T: int
    f: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)
    H: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.T < 1:
            raise ValueError(f"T must be positive, got {self.T}")
        f = np.asarray(self.f, dtype=complex)
        g = np.asarray(self.g, dtype=complex)
        H = np.asarray(self.H, dtype=complex)
        if f.ndim != 2 or f.shape[0] != self.T:
            raise ValueError(f"f must be T x M, got shape {f.shape}")
        if g.ndim != 2 or g.shape[0] != self.T:
            raise ValueError(f"g must be T x K, got shape {g.shape}")
        if H.shape != (self.T, g.shape[1], f.shape[1]):
            raise ValueError(f"H must be T x K x M, got shape {H.shape}")
        check_coefficients(*((name, np.isfinite(a).all(), (a == 0).any())
                             for name, a in zip("fgH", (f, g, H))))
        for arr in (f, g, H):
            arr.setflags(write=False)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "H", H)
