"""Randomized numerical verification of the delivery schemes.

Seeded Monte Carlo over i.i.d. complex Gaussian channels: solve the
precoders, assemble effective receive matrices, check zero-forcing and
alignment residuals plus subspace ranks, and decode noiselessly; the NDT
and DoF reported are layout.accounting's. verify_m1k3, both branches of
verify_corner (unicasting at mu = 0, MISO zero-forcing at mu = 1) and
finite_snr_rates share one trial runner, ``_TrialRun``. Trial t at attempt a draws its channels, then its
symbols, from one generator in the state ``default_rng((seed, t, a))``
would have; the run checks its seed once. Trials run in blocks,
stacked on a leading axis and checked by stacked np.linalg calls
(decoding included, by pinv) and array ops, which give the same bits as
one call per matrix; rate totals add up in trial order. So results do not
depend on the block size. A block holds as many trials as fit in
BLOCK_BYTES (at least one, at most the run), each verifier counting a
trial's bytes from its own shapes: the drawn values it holds, each with
its pair of floats, the solution arrays and, for verify_m1k3 and
finite_snr_rates, the one receive matrix a check holds at a time. The
runner calls a verifier's check on each block and frees the block before
drawing the next. Unicasting reads no H, so its runs draw H without
holding it. So memory is about one block's arrays and a float scratch of
at most BLOCK_BYTES, whatever the trial count, and a trial too large for
the budget runs alone. A block's draws come from one drawer,
``_draw_cn``: one array pass computes every key's PCG64 state, and one
generator, set to each state in turn, fills its key's row of floats in
the scratch, as whole rows or, for a row larger than the scratch, in
segments of one stream. Each window of floats is
scaled into the complex values of the parts held. The drawer tallies every
float of f, g and H, held or not, as it leaves the scratch, and raises
ChannelSet's message for a block's first non-finite or zero part.
Each user's interference SVD runs once and gives its rank, its gap and
the projection basis. The rank-only decisions (desired, total and relay
ranks) are certified full by a shifted Cholesky factorization of the
Gram matrix, ``_full_rank``; a block it cannot certify falls back to
``rank_with_gap``. Only a block's degenerate draws are redrawn, with
attempt + 1; a trial still degenerate after _MAX_REDRAWS redraws ends
the run with VerificationFailure, its report covering the trials before
it. Verifiers hand the runner each
block's checks and per-receiver diagnostics; the runner alone folds them
into the report.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .corner import miso_zf_plan, unicast_schedule, user_groups, user_rows
from .layout import accounting, receivers
from .model import (DEGENERACY_TOL, ChannelSet, NetworkConfig, as_count, check_coefficients,
                    check_tol)
from .scheme_m1k3 import (
    ALIGNED_COLS,
    COLUMN,
    DENB_COLS,
    DESIRED_COLS,
    ETA45,
    INTERFERENCE_COLS,
    RN_CACHED_POS,
    T_SLOTS,
    TRANSMITTED_SYMBOLS,
    UNCACHED,
    ZERO_FORCED_COLS,
    SymbolId,
    effective_channel_matrix,
    rn_cache_cancel,
    solve_precoders,
)

# Pass thresholds for a verification trial. Rank decisions use a cut far
# below any genuine singular value but far above the rounding floor; the
# gap requirement rejects any matrix whose spectrum does not cleanly
# separate there.
ZF_RESIDUAL_MAX = 1e-10
ALIGNMENT_RESIDUAL_MAX = 1e-8
DECODE_ERROR_MAX = 1e-6
MIN_SV_GAP = 1e6
RANK_REL_TOL = 1e-12
_MAX_REDRAWS = 8
# A held complex value and its (real, imaginary) pair of floats.
_DRAWN_BYTES = 2 * np.dtype(complex).itemsize

# Signs that turn "lowest desired rank, highest interference rank, lowest
# total rank" into one elementwise minimum.
_WORST = np.array([1, -1, 1])


class VerificationFailure(Exception):
    """A verification run had failing trials; carries the first failing
    trial's diagnostics and the partial result: the aggregate report, or
    from finite_snr_rates the estimates over the trials before the
    failing one."""

    def __init__(self, message: str,
                 report: "VerificationReport | list[RateEstimate] | None" = None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class SubspaceReport:
    """Rank/residual diagnostics of one receiver's effective matrix.

    Every field covers all trials: ranks are the worst seen (lowest
    desired and total rank, highest interference rank; the corner
    schemes' are fixed at (1, 0, 1)), residuals the largest.
    """

    receiver: str
    desired_rank: int
    interference_rank: int
    total_rank: int
    zf_residual: float
    alignment_residual: float


@dataclass(frozen=True)
class VerificationReport:
    """Aggregate outcome of a Monte Carlo verification run."""

    ue_reports: tuple[SubspaceReport, ...]
    rn_reports: tuple[SubspaceReport, ...]
    decode_max_error: float
    ndt: Fraction
    per_ue_dof: Fraction
    rn_dof: Fraction
    sum_dof: Fraction
    trials: int
    failures: int
    redraws: int


@dataclass(frozen=True)
class RateEstimate:
    """Finite-SNR achievable rate of one receiver and the slope of rate
    versus log2 SNR fitted across all requested SNR points."""

    receiver: str
    snr_db: float
    rate: float
    fitted_slope: float


# SeedSequence's hash (numpy.random.bit_generator) and PCG64's seeding,
# written out so that one array pass seeds a whole block; NumPy's
# stream-compatibility policy (NEP 19) keeps both algorithms fixed.
_POOL = 4  # SeedSequence's pool, in 32-bit words
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(init: int, mult: int, calls) -> tuple[np.ndarray, np.ndarray]:
    """Columns of the (xor, multiplier) constants of the hash calls ``calls``:
    call k xors init * mult**k and multiplies by init * mult**(k + 1), mod 2**32."""
    const = lambda k: init * pow(mult, k, 2**32) & _MASK32
    return (np.array([const(k) for k in calls], np.uint32)[:, None],
            np.array([const(k + 1) for k in calls], np.uint32)[:, None])


# The pool takes hash calls 0-3; then pool word src is hashed for each other
# word in turn (calls 4 + 3 src ..), its own row a placeholder; a key word
# src >= _POOL is hashed for every pool word (calls 4 src ..). The state is
# eight hashes of the pool, cycled twice, with their own constants.
_FILL = _hash_consts(_INIT_A, _MULT_A, range(_POOL))
_SPREAD = [_hash_consts(_INIT_A, _MULT_A, [4 + 3 * src + d - (d > src) for d in range(_POOL)])
           for src in range(_POOL)]
_GENERATE = _hash_consts(0x8B51F9DD, 0x58F38DED, range(2 * _POOL))


def _hashmix(words: np.ndarray, consts) -> np.ndarray:
    xor, mul = consts
    words = (words ^ xor) * mul
    return words ^ words >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = x * _MIX_L - y * _MIX_R
    return mixed ^ mixed >> 16


def _key_words(prefix: tuple[int, ...], extra: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 32-bit words of the keys prefix + tuple(extra[i]), key i in
    column i, zero padded, and each key's word count. As in SeedSequence,
    an int is its little-endian words, 0 one word; ``extra`` holds ints
    below 2**64, one row per key."""
    head = [x >> shift & _MASK32 for x in prefix for shift in range(0, max(x.bit_length(), 1), 32)]
    extra = extra.astype(np.uint64).T
    words = np.zeros((len(head) + 2 * len(extra), extra.shape[1]), np.uint32)
    words[:len(head)] = np.array(head, np.uint32)[:, None]
    words[len(head)::2] = extra & _MASK32
    words[len(head) + 1::2] = extra >> 32
    # each extra int keeps its high word only if that is nonzero
    present = np.ones(words.shape, bool)
    present[len(head) + 1::2] = words[len(head) + 1::2] != 0
    order = np.argsort(~present, axis=0, kind="stable")
    return np.take_along_axis(words, order, axis=0), present.sum(axis=0)


def _pcg64_states(words: np.ndarray, counts: np.ndarray) -> list[tuple[int, int]]:
    """The (state, inc) of ``PCG64(key)`` for each key of _key_words: the
    key's words mixed into SeedSequence's pool, ``generate_state(4,
    np.uint64)`` as (seed, inc) and PCG64's two seeding steps."""
    width = max(int(counts.max()), _POOL)
    padded = np.zeros((width, words.shape[1]), np.uint32)  # at least the pool, no unused rows
    padded[:len(words)] = words[:width]
    pool = _hashmix(padded[:_POOL], _FILL)
    for src, consts in enumerate(_SPREAD):
        mixed = _mix(pool, _hashmix(pool[src], consts))
        mixed[src] = pool[src]
        pool = mixed
    for src in range(_POOL, width):  # the words of keys longer than the pool
        consts = _hash_consts(_INIT_A, _MULT_A, range(4 * src, 4 * src + _POOL))
        pool = np.where(counts > src, _mix(pool, _hashmix(padded[src], consts)), pool)
    halves = _hashmix(np.concatenate([pool, pool]), _GENERATE).astype(np.uint64)
    seeds = []
    for s_hi, s_lo, i_hi, i_lo in zip(*(halves[0::2] | halves[1::2] << 32).tolist()):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        seeds.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return seeds


class _Tally:
    """Whether a drawn channel part has a non-finite coefficient and whether
    one is zero, that is, both of its parts are. Fed the real parts, then
    the imaginary parts, in windows (key rows, columns, floats) not yet
    scaled, as scaling keeps a double finite or not and zero or not."""

    def __init__(self):
        self.finite, self.zero, self.zero_re = True, False, []

    def real(self, keys: slice, cols: slice, x: np.ndarray) -> None:
        self.finite &= bool(np.isfinite(x).all())
        if not x.all():  # a zero real part (almost never seen) waits for its imaginary part
            self.zero_re += [(keys.start + i, cols.start + j) for i, j in zip(*np.nonzero(x == 0))]

    def imag(self, keys: slice, cols: slice, x: np.ndarray) -> None:
        self.finite &= bool(np.isfinite(x).all())
        self.zero |= any(x[i - keys.start, j - cols.start] == 0 for i, j in self.zero_re
                         if keys.start <= i < keys.stop and cols.start <= j < cols.stop)


def _parts(shape: tuple[int, int, int], sym_sizes: tuple[int, ...] = ()) -> list[tuple[int, ...]]:
    """A draw's parts in order: f (T x M), g (T x K), H (T x K x M), symbols."""
    T, M, K = shape
    return [(T, M), (T, K), (T, K, M), *((n,) for n in sym_sizes)]


def _draw_cn(prefix: tuple[int, ...], extra: np.ndarray, shape: tuple[int, int, int],
             sym_sizes: tuple[int, ...] = (), reads_H: bool = True) -> list[np.ndarray | None]:
    """I.i.d. CN(0,1) draws of the parts of ``_parts(shape, sym_sizes)``, per
    part one array (len(extra), *part), row i drawn as ``default_rng(prefix +
    tuple(extra[i]))`` would draw it; H comes back None unless ``reads_H``.

    One array pass computes every key's PCG64 state (_pcg64_states). One
    Generator, set to each state in turn, draws its key's row of floats:
    per part in order, its real parts, then its imaginary parts, as one
    generator drawing each part in turn would. The rows pass through a
    scratch of at most BLOCK_BYTES: as many whole rows as fit, one fill per
    key, or a row larger than that in segments, which continue the same
    stream. Each window of floats is scaled by 1 / sqrt(2) into the real or
    imaginary parts of its part's complex values, the bits of
    ``(re + 1j * im) / sqrt(2)``; an H not held is drawn and dropped. Every
    float of f, g and H, held or not, is tallied (_Tally) as it leaves the
    scratch, and after the block check_coefficients raises ChannelSet's
    message for the first bad part.
    """
    shapes = _parts(shape, sym_sizes)
    n, sizes = len(extra), [math.prod(part) for part in shapes]
    width = 2 * sum(sizes)  # the floats of a key's row
    floats = max(BLOCK_BYTES // np.dtype(float).itemsize, 1)
    rows = min(n, floats // width)  # whole rows a window holds; none: one row in segments
    per, seg = (rows, width) if rows else (1, floats)
    scratch = np.empty((per, seg))
    parts = [None if i == 2 and not reads_H else np.empty((n, size), complex)
             for i, size in enumerate(sizes)]
    tallies = [_Tally() for _ in "fgH"] + [None] * len(sym_sizes)  # symbols are not checked
    scale = 1 / np.sqrt(2)
    halves, start = [], 0  # per half of a part: (its first float in a row, length, out, tally)
    for part, size, tally in zip(parts, sizes, tallies):
        for half in ("real", "imag"):
            halves.append((start, size, None if part is None else getattr(part, half),
                           None if tally is None else getattr(tally, half)))
            start += size

    bits = np.random.PCG64(0)
    fill = np.random.Generator(bits).standard_normal
    state = bits.state  # a fresh generator's, given each key's (state, inc)
    seeds = _pcg64_states(*_key_words(prefix, extra))
    for lo in range(0, n, per):
        keys = slice(lo, min(lo + per, n))
        for a in range(0, width, seg):  # a segment starts where the last one stopped
            window = scratch[:keys.stop - lo, :width - a]
            for (state["state"]["state"], state["state"]["inc"]), row in zip(seeds[keys], window):
                if not a:
                    bits.state = state
                fill(out=row)
            for first, size, out, tally in halves:
                cols = slice(max(a - first, 0), min(a + window.shape[1] - first, size))
                if cols.start < cols.stop:
                    x = window[:, first + cols.start - a:first + cols.stop - a]
                    if out is not None:
                        np.multiply(x, scale, out=out[keys, cols])
                    if tally is not None:
                        tally(keys, cols, x)
    check_coefficients(*((name, t.finite, t.zero) for name, t in zip("fgH", tallies)))
    return [part if part is None else part.reshape(n, *s) for part, s in zip(parts, shapes)]


def draw_channels(seed, T: int, M: int, K: int) -> ChannelSet:
    """Seeded i.i.d. CN(0,1) channels, independent across slots.

    Draw order is fixed (f, then g, then H, real parts before imaginary)
    so a seed fully determines the set. ``seed`` may be an int or a tuple
    of ints. This is the one-key case of the block drawer the verifiers
    use, so trial t at attempt a draws ``draw_channels((seed, t, a), ...)``
    and then, from the same generator, its symbols.
    """
    T, M, K = as_count("T", T), as_count("M", M), as_count("K", K)
    if T < 1 or M < 1 or K < 1:
        raise ValueError("T, M and K must be positive")
    f, g, H = _draw_cn(_key(seed), np.empty((1, 0), int), (T, M, K))
    return ChannelSet(T=T, f=f[0], g=g[0], H=H[0])


def rank_with_gap(matrix: np.ndarray, tol: float):
    """Numerical rank and the spectral gap of the rank decision.

    rank counts singular values >= tol * largest; gap_ratio is smallest
    kept over largest discarded (inf when nothing is discarded). A small
    gap means the cut fell inside a singular value cluster and the rank
    decision should not be trusted. A stack of matrices (..., m, n) gives
    arrays of ranks and gaps; one matrix gives an int and a float.
    """
    matrix = np.asarray(matrix)
    if matrix.size == 0:
        raise ValueError("matrix must be nonempty")
    check_tol(tol)
    rank, gap = _rank_gap(np.linalg.svd(matrix, compute_uv=False), tol)
    return (int(rank), float(gap)) if matrix.ndim == 2 else (rank, gap)


def _rank_gap(s: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    # rank_with_gap on stacked descending singular values s (..., r)
    r = s.shape[-1]
    rank = np.count_nonzero(s >= tol * s[..., :1], axis=-1)
    rank = np.where(s[..., 0] == 0.0, 0, rank)
    kept = np.take_along_axis(s, np.maximum(rank - 1, 0)[..., None], axis=-1)[..., 0]
    cut = np.take_along_axis(s, np.minimum(rank, r - 1)[..., None], axis=-1)[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.where((rank == 0) | (rank == r) | (cut == 0.0), np.inf, kept / cut)
    return rank, gap


def _full_rank(A: np.ndarray, tol: float) -> np.ndarray:
    """The ranks ``rank_with_gap(A, tol)[0]`` counts for a stack A (..., m, n),
    proved full, p = min(m, n), by a shifted Cholesky factorization where it
    can be, and counted by rank_with_gap where it cannot.

    G is each matrix's p x p Gram matrix (A^H A if m >= n, else A A^H) and
    t its real trace, so t = ||A||_F^2 = s_0^2 + ... + s_min^2 >= s_0^2.
    The shift is delta * t with delta = (kappa * max(tol, phi))^2: the
    margin kappa is 2, and the floor phi^2 = 200 (k + p (p + 1)) eps, k =
    max(m, n), keeps delta far above the rounding. If every shift is a finite
    normal float (which leaves out NaN, inf, zero and underflowing stacks)
    and ``cholesky(G - delta t I)`` succeeds on the whole stack with a finite
    factor, every matrix gets rank p; otherwise the block runs the SVD. A
    certified p is the rank the SVD counts, because:

    1. If potrf succeeds on the computed G - delta t I, adding some E with
       ||E|| <= p (p + 1) eps t makes it R^H R (Higham, Accuracy and
       Stability of Numerical Algorithms, Thm. 10.3, with room for complex
       arithmetic), so lambda_min(computed G) >= delta (computed t) - ||E||.
    2. The computed G is within k eps t of the exact one and the computed
       t >= (1 - k eps) t; as every shift is normal, underflow adds less.
       So the exact s_min^2 >= delta (1 - k eps) t - (k + p (p + 1)) eps t
       >= 0.99 delta t >= 0.99 delta s_0^2, as (k + p (p + 1)) eps =
       phi^2 / 200 <= delta / 200.
    3. zgesdd's singular values lie within q eps s_0 of the exact ones,
       with q a modest multiple of k (backward stability).
    4. Hence the computed s_min / s_0 >= (0.99^(1/2) kappa tau - q eps) /
       (1 + q eps) with tau = max(tol, phi), and phi > 3e-7 >> q eps in
       double precision; for kappa = 2 that is above 1.9 tau >= tol, so
       _rank_gap keeps every singular value and counts p.
    """
    m, n = A.shape[-2:]
    p, k = min(m, n), max(m, n)
    finfo = np.finfo(A.dtype)
    floor = math.sqrt(200 * (k + p * (p + 1)) * finfo.eps)
    delta = (2 * max(tol, floor)) ** 2  # kappa = 2
    AH = A.conj().swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite stacks go to the SVD
        G = AH @ A if m >= n else A @ AH
        shift = delta * np.trace(G, axis1=-2, axis2=-1).real
    if np.all((shift >= finfo.tiny) & (shift < np.inf)):
        try:
            if np.isfinite(np.linalg.cholesky(G - shift[..., None, None] * np.eye(p))).all():
                return np.full(A.shape[:-2], p)
        except np.linalg.LinAlgError:
            pass  # some matrix is not proved full: the SVD decides
    return rank_with_gap(A, tol)[0]


def _project_out(basis: np.ndarray, arr: np.ndarray) -> np.ndarray:
    return arr - basis @ (basis.conj().swapaxes(-1, -2) @ arr)


def _least_squares(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    # least-squares solutions of stacked systems A x = b, b (..., m, k), one pinv per matrix
    return np.linalg.pinv(A) @ b


def _key(seed, *extra: int) -> tuple[int, ...]:
    """The generator key of a seed (a non-negative int or a tuple of them)
    and the trial and attempt indices after it. A run checks its seed once,
    by taking its key prefix ``_key(seed)``."""
    base = seed if isinstance(seed, tuple) else (seed,)
    try:
        base = tuple(map(operator.index, base))
    except TypeError:
        raise TypeError(f"seed must be an int or a tuple of ints, got {seed!r}") from None
    if min(base, default=0) < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return base + extra


def _trial_bytes(shape: tuple[int, int, int], sym_sizes: tuple[int, ...], held: int,
                 reads_H: bool = True) -> int:
    """Bytes a block holds per trial: the drawn parts of _parts, H only if
    the run reads it, each value with its pair of floats, plus the ``held``
    bytes of its solution and receive matrices."""
    sizes = [math.prod(part) for part in _parts(shape, sym_sizes)]
    return _DRAWN_BYTES * (sum(sizes) - (not reads_H) * sizes[2]) + held


def _rows(arr: np.ndarray | None, index):
    # a drawn part's rows; a part the run does not hold stays None
    return None if arr is None else arr[index]


class _TrialRun:
    """Trials 0 .. trials - 1 of one run, in blocks, and their report.
    ``shape`` is (T, M, K) of a draw; ``solve(f, g, H)`` maps stacked
    channels to (arrays with the batch axis first, degenerate mask); a
    trial's symbols are CN(0,1) vectors of ``sym_sizes``, drawn in turn
    after its channels.
    ``receivers`` are the report's (kind, index) receivers in order;
    ``ranks``, if given, are the (desired, interference, total) ranks all of
    them report instead of folded ones. ``held`` is the bytes a trial's
    solution and the matrices its check holds at once; with its draws they
    make ``trial_bytes``, which sizes the blocks against BLOCK_BYTES. A run
    that does not read H (``reads_H=False``) carries None in its place."""

    def __init__(self, seed, trials: int, shape: tuple[int, int, int], solve,
                 sym_sizes: tuple[int, ...] = (), receivers: tuple[tuple[str, int], ...] = (),
                 ranks: tuple[int, int, int] | None = None, held: int = 0,
                 reads_H: bool = True):
        trials = as_count("trials", trials)
        if trials < 1:
            raise ValueError(f"trials must be positive, got {trials}")
        self.prefix, self.n, self.shape, self.solve, self.sym_sizes, self.reads_H = (
            _key(seed), trials, shape, solve, sym_sizes, reads_H)
        self.trial_bytes = _trial_bytes(shape, sym_sizes, held, reads_H)
        self.trials = self.failures = self.redraws = 0
        self.first_failure: str | None = None
        self.receivers = receivers
        # signed worst ranks (see _WORST), None until a block is folded
        self.worst = None if ranks is None else np.tile(_WORST * ranks, (len(receivers), 1))
        self.residuals = np.zeros((len(receivers), 2))
        self.decode_max = 0.0

    def _draw(self, trials, attempts) -> list[np.ndarray | None]:
        """Stacked f, g, H (None if the run does not read it) and symbol
        groups of one draw per (trial, attempt)."""
        return _draw_cn(self.prefix, np.column_stack([np.asarray(trials), attempts]),
                        self.shape, self.sym_sizes, self.reads_H)

    def each_block(self, check) -> None:
        """Call ``check(first trial, f, g, H, *symbol groups, *solution)`` on each
        solved block in turn; redraw exhaustion checks the trials before and stops."""
        size = max(1, min(self.n, BLOCK_BYTES // self.trial_bytes))
        for start in range(0, self.n, size):
            if not self._block(start, min(size, self.n - start), check):
                return

    def _block(self, start: int, n: int, check) -> bool:
        """Draw, solve and check trials start .. start + n - 1; False if one ran
        out of redraws. The block's arrays die with this call, before the next draw."""
        attempts = np.zeros(n, dtype=int)
        drawn = self._draw(range(start, start + n), attempts)
        solution, degenerate = self.solve(*drawn[:3])
        while degenerate.any():
            redo = np.flatnonzero(degenerate)
            attempts[redo] += 1
            if attempts[redo[0]] > _MAX_REDRAWS:
                n = int(redo[0])  # every trial before it is solved
                break
            for arr, new in zip(drawn, self._draw(start + redo, attempts[redo])):
                if arr is not None:
                    arr[redo] = new
            redone, degenerate[redo] = self.solve(*(_rows(arr, redo) for arr in drawn[:3]))
            for arr, new in zip(solution, redone):
                arr[redo] = new
        self.trials += n
        self.redraws += int(attempts[:n].sum())
        if n:
            check(start, *(_rows(arr, slice(n)) for arr in (*drawn, *solution)))
        if degenerate.any():
            self.trials += 1
            self.failures += 1
            self.redraws += _MAX_REDRAWS
            self.first_failure = (f"trial {start + n}: {_MAX_REDRAWS + 1} "
                                  "consecutive degenerate channel draws")
            return False
        return True

    def fold(self, start: int, errors, checks=(), residuals=None, ranks=None) -> None:
        """Tally a block. ``errors`` are its decode error arrays and
        ``checks`` its (failing mask, describe(i) -> message) pairs; per
        receiver, in order, ``residuals`` (R, n, 2) are the ZF and alignment
        residuals (zero if None) and ``ranks`` (R, n, 3) the (desired,
        interference, total) ranks."""
        failing = np.logical_or.reduce([mask for mask, _ in checks])
        self.failures += int(np.count_nonzero(failing))
        if self.first_failure is None and failing.any():
            i = int(np.argmax(failing))
            self.first_failure = f"trial {start + i}: " + "; ".join(
                describe(i) for mask, describe in checks if mask[i])
        self.decode_max = max(self.decode_max, float(
            np.fmax.reduce(np.concatenate([np.ravel(e) for e in errors]))))
        if residuals is not None:
            self.residuals = np.fmax(self.residuals, np.fmax.reduce(residuals, axis=1))
        if ranks is not None:
            worst = (_WORST * np.asarray(ranks)).min(axis=1)
            self.worst = worst if self.worst is None else np.minimum(self.worst, worst)

    def report(self, point: tuple[Fraction, ...]) -> VerificationReport:
        """The report, with the NDT and DoF of ``point``, a scheme's exact
        layout.accounting; raised in VerificationFailure if any trial failed."""
        worst = np.zeros((len(self.receivers), 3), int) if self.worst is None else self.worst
        subs: dict[str, list] = {"ue": [], "rn": []}
        for (kind, i), w, (zf, align) in zip(self.receivers, worst, self.residuals):
            subs[kind].append(SubspaceReport(
                f"{kind}{i}", *(int(r) for r in _WORST * w), float(zf), float(align)))
        report = VerificationReport(  # point[1:] is (ndt, per_ue_dof, rn_dof, sum_dof)
            tuple(subs["ue"]), tuple(subs["rn"]), self.decode_max, *point[1:],
            self.trials, self.failures, self.redraws)
        if self.failures:
            raise VerificationFailure(self.first_failure, report)
        return report


# Per trial at its peak: nu and beta (8 x 16 each) and the one receive
# matrix being checked (the users' are 8 x 16, the relay's 8 x 13), all complex.
_M1K3_HELD = np.dtype(complex).itemsize * T_SLOTS * 3 * len(TRANSMITTED_SYMBOLS)
# Bytes a block's arrays may hold: a 64-trial verify_m1k3 block (540,672
# bytes). Fewer, larger blocks pay the per-block costs (seeding, checks,
# stacked calls) less often.
BLOCK_BYTES = 64 * _trial_bytes((T_SLOTS, 1, 3), (len(TRANSMITTED_SYMBOLS),), _M1K3_HELD)


def _solve_m1k3(tol: float):
    def solve(f, g, H):
        nu, beta, degenerate = solve_precoders(g, H[..., 0], tol)
        return (nu, beta), degenerate
    return solve


def _check_ue(k: int, E: np.ndarray, syms: np.ndarray, checks: list):
    """User k's checks on stacked 8 x 16 matrices E; appends its problems
    to ``checks`` and returns per trial its ranks, its (ZF, alignment)
    residuals and its decode error."""
    des, intf, groups = DESIRED_COLS[k - 1], INTERFERENCE_COLS[k - 1], ALIGNED_COLS[k - 1]
    svd = np.linalg.svd
    d_rank = _full_rank(E[..., des], RANK_REL_TOL)
    u_intf, s_intf, _ = svd(E[..., intf], full_matrices=False)
    i_rank, i_gap = _rank_gap(s_intf, RANK_REL_TOL)
    t_rank = _full_rank(E, RANK_REL_TOL)

    peak = np.abs(E).max(axis=(-2, -1))
    zf_res = np.abs(E[..., ZERO_FORCED_COLS[k - 1]]).max(axis=(-2, -1)) / peak
    align_res = np.zeros(len(E))
    for cols in groups:
        sv = svd(E[..., cols], compute_uv=False)
        align_res = np.fmax(align_res, sv[:, 1] / sv[:, 0])

    basis = u_intf[..., :len(groups)]
    A = _project_out(basis, E[..., des])
    b = _project_out(basis, E @ syms[..., None])
    sol = _least_squares(A, b)[..., 0]
    truth = syms[:, des]
    err = np.abs(sol - truth).max(axis=-1) / np.abs(truth).max(axis=-1)

    checks += [
        ((d_rank != len(des)) | (i_rank != len(groups)) | (t_rank != T_SLOTS),
         lambda i: f"ue{k} ranks ({d_rank[i]},{i_rank[i]},{t_rank[i]}) != "
                   f"({len(des)},{len(groups)},{T_SLOTS})"),
        (i_gap < MIN_SV_GAP,
         lambda i: f"ue{k} interference sv gap {i_gap[i]:.3e} < {MIN_SV_GAP:.0e}"),
        (zf_res > ZF_RESIDUAL_MAX, lambda i: f"ue{k} ZF residual {zf_res[i]:.3e}"),
        (align_res > ALIGNMENT_RESIDUAL_MAX,
         lambda i: f"ue{k} alignment residual {align_res[i]:.3e}"),
        (err > DECODE_ERROR_MAX, lambda i: f"ue{k} decode error {err[i]:.3e}"),
    ]
    return np.stack([d_rank, i_rank, t_rank], axis=-1), np.stack([zf_res, align_res], axis=-1), err


def _check_rn(rn: np.ndarray, syms: np.ndarray, checks: list):
    """The relay's checks on stacked 8 x 13 matrices, returning what
    _check_ue returns (zero residuals)."""
    cancelled = rn_cache_cancel(rn)
    rn_rank = _full_rank(cancelled, RANK_REL_TOL)
    heard = syms[:, DENB_COLS]
    y = rn @ heard[..., None] - rn[..., RN_CACHED_POS] @ heard[:, RN_CACHED_POS, None]
    truth = syms[:, COLUMN[SymbolId(4, 5)]]
    err = np.abs(_least_squares(cancelled, y)[:, ETA45, 0] - truth) / np.abs(truth)
    checks += [
        (rn_rank != len(UNCACHED),
         lambda i: f"rn post-cancellation rank {rn_rank[i]} != {len(UNCACHED)}"),
        (err > DECODE_ERROR_MAX, lambda i: f"rn decode error {err[i]:.3e}"),
    ]
    ranks = np.stack([rn_rank, np.zeros_like(rn_rank), rn_rank], axis=-1)
    return ranks, np.zeros((len(rn), 2)), err


def _ue_rates(k: int, E: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """User k + 1's log-det rates (trials, powers) per slot on stacked 8 x 16 matrices E."""
    u = np.linalg.svd(E[..., INTERFERENCE_COLS[k]], full_matrices=False)[0]
    geff = u[..., len(ALIGNED_COLS[k]):].conj().swapaxes(-1, -2) @ E[..., DESIRED_COLS[k]]
    gram = geff @ geff.conj().swapaxes(-1, -2)
    _, logdet = np.linalg.slogdet(np.eye(len(DESIRED_COLS[k])) + np.multiply.outer(powers, gram))
    return logdet.T / math.log(2) / T_SLOTS


def verify_m1k3(seed, trials: int, tol: float = DEGENERACY_TOL) -> VerificationReport:
    """Monte Carlo verification of the mu = 4/5, M = 1, K = 3 scheme.

    Per trial: draw channels (redrawing on degeneracy), solve precoders,
    then require at every user a rank-5 desired subspace, rank-3 aligned
    interference, full rank 8 overall, zero-forced columns below
    ZF_RESIDUAL_MAX, alignment groups colinear below
    ALIGNMENT_RESIDUAL_MAX, and noiseless decoding of all five desired
    symbols below DECODE_ERROR_MAX; the relay must recover eta_{4,5}
    from its rank-4 post-cancellation system. Raises VerificationFailure
    (report attached) if any trial fails.
    """
    run = _TrialRun(seed, trials, (T_SLOTS, 1, 3), _solve_m1k3(tol), (len(TRANSMITTED_SYMBOLS),),
                    receivers(1, 3), held=_M1K3_HELD)
    def check(start, f, g, H, syms, nu, beta):
        # one receive matrix at a time: a check's argument is its only reference
        received = effective_channel_matrix(nu, beta, f, g, H[..., 0])
        checks: list = []
        ranks, res, errs = zip(*[_check_ue(k, next(received), syms, checks) for k in (1, 2, 3)],
                               _check_rn(next(received), syms, checks))
        run.fold(start, errs, checks, residuals=res, ranks=ranks)
    run.each_block(check)
    return run.report(accounting(1, 3)["zf-ia-m1k3"])


def _verify_unicast(seed, trials: int, cfg: NetworkConfig) -> VerificationReport:
    schedule = unicast_schedule(cfg)  # slot t serves receiver t
    never_degenerate = lambda f, g, H: ((), np.zeros(len(g), dtype=bool))
    run = _TrialRun(seed, trials, (len(schedule), cfg.M, cfg.K), never_degenerate,
                    (len(schedule),), schedule, ranks=(1, 0, 1), reads_H=False)
    def check(start, f, g, _, syms):
        coeff = np.stack([{"ue": g, "rn": f}[kind][:, t, i - 1]
                          for t, (kind, i) in enumerate(schedule)], axis=-1)
        # each trial's worst receiver
        errors = (np.abs((coeff * syms) / coeff - syms) / np.abs(syms)).max(axis=1)
        run.fold(start, [errors],
                 [(errors > DECODE_ERROR_MAX, lambda i: f"decode error {errors[i]:.3e}")])
    run.each_block(check)
    return run.report(accounting(cfg.M, cfg.K)["unicast"])


def _verify_miso(seed, trials: int, cfg: NetworkConfig, tol: float):
    groups = user_groups(cfg.M, cfg.K)

    def solve(f, g, H):
        beamformers, cross, degenerate = miso_zf_plan(g, H, tol)
        return (*beamformers, cross), degenerate

    # the complex (M + 1) x |group| beamformers and the K real cross gains
    held = (np.dtype(complex).itemsize * (cfg.M + 1) * cfg.K
            + np.dtype(float).itemsize * cfg.K)
    run = _TrialRun(seed, trials, (len(groups), cfg.M, cfg.K), solve, tuple(map(len, groups)),
                    receivers(0, cfg.K), ranks=(1, 0, 1), held=held)  # the users alone
    def check(start, _, g, H, *rest):  # rest: the symbol groups, the beamformers, cross
        symbols, beamformers, cross = rest[:len(groups)], rest[len(groups):-1], rest[-1]
        nulling = np.fmax.reduce(cross, axis=-1)
        checks: list = [
            (nulling > ZF_RESIDUAL_MAX, lambda i: f"nulling residual {nulling[i]:.3e}")
        ]
        errors = []
        for t, (group, W, s) in enumerate(zip(groups, beamformers, symbols)):
            rows = user_rows(g[:, t], H[:, t], group)
            direct = np.diagonal(rows @ W, axis1=-2, axis2=-1)
            err = (np.abs((rows @ (W @ s[..., None]))[..., 0] / direct - s).max(axis=-1)
                   / np.abs(s).max(axis=-1))
            errors.append(err)
            checks.append((err > DECODE_ERROR_MAX, lambda i, group=group, err=err:
                           f"group {group} decode error {err[i]:.3e}"))
        run.fold(start, errors, checks,
                 residuals=np.stack([cross.T, np.zeros_like(cross.T)], axis=-1))
    run.each_block(check)
    return run.report(accounting(cfg.M, cfg.K)["miso-zf"])


def verify_corner(seed, trials: int, cfg: NetworkConfig,
                  tol: float = DEGENERACY_TOL) -> VerificationReport:
    """Verify the extremal-cache schemes: unicasting at mu = 0 (one slot
    per receiver of unicast_schedule, so NDT K + M; decoding is a scalar
    division) or MISO zero-forcing at mu = 1 (NDT max{K/(M+1), 1},
    cross-user gains must vanish to tolerance). The report's NDT and DoF
    are the scheme's point in layout.accounting, as the catalog's are."""
    check_tol(tol)
    if cfg.mu == 0:
        return _verify_unicast(seed, trials, cfg)
    if cfg.mu == 1:
        return _verify_miso(seed, trials, cfg, tol)
    raise ValueError(f"corner verification needs mu in {{0, 1}}, got {cfg.mu}")


def finite_snr_rates(seed, snr_db_list: list[float], trials: int) -> list[RateEstimate]:
    """Finite-SNR rates of the M = 1, K = 3 scheme and their DoF slopes.

    For each channel draw, each user's rate is the log-det mutual
    information of its interference-projected 5x5 system at symbol power
    P; the relay's is the scalar-channel rate of eta_{4,5} after cache
    cancellation and projection. Rates are averaged over ``trials``
    draws and, per receiver, a least-squares slope of rate versus
    log2(P) is fitted across all SNR points. Requires at least 3 finite
    SNR points spanning at least 20 dB, whose mean rates and slopes come
    out finite (in practice, below about 3000 dB). A trial that runs out
    of redraws raises VerificationFailure with the estimates of the
    trials before it.
    """
    if len(snr_db_list) < 3:
        raise ValueError("need at least 3 SNR points")
    try:  # a NaN or infinite point fails too, and so does a power that underflows to 0
        finite = all(0 < 10.0 ** (x / 10.0) < math.inf for x in snr_db_list)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"SNR points must have a finite, positive power 10**(dB/10), "
                         f"got {list(snr_db_list)}")
    if max(snr_db_list) - min(snr_db_list) < 20:
        raise ValueError("SNR points must span at least 20 dB")

    snrs = np.array(snr_db_list, dtype=float)
    powers = 10.0 ** (snrs / 10.0)
    labels = ["ue1", "ue2", "ue3", "rn"]
    totals = np.zeros((len(labels), len(snrs)))
    others = [n for n in range(len(UNCACHED)) if n != ETA45]

    run = _TrialRun(seed, trials, (T_SLOTS, 1, 3), _solve_m1k3(DEGENERACY_TOL), held=_M1K3_HELD)
    done = 0
    def check(start, f, g, H, nu, beta):
        nonlocal done
        received = effective_channel_matrix(nu, beta, f, g, H[..., 0])
        rates = np.empty((len(nu), len(labels), len(snrs)))
        for k in range(3):  # as in verify_m1k3, _ue_rates' argument is the matrix's only reference
            rates[:, k] = _ue_rates(k, next(received), powers)
        cancelled = rn_cache_cancel(next(received))
        u = np.linalg.svd(cancelled[..., others])[0]
        geff = u[..., len(others):].conj().swapaxes(-1, -2) @ cancelled[..., ETA45, None]
        gains = np.real(geff.conj().swapaxes(-1, -2) @ geff)[:, 0, 0]
        rates[:, 3] = np.log2(1.0 + np.multiply.outer(gains, powers)) / T_SLOTS
        # sequential over trials, as np.sum's pairwise order would depend on the block size
        totals[:] = np.add.accumulate(np.concatenate([totals[None], rates]), axis=0)[-1]
        done += len(nu)

    # a power near the float limit overflows the rates: rejected below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        run.each_block(check)
        x = np.log2(powers)
        x -= x.mean()
        y = totals / max(done, 1)
        slopes = (x * (y - y.mean(axis=1, keepdims=True))).sum(axis=1) / np.sum(x ** 2)
    if not (np.isfinite(y).all() and np.isfinite(slopes).all()):
        raise ValueError(f"SNR points must give finite rates, got {list(snr_db_list)}")
    estimates = [RateEstimate(r, float(snr), float(rate), float(slope))
                 for r, row, slope in zip(labels, y, slopes) if done
                 for snr, rate in zip(snrs, row)]
    if run.first_failure:
        raise VerificationFailure(run.first_failure, estimates)
    return estimates
