"""Truncated sequence calculus for the update maps.

Bi-infinite sequences are represented by finite windows of log-values.  The
map update computes the three outputs D (the updated sequence), S (the
running ratio sequence) and R (the dual weight sequence) from a weight
window W and an input window I.  Truncation is handled by a burn-in: the
seed of the S recursion is forgotten geometrically at rate given by the gap
of Cesaro means, so outputs are only reported past a left margin.

update_raw, the one home of the update step for one row, also serves
busemann's row evolution and grsk's row insertion; _update_step advances
busemann's anti-diagonal sweep, and last_i_tilde gives cif the last
column of a stack of independent rows.  The same forgetting lets
update_raw sweep a long row's blocks together as lanes, each started
from a guess two burn-ins before its block: once a lane's value has the
bits of its predecessor's, it keeps them, and a lane whose seam does not
match is rerun by the Python-float loop, so every row gets the loop's
bits.  _log_step is the one vector step of the J and I~ recursions, and
_serial_j the one Python-float J step.  burn_in, the one home of the
burn-in rule, needs only Cesaro means.  Also provided: the inverse
H of the update, the iterated map and the intertwining tuple map with its
inverse, and the parallel and sequential one-step transformations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special_functions import _LIBM_VECTOR, Rng, _log1p_exp, digamma, sample_inverse_gamma

__all__ = [
    "LogSeqWindow",
    "SeqTuple",
    "UpdateOutput",
    "NotInImage",
    "CesaroOrderViolated",
    "cesaro_mean",
    "burn_in",
    "daop_reach",
    "ig_window",
    "update",
    "update_raw",
    "last_i_tilde",
    "inverse_h",
    "d_iterated",
    "daop",
    "haop",
    "parallel_step",
    "sequential_step",
]

# Gaps below this are treated as a violated Cesaro ordering.
_GAP_TOL = 1e-8
# Seed errors decay like exp(-2 k gap); 40 / gap pushes them below 1e-17.
_BURN_IN_RATE = 40.0
# Sites per chunk of a single-row update_raw: one list of Python floats
# for the J loop and one vector step for I~.
_CHUNK = 1024
# Sites per chunk of a seam repair: the loop stops at the first chunk end
# where it reproduces the lane's bits.
_REPAIR_CHUNK = 32
# The lane sweep's cost model, in lane-sites (one lane's share of a
# column step, about 30 ns): a column step's fixed cost, its numpy calls,
# and one site of the Python-float loop.  Fitted to 8,000- to 64,000-site
# rows on a 2-core x86-64 host with numpy 2.4.
_COLUMN_COST = 128
_SERIAL_COST = 8
# Rows shorter than this run the Python-float loop: on stationary
# alpha = 2, rho = 1 rows (overlap 80) the two cross between 4,000 and
# 5,000 sites.
_LANE_MIN = 5000


@dataclass(frozen=True)
class LogSeqWindow:
    """Window of log-values of a positive sequence on indices [lo, hi]."""

    lo: int
    hi: int
    values: np.ndarray
    cesaro_hint: float | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        if self.hi < self.lo:
            raise ValueError(f"empty window: [{self.lo}, {self.hi}]")
        if vals.shape != (self.hi - self.lo + 1,):
            raise ValueError(
                f"values length {vals.shape} does not match [{self.lo}, {self.hi}]"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("window values must be finite")

    def restrict(self, lo: int, hi: int) -> "LogSeqWindow":
        if lo < self.lo or hi > self.hi:
            raise ValueError(f"[{lo}, {hi}] is not inside [{self.lo}, {self.hi}]")
        return LogSeqWindow(
            lo=lo,
            hi=hi,
            values=self.values[lo - self.lo : hi - self.lo + 1],
            cesaro_hint=self.cesaro_hint,
        )


@dataclass(frozen=True)
class SeqTuple:
    """Ordered tuple of windows sharing one index range."""

    windows: tuple[LogSeqWindow, ...]

    def __post_init__(self):
        wins = tuple(self.windows)
        object.__setattr__(self, "windows", wins)
        if not wins:
            raise ValueError("need at least one window")
        lo, hi = wins[0].lo, wins[0].hi
        for w in wins[1:]:
            if (w.lo, w.hi) != (lo, hi):
                raise ValueError("tuple components must share one index range")

    @property
    def lo(self) -> int:
        return self.windows[0].lo

    @property
    def hi(self) -> int:
        return self.windows[0].hi

    def __len__(self) -> int:
        return len(self.windows)

    def restrict(self, lo: int, hi: int) -> "SeqTuple":
        return SeqTuple(tuple(w.restrict(lo, hi) for w in self.windows))


@dataclass(frozen=True)
class UpdateOutput:
    """The three update outputs, valid on one common range."""

    i_tilde: LogSeqWindow
    j: LogSeqWindow
    w_tilde: LogSeqWindow


def cesaro_mean(i: LogSeqWindow) -> float:
    """Window estimate of the Cesaro mean of the log-sequence."""
    if i.hi - i.lo + 1 < 2:
        raise ValueError("window length must be at least 2")
    return float(np.mean(i.values))


def _cesaro(i: LogSeqWindow) -> float:
    if i.cesaro_hint is not None:
        return float(i.cesaro_hint)
    return cesaro_mean(i)


class CesaroOrderViolated(ValueError):
    """Two Cesaro means out of order, or too close for a finite burn-in."""


def burn_in(c_w: float, c_i: float) -> int:
    """Left margin past which the S-seed is forgotten, from the W and I means."""
    gap = c_i - c_w
    if not gap > _GAP_TOL:
        raise CesaroOrderViolated(
            f"Cesaro order violated: c(I) - c(W) = {gap:.3e} must be positive"
        )
    return math.ceil(_BURN_IN_RATE / gap)


def ig_window(rng: Rng, shape: float, lo: int, hi: int) -> LogSeqWindow:
    """Logs of inverse-gamma(shape) draws on [lo, hi], hinted -digamma(shape)."""
    vals = np.log(sample_inverse_gamma(rng, shape, size=hi - lo + 1))
    return LogSeqWindow(lo, hi, vals, cesaro_hint=-digamma(shape))


def _update_step(both: np.ndarray, scratch: np.ndarray, log_w, log_it, log_j) -> None:
    """One column k of the update recursion for a vector of independent rows.

    On entry the first half of ``both``, a contiguous array, holds
    d = log I_k - log J_{k-1}, one entry per row; ``both`` and ``scratch``,
    a separate array of its size, are then scratch.  Writes
    log I~_k = log W_k + log1p(exp(min(d, 700))) into log_it and
    log J_k = log W_k + log1p(exp(min(-d, 700))) into log_j, with libm's
    exp and log1p in place (_log1p_exp), so every element has the bits of
    update_raw's row loop and the step allocates nothing.
    """
    size = both.shape[0] // 2
    np.negative(both[:size], out=both[size:])
    np.minimum(both, 700.0, out=both)
    _log1p_exp(both, scratch)
    np.add(both[:size], log_w, out=log_it)
    np.add(both[size:], log_w, out=log_j)


def _log_step(a, b, log_w, out, d: np.ndarray, scratch: np.ndarray) -> None:
    """out = log_w + log1p(exp(min(a - b, 700))), elementwise over a column.

    The vector form of both steps of the row recursion: J_k from a =
    log J_{k-1}, b = log I_k, and I~_k from a = log I_k, b = log J_{k-1}.
    d and scratch are contiguous float64 arrays of the column's size; out
    may be d.  libm's exp and log1p in place (_log1p_exp) give every
    element the bits of the Python-float loop, _serial_j.
    """
    np.subtract(a, b, out=d)
    np.minimum(d, 700.0, out=d)
    _log1p_exp(d, scratch)
    np.add(log_w, d, out=out)


def _serial_j(log_w: np.ndarray, log_i: np.ndarray, prev: float, log_j: np.ndarray,
              chunk: int = _CHUNK, repair: bool = False) -> None:
    """The J recursion from log J_{-1} = prev into log_j, as Python floats.

    The one Python-float J step, on local names without numpy scalar
    boxing, a chunk of sites per list; "700.0 if d > 700.0 else d" is
    min(d, 700.0), NaN kept.  With repair, log_j already holds a lane's
    values, and the loop stops at the first chunk end where it reproduces
    their bits: the step is a function of (J_{k-1}, W_k, I_k), so from
    there on they agree.
    """
    exp, log1p = math.exp, math.log1p
    bits = log_j.view(np.uint64)
    for lo in range(0, log_w.shape[0], chunk):
        hi = min(lo + chunk, log_w.shape[0])
        end, js = bits[hi - 1], []
        for wk, ik in zip(log_w[lo:hi].tolist(), log_i[lo:hi].tolist()):
            d = prev - ik
            prev = wk + log1p(exp(700.0 if d > 700.0 else d))
            js.append(prev)
        log_j[lo:hi] = js
        if repair and bits[hi - 1] == end:
            return


def _fixed_point(log_w, c_w: float, c_i: float):
    """log of J = W I / (I - W) at W = exp(log_w) and I at its Cesaro mean,
    the fixed point of the J recursion; log_w may be an array."""
    return log_w + c_i - (c_i + math.log1p(-math.exp(c_w - c_i)))


def _lane_plan(log_w: np.ndarray, log_i: np.ndarray):
    """(block, overlap, c_w, c_i) of the lane sweep of a row, or None.

    None leaves the row to the Python-float loop: rows below _LANE_MIN,
    rows with a non-finite mean or without a positive Cesaro gap, hosts
    without vector libm calls, and rows where the cost model puts the
    lanes behind the loop.  Each lane starts overlap = 2 * burn_in sites
    before its block; the block is at least that long and otherwise
    minimises the modelled cost, (overlap + block) * (_COLUMN_COST + lanes).
    """
    n = log_w.shape[0]
    if n < _LANE_MIN or not _LIBM_VECTOR:
        return None
    c_w, c_i = float(np.mean(log_w)), float(np.mean(log_i))
    if not (math.isfinite(c_w) and math.isfinite(c_i) and c_i - c_w > _GAP_TOL):
        return None
    overlap = 2 * burn_in(c_w, c_i)
    block = max(overlap, math.isqrt(overlap * n // _COLUMN_COST))
    lanes = -(-n // block)
    if lanes < 2 or (overlap + block) * (_COLUMN_COST + lanes) >= _SERIAL_COST * n:
        return None
    return block, overlap, c_w, c_i


def _lane_j(log_w: np.ndarray, log_i: np.ndarray, seed: float, log_j: np.ndarray,
            plan) -> int:
    """The J recursion of a row into log_j in lanes; returns the seams repaired.

    plan is _lane_plan's (block, overlap, c_w, c_i).  Lane b holds block b
    of the row, sites [b * block, (b + 1) * block).  Lane 0 starts from
    the seed; lane b > 0 from the fixed-point guess at the Cesaro means,
    overlap (<= block) sites before its block.  All lanes advance
    together, one _log_step per column over strided views, so the sweep
    adds only O(lanes) scratch.  At the last overlap site each lane's
    value is compared with its predecessor's on uint64 views; where they
    differ, _serial_j reruns the block from the predecessor's exact value
    until it reproduces the lane's bits, so log_j has the bits of the
    loop.  A repair that changes its block's last value makes the next
    lane's seam compare again.
    """
    n = log_w.shape[0]
    block, overlap, c_w, c_i = plan
    lanes = -(-n // block)
    state = np.empty(lanes)
    state[0] = seed
    start, rest = block - overlap, lanes - 1
    state[1:] = _fixed_point(log_w[start::block][:rest], c_w, c_i)
    d, scratch = np.empty(lanes), np.empty(lanes)
    guess = state[1:]
    for c in range(start, block):
        col = slice(c, c + rest * block, block)
        _log_step(guess, log_i[col], log_w[col], guess, d[1:], scratch[1:])
    prev = state
    for c in range(block):
        if c == n - rest * block:  # the last lane's block has ended
            prev, d, scratch = prev[:rest], d[:rest], scratch[:rest]
        col = slice(c, None, block)
        out = log_j[col]
        _log_step(prev, log_i[col], log_w[col], out, d, scratch)
        prev = out
    seam = state[1:].view(np.uint64)
    bits = log_j.view(np.uint64)
    repairs, done = 0, 0
    for b in (np.flatnonzero(seam != bits[block - 1::block][:lanes - 1]) + 1).tolist():
        while b > done:
            lo, hi = b * block, min((b + 1) * block, n)
            end = bits[hi - 1]
            _serial_j(log_w[lo:hi], log_i[lo:hi], float(log_j[lo - 1]), log_j[lo:hi],
                      _REPAIR_CHUNK, repair=True)
            repairs, done = repairs + 1, b
            if bits[hi - 1] == end or b + 1 == lanes:
                break
            b += 1
            if seam[b - 1] == bits[hi - 1]:
                done = b
    return repairs


def update_raw(
    log_w: np.ndarray, log_i: np.ndarray, log_j_seed: float
) -> tuple[np.ndarray, np.ndarray]:
    """One-pass update recursion along one row, without windowing or burn-in.

    Given log W_k and log I_k for k = 0..n-1 and the seed log J_{-1},
    returns log J_k for k = 0..n-1 together with log I~_k, which uses
    J_{k-1} and therefore also covers k = 0..n-1 (k = 0 uses the seed).
    The identity 1/I~_k + 1/J_k = 1/W_k holds exactly.  The J recursion
    runs in lanes over blocks of a long row (_lane_j), and as a
    Python-float loop (_serial_j) on the rows _lane_plan leaves to it;
    both give the loop's bits.  I~ then follows in vector steps.
    """
    log_w = np.asarray(log_w, dtype=np.float64)
    log_i = np.asarray(log_i, dtype=np.float64)
    if log_w.ndim != 1 or log_i.shape != log_w.shape:
        raise ValueError("weight and input shapes must match and be (n,)")
    n = log_w.shape[0]
    log_j = np.empty(n)
    log_it = np.empty(n)
    seed = float(log_j_seed)
    plan = _lane_plan(log_w, log_i)
    if plan:
        _lane_j(log_w, log_i, seed, log_j, plan)
    else:
        _serial_j(log_w, log_i, seed, log_j)
    d, scratch = np.empty(min(n, _CHUNK)), np.empty(min(n, _CHUNK))
    _log_step(log_i[:1], seed, log_w[:1], log_it[:1], d[:1], scratch[:1])
    for lo in range(1, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        _log_step(log_i[lo:hi], log_j[lo - 1:hi - 1], log_w[lo:hi], log_it[lo:hi],
                  d[:hi - lo], scratch[:hi - lo])
    return log_j, log_it


def last_i_tilde(log_w: np.ndarray, log_i: np.ndarray, log_j_seed: np.ndarray) -> np.ndarray:
    """log I~ at the last column of each row of a (rows, n) stack, n >= 1.

    Row r is an independent update recursion with seed log_j_seed[r];
    the result has the bits of update_raw(log_w[r], log_i[r],
    log_j_seed[r])[1][-1].  Only the J recursion runs over columns
    0..n-2, one _log_step over the rows per column, and one I~ step at
    column n - 1 follows.
    """
    log_w = np.asarray(log_w, dtype=np.float64)
    log_i = np.asarray(log_i, dtype=np.float64)
    if log_w.ndim != 2 or log_i.shape != log_w.shape or log_w.shape[1] < 1:
        raise ValueError("weight and input shapes must match and be (rows, n), n >= 1")
    rows, n = log_w.shape
    d, scratch = np.empty(rows), np.empty(rows)
    prev = np.full(rows, log_j_seed, dtype=np.float64)
    for k in range(n - 1):
        _log_step(prev, log_i[:, k], log_w[:, k], prev, d, scratch)
    _log_step(log_i[:, n - 1], prev, log_w[:, n - 1], d, d, scratch)
    return d


def update(w: LogSeqWindow, i: LogSeqWindow) -> UpdateOutput:
    """Apply the update map to a weight window and an input window.

    The S recursion is J_k = W_k (1 + J_{k-1} / I_k), seeded at index lo
    with the fixed point of the recursion at the Cesaro means; the D and R
    outputs are I~_k = W_k (1 + I_k / J_{k-1}) and
    1/W~_k = 1/I_k + 1/J_{k-1}.  All three are reported on
    [valid_lo, hi], valid_lo = lo + burn_in at the two Cesaro means, past
    which the seed's influence is below roundoff.
    """
    if (w.lo, w.hi) != (i.lo, i.hi):
        raise ValueError("weight and input windows must share one index range")
    cw, ci = _cesaro(w), _cesaro(i)
    cut = burn_in(cw, ci)
    if cut >= w.hi - w.lo:
        raise ValueError(
            f"window too short: burn-in {cut} leaves no valid range in "
            f"[{w.lo}, {w.hi}]"
        )
    # The seed plays the role of J at index lo - 1, so outputs at index lo
    # already use it; J at lo is the first recursion output.  It is the
    # fixed point J = W I / (I - W) of the recursion at the Cesaro means.
    seed = _fixed_point(float(w.values[0]), cw, ci)
    log_j, log_it = update_raw(w.values, i.values, seed)
    # log W~ = -logaddexp(-log I, -log J_{k-1}), built in its own buffer.
    log_wt = np.empty(log_j.shape)
    log_wt[0] = seed
    log_wt[1:] = log_j[:-1]
    np.negative(log_wt, out=log_wt)
    np.logaddexp(np.negative(i.values), log_wt, out=log_wt)
    np.negative(log_wt, out=log_wt)
    valid_lo = w.lo + cut
    return UpdateOutput(
        i_tilde=LogSeqWindow(valid_lo, w.hi, log_it[cut:], cesaro_hint=ci),
        j=LogSeqWindow(valid_lo, w.hi, log_j[cut:], cesaro_hint=None),
        w_tilde=LogSeqWindow(valid_lo, w.hi, log_wt[cut:], cesaro_hint=cw),
    )


class NotInImage(ValueError):
    """An inverse's input lies outside the image of the map it inverts."""


def inverse_h(w: LogSeqWindow, i_tilde: LogSeqWindow) -> LogSeqWindow:
    """Invert the D output given the weight window.

    Recovers I_k = ((I~_k - W_k) / W_k) (W_{k-1} I~_{k-1} / (I~_{k-1} -
    W_{k-1})) on [lo + 1, hi]; raises NotInImage unless I~_k > W_k everywhere.
    """
    if (w.lo, w.hi) != (i_tilde.lo, i_tilde.hi):
        raise ValueError("windows must share one index range")
    # log(I~ - W) = log I~ + log1p(-exp(log W - log I~)), in place from
    # the difference.
    log_gap = np.subtract(i_tilde.values, w.values)
    if np.any(log_gap <= 0.0):
        raise NotInImage("not in image: need I~ > W at every index")
    np.negative(log_gap, out=log_gap)
    np.exp(log_gap, out=log_gap)
    np.negative(log_gap, out=log_gap)
    np.log1p(log_gap, out=log_gap)
    np.add(i_tilde.values, log_gap, out=log_gap)
    vals = np.subtract(log_gap[1:], w.values[1:])
    vals += w.values[:-1]
    vals += i_tilde.values[:-1]
    vals -= log_gap[:-1]
    return LogSeqWindow(w.lo + 1, w.hi, vals, cesaro_hint=i_tilde.cesaro_hint)


def _check_increasing(inputs: SeqTuple) -> None:
    means = [_cesaro(w) for w in inputs.windows]
    for a, b in zip(means, means[1:]):
        if b - a <= _GAP_TOL:
            raise CesaroOrderViolated(
                "Cesaro order violated: component means must be strictly increasing"
            )


def d_iterated(inputs: SeqTuple) -> LogSeqWindow:
    """Right-fold of the update map's D output over the tuple components."""
    _check_increasing(inputs)
    acc = inputs.windows[-1]
    for w in reversed(inputs.windows[:-1]):
        acc = update(w.restrict(acc.lo, acc.hi), acc).i_tilde
    return acc


def daop(inputs: SeqTuple) -> SeqTuple:
    """Intertwining tuple map: component i is the i-fold iterated D.

    Components are restricted to the common valid range of the deepest
    composition.
    """
    _check_increasing(inputs)
    comps = [d_iterated(SeqTuple(inputs.windows[: i + 1])) for i in range(len(inputs))]
    lo = max(c.lo for c in comps)
    return SeqTuple(tuple(c.restrict(lo, inputs.hi) for c in comps))


def daop_reach(hints) -> int:
    """Burn-ins daop spends from the left end of inputs with these Cesaro hints.

    Component k updates input k with each input j < k; outputs keep k's hint.
    """
    return max(sum(burn_in(c_w, c_i) for c_w in hints[:k])
               for k, c_i in enumerate(hints))


def haop(inputs: SeqTuple) -> SeqTuple:
    """Left inverse of daop: peels the components with inverse_h level by
    level, keeping each level's head and only the level being peeled."""
    heads, level = [], inputs.windows
    while len(level) > 1:
        heads.append(level[0])
        level = [inverse_h(level[0], x) for x in level[1:]]
    last = level[0]
    return SeqTuple(tuple(h.restrict(last.lo, last.hi) for h in heads) + (last,))


def parallel_step(w: LogSeqWindow, state: SeqTuple) -> SeqTuple:
    """Apply the update with one common weight window to every component."""
    outs = [update(w.restrict(state.lo, state.hi), comp).i_tilde for comp in state.windows]
    lo = max(o.lo for o in outs)
    return SeqTuple(tuple(o.restrict(lo, state.hi) for o in outs))


def sequential_step(w: LogSeqWindow, state: SeqTuple) -> SeqTuple:
    """Apply the update with weights passed along the components.

    Component 1 is updated with W itself; component i + 1 is updated with
    the R output of the i-th update.
    """
    cur_w = w
    outs = []
    for comp in state.windows:
        out = update(cur_w, comp.restrict(cur_w.lo, cur_w.hi))
        outs.append(out.i_tilde)
        cur_w = out.w_tilde
    lo = max(o.lo for o in outs)
    return SeqTuple(tuple(o.restrict(lo, state.hi) for o in outs))
