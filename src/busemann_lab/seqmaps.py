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
column of a stack of independent rows.  burn_in, the one home of the
burn-in rule, needs only Cesaro means.  Also provided: the inverse
H of the update, the iterated map and the intertwining tuple map with its
inverse, and the parallel and sequential one-step transformations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special_functions import Rng, _log1p_exp, digamma, sample_inverse_gamma

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


def update_raw(
    log_w: np.ndarray, log_i: np.ndarray, log_j_seed: float
) -> tuple[np.ndarray, np.ndarray]:
    """One-pass update recursion along one row, without windowing or burn-in.

    Given log W_k and log I_k for k = 0..n-1 and the seed log J_{-1},
    returns log J_k for k = 0..n-1 together with log I~_k, which uses
    J_{k-1} and therefore also covers k = 0..n-1 (k = 0 uses the seed).
    The identity 1/I~_k + 1/J_k = 1/W_k holds exactly.  The J recursion
    runs as a Python-float loop, which is faster for one long row than
    vector steps, and then I~ in vector steps.
    """
    log_w = np.asarray(log_w, dtype=np.float64)
    log_i = np.asarray(log_i, dtype=np.float64)
    if log_w.ndim != 1 or log_i.shape != log_w.shape:
        raise ValueError("weight and input shapes must match and be (n,)")
    n = log_w.shape[0]
    log_j = np.empty(n)
    log_it = np.empty(n)
    # The J recursion runs on Python floats and local names: the same libm
    # calls without numpy scalar boxing, in chunks so the float lists stay
    # small; "700.0 if d > 700.0 else d" is min(d, 700.0), NaN kept.  Each
    # chunk's I~ then needs only J, so it is one vector step.
    exp, log1p = math.exp, math.log1p
    prev = float(log_j_seed)
    scratch = np.empty(min(n, _CHUNK))
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        first, js = prev, []
        for wk, ik in zip(log_w[lo:hi].tolist(), log_i[lo:hi].tolist()):
            d = prev - ik
            prev = wk + log1p(exp(700.0 if d > 700.0 else d))
            js.append(prev)
        log_j[lo:hi] = js
        d = np.empty(hi - lo)
        d[0] = log_i[lo] - first
        np.subtract(log_i[lo + 1:hi], log_j[lo:hi - 1], out=d[1:])
        np.minimum(d, 700.0, out=d)
        _log1p_exp(d, scratch[:hi - lo])
        np.add(log_w[lo:hi], d, out=log_it[lo:hi])
    return log_j, log_it


def last_i_tilde(log_w: np.ndarray, log_i: np.ndarray, log_j_seed: np.ndarray) -> np.ndarray:
    """log I~ at the last column of each row of a (rows, n) stack, n >= 1.

    Row r is an independent update recursion with seed log_j_seed[r];
    the result has the bits of update_raw(log_w[r], log_i[r],
    log_j_seed[r])[1][-1].  Only the J recursion runs over columns
    0..n-2, one vector step over the rows per column, on min(J_{k-1} -
    I_k, 700): the exact negation of I~'s argument, and exp gives the
    same bits at -0 and +0.  One I~ step at column n - 1 follows.
    """
    log_w = np.asarray(log_w, dtype=np.float64)
    log_i = np.asarray(log_i, dtype=np.float64)
    if log_w.ndim != 2 or log_i.shape != log_w.shape or log_w.shape[1] < 1:
        raise ValueError("weight and input shapes must match and be (rows, n), n >= 1")
    rows, n = log_w.shape
    d, scratch = np.empty(rows), np.empty(rows)
    prev = np.full(rows, log_j_seed, dtype=np.float64)
    for k in range(n - 1):
        np.subtract(prev, log_i[:, k], out=d)
        np.minimum(d, 700.0, out=d)
        _log1p_exp(d, scratch)
        np.add(log_w[:, k], d, out=prev)
    np.subtract(log_i[:, n - 1], prev, out=d)
    np.minimum(d, 700.0, out=d)
    _log1p_exp(d, scratch)
    return np.add(log_w[:, n - 1], d, out=d)


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
    seed = float(w.values[0]) + ci - (ci + math.log1p(-math.exp(cw - ci)))
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
