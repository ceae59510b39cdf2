"""Geometric row insertion and triangular arrays.

The finite side: insertion of a word into a word, which is the update
map's S recursion, and of a word into a fully triangular array, carried
out exactly in the log domain.  The column entries z_{k1} of the evolving
array are polymer partition functions with the initial weight included.

The sequence side: the triangular array of windows built from the update
maps, whose diagonal reproduces the intertwining tuple map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seqmaps import LogSeqWindow, SeqTuple, burn_in, update, update_raw

__all__ = [
    "Word",
    "FullArray",
    "TriangularArray",
    "row_insert",
    "array_insert",
    "build_triangular",
    "triangular_reach",
]


@dataclass(frozen=True)
class Word:
    """Finite word (b_start, ..., b_end) of positive reals stored as logs."""

    start: int
    entries: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.entries, dtype=np.float64)
        object.__setattr__(self, "entries", vals)
        if vals.ndim != 1:
            raise ValueError("word entries must be a 1-d array")
        if not np.all(np.isfinite(vals)):
            raise ValueError("word entries must be finite logs")

    def __len__(self) -> int:
        return self.entries.shape[0]

    @property
    def is_empty(self) -> bool:
        return len(self) == 0


@dataclass(frozen=True)
class FullArray:
    """Fully triangular array z_{k ell}, 1 <= ell <= k <= n, in logs.

    Column ell is stored as the array (z_{ell,ell}, ..., z_{n,ell}).
    """

    n: int
    cols: tuple[np.ndarray, ...]

    def __post_init__(self):
        cols = tuple(np.asarray(c, dtype=np.float64) for c in self.cols)
        object.__setattr__(self, "cols", cols)
        if len(cols) != self.n:
            raise ValueError(f"need {self.n} columns, got {len(cols)}")
        for ell, c in enumerate(cols, start=1):
            if c.shape != (self.n - ell + 1,):
                raise ValueError(f"column {ell} must have length {self.n - ell + 1}")
            if not np.all(np.isfinite(c)):
                raise ValueError("array cells must be finite logs")

    def cell(self, k: int, ell: int) -> float:
        """Log of z_{k ell}."""
        if not (1 <= ell <= k <= self.n):
            raise ValueError(f"cell ({k}, {ell}) outside the triangle")
        return float(self.cols[ell - 1][k - ell])


@dataclass(frozen=True)
class TriangularArray:
    """Windows X^{i,j} and V^{i,j} for 1 <= j <= i <= N on a shared range."""

    x_cells: dict[tuple[int, int], LogSeqWindow]
    v_cells: dict[tuple[int, int], LogSeqWindow]


def row_insert(xi: Word, b: Word) -> tuple[Word, Word]:
    """Insert word b into word xi.

    Writing ell for the common start index and N for the last index:
    xi'_ell = b_ell xi_ell; xi'_k = b_k (xi'_{k-1} + xi_k) for k > ell;
    b'_k = b_k xi_k xi'_{k-1} / (xi_{k-1} xi'_k) for k > ell.  The output
    word b' starts at ell + 1 and is one entry shorter (empty for
    length-1 inputs).  xi' is the S output J of the update recursion with
    W = b xi, I = xi and J_{ell-1} = 0, so update_raw computes it; its
    clamp caps log xi'_{k-1} - log xi_k at 700.
    """
    if xi.start != b.start or len(xi) != len(b):
        raise ValueError(
            f"word mismatch: ({xi.start}, len {len(xi)}) vs ({b.start}, len {len(b)})"
        )
    if xi.is_empty:
        raise ValueError("cannot insert into an empty word")
    out, _ = update_raw(b.entries + xi.entries, xi.entries, -np.inf)
    bumped = (
        b.entries[1:] + xi.entries[1:] + out[:-1] - xi.entries[:-1] - out[1:]
    )
    return Word(xi.start, out), Word(xi.start + 1, bumped)


def array_insert(z: FullArray, b: Word) -> FullArray:
    """Insert a length-n word into a fully triangular array.

    The word is row-inserted into the first column; the bumped word is
    inserted into the second column, and so on until the bumped word is
    empty.  With all-ones inputs the first column counts lattice paths.
    """
    if b.start != 1 or len(b) != z.n:
        raise ValueError(f"word must start at 1 with length {z.n}")
    cur = b
    new_cols = []
    for ell in range(1, z.n + 1):
        col = Word(ell, z.cols[ell - 1])
        new_col, cur = row_insert(col, cur)
        new_cols.append(new_col.entries)
    if not cur.is_empty:
        raise ValueError("insertion did not terminate with an empty word")
    return FullArray(z.n, tuple(new_cols))


def build_triangular(inputs: SeqTuple) -> TriangularArray:
    """Build the update-map triangular array over a tuple of windows.

    X^{i,1} = I^i; X^{i,j} = D(V^{i-1,j-1}, X^{i,j-1}) and V^{i,j-1} =
    R(V^{i-1,j-1}, X^{i,j-1}) for 2 <= j <= i; V^{i,i} = X^{i,i}.  The
    diagonal X^{i,i} reproduces component i of the intertwining tuple map.
    Windows shrink by one burn-in per column step; all cells are returned
    restricted to the final common range.
    """
    n = len(inputs)
    x: dict[tuple[int, int], LogSeqWindow] = {}
    v: dict[tuple[int, int], LogSeqWindow] = {}
    x[1, 1] = inputs.windows[0]
    v[1, 1] = inputs.windows[0]
    for i in range(2, n + 1):
        x[i, 1] = inputs.windows[i - 1]
        for j in range(2, i + 1):
            w_win = v[i - 1, j - 1]
            i_win = x[i, j - 1]
            lo = max(w_win.lo, i_win.lo)
            out = update(w_win.restrict(lo, w_win.hi), i_win.restrict(lo, i_win.hi))
            x[i, j] = out.i_tilde
            v[i, j - 1] = out.w_tilde
        v[i, i] = x[i, i]
    lo = max(w.lo for w in list(x.values()) + list(v.values()))
    hi = inputs.hi
    x = {k: w.restrict(lo, hi) for k, w in x.items()}
    v = {k: w.restrict(lo, hi) for k, w in v.items()}
    return TriangularArray(x_cells=x, v_cells=v)


def triangular_reach(hints) -> int:
    """Burn-ins build_triangular spends from the left end of inputs with these
    Cesaro hints: cell (i, j) updates X^{i,j-1}, of input i's hint, with
    V^{i-1,j-1}, of input j - 1's, and cell (N, N) starts furthest right.
    """
    v_lo, x_lo = [0], 0
    for i in range(2, len(hints) + 1):
        row, x_lo = [], 0
        for j in range(2, i + 1):
            x_lo = max(v_lo[j - 2], x_lo) + burn_in(hints[j - 2], hints[i - 1])
            row.append(x_lo)
        v_lo = row + [x_lo]
    return x_lo
