"""Brute-force reference computation.

Exponential-cost sums over lattice paths, used as the oracle for the
geometric RSK array: the disjoint-path partition functions that seed a
triangular array.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import grsk


def _paths_between(start, end):
    (r0, c0), (r1, c1) = start, end
    if r1 < r0 or c1 < c0:
        return []
    out = []
    for comb in itertools.combinations(range((r1 - r0) + (c1 - c0)), r1 - r0):
        cells = [(r0, c0)]
        rr, cc = r0, c0
        for s in range((r1 - r0) + (c1 - c0)):
            if s in comb:
                rr += 1
            else:
                cc += 1
            cells.append((rr, cc))
        out.append(tuple(cells))
    return out


def brute_force_ratio_array(weights: np.ndarray, n: int) -> grsk.FullArray:
    """Initial triangular array from disjoint-path partition functions.

    Cell (k, ell) is the ratio of the ell- and (ell-1)-tuple disjoint
    path sums from starting points (1, r) to endpoints (n, k - ell + r).
    Exponential cost; intended for n <= 4.
    """
    def tau(k, ell):
        if ell == 0:
            return 1.0
        groups = [
            _paths_between((1, r), (n, k - ell + r)) for r in range(1, ell + 1)
        ]
        total = 0.0
        for combo in itertools.product(*groups):
            cells = [c for p in combo for c in p]
            if len(set(cells)) != len(cells):
                continue
            prod = 1.0
            for (rr, cc) in cells:
                prod *= weights[rr - 1, cc - 1]
            total += prod
        return total

    cols = []
    for ell in range(1, n + 1):
        col = [
            math.log(tau(k, ell)) - math.log(tau(k, ell - 1))
            for k in range(ell, n + 1)
        ]
        cols.append(np.array(col))
    return grsk.FullArray(n, tuple(cols))
