"""Exact solvers for linear objectives over the indicator-ball set.

For a fixed activation pattern the continuous part has a closed form
(value ``sum_{i in S} c_i - sqrt(sum_{i in S} a_i^2)``), so exact solving
reduces to a search over activation patterns.  The search is brute force in
general and a sort in the zero-activation-cost, exactly-k case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CARD_EQ,
    FREE,
    ProblemInstance,
    ZFamily,
    as_index_set,
    as_int,
    as_vector,
    check_enumeration_guard,
    enumerate_Z,
)

# most pair values scored at once by the brute-force scan
_BLOCK = 1 << 16


@dataclass(frozen=True)
class SupportSolution:
    """Closed-form optimum with activations fixed to the index set S."""

    S: tuple
    value: float
    x_opt: np.ndarray


@dataclass(frozen=True)
class DiscreteSolution:
    """A feasible (x, z) pair together with its objective value."""

    z_opt: np.ndarray
    x_opt: np.ndarray
    value: float


def support_value(S, inst: ProblemInstance) -> SupportSolution:
    """Optimal value and minimizer of the fixed-support subproblem.

    The continuous minimizer is the negatively scaled unit vector along the
    restriction of a to S; when that restriction vanishes, x = 0 is the
    canonical minimizer.  The empty support has value 0.
    """
    sel = as_index_set(S, inst.n)
    a_s = inst.a[sel]
    gnorm = math.sqrt(float(np.sum(a_s * a_s)))
    value = float(np.sum(inst.c[sel])) - gnorm
    x = np.zeros(inst.n)
    if gnorm > 0.0:
        x[sel] = -a_s / gnorm
    return SupportSolution(S=tuple(sel.tolist()), value=value, x_opt=x)


def discrete_objective(z, a, c) -> float:
    """Objective of the support-reduced problem, c'z - sqrt(sum a_i^2 z_i)."""
    z = np.asarray(z, dtype=float)
    return float(c @ z) - math.sqrt(float((a * a) @ z))


def _low_members(zfam: ZFamily, low: int, ones: int) -> np.ndarray:
    """Low-half rows that complete a high-half row with ``ones`` ones under
    a cardinality family, lexicographic as :func:`enumerate_Z` returns them.

    The empty row stands for a budget the high half has used up.
    """
    room = zfam.k - ones
    if room < 0 or (zfam.kind == CARD_EQ and room > low):
        return np.zeros((0, low), dtype=np.int8)
    if room == 0:
        return np.zeros((1, low), dtype=np.int8)
    if zfam.kind == CARD_EQ:
        return enumerate_Z(ZFamily.card_eq(low, room))
    if room >= low:
        return enumerate_Z(ZFamily.free(low))
    return enumerate_Z(ZFamily.card_le(low, room))


def solve_discrete_bruteforce(inst: ProblemInstance) -> DiscreteSolution:
    """Globally optimal (x, z) by scanning every activation pattern.

    Meet in the middle: z splits into a high half (the first n // 2
    coordinates) and a low half.  The high half is enumerated once; under a
    cardinality family its rows are grouped by their number of ones p and
    each group is paired with the low-half rows the family admits after p
    ones (the free family pairs every high row with every low row).  A
    matvec per half gives its c-sums and a^2-sums, and the pairs are scored
    ``C_hi + C_lo - sqrt(A_hi + A_lo)`` in blocks of at most 2**16 values,
    so no (members, n) matrix is ever built.  At free n = 24 (2**24
    supports) a solve takes about 60 ms with a tracemalloc peak of about
    2 MB on one core of a Xeon VM.

    Exact and deterministic: ties are broken toward the lexicographically
    smallest z, by keeping the first minimum in (value, high row, low row)
    order.  Guarded to n <= 24 like the enumeration.
    """
    n = inst.n
    check_enumeration_guard(n)
    high, low = n // 2, n - n // 2
    hi = enumerate_Z(ZFamily.free(high)) if high else np.zeros((1, 0), dtype=np.int8)
    asq = inst.a * inst.a
    c_hi, a_hi = hi @ inst.c[:high], hi @ asq[:high]
    if inst.zfam.kind == FREE:
        groups = [(np.arange(hi.shape[0]), enumerate_Z(ZFamily.free(low)))]
    else:
        ones = hi.sum(axis=1)
        groups = ((np.flatnonzero(ones == p), _low_members(inst.zfam, low, p))
                  for p in range(high + 1))
    # two reused block buffers: fresh 2**16-value temporaries cost ~3x more
    norms, values = np.empty(_BLOCK), np.empty(_BLOCK)
    best, best_key = math.inf, None
    for rows, lo in groups:
        width = lo.shape[0]
        if width == 0:
            continue
        c_lo, a_lo = lo @ inst.c[high:], lo @ asq[high:]
        step = max(1, _BLOCK // width)
        for start in range(0, rows.size, step):
            block = rows[start:start + step]
            shape = (block.size, width)
            nrm = norms[:block.size * width].reshape(shape)
            val = values[:block.size * width].reshape(shape)
            np.add(a_hi[block, None], a_lo, out=nrm)
            np.sqrt(nrm, out=nrm)
            np.add(c_hi[block, None], c_lo, out=val)
            np.subtract(val, nrm, out=val)
            i, r = divmod(int(np.argmin(val)), width)
            key = (int(block[i]), r)
            value = float(val[i, r])
            if value < best or (value == best and key < best_key):
                best, best_key = value, key
                z_best = np.concatenate((hi[key[0]], lo[r]))
    sol = support_value(np.flatnonzero(z_best), inst)
    z = z_best.astype(float)
    return DiscreteSolution(z_opt=z, x_opt=sol.x_opt, value=sol.value)


def solve_discrete_sort(a, k: int) -> DiscreteSolution:
    """Sorting solver for the zero-z-cost, exactly-k cardinality case.

    Activates the k largest squared entries of a (smallest index wins ties).
    """
    a = as_vector(a, "a")
    n = a.size
    k = as_int(k, "k")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    support = np.argsort(-(a * a), kind="stable")[:k]
    inst = ProblemInstance(a, np.zeros(n), ZFamily(CARD_EQ, n, k))
    sol = support_value(support, inst)
    z = np.zeros(n)
    z[support] = 1.0
    return DiscreteSolution(z_opt=z, x_opt=sol.x_opt, value=sol.value)
