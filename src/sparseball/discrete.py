"""Exact solvers for linear objectives over the indicator-ball set.

For a fixed activation pattern the continuous part has a closed form
(value ``sum_{i in S} c_i - sqrt(sum_{i in S} a_i^2)``), so exact solving
reduces to a search over activation patterns.  The search is brute force in
general and a sort in the zero-activation-cost, exactly-k case.  Brute force
meets in the middle over the two halves of z.  Every square of a here is
taken on a divided by the power of two of :func:`core.to_unit`, so no
scale of finite data over- or underflows it.
"""

from __future__ import annotations

import math
import threading
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
    enumerate_Z,
    scale_back,
    to_unit,
)

# brute force enumerates each half of z, so it reaches twice the enumeration guard
BRUTEFORCE_GUARD = 24

# most pair values scored at once by the brute-force scan
_BLOCK = 1 << 16

# each thread's two _BLOCK-value scan buffers, made on its first solve and
# reused: fresh ones are page-faulted in on every solve, and a scan writes
# every value it reads, so nothing passes from one solve to the next
_scan_buffers = threading.local()


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
    canonical minimizer.  The empty support has value 0.  The norm of a_S is
    taken on a_S / 2**e (:func:`core.to_unit`), so no square over- or
    underflows.
    """
    sel = as_index_set(S, inst.n)
    e, u = to_unit(inst.a[sel])
    unorm = math.sqrt(float(np.sum(u * u)))
    value = float(np.sum(inst.c[sel])) - scale_back(unorm, e)
    x = np.zeros(inst.n)
    if unorm > 0.0:
        x[sel] = -u / unorm
    return SupportSolution(S=tuple(sel.tolist()), value=value, x_opt=x)


def _objective(z, a, c) -> float:
    """c'z - sqrt(sum a_i^2 z_i) as written, for (a, c) at unit scale."""
    z = np.asarray(z, dtype=float)
    return float(c @ z) - math.sqrt(float((a * a) @ z))


def discrete_objective(z, a, c) -> float:
    """Objective of the support-reduced problem, c'z - sqrt(sum a_i^2 z_i).

    Taken on (a, c) / 2**e (:func:`core.to_unit`) and scaled back, so no
    square over- or underflows.
    """
    e, a, c = to_unit(a, c)
    return scale_back(_objective(z, a, c), e)


def _low_members(zfam: ZFamily, low: int, ones: int) -> np.ndarray:
    """Low-half rows that complete a high-half row with ``ones`` ones under
    a cardinality family, lexicographic as :func:`enumerate_Z` returns them.

    The empty row stands for a budget the high half has used up.
    """
    room = zfam.k - ones
    if zfam.kind == CARD_EQ and room > low:
        return np.zeros((0, low), dtype=np.int8)
    if room == 0:
        return np.zeros((1, low), dtype=np.int8)
    return enumerate_Z(ZFamily(zfam.kind, low, min(room, low)))


def solve_discrete_bruteforce(inst: ProblemInstance) -> DiscreteSolution:
    """Globally optimal (x, z) by scanning every activation pattern.

    Meet in the middle: z splits into a high half (the first n // 2
    coordinates) and a low half.  The high half is enumerated once, under a
    cardinality family only its rows with at most k ones.  Those are the
    ids with popcount <= k in counting order, so their popcounts p group
    them with no pass over the rows, and each group is paired with the
    low-half rows the family admits after p ones (the free family pairs
    every high row with every low row).  A matvec per half gives its c-sums
    and a^2-sums, and the pairs are scored ``C_hi + C_lo - sqrt(A_hi +
    A_lo)`` in blocks of at most 2**16 values, so no (members, n) matrix is
    ever built.  The scores are taken on (a, c) / 2**e
    (:func:`core.to_unit`), so any finite scale of the data gives the
    unit-scale z; the value is then :func:`support_value` of that z on the
    data as given.  The halves come from :func:`enumerate_Z`'s memo, and
    each thread keeps its two 2**16-value block buffers (512 KiB each)
    from its first solve to reuse in its next, so concurrent solves share
    nothing they write.  At free n = 24 (2**24 supports) a solve takes
    about 36 ms on one core of a 2-vCPU Xeon VM, with a tracemalloc peak
    of about 2.3 MB cold (a thread's first solve, nothing enumerated yet)
    and 0.5 MB warm.

    Exact and deterministic: ties are broken toward the lexicographically
    smallest z, by keeping the first minimum in (value, high row, low row)
    order.  Guarded to n <= BRUTEFORCE_GUARD = 24, so each half is within
    the enumeration guard.
    """
    n = inst.n
    if n > BRUTEFORCE_GUARD:
        raise ValueError(f"brute force is guarded to n <= {BRUTEFORCE_GUARD}, got n = {n}")
    _, u, c = to_unit(inst.a, inst.c)
    asq = u * u
    zfam = inst.zfam
    high, low = n // 2, n - n // 2
    hi = np.zeros((1, 0), dtype=np.int8)
    if high:
        trim = zfam.kind != FREE and zfam.k < high
        hi = enumerate_Z(ZFamily.card_le(high, zfam.k) if trim else ZFamily.free(high))
    c_hi, a_hi = hi @ c[:high], hi @ asq[:high]
    if zfam.kind == FREE:
        groups = [(np.arange(hi.shape[0]), enumerate_Z(ZFamily.free(low)))]
    else:
        ones = np.bitwise_count(np.arange(1 << high))
        ones = ones[ones <= zfam.k]
        groups = ((np.flatnonzero(ones == p), _low_members(zfam, low, p))
                  for p in range(min(high, zfam.k) + 1))
    buffers = getattr(_scan_buffers, "blocks", None)
    if buffers is None:
        buffers = _scan_buffers.blocks = (np.empty(_BLOCK), np.empty(_BLOCK))
    norms, values = buffers
    best, best_key = math.inf, None
    for rows, lo in groups:
        width = lo.shape[0]
        if width == 0:
            continue
        c_lo, a_lo = lo @ c[high:], lo @ asq[high:]
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

    Activates the k largest squared entries of a (smallest index wins ties),
    squared on a / 2**e (:func:`core.to_unit`) so that none over- or
    underflows.
    """
    a = as_vector(a, "a")
    n = a.size
    k = as_int(k, "k")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    _, u = to_unit(a)
    support = np.argsort(-(u * u), kind="stable")[:k]
    inst = ProblemInstance(a, np.zeros(n), ZFamily(CARD_EQ, n, k))
    sol = support_value(support, inst)
    z = np.zeros(n)
    z[support] = 1.0
    return DiscreteSolution(z_opt=z, x_opt=sol.x_opt, value=sol.value)
