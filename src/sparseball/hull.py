"""Valid inequalities, membership oracles and the natural convex relaxation.

Polyhedral side: for a weight vector alpha the mixed-binary inequality
``sum_i |alpha_i x_i| <= sqrt(sum_i alpha_i^2 z_i)`` has a submodular
right-hand side in the activation set, so the classic marginal-based cut
families apply; this module generates them, evaluates them on ``|x|``
coefficients directly, scores them over candidate sets in one place,
``violated_cuts``, and turns scores into cuts in one walk, shared by
``separate_submodular`` and ``reported_cuts`` (behind ``sparseball cuts``).
Every marginal of g(S) = ||alpha_S||_2 is written once, from a set sum
(``_add_gain``, ``_drop_gain``, ``_rest_sums``).  A score can be off by
about sqrt(eps) g(N), so the walk tests each candidate's own cut, on the
scorer's scale, and builds only those it yields (``_walk``).
Heuristic separation scores the nested prefixes by z descending through
the last positive z from running sums, in O(n log n + m^2) for m positive
z (``_prefix_violations``); exact separation scores every subset, the rows
of ``enumerate_Z``, from subset-sum tables (``_subset_sums``), so
n <= ``core.ENUMERATION_GUARD`` = 16.  Every
square of alpha or a here is taken on it divided by the power of two of
``core.to_unit``, and every result, scalar or array, comes back through
``core.scale_back``, so no finite scale over- or underflows.

Nonlinear side: the perspective inequality ``sum_i x_i^2 / z_i <= 1``
(under the shared zero-division convention) is exactly the condition for a
point to satisfy every weighted inequality above; ``find_violating_alpha``
turns a perspective violation into an explicit violated weight vector.
The perspective sum takes each term x_i^2 / z_i on the powers of two of
x_i and z_i (``_perspective_terms``), so it is within a few ulps of exact at
every finite x and z, subnormal z included.

Also included: the natural convex relaxation of the support-reduced problem
over conv(Z) with edge rounding, and the lifting of a general convex
quadratic row into indicator-ball form.  The relaxation is solved exactly
by a breakpoint search on the dual scalar t of -sqrt(s) = max_{t>0}
(-t s - 1/(4t)) (``_relax``), with no iteration cap, and it is rounded to
a family member, so it never fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CARD_EQ,
    CARD_LE,
    DEFAULT_TOL,
    FREE,
    MixedPoint,
    ProblemInstance,
    ZFamily,
    as_budget,
    as_index_set,
    as_int,
    as_vector,
    enumerate_Z,
    freeze_fields,
    norm,
    safe_div_arr,
    scale_back,
    to_unit,
)
from .discrete import _objective

# rows of candidate sets scored at once by violated_cuts in exact mode; glibc
# page-faults 2^12 rows' 512 KB temporaries in on each block at n = 16
_SCORE_BLOCK = 1 << 11

# entries of a marginal triangle computed at once in heuristic mode
_TRIANGLE_BLOCK = 1 << 14

# a coordinate counts as fractional when it is at least this far from 0/1
FRACTIONAL_EPS = 1e-7


@dataclass(frozen=True)
class CutVector:
    """A weight vector alpha, frozen read-only."""

    alpha: np.ndarray

    def __post_init__(self):
        freeze_fields(self, "alpha")

    @property
    def n(self) -> int:
        return self.alpha.size


def _alpha_of(alpha) -> np.ndarray:
    if isinstance(alpha, CutVector):
        return alpha.alpha
    return as_vector(alpha, "alpha")


@dataclass(frozen=True)
class LinearCut:
    """The inequality  sum_i pi_abs_i |x_i| + sum_i rho_z_i z_i <= rhs.

    Coefficients are stored on |x_i| directly (every cut in this family is
    symmetric under sign flips of x), so evaluation is O(n) instead of
    expanding the 2^n signed forms.
    """

    pi_abs: np.ndarray
    rho_z: np.ndarray
    rhs: float

    def __post_init__(self):
        freeze_fields(self, "pi_abs", "rho_z")
        if np.any(self.pi_abs < 0.0):
            raise ValueError("pi_abs coefficients must be nonnegative")
        if self.pi_abs.size != self.rho_z.size:
            raise ValueError("pi_abs and rho_z must have equal length")

    def lhs(self, x, z) -> float:
        """sum_i pi_abs_i |x_i| + rho_z_i z_i with no warning: the plain sum where finite,
        else summed on :func:`core.to_unit` scales and scaled back, so +-inf past the
        float range.  Within n + 1 ulps of sum pi_abs |x| + |rho_z| z of the exact sum."""
        ax, z = np.abs(x), np.asarray(z, dtype=float)
        with np.errstate(over="ignore"):
            total = float(self.pi_abs @ ax) + float(self.rho_z @ z)
        if math.isfinite(total):
            return total
        (e, pi, rz), (f, ax, z) = to_unit(self.pi_abs, self.rho_z), to_unit(ax, z)
        return scale_back(float(pi @ ax + rz @ z), e + f)

    def violation(self, x, z) -> float:
        return self.lhs(x, z) - self.rhs

    def violation_at(self, p: MixedPoint) -> float:
        return self.violation(p.x, p.z)

    def to_dict(self) -> dict:
        return {"pi_abs": self.pi_abs.tolist(), "rho_z": self.rho_z.tolist(), "rhs": self.rhs}


def g_value(S, alpha) -> float:
    """Euclidean norm of the alpha entries on S (:func:`core.norm`); a submodular set function."""
    a = _alpha_of(alpha)
    return norm(a[as_index_set(S, a.size)])


def _drop_gain(q, asq, out=None):
    """rho_i(S - i) = sqrt(q) - sqrt(q - a_i^2) for i in S, from the set sum q = a^2(S).

    q and asq = a_i^2 broadcast against each other; rounding can leave
    q - a_i^2 below zero, so it is clipped there.  When a_i^2 is nearly all
    of q the rest of S is lost to cancellation: the gain is then accurate to
    about sqrt(eps) g(S), not eps g(S).  Family 1's inside terms in the
    scorers use it; everything else starts from :func:`_rest_sums`.  With out, an
    array of the broadcast shape, every step is taken in it.
    """
    rest = np.maximum(np.subtract(q, asq, out=out), 0.0, out=out)
    return np.subtract(np.sqrt(q), np.sqrt(rest, out=out), out=out)


def _rest_sums(asq):
    """a^2(T - i) for every member i of T, from asq = a_i^2 over T's members.

    Each is the sum of the members before i plus the sum of those after it,
    nonnegative terms only, so the rest of T is kept however much of
    a^2(T) a_i^2 is.  The cuts take each dropped marginal as the gain of
    adding i back, rho_i(T - i) = ``_add_gain(a^2(T - i), a_i^2)``,
    accurate to a few ulps of g(T).
    """
    before = np.concatenate(([0.0], np.cumsum(asq)))[:-1]
    after = np.concatenate((np.cumsum(asq[::-1])[::-1], [0.0]))[1:]
    return before + after


def _add_gain(q, asq, out=None):
    """rho_i(S) = sqrt(q + a_i^2) - sqrt(q) for i outside S, from the set sum q = a^2(S);
    with out, as :func:`_drop_gain`, every step is taken in it."""
    total = np.sqrt(np.add(q, asq, out=out), out=out)
    return np.subtract(total, np.sqrt(q), out=out)


def rho(i: int, S, alpha) -> float:
    """Marginal gain of adding index i to S: g(S + i) - g(S).  Requires i not in S."""
    a = _alpha_of(alpha)
    i = as_int(i, "i")
    if i < 0 or i >= a.size:
        raise IndexError(f"index {i} out of range")
    in_S = np.zeros(a.size, dtype=bool)
    in_S[as_index_set(S, a.size)] = True
    if in_S[i]:
        raise ValueError(f"index {i} already belongs to S")
    e, u = to_unit(a)
    return scale_back(float(_add_gain(in_S @ (u * u), u[i] * u[i])), e)


def _cut_terms(idx: np.ndarray, asq: np.ndarray, family):
    """rho_z and rhs of one family's cut on the sorted index set idx, from asq = u^2.

    Inside idx the marginal is rho_i(S - i) (family 2: rho_i(N - i)), the
    gain of adding i to the rest of S (family 2: of N) summed by
    :func:`_rest_sums`; outside it is rho_i(empty) = |u_i| (family 2:
    rho_i(S); the base inequality drops it).  The set sum q_S = u^2(S) is
    the dot product of a 0/1 indicator with asq, as the scorers sum it.
    """
    in_S = np.zeros(asq.size, dtype=bool)
    in_S[idx] = True
    q_S = in_S @ asq
    if family == 2:
        inside = _add_gain(_rest_sums(asq), asq)[idx]
        rho_z = -_add_gain(q_S, asq)
    else:
        inside = _add_gain(_rest_sums(asq[idx]), asq[idx])
        rho_z = -_add_gain(0.0, asq) if family == 1 else np.zeros(asq.size)
    rho_z[idx] = -inside
    return rho_z, math.sqrt(q_S) - inside.sum()


def _cut(S, alpha, family) -> LinearCut:
    """The cut of one family on S: :func:`_cut_terms` on alpha / 2**e, scaled back."""
    a = _alpha_of(alpha)
    e, u = to_unit(a)
    rho_z, rhs = _cut_terms(as_index_set(S, a.size), u * u, family)
    return LinearCut(np.abs(a), scale_back(rho_z, e), scale_back(rhs, e))


def submodular_cut_1(S, alpha) -> LinearCut:
    """First submodular cut: marginals rho_i(S - i) inside S, rho_i(empty) outside."""
    return _cut(S, alpha, 1)


def submodular_cut_2(S, alpha) -> LinearCut:
    """Second submodular cut: marginals rho_i(N - i) inside S, rho_i(S) outside."""
    return _cut(S, alpha, 2)


def base_inequality(S, alpha) -> LinearCut:
    """Base cut with the outside-S activation terms dropped.

    Only valid on the restriction z_i = 0 for all i outside S.
    """
    return _cut(S, alpha, "base")


def _triangle_sums(rows: np.ndarray, hi: int, lower: bool, gain, w: np.ndarray) -> np.ndarray:
    """Row sums of gain(r, j) * w_j over a triangle of the (r, j) grid: for
    each r in rows (in [0, hi]), over j < r when lower, else over j in [r, hi).

    Rows go in blocks of at most _TRIANGLE_BLOCK entries; each block takes
    gain on the whole column range [0, hi), masks the other side of the
    diagonal and sums with one matvec, so gain must be finite on its masked
    part too, and a row's bits depend on the block layout, set by rows and hi.
    """
    sums = np.empty(rows.size)
    cols = np.arange(hi)
    step = max(1, _TRIANGLE_BLOCK // max(hi, 1))
    for start in range(0, rows.size, step):
        r = rows[start:start + step, None]
        block = gain(r, cols)
        block *= cols < r if lower else cols >= r
        sums[start:start + step] = block @ w[:hi]
    return sums


def _prefix_violations(p: MixedPoint, asq: np.ndarray, lhs: float, tail: bool):
    """Violations at p of both cuts on the nested prefixes by z descending,
    from the unit-scale terms of :func:`_scores`.

    Returns ``(sets, violations)`` as :func:`violated_cuts` does: row r
    scores the prefix S = order[:r] of the stable z-descending order, and
    ``sets(r)`` is that prefix, sorted.  The head, rows 0..m with
    m = #{z > 0}, is always scored; with tail, rows m+1..n follow, so that
    there are n + 1.  Along that order q_r = a^2(S) is a running sum, and
    so are family 1's outside term and family 2's inside term.  Family 1's
    inside term sums rho_j(S - j)(1 - z_j) over j < r, and family 2's
    outside term rho_j(S) z_j over j >= r, zero where z_j = 0, so it counts
    only on the rows and columns before the m positive ones.  Both are
    triangle sums (:func:`_triangle_sums`) from column 0, where family 1's
    columns with z_j = 1 add their weight 0; family 1's tail rows are a call
    of their own, after the head's, so the head rows are the same bits with
    or without the tail.

    Past row m each step adds a j with z_j = 0 and no outside z is
    positive, so by submodularity of g family 1's right-hand side grows by
    sum_{i in S} (rho_i(S - i) - rho_i(S + j - i))(1 - z_i) >= 0 and family
    2's by rho_j(S) - rho_j(N - j) >= 0: no tail row is more violated than
    row m, except by rounding (at most a few ulps; mostly where the tail's
    alpha are tiny, near 1e-8).  So separation scores the head alone, in
    O(n log n + m^2) instead of O(n^2).
    """
    n = asq.size
    order = np.argsort(-p.z, kind="stable")
    z = p.z[order]
    asq = asq[order]
    q = np.concatenate(([0.0], np.cumsum(asq)))
    m = int(np.count_nonzero(z > 0.0))
    rows = n + 1 if tail else m + 1

    def gain1(r, j):
        return _drop_gain(q[r], asq[j])

    inside1 = np.empty(rows)
    inside1[:m + 1] = _triangle_sums(np.arange(m + 1), m, True, gain1, 1.0 - z)
    if tail:
        inside1[m + 1:] = _triangle_sums(np.arange(m + 1, n + 1), n, True, gain1, 1.0 - z)
    outside2 = np.zeros(rows)
    outside2[:m] = _triangle_sums(np.arange(m), m, False, lambda r, j: _add_gain(q[r], asq[j]), z)
    outside1 = np.concatenate((np.cumsum((_add_gain(0.0, asq) * z)[::-1])[::-1], [0.0]))[:rows]
    full = _add_gain(_rest_sums(asq), asq)  # rho_j(N - j)
    inside2 = np.concatenate(([0.0], np.cumsum(full * (1.0 - z))))[:rows]
    sq = np.sqrt(q[:rows])
    violations = np.empty((rows, 2))
    violations[:, 0] = lhs - (sq - inside1 + outside1)
    violations[:, 1] = lhs - (sq - inside2 + outside2)
    return lambda row: np.sort(order[:row]), violations


def violated_cuts(p: MixedPoint, alpha, mode: str):
    """Candidate sets and the violations at p of both submodular cuts on each.

    Returns ``(sets, violations)``.  Row r is a candidate set in scan order
    (heuristic: the n + 1 nested prefixes of the coordinates by z
    descending, stable; exact: the rows of ``enumerate_Z(ZFamily.free(n))``,
    so n <= ENUMERATION_GUARD = 16), ``sets(r)`` is its sorted index array,
    and ``violations[r, f]`` is the violation at p of ``submodular_cut_1``
    (f = 0) or ``submodular_cut_2`` (f = 1) on it, scored without building a
    cut or a matrix of prefixes (:func:`_scores`; heuristic, :func:`_prefix_violations`:
    running sums and marginal triangles, each row block over one masked column range).
    With s = |alpha|'|x| + ||alpha||_1, which bounds every term, family 2's
    score is within 2n ulps of s of its cut's exact violation; family 1's
    dropped marginals are taken from q - a_i^2 (:func:`_drop_gain`), so its
    score is within that plus, for each member i of S, (1 - z_i)
    min(sqrt(n eps) g(S), n eps g(S)^2 / g(S - i)), which is about
    sqrt(eps) g(S) where a_i^2 is nearly all of a^2(S).  So a listed
    violation is a candidate's score, not its cut's own, by which
    :func:`separate_submodular` and :func:`reported_cuts` test it.  The tests
    check these bounds against exact violations at n <= 6, and, at n <= 12,
    that exact scores are within n ulps of s of the block scorer the
    subset-sum tables replaced, both with alpha at 2^+-600.  Every prefix
    is listed: the head, through the last positive z, with the same bits as
    separation scores it, then the tail, whose rows are never more violated
    than the head's last but by rounding.  Exact mode is exact over the two
    cut families, not over conv(X): a point may satisfy every family-1 and
    family-2 cut and lie outside the hull (on 398 random points at n <= 7,
    the least right-hand side over both families sat up to
    0.034 sqrt(alpha^2'z) above the concave envelope of g).
    """
    return _scores(p, _alpha_of(alpha), mode, tail=True)[:2]


def _subset_sums(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[r] = the sum of v_i over the members i of row r of
    ``enumerate_Z(ZFamily.free(v.size))``, built by doubling, T <- [T, T + v_i],
    from the last coordinate (the lowest bit of the row id) to the first: 2^n
    additions, no member matrix.  Each entry adds its members in descending
    index order.  out may be a strided view; written reversed (``out[::-1]``), it
    holds the sums over each row's non-members instead.
    """
    out[0] = 0.0
    half = 1
    for vi in v[::-1]:
        np.add(out[:half], vi, out=out[half:2 * half])
        half *= 2
    return out


def _scores(p: MixedPoint, a: np.ndarray, mode: str, tail: bool):
    """:func:`violated_cuts`, scored on u = alpha / 2**e and x / 2**f
    (:func:`core.to_unit`) and scaled back, then ``(e, u^2, |u|'|x|)``, that last
    one scaled back by 2**f (+inf past the float range); tail rows only with tail.

    Exact mode scores every row of ``enumerate_Z(ZFamily.free(n))``.  Three
    :func:`_subset_sums` tables, built once, give each row's set sum
    q = u^2(S) and its two linear terms, family 1's outside sum
    sum_{i not in S} |u_i| z_i and family 2's inside sum
    sum_{i in S} rho_i(N - i)(1 - z_i); the two linear tables are built in the
    violation columns themselves.  Blocks of 2^11 rows then take sqrt(q) and
    the two nonlinear terms, each only on the coordinates whose weight is
    nonzero: family 1's inside sum of rho_i(S - i)(1 - z_i) (:func:`_drop_gain`)
    where z_i < 1, and family 2's outside sum of rho_i(S) z_i where z_i > 0.
    At a point whose z is 0/1 but for one or two coordinates, as a
    relaxation's is, that is n columns per block plus one or two, in place
    of 2n.
    """
    if p.n != a.size:
        raise ValueError("dimension mismatch between point and alpha")
    (e, u), (f, w) = to_unit(a), to_unit(p.x)
    asq, lhs = u * u, scale_back(float(np.abs(u) @ np.abs(w)), f)
    if mode == "heuristic":
        sets, violations = _prefix_violations(p, asq, lhs, tail)
        return sets, scale_back(violations, e), e, asq, lhs
    if mode != "exact":
        raise ValueError(f"unknown separation mode {mode!r}")
    members = enumerate_Z(ZFamily.free(a.size))
    violations = _exact_violations(members, asq, p.z, lhs)
    return lambda row: np.flatnonzero(members[row]), scale_back(violations, e), e, asq, lhs


def _exact_violations(members: np.ndarray, asq: np.ndarray, z: np.ndarray, lhs: float):
    """The unit-scale violations of :func:`_scores`' exact mode on the rows of members."""
    rows, n = members.shape
    violations = np.empty((rows, 2))
    q = _subset_sums(asq, np.empty(rows))
    _subset_sums(_add_gain(0.0, asq) * z, violations[::-1, 0])
    _subset_sums(_add_gain(_rest_sums(asq), asq) * (1.0 - z), violations[:, 1])
    # the columns of nonzero weight, a slice when they are all of them
    drop_at, add_at = (slice(None) if live.all() else np.flatnonzero(live)
                       for live in (z < 1.0, z > 0.0))
    drop_asq, drop_w, add_asq, add_w = asq[drop_at], (1.0 - z)[drop_at], asq[add_at], z[add_at]
    block = min(_SCORE_BLOCK, rows)
    work = np.empty(block * n)  # both families' gains, each block in turn, in place
    for start in range(0, rows, block):
        rows_here = slice(start, start + block)
        M, qb, out = members[rows_here], q[rows_here, None], violations[rows_here]
        drop = _drop_gain(qb, drop_asq, out=work[:block * drop_w.size].reshape(block, drop_w.size))
        drop *= M[:, drop_at]
        drop = drop @ drop_w
        add = _add_gain(qb, add_asq, out=work[:block * add_w.size].reshape(block, add_w.size))
        add *= 1 - M[:, add_at]
        sq = np.sqrt(qb[:, 0])
        out[:, 0] = lhs - (sq - drop + out[:, 0])
        out[:, 1] = lhs - (sq - out[:, 1] + add @ add_w)
    return violations


def _walk(p: MixedPoint, a: np.ndarray, sets, violations: np.ndarray, e: int, asq, lhs: float):
    """The distinct violated cuts of scored candidates in score order, ties in
    scan order, family 1 first.  The top candidate is always tested, the rest
    where their score exceeds feas_abs, sorted once the top one is passed.
    Each is tested on the scorer's scale (e, asq = u^2, lhs = |u|'|x|),
    u = alpha / 2**e, where nothing overflows: its violation (:func:`_cut_terms`)
    scaled back must exceed feas_abs: its ``violation_at(p)`` bit for bit in the
    float range, and past it the sign of that unit-scale sum.  A cut is built only
    when it is violated and its scaled-back rho_z and rhs are new; its rho_z and
    pi_abs = |alpha|, frozen once for the whole walk, are shared, not copied."""
    flat, seen = violations.ravel(), set()
    pi_abs = np.abs(a)
    pi_abs.setflags(write=False)
    top = int(np.argmax(flat))

    def candidates():
        yield top
        above = np.flatnonzero(flat > DEFAULT_TOL.feas_abs)
        above = above[np.argsort(-flat[above], kind="stable")]
        yield from above[above != top]

    for row, family in (divmod(int(index), 2) for index in candidates()):
        rho_z, rhs = _cut_terms(sets(row), asq, family + 1)
        if scale_back(lhs + float(rho_z @ p.z) - rhs, e) > DEFAULT_TOL.feas_abs:
            rho_z, rhs = scale_back(rho_z, e), scale_back(rhs, e)
            if (key := (tuple(rho_z.tolist()), rhs)) not in seen:
                seen.add(key)
                rho_z.setflags(write=False)
                yield LinearCut(pi_abs, rho_z, rhs)


def separate_submodular(p: MixedPoint, alpha, mode: str = "heuristic"):
    """The first cut of :func:`reported_cuts`' walk, or None; heuristic separation
    walks only the prefixes through the last positive z, which hold the maximum.
    None in exact mode means no family-1 or family-2 cut is violated, not
    that p lies in conv(X) (see :func:`violated_cuts`)."""
    a = _alpha_of(alpha)
    return next(_walk(p, a, *_scores(p, a, mode, tail=False)), None)


def reported_cuts(p: MixedPoint, alpha, mode: str):
    """An iterator over the distinct violated cuts at p, in candidate score order:
    every candidate of :func:`violated_cuts` is scored now, each cut built as
    the iterator reaches it.  In exact mode these are all the violated cuts of
    the two families, which need not separate p from conv(X)."""
    a = _alpha_of(alpha)
    return _walk(p, a, *_scores(p, a, mode, tail=True))


# ---------------------------------------------------------------------------
# membership oracles


def _weighted_membership(p: MixedPoint, alpha, zfam: ZFamily, binary: bool) -> bool:
    """Whether z lies in Z (binary; then rounded to 0/1) or in conv(Z), and
    sum_i |alpha_i x_i| <= sqrt(sum_i alpha_i^2 z_i) holds within feas_abs,
    both sides and the tolerance taken on alpha / 2**e and the left side
    summed on x / 2**f (:func:`core.to_unit`), so sides past the float range
    still compare."""
    a = _alpha_of(alpha)
    if p.n != a.size or p.n != zfam.n:
        raise ValueError("dimension mismatch")
    if not (zfam.contains if binary else zfam.conv_contains)(p.z):
        return False
    z = np.round(p.z) if binary else p.z
    (e, u), (f, w) = to_unit(a), to_unit(p.x)
    lhs, rhs = scale_back(float(np.abs(u * w).sum()), f), math.sqrt(float((u * u) @ z))
    return lhs <= rhs + scale_back(DEFAULT_TOL.feas_abs, -e)


def p0_membership(p: MixedPoint, alpha, zfam: ZFamily) -> bool:
    """Membership in the mixed-binary weighted inequality set for this alpha."""
    return _weighted_membership(p, alpha, zfam, binary=True)


def c_alpha_membership(p: MixedPoint, alpha, zfam: ZFamily) -> bool:
    """Membership in the natural relaxation: z in conv(Z), same inequality."""
    return _weighted_membership(p, alpha, zfam, binary=False)


def _perspective_terms(x, z) -> np.ndarray:
    """x_i^2 / z_i for z_i != 0, each taken on its own powers of two: with
    x_i = m_i 2**f_i and z_i = w_i 2**g_i (``np.frexp``), m_i^2 / w_i scaled
    back by 2**(2 f_i - g_i).  Neither step over- or underflows, so a term is
    rounded as x_i**2 / z_i is in the normal range (the same bits there),
    once more only where the term itself is subnormal, and +-inf past the range."""
    m, f = np.frexp(x)
    w, g = np.frexp(z)
    return scale_back(m * m / w, 2 * f - g)


def perspective_sum(x, z) -> float:
    """sum_i x_i^2 / z_i under the shared zero-division convention; inf past the float range.

    Only the live terms (z_i != 0) are summed, each taken by
    :func:`_perspective_terms`, which gives the bits of x_i**2 / z_i wherever
    that stays in the normal range.  For z >= 0 a sum of n live terms is
    within 2n ulps of its exact value at every finite x and z, subnormal z
    included.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    zero = z == 0.0
    if np.any(zero & (x != 0.0)):
        return math.inf
    live = ~zero
    with np.errstate(over="ignore"):
        return float(np.sum(_perspective_terms(x[live], z[live])))


def perspective_membership(p: MixedPoint, zfam: ZFamily) -> bool:
    """Perspective-relaxation membership: z in conv(Z) and sum x_i^2/z_i <= 1."""
    if p.n != zfam.n:
        raise ValueError("dimension mismatch")
    if not zfam.conv_contains(p.z):
        return False
    return perspective_sum(p.x, p.z) <= 1.0 + DEFAULT_TOL.feas_abs


def find_violating_alpha(p: MixedPoint):
    """Weight vector certifying a perspective violation, or None.

    When the perspective sum exceeds 1 the returned alpha = x/z (convention
    safe) strictly violates the weighted inequality for alpha, as does any
    positive multiple: x is first divided by 2**max(0, ex - ez - 1022),
    with ex and ez the exponents of max |x| and of min z > 0, so that x / z
    stays finite.  When the sum is infinite (some z_i = 0 with x_i != 0, or
    an overflow) it is the unit vector e_i at the smallest index of the
    largest term x_i^2 / z_i, infinite terms first: that term exceeds 1, so
    |x_i| > sqrt(z_i).
    """
    s = perspective_sum(p.x, p.z)
    if s <= 1.0 + DEFAULT_TOL.feas_abs:
        return None
    if math.isinf(s):
        terms = np.zeros(p.n)
        live = p.z != 0.0
        terms[live] = _perspective_terms(p.x[live], p.z[live])
        terms[~live & (p.x != 0.0)] = math.inf
        alpha = np.zeros(p.n)
        alpha[int(np.argmax(terms))] = 1.0
        return CutVector(alpha)
    ex, ez = math.frexp(float(np.abs(p.x).max()))[1], math.frexp(float(p.z[p.z > 0.0].min()))[1]
    return CutVector(safe_div_arr(scale_back(p.x, -max(0, ex - ez - 1022)), p.z))


def cardinality_cut(zfam: ZFamily) -> LinearCut:
    """One-norm budget cut ||x||_1 <= sqrt(k) for the exactly-k family."""
    if zfam.kind != CARD_EQ:
        raise ValueError("cardinality cut requires the exactly-k family")
    return LinearCut(np.ones(zfam.n), np.zeros(zfam.n), math.sqrt(zfam.k))


# ---------------------------------------------------------------------------
# natural convex relaxation over conv(Z)


@dataclass(frozen=True)
class RelaxationSolution:
    """Relaxation optimum with its edge rounding.

    value is the relaxed optimum over conv(Z), attained at z_bar on the
    edge of conv(Z) between two LP vertices; rounded_z is the better of
    those two vertices (both are family members; ties go to the
    lexicographically smaller) and rounded_value its support-reduced
    objective.
    """

    z_bar: np.ndarray
    value: float
    rounded_z: np.ndarray
    rounded_value: float
    fractional_count: int


def _segment_argmin(z0: np.ndarray, z1: np.ndarray, a: np.ndarray, c: np.ndarray):
    """Exact minimizer of the objective on the segment [z0, z1] (convex there).

    On the segment phi(gamma) = const + gamma * cd - sqrt(sigma + gamma * ds)
    with cd, ds linear coefficients, so the stationary point is closed form.
    (a, c) are at unit scale, so the objective is taken as written.
    """
    asq = a * a
    d = z1 - z0
    cd = float(c @ d)
    ds = float(asq @ d)
    sigma = max(float(asq @ z0), 0.0)
    candidates = [0.0, 1.0]
    if ds != 0.0 and cd != 0.0:
        s = ds / (2.0 * cd)
        if s > 0.0:
            gamma = (s * s - sigma) / ds
            if 0.0 < gamma < 1.0:
                candidates.append(gamma)
    best_g, best_v = 0.0, math.inf
    for gamma in candidates:
        v = _objective(z0 + gamma * d, a, c)
        if v < best_v:
            best_g, best_v = gamma, v
    return z0 + best_g * d, best_v


def _lp_vertex(g: np.ndarray, zfam: ZFamily) -> np.ndarray:
    """Vertex of conv(Z) minimizing the linear function g.

    Ties go to the smallest index, and a coordinate with g_i = 0 is left
    off unless the exactly-k family needs it.
    """
    if zfam.kind == FREE:
        return (g < 0.0).astype(float)
    take = np.argsort(g, kind="stable")[: zfam.k]
    if zfam.kind == CARD_LE:
        take = take[g[take] < 0.0]
    v = np.zeros(zfam.n)
    v[take] = 1.0
    return v


def _relax(a: np.ndarray, c: np.ndarray, zfam: ZFamily):
    """Exact minimizer of the objective over conv(Z) by a breakpoint search on the dual scalar.

    With -sqrt(sigma) = max_{t>0} (-t sigma - 1/(4t)) the relaxation is
    max_t L(t) - 1/(4t), where L(t) = min_v (c - t a^2)'v over the LP
    vertices is the lower envelope of their lines; the optimal t is where
    4 t^2 a^2'v(t) crosses 1.  The search keeps the vertices v_lo of the
    envelope's left end (t -> 0, the LP vertex of c) and v_hi of its right
    end (t -> inf, the LP vertex of -a^2) and probes the t where their
    lines cross (Eisner & Severance, J. ACM 1976).  A probe vertex strictly
    below both lines there is a new piece of the envelope and replaces the
    end on its side of 4 t^2 a^2'v >= 1.  Otherwise the two lines are the
    envelope around the optimal t, and the optimum is the exact minimizer
    on the segment between their vertices.  Each probe adds a piece, so the
    search is finite with no start point, tolerance or cap; it also ends
    when the slopes stop differing (every a_i = 0) or t leaves (lo, hi).

    Returns ``(z_bar, value, v_lo, v_hi)``: the minimizer, its value and the
    two bracketing vertices, whose segment holds z_bar.
    """
    asq = a * a
    lo, hi = 0.0, math.inf
    v_lo, v_hi = _lp_vertex(c, zfam), _lp_vertex(-asq, zfam)
    while True:
        d = v_hi - v_lo
        slope = float(asq @ d)
        if not slope > 0.0:
            break
        t = float(c @ d) / slope
        if not lo < t < hi:
            break
        g = c - t * asq
        v = _lp_vertex(g, zfam)
        gv = float(g @ v)
        if not (gv < float(g @ v_lo) and gv < float(g @ v_hi)):
            break
        if 4.0 * t * t * float(asq @ v) >= 1.0:
            hi, v_hi = t, v
        else:
            lo, v_lo = t, v
    return (*_segment_argmin(v_lo, v_hi, a, c), v_lo, v_hi)


def solve_relaxation(inst: ProblemInstance) -> RelaxationSolution:
    """Minimize c'z - sqrt(sum a_i^2 z_i) over conv(Z), with edge rounding.

    One exact finite algorithm serves every family: a breakpoint search on
    the dual scalar t over the LP vertices of c - t a^2, each probe at the t
    where the two bracketing vertices' lines cross (see ``_relax``), then the
    closed-form minimizer on the segment between those two vertices.  There
    is no start point, iteration cap or tolerance to set.  LP ties
    go to the smallest index, so repeated calls return the same z_bar.  The
    optimum lies on that edge of conv(Z): at most one fractional coordinate
    in the free family and two in the cardinality families, for data in
    general position (exactly tied coordinates may share the fraction).
    The rounding is the better of the edge's two endpoint vertices by the
    support-reduced objective, ties to the lexicographically smaller, so it
    is always a family member and the solve cannot fail.  The search and
    the rounding run on (a, c) / 2**e (``core.to_unit``) and both
    values are scaled back, so no square of finite data over- or
    underflows.  z_bar and rounded_z are read-only arrays of their own, so a
    :class:`core.MixedPoint` built on z_bar shares it.
    """
    e, a, c = to_unit(inst.a, inst.c)
    z_bar, value, v_lo, v_hi = _relax(a, c, inst.zfam)
    for v in (z_bar, v_lo, v_hi):
        v.setflags(write=False)
    rounded_z = min((v_lo, v_hi), key=lambda v: (_objective(v, a, c), v.tolist()))
    return RelaxationSolution(
        z_bar=z_bar,
        value=scale_back(value, e),
        rounded_z=rounded_z,
        rounded_value=scale_back(_objective(rounded_z, a, c), e),
        fractional_count=int(np.count_nonzero(np.minimum(z_bar, 1.0 - z_bar) > FRACTIONAL_EPS)),
    )


# ---------------------------------------------------------------------------
# lifting of a general convex quadratic row


@dataclass(frozen=True)
class LiftedSystem:
    """Coefficients of the lifted indicator-ball reformulation.

    One extra coordinate (index 0, activation fixed to one) absorbs the
    residual quadratic; original coordinate i is rescaled by scale[i].
    """

    scale: np.ndarray        # sqrt(D_ii / budget) per original coordinate
    residual: np.ndarray     # residual PSD matrix divided by the budget
    dim: int                 # lifted dimension n + 1

    @property
    def fixed_activation_index(self) -> int:
        return 0


def _psd_pivot_check(M: np.ndarray, shift: float):
    """Cholesky-style factorization allowing pivots down to -shift.

    Raises ValueError naming the first offending pivot when the matrix is
    not positive semidefinite within the shift allowance.
    """
    n = M.shape[0]
    L = np.zeros_like(M)
    col_tol = math.sqrt(shift) * (1.0 + math.sqrt(max(float(np.abs(np.diag(M)).max()), 1.0)))
    for j in range(n):
        pivot = M[j, j] - float(L[j, :j] @ L[j, :j])
        if pivot < -shift:
            raise ValueError(
                f"matrix is not positive semidefinite within shift {shift:g}: "
                f"pivot {j} evaluates to {pivot:.6e}"
            )
        L[j, j] = math.sqrt(max(pivot, 0.0))
        col = M[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]
        if L[j, j] > 0.0:
            L[j + 1:, j] = col / L[j, j]
        elif np.any(np.abs(col) > col_tol):
            raise ValueError(
                f"matrix is not positive semidefinite within shift {shift:g}: "
                f"zero pivot {j} with nonzero column entry {col[np.abs(col) > col_tol][0]:.6e}"
            )
    return L


def quad_reformulate(Sigma, b: float, D) -> LiftedSystem:
    """Lift the row y' Sigma y <= b into indicator-ball form.

    b is a finite positive real number, not a bool; D is the finite
    positive diagonal part (given as a vector of diagonal entries
    or a diagonal matrix); Sigma - diag(D) must be positive semidefinite
    within a 1e-10 shift, checked by symmetric factorization that names the
    offending pivot on failure.  Malformed input, and a scale sqrt(D) / sqrt(b)
    or residual (Sigma - diag(D)) / b past the float range, raise ValueError.
    """
    Sigma = np.array(Sigma, dtype=float, copy=True)
    if Sigma.ndim != 2 or Sigma.shape[0] != Sigma.shape[1]:
        raise ValueError("Sigma must be a square matrix")
    if not np.all(np.isfinite(Sigma)):
        raise ValueError("Sigma must be finite")
    if not np.allclose(Sigma, Sigma.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(Sigma).max()))):
        raise ValueError("Sigma must be symmetric")
    b = as_budget(b)
    if b == 0.0:
        raise ValueError("budget b must be positive")
    D = np.asarray(D, dtype=float)
    if not np.all(np.isfinite(D)):
        raise ValueError("D must contain only finite entries")
    if D.ndim == 2:
        if not np.array_equal(D, np.diag(np.diag(D))):
            raise ValueError("D must be diagonal")
        D = np.diag(D).copy()
    if D.shape != (Sigma.shape[0],):
        raise ValueError("D must match the dimension of Sigma")
    if np.any(D <= 0.0):
        raise ValueError("D must have strictly positive diagonal entries")
    R = Sigma - np.diag(D)
    _psd_pivot_check(R, shift=1e-10)
    with np.errstate(over="ignore"):
        scale, residual = np.sqrt(D) / math.sqrt(b), R / b
    if not (np.all(np.isfinite(scale)) and np.all(np.isfinite(residual))):
        raise ValueError(f"the lifted coefficients overflow the float range at budget b={b:g}")
    return LiftedSystem(scale=scale, residual=residual, dim=Sigma.shape[0] + 1)
