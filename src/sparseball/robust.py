"""Robust counterparts with sparse ellipsoidal cost uncertainty.

The adversary may perturb at most k cost coefficients, with the perturbation
constrained to a scaled ellipsoid of budget b.  Three conservative
counterparts are provided over the unit simplex: the budgeted baseline (box
bounds instead of the ellipsoid), the ellipsoidal baseline (cardinality
dropped), and the perspective counterpart whose inner maximization has the
closed form  a~'y + sqrt(b * s(y))  with s(y) the top-k sum of (y_i/d_i)^2.
The same closed form evaluates the exact worst case of the discrete inner
problem, since for a fixed support the inner maximum is a scaled norm and
the best support is the top-k set.

All four counterparts share one start, the objective a~_i + sqrt(b)/d_i at
each vertex: they raise ValueError only when it overflows the float range
at every vertex, and return the cheapest vertex when no budget moves the
optimum off it.  The perspective, ellipsoidal and nominal counterparts are
then solved exactly through their dual.  Ellipsoidal's dual norm is the
l2 norm, whose root comes in closed form from one sort of a~; nominal is
its b = 0 case, the cheapest vertex.  Perspective's is the k-support norm,
solved by a search over its pieces, each of which carries a quadratic,
that ends when a piece's own root lands on that piece.

Objective oracles are pure and thread safe; solver calls are independent of
each other and deterministic for a fixed instance.  Only the budgeted solve
iterates, on the assets whose vertex objective is finite, with one top-k set
per iterate, and only where the cheapest vertex fails its dual-norm test.
It stops on a stall test or at its iteration cap, where it returns its
best iterate and a certified bound like any other exit.  Its
polish minimizes the piecewise-linear budgeted objective exactly on each
segment it searches, by a cutting-plane search over the pieces
(``_segment_min``).  The oracles and ``optimal_multipliers`` square y/d
only through ``core.norm`` and ``core.to_unit``, and scale results back
through ``core.scale_back``.  They take y/d from ``_over_d``, as +-inf with
no warning where it is past the float range (d near 1e-310).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_TOL,
    as_budget,
    as_int,
    freeze_fields,
    loads_strict,
    norm,
    safe_div,
    safe_div_arr,
    scale_back,
    to_unit,
)

# Fixed schedule of the budgeted counterpart's projected-subgradient loop
# (see solve_counterpart).  It counts iterations, never wall clock, so
# solves are bit-reproducible under load.
_ETA0 = 1.0
_MAX_ITER = 200_000
_WINDOW = 500
_RTOL = 1e-6
_POLISH_ROUNDS = 2


@dataclass(frozen=True)
class RobustInstance:
    """Nominal costs a_tilde, scalings d > 0, ellipsoid budget b, cardinality k."""

    a_tilde: np.ndarray
    d: np.ndarray
    b: float
    k: int
    n: int

    def __post_init__(self):
        n = as_int(self.n, "n")
        if n < 1:
            raise ValueError(f"n must be at least 1, got n={n}")
        freeze_fields(self, "a_tilde", "d")
        if self.a_tilde.size != n or self.d.size != n:
            raise ValueError("a_tilde and d must have length n")
        if np.any(self.d <= 0.0):
            raise ValueError("d must be strictly positive")
        b = as_budget(self.b)
        k = as_int(self.k, "k")
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)


def parse_robust_instance(obj: dict) -> RobustInstance:
    try:
        n = obj["n"]
        a_tilde = obj["a_tilde"]
        d = obj["d"]
        b = obj["b"]
        k = obj["k"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed robust instance: missing field ({exc})") from exc
    return RobustInstance(a_tilde, d, b, k, n)


def robust_instance_to_dict(inst: RobustInstance) -> dict:
    return {"n": inst.n, "a_tilde": inst.a_tilde.tolist(), "d": inst.d.tolist(),
            "b": inst.b, "k": inst.k}


def load_robust_instance(path) -> RobustInstance:
    return parse_robust_instance(loads_strict(Path(path).read_text()))


@dataclass(frozen=True)
class PortfolioPoint:
    """A point of the unit simplex (nonnegative, entries summing to one)."""

    y: np.ndarray

    def __post_init__(self):
        freeze_fields(self, "y")
        if np.any(self.y < -DEFAULT_TOL.feas_abs):
            raise ValueError("y must be nonnegative")
        if np.any(np.signbit(self.y)):  # negatives within the tolerance, and -0.0, become 0.0
            object.__setattr__(self, "y", np.maximum(self.y, 0.0))
            freeze_fields(self, "y")
        if abs(float(self.y.sum()) - 1.0) > DEFAULT_TOL.feas_abs:
            raise ValueError("y must sum to one")


def _yvec(y) -> np.ndarray:
    if isinstance(y, PortfolioPoint):
        return y.y
    return np.asarray(y, dtype=float)


# ---------------------------------------------------------------------------
# objective oracles


def _over_d(y, inst: RobustInstance) -> np.ndarray:
    """y / d, the one quotient the oracles take: the same bits as y / d, and
    +-inf where that is past the float range (d near 1e-310).  Callers hold
    ``np.errstate(over="ignore")``, so none warns: each public oracle once
    per call, the budgeted solve once around its loop."""
    return y / inst.d


def _topk_set(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values, smallest index winning ties."""
    return np.argsort(-values, kind="stable")[:k]


def top_k_sq_sum(y, inst: RobustInstance) -> float:
    """Sum of the k largest values of (y_i / d_i)^2, squared on u = y/d / 2**e
    (:func:`core.to_unit`) and scaled back by 2**(2e); inf past the float range.
    Within k + 2 ulps of the exact sum."""
    with np.errstate(over="ignore"):
        e, u = to_unit(_over_d(_yvec(y), inst))
    r = u * u
    return scale_back(float(r[_topk_set(r, inst.k)].sum()), 2 * e)


def perspective_value(y, inst: RobustInstance) -> float:
    """Perspective counterpart objective  a~'y + sqrt(b * top-k sum of (y/d)^2).

    The root is taken as sqrt(b) times :func:`core.norm` of the top k of
    y/d, so neither an extreme budget nor a tiny d over- or underflows a
    finite objective.  Within n + 4 ulps of |a~|'|y| plus that root, for
    b > 0; inf where some y_i/d_i is past the float range.
    """
    y = _yvec(y)
    with np.errstate(over="ignore"):
        q = _over_d(y, inst)
    return float(inst.a_tilde @ y) + math.sqrt(inst.b) * norm(q[_topk_set(np.abs(q), inst.k)])


def _budgeted_top(y: np.ndarray, inst: RobustInstance):
    """The budgeted objective at y and the top-k set of y/d that it sums."""
    r = _over_d(y, inst)
    top = _topk_set(r, inst.k)
    return float(inst.a_tilde @ y) + math.sqrt(inst.b) * float(r[top].sum()), top


def budgeted_value(y, inst: RobustInstance) -> float:
    """Budgeted baseline objective  a~'y + sqrt(b) * (top-k sum of y_i/d_i); needs y >= 0.

    Within n + k + 2 ulps of |a~|'y plus that budget term, for b > 0; inf
    where some y_i/d_i is past the float range."""
    with np.errstate(over="ignore"):
        return _budgeted_top(_yvec(y), inst)[0]


def ellipsoidal_value(y, inst: RobustInstance) -> float:
    """Ellipsoidal baseline objective  a~'y + sqrt(b) * ||y / d||_2 (:func:`core.norm`).

    Within n + 4 ulps of |a~|'|y| plus that budget term, for b > 0; inf
    where some y_i/d_i is past the float range."""
    y = _yvec(y)
    with np.errstate(over="ignore"):
        q = _over_d(y, inst)
    return float(inst.a_tilde @ y) + math.sqrt(inst.b) * norm(q)


def nominal_value(y, inst: RobustInstance) -> float:
    """Nominal objective a~'y, within n ulps of |a~|'|y| of the exact sum."""
    y = _yvec(y)
    return float(inst.a_tilde @ y)


_METHOD_VALUES = {
    "nominal": nominal_value,
    "budgeted": budgeted_value,
    "ellipsoidal": ellipsoidal_value,
    "perspective": perspective_value,
}

METHODS = tuple(_METHOD_VALUES)


def _method_oracle(method: str):
    """The objective oracle of a counterpart method; ValueError if unknown."""
    try:
        return _METHOD_VALUES[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}") from None


def worst_case(y, inst: RobustInstance) -> float:
    """Exact worst-case cost of y under the discrete uncertainty set.

    For a fixed binary support S the inner maximum is
    sqrt(b * sum_{i in S} (y_i/d_i)^2), so the adversary's best support is
    the top-k set and the optimum is the same closed form as the
    perspective counterpart objective.
    """
    return perspective_value(y, inst)


# ---------------------------------------------------------------------------
# dual chain


def fenchel_identity(x: float, z: float):
    """Closed form of  max_p (p x - p^2 z / 4)  for z in [0, 1].

    Returns (value, argmax).  The value equals x^2 / z under the shared
    zero-division convention; x != 0 with z = 0 yields the +inf flag.
    """
    x = float(x)
    z = float(z)
    if not 0.0 <= z <= 1.0:
        raise ValueError("z must lie in [0, 1]")
    value = safe_div(x * x, z)
    argmax = safe_div(2.0 * x, z)
    return value, argmax


@dataclass(frozen=True)
class DualCertificate:
    """Multipliers realizing the conic counterpart objective.

    gamma = lam * mu by construction; t is zero off the top-k set.
    """

    lam: float
    mu: float
    gamma: float
    t: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        freeze_fields(self, "t", "p")
        if self.lam < 0.0 or self.mu < 0.0 or self.gamma < 0.0 or np.any(self.t < 0.0):
            raise ValueError("multipliers must be nonnegative")


def optimal_multipliers(y, inst: RobustInstance) -> DualCertificate:
    """Closed-form optimal multipliers of the conic counterpart at y.

    gamma* is the (k+1)-largest value of (y_i/d_i)^2 / 4 (zero when k = n),
    lam* = sqrt(gamma* k + sum_i max(0, r_i - gamma*)) / sqrt(b) with
    r_i = (y_i/d_i)^2 / 4, mu* = gamma*/lam*, t_i* = max(0, r_i - gamma*)/lam*
    and p_i* = y_i / (lam* d_i), all under the zero-division convention.
    The certificate objective equals the counterpart objective at y.
    r is squared on u = y/d / 2**e (:func:`core.to_unit`), so no square
    over- or underflows; a multiplier past the float range raises ValueError.
    """
    y = _yvec(y)
    with np.errstate(over="ignore"):
        q = _over_d(y, inst)
    if not np.all(np.isfinite(q)):
        raise ValueError("the dual multipliers overflow the float range at this y")
    e, u = to_unit(q)
    s = 0.25 * u ** 2
    order = np.argsort(-s, kind="stable")
    gamma_s = float(s[order[inst.k]]) if inst.k < inst.n else 0.0
    excess_s = np.maximum(s - gamma_s, 0.0)
    root = math.sqrt(gamma_s * inst.k + float(excess_s.sum()))
    if inst.b == 0.0 and root > 0.0:
        raise ValueError("certificate undefined for zero budget with nonzero y")
    with np.errstate(over="ignore"):
        lam = scale_back(root, e) / math.sqrt(inst.b) if inst.b > 0.0 else 0.0
        gamma = scale_back(gamma_s, 2 * e)
        mu = safe_div(gamma, lam)
        t = safe_div_arr(scale_back(excess_s, e), root) * math.sqrt(inst.b)
        p = safe_div_arr(q, lam)
    if not np.all(np.isfinite(np.concatenate(([lam, mu, gamma], t, p)))):
        raise ValueError("the dual multipliers overflow the float range at this y")
    return DualCertificate(lam=lam, mu=mu, gamma=gamma, t=t, p=p)


def certificate_objective(cert: DualCertificate, y, inst: RobustInstance) -> float:
    """Conic counterpart objective  a~'y + lam b + mu k + sum_i t_i."""
    y = _yvec(y)
    return float(inst.a_tilde @ y) + cert.lam * inst.b + cert.mu * inst.k + float(cert.t.sum())


# ---------------------------------------------------------------------------
# counterpart solver


def method_value(method: str, y, inst: RobustInstance) -> float:
    return _method_oracle(method)(y, inst)


def _budgeted_subgradient(top: np.ndarray, inst: RobustInstance) -> np.ndarray:
    """The subgradient a~ + sqrt(b) sum_{i in top} e_i / d_i of the budgeted
    objective at a y whose top-k set of y/d is top (``_budgeted_top``)."""
    g = inst.a_tilde.copy()
    g[top] += math.sqrt(inst.b) / inst.d[top]
    return g


class _Probe(NamedTuple):
    """The k-support dual at t: w = d o (t - a)_+ / unit, its sorted head
    indices, the key of its piece and the piece's quadratic
    A u^2 + 2 B u + F, the squared norm of w + d u."""

    t: float
    w: np.ndarray
    head: np.ndarray
    key: tuple
    A: float
    B: float
    F: float

    def root(self) -> float:
        """Root u of A u^2 + 2 B u + F = 1 on the rising branch, or nan if none."""
        C = 1.0 - self.F
        disc = self.B * self.B + self.A * C
        return C / (self.B + math.sqrt(disc)) if self.B > 0.0 and disc >= 0.0 else math.nan


def _ksupport_probe(t: float, a: np.ndarray, d: np.ndarray, unit: float, span: np.ndarray) -> _Probe:
    """Squared k-support norm F of w = d o (t - a)_+ / unit, its piece and quadratic.

    span is (k, k - 1, ..., 1).  With w sorted descending (stable), the head
    is the h largest entries for the smallest h in 0..k-1 whose tail mean
    tau = sum(w[h:]) / (k - h) is at least w[h].  That test is monotone in
    h, so this h is the unique split of Argyriou, Foygel & Srebro (2012),
    Prop. 2.1, and F = sum(head^2) + (k - h) tau^2.  The piece's key is the
    size of supp(w) and the sorted head indices.
    """
    w = t - a
    np.maximum(w, 0.0, out=w)
    w /= unit
    w *= d
    order = np.argsort(-w, kind="stable")
    s, sd = w[order], d[order]
    k = span.size
    tails = np.cumsum(s[::-1])[::-1][:k]
    h = int(np.argmax(tails >= span * s[:k]))
    m, r = int(np.count_nonzero(s)), k - h
    top, dtop = s[:h], sd[:h]
    P, D = float(tails[h]), float(sd[h:m].sum())
    head = np.sort(order[:h])
    return _Probe(t, w, head, (m, head.tobytes()), float(dtop @ dtop) + D * D / r,
                  float(top @ dtop) + P * D / r, float(top @ top) + P * P / r)


def _vertex(n: int, i: int) -> np.ndarray:
    y = np.zeros(n)
    y[i] = 1.0
    return y


def _dual_start(a: np.ndarray, d: np.ndarray, b: float):
    """The start every counterpart solve shares: for an objective
    a'y + sqrt(b) * N(y/d) with N(e_i) = 1, the vertex e_i costs the end
    a_i + sqrt(b)/d_i, so the least end hi bounds the optimum from above,
    as min a bounds it from below.

    Lengths are measured in units of sqrt(b), so that no budget under- or
    overflows them, and d and the unit are divided by max d; hi does not
    depend on the scale of d.  Returns (vertex, d, unit, ends, i): the
    scaled d and unit, every end (inf where it overflows) and the asset i
    of hi = ends[i], smallest index on ties.  When every end overflows, the
    objective does too, and it raises ValueError.  When hi does not exceed
    min a (b = 0, or a budget too small to move t off the cheapest asset),
    vertex is e_i, the optimum, with the value hi; otherwise it is None.
    """
    dmax = float(d.max())
    d = d / dmax
    unit = math.sqrt(b) / dmax
    with np.errstate(over="ignore"):  # an end that overflows is never the least
        ends = a + unit / d
    i = int(np.argmin(ends))
    if math.isinf(ends[i]):
        raise ValueError("the counterpart objective overflows the float range at every "
                         "vertex: a~_i + sqrt(b)/d_i is infinite for every asset")
    return (None if float(a.min()) < ends[i] else _vertex(a.size, i)), d, unit, ends, i


def _dual_solve(a: np.ndarray, d: np.ndarray, b: float, k: int | None = None):
    """Exact minimum over the simplex of a'y + sqrt(b) * N(y/d), N the top-k l2 norm.

    With k None, N is the l2 norm (``_l2_dual``); otherwise the top-k l2
    norm (``_ksupport_dual``).  Returns (t, y): the dual optimum t =
    max{t : N*(d o (t - a)_+) <= sqrt(b)}, N* the dual norm, and a y at
    which the objective equals t in exact arithmetic.  It starts from
    ``_dual_start``'s scaled d and unit, in which w = d o (t - a)_+ / unit
    has norm 1 at the sought t, and its least end hi, where w_i alone
    reaches 1, or returns the vertex found there.  Otherwise only the live
    assets, those below hi, can be active, as t <= hi.  When the largest d
    is not live, d is set to 0 off the live assets, and d and the unit are
    divided again by the largest live d, unless the unit would then
    overflow, so that sums of d^2 over the live assets stay near 1 however
    small their d is next to the rest.  When the end of the asset that sets
    hi rounds to its own a_i, that asset is not live either; if the live
    assets' F = N*(w)^2 stays below 1 at hi, t* rounds to hi, and that
    asset's vertex attains it.
    """
    vertex, d, unit, ends, i = _dual_start(a, d, b)
    hi = float(ends[i])
    if vertex is None:
        if not a[int(np.argmax(d))] < hi:
            live = a < hi
            dlive = float(d[live].max())
            if unit / dlive < math.inf:
                d = np.where(live, d, 0.0) / dlive
                unit /= dlive
        # N* is the k-support norm, which is the l2 norm at k = n
        if a[i] < hi or _ksupport_probe(hi, a, d, unit, np.arange(k or a.size, 0, -1)).F >= 1.0:
            return _l2_dual(a, d, unit, hi) if k is None else _ksupport_dual(a, d, unit, hi, k)
        vertex = _vertex(a.size, i)
    return hi, vertex


def _l2_dual(a: np.ndarray, d: np.ndarray, unit: float, hi: float):
    """The dual solve for N = the l2 norm, in closed form from one sort of a.

    Only the assets below hi can be active, as t* <= hi.  With them sorted
    by a, F(t) = sum_i d_i^2 (t - a_i)_+^2 / unit^2 is one quadratic on each
    piece [a_j, a_j+1] (the last ends at hi), and t* is where F reaches 1.
    With s_j the piece's length in units and A_j the sum of d^2 over the
    first j + 1 assets, the slope B_j = sum_i d_i^2 (t - a_i) / unit at the
    piece's right end is the running sum of A_j s_j, and F there the running
    sum of s_j (B_j-1 + B_j).  Every term is nonnegative, so no sum cancels.
    The first piece whose right end reaches F >= 1 holds t*, at the root
    u >= 0 of A_j u^2 + 2 B_j-1 u + F_j-1 = 1 from its left end, clamped to
    the piece against rounding and against a sum of d^2 that underflows to
    0; y is proportional to d^2 o (t* - a)_+.
    """
    order = np.argsort(a, kind="stable")
    x = a[order]
    m = int(np.searchsorted(x, hi))
    order, x = order[:m], x[:m]
    ds = d[order]
    s = (np.append(x[1:], hi) - x) / unit
    A = np.cumsum(ds * ds)
    with np.errstate(over="ignore"):  # past t*, F may overflow; it is then above 1
        B = np.cumsum(A * s)
        B_left = np.concatenate(([0.0], B[:-1]))
        F = np.cumsum(s * (B_left + B))
    j = min(int(np.count_nonzero(F < 1.0)), m - 1)
    C = 1.0 - (float(F[j - 1]) if j else 0.0)
    Bj = float(B_left[j])
    u = min(safe_div(C, Bj + math.sqrt(Bj * Bj + float(A[j]) * C)), float(s[j]))
    # y is built from the root u, as x_j + unit u may round back to x_j, and
    # as d o (d o w), where a product d^2 could underflow
    y = np.zeros(a.size)
    y[order[:j + 1]] = ds[:j + 1] * (ds[:j + 1] * ((x[j] - x[:j + 1]) / unit + u))
    return float(x[j]) + unit * u, y / y.sum()


def _ksupport_dual(a: np.ndarray, d: np.ndarray, unit: float, hi: float, k: int):
    """The dual solve for N = the top-k l2 norm (k-support dual), by piece search.

    y is proportional to d o v, with v the head of w = d o (t - a)_+ and its
    tail mean on the rest of supp(w).  F(t), the squared k-support norm of
    w, grows with t, and each probe at t also returns its piece's quadratic
    (``_ksupport_probe``).  The search keeps a bracket [lo, hi] with
    F(hi) >= 1.  It starts from lo = min a and the least right end known in
    closed form: hi, or the t where the m smallest a_i give
    sum(w) = sqrt(min(k, m)), as the norm of m entries is at least their
    sum over sqrt(min(k, m)).  Its first probe is hi.  The next trial is the
    root of the newest probe's quadratic, kept in the bracket: if it rounds
    to that probe's own t, or lands on that probe's piece, F is 1 there and
    it is t itself.  A root outside the bracket gives way to the midpoint.
    The search ends on such a match or when the bracket cannot be split;
    t is then taken once more from the last piece's own quadratic.  It has
    no tolerance and no cap.
    """
    order = np.argsort(a, kind="stable")
    ds = d[order]
    with np.errstate(over="ignore"):  # an end that overflows is never the least
        prefix = (unit * np.sqrt(np.minimum(np.arange(1, a.size + 1), k))
                  + np.cumsum(ds * a[order])) / np.cumsum(ds)
    lo, closer = float(a[order[0]]), float(prefix.min())
    if lo < closer < hi:
        hi = closer

    span = np.arange(k, 0, -1)
    upper = last = _ksupport_probe(hi, a, d, unit, span)
    while True:
        t = min(max(last.t + unit * last.root(), lo), hi)
        if t == last.t:
            break
        root_of = last.key
        if not lo < t < hi:
            t, root_of = 0.5 * (lo + hi), None
        if not lo < t < hi:
            last = upper
            break
        last = _ksupport_probe(t, a, d, unit, span)
        if last.key == root_of:
            break
        if last.F >= 1.0:
            hi, upper = t, last
        else:
            lo = t
    t, head = last.t, last.head
    u = last.root()
    u = 0.0 if math.isnan(u) else min(max(u, (lo - t) / unit), (hi - t) / unit)
    # w is built from the root u, as t + unit u may round back to t
    tail = last.w > 0.0
    tail[head] = False
    w = last.w + d * u
    v = np.where(tail, w[tail].sum() / (k - head.size), 0.0)
    v[head] = w[head]
    y = d * v
    return t + unit * u, y / y.sum()


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the unit simplex (sort-and-threshold)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    cond = u - (css - 1.0) / idx > 0.0
    rho = int(np.nonzero(cond)[0][-1])
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


@dataclass(frozen=True)
class CounterpartResult:
    """Solution of one counterpart: the simplex point, its objective (the
    method oracle evaluated at that point), a certified lower bound on the
    optimum, the method tag and the number of subgradient iterations (0 for
    the closed-form methods and at a vertex exit)."""

    y_star: PortfolioPoint
    objective: float
    bound: float
    method: str
    iterations: int


class _Line(NamedTuple):
    """The budgeted objective phi at t on a segment, and the supporting line
    c + s t of the top-k set there."""

    t: float
    phi: float
    c: float
    s: float


def _segment_min(inst: RobustInstance, y: np.ndarray, direction: np.ndarray):
    """Exact minimum of the budgeted objective phi(t) at y + t direction over
    t in [0, 1]; returns (t, phi(t)).

    phi is convex and piecewise linear: the maximum, over k-sets T, of the
    lines a~'(y + t dir) + sqrt(b) sum_T (y + t dir)_i / d_i.  One top-k set
    at t gives the line of phi's piece there, which supports phi everywhere.
    A slope >= 0 at t = 0 (<= 0 at t = 1) certifies that end.  Otherwise the
    search keeps the newest lines of negative and of positive slope and
    probes where they cross (Kelley's cutting plane in one dimension).  It
    stops when the probe's line does not rise above both lines there, so
    the two lines' maximum is phi's minimum, when the probe's slope is 0, or
    when the crossing is not strictly between the two lines' own t, which
    it always is in exact arithmetic unless one of them is a minimum.  It
    returns the probe of least phi, with phi taken as ``budgeted_value``
    takes it, and has no tolerance and no cap.
    """
    root_b = math.sqrt(inst.b)
    y_d, dir_d = _over_d(y, inst), _over_d(direction, inst)
    base, rise = float(inst.a_tilde @ y), float(inst.a_tilde @ direction)

    def probe(t: float) -> _Line:
        phi, top = _budgeted_top(y + t * direction, inst)
        return _Line(t, phi, base + root_b * float(y_d[top].sum()),
                     rise + root_b * float(dir_d[top].sum()))

    lo = probe(0.0)
    if lo.s >= 0.0:
        return lo.t, lo.phi
    hi = probe(1.0)
    best = hi if hi.phi < lo.phi else lo
    if hi.s <= 0.0:
        return best.t, best.phi
    while True:
        t = (hi.c - lo.c) / (lo.s - hi.s)
        if not lo.t < t < hi.t:
            break
        line = probe(t)
        if line.phi < best.phi:
            best = line
        if line.s == 0.0 or line.c + line.s * t <= max(lo.c + lo.s * t, hi.c + hi.s * t):
            break
        if line.s < 0.0:
            lo = line
        else:
            hi = line
    return best.t, best.phi


def _polish(inst: RobustInstance, y: np.ndarray, value: float, rounds: int):
    """Exact budgeted minima (``_segment_min``) along segments from y toward
    each vertex and away from each supported coordinate.  Never worsens the
    incumbent; at n = 2 the vertex segments cover the whole simplex so the
    result is the global optimum."""
    n = inst.n
    for _ in range(rounds):
        improved = False
        for j in range(n):
            endpoints = []
            vertex = np.zeros(n)
            vertex[j] = 1.0
            endpoints.append(vertex)
            if y[j] > 1e-14 and y[j] < 1.0:
                dropped = y.copy()
                dropped[j] = 0.0
                total = float(dropped.sum())
                if total > 0.0:
                    endpoints.append(dropped / total)
            for w in endpoints:
                direction = w - y
                if not np.any(direction):
                    continue
                t, f_t = _segment_min(inst, y, direction)
                if f_t < value - 1e-15:
                    y = y + t * direction
                    value = f_t
                    improved = True
        if not improved:
            break
    return y, value


def _budgeted_solve(inst: RobustInstance):
    """The budgeted loop of ``solve_counterpart``; returns (y, objective,
    bound, iterations)."""
    # one errstate for the solve's y / d, so each of its oracle calls holds none
    with np.errstate(over="ignore"):
        y = np.full(inst.n, 1.0 / inst.n)
        y_avg = y.copy()
        best_y = y.copy()
        best_f, top = _budgeted_top(y, inst)
        window_best = best_f
        for t in range(1, _MAX_ITER + 1):
            y = project_simplex(y - (_ETA0 / math.sqrt(t)) * _budgeted_subgradient(top, inst))
            y_avg += (y - y_avg) / t
            f_y, top = _budgeted_top(y, inst)
            if f_y < best_f:
                best_f = f_y
                best_y = y.copy()
            if t % 32 == 0:
                f_avg = _budgeted_top(y_avg, inst)[0]
                if f_avg < best_f:
                    best_f = f_avg
                    best_y = y_avg.copy()
            if t % _WINDOW == 0:
                if window_best - best_f < _RTOL * (abs(best_f) + 1e-9):
                    break
                window_best = best_f
                if t % (10 * _WINDOW) == 0:
                    best_y, best_f = _polish(inst, best_y, best_f, rounds=1)
        best_y, best_f = _polish(inst, best_y, best_f, _POLISH_ROUNDS)
        # f(y) - min f <= g'y - min_i g_i on the simplex
        g = _budgeted_subgradient(_budgeted_top(best_y, inst)[1], inst)
    return best_y, best_f, best_f - float(g @ best_y - g.min()), t


def solve_counterpart(method: str, inst: RobustInstance) -> CounterpartResult:
    """Minimize the chosen counterpart objective over the unit simplex.

    Every method starts from the ends a~_i + sqrt(b)/d_i, the objective at
    each vertex (``_dual_start``): it raises ValueError when every end
    overflows the float range, and returns the vertex of the least end when
    no budget moves the optimum off the cheapest asset (b = 0, or a budget
    too small).  Nominal, ellipsoidal and perspective are then exact finite
    dual solves of a~'y + sqrt(b) * N(y/d).  Ellipsoidal (N the l2 norm)
    takes its root in closed form from one sort of a~ (``_l2_dual``);
    nominal is its b = 0 case, the vertex at the smallest nominal cost
    (smallest index on ties).  Perspective (N the top-k l2 norm) searches
    the pieces of the k-support norm and ends on a piece whose own root lies
    on it (``_ksupport_dual``).  Their bound is the dual optimum.  Budgeted
    also returns the vertex e_i of the least end hi, with bound hi and 0
    iterations, wherever it is optimal: w = d o (hi - a~)_+ has
    ||w||_inf <= sqrt(b), with equality at i, so under the budgeted dual
    norm max(||w||_inf, ||w||_1 / k) e_i is optimal exactly when
    ||w||_1 <= k sqrt(b), at every k at least the number of live assets
    (those whose end is finite) among others.  The test sums w / sqrt(b)
    over the live assets on ``_dual_start``'s scale, each term clipped to
    its exact bound 1, so such a k always passes it.  It is taken at the
    rounded hi, each term within five roundings, so where it passes wrongly
    hi exceeds the optimum by at most about (n + 4) eps (hi - min a~) plus
    two ulps of hi.  Otherwise, with more than k assets live, the budgeted
    objective is solved by projected subgradient on the live assets (the
    others get y_i = 0), with eta_t = 1/sqrt(t) and iterate averaging; each
    iterate takes its subgradient from the top-k set of y/d that its
    objective value sorted, one top-k set per iterate.  The
    loop stops on a stall test (the best objective improves by less than
    1e-6 * |objective| across a window of 500 iterations) or at the fixed
    cap of 200 000 iterations, and one round of exact segment minimizations
    polishes the best point every 5000 iterations.  Every exit is the same:
    two rounds of exact segment minimizations (``_segment_min``: a search
    over the pieces of the objective on the segment, with no tolerance or
    cap) polish the best point, and its bound is its objective minus its
    simplex linearization gap, so a capped solve returns a certified answer
    too, with iterations equal to the cap.
    The solver has no settings.
    """
    objective = _method_oracle(method)
    a, d, b = inst.a_tilde, inst.d, 0.0 if method == "nominal" else inst.b
    if method != "budgeted":
        bound, y = _dual_solve(a, d, b, inst.k if method == "perspective" else None)
        return CounterpartResult(PortfolioPoint(y), objective(y, inst), bound, method, 0)
    y, scaled_d, unit, ends, i = _dual_start(a, d, b)
    live = np.isfinite(ends)
    if y is None:
        # w_j = d_j (hi - a_j)_+ / unit is at most 1, so each is clipped there against rounding
        w = np.minimum(scaled_d[live] * np.maximum(ends[i] - a[live], 0.0), unit) / unit
        if float(w.sum()) <= inst.k:
            y = _vertex(inst.n, i)
    if y is not None:
        return CounterpartResult(PortfolioPoint(y), objective(y, inst), float(ends[i]), method, 0)
    m = int(np.count_nonzero(live))
    sub = inst if m == inst.n else RobustInstance(a[live], d[live], b, inst.k, m)
    y_live, value, bound, t = _budgeted_solve(sub)
    y = np.zeros(inst.n)
    y[live] = y_live
    # on the live assets alone, the objective is taken again over every asset
    return CounterpartResult(PortfolioPoint(y), value if sub is inst else objective(y, inst), bound,
                             method, t)
