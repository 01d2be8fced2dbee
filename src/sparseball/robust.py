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

Objective oracles are pure and thread safe; solver calls are independent of
each other and deterministic for a fixed instance and configuration.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    DEFAULT_TOL,
    SolverError,
    as_int,
    as_vector,
    loads_strict,
    safe_div,
    safe_div_arr,
)

METHODS = ("nominal", "budgeted", "ellipsoidal", "perspective")

GOLDEN_INV = (math.sqrt(5.0) - 1.0) / 2.0


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
        a = as_vector(self.a_tilde, "a_tilde")
        d = as_vector(self.d, "d")
        if a.size != n or d.size != n:
            raise ValueError("a_tilde and d must have length n")
        if np.any(d <= 0.0):
            raise ValueError("d must be strictly positive")
        if isinstance(self.b, bool) or not isinstance(self.b, numbers.Real):
            raise ValueError(f"budget b must be a real number, got {self.b!r} of type {type(self.b).__name__}")
        if not (math.isfinite(self.b) and self.b >= 0.0):
            raise ValueError(f"budget b must be finite and nonnegative, got b={self.b}")
        k = as_int(self.k, "k")
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        a.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "a_tilde", a)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "b", float(self.b))
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
    return RobustInstance(as_vector(a_tilde, "a_tilde"), as_vector(d, "d"), b, k, n)


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
        y = as_vector(self.y, "y")
        if np.any(y < -DEFAULT_TOL.feas_abs):
            raise ValueError("y must be nonnegative")
        y = np.maximum(y, 0.0)
        if abs(float(y.sum()) - 1.0) > DEFAULT_TOL.feas_abs:
            raise ValueError("y must sum to one")
        y.setflags(write=False)
        object.__setattr__(self, "y", y)


def _yvec(y) -> np.ndarray:
    if isinstance(y, PortfolioPoint):
        return y.y
    return np.asarray(y, dtype=float)


# ---------------------------------------------------------------------------
# objective oracles


def _topk_set(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values, smallest index winning ties."""
    return np.argsort(-values, kind="stable")[:k]


def top_k_sq_sum(y, inst: RobustInstance) -> float:
    """Sum of the k largest values of (y_i / d_i)^2."""
    y = _yvec(y)
    r = (y / inst.d) ** 2
    return float(r[_topk_set(r, inst.k)].sum())


def perspective_value(y, inst: RobustInstance) -> float:
    """Perspective counterpart objective  a~'y + sqrt(b * top-k sum of (y/d)^2)."""
    y = _yvec(y)
    return float(inst.a_tilde @ y) + math.sqrt(inst.b * top_k_sq_sum(y, inst))


def budgeted_value(y, inst: RobustInstance) -> float:
    """Budgeted baseline objective  a~'y + sqrt(b) * (top-k sum of y_i/d_i); needs y >= 0."""
    y = _yvec(y)
    r = y / inst.d
    top = r[_topk_set(r, inst.k)].sum()
    return float(inst.a_tilde @ y) + math.sqrt(inst.b) * float(top)


def ellipsoidal_value(y, inst: RobustInstance) -> float:
    """Ellipsoidal baseline objective  a~'y + sqrt(b) * ||y / d||_2."""
    y = _yvec(y)
    return float(inst.a_tilde @ y) + math.sqrt(inst.b) * math.sqrt(float(np.sum((y / inst.d) ** 2)))


def nominal_value(y, inst: RobustInstance) -> float:
    y = _yvec(y)
    return float(inst.a_tilde @ y)


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
        t = as_vector(self.t, "t")
        p = as_vector(self.p, "p")
        if self.lam < 0.0 or self.mu < 0.0 or self.gamma < 0.0 or np.any(t < 0.0):
            raise ValueError("multipliers must be nonnegative")
        t.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "p", p)


def optimal_multipliers(y, inst: RobustInstance) -> DualCertificate:
    """Closed-form optimal multipliers of the conic counterpart at y.

    gamma* is the (k+1)-largest value of (y_i/d_i)^2 / 4 (zero when k = n),
    lam* = sqrt((gamma* k + sum_i max(0, r_i - gamma*)) / b) with
    r_i = (y_i/d_i)^2 / 4, mu* = gamma*/lam*, t_i* = max(0, r_i - gamma*)/lam*
    and p_i* = y_i / (lam* d_i), all under the zero-division convention.
    The certificate objective equals the counterpart objective at y.
    """
    y = _yvec(y)
    r = 0.25 * (y / inst.d) ** 2
    order = np.argsort(-r, kind="stable")
    gamma = float(r[order[inst.k]]) if inst.k < inst.n else 0.0
    excess = np.maximum(r - gamma, 0.0)
    total = gamma * inst.k + float(excess.sum())
    lam = math.sqrt(safe_div(total, inst.b)) if inst.b > 0.0 else math.inf if total > 0.0 else 0.0
    if math.isinf(lam):
        raise ValueError("certificate undefined for zero budget with nonzero y")
    mu = safe_div(gamma, lam)
    t = safe_div_arr(excess, lam)
    p = safe_div_arr(y, lam * inst.d)
    return DualCertificate(lam=lam, mu=mu, gamma=gamma, t=t, p=p)


def certificate_objective(cert: DualCertificate, y, inst: RobustInstance) -> float:
    """Conic counterpart objective  a~'y + lam b + mu k + sum_i t_i."""
    y = _yvec(y)
    return float(inst.a_tilde @ y) + cert.lam * inst.b + cert.mu * inst.k + float(cert.t.sum())


# ---------------------------------------------------------------------------
# counterpart solver


def method_value(method: str, y, inst: RobustInstance) -> float:
    if method == "nominal":
        return nominal_value(y, inst)
    if method == "budgeted":
        return budgeted_value(y, inst)
    if method == "ellipsoidal":
        return ellipsoidal_value(y, inst)
    if method == "perspective":
        return perspective_value(y, inst)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def _subgradient(method: str, y: np.ndarray, inst: RobustInstance) -> np.ndarray:
    """One subgradient of the method objective at y (lexicographic top-k set on ties)."""
    if method == "nominal":
        return inst.a_tilde.copy()
    if method == "budgeted":
        r = y / inst.d
        g = inst.a_tilde.copy()
        top = _topk_set(r, inst.k)
        g[top] += math.sqrt(inst.b) / inst.d[top]
        return g
    if method == "ellipsoidal":
        norm = math.sqrt(float(np.sum((y / inst.d) ** 2)))
        if norm == 0.0:
            return inst.a_tilde.copy()
        return inst.a_tilde + math.sqrt(inst.b) * y / (inst.d ** 2 * norm)
    if method == "perspective":
        r = (y / inst.d) ** 2
        top = _topk_set(r, inst.k)
        s = float(r[top].sum())
        g = inst.a_tilde.copy()
        if s > 0.0 and inst.b > 0.0:
            g[top] += math.sqrt(inst.b) * (y[top] / inst.d[top] ** 2) / math.sqrt(s)
        return g
    raise ValueError(f"unknown method {method!r}")


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
class SubgradientConfig:
    """Projected-subgradient settings: eta_t = eta0 / sqrt(t), iterate
    averaging, and stall-based stopping over fixed windows.  Every ten
    windows the incumbent is polished and its simplex linearization gap
    (an upper bound on suboptimality for these convex objectives) is
    tested against gap_rtol, which ends smooth solves whose raw iterates
    keep creeping.  polish_rounds adds exact line searches along simplex
    segments after the subgradient phase.  Everything is iteration-based
    (never wall clock) so solves are bit-reproducible under load."""

    eta0: float = 1.0
    max_iter: int = 200_000
    window: int = 500
    rtol: float = DEFAULT_TOL.solver_rel
    gap_rtol: float = 1e-4
    polish_rounds: int = 2


DEFAULT_SUBGRADIENT = SubgradientConfig()


@dataclass(frozen=True)
class CounterpartResult:
    """Solution of one counterpart: the simplex point, its objective (the
    method oracle evaluated at that point), the method tag and the number of
    subgradient iterations performed."""

    y_star: PortfolioPoint
    objective: float
    method: str
    iterations: int


def _golden_segment_min(f, iters: int = 60):
    """Golden-section minimum of a convex f over [0, 1]; returns (t, f(t)).

    Convexity makes exact ties collapse the bracket to the middle interval,
    so flat pieces are handled.
    """
    lo, hi = 0.0, 1.0
    best_t, best_f = 0.0, f(0.0)
    f_hi = f(1.0)
    if f_hi < best_f:
        best_t, best_f = 1.0, f_hi
    c = hi - GOLDEN_INV * (hi - lo)
    d = lo + GOLDEN_INV * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - GOLDEN_INV * (hi - lo)
            fc = f(c)
        elif fc > fd:
            lo, c, fc = c, d, fd
            d = lo + GOLDEN_INV * (hi - lo)
            fd = f(d)
        else:
            lo, hi = c, d
            c = hi - GOLDEN_INV * (hi - lo)
            d = lo + GOLDEN_INV * (hi - lo)
            fc, fd = f(c), f(d)
        if fc < best_f:
            best_t, best_f = c, fc
        if fd < best_f:
            best_t, best_f = d, fd
    return best_t, best_f


def _polish(method: str, inst: RobustInstance, y: np.ndarray, value: float, rounds: int):
    """Exact line searches along segments from y toward each vertex and away
    from each supported coordinate.  Never worsens the incumbent; at n = 2
    the vertex segments cover the whole simplex so the result is the global
    optimum to line-search precision."""
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
                t, f_t = _golden_segment_min(lambda t: method_value(method, y + t * direction, inst))
                if f_t < value - 1e-15:
                    y = y + t * direction
                    value = f_t
                    improved = True
        if not improved:
            break
    return y, value


def solve_counterpart(method: str, inst: RobustInstance,
                      config: SubgradientConfig = DEFAULT_SUBGRADIENT) -> CounterpartResult:
    """Minimize the chosen counterpart objective over the unit simplex.

    The nominal method is a linear program over the simplex and is solved
    exactly (vertex at the smallest nominal cost, smallest index on ties).
    The other objectives are nonsmooth convex and are solved by projected
    subgradient with eta_t = eta0/sqrt(t), iterate averaging and two stop
    tests: a stall test (the best objective improves by less than
    rtol * |objective| across one window) and a periodic certificate test
    (the polished incumbent's linearization gap over the simplex falls
    below gap_rtol * |objective|).  Exhausting max_iter without either
    raises SolverError with the best iterate and its simplex linearization
    gap, an upper bound on its suboptimality.
    Deterministic segment line searches polish the incumbent afterwards.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    n = inst.n
    if method == "nominal":
        j = int(np.argmin(inst.a_tilde))
        y = np.zeros(n)
        y[j] = 1.0
        return CounterpartResult(PortfolioPoint(y), float(inst.a_tilde[j]), method, 0)

    y = np.full(n, 1.0 / n)
    y_avg = y.copy()
    best_y = y.copy()
    best_f = method_value(method, y, inst)
    window_best = best_f
    stalled = False
    iterations = 0
    for t in range(1, config.max_iter + 1):
        iterations = t
        g = _subgradient(method, y, inst)
        y = project_simplex(y - (config.eta0 / math.sqrt(t)) * g)
        y_avg += (y - y_avg) / t
        f_y = method_value(method, y, inst)
        if f_y < best_f:
            best_f = f_y
            best_y = y.copy()
        if t % 32 == 0:
            f_avg = method_value(method, y_avg, inst)
            if f_avg < best_f:
                best_f = f_avg
                best_y = y_avg.copy()
        if t % config.window == 0:
            if window_best - best_f < config.rtol * (abs(best_f) + 1e-9):
                stalled = True
                break
            window_best = best_f
            if t % (10 * config.window) == 0:
                # certificate test: f(y) - min f <= g'y - min_i g_i on the simplex
                best_y, best_f = _polish(method, inst, best_y, best_f, rounds=1)
                g = _subgradient(method, best_y, inst)
                gap = float(g @ best_y - g.min())
                if gap <= config.gap_rtol * (abs(best_f) + 1e-9):
                    stalled = True
                    break
    if not stalled:
        g = _subgradient(method, best_y, inst)
        raise SolverError(
            f"{method} counterpart did not stall within {config.max_iter} iterations",
            best=best_y, best_value=best_f, gap=float(g @ best_y - g.min()),
        )
    best_y, best_f = _polish(method, inst, best_y, best_f, config.polish_rounds)
    return CounterpartResult(PortfolioPoint(best_y), best_f, method, iterations)
