"""Independent oracles for the test suite: grids, enumerations, line searches,
and exact twins in ``fractions`` and 60-digit ``decimal`` arithmetic.

These deliberately avoid the library's closed forms so each assertion
compares two separately derived answers.  The one exception is
``exact_scores_reference``, the exact-mode block scorer that subset-sum
tables replaced, kept with the library's marginal helpers as the reference
for a change that reorders its sums.
"""

import decimal
import itertools
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np

from sparseball.core import ZFamily, enumerate_Z, scale_back, to_unit
from sparseball.hull import (_SCORE_BLOCK, _add_gain, _drop_gain, _rest_sums, submodular_cut_1,
                             submodular_cut_2)


def min_linear_on_ball(a, offset=0.0, angular_step=0.01):
    """Grid minimum of offset + a'x over the unit ball, dimension <= 3.

    A linear function attains its ball minimum on the sphere (or at the
    center when a = 0), so the grid runs over sphere directions plus the
    center.  The value error of the angular grid is quadratic in the step,
    well below 1e-4 for |a| of a few units at the default step.
    """
    a = np.asarray(a, dtype=float)
    m = a.size
    best = offset  # x = 0 candidate
    if m == 0:
        return best
    if m == 1:
        return min(best, offset - abs(a[0]), offset + a[0], offset - a[0])
    if m == 2:
        theta = np.arange(0.0, 2.0 * np.pi, angular_step)
        vals = offset + a[0] * np.cos(theta) + a[1] * np.sin(theta)
        return min(best, float(vals.min()))
    if m == 3:
        theta = np.arange(0.0, np.pi + angular_step, angular_step)
        phi = np.arange(0.0, 2.0 * np.pi, 2.0 * angular_step)
        st, ct = np.sin(theta)[:, None], np.cos(theta)[:, None]
        cp, sp = np.cos(phi)[None, :], np.sin(phi)[None, :]
        vals = offset + a[0] * st * cp + a[1] * st * sp + a[2] * ct
        return min(best, float(vals.min()))
    raise ValueError("ball grid oracle supports dimension <= 3 only")


def all_binary_vectors(n):
    """All 0/1 vectors of length n in lexicographic order, via itertools."""
    return [np.array(v, dtype=float) for v in itertools.product((0, 1), repeat=n)]


def family_members(kind, n, k=None):
    """Binary members of an activation family, independent enumeration."""
    out = []
    for v in itertools.product((0, 1), repeat=n):
        total = sum(v)
        if kind == "card_le" and total > k:
            continue
        if kind == "card_eq" and total != k:
            continue
        out.append(np.array(v, dtype=float))
    return out


def supports_mask(n, k):
    """(m, n) 0/1 matrix of every support of size <= k."""
    rows = []
    for size in range(min(k, n) + 1):
        for support in itertools.combinations(range(n), size):
            row = [0.0] * n
            for i in support:
                row[i] = 1.0
            rows.append(row)
    return np.array(rows)


def golden_min(f, lo, hi, iters=90):
    """Golden-section minimum of a convex scalar function; returns (x, f(x))."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    best_x, best_f = lo, f(lo)
    f_hi = f(hi)
    if f_hi < best_f:
        best_x, best_f = hi, f_hi
    c = hi - inv * (hi - lo)
    d = lo + inv * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - inv * (hi - lo)
            fc = f(c)
        elif fc > fd:
            lo, c, fc = c, d, fd
            d = lo + inv * (hi - lo)
            fd = f(d)
        else:
            lo, hi = c, d
            c = hi - inv * (hi - lo)
            d = lo + inv * (hi - lo)
            fc, fd = f(c), f(d)
        if fc < best_f:
            best_x, best_f = c, fc
        if fd < best_f:
            best_x, best_f = d, fd
    return best_x, best_f


def refined_grid_max(f, lo, hi, coarse=2001, fine=2001):
    """Two-stage grid maximum of a scalar function over [lo, hi]."""
    xs = np.linspace(lo, hi, coarse)
    vals = np.array([f(x) for x in xs])
    j = int(np.argmax(vals))
    left = xs[max(j - 1, 0)]
    right = xs[min(j + 1, coarse - 1)]
    xs2 = np.linspace(left, right, fine)
    vals2 = np.array([f(x) for x in xs2])
    j2 = int(np.argmax(vals2))
    return float(xs2[j2]), float(vals2[j2])


def sample_X_point(zfam_kind, n, k, rng):
    """Random feasible (x, z) of the indicator-ball set."""
    if zfam_kind == "free":
        z = rng.integers(0, 2, size=n).astype(float)
    elif zfam_kind == "card_le":
        size = int(rng.integers(0, k + 1))
        z = np.zeros(n)
        z[rng.choice(n, size=size, replace=False)] = 1.0
    else:
        z = np.zeros(n)
        z[rng.choice(n, size=k, replace=False)] = 1.0
    x = np.zeros(n)
    support = np.flatnonzero(z > 0.5)
    if support.size:
        direction = rng.normal(size=support.size)
        norm = np.linalg.norm(direction)
        if norm > 0:
            x[support] = direction / norm * rng.uniform(0.0, 1.0)
    return x, z


def sample_simplex(n, rng, count=1):
    """Uniform-ish simplex samples via normalized exponentials."""
    mat = rng.exponential(size=(count, n))
    mat /= mat.sum(axis=1, keepdims=True)
    return mat if count > 1 else mat[0]


def relaxation_gap(z, a, c, kind, k=None):
    """Linearization gap of phi(z) = c'z - sqrt(sum a_i^2 z_i) at z over conv(Z).

    phi is convex, so grad'z - min over conv(Z) of grad'v bounds phi(z)
    minus the relaxed optimum.  The linear minimum is summed from a sorted
    gradient (the most negative entries, at most k of them, or exactly the
    k smallest), not from any vertex the library builds.  The gradient is
    unbounded at a^2'z = 0 when some a_i != 0, so the gap is then inf.
    """
    z = np.asarray(z, dtype=float)
    asq = np.asarray(a, dtype=float) ** 2
    c = np.asarray(c, dtype=float)
    sigma = float(asq @ z)
    if sigma <= 0.0:
        if np.any(asq > 0.0):
            return math.inf
        g = c
    else:
        g = c - asq / (2.0 * math.sqrt(sigma))
    ascending = np.sort(g)
    if kind == "free":
        linear_min = float(np.minimum(g, 0.0).sum())
    elif kind == "card_le":
        linear_min = float(np.minimum(ascending[:k], 0.0).sum())
    else:
        linear_min = float(ascending[:k].sum())
    return float(g @ z) - linear_min


def cut_violations(p, alpha, subsets):
    """(m, 2) violations at p of both submodular cuts on each subset.

    The per-subset reference for the vectorized scorer: each cut is built
    by ``submodular_cut_1``/``submodular_cut_2`` and evaluated with
    ``violation_at``.
    """
    makers = (submodular_cut_1, submodular_cut_2)
    return np.array([[make(S, alpha).violation_at(p) for make in makers]
                     for S in subsets]).reshape(-1, 2)


def exact_scores_reference(p, alpha):
    """The exact-mode violations of ``violated_cuts`` as the block scorer
    before subset-sum tables took them: each block of member rows M gives its
    set sums q = M u^2 and both families' inside and outside sums as matrix
    products over every coordinate, on u = alpha / 2**e, scaled back."""
    e, u = to_unit(np.asarray(alpha, dtype=float))
    asq, lhs = u * u, float(np.abs(u) @ np.abs(p.x))
    members = enumerate_Z(ZFamily.free(u.size))
    one_minus_z = 1.0 - p.z
    outside1 = _add_gain(0.0, asq) * p.z
    inside2 = _add_gain(_rest_sums(asq), asq) * one_minus_z
    violations = np.empty((members.shape[0], 2))
    for start in range(0, members.shape[0], _SCORE_BLOCK):
        M = members[start:start + _SCORE_BLOCK].astype(float)
        out = violations[start:start + _SCORE_BLOCK]
        q = (M @ asq)[:, None]
        sq = np.sqrt(q[:, 0])
        outside = 1.0 - M
        out[:, 0] = lhs - (sq - (M * _drop_gain(q, asq)) @ one_minus_z + outside @ outside1)
        out[:, 1] = lhs - (sq - M @ inside2 + (outside * _add_gain(q, asq)) @ p.z)
    return scale_back(violations, e)


def prefix_sets(z):
    """The n + 1 nested prefixes of the indices sorted by (-z_i, i), smallest first."""
    order = sorted(range(len(z)), key=lambda i: (-z[i], i))
    return [order[:size] for size in range(len(z) + 1)]


def g_fsum(S, alpha):
    """g(S) = sqrt(sum of alpha_i^2 over S), the sum by math.fsum."""
    return math.sqrt(math.fsum(float(alpha[i]) ** 2 for i in S))


def rho_from_g(i, S, alpha):
    """rho_i(S) = g(S + i) - g(S), from g values alone."""
    return g_fsum(set(S) | {i}, alpha) - g_fsum(S, alpha)


def cut_from_g(S, alpha, family):
    """(rho_z, rhs) of submodular cut 1 or 2, or of the base inequality
    ("base"), on S, from g values alone.

    Inside S the coefficient is -rho_i(S - i) (family 2: -rho_i(N - i))
    and rhs = g(S) minus those marginals; outside S it is -rho_i(empty)
    (family 2: -rho_i(S); base: 0).  Shares no code with the library's
    marginals.
    """
    S = set(int(i) for i in S)
    T = set(range(len(alpha))) if family == 2 else S  # the set each inside i drops from
    inside = {i: g_fsum(T, alpha) - g_fsum(T - {i}, alpha) for i in S}
    rho_z = []
    for i in range(len(alpha)):
        if i in S:
            rho_z.append(-inside[i])
        elif family == 1:
            rho_z.append(-rho_from_g(i, (), alpha))
        elif family == 2:
            rho_z.append(-rho_from_g(i, S, alpha))
        else:
            rho_z.append(0.0)
    return np.array(rho_z), g_fsum(S, alpha) - math.fsum(inside.values())


def perspective_sum_exact(x, z):
    """sum_i x_i^2 / z_i over the z_i != 0 as an exact Fraction, or inf when
    some z_i = 0 has x_i != 0."""
    total = Fraction(0)
    for xi, zi in zip(map(float, x), map(float, z)):
        if zi == 0.0:
            if xi != 0.0:
                return math.inf
        else:
            total += Fraction(xi) ** 2 / Fraction(zi)
    return total


def top_k_sq_sum_exact(y, d, k):
    """Sum of the k largest (y_i / d_i)^2 as an exact Fraction."""
    squares = sorted((Fraction(float(yi)) / Fraction(float(di))) ** 2 for yi, di in zip(y, d))
    return sum(squares[len(squares) - k:], Fraction(0))


def _root(q):
    """sqrt of a Fraction to 60 digits (``decimal``), as a Fraction."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        return Fraction(Decimal(q.numerator).sqrt() / Decimal(q.denominator).sqrt())


def _counterpart_exact(y, inst, budget_norm):
    """a~'y + sqrt(b) * budget_norm(y / d) and |a~|'y + sqrt(b) * budget_norm(y / d),
    the linear part and the quotients y_i / d_i exact (fractions)."""
    y = [Fraction(float(yi)) for yi in y]
    linear = [Fraction(float(ai)) * yi for ai, yi in zip(inst.a_tilde, y)]
    budget = _root(Fraction(float(inst.b))) * budget_norm(
        [yi / Fraction(float(di)) for yi, di in zip(y, inst.d)], inst.k)
    return sum(linear, budget), sum(map(abs, linear), budget)


def budgeted_value_exact(y, inst):
    """The budgeted objective at y >= 0 and the sum of its terms' magnitudes:
    the top-k sum of y/d exact, sqrt(b) to 60 digits."""
    return _counterpart_exact(y, inst, lambda q, k: sum(sorted(q)[len(q) - k:], Fraction(0)))


def ellipsoidal_value_exact(y, inst):
    """The ellipsoidal objective at y and the sum of its terms' magnitudes: the
    sum of squares of y/d exact, the root of b times it to 60 digits."""
    return _counterpart_exact(y, inst, lambda q, k: _root(sum((qi * qi for qi in q), Fraction(0))))


def perspective_value_exact(y, inst):
    """The perspective objective at y and the sum of its terms' magnitudes: the
    top-k sum of squares of y/d exact, its root to 60 digits."""
    return _counterpart_exact(y, inst, lambda q, k: _root(sum(sorted(qi * qi for qi in q)[len(q) - k:],
                                                              Fraction(0))))


def nominal_value_exact(y, inst):
    """The nominal objective a~'y and the sum of its terms' magnitudes |a~|'|y|,
    both exact (fractions)."""
    terms = [Fraction(float(ai)) * Fraction(float(yi)) for ai, yi in zip(inst.a_tilde, y)]
    return sum(terms, Fraction(0)), sum(map(abs, terms), Fraction(0))


def _square_root(q):
    """The exact square root of a Fraction that is the square of a rational;
    ValueError for any other."""
    root = Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))
    if root * root != q:
        raise ValueError(f"{q} is not the square of a rational")
    return root


def budgeted_optimum(inst):
    """The budgeted counterpart's optimum t* = min(t_inf, t_1) as an exact
    Fraction, for a budget b that is the square of a rational, so that
    sqrt(b) is exact.

    The budgeted dual norm is max(||w||_inf, ||w||_1 / k), so t* is the
    largest t at which w = d o (t - a~)_+ keeps both terms within sqrt(b):
    t_inf = min_i a~_i + sqrt(b) / d_i, and t_1 solves
    sum_i d_i (t - a~_i)_+ = k sqrt(b).  That sum rises piecewise linearly
    in t, so t_1 is found on the first piece, between consecutive sorted
    a~, whose own solution does not pass the piece's right end.
    """
    root_b = _square_root(Fraction(float(inst.b)))
    a = [Fraction(float(ai)) for ai in inst.a_tilde]
    d = [Fraction(float(di)) for di in inst.d]
    t_inf = min(ai + root_b / di for ai, di in zip(a, d))
    pairs = sorted(zip(a, d))
    weight = level = Fraction(0)  # sums of d and of d a~ over the assets below t
    for m, (am, dm) in enumerate(pairs):
        weight, level = weight + dm, level + dm * am
        t_1 = (inst.k * root_b + level) / weight
        if m + 1 == len(pairs) or t_1 <= pairs[m + 1][0]:
            return min(t_inf, t_1)


def cut_lhs_exact(cut, x, z):
    """sum_i pi_abs_i |x_i| + rho_z_i z_i of a LinearCut as an exact Fraction,
    and the sum of its terms' magnitudes, sum_i pi_abs_i |x_i| + |rho_z_i| z_i."""
    terms = [Fraction(float(p)) * abs(Fraction(float(xi))) for p, xi in zip(cut.pi_abs, x)]
    terms += [Fraction(float(r)) * Fraction(float(zi)) for r, zi in zip(cut.rho_z, z)]
    return sum(terms, Fraction(0)), sum(map(abs, terms), Fraction(0))


def _nearest(exact):
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def ulps_off(value, exact, scale=None):
    """|value - exact| in ulps of the float nearest scale, by default exact (a
    subnormal ulp below the normal range); 0 when value and exact are both
    inf, inf when only one is."""
    nearest = _nearest(exact)
    if math.isinf(value) or math.isinf(nearest):
        return 0.0 if value == nearest else math.inf
    unit = math.ulp(_nearest(exact if scale is None else scale))
    return 0.0 if math.isinf(unit) else float(abs(Fraction(value) - exact) / Fraction(unit))


def cut_violation_exact(p, alpha, S, family):
    """Violation at p of ``submodular_cut_1`` (family 1) or ``submodular_cut_2``
    (family 2) on S, as a Fraction: every set sum of alpha_i^2 exact, every g
    a square root to 60 digits (``decimal``), every marginal a difference of g
    values, so the only error is the roots' (relative 1e-59 or so)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        asq = [Fraction(float(a)) ** 2 for a in alpha]

        def g(T):
            total = sum((asq[i] for i in T), Fraction(0))
            return Decimal(total.numerator).sqrt() / Decimal(total.denominator).sqrt()

        S, N = set(map(int, S)), set(range(len(asq)))
        T = N if family == 2 else S
        inside = {i: g(T) - g(T - {i}) for i in S}
        terms = [Decimal(abs(float(a))) * Decimal(abs(float(xi))) for a, xi in zip(alpha, p.x)]
        for i, zi in enumerate(map(float, p.z)):
            marginal = inside[i] if i in S else g(S | {i}) - g(S) if family == 2 else g({i})
            terms.append(-marginal * Decimal(zi))
        terms += [-g(S), *inside.values()]
        return Fraction(sum(terms, Decimal(0)))
