"""Domain types and feasibility predicates for the indicator-sparse unit ball.

The central object is the pair set ``{(x, z) : ||x||_2^2 <= 1,
x o (1 - z) = 0, z in Z}`` where ``o`` is the entrywise product and Z is a
binary activation family over {0,1}^n.  Three families are supported: the
free box, at-most-k and exactly-k cardinality.  Every 0/1 member matrix the
package builds comes from :func:`enumerate_Z`, under the one enumeration
guard ``ENUMERATION_GUARD = 16``.  Every square of user data in the package
is taken on the data divided by the power of two of :func:`to_unit` (or by
:func:`norm`), so no finite scale over- or underflows one, and results, scalar
or array, come back through :func:`scale_back`, as +-inf when they are past
the float range.  Only this module picks a scale or applies one.

All types are immutable after construction and every operation is pure (the
memo of :func:`enumerate_Z` holds read-only results), so everything here is
safe to call concurrently.  Ties in sorts and argmins are always broken
toward the smallest index so results are reproducible.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FREE = "free"
CARD_LE = "card_le"
CARD_EQ = "card_eq"
_KINDS = (FREE, CARD_LE, CARD_EQ)

# enumerate_Z takes its ids as 16-bit words, so the guard cannot exceed 16
ENUMERATION_GUARD = 16


class SolverError(RuntimeError):
    """A solver could not return an answer.

    Nothing in the package raises it: every solve returns an answer with a
    certified bound, the budgeted counterpart at its iteration cap too.  It
    stays exported, with the best iterate, its value and a gap, because the
    benchmark's relaxation workload still catches it and the benchmark's
    tests construct it.
    """

    def __init__(self, message: str, best=None, best_value=None, gap=None):
        super().__init__(message)
        self.best = best
        self.best_value = best_value
        self.gap = gap


def safe_div(num: float, den: float) -> float:
    """Division under the package-wide zero-denominator convention.

    0/0 = 0 and a/0 = +-inf by the sign of a.  The perspective membership
    test and the dual closed forms all rely on this exact convention, so it
    lives here as the single shared helper.
    """
    if den == 0.0:
        if num == 0.0:
            return 0.0
        return math.inf if num > 0.0 else -math.inf
    return num / den


def unit_scale(*vectors) -> int:
    """The exponent e with max |entry| / 2**e in [0.5, 1), or 0 when every entry is 0.

    Dividing by 2**e is exact for normal numbers, so squares and sums taken
    on the scaled data neither over- nor underflow, and they keep the order
    and the ties of the unscaled ones wherever those are representable.
    Infinite entries are left out of the max: they stay inf on any scale.
    """
    sizes = [np.abs(v) for v in vectors]
    top = max(float(s.max(initial=0.0)) for s in sizes)
    if math.isinf(top):
        top = max(float(s.max(initial=0.0, where=np.isfinite(s))) for s in sizes)
    return math.frexp(top)[1]


def to_unit(*vectors) -> tuple:
    """``(e, v1 / 2**e, v2 / 2**e, ...)`` with e = :func:`unit_scale` of them all:
    the one scale rule.  Callers square these and scale results back by
    :func:`scale_back`."""
    e = unit_scale(*vectors)
    return (e, *(np.ldexp(v, -e) for v in vectors))


def scale_back(r, e):
    """r * 2**e, a result taken on :func:`to_unit`'s scale brought back; +-inf
    past the float range and 0 below it, with no warning.

    r is a float, or an array that is left unchanged, with e an int or (for
    an array) an array of ints broadcast against it.
    """
    if isinstance(r, np.ndarray):
        with np.errstate(over="ignore", under="ignore"):
            return np.ldexp(r, e)
    try:
        return math.ldexp(r, e)
    except OverflowError:
        return math.copysign(math.inf, r)


def norm(v) -> float:
    """Euclidean norm of v, summed on :func:`to_unit`'s v / 2**e; inf past the float range."""
    e, u = to_unit(v)
    return scale_back(math.sqrt(float(u @ u)), e)


def safe_div_arr(num, den) -> np.ndarray:
    """Vectorized :func:`safe_div`."""
    num, den = np.broadcast_arrays(np.asarray(num, dtype=float), np.asarray(den, dtype=float))
    out = np.zeros(num.shape)
    nz = den != 0.0
    out[nz] = num[nz] / den[nz]
    zm = ~nz
    out[zm] = np.where(num[zm] > 0.0, math.inf, np.where(num[zm] < 0.0, -math.inf, 0.0))
    return out


def as_int(value, name: str) -> int:
    """Plain int from any integral number, numpy integers included.

    bool and non-integral values raise ValueError naming the type, so a
    caller can tell a wrong type from an out-of-range value.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r} of type {type(value).__name__}")
    return int(value)


def as_budget(value) -> float:
    """Budget b as a float: any finite nonnegative real number.

    bool and non-real values raise ValueError naming the type.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"budget b must be a real number, got {value!r} of type {type(value).__name__}")
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"budget b must be finite and nonnegative, got b={value}")
    return float(value)


def as_index_set(S, n: int) -> np.ndarray:
    """Sorted distinct indices of S as an int array, each in 0 .. n - 1.

    S is a 1-D collection of integers (a set, a sequence or a numpy integer
    array); the empty set is allowed.  bool or non-integral entries raise
    ValueError, an index out of range raises IndexError.
    """
    idx = np.asarray(list(S) if isinstance(S, (set, frozenset)) else S)
    if idx.ndim != 1:
        raise ValueError("an index set must be a one-dimensional collection of integers")
    if idx.size == 0:
        return np.zeros(0, dtype=int)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"an index set must hold integers, got entries of type {idx.dtype}")
    idx = np.unique(idx)
    if idx[0] < 0 or idx[-1] >= n:
        raise IndexError(f"index set out of range for n = {n}")
    return idx.astype(int, copy=False)


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Copy input into a finite 1-D float array or raise ValueError."""
    try:
        arr = np.array(v, dtype=float, copy=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be an array of real numbers ({exc})") from None
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite entries")
    return arr


def freeze_fields(obj, *names: str) -> None:
    """Set each named field of the frozen dataclass obj to its value as a
    read-only, finite 1-D float64 array.

    A value that already is one and owns its data is shared as is, since no
    one can write to it through another array; anything else is copied by
    :func:`as_vector` (ValueError naming the field when it is not finite or
    not 1-D) and the copy frozen.
    """
    for name in names:
        v = getattr(obj, name)
        if not (isinstance(v, np.ndarray) and not v.flags.writeable and v.flags.owndata
                and v.dtype == np.float64 and v.ndim == 1 and np.all(np.isfinite(v))):
            v = as_vector(v, name)
            v.setflags(write=False)
        object.__setattr__(obj, name, v)


@dataclass(frozen=True)
class Tolerance:
    """The package's one numeric tolerance, DEFAULT_TOL.

    feas_abs is the absolute slack of the feasibility, membership and
    cut-violation tests.
    """

    feas_abs: float = 1e-9


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class ZFamily:
    """A family of admissible binary activation patterns z in {0,1}^n."""

    kind: str
    n: int
    k: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}; expected one of {_KINDS}")
        n = as_int(self.n, "n")
        if n < 1:
            raise ValueError(f"n must be at least 1, got n={n}")
        object.__setattr__(self, "n", n)
        if self.kind == FREE:
            if self.k is not None:
                raise ValueError("k only applies to cardinality families")
        else:
            k = as_int(self.k, "k")
            if not 1 <= k <= n:
                raise ValueError(f"cardinality families need 1 <= k <= n, got k={k}, n={n}")
            object.__setattr__(self, "k", k)

    @classmethod
    def free(cls, n: int) -> "ZFamily":
        return cls(FREE, n)

    @classmethod
    def card_le(cls, n: int, k: int) -> "ZFamily":
        return cls(CARD_LE, n, k)

    @classmethod
    def card_eq(cls, n: int, k: int) -> "ZFamily":
        return cls(CARD_EQ, n, k)

    def member_count(self) -> int:
        """Exact number of members of the family."""
        if self.kind == FREE:
            return 2 ** self.n
        if self.kind == CARD_LE:
            return sum(math.comb(self.n, j) for j in range(self.k + 1))
        return math.comb(self.n, self.k)

    def contains(self, z) -> bool:
        """Binary membership: entries 0/1 within feas_abs plus the cardinality row."""
        z = np.asarray(z, dtype=float)
        if z.shape != (self.n,):
            raise ValueError(f"dimension mismatch: expected length {self.n}")
        zround = np.round(z)
        if np.any(np.abs(z - zround) > DEFAULT_TOL.feas_abs):
            return False
        ones = int(zround.sum())
        if self.kind == CARD_LE:
            return ones <= self.k
        if self.kind == CARD_EQ:
            return ones == self.k
        return True

    def conv_contains(self, z) -> bool:
        """Membership in the convex hull of the family (unit box plus budget row)."""
        z = np.asarray(z, dtype=float)
        if z.shape != (self.n,):
            raise ValueError(f"dimension mismatch: expected length {self.n}")
        if np.any(z < -DEFAULT_TOL.feas_abs) or np.any(z > 1.0 + DEFAULT_TOL.feas_abs):
            return False
        total = float(z.sum())
        if self.kind == CARD_LE:
            return total <= self.k + DEFAULT_TOL.feas_abs
        if self.kind == CARD_EQ:
            return abs(total - self.k) <= DEFAULT_TOL.feas_abs
        return True


@dataclass(frozen=True)
class MixedPoint:
    """A candidate pair (x, z).

    z entries are clamped to [0, 1] at construction; non-finite input is
    rejected.  Arrays are frozen read-only so points can be shared freely,
    and a frozen array is kept as is (:func:`freeze_fields`), so a point
    built on a relaxation's z_bar shares it.
    """

    x: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        freeze_fields(self, "x", "z")
        if self.x.shape != self.z.shape:
            raise ValueError("x and z must have equal length")
        if np.any(self.z < 0.0) or np.any(self.z > 1.0):
            object.__setattr__(self, "z", np.clip(self.z, 0.0, 1.0))
            freeze_fields(self, "z")

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class ProblemInstance:
    """Linear costs (a on the continuous part, c on the activations)."""

    a: np.ndarray
    c: np.ndarray
    zfam: ZFamily

    def __post_init__(self):
        freeze_fields(self, "a", "c")
        if self.a.size != self.zfam.n or self.c.size != self.zfam.n:
            raise ValueError("a and c must have length zfam.n")

    @property
    def n(self) -> int:
        return self.zfam.n


def is_in_X(p: MixedPoint, zfam: ZFamily) -> bool:
    """Tolerance-aware membership in the indicator-ball set.

    Requires the squared norm of x at most 1, binary z belonging to the
    family, and the complementarity x_i (1 - z_i) = 0, each within feas_abs.
    The squared norm is summed on x / 2**e (:func:`to_unit`), so an x past
    the float range is outside, not an overflow.
    """
    if p.n != zfam.n:
        raise ValueError("dimension mismatch between point and family")
    e, u = to_unit(p.x)
    if scale_back(float(u @ u), 2 * e) > 1.0 + DEFAULT_TOL.feas_abs:
        return False
    if not zfam.contains(p.z):
        return False
    return bool(np.all(np.abs(p.x * (1.0 - p.z)) <= DEFAULT_TOL.feas_abs))


def satisfies_bigM(p: MixedPoint) -> bool:
    """Check the big-M linearization |x_i| <= z_i within feas_abs."""
    return bool(np.all(np.abs(p.x) <= p.z + DEFAULT_TOL.feas_abs))


@functools.cache
def enumerate_Z(zfam: ZFamily) -> np.ndarray:
    """All members of the family as an (m, n) 0/1 int8 matrix, rows lexicographic.

    Guarded to n <= ENUMERATION_GUARD = 16: no library path enumerates
    more (exact separation at n = 16, brute force's halves at n <= 12), and
    at n = 16 the output is 1 MiB.  One pass serves every family: the ids
    0 .. 2^n - 1 (counting order is lexicographic order) as big-endian
    16-bit words, a cardinality family keeps the ids whose popcount fits,
    and their bits are unpacked, the low n of each word kept.

    The result is memoized per family (``enumerate_Z.cache_clear()`` drops
    it) and read-only, so every call for a family returns the same matrix
    and no caller can change it for the next.  Held for the life of the
    process: 19.8 MiB in the worst case, every family with n <= 16; the
    library's own calls hold 0.74 MiB for every half at n <= 12 (brute
    force to n = 24) plus 1 MiB for ``free(16)`` (exact separation).
    """
    n = zfam.n
    if n > ENUMERATION_GUARD:
        raise ValueError(f"enumeration is guarded to n <= {ENUMERATION_GUARD}, got n = {n}")
    ids = np.arange(1 << n, dtype=">u2")
    if zfam.kind != FREE:
        ones = np.bitwise_count(ids)
        ids = ids[ones <= zfam.k if zfam.kind == CARD_LE else ones == zfam.k]
    bits = np.unpackbits(ids.view(np.uint8).reshape(-1, 2), axis=1)
    members = np.ascontiguousarray(bits[:, 16 - n:]).view(np.int8)
    members.setflags(write=False)
    return members


# ---------------------------------------------------------------------------
# instance file format


def _reject_constant(token: str):
    raise ValueError(f"non-finite value {token!r} is not allowed in instance files")


def loads_strict(text: str):
    """json.loads that rejects NaN/Infinity tokens."""
    return json.loads(text, parse_constant=_reject_constant)


def parse_problem_instance(obj: dict) -> ProblemInstance:
    """Build a ProblemInstance from its JSON object form."""
    try:
        n = obj["n"]
        a = obj["a"]
        c = obj["c"]
        fam = obj["zfam"]
        kind = fam["kind"]
        k = fam.get("k")
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed problem instance: missing field ({exc})") from exc
    return ProblemInstance(a, c, ZFamily(kind, n, k))


def problem_instance_to_dict(inst: ProblemInstance) -> dict:
    fam: dict = {"kind": inst.zfam.kind}
    if inst.zfam.k is not None:
        fam["k"] = inst.zfam.k
    return {"n": inst.n, "a": inst.a.tolist(), "c": inst.c.tolist(), "zfam": fam}


def load_problem_instance(path) -> ProblemInstance:
    return parse_problem_instance(loads_strict(Path(path).read_text()))
