"""Domain types and feasibility predicates for the indicator-sparse unit ball.

The central object is the pair set ``{(x, z) : ||x||_2^2 <= 1,
x o (1 - z) = 0, z in Z}`` where ``o`` is the entrywise product and Z is a
binary activation family over {0,1}^n.  Three families are supported: the
free box, at-most-k and exactly-k cardinality.

All types are immutable after construction and every operation is pure, so
everything here is safe to call concurrently.  Ties in sorts and argmins are
always broken toward the smallest index so results are reproducible.
"""

from __future__ import annotations

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

# enumeration of an activation family is an oracle for small n only
ENUMERATION_GUARD = 24
_ENUMERATION_CHUNK = 1 << 16


class SolverError(RuntimeError):
    """A solver could not return an answer.

    Raised by the robust counterpart solver when it reaches its fixed
    iteration cap.  Carries the best iterate found so far and a gap
    estimate so callers can still inspect partial progress.  The conv(Z)
    relaxation is exact and its rounding picks one of two family members,
    so it never raises it.
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


@dataclass(frozen=True)
class Tolerance:
    """Shared numeric tolerance.

    feas_abs is the absolute slack of the feasibility, membership and
    cut-violation tests.
    """

    feas_abs: float = 1e-9

    def __post_init__(self):
        if not self.feas_abs > 0.0:
            raise ValueError("feas_abs must be strictly positive")


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

    def contains(self, z, tol: Tolerance = DEFAULT_TOL) -> bool:
        """Binary membership: entries 0/1 within feas_abs plus the cardinality row."""
        z = np.asarray(z, dtype=float)
        if z.shape != (self.n,):
            raise ValueError(f"dimension mismatch: expected length {self.n}")
        zround = np.round(z)
        if np.any(np.abs(z - zround) > tol.feas_abs):
            return False
        ones = int(zround.sum())
        if self.kind == CARD_LE:
            return ones <= self.k
        if self.kind == CARD_EQ:
            return ones == self.k
        return True

    def conv_contains(self, z, tol: Tolerance = DEFAULT_TOL) -> bool:
        """Membership in the convex hull of the family (unit box plus budget row)."""
        z = np.asarray(z, dtype=float)
        if z.shape != (self.n,):
            raise ValueError(f"dimension mismatch: expected length {self.n}")
        if np.any(z < -tol.feas_abs) or np.any(z > 1.0 + tol.feas_abs):
            return False
        total = float(z.sum())
        if self.kind == CARD_LE:
            return total <= self.k + tol.feas_abs
        if self.kind == CARD_EQ:
            return abs(total - self.k) <= tol.feas_abs
        return True


@dataclass(frozen=True)
class MixedPoint:
    """A candidate pair (x, z).

    z entries are clamped to [0, 1] at construction; non-finite input is
    rejected.  Arrays are frozen read-only so points can be shared freely.
    """

    x: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        x = as_vector(self.x, "x")
        z = as_vector(self.z, "z")
        if x.shape != z.shape:
            raise ValueError("x and z must have equal length")
        z = np.clip(z, 0.0, 1.0)
        x.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)

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
        a = as_vector(self.a, "a")
        c = as_vector(self.c, "c")
        if a.size != self.zfam.n or c.size != self.zfam.n:
            raise ValueError("a and c must have length zfam.n")
        a.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.zfam.n


def is_in_X(p: MixedPoint, zfam: ZFamily, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Tolerance-aware membership in the indicator-ball set.

    Requires the squared norm of x at most 1, binary z belonging to the
    family, and the complementarity x_i (1 - z_i) = 0, each within feas_abs.
    """
    if p.n != zfam.n:
        raise ValueError("dimension mismatch between point and family")
    if float(p.x @ p.x) > 1.0 + tol.feas_abs:
        return False
    if not zfam.contains(p.z, tol):
        return False
    return bool(np.all(np.abs(p.x * (1.0 - p.z)) <= tol.feas_abs))


def satisfies_bigM(p: MixedPoint, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Check the big-M linearization |x_i| <= z_i within feas_abs."""
    return bool(np.all(np.abs(p.x) <= p.z + tol.feas_abs))


def check_enumeration_guard(n: int) -> None:
    """Raise ValueError when n exceeds the enumeration guard."""
    if n > ENUMERATION_GUARD:
        raise ValueError(f"enumeration is guarded to n <= {ENUMERATION_GUARD}, got n = {n}")


def enumerate_Z(zfam: ZFamily) -> np.ndarray:
    """All members of the family as an (m, n) 0/1 int8 matrix, rows lexicographic.

    Guarded to n <= 24.  One path serves every family: the ids 0 .. 2^n - 1
    are walked in chunks of 2^16 (counting order is lexicographic order), a
    cardinality family keeps the ids whose popcount fits, and their bits
    are unpacked into an output preallocated at ``member_count()`` rows.
    The scan costs time proportional to 2^n, not to the member count; no
    library path enumerates a cardinality family above n = 12, because
    brute force splits z into halves.
    """
    n = zfam.n
    check_enumeration_guard(n)
    out = np.empty((zfam.member_count(), n), dtype=np.int8)
    filled = 0
    total = 1 << n
    for start in range(0, total, _ENUMERATION_CHUNK):
        ids = np.arange(start, min(start + _ENUMERATION_CHUNK, total), dtype=np.uint32)
        if zfam.kind != FREE:
            ones = np.bitwise_count(ids)
            ids = ids[ones <= zfam.k if zfam.kind == CARD_LE else ones == zfam.k]
        bits = np.unpackbits(ids.astype(">u4").view(np.uint8).reshape(-1, 4), axis=1)
        out[filled:filled + ids.size] = bits[:, 32 - n:]
        filled += ids.size
    return out


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
    zfam = ZFamily(kind, n, k)
    a = as_vector(a, "a")
    c = as_vector(c, "c")
    if a.size != zfam.n or c.size != zfam.n:
        raise ValueError("a and c must have length n")
    return ProblemInstance(a, c, zfam)


def problem_instance_to_dict(inst: ProblemInstance) -> dict:
    fam: dict = {"kind": inst.zfam.kind}
    if inst.zfam.k is not None:
        fam["k"] = inst.zfam.k
    return {"n": inst.n, "a": inst.a.tolist(), "c": inst.c.tolist(), "zfam": fam}


def load_problem_instance(path) -> ProblemInstance:
    return parse_problem_instance(loads_strict(Path(path).read_text()))
