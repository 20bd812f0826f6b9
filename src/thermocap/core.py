"""Shared probability, channel, and Hamiltonian primitives.

Probabilities are 64-bit floats validated to tolerance 1e-9 at construction
and renormalised so sums are exact afterwards.  Energies are dimensionless
(units of k_B*T with k_B = T = 1); all values are immutable once built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)

#: construction tolerance for normalisation / negativity checks
SUM_TOL = 1e-9
#: default cap on tensor-product dimensions
DEFAULT_DIM_CAP = 1 << 20


class ThermocapError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(ThermocapError):
    pass


class DimensionTooLargeError(ThermocapError):
    pass


class SupportViolationError(ThermocapError):
    pass


class InfiniteValueError(ThermocapError):
    pass


class SearchSpaceTooLargeError(ThermocapError):
    pass


class AtomBudgetExceededError(ThermocapError):
    pass


class NoFeasibleCodebookError(ThermocapError):
    pass


class ZeroMarginalError(ThermocapError):
    pass


class ConvergenceError(ThermocapError):
    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _as_probability_array(values, shape_name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ThermocapError(f"{shape_name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ThermocapError(f"{shape_name} entries must be finite")
    if np.any(arr < -SUM_TOL):
        raise ThermocapError(f"{shape_name} entries must be nonnegative")
    total = float(arr.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise ThermocapError(f"{shape_name} must sum to 1 (got {total!r})")
    arr = np.clip(arr, 0.0, None)
    arr /= arr.sum()
    return _freeze(arr)


@dataclass(frozen=True, eq=False)
class Distribution:
    """Finite probability vector; doubles as a diagonal state."""

    probs: np.ndarray

    def __init__(self, probs):
        object.__setattr__(self, "probs", _as_probability_array(np.ravel(probs), "Distribution"))

    @property
    def dim(self) -> int:
        return int(self.probs.size)

    @staticmethod
    def uniform(dim: int) -> "Distribution":
        if dim < 1:
            raise ThermocapError("dim must be >= 1")
        return Distribution(np.full(dim, 1.0 / dim))

    @staticmethod
    def point_mass(index: int, dim: int) -> "Distribution":
        if not 0 <= index < dim:
            raise ThermocapError("point mass index out of range")
        probs = np.zeros(dim)
        probs[index] = 1.0
        return Distribution(probs)

    def to_dict(self) -> dict:
        return {"probs": [float(x) for x in self.probs]}

    @staticmethod
    def from_dict(data: dict) -> "Distribution":
        return Distribution(data["probs"])


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Bipartite probability table indexed (a, b)."""

    probs: np.ndarray

    def __init__(self, probs):
        arr = np.asarray(probs, dtype=np.float64)
        if arr.ndim != 2:
            raise ThermocapError("JointDistribution requires a 2-D table")
        object.__setattr__(self, "probs", _as_probability_array(arr, "JointDistribution").reshape(arr.shape))
        _freeze(self.probs)

    @property
    def dim_a(self) -> int:
        return int(self.probs.shape[0])

    @property
    def dim_b(self) -> int:
        return int(self.probs.shape[1])

    def marginal_a(self) -> Distribution:
        return Distribution(self.probs.sum(axis=1))

    def marginal_b(self) -> Distribution:
        return Distribution(self.probs.sum(axis=0))

    def flatten(self) -> Distribution:
        """A-major flattening onto a single index set."""
        return Distribution(self.probs.reshape(-1))

    @staticmethod
    def from_outer(p: Distribution, q: Distribution) -> "JointDistribution":
        return JointDistribution(np.outer(p.probs, q.probs))

    def to_dict(self) -> dict:
        return {"probs": [[float(x) for x in row] for row in self.probs]}

    @staticmethod
    def from_dict(data: dict) -> "JointDistribution":
        return JointDistribution(data["probs"])


@dataclass(frozen=True, eq=False)
class StochasticChannel:
    """Column-stochastic matrix t[y][x] = P(output y | input x)."""

    matrix: np.ndarray

    def __init__(self, matrix):
        arr = np.asarray(matrix, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise ThermocapError("StochasticChannel requires a 2-D matrix")
        if not np.all(np.isfinite(arr)):
            raise ThermocapError("channel entries must be finite")
        if np.any(arr < -SUM_TOL):
            raise ThermocapError("channel entries must be nonnegative")
        sums = arr.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > SUM_TOL):
            raise ThermocapError("channel columns must sum to 1")
        arr = np.clip(arr, 0.0, None)
        arr = arr / arr.sum(axis=0, keepdims=True)
        object.__setattr__(self, "matrix", _freeze(arr))

    @property
    def dim_in(self) -> int:
        return int(self.matrix.shape[1])

    @property
    def dim_out(self) -> int:
        return int(self.matrix.shape[0])

    def apply(self, p: Distribution) -> Distribution:
        if p.dim != self.dim_in:
            raise DimensionMismatchError("input dimension mismatch")
        return Distribution(self.matrix @ p.probs)

    @staticmethod
    def identity(dim: int) -> "StochasticChannel":
        return StochasticChannel(np.eye(dim))

    @staticmethod
    def constant(dim_in: int, target: int = 0, dim_out: int | None = None) -> "StochasticChannel":
        dim_out = dim_in if dim_out is None else dim_out
        mat = np.zeros((dim_out, dim_in))
        mat[target, :] = 1.0
        return StochasticChannel(mat)

    @staticmethod
    def binary_symmetric(flip: float) -> "StochasticChannel":
        if not 0.0 <= flip <= 1.0:
            raise ThermocapError("flip probability must lie in [0, 1]")
        return StochasticChannel([[1.0 - flip, flip], [flip, 1.0 - flip]])

    def to_dict(self) -> dict:
        return {
            "matrix": [[float(x) for x in row] for row in self.matrix],
            "dim_in": self.dim_in,
            "dim_out": self.dim_out,
        }

    @staticmethod
    def from_dict(data: dict) -> "StochasticChannel":
        ch = StochasticChannel(data["matrix"])
        if "dim_in" in data and int(data["dim_in"]) != ch.dim_in:
            raise ThermocapError("dim_in does not match matrix shape")
        if "dim_out" in data and int(data["dim_out"]) != ch.dim_out:
            raise ThermocapError("dim_out does not match matrix shape")
        return ch


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Energy levels in units of k_B*T."""

    levels: np.ndarray

    def __init__(self, levels):
        arr = np.array(levels, dtype=np.float64, copy=True).ravel()
        if arr.size == 0:
            raise ThermocapError("Hamiltonian must have at least one level")
        if not np.all(np.isfinite(arr)):
            raise ThermocapError("energy levels must be finite")
        object.__setattr__(self, "levels", _freeze(arr))

    @property
    def dim(self) -> int:
        return int(self.levels.size)

    @staticmethod
    def degenerate(dim: int, energy: float = 0.0) -> "Hamiltonian":
        return Hamiltonian(np.full(dim, float(energy)))

    def to_dict(self) -> dict:
        return {"levels": [float(x) for x in self.levels], "units": "kT"}

    @staticmethod
    def from_dict(data: dict) -> "Hamiltonian":
        units = data.get("units", "kT")
        if units != "kT":
            raise ThermocapError(f"unsupported energy units {units!r}")
        return Hamiltonian(data["levels"])


@dataclass(frozen=True)
class ErrorParams:
    """Error parameters shared by the bound checkers.

    The two validity regimes differ: the entropic capacity sandwich needs
    0 < delta <= omega < eps <= 1/2, the work-extraction results need
    0 < eps <= 1 - 1/sqrt(2).
    """

    eps: float
    omega: float | None = None
    delta: float | None = None
    theta: float | None = None

    WORK_EPS_MAX = 1.0 - 1.0 / math.sqrt(2.0)

    def require_sandwich(self) -> None:
        if self.omega is None or self.delta is None:
            raise ThermocapError("omega and delta are required here")
        if not (0.0 < self.delta <= self.omega < self.eps <= 0.5):
            raise ThermocapError("need 0 < delta <= omega < eps <= 1/2")

    def require_work_sandwich(self) -> None:
        if self.omega is None or self.delta is None:
            raise ThermocapError("omega and delta are required here")
        if not (0.0 < self.delta <= self.omega < self.eps <= self.WORK_EPS_MAX):
            raise ThermocapError("need 0 < delta <= omega < eps <= 1 - 1/sqrt(2)")


def trace_distance(p: Distribution, q: Distribution) -> float:
    """L1 distance between two probability vectors (trace norm of the
    diagonal difference); lies in [0, 2]."""
    if p.dim != q.dim:
        raise DimensionMismatchError("distributions must share a dimension")
    return float(np.abs(p.probs - q.probs).sum())


def gibbs_state(h: Hamiltonian) -> Distribution:
    """Thermal state exp(-E_j) / Z of the given levels."""
    w = np.exp(-(h.levels - h.levels.min()))
    return Distribution(w / w.sum())


def _gibbs_probs(levels: np.ndarray) -> np.ndarray:
    """The bits of gibbs_state(Hamiltonian(levels)).probs, building neither
    object: the normalised weights, renormalised once as Distribution does."""
    w = np.exp(-(levels - levels.min()))
    probs = w / w.sum()
    return probs / probs.sum()


def maximally_correlated(m: int) -> JointDistribution:
    """Uniform perfectly correlated bipartite table on m x m outcomes."""
    if m < 1:
        raise ThermocapError("m must be >= 1")
    return JointDistribution(np.eye(m) / m)


def apply_local(ch: StochasticChannel, j: JointDistribution) -> JointDistribution:
    """Push the first subsystem through ch, leaving the second untouched."""
    if ch.dim_in != j.dim_a:
        raise DimensionMismatchError("channel input does not match subsystem A")
    return JointDistribution(ch.matrix @ j.probs)


def tensor_power(p: Distribution, n: int, max_dim: int = DEFAULT_DIM_CAP) -> Distribution:
    """i.i.d. product law; lexicographic order, first factor most significant."""
    if n < 1:
        raise ThermocapError("n must be >= 1")
    if p.dim ** n > max_dim:
        raise DimensionTooLargeError(f"tensor power dimension {p.dim}^{n} exceeds cap {max_dim}")
    out = p.probs
    for _ in range(n - 1):
        out = np.kron(out, p.probs)
    return Distribution(out)


def tensor_power_channel(ch: StochasticChannel, n: int, max_dim: int = DEFAULT_DIM_CAP) -> StochasticChannel:
    """i.i.d. product channel in the same index convention as tensor_power."""
    if n < 1:
        raise ThermocapError("n must be >= 1")
    if max(ch.dim_in, ch.dim_out) ** n > max_dim:
        raise DimensionTooLargeError("tensor power dimension exceeds cap")
    out = ch.matrix
    for _ in range(n - 1):
        out = np.kron(out, ch.matrix)
    return StochasticChannel(out)
