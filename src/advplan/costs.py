"""System-level inefficiency costs and agent-level discomfort aggregation.

The global response is the elementwise sum of all selected plans; the
inefficiency of a response is either its dispersion (population variance) or
its residual sum of squares against a target signal, optionally after scaling
both vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError
from .plans import TargetSignal

# The global response is a plain length-d float vector.
GlobalResponse = np.ndarray

INEFFICIENCY_KINDS = ("variance", "rss")
SCALING_MODES = ("identity", "min-max", "zero-mean-unit-norm")


def _canonical_kind(kind: str) -> str:
    name = kind.strip().lower()
    if name not in INEFFICIENCY_KINDS:
        raise InvalidInputError(
            f"unknown inefficiency kind {kind!r}; pick one of {INEFFICIENCY_KINDS}"
        )
    return name


def _canonical_scaling(mode: str) -> str:
    name = mode.strip().lower().replace("_", "-")
    if name not in SCALING_MODES:
        raise InvalidInputError(f"unknown scaling mode {mode!r}; pick one of {SCALING_MODES}")
    return name


def scale_vector(values: np.ndarray, mode: str) -> np.ndarray:
    """Apply one of the supported scaling modes; flat vectors scale to zeros.

    A stacked ``(..., d)`` array is scaled row by row, each row exactly as it
    would be on its own.
    """
    return _scale_rows(np.asarray(values, dtype=float), _canonical_scaling(mode))


def _scale_rows(values: np.ndarray, mode: str) -> np.ndarray:
    if mode == "identity":
        return values
    if mode == "min-max":
        lo = values.min(axis=-1, keepdims=True)
        shifted, span = values - lo, values.max(axis=-1, keepdims=True) - lo
    else:
        shifted = values - values.mean(axis=-1, keepdims=True)
        span = np.sqrt(_sum_squares(shifted))[..., None]
    return np.divide(shifted, span, out=np.zeros_like(shifted), where=span != 0.0)


def _sum_squares(values: np.ndarray) -> np.ndarray:
    """``row @ row`` for every row of a ``(..., d)`` stack.

    A stacked ``(1, d) @ (d, 1)`` product takes numpy's vector dot product
    per row, so each result has the bits of the one-row ``row @ row``.
    """
    return (values[..., None, :] @ values[..., :, None])[..., 0, 0]


def _variance_rows(values: np.ndarray) -> np.ndarray:
    """``np.var(values, axis=-1)`` with numpy's own steps spelled out.

    Same operations in the same order, so the same bits, without the
    dispatch overhead that dominates on the small arrays of the engine.
    """
    d = values.shape[-1]
    mean = np.add.reduce(values, axis=-1, keepdims=True)
    mean /= d
    dev = values - mean
    np.square(dev, out=dev)
    out = np.add.reduce(dev, axis=-1)
    out /= d
    return out


@dataclass(frozen=True)
class InefficiencyFn:
    """Configured system-cost function: plain variance or RSS to a target."""

    kind: str = "variance"
    target: np.ndarray | None = None
    scaling: str = "identity"

    def __post_init__(self) -> None:
        kind = _canonical_kind(self.kind)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "scaling", _canonical_scaling(self.scaling))
        if kind == "rss":
            if self.target is None:
                raise InvalidInputError("rss inefficiency requires a target signal")
            target = self.target.values if isinstance(self.target, TargetSignal) else self.target
            object.__setattr__(self, "target", np.asarray(target, dtype=float))
            object.__setattr__(self, "_scaled_target", _scale_rows(self.target, self.scaling))

    def __call__(self, g: GlobalResponse) -> float | np.ndarray:
        """Cost of a response vector; a stacked ``(..., d)`` array gets one per row."""
        g = np.asarray(g, dtype=float)
        if self.kind == "variance":
            if g.size == 0:
                raise InvalidInputError("variance of an empty response is undefined")
            cost = _variance_rows(g)
        else:
            cost = _sum_squares(self._diff(g))
        return float(cost) if g.ndim == 1 else cost

    def batch(self, candidates: np.ndarray) -> np.ndarray:
        """Cost of every row of a ``(..., k, d)`` stack of candidate responses.

        This is the plan-selection kernel. For RSS it reduces with ``einsum``,
        while ``__call__`` uses a dot product per row; the two may differ in
        the last bit, so each stays where its results are compared.
        """
        candidates = np.asarray(candidates, dtype=float)
        if self.kind == "variance":
            return _variance_rows(candidates)
        diff = self._diff(candidates)
        return np.einsum("...j,...j->...", diff, diff)

    def _diff(self, g: np.ndarray) -> np.ndarray:
        if g.shape[-1] != self.target.shape[0]:
            raise DimensionMismatchError(
                f"response has dimension {g.shape[-1]}, target {self.target.shape[0]}"
            )
        return _scale_rows(g, self.scaling) - self._scaled_target
