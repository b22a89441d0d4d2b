"""System-level inefficiency costs and agent-level discomfort aggregation.

The global response is the elementwise sum of all selected plans; the
inefficiency of a response is either its dispersion (population variance) or
its residual sum of squares against a target signal, optionally after scaling
both vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError, InvalidSizeError

# The global response is a plain length-d float vector.
GlobalResponse = np.ndarray

INEFFICIENCY_KINDS = ("variance", "rss")
SCALING_MODES = ("identity", "min-max", "zero-mean-unit-norm")
# Trailing axes shorter than this are reduced column by column, since numpy
# pays per row on them. Below 8 elements its sum runs left to right from
# +0.0, as the columns do; from 8 it sums pairwise, so longer axes keep it.
SHORT_AXIS = 8


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
        lo = reduce_rows(np.minimum, values)[..., None]
        shifted, span = values - lo, reduce_rows(np.maximum, values)[..., None] - lo
    else:
        shifted = values - (reduce_rows(np.add, values) / values.shape[-1])[..., None]
        span = np.sqrt(_sum_squares(shifted))[..., None]
    # A flat row (span 0) scales to +0.0: it is zeroed and divided by 1, so
    # a row of mixed +-0.0, whose shift may hold -0.0, gives +0.0 too.
    flat = span == 0.0
    if flat.any():
        span[flat] = 1.0
        np.copyto(shifted, 0.0, where=flat)
    return np.divide(shifted, span, out=shifted)


def reduce_rows(ufunc: np.ufunc, values: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(values, axis=-1)`` for add, minimum or maximum, same bits."""
    d = values.shape[-1]
    if not 0 < d < SHORT_AXIS:
        return ufunc.reduce(values, axis=-1)
    out = values[..., 0].copy(order="K")
    if ufunc is np.add:
        out += 0.0  # numpy's sum starts from +0.0, which turns -0.0 into +0.0
    for j in range(1, d):
        ufunc(out, values[..., j], out=out)
    return out


def _sum_squares(values: np.ndarray) -> np.ndarray:
    """``row @ row`` for every row of a ``(..., d)`` stack.

    A stacked ``(1, d) @ (d, 1)`` product takes numpy's vector dot product
    per row, so each result has the bits of the one-row ``row @ row``.
    """
    return (values[..., None, :] @ values[..., :, None])[..., 0, 0]


def _variance_rows(values: np.ndarray) -> np.ndarray:
    """``np.var(values, axis=-1)`` with numpy's own steps spelled out.

    Same operations in the same order, so the same bits, without the
    dispatch overhead that dominates on the small arrays of the engine. A
    short axis squares and sums its deviations column by column.
    """
    d = values.shape[-1]
    mean = reduce_rows(np.add, values)
    mean /= d
    if d >= SHORT_AXIS:
        dev = values - mean[..., None]
        np.square(dev, out=dev)
        out = np.add.reduce(dev, axis=-1)
    else:
        out = np.zeros_like(mean)
        for j in range(d):
            dev = values[..., j] - mean
            dev *= dev
            out += dev
    out /= d
    return out


@dataclass(frozen=True)
class InefficiencyFn:
    """Configured system-cost function: plain variance or RSS to a target.

    The RSS target is one vector of length d, or a ``(B, d)`` stack whose
    row b is run b's own target; each row is scaled as a lone vector is.
    """

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
            target = np.asarray(self.target, dtype=float)
            if target.ndim not in (1, 2) or target.shape[-1] == 0:
                raise InvalidSizeError("target signal must be a non-empty vector or rows of them")
            object.__setattr__(self, "target", target)
            object.__setattr__(self, "_scaled_target", _scale_rows(target, self.scaling))

    def take(self, runs) -> InefficiencyFn:
        """This cost for the runs that ``runs`` indexes out of a target stack."""
        return self if self.kind == "variance" else replace(self, target=self.target[runs])

    def __call__(self, g: GlobalResponse) -> float | np.ndarray:
        """Cost of a response vector; a stacked ``(..., d)`` array gets one per row,
        and a ``(B, d)`` target stack is matched to the last two axes."""
        g = np.asarray(g, dtype=float)
        if self.kind == "variance":
            if g.size == 0:
                raise InvalidInputError("variance of an empty response is undefined")
            cost = _variance_rows(g)
        else:
            cost = _sum_squares(self._scaled(g) - self._scaled_target)
        return float(cost) if np.ndim(cost) == 0 else cost

    def batch(self, candidates: np.ndarray) -> np.ndarray:
        """Cost of every row of a ``(..., k, d)`` stack of candidate responses;
        a ``(B, d)`` target stack is matched to the ``(B, k)`` axes.

        This is the plan-selection kernel. For RSS it reduces with ``einsum``,
        while ``__call__`` uses a dot product per row; the two may differ in
        the last bit, so each stays where its results are compared.
        """
        candidates = np.asarray(candidates, dtype=float)
        if self.kind == "variance":
            return _variance_rows(candidates)
        diff = self._scaled(candidates) - self._scaled_target[..., None, :]
        return np.einsum("...j,...j->...", diff, diff)

    def _scaled(self, g: np.ndarray) -> np.ndarray:
        if g.shape[-1] != self.target.shape[-1]:
            raise DimensionMismatchError(
                f"response has dimension {g.shape[-1]}, target {self.target.shape[-1]}"
            )
        return _scale_rows(g, self.scaling)
