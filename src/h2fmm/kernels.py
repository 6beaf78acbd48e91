"""Interaction kernels."""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

KERNEL_KINDS = ("laplace3d", "laplace2d", "gaussian", "one")
_ROOT_MAX = math.sqrt(sys.float_info.max)  # the largest float whose square is finite


def _real(v) -> bool:
    """A real number, and not a bool (which Python counts as an int)."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


@dataclass(frozen=True)
class KernelSpec:
    """A radial interaction kernel.

    ``regularization`` is the delta in r -> sqrt(r^2 + delta^2); with
    delta = 0 the singular kernels are infinite at coincident points.
    ``sigma`` is the gaussian width and is ignored by the other kinds.
    Both must be reals whose squares, which the kernels use, are finite
    (a bool is not a real), and a gaussian's sigma squared must be > 0.
    """

    kind: str = "laplace3d"
    regularization: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ConfigurationError(
                f"unsupported kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}"
            )
        if not all(_real(v) and abs(v) <= _ROOT_MAX for v in (self.regularization, self.sigma)):
            raise ConfigurationError(
                f"kernel parameters must be reals with finite squares, got regularization="
                f"{self.regularization!r}, sigma={self.sigma!r}"
            )
        if self.regularization < 0.0:
            raise ConfigurationError("regularization must be >= 0")
        if self.kind == "gaussian" and not (self.sigma > 0.0 and self.sigma**2 > 0.0):
            raise ConfigurationError(f"gaussian sigma must be > 0 with a square > 0, got {self.sigma!r}")


def kernel_block(spec: KernelSpec, points_a, points_b) -> np.ndarray:
    """Evaluate the kernel between two point sets.

    Parameters
    ----------
    spec : KernelSpec
    points_a : (..., na, 3) array
    points_b : (..., nb, 3) array
        Leading dimensions, if any, are a batch of point-set pairs.

    Returns
    -------
    (..., na, nb) float64 array of kernel values.
    """
    a = np.asarray(points_a, dtype=np.float64)
    b = np.asarray(points_b, dtype=np.float64)
    if spec.kind == "one":
        return np.ones(a.shape[:-1] + b.shape[-2:-1])
    aa = (a * a).sum(axis=-1)
    bb = (b * b).sum(axis=-1)
    r2 = aa[..., :, None] + bb[..., None, :]
    r2 -= 2.0 * (a @ np.swapaxes(b, -1, -2))
    np.maximum(r2, 0.0, out=r2)
    r2 += spec.regularization**2
    if spec.kind == "gaussian":
        return np.exp(-r2 / spec.sigma**2)
    with np.errstate(divide="ignore"):
        if spec.kind == "laplace3d":
            return np.divide(1.0, np.sqrt(r2, out=r2), out=r2)
        return -0.5 * np.log(r2)  # laplace2d: -log r

