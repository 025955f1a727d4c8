"""Symmetric smoothing kernels and their exact constants.

Every registered kernel integrates to one, has zero odd moments and is
evaluated right-continuously.  Right-continuity only matters for the
uniform kernel, whose support is the half-open interval [-1/2, 1/2):
K(-1/2) = 1 and K(+1/2) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["Kernel", "KERNELS", "get_kernel"]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


# The registered kernels write into the array of their first operation, in
# place, with the operations and operand order of their one-line formulas,
# so they keep those formulas' bits: 0.75 * max(0, 1 - u u) for the
# Epanechnikov kernel and exp((-0.5 u) u) / sqrt(2 pi) for the Gaussian.

def _epanechnikov(u: np.ndarray) -> np.ndarray:
    out = u * u
    np.subtract(1.0, out, out=out)
    np.maximum(0.0, out, out=out)
    np.multiply(0.75, out, out=out)
    return out


def _uniform(u: np.ndarray) -> np.ndarray:
    return np.where((u >= -0.5) & (u < 0.5), 1.0, 0.0)


def _gaussian(u: np.ndarray) -> np.ndarray:
    out = -0.5 * u
    np.multiply(out, u, out=out)
    np.exp(out, out=out)
    np.divide(out, _SQRT_2PI, out=out)
    return out


@dataclass(frozen=True)
class Kernel:
    """A named kernel together with its closed-form constants.

    Attributes
    ----------
    name : str
        Registry name ("epanechnikov", "uniform" or "gaussian").
    support : tuple of float, or None
        Interval outside which the kernel vanishes; None when unbounded,
        which local fits read as (-inf, inf).  Every kernel, registered or
        custom, must be positive on one subinterval of it.
    l2_norm_sq : float
        Integral of the squared kernel.
    moments : tuple of float
        Raw moments (mu_0, ..., mu_4).  mu_0 = 1 and the odd moments are
        exactly zero for every registered kernel.
    fn : callable
        K on a float64 array of one or more dimensions, entry by entry;
        :meth:`eval` hands it a one-entry array for a scalar.
    """

    name: str
    support: tuple[float, float] | None
    l2_norm_sq: float
    moments: tuple[float, float, float, float, float]
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False)

    def eval(self, u):
        """Evaluate K(u).  Accepts scalars or arrays and matches the input shape."""
        arr = np.asarray(u, dtype=float)
        if arr.ndim == 0:
            return float(self.fn(arr.reshape(1))[0])
        return self.fn(arr)


KERNELS = {
    "epanechnikov": Kernel(
        name="epanechnikov",
        support=(-1.0, 1.0),
        l2_norm_sq=0.6,
        moments=(1.0, 0.0, 0.2, 0.0, 3.0 / 35.0),
        fn=_epanechnikov,
    ),
    "uniform": Kernel(
        name="uniform",
        support=(-0.5, 0.5),
        l2_norm_sq=1.0,
        moments=(1.0, 0.0, 1.0 / 12.0, 0.0, 1.0 / 80.0),
        fn=_uniform,
    ),
    "gaussian": Kernel(
        name="gaussian",
        support=None,
        l2_norm_sq=1.0 / (2.0 * math.sqrt(math.pi)),
        moments=(1.0, 0.0, 1.0, 0.0, 3.0),
        fn=_gaussian,
    ),
}


def get_kernel(name: str) -> Kernel:
    """Look up a kernel by its lowercase registry name."""
    try:
        return KERNELS[name.lower()]
    except KeyError:
        valid = ", ".join(sorted(KERNELS))
        raise ValueError(f"unknown kernel {name!r}; valid names: {valid}") from None
