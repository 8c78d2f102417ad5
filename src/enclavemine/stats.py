"""Least-squares fits used by the scaling experiments.

Two one-parameter families are fit to (x, y) points: a line y = a + b*x and
a logarithmic curve y = a + b*ln(x). Both use ordinary least squares, so
each in-sample r-squared lies in [0, 1]; comparing them says whether a
measured quantity keeps growing linearly or flattens out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

__all__ = ["DegenerateInput", "RegressionStats", "check_xs", "fit_stats"]


class DegenerateInput(ValueError):
    pass


@dataclass(frozen=True)
class RegressionStats:
    slope: float
    intercept: float
    r2_linear: float
    log_slope: float
    log_intercept: float
    r2_log: float

    def to_dict(self) -> Dict[str, float]:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r2_linear": self.r2_linear,
            "log_slope": self.log_slope,
            "log_intercept": self.log_intercept,
            "r2_log": self.r2_log,
        }


def _ols(design: np.ndarray, ys: np.ndarray) -> tuple:
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return coef, r2


def check_xs(xs: Sequence[float]) -> None:
    """Raise :class:`DegenerateInput` unless both models can be fit over the
    x values; a sweep calls it before it measures any y."""
    if len(xs) < 3:
        raise DegenerateInput("need at least 3 points, got %d" % len(xs))
    if len(set(xs)) != len(xs):
        raise DegenerateInput("xs must be distinct")
    if min(xs) <= 0:
        raise DegenerateInput("xs must be positive for the logarithmic model")


def fit_stats(xs: Sequence[float], ys: Sequence[float]) -> RegressionStats:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise DegenerateInput("xs and ys must be equal-length 1-d sequences")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise DegenerateInput("xs and ys must be finite numbers")
    check_xs(xs)

    ones = np.ones_like(xs)
    lin_coef, r2_lin = _ols(np.column_stack([ones, xs]), ys)
    log_coef, r2_log = _ols(np.column_stack([ones, np.log(xs)]), ys)
    return RegressionStats(
        slope=float(lin_coef[1]),
        intercept=float(lin_coef[0]),
        r2_linear=r2_lin,
        log_slope=float(log_coef[1]),
        log_intercept=float(log_coef[0]),
        r2_log=r2_log,
    )
