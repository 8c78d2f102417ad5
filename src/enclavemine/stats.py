"""Least-squares fits used by the scaling experiments.

Two model families are fit to (x, y) points: a line y = a + b*x and
a logarithmic curve y = a + b*ln(x). Both use ordinary least squares, so
each in-sample r-squared lies in [0, 1]; comparing them says whether a
measured quantity keeps growing linearly or flattens out.

A two-parameter fit has a closed form. With t the regressor (x or ln x)
and S_ab the sum of products of deviations from the means, the slope is
``S_ty / S_tt``, the intercept ``mean(y) - slope * mean(t)`` and r-squared
``slope * S_ty / S_yy``. Centring first keeps the fit accurate far from 0: at
x = 1e9 + k a least-squares solver on the uncentred design returned a slope
with no correct digit. Each sum is a ``math.fsum``. A sweep fits about a
dozen points, so this costs microseconds, and it spares every session
process the numpy import, about 13 MiB of resident memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

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


def _ols(ts: List[float], ys: List[float]) -> Tuple[float, float, float]:
    """Slope, intercept and r-squared of y on t, from centred sums."""
    t_mean, y_mean = math.fsum(ts) / len(ts), math.fsum(ys) / len(ys)
    dys = [y - y_mean for y in ys]
    dts = [t - t_mean for t in ts]
    s_ty = math.fsum(dt * dy for dt, dy in zip(dts, dys))
    slope = s_ty / math.fsum(dt * dt for dt in dts)
    s_yy = math.fsum(dy * dy for dy in dys)
    # The explained share equals 1 - SS_res / S_yy for a least-squares line
    # and keeps its relative precision near 0, where the difference cancels.
    r2 = 1.0 if s_yy == 0.0 else slope * s_ty / s_yy
    return slope, y_mean - slope * t_mean, r2


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
    try:
        xs, ys = list(map(float, xs)), list(map(float, ys))
    except TypeError as exc:
        raise DegenerateInput("xs and ys must be equal-length 1-d sequences") from exc
    if len(xs) != len(ys):
        raise DegenerateInput("xs and ys must be equal-length 1-d sequences")
    if not all(map(math.isfinite, xs + ys)):
        raise DegenerateInput("xs and ys must be finite numbers")
    check_xs(xs)

    slope, intercept, r2_lin = _ols(xs, ys)
    log_slope, log_intercept, r2_log = _ols(list(map(math.log, xs)), ys)
    return RegressionStats(
        slope=slope,
        intercept=intercept,
        r2_linear=r2_lin,
        log_slope=log_slope,
        log_intercept=log_intercept,
        r2_log=r2_log,
    )
