"""Regression fits for the scaling experiments.

The float oracle below solves the uncentred two-parameter normal equations;
the implementation under test works from sums of deviations from the means,
so agreement to 1e-9 relative is an independent check, not a tautology.
The exact oracle solves the same problem in rational arithmetic, so it
checks the fit far from 0 too, where the uncentred float sums cancel.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import enclavemine
from enclavemine.stats import DegenerateInput, RegressionStats, fit_stats


def _normal_equations(xs, ys, transform):
    ts = [transform(x) for x in xs]
    n = len(ts)
    st = sum(ts)
    sy = sum(ys)
    stt = sum(t * t for t in ts)
    sty = sum(t * y for t, y in zip(ts, ys))
    slope = (n * sty - st * sy) / (n * stt - st * st)
    intercept = (sy - slope * st) / n
    fitted = [intercept + slope * t for t in ts]
    mean = sy / n
    ss_res = sum((y - f) ** 2 for y, f in zip(ys, fitted))
    ss_tot = sum((y - mean) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def _assert_close(got, want, rel=1e-9):
    assert got == pytest.approx(want, rel=rel, abs=1e-12)


def test_exact_line_is_recovered():
    xs = [1, 2, 3, 4, 5]
    ys = [3 + 2 * x for x in xs]
    st = fit_stats(xs, ys)
    _assert_close(st.slope, 2.0)
    _assert_close(st.intercept, 3.0)
    _assert_close(st.r2_linear, 1.0)
    assert st.r2_log < 1.0


def test_exact_log_curve_is_recovered():
    xs = [1, 2, 4, 8, 16, 32]
    ys = [5 + 7 * math.log(x) for x in xs]
    st = fit_stats(xs, ys)
    _assert_close(st.log_slope, 7.0)
    _assert_close(st.log_intercept, 5.0)
    _assert_close(st.r2_log, 1.0)
    assert st.r2_linear < 1.0


def test_matches_normal_equations_on_noisy_data():
    rng = random.Random(1234)
    for trial in range(25):
        n = rng.randint(3, 40)
        xs = rng.sample(range(1, 500), n)
        ys = [0.5 * x + 20 * rng.random() for x in xs]
        st = fit_stats(xs, ys)
        slope, intercept, r2 = _normal_equations(xs, ys, lambda x: x)
        _assert_close(st.slope, slope)
        _assert_close(st.intercept, intercept)
        _assert_close(st.r2_linear, r2)
        lslope, lintercept, lr2 = _normal_equations(xs, ys, math.log)
        _assert_close(st.log_slope, lslope)
        _assert_close(st.log_intercept, lintercept)
        _assert_close(st.r2_log, lr2)


def test_constant_ys_give_unit_r2():
    st = fit_stats([1, 2, 3, 4], [5.0, 5.0, 5.0, 5.0])
    assert st.r2_linear == 1.0
    assert st.r2_log == 1.0
    _assert_close(st.slope, 0.0)
    _assert_close(st.intercept, 5.0)


def test_r2_stays_in_unit_interval():
    rng = random.Random(77)
    for _ in range(20):
        xs = rng.sample(range(1, 1000), 10)
        ys = [rng.uniform(-100, 100) for _ in xs]
        st = fit_stats(xs, ys)
        assert -1e-12 <= st.r2_linear <= 1.0 + 1e-12
        assert -1e-12 <= st.r2_log <= 1.0 + 1e-12


def test_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        fit_stats([1, 2], [1, 2])
    with pytest.raises(DegenerateInput):
        fit_stats([1, 2, 2], [1, 2, 3])
    with pytest.raises(DegenerateInput):
        fit_stats([0, 1, 2], [1, 2, 3])
    with pytest.raises(DegenerateInput):
        fit_stats([-1, 1, 2], [1, 2, 3])
    with pytest.raises(DegenerateInput):
        fit_stats([1, 2, 3], [1, 2])


def test_to_dict_shape():
    st = fit_stats([1, 2, 3], [1.0, 2.0, 3.0])
    d = st.to_dict()
    assert set(d) == {
        "slope",
        "intercept",
        "r2_linear",
        "log_slope",
        "log_intercept",
        "r2_log",
    }
    assert isinstance(st, RegressionStats)


def _exact_ols(ts, ys):
    """Slope, intercept and r-squared of ys on ts (floats, taken exactly)."""
    ts, ys = [Fraction(t) for t in ts], [Fraction(y) for y in ys]
    t_mean, y_mean = sum(ts) / len(ts), sum(ys) / len(ys)
    slope = sum((t - t_mean) * (y - y_mean) for t, y in zip(ts, ys)) / sum(
        (t - t_mean) ** 2 for t in ts
    )
    intercept = y_mean - slope * t_mean
    ss_res = sum((y - intercept - slope * t) ** 2 for t, y in zip(ts, ys))
    ss_tot = sum((y - y_mean) ** 2 for y in ys)
    r2 = 1 if ss_tot == 0 else 1 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)


@pytest.mark.parametrize("offset", [1, 1e3, 1e6, 1e9])
def test_matches_exact_rational_fit_far_from_zero(offset):
    rng = random.Random(2026)
    xs = [offset + k for k in range(12)]
    ys = [0.5 * k + rng.random() for k in range(12)]
    st = fit_stats(xs, ys)
    slope, intercept, r2 = _exact_ols(xs, ys)
    _assert_close(st.slope, slope)
    _assert_close(st.intercept, intercept)
    _assert_close(st.r2_linear, r2)
    lslope, lintercept, lr2 = _exact_ols([math.log(x) for x in xs], ys)
    _assert_close(st.log_slope, lslope)
    _assert_close(st.log_intercept, lintercept)
    _assert_close(st.r2_log, lr2)


def test_a_session_process_does_not_load_numpy():
    code = (
        "import sys\n"
        "from enclavemine.experiment import ExperimentConfig, run_experiment\n"
        "from enclavemine.stats import fit_stats\n"
        "assert run_experiment(ExperimentConfig(n_cases=20, seed=1)).miner_phase == 'done'\n"
        "fit_stats([1, 2, 3], [2.0, 4.0, 7.0])\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(enclavemine.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
