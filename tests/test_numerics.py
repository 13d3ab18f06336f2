"""The stdlib root finders and quadrature against SciPy, their oracle."""

import functools
import math
import random
import sys
from pathlib import Path

import pytest
from scipy import integrate as sp_integrate
from scipy import optimize as sp_optimize

from licore import numerics
from licore.analysis import min_temp_exact
from licore.cell import _local_flows, _modeled_absorption, load_absorption_csv
from licore.config import AtomDriveConfig
from licore.errors import CalibrationError, DomainError, NoSolutionError
from licore.floquet import heat_current_exact
from licore.spectra import FlatHotSpectrum
from licore.units import kelvin_to_internal, thz_to_internal

from test_cell import lab_cell, lab_cfg

EPS = sys.float_info.epsilon
FIXTURES = Path(__file__).parent / "fixtures"


def generic_root_problems(n, seed):
    """f with one sign change in [a, b]: a cubic in (x - r) times an
    exponential, scaled from 1e-300 (products of values underflow) to
    1e200, with the tolerances the callers use."""
    rng = random.Random(seed)
    for _ in range(n):
        r, c, d = rng.uniform(-10, 10), rng.uniform(-2, 2), rng.uniform(-1, 1)
        scale = rng.choice([1e-300, 1e-200, 1e-150, 1.0, 1e100, 1e200])
        scale *= rng.choice([1, -1])
        a, b = r - rng.uniform(0.01, 20), r + rng.uniform(0.01, 20)
        if c < 0:   # the cubic changes sign again at r -+ 1/sqrt(-c)
            w = 0.99 / math.sqrt(-c)
            a, b = max(a, r - w), min(b, r + w)
        xtol = rng.choice([1e-300, 2e-12, 1e-8])
        rtol = rng.choice([1e-14, 1e-12, 4 * EPS])

        def f(x, r=r, c=c, d=d, s=scale):
            return s * ((x - r) + c * (x - r) ** 3) * math.exp(d * x)

        yield f, a, b, xtol, rtol


def licore_root_problems():
    """The calls licore makes: the exact current in T_hot around the
    cooling floor (bisect) and the calibration gap in g0 (brentq)."""
    for nu_thz, g_thz in ((372.0, 0.05), (376.0, 0.05), (367.0, 0.5), (360.0, 2.0)):
        cfg = lab_cfg(nu_thz=nu_thz, g_thz=g_thz)
        t_root = min_temp_exact(cfg, 0.0)
        yield ("bisect", functools.partial(
            lambda cfg, t: heat_current_exact(cfg, 1.0, t, 0.0), cfg),
            t_root / 10.0, t_root * 10.0, 1e-300, 1e-12)
    ds = load_absorption_csv(FIXTURES / "absorption_synthetic.csv")
    cell = lab_cell()
    for nu_thz, a in zip(ds.nu_thz[::7], ds.absorption[::7]):
        cfg = lab_cfg(nu_thz=nu_thz)
        alpha = ds.alpha_at(nu_thz, cell.length_mm)
        yield ("brentq", functools.partial(
            lambda cfg, alpha, a, g0: _modeled_absorption(cfg, cell, g0, alpha) - a,
            cfg, alpha, a), 0.0, 1e13, 1e-300, 1e-14)


class TestRootFinders:
    @pytest.mark.parametrize("name", ["bisect", "brentq"])
    def test_generic_roots_match_scipy_bit_for_bit(self, name):
        for f, a, b, xtol, rtol in generic_root_problems(1000, seed=11):
            ref = getattr(sp_optimize, name)(f, a, b, xtol=xtol, rtol=rtol)
            got = getattr(numerics, name)(f, a, b, xtol, rtol)
            assert got.hex() == ref.hex(), (a, b, xtol, rtol)

    def test_licore_roots_match_scipy_bit_for_bit(self):
        for name, f, a, b, xtol, rtol in licore_root_problems():
            ref = getattr(sp_optimize, name)(f, a, b, xtol=xtol, rtol=rtol)
            got = getattr(numerics, name)(f, a, b, xtol, rtol)
            assert got.hex() == ref.hex(), name

    @pytest.mark.parametrize("name", ["bisect", "brentq"])
    def test_failures_raise_the_callers_error(self, name):
        solver = getattr(numerics, name)
        with pytest.raises(CalibrationError, match="no sign change"):
            solver(lambda x: x + 5.0, 0.0, 1.0, 1e-12, 1e-12, error=CalibrationError)
        with pytest.raises(NoSolutionError, match="NaN"):
            solver(lambda x: math.nan if x > 0.3 else x - 0.5, 0.0, 1.0,
                   1e-12, 1e-12, error=NoSolutionError)
        # a root at 1e-300 to 4 eps relative needs ~1000 halvings of [-1, 1]
        with pytest.raises(DomainError, match="did not converge"):
            solver(lambda x: 1.0 if x > 1e-300 else -1.0, -1.0, 1.0,
                   1e-310, 4 * EPS)


def exact_row_integrands(alpha_ls, n, seed):
    """(J_hot, P_abs) cell integrands of exact-solver rows: the local
    closed-form flows at the attenuation exp(-alpha z) of a 10 mm cell."""
    rng = random.Random(seed)
    for _ in range(n):
        cfg = AtomDriveConfig.from_thz(377.0, 6e-6, rng.uniform(0.05, 2.0),
                                       377.0 - rng.uniform(-3.0, 3.0),
                                       laser_power_w=2.4)
        hot = FlatHotSpectrum(thz_to_internal(rng.uniform(0.001, 0.003)),
                              kelvin_to_internal(500.0))
        alpha = rng.choice(alpha_ls) / 10.0
        flows = functools.cache(
            lambda att, cfg=cfg, hot=hot: _local_flows(cfg.attenuated(att), hot, 0.0))
        for k in (0, 1):
            yield alpha, (lambda z, alpha=alpha, flows=flows, k=k:
                          math.exp(-alpha * z) * flows(math.exp(-alpha * z))[k])


def quad(f, a, b, epsrel):
    value, err, info = sp_integrate.quad(f, a, b, epsabs=0.0, epsrel=epsrel,
                                         limit=200, full_output=1)[:3]
    return value, err, info["neval"]


class TestIntegrate:
    def test_one_step_integrals_match_quad_bit_for_bit(self):
        cases = [(f, 0.0, 10.0, 1e-8) for _, f in
                 exact_row_integrands((0.0, 0.1, 1.0, 10.0 / 9.0, 3.0), 60, seed=5)]
        cases += [
            (lambda z: 0.0, 0.0, 1.0, 1e-8),                # abserr == 0
            (lambda z: 2.5e18, 0.0, 10.0, 1e-8),             # resasc == 0
            (lambda z: math.exp(-z), 0.0, 1.0, 1e-8),
            (lambda z: 1.0 / (1.0 + z * z), 0.0, 1.0, 1e-10),
            (math.cos, 0.0, 3.0, 2e-14),    # roundoff bounds the error: qagse stops
        ]
        for f, a, b, epsrel in cases:
            value, err, neval = quad(f, a, b, epsrel)
            assert neval == 21
            got_value, got_err = numerics.integrate(f, a, b, epsrel)
            assert (got_value.hex(), got_err.hex()) == (value.hex(), err.hex())

    def test_saturated_error_estimate_is_not_accepted(self):
        # a small step on a constant: the first rule's error is resasc
        # itself and below the target, which qagse does not accept
        f = lambda z: 1.0 + 5e-9 * (z > 0.3)
        value, _, neval = quad(f, 0.0, 1.0, 1e-8)
        assert neval > 21
        got, _ = numerics.integrate(f, 0.0, 1.0, 1e-8)
        assert got == pytest.approx(value, rel=1e-12, abs=0)

    def test_subdivided_integrals_agree_with_quad(self):
        for alpha, f in exact_row_integrands((20.0, 50.0, 200.0), 12, seed=6):
            value, _, neval = quad(f, 0.0, 10.0, 1e-8)
            assert neval > 21, alpha
            got, err = numerics.integrate(f, 0.0, 10.0, 1e-8)
            assert got == pytest.approx(value, rel=1e-10, abs=0), alpha
            assert err <= 1e-8 * abs(got)


class TestGaussNewton:
    def test_zero_residual_fit_is_exact(self):
        x, r = numerics.gauss_newton(
            lambda x: [math.exp(x) - 3.0, 2.0 * math.exp(x) - 6.0], 0.0, -5.0, 5.0)
        assert x == pytest.approx(math.log(3.0), rel=1e-15)
        assert max(map(abs, r)) <= 1e-14

    def test_flat_residuals_raise_the_callers_error(self):
        with pytest.raises(CalibrationError, match="do not depend"):
            numerics.gauss_newton(lambda x: [1.0, 2.0], 0.0, -1.0, 1.0,
                                  error=CalibrationError)
