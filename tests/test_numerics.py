"""The stdlib root finders, quadrature and interpolation against SciPy and
numpy, their oracles."""

import functools
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate
from scipy import optimize as sp_optimize

from licore import numerics
from licore.analysis import min_temp_exact
from licore.cell import load_absorption_csv
from licore.config import AtomDriveConfig
from licore.errors import CalibrationError, DomainError, NoSolutionError
from licore.floquet import dressed_flows, heat_current_exact
from licore.spectra import CubicColdSpectrum, FlatHotSpectrum, interp
from licore.units import kelvin_to_internal, thz_to_internal

from test_cell import lab_cell, lab_cfg, modeled_absorption

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
    cooling floor and the calibration gap in g0."""
    for nu_thz, g_thz in ((372.0, 0.05), (376.0, 0.05), (367.0, 0.5), (360.0, 2.0)):
        cfg = lab_cfg(nu_thz=nu_thz, g_thz=g_thz)
        t_root = min_temp_exact(cfg, 0.0)
        yield (functools.partial(
            lambda cfg, t: heat_current_exact(cfg, 1.0, t, 0.0), cfg),
            t_root / 10.0, t_root * 10.0, 1e-300, 1e-12)
    ds = load_absorption_csv(FIXTURES / "absorption_synthetic.csv")
    cell = lab_cell()
    for nu_thz, a in zip(ds.nu_thz[::7], ds.absorption[::7]):
        cfg = lab_cfg(nu_thz=nu_thz)
        alpha = ds.alpha_at(nu_thz, cell.length_mm)
        yield (functools.partial(
            lambda cfg, alpha, a, g0: modeled_absorption(cfg, cell, g0, alpha) - a,
            cfg, alpha, a), 0.0, 1e13, 1e-300, 1e-14)


class TestRootFinders:
    @pytest.mark.parametrize("name", ["brentq"])
    def test_generic_roots_match_scipy_bit_for_bit(self, name):
        for f, a, b, xtol, rtol in generic_root_problems(1000, seed=11):
            ref = getattr(sp_optimize, name)(f, a, b, xtol=xtol, rtol=rtol)
            got = getattr(numerics, name)(f, a, b, xtol, rtol)
            assert got.hex() == ref.hex(), (a, b, xtol, rtol)

    def test_licore_roots_match_scipy_bit_for_bit(self):
        for f, a, b, xtol, rtol in licore_root_problems():
            ref = sp_optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)
            got = numerics.brentq(f, a, b, xtol, rtol)
            assert got.hex() == ref.hex(), (a, b)

    @pytest.mark.parametrize("name", ["brentq"])
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
        cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.0)
        flows = functools.cache(
            lambda att, cfg=cfg, hot=hot, cold=cold:
            dressed_flows(cfg.attenuated(att), hot, cold))
        for name in ("j_hot", "p_abs"):
            yield alpha, (lambda z, alpha=alpha, flows=flows, name=name:
                          math.exp(-alpha * z)
                          * getattr(flows(math.exp(-alpha * z)), name))


def quad(f, a, b, epsrel):
    value, err, info = sp_integrate.quad(f, a, b, epsabs=0.0, epsrel=epsrel,
                                         limit=200, full_output=1)[:3]
    return value, err, info["neval"]


def integrate_alone(f, a, b, epsrel):
    """numerics.integrate of the scalar f as a 1-tuple: (value, err)."""
    [(value, err)] = numerics.integrate(lambda z: (f(z),), a, b, epsrel)
    return value, err


def peaked(center, width):
    """A Lorentzian peak: smooth for a wide one, bisected for a narrow one."""
    return lambda z: 1.0 / (width * width + (z - center) ** 2)


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
            got_value, got_err = integrate_alone(f, a, b, epsrel)
            assert (got_value.hex(), got_err.hex()) == (value.hex(), err.hex())

    def test_saturated_error_estimate_is_not_accepted(self):
        # a small step on a constant: the first rule's error is resasc
        # itself and below the target, which qagse does not accept
        f = lambda z: 1.0 + 5e-9 * (z > 0.3)
        value, _, neval = quad(f, 0.0, 1.0, 1e-8)
        assert neval > 21
        got, _ = integrate_alone(f, 0.0, 1.0, 1e-8)
        assert got == pytest.approx(value, rel=1e-12, abs=0)

    def test_subdivided_integrals_agree_with_quad(self):
        for alpha, f in exact_row_integrands((20.0, 50.0, 200.0), 12, seed=6):
            value, _, neval = quad(f, 0.0, 10.0, 1e-8)
            assert neval > 21, alpha
            got, err = integrate_alone(f, 0.0, 10.0, 1e-8)
            assert got == pytest.approx(value, rel=1e-10, abs=0), alpha
            assert err <= 1e-8 * abs(got)

    @given(peaks=st.lists(st.tuples(st.floats(-1.0, 11.0),
                                     st.floats(1e-3, 10.0)),
                          min_size=1, max_size=3),
           epsrel=st.sampled_from([1e-6, 1e-8, 1e-10]))
    @settings(max_examples=300, deadline=None)
    def test_components_keep_the_bits_of_integrating_them_alone(self, peaks,
                                                                epsrel):
        # peaks at different places refine differently; each component's
        # (value, err) is that of its own integral, and the tuple integrand
        # is taken once at each node any of their bisections visits
        parts = [peaked(center, width) for center, width in peaks]
        alone, nodes = [], set()
        for part in parts:
            seen = []

            def recorded(z, part=part, seen=seen):
                seen.append(z)
                return part(z)
            alone.append(integrate_alone(recorded, 0.0, 10.0, epsrel))
            nodes.update(seen)
        calls = []

        def together(z):
            calls.append(z)
            return tuple(part(z) for part in parts)
        got = numerics.integrate(together, 0.0, 10.0, epsrel)
        assert [(v.hex(), e.hex()) for v, e in got] == \
            [(v.hex(), e.hex()) for v, e in alone]
        assert len(calls) == len(set(calls)) and set(calls) == nodes

    def test_unconverged_component_leaves_the_others(self):
        # a pole in the first component exhausts its intervals; the smooth
        # second one still takes its own first rule, and the first its own
        # unconverged bits
        pole = math.pi

        def singular(z):
            return 1.0 / (z - pole)

        def smooth(z):
            return math.exp(-0.2 * z)

        got = numerics.integrate(lambda z: (singular(z), smooth(z)), 0.0,
                                 10.0, 1e-8)
        assert got == [integrate_alone(singular, 0.0, 10.0, 1e-8),
                       integrate_alone(smooth, 0.0, 10.0, 1e-8)]
        (value, err), (smooth_value, smooth_err) = got
        assert not err <= 1e-8 * abs(value)
        assert smooth_err <= 1e-8 * abs(smooth_value)


def _tanh_residual(x):
    """One residual tanh(x) - 1/2 and its slope, minimum at atanh(1/2)."""
    return [math.tanh(x) - 0.5], [1.0 / math.cosh(x) ** 2]


class TestLeastSquares:
    def test_zero_residual_fit_is_exact(self):
        x, r = numerics.least_squares(
            lambda x: ([math.exp(x) - 3.0, 2.0 * math.exp(x) - 6.0],
                       [math.exp(x), 2.0 * math.exp(x)]), 0.0)
        assert x == pytest.approx(math.log(3.0), rel=1e-15)
        assert max(map(abs, r)) <= 1e-14

    def test_far_start_walks_to_the_bracketed_minimum(self):
        # at x = -10 the slope is ~8e-9, and a full Gauss-Newton step would
        # land near 2e8, where the residual no longer depends on x
        x, r = numerics.least_squares(_tanh_residual, -10.0)
        assert x == pytest.approx(math.atanh(0.5), rel=1e-15)
        assert abs(r[0]) <= 1e-15

    def test_flat_residuals_raise_the_callers_error(self):
        with pytest.raises(CalibrationError, match="do not depend"):
            numerics.least_squares(lambda x: ([1.0, 2.0], [0.0, 0.0]), 0.0,
                                   error=CalibrationError)

    def test_minimum_beyond_the_steps_raises_the_callers_error(self):
        # the minimum at x = 1000 lies beyond MAXITER steps of ln 2 from 0
        with pytest.raises(CalibrationError, match="keeps its sign over 100 "
                                                   "steps of ln 2 from x=0.0"):
            numerics.least_squares(lambda x: ([x - 1000.0], [1.0]), 0.0,
                                   error=CalibrationError)

    def test_downhill_steps_of_ln2_bracket_the_minimum(self):
        # left of the minimum the gradient r s is negative, so x steps right
        # by ln 2 until it turns positive, and brentq roots it between the
        # last two steps, which it takes from the steps without a new pass
        visited = []

        def recorded(x):
            visited.append(x)
            return _tanh_residual(x)

        x, _ = numerics.least_squares(recorded, -3.0)
        steps = [-3.0]
        for _ in range(6):
            steps.append(steps[-1] + math.log(2.0))
        assert visited[:7] == steps
        assert steps[5] < math.atanh(0.5) < steps[6]
        assert len(visited) == len(set(visited))
        assert x == pytest.approx(math.atanh(0.5), rel=1e-15)


def _same_float(a: float, b: float) -> bool:
    """Equal bit patterns, NaN included."""
    return (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(
        1.0, a) == math.copysign(1.0, b))


class TestInterp:
    def test_bitwise_equal_to_numpy(self):
        rng = random.Random(11)
        for _ in range(400):
            xp = sorted({rng.uniform(-10, 10) * 10.0 ** rng.randint(-3, 3)
                         for _ in range(rng.choice((1, 2, 3, 5, 8, 40)))})
            fp = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-200, 200) for _ in xp]
            span = xp[-1] - xp[0] + 1.0
            queries = [rng.uniform(xp[0] - span, xp[-1] + span) for _ in range(25)]
            queries += xp    # at the nodes
            queries += [math.nan, math.inf, -math.inf, xp[0] - 1.0, xp[-1] + 1.0]
            for x in queries:
                got = interp(x, tuple(xp), tuple(fp))
                want = float(np.interp(x, xp, fp))
                assert _same_float(got, want), (xp, fp, x, got, want)

    def test_non_finite_table_values_follow_numpy(self):
        # where the slope form gives NaN, numpy tries the other end and then
        # the shared value; interp must land on the same numbers
        xp = (0.0, 1.0, 2.0, 3.0)
        for fp in ((math.inf, math.inf, 1.0, -math.inf),
                   (1.0, math.inf, math.inf, 2.0)):
            for x in (0.0, 0.25, 1.0, 1.5, 2.0, 2.5, 3.0, -1.0, 4.0):
                assert _same_float(interp(x, xp, fp),
                                   float(np.interp(x, xp, fp))), (fp, x)

    def test_clamps_and_passes_nan_through(self):
        xp, fp = (1.0, 2.0, 4.0), (10.0, 20.0, 0.0)
        assert interp(0.0, xp, fp) == 10.0
        assert interp(9.0, xp, fp) == 0.0
        assert interp(3.0, xp, fp) == 10.0
        assert math.isnan(interp(math.nan, xp, fp))
