"""A scalar root finder, adaptive quadrature, a one-parameter fit and
linear interpolation.

Stdlib only, so that no licore command pays for importing SciPy or numpy.
``interp`` repeats numpy's ``interp`` operation for operation;
``brentq`` follows SciPy's C routine update for update and returns the
same roots; ``integrate`` is QUADPACK's 21-point Gauss-Kronrod rule,
which it accepts by qagse's test and otherwise refines by global
bisection of the worst interval; ``gauss_newton`` fits one parameter by
least squares.  The root finder and the fit raise the ``error`` class
their caller names when they cannot return an answer; ``integrate``
returns its error estimate for the caller to check.
"""

from __future__ import annotations

import heapq
import math
import sys
from bisect import bisect_right

from .errors import DomainError

MAXITER = 100
LIMIT = 200             # most intervals the quadrature keeps
# qk21 is exact to degree 31, so a smooth integrand meets its target long
# before an interval is 2^-MAX_DEPTH of the range; one that still misses it
# there is singular, and halving further only walks its nodes onto the
# singularity (qagse catches this with its extrapolation, not ported here)
MAX_DEPTH = 30
_EPMACH = sys.float_info.epsilon      # QUADPACK's d1mach(4)
_UFLOW = sys.float_info.min           # QUADPACK's d1mach(1)


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0.0


def _nan_checked(f, error):
    def checked(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise error(f"function value at x={x!r} is NaN")
        return fx
    return checked


def interp(x: float, xp, fp) -> float:
    """Piecewise-linear interpolation of the table (xp, fp) at x, clamped
    to the end values outside it, as numpy's ``interp`` computes it: the
    same slope and rounding, the same fallbacks where the slope form gives
    NaN, and a NaN x passes through (a one-row table returns its value).
    xp must be strictly increasing."""
    last = len(xp) - 1
    if last == 0:
        return fp[0]
    if math.isnan(x):
        return x
    if x < xp[0]:
        return fp[0]
    if x > xp[last]:
        return fp[last]
    j = bisect_right(xp, x) - 1
    if j == last or xp[j] == x:
        return fp[j]
    slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
    y = slope * (x - xp[j]) + fp[j]
    if math.isnan(y):
        y = slope * (x - xp[j + 1]) + fp[j + 1]
        if math.isnan(y) and fp[j] == fp[j + 1]:
            y = fp[j]
    return y


def brentq(f, a: float, b: float, xtol: float, rtol: float,
           error=DomainError) -> float:
    """Root of f in [a, b] by Brent's method, where f(a) and f(b) differ
    in sign."""
    f = _nan_checked(f, error)
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise error(f"no sign change on [{a!r}, {b!r}]")
    for _ in range(MAXITER):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:      # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                 # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # where the product underflows to zero, C's division gives
                # inf or nan, and either one fails the step test below
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den \
                    else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry       # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise error(f"Brent's method did not converge in {MAXITER} iterations")


# QUADPACK dqk21: Kronrod abscissae (the odd-indexed ones are the 10-point
# Gauss nodes), their weights, and the Gauss weights
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208980957403, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)


def _qk21(f, a: float, b: float) -> tuple[float, float, float, float]:
    """21-point Kronrod value of the integral of f over [a, b], its error
    estimate, and the integrals of |f| and |f - mean f| (resabs, resasc)."""
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    fc = f(centr)
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1, fv2 = [0.0] * 10, [0.0] * 10
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):     # Gauss nodes first
        absc = hlgth * _XGK[j]
        fv1[j] = fval1 = f(centr - absc)
        fv2[j] = fval2 = f(centr + absc)
        fsum = fval1 + fval2
        if j % 2:
            resg += _WG[j // 2] * fsum
        resk += _WGK[j] * fsum
        resabs += _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc += _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    resabs *= abs(hlgth)
    resasc *= abs(hlgth)
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return resk * hlgth, abserr, resabs, resasc


def integrate(f, a: float, b: float, epsrel: float) -> tuple[float, float]:
    """Integral of f over [a, b] and its error estimate, aiming at
    error <= epsrel |integral|.

    The first 21-point rule is returned as qagse returns it (also when
    roundoff already limits its error).  Otherwise the interval with the
    largest error is bisected until the target is met, LIMIT intervals
    are in use, or an interval is too small to split: within rounding of
    its midpoint, as in QUADPACK, or 2^-MAX_DEPTH of [a, b].  The caller
    checks the returned error.
    """
    result, abserr, resabs, resasc = _qk21(f, a, b)
    errbnd = epsrel * abs(result)
    if ((abserr <= 100.0 * _EPMACH * resabs and abserr > errbnd)
            or (abserr <= errbnd and abserr != resasc) or abserr == 0.0):
        return result, abserr
    heap = [(-abserr, a, b, result)]
    area, errsum = result, abserr
    min_width = abs(b - a) * 2.0 ** -MAX_DEPTH
    for _ in range(LIMIT - 1):
        neg_err, lo, hi, part = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        left, right = _qk21(f, lo, mid), _qk21(f, mid, hi)
        area += left[0] + right[0] - part
        errsum += left[1] + right[1] + neg_err
        heapq.heappush(heap, (-left[1], lo, mid, left[0]))
        heapq.heappush(heap, (-right[1], mid, hi, right[0]))
        too_small = (abs(mid - lo) <= min_width or max(abs(lo), abs(hi))
                     <= (1.0 + 100.0 * _EPMACH) * (abs(mid) + 1000.0 * _UFLOW))
        if errsum <= epsrel * abs(area) or too_small:
            break
    return math.fsum(part for *_, part in heap), errsum


# x is a logarithm, varying on a scale of one: eps^(1/3) balances the
# central difference's truncation against its rounding
_SLOPE_STEP = _EPMACH ** (1.0 / 3.0)
_UNBRACKETED_STEP = math.log(2.0)
XTOL_FIT = 1e-15


def gauss_newton(residuals, x0: float, error=DomainError) -> tuple[float, list]:
    """Least-squares fit of one parameter: the x where sum r_i(x)^2 is
    stationary, by Gauss-Newton steps with a central-difference slope s_i
    of each residual.  Returns x and the residuals there.

    Every residual must rise with x, so the sign of a step tells which
    side of the minimum x is on, and the points visited bracket it.  Until
    both sides are known a step moves at most ln 2; after that, a step
    that would leave the bracket goes to its midpoint instead.  The steps
    shrink until they reach XTOL_FIT or, when the residuals stay large,
    the floor that rounding in the slopes sets; a step below _SLOPE_STEP
    that is no smaller than the one before has reached it.

    A Gauss-Newton step divides the gradient sum r_i s_i by the curvature
    sum s_i^2, which leaves out sum r_i r_i''.  Where the residuals stay
    large, that term can cancel most of sum s_i^2, and each step then
    takes only a fixed share of the way to the minimum, in some fits 2%.
    A fit still moving after MAXITER steps takes the gradient's secant
    slope through its last two points as the curvature instead, which
    reaches the same stationary point superlinearly; a fit that stops
    within MAXITER steps never takes such a step."""
    x, lo, hi, last_move = x0, -math.inf, math.inf, math.inf
    x_before = gradient_before = math.nan
    for count in range(2 * MAXITER):
        r = residuals(x)
        up, down = residuals(x + _SLOPE_STEP), residuals(x - _SLOPE_STEP)
        slope = [(u - d) / (2.0 * _SLOPE_STEP) for u, d in zip(up, down)]
        curvature = math.fsum(s * s for s in slope)
        if not curvature > 0.0:
            raise error("least-squares fit: the residuals do not depend on "
                        "the parameter")
        gradient = math.fsum(ri * s for ri, s in zip(r, slope))
        if count >= MAXITER:
            secant = (gradient - gradient_before) / (x - x_before)
            if secant > 0.0:
                curvature = secant
            if count == MAXITER:
                # the first secant step is no continuation of the last
                # Gauss-Newton step: it jumps to where they were heading
                last_move = math.inf
        step = -gradient / curvature
        if step > 0.0:
            lo = x
        else:
            hi = x
        if hi - lo == math.inf:
            x_new = x + min(max(step, -_UNBRACKETED_STEP), _UNBRACKETED_STEP)
        else:
            x_new = x + step if lo < x + step < hi else 0.5 * (lo + hi)
        move = abs(x_new - x)
        if move <= XTOL_FIT * (XTOL_FIT + abs(x)) or last_move <= move <= _SLOPE_STEP:
            return x, r
        x_before, gradient_before = x, gradient
        x, last_move = x_new, move
    raise error(f"least-squares fit did not converge in {2 * MAXITER} steps")
