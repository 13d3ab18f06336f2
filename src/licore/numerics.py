"""A scalar root finder, adaptive quadrature and a one-parameter fit.

Stdlib only, so that no licore command pays for importing SciPy or numpy.
``brentq`` follows SciPy's C routine update for update and returns the
same roots; ``integrate`` is QUADPACK's 21-point Gauss-Kronrod rule
over the components of a tuple-valued integrand, taken once per node,
which accepts each component by qagse's test and otherwise refines it by
its own global bisection of the worst interval, with the bits of
integrating it alone; ``least_squares`` fits one parameter by
least squares, from residuals and slopes its caller returns together,
by rooting the gradient with ``brentq`` over a bracket it finds by
steps downhill.  The root finder and the fit raise
the ``error`` class their caller names when they cannot return an
answer; ``integrate`` returns its error estimate for the caller to check.
"""

from __future__ import annotations

import heapq
import math
import sys

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


# a rule's 21 nodes in the order it takes them: the centre, then the pair
# (centr - absc, centr + absc) of each abscissa, the Gauss nodes first
_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
# (positions of the pair, Gauss weight, Kronrod weight) of each Gauss
# abscissa, (positions, Kronrod weight) of the others, and of every
# abscissa in the order QUADPACK sums |f - mean f|
_GAUSS_PAIRS = tuple((2 * i + 1, 2 * i + 2, _WG[j // 2], _WGK[j])
                     for i, j in enumerate(_ORDER[:5]))
_KRONROD_PAIRS = tuple((2 * i + 1, 2 * i + 2, _WGK[j])
                       for i, j in enumerate(_ORDER[5:], 5))
_ALL_PAIRS = tuple((2 * _ORDER.index(j) + 1, 2 * _ORDER.index(j) + 2, _WGK[j])
                   for j in range(10))


def _nodes(a: float, b: float) -> tuple[float, list]:
    """Half the length of [a, b] and the 21 Kronrod nodes in it, centre
    first, then each abscissa's pair with the Gauss nodes first."""
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    xs = [centr]
    for j in _ORDER:
        absc = hlgth * _XGK[j]
        xs += (centr - absc, centr + absc)
    return hlgth, xs


def _qk21(fv, hlgth: float) -> tuple[float, float, float, float]:
    """21-point Kronrod value of an integral from its integrand fv at the
    nodes _nodes lists, its error estimate, and the integrals of |f| and
    |f - mean f| (resabs, resasc); QUADPACK's dqk21, sum for sum."""
    fc = fv[0]
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for i, k, wg, wgk in _GAUSS_PAIRS:
        fval1, fval2 = fv[i], fv[k]
        fsum = fval1 + fval2
        resg += wg * fsum
        resk += wgk * fsum
        resabs += wgk * (abs(fval1) + abs(fval2))
    for i, k, wgk in _KRONROD_PAIRS:
        fval1, fval2 = fv[i], fv[k]
        resk += wgk * (fval1 + fval2)
        resabs += wgk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for i, k, wgk in _ALL_PAIRS:
        resasc += wgk * (abs(fv[i] - reskh) + abs(fv[k] - reskh))
    resabs *= abs(hlgth)
    resasc *= abs(hlgth)
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return resk * hlgth, abserr, resabs, resasc


def integrate(f, a: float, b: float, epsrel: float) -> list:
    """Integrals over [a, b] of the components of f, a function that
    returns a tuple, as a list of (integral, error estimate) pairs, each
    aiming at error <= epsrel |integral|.

    One 21-point rule takes f once at each node for every component, and
    each component is accepted by its own test: its rule is returned as
    qagse returns it (also when roundoff already limits its error).  A
    component that fails it is refined on its own: the interval with its
    largest error is bisected until its target is met, LIMIT intervals
    are in use, or an interval is too small to split, within rounding of
    its midpoint, as in QUADPACK, or 2^-MAX_DEPTH of [a, b].  The
    bisections share one cache of f's values at their nodes, so f is
    taken once per node where they cover the same intervals, and every
    component keeps the bits of integrating it alone.  The caller checks
    the returned errors.
    """
    hlgth, xs = _nodes(a, b)
    values = [f(x) for x in xs]
    out, cache = [], None
    for k, fv in enumerate(zip(*values)):
        result, abserr, resabs, resasc = _qk21(fv, hlgth)
        errbnd = epsrel * abs(result)
        if ((abserr <= 100.0 * _EPMACH * resabs and abserr > errbnd)
                or (abserr <= errbnd and abserr != resasc) or abserr == 0.0):
            out.append((result, abserr))
            continue
        if cache is None:
            cache = dict(zip(xs, values))
        out.append(_bisect(f, k, cache, a, b, epsrel, result, abserr))
    return out


def _bisect(f, k: int, cache: dict, a: float, b: float, epsrel: float,
            result: float, abserr: float) -> tuple[float, float]:
    """integrate's global bisection of component k of f over [a, b], from
    its first rule's result and error; f's values come from cache, and
    the nodes it lacks are added to it."""
    def rule(lo: float, hi: float) -> tuple[float, float]:
        hlgth, xs = _nodes(lo, hi)
        fv = []
        for x in xs:
            fx = cache.get(x)
            if fx is None:
                fx = cache[x] = f(x)
            fv.append(fx[k])
        return _qk21(fv, hlgth)[:2]

    heap = [(-abserr, a, b, result)]
    area, errsum = result, abserr
    min_width = abs(b - a) * 2.0 ** -MAX_DEPTH
    for _ in range(LIMIT - 1):
        neg_err, lo, hi, part = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        left, right = rule(lo, mid), rule(mid, hi)
        area += left[0] + right[0] - part
        errsum += left[1] + right[1] + neg_err
        heapq.heappush(heap, (-left[1], lo, mid, left[0]))
        heapq.heappush(heap, (-right[1], mid, hi, right[0]))
        too_small = (abs(mid - lo) <= min_width or max(abs(lo), abs(hi))
                     <= (1.0 + 100.0 * _EPMACH) * (abs(mid) + 1000.0 * _UFLOW))
        if errsum <= epsrel * abs(area) or too_small:
            break
    return math.fsum(part for *_, part in heap), errsum


XTOL_FIT = 1e-15


def least_squares(residuals_and_slopes, x0: float,
                  error=DomainError) -> tuple[float, list]:
    """Least-squares fit of one parameter: the x where sum r_i(x)^2 is
    stationary.  residuals_and_slopes(x) returns the residuals r_i and
    their slopes s_i = dr_i/dx, two lists, from one call.  Returns x and
    the residuals there.

    x0 is kept where its Gauss-Newton step, the gradient sum r_i s_i over
    sum s_i^2, moves it by XTOL_FIT relative or less.  Otherwise x steps
    downhill by ln 2 until the gradient changes sign, and brentq roots the
    gradient, to XTOL_FIT relative, between the last two points.  Every
    residual must rise with x: then all are negative far to the left and
    positive far to the right, and so is the gradient, so the steps end.
    Each x is evaluated once."""
    passes = {}     # x -> (gradient, sum s_i^2, residuals)

    def gradient(x: float) -> float:
        if x not in passes:
            r, slope = residuals_and_slopes(x)
            curvature = math.fsum(s * s for s in slope)
            if not curvature > 0.0:
                raise error("least-squares fit: the residuals do not depend "
                            "on the parameter")
            passes[x] = (math.fsum(ri * s for ri, s in zip(r, slope)),
                         curvature, r)
        return passes[x][0]

    step = -gradient(x0) / passes[x0][1]
    # a step below half an ulp of x0 does not move it
    if abs(x0 + step - x0) <= XTOL_FIT * (XTOL_FIT + abs(x0)):
        return x0, passes[x0][2]
    downhill = math.copysign(math.log(2.0), step)
    a, b = x0, x0 + downhill
    for _ in range(MAXITER):
        # a NaN gradient ends the steps too, and brentq names it
        if not gradient(b) * downhill < 0.0:
            break
        a, b = b, b + downhill
    else:
        raise error(f"least-squares fit: the gradient keeps its sign over "
                    f"{MAXITER} steps of ln 2 from x={x0!r}")
    x = brentq(gradient, a, b, xtol=XTOL_FIT * XTOL_FIT, rtol=XTOL_FIT,
               error=error)
    return x, passes[x][2]
