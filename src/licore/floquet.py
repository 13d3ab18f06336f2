"""Exact open-system model in closed form: the dressed five-channel
rate balance and its heat currents.

The driven atom is treated in the rotating frame, where the averaged
Hamiltonian (detuning/2) sigma_z + g sigma_x has dressed splitting Omega.
The system-bath couplings decompose into five harmonics (q, wbar): three
cold-bath entries at drive harmonics q = 1 with wbar in {-Omega, 0, +Omega}
and two hot-bath entries at q = 0 with wbar in {0, Omega}.  Each harmonic
sees the bath at its effective frequency wbar + q nu, giving a sum of
Lindblad dissipators with detailed-balanced rate pairs.

Heat bookkeeping per channel: a quantum exchanged with the bath carries the
effective frequency, the system energy changes by wbar, and the drive
supplies the difference q nu.  For wbar != 0 this reproduces the entropy-
production (Spohn) expression (w_eff/wbar) Tr[(L rho) H]; the wbar = 0
channels count quanta directly: no heat on the static hot channel, nu per
net quantum on the elastic cold channel.

Every dressed jump is sigma+, sigma- or sigma_z, so the steady state is a
two-level rate balance: dressed_flows gives populations and flows in
closed form, with its own residuals, and bare_from_dressed the bare
populations.  It is the full-beam value of beam_flows, the cell
integrand's depth kernel.  _dressed_channels computes and checks the five
channels' frequencies and coefficients; the kernel, hot_channel_rate and
sideband_weights read them, and _hot_balance gives the floor's balance
ratio and current.  licore.oracle builds the same model as a generator
and solves it by SVD, the numerical oracle that checks these closed
forms.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

from .config import AtomDriveConfig
from .errors import DegenerateSteadyStateError, DomainError
from .spectra import BathSpectrum, boltzmann_weight


def _dressed_channels(nu: float, delta: float, g: float,
                      stacklevel: int = 3) -> tuple:
    """(five dressed frequencies, five coefficients) of the coupling
    harmonics at drive nu, detuning delta and coupling g, as a flat tuple,
    in the order cold sigma+, sigma_z, sigma-, hot sigma_z, sigma-.

    Cold entries sit at effective frequencies nu - rabi, nu, nu + rabi;
    hot entries at 0 and rabi.  Configurations with rabi >= nu (lower
    sideband at negative frequency) are outside the model and rejected.
    The near-degenerate warning names the caller of
    oracle.dressed_coupling_set (stacklevel 3) or, from beam_flows'
    kernel, of dressed_flows (4).
    """
    rabi = math.hypot(2.0 * g, delta)
    if rabi == 0.0:
        raise DomainError("degenerate config: g = detuning = 0 leaves the "
                          "coupling prefactors undefined")
    if nu <= rabi:
        raise DomainError(
            f"lower sideband frequency nu - rabi = {nu - rabi:.6g} <= 0; "
            "ultra-strong drive is outside this model"
        )
    if nu - rabi < 1e-3 * rabi:
        warnings.warn("nu - rabi nearly vanishes; Floquet channels are "
                      "almost degenerate", stacklevel=stacklevel)
    return (-rabi, 0.0, rabi, 0.0, rabi,
            (delta - rabi) / (2 * rabi), g / rabi,
            (delta + rabi) / (2 * rabi), delta / rabi, -(2 * g / rabi))


def _rate_pair(spectrum: BathSpectrum, w_eff: float) -> tuple[float, float]:
    """(G(w_eff), G(-w_eff)), the rates of D[S] and D[S+], from one
    spectrum.pair call; DomainError unless both are finite and
    non-negative."""
    rate_down, rate_up = spectrum.pair(w_eff)
    if not (0.0 <= rate_down < math.inf and 0.0 <= rate_up < math.inf):
        if not (math.isfinite(rate_down) and math.isfinite(rate_up)):
            raise DomainError(f"non-finite spectrum value at {w_eff:.6g}")
        raise DomainError(f"negative spectrum value at {w_eff:.6g}")
    return rate_down, rate_up


class DressedFlows(NamedTuple):
    populations: tuple      # (upper, lower), dressed basis
    j_hot: float
    j_cold: float
    p_abs: float            # -(j_hot + j_cold), as in oracle.CurrentReport
    # |k_up p_lower - k_down p_upper| / (k_up + k_down)
    rate_balance_residual: float
    # |drive power - p_abs| / max(|j_hot|, |j_cold|, |p_abs|)
    energy_balance_residual: float


def dressed_flows(cfg: AtomDriveConfig, hot: BathSpectrum,
                  cold: BathSpectrum) -> DressedFlows:
    """Closed-form steady state and heat flows of the five-channel model:
    beam_flows' kernel at the full beam, u = 1, where g sqrt(u) is g.

    Every dressed jump is sigma+, sigma- or sigma_z and the generator has
    no Hamiltonian part, so the populations decouple from the coherence
    and obey a two-level rate balance: p_upper = k_up / (k_up + k_down),
    with k_up (k_down) the kernel's summed |c|^2-weighted rates that raise
    (lower) the atom; sigma_z channels only dephase.  Each channel takes
    n_down = |c|^2 G(w_eff) <S+S> and gives n_up = |c|^2 G(-w_eff) <SS+>
    quanta, so the bath receives w_eff (n_down - n_up) and the drive
    supplies q nu (n_down - n_up), the bookkeeping of oracle.heat_currents.  A
    channel's net flux is summed pairwise over the other channels, so the
    products of its own rates cancel exactly: J_hot keeps its digits where
    strong hot rates nearly balance, which the SVD state does not (~1e-12
    relative there).  oracle.solve_pipeline is the numerical oracle.

    Raises DegenerateSteadyStateError when k_up + k_down is zero or not
    finite, and DomainError when the flows overflow the float range or
    the drive power summed over the channels misses -(J_hot + J_cold) by
    more than 1e-10 of the largest flow.
    """
    kernel = beam_flows(cfg, hot, cold)
    j_hot, p_abs, j_cold, k_up, k_down, energy = kernel(1.0)
    total = k_up + k_down
    upper, lower = k_up / total, k_down / total
    return DressedFlows((upper, lower), j_hot, j_cold, p_abs,
                        abs(k_up * lower - k_down * upper) / total, energy)


def beam_flows(cfg: AtomDriveConfig, hot: BathSpectrum, cold: BathSpectrum):
    """The cell integrand's kernel u -> (J_hot, P_abs, J_cold, k_up, k_down,
    energy_balance_residual) at the coupling g sqrt(u) of a beam that keeps
    the power fraction u, in dressed_flows(cfg.attenuated(u), ...)'s bits;
    a ValueError for a negative, NaN or infinite u.  The sigma_z channels,
    cold at nu and hot at 0, keep their frequency at any coupling, so their
    rate pairs are taken once; a depth takes the other three from the
    spectra's bound pair methods and checks all six rates at once, calling
    _rate_pair for its message only where one fails.  Hot sigma_z sits at
    w_eff = 0, carries no heat and moves no population: a depth skips it."""
    nu, delta, g = cfg.nu, cfg.detuning, cfg.g
    # w_eff = wbar + q nu, q = 1 cold and 0 hot; sigma_z has wbar = 0
    w1 = 0.0 + nu
    (down1, up1), _ = _rate_pair(cold, w1), _rate_pair(hot, 0.0)
    cold_pair, hot_pair = cold.pair, hot.pair
    inf, sqrt, isfinite = math.inf, math.sqrt, math.isfinite

    def flows_at(u: float) -> tuple:
        if not 0.0 <= u < inf:
            raise ValueError(f"power fraction {u!r} must be finite and >= 0")
        f0, _, f2, _, w4, c0, c1, c2, _, c4 = _dressed_channels(
            nu, delta, g * sqrt(u), 4)
        w0, w2 = f0 + nu, f2 + nu
        down0, up0 = cold_pair(w0)
        down2, up2 = cold_pair(w2)
        down4, up4 = hot_pair(w4)
        if not (0.0 <= down0 < inf and 0.0 <= up0 < inf
                and 0.0 <= down2 < inf and 0.0 <= up2 < inf
                and 0.0 <= down4 < inf and 0.0 <= up4 < inf):
            # the first pair that fails raises, with its message
            _rate_pair(cold, w0)
            _rate_pair(cold, w2)
            _rate_pair(hot, w4)
        # |c|^2-weighted rates that raise (r) and lower (l) the atom:
        # sigma+ raises at G(w_eff) and lowers at G(-w_eff), sigma- and
        # sigma_z the other way round
        weight = c0 * c0
        r0, l0 = weight * down0, weight * up0
        weight = c1 * c1
        l1, r1 = weight * down1, weight * up1
        weight = c2 * c2
        l2, r2 = weight * down2, weight * up2
        weight = c4 * c4
        l4, r4 = weight * down4, weight * up4
        # every sum runs left to right from 0.0, so the bits do not depend
        # on the Python version (sum() of floats is compensated from 3.12)
        k_up = 0.0 + r0 + r2 + r4
        k_down = 0.0 + l0 + l2 + l4
        total = k_up + k_down
        if not (isfinite(total) and total > 0.0):
            raise DegenerateSteadyStateError(
                f"dressed rate balance has no unique steady state (k_up = "
                f"{k_up:.3e}, k_down = {k_down:.3e})")
        # net quanta n_down - n_up per channel.  The sigma_z channels only
        # dephase: <S+S> = <SS+> = 1.  The flux l p_upper - r p_lower of
        # the sigma-/sigma+ channels is summed pairwise, so the channel's
        # own r l product cancels exactly
        net0 = -((0.0 + (l0 * r0 - r0 * l0) + (l0 * r2 - r0 * l2)
                  + (l0 * r4 - r0 * l4)) / total)
        net1 = l1 - r1
        net2 = (0.0 + (l2 * r0 - r2 * l0) + (l2 * r2 - r2 * l2)
                + (l2 * r4 - r2 * l4)) / total
        net4 = (0.0 + (l4 * r0 - r4 * l0) + (l4 * r2 - r4 * l2)
                + (l4 * r4 - r4 * l4)) / total
        # the bath receives w_eff per net quantum, the drive supplies q nu
        # (nothing on the hot channels); hot sigma_z at w_eff = 0 adds +0.0
        j_cold = 0.0 - w0 * net0 - w1 * net1 - w2 * net2
        j_hot = 0.0 - w4 * net4
        p_direct = 0.0 + nu * net0 + nu * net1 + nu * net2
        p_abs = -(j_hot + j_cold)
        if not (isfinite(p_abs) and isfinite(p_direct)):
            raise DomainError("heat flows overflow: products of the channel "
                              "rates exceed the float range")
        scale = max(abs(j_hot), abs(j_cold), abs(p_abs))
        defect = abs(p_direct - p_abs)
        if not defect <= 1e-10 * scale:
            raise DomainError(
                f"energy balance broken: drive power {p_direct:.6g} against "
                f"-(J_hot + J_cold) = {p_abs:.6g}")
        return (j_hot, p_abs, j_cold, k_up, k_down,
                defect / scale if scale else 0.0)

    return flows_at


def bare_from_dressed(cfg: AtomDriveConfig,
                      populations: tuple) -> tuple[float, float]:
    """(rho_ee, rho_gg) of a state with dressed (upper, lower) populations
    and no coherence, as dressed_flows returns it.

    The dressed states carry the excited-state weights (1 +/- cos)/2, with
    cos = detuning/rabi, so rho_ee = (p_upper (1 + cos) + p_lower
    (1 - cos)) / 2.  The smaller weight is taken as
    2 g^2 / (rabi (rabi + |detuning|)), free of the cancellation in
    1 - |cos| at weak drive.  oracle.bare_populations, which rotates the
    SVD oracle's density matrix, is the numerical check of this function.
    """
    upper, lower = populations
    rabi, delta, two_g = cfg.rabi, cfg.detuning, 2.0 * cfg.g
    if rabi == 0.0:
        raise DomainError("degenerate config: g = detuning = 0")
    # 1 - |cos| and 1 + |cos|, twice the excited-state weights
    small = (two_g / rabi) * (two_g / (rabi + abs(delta)))
    large = 2.0 - small
    w_upper, w_lower = (large, small) if delta >= 0 else (small, large)
    return (0.5 * (upper * w_upper + lower * w_lower),
            0.5 * (upper * w_lower + lower * w_upper))


def hot_channel_rate(cfg: AtomDriveConfig, hot: BathSpectrum) -> float:
    """Pumping rate of the dressed hot channel, (2g/rabi)^2 G_hot(rabi).

    Coincides with the weak-drive pumping rate to O((g/detuning)^2) and is
    the rate entering the exact closed-form current.
    """
    channels = _dressed_channels(cfg.nu, cfg.detuning, cfg.g)
    return channels[9] ** 2 * hot.value(channels[4])


def sideband_weights(cfg: AtomDriveConfig) -> tuple[float, float]:
    """(delta_plus, delta_minus): cold-bath rates of the upper/lower dressed
    sidebands, ((rabi +/- detuning)/2 rabi)^2 (nu +/- rabi)^3 gamma / omega0^3."""
    channels = _dressed_channels(cfg.nu, cfg.detuning, cfg.g)
    nu, omega0, gamma = cfg.nu, cfg.omega0, cfg.gamma
    d_plus = channels[7] ** 2 * ((channels[2] + nu) / omega0) ** 3 * gamma
    d_minus = channels[5] ** 2 * ((channels[0] + nu) / omega0) ** 3 * gamma
    return d_plus, d_minus


def heat_current_exact(cfg: AtomDriveConfig, gamma_p: float, t_hot: float,
                       t_cold: float) -> float:
    """Closed-form hot-bath current of the five-channel model.

    gamma_p is the hot-channel pumping rate; pass hot_channel_rate(...) for
    exact agreement with the numerical solver.  t_cold = 0 takes the vacuum
    limit of the cold Boltzmann factors exactly.
    """
    if t_hot <= 0:
        raise ValueError("t_hot must be positive")
    return _hot_balance(cfg, gamma_p, t_cold)[1](t_hot)


def _hot_balance(cfg: AtomDriveConfig, gamma_p: float, t_cold: float):
    """(loss / gain, heat_current_exact as t_hot -> J_hot for t_hot > 0).
    J_hot follows e^(-rabi/T_hot) gain - loss, so the cooling floor solves
    e^(-rabi/T_hot) = loss / gain; a zero gain leaves no floor (ratio inf).
    The factors free of t_hot are taken once, each hoisted sum one that
    Python evaluates first, left to right, so every value keeps its bits."""
    if gamma_p < 0:
        raise ValueError("gamma_p must be non-negative")
    if t_cold < 0:
        raise ValueError("t_cold must be non-negative")
    rabi = cfg.rabi
    d_plus, d_minus = sideband_weights(cfg)
    bw_p = boltzmann_weight(cfg.nu + rabi, t_cold)
    bw_m = boltzmann_weight(cfg.nu - rabi, t_cold)
    gain, loss = d_plus + d_minus * bw_m, d_plus * bw_p + d_minus
    cold_den = d_minus * (1.0 + bw_m) + d_plus * (1.0 + bw_p)
    scale = rabi * gamma_p

    def current(t_hot: float) -> float:
        bw_hot = boltzmann_weight(rabi, t_hot)
        return scale * (bw_hot * gain - loss) \
            / (cold_den + (1.0 + bw_hot) * gamma_p)

    return (loss / gain if gain else math.inf), current


def __getattr__(name: str):
    # perfbench's exact phase calls floquet.solve_pipeline; ROADMAP item 1
    # re-points that call at licore.oracle, and item 8 then deletes this
    # forward.  The first lookup binds the name here, so later ones do not
    # come back through this function.
    if name == "solve_pipeline":
        from .oracle import solve_pipeline
        globals()[name] = solve_pipeline
        return solve_pipeline
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
