"""Exact open-system model: dressed-basis Lindblad generator and heat currents.

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
channels' frequencies and coefficients; the kernel reads them,
dressed_coupling_set labels them.  The generator route (build_liouvillian,
steady_state via SVD, heat_currents: solve_pipeline) is the numerical
oracle that checks both, in real arithmetic: the jumps and rates are real
and there is no Hamiltonian part.  Only it needs numpy, imported on first
use, so no command loads it.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import TYPE_CHECKING, NamedTuple

from .config import AtomDriveConfig
from .errors import DegenerateSteadyStateError, DomainError
from .spectra import BathSpectrum, boltzmann_weight

if TYPE_CHECKING:
    import numpy as np

HOT = "hot"
COLD = "cold"
DEGENERACY_TOL = 1e-6    # least second singular value, relative to the norm
STATIONARITY_TOL = 1e-8  # most drift ||L vec(rho)||, relative to max(||L||, 1)


@functools.cache
def _oracle_modules():
    """numpy and licore.operators, imported on first use: only the SVD
    oracle needs them."""
    import numpy
    from . import operators
    return numpy, operators


def rotating_frame_hamiltonian(cfg: AtomDriveConfig) -> np.ndarray:
    """(detuning/2) sigma_z + g sigma_x in the bare basis; eigenvalues are
    +/- rabi/2."""
    _, ops = _oracle_modules()
    return 0.5 * cfg.detuning * ops.SIGMA_Z + cfg.g * ops.SIGMA_X


def dressing_rotation(cfg: AtomDriveConfig) -> np.ndarray:
    """Real orthogonal matrix whose columns are the (upper, lower) dressed
    states in the bare basis, each with its largest entry positive."""
    np, _ = _oracle_modules()
    _, evecs = np.linalg.eigh(rotating_frame_hamiltonian(cfg))
    u = evecs[:, ::-1].copy()   # eigh sorts ascending: upper first
    for k in range(2):
        if u[np.argmax(np.abs(u[:, k])), k] < 0:
            u[:, k] = -u[:, k]
    return u


# dressed-basis jump operators; the upper dressed state comes first, so
# sigma+ raises and sigma- lowers the atom between the dressed states
RAISE, LOWER, DEPHASE = "sigma+", "sigma-", "sigma_z"
_JUMP_INDEX = {RAISE: 0, LOWER: 1, DEPHASE: 2}


@functools.cache
def _jump_operators() -> tuple:
    """(pairs, rows), built on first use: pairs[_JUMP_INDEX[jump]] stacks
    the jump's 4x4 dissipators D[S] and D[S+], rows[...] its vec((S+S)^T)
    and vec((SS+)^T).  D[c S] = |c|^2 D[S], so the generator only scales
    these, and vec((S+S)^T) . vec(rho) = tr(rho S+S) counts quanta."""
    np, ops = _oracle_modules()
    pairs = [(s, s.T) for s in (ops.SIGMA_PLUS, ops.SIGMA_MINUS, ops.SIGMA_Z)]
    return (np.array([[ops.dissipator(s) for s in pair] for pair in pairs]),
            np.array([[ops.vec(s.T @ s) for s in pair] for pair in pairs]))


class HarmonicCoupling(NamedTuple):
    bath: str
    harmonic: int           # q, multiplying the drive frequency
    dressed_freq: float     # wbar, the dressed-basis Bohr frequency
    jump: str               # RAISE, LOWER or DEPHASE
    coefficient: float      # real prefactor c of the jump operator

    def effective_frequency(self, drive_freq: float) -> float:
        return self.dressed_freq + self.harmonic * drive_freq


class HarmonicCouplingSet(NamedTuple):
    drive_frequency: float
    rabi: float
    entries: tuple


def _dressed_channels(nu: float, delta: float, g: float,
                      stacklevel: int = 3) -> tuple:
    """(five dressed frequencies, five coefficients) of the coupling
    harmonics at drive nu, detuning delta and coupling g, as a flat tuple,
    in the order cold sigma+, sigma_z, sigma-, hot sigma_z, sigma-.

    Cold entries sit at effective frequencies nu - rabi, nu, nu + rabi;
    hot entries at 0 and rabi.  Configurations with rabi >= nu (lower
    sideband at negative frequency) are outside the model and rejected.
    The near-degenerate warning names the caller of dressed_coupling_set
    (stacklevel 3) or, from beam_flows' kernel, of dressed_flows (4).
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


def dressed_coupling_set(cfg: AtomDriveConfig) -> HarmonicCouplingSet:
    """The five coupling harmonics of the driven atom: _dressed_channels
    labelled with bath, harmonic q and jump, as the SVD oracle reads them."""
    f0, f1, f2, f3, f4, c0, c1, c2, c3, c4 = _dressed_channels(
        cfg.nu, cfg.detuning, cfg.g)
    entries = (HarmonicCoupling(COLD, 1, f0, RAISE, c0),
               HarmonicCoupling(COLD, 1, f1, DEPHASE, c1),
               HarmonicCoupling(COLD, 1, f2, LOWER, c2),
               HarmonicCoupling(HOT, 0, f3, DEPHASE, c3),
               HarmonicCoupling(HOT, 0, f4, LOWER, c4))
    return HarmonicCouplingSet(cfg.nu, cfg.rabi, entries)


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
    p_abs: float            # -(j_hot + j_cold), as in CurrentReport
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
    with k_up (k_down) the summed |c|^2-weighted rates that raise (lower)
    the atom; sigma_z channels only dephase.  Each channel takes
    n_down = |c|^2 G(w_eff) <S+S> and gives n_up = |c|^2 G(-w_eff) <SS+>
    quanta, so the bath receives w_eff (n_down - n_up) and the drive
    supplies q nu (n_down - n_up), the bookkeeping of heat_currents.  A
    channel's net flux is summed pairwise over the other channels, so the
    products of its own rates cancel exactly: J_hot keeps its digits where
    strong hot rates nearly balance, which the SVD state does not (~1e-12
    relative there).  solve_pipeline is the numerical oracle.

    Raises DegenerateSteadyStateError when k_up + k_down is zero or not
    finite, and DomainError when the flows overflow the float range or
    the drive power summed over the channels misses -(J_hot + J_cold) by
    more than 1e-10 of the largest flow.
    """
    return beam_flows(cfg, hot, cold)(1.0)


def beam_flows(cfg: AtomDriveConfig, hot: BathSpectrum, cold: BathSpectrum):
    """The cell integrand's kernel u -> dressed_flows at the coupling
    g sqrt(u), where the attenuated beam keeps the power fraction u: the
    bits of dressed_flows(cfg.attenuated(u), hot, cold), and a ValueError
    for a negative, NaN or infinite u.  The sigma_z channels, cold at nu
    and hot at 0, keep their effective frequency at any coupling, so their
    rate pairs are taken once; a depth takes the other three.
    """
    nu, delta, g = cfg.nu, cfg.detuning, cfg.g
    # w_eff = wbar + q nu, q = 1 cold and 0 hot; sigma_z has wbar = 0
    w1, w3 = 0.0 + nu, 0.0
    (down1, up1), (down3, up3) = _rate_pair(cold, w1), _rate_pair(hot, w3)

    def flows_at(u: float) -> DressedFlows:
        if not 0.0 <= u < math.inf:
            raise ValueError(f"power fraction {u!r} must be finite and >= 0")
        f0, _, f2, _, w4, c0, c1, c2, c3, c4 = _dressed_channels(
            nu, delta, g * math.sqrt(u), 4)
        w0, w2 = f0 + nu, f2 + nu
        # |c|^2-weighted rates that raise (r) and lower (l) the atom:
        # sigma+ raises at G(w_eff) and lowers at G(-w_eff), sigma- and
        # sigma_z the other way round
        down, up = _rate_pair(cold, w0)
        weight = c0 * c0
        r0, l0 = weight * down, weight * up
        weight = c1 * c1
        l1, r1 = weight * down1, weight * up1
        down, up = _rate_pair(cold, w2)
        weight = c2 * c2
        l2, r2 = weight * down, weight * up
        weight = c3 * c3
        l3, r3 = weight * down3, weight * up3
        down, up = _rate_pair(hot, w4)
        weight = c4 * c4
        l4, r4 = weight * down, weight * up
        # every sum runs left to right from 0.0, so the bits do not depend
        # on the Python version (sum() of floats is compensated from 3.12)
        k_up = 0.0 + r0 + r2 + r4
        k_down = 0.0 + l0 + l2 + l4
        total = k_up + k_down
        if not (math.isfinite(total) and total > 0.0):
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
        net3 = l3 - r3
        net4 = (0.0 + (l4 * r0 - r4 * l0) + (l4 * r2 - r4 * l2)
                + (l4 * r4 - r4 * l4)) / total
        # the bath receives w_eff per net quantum, the drive supplies q nu
        # (nothing on the hot channels)
        j_cold = 0.0 - w0 * net0 - w1 * net1 - w2 * net2
        j_hot = 0.0 - w3 * net3 - w4 * net4
        p_direct = 0.0 + nu * net0 + nu * net1 + nu * net2
        p_abs = -(j_hot + j_cold)
        if not (math.isfinite(p_abs) and math.isfinite(p_direct)):
            raise DomainError("heat flows overflow: products of the channel "
                              "rates exceed the float range")
        scale = max(abs(j_hot), abs(j_cold), abs(p_abs))
        defect = abs(p_direct - p_abs)
        if not defect <= 1e-10 * scale:
            raise DomainError(
                f"energy balance broken: drive power {p_direct:.6g} against "
                f"-(J_hot + J_cold) = {p_abs:.6g}")
        upper, lower = k_up / total, k_down / total
        return DressedFlows((upper, lower), j_hot, j_cold, p_abs,
                            abs(k_up * lower - k_down * upper) / total,
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
    1 - |cos| at weak drive.  bare_populations, which rotates the SVD
    oracle's density matrix, is the numerical check of this function.
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


class LiouvillianComponent(NamedTuple):
    coupling: HarmonicCoupling
    omega_eff: float
    rate_down: float        # G(omega_eff), multiplies D[S]
    rate_up: float          # G(-omega_eff), multiplies D[S+]
    matrix: np.ndarray      # 4x4 sub-generator, a view into the stack


class LiouvillianOperator(NamedTuple):
    matrix: np.ndarray
    components: tuple
    drive_frequency: float
    rabi: float
    stack: np.ndarray       # the components' matrices, stacked

    def trace_defect(self) -> float:
        """Norm of the adjoint generator applied to the identity, zero if
        it preserves the trace; vec(1) picks rows 0 and 3 (row-major)."""
        np, _ = _oracle_modules()
        return float(np.linalg.norm(self.matrix[0] + self.matrix[3]))


def build_liouvillian(couplings: HarmonicCouplingSet, hot: BathSpectrum,
                      cold: BathSpectrum) -> LiouvillianOperator:
    """Assemble the generator: each harmonic contributes
    G(w_eff) D[S] + G(-w_eff) D[S+], kept separately for current
    bookkeeping.  The |c|^2-weighted rate pairs contract with the jumps'
    stacked (D[S], D[S+]) in one product; the total is their sum."""
    np, _ = _oracle_modules()
    nu, channels, rates = couplings.drive_frequency, [], []
    for entry in couplings.entries:
        w_eff = entry.effective_frequency(nu)
        rate_down, rate_up = _rate_pair(hot if entry.bath == HOT else cold,
                                        w_eff)
        weight = entry.coefficient * entry.coefficient
        channels.append((entry, w_eff, rate_down, rate_up))
        rates += (weight * rate_down, weight * rate_up)
    pairs = _jump_operators()[0].take(
        [_JUMP_INDEX[entry.jump] for entry in couplings.entries], axis=0)
    stack = (np.array(rates).reshape(-1, 1, 2)
             @ pairs.reshape(-1, 2, 16)).reshape(-1, 4, 4)
    total = stack.sum(axis=0)
    liouv = LiouvillianOperator(
        total, tuple(LiouvillianComponent(*channel, mat)
                     for channel, mat in zip(channels, stack)),
        nu, couplings.rabi, stack)
    if liouv.trace_defect() > 1e-12 * np.abs(total).max():
        raise DomainError(f"generator does not preserve the trace: defect "
                          f"{liouv.trace_defect():.3e}")
    return liouv


class SteadyStateReport(NamedTuple):
    rho: np.ndarray             # dressed basis
    residual: float             # ||L vec(rho)||
    populations: tuple          # (upper, lower)
    coherence: complex


def steady_state(liouv: LiouvillianOperator) -> SteadyStateReport:
    """Kernel of the real 4x4 generator via SVD, symmetrized and normalized.

    Raises DegenerateSteadyStateError when the second-smallest singular
    value falls below DEGENERACY_TOL times the generator norm.
    """
    np, ops = _oracle_modules()
    try:
        _, s, vh = np.linalg.svd(liouv.matrix)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSteadyStateError(f"generator has no usable kernel: "
                                         f"{exc}") from exc
    norm = s[0]
    if norm == 0.0:
        raise DegenerateSteadyStateError("zero generator has no unique steady state")
    if s[-2] <= DEGENERACY_TOL * norm:
        raise DegenerateSteadyStateError(
            f"Liouvillian kernel not one-dimensional (singular values "
            f"{s[-2]:.3e}, {s[-1]:.3e} vs norm {norm:.3e})"
        )
    candidate = ops.unvec(vh[-1])
    tr = candidate[0, 0] + candidate[1, 1]
    if abs(tr) < 1e-12:
        raise DegenerateSteadyStateError("steady-state candidate is traceless")
    rho = ops.hermitize(candidate / tr)
    rho = rho / (rho[0, 0] + rho[1, 1])
    residual = float(np.linalg.norm(liouv.matrix @ ops.vec(rho)))
    return SteadyStateReport(rho, residual, (rho[0, 0], rho[1, 1]),
                             complex(rho[0, 1]))


def bare_populations(cfg: AtomDriveConfig, rho_dressed: np.ndarray) -> tuple[float, float]:
    """(rho_ee, rho_gg) in the bare atomic basis."""
    u = dressing_rotation(cfg)
    rho_bare = u @ rho_dressed @ u.conj().T
    return rho_bare[0, 0].real, rho_bare[1, 1].real


class CurrentReport(NamedTuple):
    j_hot: float
    j_cold: float
    p_abs: float                  # -(j_hot + j_cold), the defining identity
    conservation_residual: float  # |summed drive power + j_hot + j_cold|
    stationary: bool


def heat_currents(liouv: LiouvillianOperator, rho: np.ndarray) -> CurrentReport:
    """Per-bath heat currents and absorbed power at (or near) steady state.

    The five channels are read in one batched pass: the generator's stored
    stack of component matrices acts on vec(rho) in one product, a dot
    with vec(H^T) gives each channel's energy change tr(L_k(rho) H), and
    the jumps' cached rows give tr(rho S+S) and tr(rho SS+).  Currents are
    exact at the steady state; a non-stationary rho is flagged via
    ``stationary=False``.
    """
    np, ops = _oracle_modules()
    v = ops.vec(rho)
    stationary = bool(np.linalg.norm(liouv.matrix @ v) <= STATIONARITY_TOL
                      * max(np.linalg.norm(liouv.matrix), 1.0))
    if not stationary:
        warnings.warn("heat currents evaluated on a non-stationary state",
                      stacklevel=2)
    comps = liouv.components
    half = 0.5 * liouv.rabi
    # tr(L_k(rho) H) of every channel, vec(H^T) of H = diag(rabi/2, -rabi/2)
    changes = (liouv.stack @ v) @ np.array([half, 0.0, 0.0, -half])
    # tr(rho S+S) and tr(rho SS+) of every channel
    rows = _jump_operators()[1].take(
        [_JUMP_INDEX[comp.coupling.jump] for comp in comps], axis=0)
    quanta = (rows @ v).real.tolist()
    totals = {HOT: 0.0, COLD: 0.0}
    p_direct = 0.0
    for comp, change, (down, up) in zip(comps, changes.real.tolist(), quanta):
        entry = comp.coupling
        weight = entry.coefficient * entry.coefficient
        n_down = comp.rate_down * (weight * down)
        n_up = comp.rate_up * (weight * up)
        if entry.dressed_freq != 0.0:
            heat = (comp.omega_eff / entry.dressed_freq) * change
        else:
            # quantum counting; zero for the static hot channel (w_eff = 0)
            heat = comp.omega_eff * (n_up - n_down)
        totals[entry.bath] += heat
        p_direct += entry.harmonic * liouv.drive_frequency * (n_down - n_up)
    j_hot, j_cold = totals[HOT], totals[COLD]
    residual = abs(p_direct + j_hot + j_cold)
    return CurrentReport(j_hot, j_cold, -(j_hot + j_cold), residual, stationary)


def hot_channel_rate(cfg: AtomDriveConfig, hot: BathSpectrum) -> float:
    """Pumping rate of the dressed hot channel, (2g/rabi)^2 G_hot(rabi).

    Coincides with the weak-drive pumping rate to O((g/detuning)^2) and is
    the rate entering the exact closed-form current.
    """
    rabi = cfg.rabi
    if rabi == 0.0:
        raise DomainError("degenerate config: g = detuning = 0")
    return (2.0 * cfg.g / rabi) ** 2 * hot.value(rabi)


def sideband_weights(cfg: AtomDriveConfig) -> tuple[float, float]:
    """(delta_plus, delta_minus): cold-bath rates of the upper/lower dressed
    sidebands, ((rabi +/- detuning)/2 rabi)^2 (nu +/- rabi)^3 gamma / omega0^3."""
    delta, rabi = cfg.detuning, cfg.rabi
    if rabi == 0.0:
        raise DomainError("degenerate config: g = detuning = 0")
    nu_p, nu_m = cfg.nu + rabi, cfg.nu - rabi
    if nu_m <= 0:
        raise DomainError("lower sideband frequency nu - rabi <= 0")
    d_plus = ((rabi + delta) / (2 * rabi)) ** 2 * (nu_p / cfg.omega0) ** 3 * cfg.gamma
    d_minus = ((rabi - delta) / (2 * rabi)) ** 2 * (nu_m / cfg.omega0) ** 3 * cfg.gamma
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
    return _exact_current_in_t_hot(cfg, gamma_p, t_cold)(t_hot)


def _exact_current_in_t_hot(cfg: AtomDriveConfig, gamma_p: float,
                           t_cold: float):
    """heat_current_exact as t_hot -> J_hot for t_hot > 0: the factors
    free of t_hot are taken once.  Each hoisted sum is one that Python
    evaluates first, left to right, so every value keeps its bits."""
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

    return current


def solve_pipeline(cfg: AtomDriveConfig, hot: BathSpectrum, cold: BathSpectrum):
    """Convenience: build generator, solve, compute currents."""
    liouv = build_liouvillian(dressed_coupling_set(cfg), hot, cold)
    report = steady_state(liouv)
    currents = heat_currents(liouv, report.rho)
    return liouv, report, currents
