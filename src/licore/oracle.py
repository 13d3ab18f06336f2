"""The numerical oracle: the dressed-basis Lindblad generator, its SVD
steady state and its heat currents.

``floquet`` gives the five-channel model's populations and flows in
closed form; this module builds the same model as a 4x4 generator and
solves it numerically, so the tests can check the closed forms against
it.  No command runs it, and it is the only licore module that needs
numpy.

Density matrices are vectorized row-major, so A rho B maps to
kron(A, B.T) acting on vec(rho).  The jumps and rates are real and the
generator has no Hamiltonian part, so the oracle runs in real
arithmetic.  Heat bookkeeping per channel follows ``floquet``: for
wbar != 0 the entropy-production (Spohn) expression
(w_eff/wbar) Tr[(L rho) H]; the wbar = 0 channels count quanta directly.
"""

from __future__ import annotations

import functools
import warnings
from typing import NamedTuple

import numpy as np

# floquet's helpers are read through the module, not imported by name:
# perfbench's tracer wraps every private function another licore module
# imports, and _dressed_channels runs at every depth of the cell kernel
from . import floquet
from .config import AtomDriveConfig
from .errors import DegenerateSteadyStateError, DomainError
from .spectra import BathSpectrum

HOT = "hot"
COLD = "cold"
DEGENERACY_TOL = 1e-6    # least second singular value, relative to the norm
STATIONARITY_TOL = 1e-8  # most drift ||L vec(rho)||, relative to max(||L||, 1)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]])


def vec(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho).reshape(-1)

def unvec(v: np.ndarray) -> np.ndarray:
    return np.asarray(v).reshape(2, 2)


def dissipator(s: np.ndarray) -> np.ndarray:
    """Superoperator for S rho S+ - (1/2){S+S, rho}; keeps s's dtype."""
    s = np.asarray(s)
    sds = s.conj().T @ s
    return np.kron(s, s.conj()) - 0.5 * (np.kron(sds, np.eye(2))
                                         + np.kron(np.eye(2), sds.T))


def hermitize(m: np.ndarray) -> np.ndarray:
    """(m + m+)/2; for a real m, the symmetric part."""
    return 0.5 * (m + m.conj().T)


def rotating_frame_hamiltonian(cfg: AtomDriveConfig) -> np.ndarray:
    """(detuning/2) sigma_z + g sigma_x in the bare basis; eigenvalues are
    +/- rabi/2."""
    return 0.5 * cfg.detuning * SIGMA_Z + cfg.g * SIGMA_X


def dressing_rotation(cfg: AtomDriveConfig) -> np.ndarray:
    """Real orthogonal matrix whose columns are the (upper, lower) dressed
    states in the bare basis, each with its largest entry positive."""
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
    pairs = [(s, s.T) for s in (SIGMA_PLUS, SIGMA_MINUS, SIGMA_Z)]
    return (np.array([[dissipator(s) for s in pair] for pair in pairs]),
            np.array([[vec(s.T @ s) for s in pair] for pair in pairs]))


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


def dressed_coupling_set(cfg: AtomDriveConfig) -> HarmonicCouplingSet:
    """The five coupling harmonics of the driven atom: floquet's
    _dressed_channels labelled with bath, harmonic q and jump."""
    f0, f1, f2, f3, f4, c0, c1, c2, c3, c4 = floquet._dressed_channels(
        cfg.nu, cfg.detuning, cfg.g)
    entries = (HarmonicCoupling(COLD, 1, f0, RAISE, c0),
               HarmonicCoupling(COLD, 1, f1, DEPHASE, c1),
               HarmonicCoupling(COLD, 1, f2, LOWER, c2),
               HarmonicCoupling(HOT, 0, f3, DEPHASE, c3),
               HarmonicCoupling(HOT, 0, f4, LOWER, c4))
    return HarmonicCouplingSet(cfg.nu, cfg.rabi, entries)


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
        return float(np.linalg.norm(self.matrix[0] + self.matrix[3]))


def build_liouvillian(couplings: HarmonicCouplingSet, hot: BathSpectrum,
                      cold: BathSpectrum) -> LiouvillianOperator:
    """Assemble the generator: each harmonic contributes
    G(w_eff) D[S] + G(-w_eff) D[S+], kept separately for current
    bookkeeping.  The |c|^2-weighted rate pairs contract with the jumps'
    stacked (D[S], D[S+]) in one product; the total is their sum."""
    nu, channels, rates = couplings.drive_frequency, [], []
    for entry in couplings.entries:
        w_eff = entry.effective_frequency(nu)
        rate_down, rate_up = floquet._rate_pair(
            hot if entry.bath == HOT else cold, w_eff)
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
    candidate = unvec(vh[-1])
    tr = candidate[0, 0] + candidate[1, 1]
    if abs(tr) < 1e-12:
        raise DegenerateSteadyStateError("steady-state candidate is traceless")
    rho = hermitize(candidate / tr)
    rho = rho / (rho[0, 0] + rho[1, 1])
    residual = float(np.linalg.norm(liouv.matrix @ vec(rho)))
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
    v = vec(rho)
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


def solve_pipeline(cfg: AtomDriveConfig, hot: BathSpectrum, cold: BathSpectrum):
    """Convenience: build generator, solve, compute currents."""
    liouv = build_liouvillian(dressed_coupling_set(cfg), hot, cold)
    report = steady_state(liouv)
    currents = heat_currents(liouv, report.rho)
    return liouv, report, currents
