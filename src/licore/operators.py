"""Dense 2x2 operators and 4x4 superoperator helpers.

Density matrices are vectorized row-major, so A rho B maps to
kron(A, B.T) acting on vec(rho).
"""

from __future__ import annotations

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def vec(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho, dtype=complex).reshape(-1)

def unvec(v: np.ndarray) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(2, 2)


def left_mult(a: np.ndarray) -> np.ndarray:
    return np.kron(a, ID2)

def right_mult(b: np.ndarray) -> np.ndarray:
    return np.kron(ID2, np.asarray(b).T)


def dissipator(s: np.ndarray) -> np.ndarray:
    """Superoperator for S rho S+ - (1/2){S+S, rho}."""
    s = np.asarray(s, dtype=complex)
    sd = s.conj().T
    sds = sd @ s
    return np.kron(s, s.conj()) - 0.5 * (left_mult(sds) + right_mult(sds))


def hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def is_hermitian(m: np.ndarray, tol: float = 1e-12) -> bool:
    m = np.asarray(m)
    scale = max(1.0, np.abs(m).max())
    return bool(np.abs(m - m.conj().T).max() <= tol * scale)


def density_diagnostics(rho: np.ndarray) -> tuple[float, float, float]:
    """(trace defect, hermiticity defect, min eigenvalue) of a candidate
    density matrix."""
    rho = np.asarray(rho, dtype=complex)
    trace_defect = abs(np.trace(rho) - 1.0)
    herm_defect = float(np.abs(rho - rho.conj().T).max())
    min_eig = float(np.linalg.eigvalsh(hermitize(rho)).min())
    return float(trace_defect), herm_defect, min_eig
