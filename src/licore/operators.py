"""Dense 2x2 operators and 4x4 superoperator helpers.

Density matrices are vectorized row-major, so A rho B maps to
kron(A, B.T) acting on vec(rho).  The Pauli matrices are real, and each
helper keeps the dtype it is given.
"""

from __future__ import annotations

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]])


def vec(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho).reshape(-1)

def unvec(v: np.ndarray) -> np.ndarray:
    return np.asarray(v).reshape(2, 2)


def dissipator(s: np.ndarray) -> np.ndarray:
    """Superoperator for S rho S+ - (1/2){S+S, rho}."""
    s = np.asarray(s)
    sds = s.conj().T @ s
    return np.kron(s, s.conj()) - 0.5 * (np.kron(sds, np.eye(2))
                                         + np.kron(np.eye(2), sds.T))


def hermitize(m: np.ndarray) -> np.ndarray:
    """(m + m+)/2; for a real m, the symmetric part."""
    return 0.5 * (m + m.conj().T)
