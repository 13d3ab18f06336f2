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

