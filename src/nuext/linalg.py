"""Small dense complex linear algebra: decompositions and predicates.

Matrices are plain complex numpy arrays; everything here is pure and
value-semantic.  Eigensystems and SVDs come from LAPACK (np.linalg.eigh and
np.linalg.svd); the wrappers fix the conventions the rest of the package
relies on: descending order, vectors as columns, and a Hermitian check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError, NotNormalError

Matrix = np.ndarray
Vector = np.ndarray

PREDICATE_TOL = 1e-9


def as_matrix(m) -> Matrix:
    """Coerce to a square complex matrix with finite entries."""
    a = np.array(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return a


def adjoint(m: Matrix) -> Matrix:
    """Conjugate transpose."""
    return np.conj(as_matrix(m).T)


def real_part(m: Matrix) -> Matrix:
    """(M + M*)/2, always Hermitian."""
    m = as_matrix(m)
    return 0.5 * (m + np.conj(m.T))


def imag_part(m: Matrix) -> Matrix:
    """(M - M*)/(2i), always Hermitian; M = real_part + i*imag_part."""
    m = as_matrix(m)
    return (m - np.conj(m.T)) / 2j


def frobenius(m: Matrix) -> float:
    return float(np.linalg.norm(m))


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (real, descending) and orthonormal eigenvectors (columns)."""

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class SvdSystem:
    """M = U @ diag(sigma) @ V*; U, V unitary, sigma descending >= 0."""

    U: Matrix
    sigma: np.ndarray
    V: Matrix


def hermitian_eigen(h: Matrix, tol: float = PREDICATE_TOL) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix by np.linalg.eigh, values
    descending.

    Raises NotHermitianError if ||H - H*|| > tol * max(1, ||H||).
    """
    h = as_matrix(h)
    scale = max(1.0, frobenius(h))
    if frobenius(h - np.conj(h.T)) > tol * scale:
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(0.5 * (h + np.conj(h.T)))
    return EigenSystem(vals[::-1], vecs[:, ::-1])


def _lmax_hermitian(h: Matrix) -> float:
    """Largest eigenvalue of a Hermitian matrix (values only, fast path)."""
    n = h.shape[0]
    if n == 1:
        return float(h[0, 0].real)
    if n == 2:
        a, b = h[0, 0].real, h[1, 1].real
        return 0.5 * (a + b) + math.hypot(0.5 * (a - b), abs(h[0, 1]))
    return float(np.linalg.eigvalsh(0.5 * (h + np.conj(h.T)))[-1])


def operator_norm(m: Matrix) -> float:
    """Spectral norm sqrt(lambda_max(M* M))."""
    m = as_matrix(m)
    g = np.conj(m.T) @ m
    return math.sqrt(max(0.0, _lmax_hermitian(g)))


def svd(m: Matrix) -> SvdSystem:
    """Singular value decomposition by np.linalg.svd."""
    u, sigma, vh = np.linalg.svd(as_matrix(m))
    return SvdSystem(u, sigma, np.conj(vh.T))


def is_self_adjoint(m: Matrix, tol: float = PREDICATE_TOL) -> bool:
    m = as_matrix(m)
    return frobenius(m - np.conj(m.T)) <= tol * max(1.0, frobenius(m))


def is_normal(m: Matrix, tol: float = PREDICATE_TOL) -> bool:
    m = as_matrix(m)
    comm = m @ np.conj(m.T) - np.conj(m.T) @ m
    return frobenius(comm) <= tol * max(1.0, frobenius(m) ** 2)


def is_isometry(m: Matrix, tol: float = PREDICATE_TOL) -> bool:
    m = as_matrix(m)
    eye = np.eye(m.shape[0])
    return frobenius(np.conj(m.T) @ m - eye) <= tol * max(1.0, frobenius(m) ** 2)


def is_co_isometry(m: Matrix, tol: float = PREDICATE_TOL) -> bool:
    m = as_matrix(m)
    eye = np.eye(m.shape[0])
    return frobenius(m @ np.conj(m.T) - eye) <= tol * max(1.0, frobenius(m) ** 2)


def is_unitary(m: Matrix, tol: float = PREDICATE_TOL) -> bool:
    return is_isometry(m, tol) and is_co_isometry(m, tol)


def normal_eigen(t: Matrix, tol: float = PREDICATE_TOL) -> tuple[np.ndarray, Matrix]:
    """Joint diagonalization of a normal matrix: values d and unitary Q with
    Q* T Q = diag(d).

    Diagonalizes Re(T), then diagonalizes Im(T) compressed to each
    eigenvalue cluster of Re(T); valid because the two parts commute.
    """
    t = as_matrix(t)
    if not is_normal(t, tol):
        raise NotNormalError("matrix is not normal within tolerance")
    n = t.shape[0]
    scale = max(1.0, frobenius(t))
    re, im = real_part(t), imag_part(t)
    es = hermitian_eigen(re, tol=1e-6)
    q = es.vectors.copy()
    vals = es.values
    i = 0
    while i < n:
        j = i + 1
        while j < n and abs(vals[j] - vals[i]) <= 1e-8 * scale:
            j += 1
        if j - i > 1:
            block = np.conj(q[:, i:j].T) @ im @ q[:, i:j]
            sub = hermitian_eigen(0.5 * (block + np.conj(block.T)), tol=1e-6)
            q[:, i:j] = q[:, i:j] @ sub.vectors
        i = j
    d = np.diag(np.conj(q.T) @ t @ q).copy()
    resid = frobenius(np.conj(q.T) @ t @ q - np.diag(d))
    if resid > 1e-7 * scale:
        raise NotNormalError(f"joint diagonalization residual {resid} too large")
    return d, q


def random_complex_matrix(n: int, rng: np.random.Generator) -> Matrix:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)


def random_unitary(n: int, rng: np.random.Generator) -> Matrix:
    """Haar-ish random unitary: Gram-Schmidt of a complex Gaussian matrix."""
    z = random_complex_matrix(n, rng)
    cols: list[Vector] = []
    for k in range(n):
        v = z[:, k]
        for c in cols:
            v = v - c * np.vdot(c, v)
        nrm = float(np.linalg.norm(v))
        if nrm < 1e-8:  # essentially never for Gaussian input
            return random_unitary(n, rng)
        v = v / nrm
        # fix the phase so the result is deterministic per seed
        piv = v[np.argmax(np.abs(v))]
        v = v * (np.conj(piv) / abs(piv))
        cols.append(v)
    return np.column_stack(cols)
