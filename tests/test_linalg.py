import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nuext.errors import NotHermitianError, NotNormalError
from nuext.linalg import (
    adjoint,
    frobenius,
    hermitian_eigen,
    is_co_isometry,
    is_isometry,
    is_normal,
    is_self_adjoint,
    is_unitary,
    normal_eigen,
    operator_norm,
    random_complex_matrix,
    random_unitary,
    svd,
)

from conftest import rand_matrix, rand_normal, rand_unitary


def rand_hermitian(rng, n):
    m = rand_matrix(rng, n)
    return 0.5 * (m + adjoint(m))


def test_hermitian_eigen_matches_numpy(rng):
    cases = [rand_hermitian(rng, int(rng.integers(1, 17))) for _ in range(200)]
    # repeated eigenvalues, where the eigenvectors are not unique
    for n in (2, 3, 4, 8, 16):
        q = rand_unitary(rng, n)
        d = rng.choice([-1.0, 0.5, 2.0], size=n)
        cases.append(q @ np.diag(d) @ np.conj(q.T))
        cases.append(3.0 * np.eye(n, dtype=complex))
    for h in cases:
        n = h.shape[0]
        es = hermitian_eigen(h)
        ref = np.sort(np.linalg.eigvalsh(h))[::-1]
        assert np.allclose(es.values, ref, atol=1e-10)
        # descending order, orthonormal vectors, reconstruction
        assert np.all(np.diff(es.values) <= 1e-12)
        q = es.vectors
        assert np.allclose(np.conj(q.T) @ q, np.eye(n), atol=1e-12)
        assert np.allclose(q @ np.diag(es.values) @ np.conj(q.T), h, atol=1e-10)


def test_hermitian_eigen_rejects_non_hermitian(rng):
    with pytest.raises(NotHermitianError):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_operator_norm_matches_numpy(rng):
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = rand_matrix(rng, n)
        assert abs(operator_norm(m) - np.linalg.norm(m, 2)) <= 1e-10 * max(
            1.0, np.linalg.norm(m, 2)
        )


def test_svd_reconstruction_and_ordering(rng):
    cases = [(rand_matrix(rng, int(rng.integers(1, 7))), None) for _ in range(200)]
    # graded spectra down to 1e-13: an SVD built on M*M squares the
    # condition number and loses the small singular values
    for n in range(2, 17):
        s = np.logspace(0.0, -13.0, n)
        m = rand_unitary(rng, n) @ np.diag(s) @ np.conj(rand_unitary(rng, n).T)
        cases.append((m, s))
    for m, truth in cases:
        n = m.shape[0]
        sv = svd(m)
        if truth is not None:
            assert np.max(np.abs(sv.sigma - truth)) <= 1e-13
        assert np.all(np.diff(sv.sigma) <= 1e-12)
        assert np.all(sv.sigma >= -1e-12)
        assert np.allclose(np.conj(sv.U.T) @ sv.U, np.eye(n), atol=1e-9)
        assert np.allclose(np.conj(sv.V.T) @ sv.V, np.eye(n), atol=1e-9)
        rec = sv.U @ np.diag(sv.sigma) @ np.conj(sv.V.T)
        assert frobenius(rec - m) <= 1e-9 * max(1.0, frobenius(m))


def test_svd_rank_deficient(rng):
    m = np.zeros((3, 3), dtype=complex)
    m[0, 1] = 2.0
    sv = svd(m)
    assert np.allclose(sv.sigma, [2.0, 0.0, 0.0], atol=1e-12)
    rec = sv.U @ np.diag(sv.sigma) @ np.conj(sv.V.T)
    assert np.allclose(rec, m, atol=1e-12)


def test_isometry_unitary_equivalence_square(rng):
    # in finite dimension a square isometry is unitary, and conversely
    for _ in range(50):
        n = int(rng.integers(1, 6))
        u = random_unitary(n, rng)
        assert is_isometry(u) and is_co_isometry(u) and is_unitary(u)
        m = rand_matrix(rng, n) * 0.3
        assert is_isometry(m, 1e-6) == is_unitary(m, 1e-6)


def test_normal_eigen_reconstruction(rng):
    for _ in range(100):
        n = int(rng.integers(1, 6))
        t, d = rand_normal(rng, n)
        vals, q = normal_eigen(t)
        assert np.allclose(np.conj(q.T) @ q, np.eye(n), atol=1e-9)
        rec = q @ np.diag(vals) @ np.conj(q.T)
        assert frobenius(rec - t) <= 1e-7 * max(1.0, frobenius(t))
        assert np.allclose(
            np.sort(np.abs(vals)), np.sort(np.abs(d)), atol=1e-8
        )


def test_normal_eigen_rejects_nonnormal():
    with pytest.raises(NotNormalError):
        normal_eigen(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_predicates(rng):
    h = rand_hermitian(rng, 3)
    assert is_self_adjoint(h)
    assert is_normal(h)
    assert not is_self_adjoint(h + 1j * np.eye(3) * 0.1)
    u = random_unitary(4, rng)
    assert is_normal(u) and is_unitary(u)


def test_random_unitary_deterministic():
    a = random_unitary(3, np.random.default_rng(5))
    b = random_unitary(3, np.random.default_rng(5))
    assert np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=5))
def test_operator_norm_submultiplicative(seed, n):
    rng = np.random.default_rng(seed)
    a = random_complex_matrix(n, rng)
    b = random_complex_matrix(n, rng)
    assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-9
