"""Basis construction against a dense-SVD oracle plus projector algebra."""

import numpy as np
import pytest

from roilqr.pod import (DegenerateSnapshotsError, method_of_snapshots, lift,
                        project, projection_residual)


def _align_signs(a, b):
    """Flip columns of b to match the signs of a (bases are sign-ambiguous)."""
    signs = np.sign(np.sum(a * b, axis=0))
    signs[signs == 0] = 1.0
    return b * signs


def test_rank_one():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(30)
    v = rng.standard_normal(6)
    basis = method_of_snapshots(np.outer(u, v), energy_cutoff=0.99999)
    assert basis.n_modes == 1
    direction = u / np.linalg.norm(u)
    aligned = _align_signs(direction[:, None], basis.phi)
    np.testing.assert_allclose(aligned[:, 0], direction, atol=1e-12)
    assert basis.captured_energy == pytest.approx(1.0)


def test_matches_dense_svd():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((50, 10))
    basis = method_of_snapshots(x, energy_cutoff=1.0)
    u_svd, s_svd, _ = np.linalg.svd(x, full_matrices=False)
    aligned = _align_signs(u_svd[:, : basis.n_modes], basis.phi)
    np.testing.assert_allclose(aligned, u_svd[:, : basis.n_modes], atol=1e-8)
    np.testing.assert_allclose(basis.eigenvalues, s_svd**2, rtol=1e-10)


def test_orthonormality():
    rng = np.random.default_rng(2)
    basis = method_of_snapshots(rng.standard_normal((40, 12)),
                                energy_cutoff=0.999)
    gram = basis.phi.T @ basis.phi
    np.testing.assert_allclose(gram, np.eye(basis.n_modes), atol=1e-10)


def test_project_lift_identities():
    rng = np.random.default_rng(3)
    basis = method_of_snapshots(rng.standard_normal((30, 8)),
                                energy_cutoff=0.99)
    # in-span round trip
    x_in = basis.phi @ rng.standard_normal(basis.n_modes)
    np.testing.assert_allclose(lift(basis, project(basis, x_in)), x_in,
                               atol=1e-10)
    # orthogonal complement projects to zero
    x = rng.standard_normal(30)
    x_perp = x - basis.phi @ (basis.phi.T @ x)
    np.testing.assert_allclose(project(basis, x_perp), 0.0, atol=1e-10)
    # coords round trip and unit-vector lift
    coords = rng.standard_normal(basis.n_modes)
    np.testing.assert_allclose(project(basis, lift(basis, coords)), coords,
                               atol=1e-12)
    e0 = np.zeros(basis.n_modes)
    e0[0] = 1.0
    np.testing.assert_allclose(lift(basis, e0), basis.phi[:, 0], atol=1e-15)
    np.testing.assert_allclose(lift(basis, np.zeros(basis.n_modes)), 0.0)


def test_projection_is_least_squares_optimal():
    rng = np.random.default_rng(4)
    basis = method_of_snapshots(rng.standard_normal((25, 7)),
                                energy_cutoff=0.95)
    x = rng.standard_normal(25)
    best = np.linalg.norm(x - lift(basis, project(basis, x)))
    for _ in range(100):
        z = rng.standard_normal(basis.n_modes)
        assert best <= np.linalg.norm(x - basis.phi @ z) + 1e-12


def test_residual_bounded_by_discarded_energy():
    rng = np.random.default_rng(5)
    # smooth low-rank-ish trajectory
    t = np.linspace(0, 1, 12)
    x = np.linspace(0, 1, 60)
    snaps = np.array([np.sin(np.pi * x * (1 + tt)) * np.exp(-tt)
                      for tt in t]).T
    snaps += 1e-4 * rng.standard_normal(snaps.shape)
    basis = method_of_snapshots(snaps, energy_cutoff=0.99999)
    eps = projection_residual(basis, snaps.T)
    tail = np.sum(basis.eigenvalues[basis.n_modes:])
    assert eps**2 <= tail + 1e-12


def test_frobenius_energy_identity():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((45, 9))
    basis = method_of_snapshots(x, energy_cutoff=0.9)
    resid = np.linalg.norm(x - basis.phi @ (basis.phi.T @ x), "fro") ** 2
    tail = np.sum(basis.eigenvalues[basis.n_modes:])
    assert abs(resid - tail) <= 1e-8 * np.sum(basis.eigenvalues)


def test_cutoff_monotonicity():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((40, 10))
    counts = [method_of_snapshots(x, energy_cutoff=c).n_modes
              for c in (0.5, 0.9, 0.99, 0.9999, 1.0)]
    assert counts == sorted(counts)


def test_column_permutation_invariance():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((30, 8))
    basis = method_of_snapshots(x, energy_cutoff=0.99)
    perm = rng.permutation(8)
    basis_p = method_of_snapshots(x[:, perm], energy_cutoff=0.99)
    assert basis_p.n_modes == basis.n_modes
    aligned = _align_signs(basis.phi, basis_p.phi)
    np.testing.assert_allclose(aligned, basis.phi, atol=1e-8)


def test_degenerate_snapshots():
    with pytest.raises(DegenerateSnapshotsError):
        method_of_snapshots(np.zeros((20, 5)))


def test_tall_matrix_and_cutoff_validation():
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError):
        method_of_snapshots(rng.standard_normal((5, 9)))
    with pytest.raises(ValueError):
        method_of_snapshots(rng.standard_normal((9, 5)), energy_cutoff=0.0)


def test_sign_convention_deterministic():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((30, 6))
    basis = method_of_snapshots(x)
    for col in basis.phi.T:
        assert col[np.argmax(np.abs(col))] > 0
