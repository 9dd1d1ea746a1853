"""Backward pass against hand computations and the dense QP oracle."""

import tracemalloc

import numpy as np
import pytest
from helpers import (LQ_CASE, dense_weight, gains_match, lq_case,
                     lqr_solve_dense, quad_objective, random_ltv,
                     riccati_backward_pass, simulate_feedback,
                     value_hessians, value_recursion_direct)
from hypothesis import given, settings
from hypothesis import strategies as st

from roilqr.lqr import (BackwardPassError, CostModel, GainSchedule,
                        IndefiniteHessianError, Regularizer, ReducedCostTerms,
                        _cho_solve, backward_pass, reduce_cost,
                        stack_quadratic)
from roilqr.pde import Trajectory
from roilqr.pod import method_of_snapshots
from roilqr.sysid import LtvModel


def _random_terms(rng, dim, n_u, horizon, q_scale=1.0):
    m = rng.standard_normal((dim, dim))
    quad = q_scale * (m @ m.T) + 0.1 * np.eye(dim)
    mt = rng.standard_normal((dim, dim))
    quad_t = q_scale * (mt @ mt.T) + 0.1 * np.eye(dim)
    r = np.eye(n_u) * 0.5
    return ReducedCostTerms(
        lin_state=rng.standard_normal((horizon + 1, dim)),
        quad_state=quad, quad_terminal=quad_t,
        lin_control=rng.standard_normal((horizon, n_u)), r=r,
    )


def test_scalar_hand_riccati():
    # A=1, B=1, Q=1, R=1, Q_T=1, zero nominal: K_0 = 0.5, k_0 = 0
    ltv = LtvModel(A=np.ones((1, 1, 1)), B=np.ones((1, 1, 1)))
    terms = ReducedCostTerms(
        lin_state=np.zeros((2, 1)), quad_state=np.eye(1),
        quad_terminal=np.eye(1), lin_control=np.zeros((1, 1)), r=np.eye(1),
    )
    gains = backward_pass(ltv, terms, Regularizer(mu=0.0, mu_min=0.0))
    assert gains.k[0] == pytest.approx(0.0, abs=1e-14)
    assert gains.K[0, 0, 0] == pytest.approx(0.5, abs=1e-14)
    du = lqr_solve_dense(ltv, terms)
    assert du[0, 0] == pytest.approx(0.0, abs=1e-14)


def test_zero_cost_zero_gains():
    rng = np.random.default_rng(0)
    ltv = random_ltv(rng, 3, 2, 4)
    terms = ReducedCostTerms(
        lin_state=np.zeros((5, 3)), quad_state=np.zeros((3, 3)),
        quad_terminal=np.zeros((3, 3)), lin_control=np.zeros((4, 2)),
        r=np.eye(2),
    )
    gains = backward_pass(ltv, terms, Regularizer(mu=0.0, mu_min=0.0))
    np.testing.assert_allclose(gains.k, 0.0, atol=1e-14)
    np.testing.assert_allclose(gains.K, 0.0, atol=1e-14)


@pytest.mark.parametrize("seed", range(10))
def test_backward_pass_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    dim, n_u, horizon = 2 + seed % 3, 1 + seed % 2, 3 + seed % 4
    ltv = random_ltv(rng, dim, n_u, horizon)
    terms = _random_terms(rng, dim, n_u, horizon)
    gains = backward_pass(ltv, terms, Regularizer(mu=0.0, mu_min=0.0))
    du_bp = simulate_feedback(ltv, gains, alpha=1.0)
    du_dense = lqr_solve_dense(ltv, terms)
    assert np.max(np.abs(du_bp - du_dense)) <= 1e-8
    # feedback law attains the dense-oracle optimal cost
    assert quad_objective(ltv, terms, du_bp)[0] == pytest.approx(
        quad_objective(ltv, terms, du_dense)[0], abs=1e-8)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(horizon=st.integers(1, 6), dim=st.integers(1, 6),
       n_u=st.integers(1, 4),
       form=st.sampled_from(["scalar", "diagonal", "dense"]),
       seed=st.integers(0, 2**32 - 1))
def test_backward_pass_matches_dense_oracle_property(horizon, dim, n_u,
                                                     form, seed):
    ltv, terms = lq_case(horizon, dim, n_u, form, seed)
    gains = backward_pass(ltv, terms, Regularizer(mu=0.0, mu_min=0.0))
    du_bp = simulate_feedback(ltv, gains, alpha=1.0)
    du_dense = lqr_solve_dense(ltv, terms)
    assert np.max(np.abs(du_bp - du_dense)) <= 1e-8


@settings(max_examples=120, deadline=None, derandomize=True)
@given(mu=st.sampled_from([0.0, 1e-6, 1e-2, 1.0]), **LQ_CASE)
def test_backward_pass_matches_riccati_reference_when_damped(
        mu, horizon, dim, n_u, form, seed):
    # damping enters as mu B^T B and mu B^T A, never through a value
    # Hessian; the reference damps V_{t+1} itself
    ltv, terms = lq_case(horizon, dim, n_u, form, seed)
    reg, reg_ref = (Regularizer(mu=mu, mu_min=0.0) for _ in range(2))
    gains = backward_pass(ltv, terms, reg)
    ref, _ = riccati_backward_pass(ltv, terms, reg_ref)
    assert gains_match(gains, ref)
    assert reg.mu == reg_ref.mu


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(1, 8), cols=st.integers(1, 20),
       seed=st.integers(0, 2**32 - 1))
def test_cholesky_substitution_matches_dense_solve(n, cols, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    spd = m @ m.T + n * np.eye(n)
    rhs = rng.standard_normal((n, cols))
    chol = np.linalg.cholesky(spd)
    ref = np.linalg.solve(spd, rhs)
    before = (chol.copy(), rhs.copy())
    np.testing.assert_allclose(_cho_solve(chol, rhs), ref, rtol=1e-10,
                               atol=1e-12)
    # the solve works on a copy: factor and right-hand side are untouched
    np.testing.assert_array_equal(chol, before[0])
    np.testing.assert_array_equal(rhs, before[1])
    # a vector right-hand side is the one-column case
    np.testing.assert_allclose(_cho_solve(chol, rhs[:, 0]), ref[:, 0],
                               rtol=1e-10, atol=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_control_hessian_is_a_backward_pass_error():
    # B^T V B overflows; damping cannot make it finite again
    rng = np.random.default_rng(21)
    ltv = random_ltv(rng, 3, 2, 4)
    ltv.B[:] = 1e200
    terms = _random_terms(rng, 3, 2, 4)
    with pytest.raises(BackwardPassError,
                       match="control Hessian not finite at timestep 3"):
        backward_pass(ltv, terms, Regularizer())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_gradient_is_a_backward_pass_error():
    # a finite control Hessian with an infinite gradient gives infinite gains
    rng = np.random.default_rng(22)
    ltv = random_ltv(rng, 3, 2, 4)
    terms = _random_terms(rng, 3, 2, 4)
    terms.lin_control[2] = np.inf
    with pytest.raises(BackwardPassError,
                       match="gains not finite at timestep 2"):
        backward_pass(ltv, terms, Regularizer())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("field", ["B", "lin_control"])
def test_dense_oracle_rejects_non_finite_input(field):
    rng = np.random.default_rng(23)
    ltv = random_ltv(rng, 3, 2, 4)
    terms = _random_terms(rng, 3, 2, 4)
    if field == "B":
        ltv.B[:] = 1e200
    else:
        terms.lin_control[1, 0] = np.nan
    with pytest.raises(ValueError):
        lqr_solve_dense(ltv, terms)


def test_value_recursion_equivalence():
    # Q-function sweeps equal the direct closed-form recursion
    rng = np.random.default_rng(42)
    for _ in range(5):
        ltv = random_ltv(rng, 3, 2, 5)
        terms = _random_terms(rng, 3, 2, 5)
        gains = backward_pass(ltv, terms, Regularizer(mu=0.0, mu_min=0.0))
        k_ref, big_k_ref, v_ref, big_v_ref = value_recursion_direct(
            ltv, terms)
        np.testing.assert_allclose(gains.k, k_ref, atol=1e-9)
        np.testing.assert_allclose(gains.K, big_k_ref, atol=1e-9)
        np.testing.assert_allclose(gains.v, v_ref, atol=1e-9)
        np.testing.assert_allclose(
            value_hessians(ltv, terms, mu=0.0, mu_min=0.0), big_v_ref,
            atol=1e-9)


def test_value_hessian_symmetric_psd():
    rng = np.random.default_rng(7)
    ltv = random_ltv(rng, 4, 2, 6)
    terms = _random_terms(rng, 4, 2, 6)
    for vt in value_hessians(ltv, terms, mu=0.0, mu_min=0.0):
        np.testing.assert_allclose(vt, vt.T, atol=1e-10)
        assert np.min(np.linalg.eigvalsh(vt)) >= -1e-9


def test_expected_improvement_nonnegative():
    rng = np.random.default_rng(8)
    ltv = random_ltv(rng, 3, 2, 5)
    terms = _random_terms(rng, 3, 2, 5)
    gains = backward_pass(ltv, terms, Regularizer())
    for alpha in (1e-3, 0.1, 0.5, 1.0):
        assert gains.expected_improvement(alpha) >= 0.0


def test_expected_improvement_predicts_quadratic_decrease():
    rng = np.random.default_rng(9)
    ltv = random_ltv(rng, 3, 2, 5)
    terms = _random_terms(rng, 3, 2, 5)
    gains = backward_pass(ltv, terms, Regularizer(mu=0.0, mu_min=0.0))
    base, _ = quad_objective(ltv, terms, np.zeros((5, 2)))
    for alpha in (0.25, 0.5, 1.0):
        du = simulate_feedback(ltv, gains, alpha=alpha)
        drop = base - quad_objective(ltv, terms, du)[0]
        assert drop == pytest.approx(gains.expected_improvement(alpha),
                                     rel=1e-9, abs=1e-10)


def test_identity_basis_reproduces_full_order():
    from roilqr.pod import ReducedBasis

    rng = np.random.default_rng(10)
    states = rng.standard_normal((5, 6))
    controls = rng.standard_normal((4, 2))
    traj = Trajectory(states=states, controls=controls)
    cost = CostModel(q=0.7, r=np.eye(2), q_terminal=2.0,
                     goal=rng.standard_normal(6))
    full = reduce_cost(cost, traj, None)
    eye_basis = ReducedBasis(phi=np.eye(6), eigenvalues=np.ones(6),
                             captured_energy=1.0)
    red = reduce_cost(cost, traj, eye_basis)
    np.testing.assert_allclose(red.lin_state, full.lin_state, atol=1e-12)
    np.testing.assert_allclose(red.quad_state,
                               dense_weight(full.quad_state, 6), atol=1e-12)
    ltv = random_ltv(rng, 6, 2, 4)
    g_full = backward_pass(ltv, full, Regularizer(mu=0.0, mu_min=0.0))
    g_red = backward_pass(ltv, red, Regularizer(mu=0.0, mu_min=0.0))
    np.testing.assert_array_equal(g_red.k, g_full.k)
    np.testing.assert_array_equal(g_red.K, g_full.K)


def test_reduce_cost_zero_state_weight():
    rng = np.random.default_rng(11)
    traj = Trajectory(states=rng.standard_normal((4, 5)),
                      controls=rng.standard_normal((3, 2)))
    cost = CostModel(q=0.0, r=np.eye(2), q_terminal=0.0, goal=np.zeros(5))
    basis = method_of_snapshots(rng.standard_normal((5, 4)))
    terms = reduce_cost(cost, traj, basis)
    np.testing.assert_allclose(terms.lin_state, 0.0)
    np.testing.assert_allclose(terms.quad_state, 0.0)


def test_projected_weight_symmetric_psd():
    rng = np.random.default_rng(12)
    traj = Trajectory(states=rng.standard_normal((4, 8)),
                      controls=rng.standard_normal((3, 2)))
    cost = CostModel(q=1.3, r=np.eye(2), q_terminal=2.0, goal=np.zeros(8))
    basis = method_of_snapshots(rng.standard_normal((8, 4)))
    terms = reduce_cost(cost, traj, basis)
    for quad in (terms.quad_state, terms.quad_terminal):
        np.testing.assert_allclose(quad, quad.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(quad)) >= -1e-10


@pytest.mark.parametrize("weights", [
    {"q": np.full(3, 0.5)}, {"q": 0.5 * np.eye(3)},
    {"q_terminal": np.full(3, 2.0)}, {"q_terminal": 2.0 * np.eye(3)},
    {"q": -1e-3}, {"q_terminal": -2.0}, {"q": np.nan}, {"q_terminal": np.nan},
    {"q": np.inf}, {"r": 1.0}, {"r": np.ones(2)},
], ids=["q_1d", "q_2d", "qt_1d", "qt_2d", "q_negative", "qt_negative",
        "q_nan", "qt_nan", "q_inf", "r_scalar", "r_1d"])
def test_cost_model_takes_one_form_per_weight(weights):
    # scalar q and q_terminal, an (n_u, n_u) matrix R; nothing else
    args = dict(q=0.5, r=np.eye(2), q_terminal=2.0, goal=np.zeros(3))
    CostModel(**args)
    with pytest.raises(ValueError):
        CostModel(**{**args, **weights})


def _state_grads_reference(cost, states):
    # one row at a time: w (x_t - g), the terminal weight on the last row
    horizon = states.shape[0] - 1
    return np.array([
        (cost.q_terminal if t == horizon else cost.q) * (states[t] - cost.goal)
        for t in range(horizon + 1)])


@pytest.mark.parametrize("q,q_terminal", [(0.0, 1.0), (0.02, 2.0),
                                          (0.37, 0.0), (1e300, 3e-300)])
def test_state_grads_match_per_row_form_bit_for_bit(q, q_terminal):
    rng = np.random.default_rng(18)
    states = rng.standard_normal((7, 9)) \
        * 10.0 ** rng.integers(-8, 8, (7, 9))
    cost = CostModel(q=q, r=np.eye(2), q_terminal=q_terminal,
                     goal=rng.standard_normal(9))
    got = cost.state_grads(states)
    ref = _state_grads_reference(cost, states)
    np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("q,q_terminal", [(0.0, 1.0), (0.02, 2.0),
                                          (1e300, 3e-300)])
def test_full_order_quad_state_matches_diagonal_form_bit_for_bit(
        q, q_terminal):
    rng = np.random.default_rng(19)
    n = 6
    traj = Trajectory(states=rng.standard_normal((4, n)),
                      controls=rng.standard_normal((3, 2)))
    cost = CostModel(q=q, r=np.eye(2), q_terminal=q_terminal,
                     goal=np.zeros(n))
    terms = reduce_cost(cost, traj, None)
    for w, got in ((q, terms.quad_state), (q_terminal, terms.quad_terminal)):
        # a scalar weight, whose matrix is the diagonal matrix built from
        # the broadcast weight vector
        assert np.ndim(got) == 0 and got == w
        ref = np.diag(np.broadcast_to(np.atleast_1d(w), (n,)).astype(float))
        np.testing.assert_array_equal(dense_weight(got, n).view(np.uint64),
                                      ref.view(np.uint64))


def _bits(a):
    return np.asarray(a).view(np.uint64)


@pytest.mark.parametrize("seed", range(4))
def test_scalar_full_order_weights_match_dense_identity_weights(seed):
    # full-order terms keep q and q_T as scalars; every reader must treat
    # them as q I and q_T I, never as q 1 1^T
    rng = np.random.default_rng(40 + seed)
    n, n_u, horizon = 7, 2, 5
    traj = Trajectory(states=rng.standard_normal((horizon + 1, n)),
                      controls=rng.standard_normal((horizon, n_u)))
    cost = CostModel(q=rng.uniform(0.1, 2.0), r=np.eye(n_u),
                     q_terminal=rng.uniform(1.0, 5.0),
                     goal=rng.standard_normal(n))
    scalar = reduce_cost(cost, traj, None)
    dense = ReducedCostTerms(
        lin_state=scalar.lin_state, quad_state=cost.q * np.eye(n),
        quad_terminal=cost.q_terminal * np.eye(n),
        lin_control=scalar.lin_control, r=scalar.r)
    ltv = random_ltv(rng, n, n_u, horizon)
    for mu in (0.0, 1e-2):
        got = backward_pass(ltv, scalar, Regularizer(mu=mu, mu_min=0.0))
        ref = backward_pass(ltv, dense, Regularizer(mu=mu, mu_min=0.0))
        for f in ("k", "K", "v"):
            np.testing.assert_array_equal(_bits(getattr(got, f)),
                                          _bits(getattr(ref, f)))
        assert (got.sum_k_qu, got.sum_k_quu_k) == \
            (ref.sum_k_qu, ref.sum_k_quu_k)
        sweep, _ = riccati_backward_pass(ltv, scalar,
                                         Regularizer(mu=mu, mu_min=0.0))
        assert gains_match(got, sweep)
    direct = value_recursion_direct(ltv, scalar)
    for a, b in zip(direct, value_recursion_direct(ltv, dense), strict=True):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
    for a, b in zip(stack_quadratic(ltv, scalar), stack_quadratic(ltv, dense),
                    strict=True):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(lqr_solve_dense(ltv, scalar),
                               lqr_solve_dense(ltv, dense), rtol=1e-10)
    du = rng.standard_normal((horizon, n_u))
    (val, devs), (val_ref, devs_ref) = (quad_objective(ltv, t, du)
                                        for t in (scalar, dense))
    assert val == pytest.approx(val_ref, rel=1e-12)
    np.testing.assert_array_equal(devs, devs_ref)


def test_full_order_cost_terms_allocate_no_square_array():
    # q and q_T stay scalars: the full-order expansion allocates the
    # (T+1, d) gradients and the (T, n_u) control terms, nothing (d, d)
    rng = np.random.default_rng(42)
    n, horizon = 400, 10
    traj = Trajectory(states=rng.standard_normal((horizon + 1, n)),
                      controls=rng.standard_normal((horizon, 4)))
    cost = CostModel(q=0.5, r=np.eye(4), q_terminal=2.0,
                     goal=rng.standard_normal(n))
    tracemalloc.start()
    try:
        terms = reduce_cost(cost, traj, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert terms.dim == n
    assert peak < n * n * 8 // 4


def test_dense_oracle_zero_linear_term():
    rng = np.random.default_rng(13)
    ltv = random_ltv(rng, 3, 2, 4)
    terms = _random_terms(rng, 3, 2, 4)
    terms.lin_state[:] = 0.0
    terms.lin_control[:] = 0.0
    np.testing.assert_allclose(lqr_solve_dense(ltv, terms), 0.0, atol=1e-12)


def test_dense_oracle_scale_limit():
    # 126 timesteps of 4 controls stack to 504 > 500; the limit is checked
    # before anything is stacked
    rng = np.random.default_rng(14)
    ltv = random_ltv(rng, 2, 4, 126)
    terms = _random_terms(rng, 2, 4, 126)
    with pytest.raises(ValueError, match="stacked size 504 exceeds oracle"):
        lqr_solve_dense(ltv, terms)


def test_dense_oracle_indefinite_error():
    ltv = LtvModel(A=np.zeros((1, 1, 1)), B=np.ones((1, 1, 1)))
    terms = ReducedCostTerms(
        lin_state=np.zeros((2, 1)), quad_state=np.zeros((1, 1)),
        quad_terminal=-np.eye(1), lin_control=np.zeros((1, 1)),
        r=1e-3 * np.eye(1),
    )
    with pytest.raises(IndefiniteHessianError):
        lqr_solve_dense(ltv, terms)


def test_regularizer_recovers_from_indefinite_value():
    # negative state curvature forces damping of the control Hessian
    rng = np.random.default_rng(15)
    ltv = random_ltv(rng, 2, 1, 3)
    terms = _random_terms(rng, 2, 1, 3)
    terms.quad_terminal = -50.0 * np.eye(2)
    reg, reg_ref = Regularizer(mu=1e-6), Regularizer(mu=1e-6)
    gains = backward_pass(ltv, terms, reg)
    assert reg.mu > 1e-6
    assert np.all(np.isfinite(gains.k))
    # the bumped sweep matches the reference's, bump for bump
    ref, _ = riccati_backward_pass(ltv, terms, reg_ref)
    assert gains_match(gains, ref)
    assert reg.mu == reg_ref.mu


def test_regularizer_ceiling_raises():
    rng = np.random.default_rng(16)
    ltv = random_ltv(rng, 2, 1, 3)
    terms = _random_terms(rng, 2, 1, 3)
    terms.quad_terminal = -50.0 * np.eye(2)
    terms.r = -1e3 * np.eye(1)  # unsalvageable control curvature
    with pytest.raises(BackwardPassError):
        backward_pass(ltv, terms, Regularizer(mu=1.0, mu_max=10.0))


def test_regularizer_bounds_validation():
    with pytest.raises(ValueError):
        Regularizer(mu=1e-3, mu_min=1e-2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**LQ_CASE)
def test_stack_quadratic_matches_recursion(horizon, dim, n_u, form, seed):
    # the stacked form's value and deviations against the rollout oracle
    ltv, terms = lq_case(horizon, dim, n_u, form, seed)
    h, g, f_maps = stack_quadratic(ltv, terms)
    assert f_maps.shape == (horizon + 1, dim, horizon * n_u)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        du = rng.standard_normal((horizon, n_u))
        flat = du.ravel()
        val, devs = quad_objective(ltv, terms, du)
        assert 0.5 * flat @ h @ flat + g @ flat == pytest.approx(val,
                                                                 rel=1e-10)
        scale = np.linalg.norm(devs)
        for f_t, z_t in zip(f_maps, devs, strict=True):
            assert np.linalg.norm(f_t @ flat - z_t) <= 1e-12 * scale
        # the model's own maps, each as wide as the controls before it
        for t, (f_t, z_t) in enumerate(zip(ltv.sensitivity_maps(), devs,
                                           strict=True)):
            assert f_t.shape == (dim, t * n_u)
            assert np.linalg.norm(f_t @ flat[:t * n_u] - z_t) <= 1e-12 * scale
    # the A products are the plain products, bit for bit
    for t in range(horizon):
        v, x = rng.standard_normal(dim), rng.standard_normal((dim, n_u))
        for got, ref in ((ltv.a_transpose_times(t, v), ltv.A[t].T @ v),
                         (ltv.a_transpose_times(t, x), ltv.A[t].T @ x),
                         (ltv.transpose_times_a(t, x), x.T @ ltv.A[t])):
            np.testing.assert_array_equal(_bits(got), _bits(ref))


class _ModelWithoutA:
    """An LTV model that offers only what its readers may read: B, the
    dims, the sensitivity maps and the two A products of ``ltv``, and no
    A."""

    def __init__(self, ltv):
        self.B = ltv.B
        self.horizon, self.dim, self.n_u = ltv.horizon, ltv.dim, ltv.n_u
        self.sensitivity_maps = ltv.sensitivity_maps
        self.a_transpose_times = ltv.a_transpose_times
        self.transpose_times_a = ltv.transpose_times_a


@settings(max_examples=30, deadline=None, derandomize=True)
@given(mu=st.sampled_from([0.0, 1e-6, 1.0]), **LQ_CASE)
def test_readers_need_no_a(mu, horizon, dim, n_u, form, seed):
    # the backward pass and the stacked form give the same bits on a model
    # that keeps A to itself as on the LtvModel it wraps
    ltv, terms = lq_case(horizon, dim, n_u, form, seed)
    bare = _ModelWithoutA(ltv)
    assert not hasattr(bare, "A")
    got, ref = (backward_pass(m, terms, Regularizer(mu=mu, mu_min=0.0))
                for m in (bare, ltv))
    for f in ("k", "K", "v"):
        np.testing.assert_array_equal(_bits(getattr(got, f)),
                                      _bits(getattr(ref, f)))
    assert (got.sum_k_qu, got.sum_k_quu_k) == (ref.sum_k_qu, ref.sum_k_quu_k)
    for a, b in zip(stack_quadratic(bare, terms), stack_quadratic(ltv, terms),
                    strict=True):
        np.testing.assert_array_equal(_bits(a), _bits(b))


def test_gain_schedule_dataclass_roundtrip():
    g = GainSchedule(k=np.zeros((2, 1)), K=np.zeros((2, 1, 3)),
                     v=np.zeros((3, 3)),
                     sum_k_qu=2.0, sum_k_quu_k=2.0)
    assert g.expected_improvement(1.0) == pytest.approx(1.0)
    assert g.expected_improvement(0.0) == 0.0
