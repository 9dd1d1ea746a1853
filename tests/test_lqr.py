"""Backward pass against hand computations and the dense QP oracle."""

import numpy as np
import pytest
from helpers import simulate_feedback, value_recursion_direct
from hypothesis import given, settings
from hypothesis import strategies as st

from roilqr.lqr import (BackwardPassError, CostModel, GainSchedule,
                        IndefiniteHessianError, Regularizer, ReducedCostTerms,
                        _cho_solve, backward_pass, lqr_solve_dense,
                        quad_objective, reduce_cost, stack_quadratic)
from roilqr.pde import Trajectory
from roilqr.pod import method_of_snapshots
from roilqr.sysid import LtvModel


def _random_ltv(rng, dim, n_u, horizon, radius=0.9):
    a = rng.standard_normal((horizon, dim, dim))
    for t in range(horizon):
        a[t] *= radius / max(np.abs(np.linalg.eigvals(a[t])))
    b = rng.standard_normal((horizon, dim, n_u))
    return LtvModel(A=a, B=b)


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
    ltv = _random_ltv(rng, 3, 2, 4)
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
    ltv = _random_ltv(rng, dim, n_u, horizon)
    terms = _random_terms(rng, dim, n_u, horizon)
    gains = backward_pass(ltv, terms, Regularizer(mu=0.0, mu_min=0.0))
    du_bp = simulate_feedback(ltv, gains, alpha=1.0)
    du_dense = lqr_solve_dense(ltv, terms)
    assert np.max(np.abs(du_bp - du_dense)) <= 1e-8
    # feedback law attains the dense-oracle optimal cost
    assert quad_objective(ltv, terms, du_bp)[0] == pytest.approx(
        quad_objective(ltv, terms, du_dense)[0], abs=1e-8)


def _state_weight(rng, dim, form):
    # a symmetric PSD state Hessian in each of the forms the terms take
    if form == "scalar":
        return rng.uniform(0.0, 3.0) * np.eye(dim)
    if form == "diagonal":
        return np.diag(rng.uniform(0.0, 3.0, dim))
    m = rng.standard_normal((dim, dim))
    return m @ m.T + 0.1 * np.eye(dim)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(horizon=st.integers(1, 6), dim=st.integers(1, 6),
       n_u=st.integers(1, 4),
       form=st.sampled_from(["scalar", "diagonal", "dense"]),
       seed=st.integers(0, 2**32 - 1))
def test_backward_pass_matches_dense_oracle_property(horizon, dim, n_u,
                                                     form, seed):
    rng = np.random.default_rng(seed)
    ltv = _random_ltv(rng, dim, n_u, horizon)
    m = rng.standard_normal((n_u, n_u))
    terms = ReducedCostTerms(
        lin_state=rng.standard_normal((horizon + 1, dim)),
        quad_state=_state_weight(rng, dim, form),
        quad_terminal=_state_weight(rng, dim, form),
        lin_control=rng.standard_normal((horizon, n_u)),
        r=0.2 * m @ m.T + 0.5 * np.eye(n_u),
    )
    gains = backward_pass(ltv, terms, Regularizer(mu=0.0, mu_min=0.0))
    du_bp = simulate_feedback(ltv, gains, alpha=1.0)
    du_dense = lqr_solve_dense(ltv, terms)
    assert np.max(np.abs(du_bp - du_dense)) <= 1e-8


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
    ltv = _random_ltv(rng, 3, 2, 4)
    ltv.B[:] = 1e200
    terms = _random_terms(rng, 3, 2, 4)
    with pytest.raises(BackwardPassError,
                       match="control Hessian not finite at timestep 3"):
        backward_pass(ltv, terms, Regularizer())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_gradient_is_a_backward_pass_error():
    # a finite control Hessian with an infinite gradient gives infinite gains
    rng = np.random.default_rng(22)
    ltv = _random_ltv(rng, 3, 2, 4)
    terms = _random_terms(rng, 3, 2, 4)
    terms.lin_control[2] = np.inf
    with pytest.raises(BackwardPassError,
                       match="gains not finite at timestep 2"):
        backward_pass(ltv, terms, Regularizer())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("field", ["B", "lin_control"])
def test_dense_oracle_rejects_non_finite_input(field):
    rng = np.random.default_rng(23)
    ltv = _random_ltv(rng, 3, 2, 4)
    terms = _random_terms(rng, 3, 2, 4)
    if field == "B":
        ltv.B[:] = 1e200
    else:
        terms.lin_control[1, 0] = np.nan
    with pytest.raises(ValueError):
        lqr_solve_dense(ltv, terms)


def test_value_recursion_equivalence():
    # Q-function sweep equals the direct closed-form recursion
    rng = np.random.default_rng(42)
    for _ in range(5):
        ltv = _random_ltv(rng, 3, 2, 5)
        terms = _random_terms(rng, 3, 2, 5)
        gains = backward_pass(ltv, terms, Regularizer(mu=0.0, mu_min=0.0))
        v_ref, big_v_ref = value_recursion_direct(ltv, terms)
        np.testing.assert_allclose(gains.v, v_ref, atol=1e-9)
        np.testing.assert_allclose(gains.V, big_v_ref, atol=1e-9)


def test_value_hessian_symmetric_psd():
    rng = np.random.default_rng(7)
    ltv = _random_ltv(rng, 4, 2, 6)
    terms = _random_terms(rng, 4, 2, 6)
    gains = backward_pass(ltv, terms, Regularizer(mu=0.0, mu_min=0.0))
    for vt in gains.V:
        np.testing.assert_allclose(vt, vt.T, atol=1e-10)
        assert np.min(np.linalg.eigvalsh(vt)) >= -1e-9


def test_expected_improvement_nonnegative():
    rng = np.random.default_rng(8)
    ltv = _random_ltv(rng, 3, 2, 5)
    terms = _random_terms(rng, 3, 2, 5)
    gains = backward_pass(ltv, terms, Regularizer())
    for alpha in (1e-3, 0.1, 0.5, 1.0):
        assert gains.expected_improvement(alpha) >= 0.0


def test_expected_improvement_predicts_quadratic_decrease():
    rng = np.random.default_rng(9)
    ltv = _random_ltv(rng, 3, 2, 5)
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
    np.testing.assert_allclose(red.quad_state, full.quad_state, atol=1e-12)
    ltv = _random_ltv(rng, 6, 2, 4)
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
        # the diagonal matrix built from the broadcast weight vector
        ref = np.diag(np.broadcast_to(np.atleast_1d(w), (n,)).astype(float))
        np.testing.assert_array_equal(got.view(np.uint64),
                                      ref.view(np.uint64))


def test_dense_oracle_zero_linear_term():
    rng = np.random.default_rng(13)
    ltv = _random_ltv(rng, 3, 2, 4)
    terms = _random_terms(rng, 3, 2, 4)
    terms.lin_state[:] = 0.0
    terms.lin_control[:] = 0.0
    np.testing.assert_allclose(lqr_solve_dense(ltv, terms), 0.0, atol=1e-12)


def test_dense_oracle_scale_limit():
    rng = np.random.default_rng(14)
    ltv = _random_ltv(rng, 2, 2, 5)
    terms = _random_terms(rng, 2, 2, 5)
    with pytest.raises(ValueError, match="oracle"):
        lqr_solve_dense(ltv, terms, max_size=4)


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
    ltv = _random_ltv(rng, 2, 1, 3)
    terms = _random_terms(rng, 2, 1, 3)
    terms.quad_terminal = -50.0 * np.eye(2)
    reg = Regularizer(mu=1e-6)
    gains = backward_pass(ltv, terms, reg)
    assert reg.mu > 1e-6
    assert np.all(np.isfinite(gains.k))


def test_regularizer_ceiling_raises():
    rng = np.random.default_rng(16)
    ltv = _random_ltv(rng, 2, 1, 3)
    terms = _random_terms(rng, 2, 1, 3)
    terms.quad_terminal = -50.0 * np.eye(2)
    terms.r = -1e3 * np.eye(1)  # unsalvageable control curvature
    with pytest.raises(BackwardPassError):
        backward_pass(ltv, terms, Regularizer(mu=1.0, mu_max=10.0))


def test_regularizer_bounds_validation():
    with pytest.raises(ValueError):
        Regularizer(mu=1e-3, mu_min=1e-2)


def test_stack_quadratic_matches_recursion():
    rng = np.random.default_rng(17)
    ltv = _random_ltv(rng, 3, 2, 4)
    terms = _random_terms(rng, 3, 2, 4)
    h, g = stack_quadratic(ltv, terms)
    for _ in range(5):
        du = rng.standard_normal((4, 2))
        flat = du.ravel()
        direct = 0.5 * flat @ h @ flat + g @ flat
        assert quad_objective(ltv, terms, du)[0] == pytest.approx(direct,
                                                                  rel=1e-10)


def test_gain_schedule_dataclass_roundtrip():
    g = GainSchedule(k=np.zeros((2, 1)), K=np.zeros((2, 1, 3)),
                     v=np.zeros((3, 3)), V=np.zeros((3, 3, 3)),
                     sum_k_qu=2.0, sum_k_quu_k=2.0)
    assert g.expected_improvement(1.0) == pytest.approx(1.0)
    assert g.expected_improvement(0.0) == 0.0
