"""Empirical verification of the solution-quality bounds.

Around one nominal trajectory, the full-order and reduced-order
perturbed quadratic problems are built from identified LTV models and
the cost expansion.  The module measures every constant appearing in
the suboptimality analysis -- worst projection residual eps, the
cost-gradient bound cbar over the sampled perturbations, the stacked
Hessian's smallest eigenvalue -- and checks the resulting inequalities:

* objective gap: |dJ(dU) - dJ_red(dU)| <= cbar1 * eps for shared inputs,
  with cbar1 = 7 (T+1) cbar;
* minima gap: |dJ(dU*) - dJ_red(dU_red*)| <= cbar1 * eps;
* minimizer distance: ||dU* - dU_red*|| <= delta = sqrt(2 cbar1 eps / sigma).

Constants are measured over the same perturbation draws the checks are
evaluated on (plus the two minimizers), which makes each inequality a
falsification test: a violation indicates an implementation bug, not a
modeling judgement.  The limit-set trace re-derives the full-order
Newton step at every accepted iterate and flags membership of
{ ||H^-1 grad|| <= delta }.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .lqr import (_weight_matvec, lqr_solve_dense, quad_objective,
                  reduce_cost, stack_quadratic)
from .pde import Trajectory, rollout
from .pod import method_of_snapshots, projection_residual
from .sysid import PerturbationConfig, fit_ltv, generate_rollout_data

_SLACK = 1e-8  # absolute tolerance so exact-basis (eps ~ 0) cases pass
_SIGMA_FLOOR = 1e-10  # smallest stacked-Hessian eigenvalue deemed uniform


@dataclass
class LqrPair:
    """Full- and reduced-order perturbed quadratics around one nominal."""

    fo_ltv: object
    fo_terms: object
    ro_ltv: object
    ro_terms: object
    basis: object
    nominal: object
    cost: object

    @property
    def horizon(self):
        return self.nominal.horizon


def build_lqr_pair(model, cost, nominal, basis, perturb=None):
    """Identify both LTV models around the nominal and assemble the pair."""
    perturb = perturb or PerturbationConfig()
    fo_data = generate_rollout_data(model, nominal, basis=None, cfg=perturb)
    ro_data = generate_rollout_data(model, nominal, basis=basis, cfg=perturb)
    # the reduced objective's nominal is the projected trajectory, so its
    # cost gradients are taken at the reconstruction phi phi^T x_t
    projected = Trajectory(states=nominal.states @ basis.phi @ basis.phi.T,
                           controls=nominal.controls)
    return LqrPair(
        fo_ltv=fit_ltv(fo_data),
        fo_terms=reduce_cost(cost, nominal, None),
        ro_ltv=fit_ltv(ro_data),
        ro_terms=reduce_cost(cost, projected, basis),
        basis=basis,
        nominal=nominal,
        cost=cost,
    )


def _measure_constants(pair, du_list):
    """Measured eps / cbar / objective gaps over the given control draws.

    eps covers both residual clauses: the nominal projection residual and
    half the worst sampled deviation mismatch ||dx_t - phi dz_t||.  cbar
    is the max norm of every weighted state vector entering the gap
    bound (nominal gradients and weighted deviations, terminal included).
    """
    cost, basis, nominal = pair.cost, pair.basis, pair.nominal
    horizon = pair.horizon
    eps_nominal = projection_residual(basis, nominal)
    cbar = 0.0
    for t in range(horizon + 1):
        g = cost.state_grad(nominal.states[t], terminal=(t == horizon))
        cbar = max(cbar, float(np.linalg.norm(g)))
    eps_linear = 0.0
    gaps = []
    for du in du_list:
        val_fo, dx = quad_objective(pair.fo_ltv, pair.fo_terms, du)
        val_ro, dz = quad_objective(pair.ro_ltv, pair.ro_terms, du)
        gaps.append(abs(val_fo - val_ro))
        lifted = dz @ basis.phi.T
        mism = np.linalg.norm(dx - lifted, axis=1)
        eps_linear = max(eps_linear, 0.5 * float(np.max(mism)))
        for t in range(horizon + 1):
            terminal = t == horizon
            w = cost.q_terminal if terminal else cost.q
            cbar = max(cbar,
                       float(np.linalg.norm(_weight_matvec(w, dx[t]))),
                       float(np.linalg.norm(_weight_matvec(w, lifted[t]))))
    eps = max(eps_nominal, eps_linear)
    cbar1 = 7.0 * (horizon + 1) * cbar
    return {
        "eps": eps,
        "eps_nominal": eps_nominal,
        "eps_linearized": eps_linear,
        "cbar": cbar,
        "cbar1": cbar1,
        "gaps": gaps,
    }


def _delta(meas, sigma_min):
    """Minimizer-distance radius sqrt(2 cbar1 eps / sigma_min); infinite
    when the stacked Hessian is not uniformly positive definite."""
    if sigma_min <= _SIGMA_FLOOR:
        return float("inf")
    return float(np.sqrt(2.0 * meas["cbar1"] * meas["eps"] / sigma_min))


def _draw_controls(pair, samples, seed, sigma):
    if sigma is None:
        scale = float(np.max(np.abs(pair.nominal.controls))) \
            if pair.nominal.controls.size else 0.0
        sigma = 0.1 * max(1.0, scale)
    rng = np.random.default_rng(seed)
    horizon, n_u = pair.nominal.controls.shape
    return [sigma * rng.standard_normal((horizon, n_u))
            for _ in range(samples)]


def check_objective_gap(pair, samples=200, seed=0, sigma=None):
    """Shared-input objective gap against the measured bound cbar1*eps."""
    draws = _draw_controls(pair, samples, seed, sigma)
    meas = _measure_constants(pair, draws)
    max_gap = float(np.max(meas["gaps"])) if meas["gaps"] else 0.0
    bound = meas["cbar1"] * meas["eps"]
    return {
        "samples": samples,
        "eps": meas["eps"],
        "eps_nominal": meas["eps_nominal"],
        "eps_linearized": meas["eps_linearized"],
        "cbar": meas["cbar"],
        "cbar1": meas["cbar1"],
        "max_objective_gap": max_gap,
        "gap_bound": bound,
        "holds": bool(max_gap <= bound + _SLACK),
        "looseness": float(bound / max_gap) if max_gap > 0 else float("inf"),
    }


def check_minimizer_distance(pair, samples=100, seed=1, sigma=None):
    """Minima gap and minimizer-distance bounds via the dense oracle.

    The measured constants include the two minimizers in the draw set so
    the asserted inequalities follow from the measurements.  A stacked
    Hessian smallest eigenvalue below 1e-10 is reported as a uniformity
    violation instead of asserting the distance bound.
    """
    du_star = lqr_solve_dense(pair.fo_ltv, pair.fo_terms)
    du_hat = lqr_solve_dense(pair.ro_ltv, pair.ro_terms)
    draws = _draw_controls(pair, samples, seed, sigma)
    meas = _measure_constants(pair, draws + [du_star, du_hat])

    h_full, _ = stack_quadratic(pair.fo_ltv, pair.fo_terms)
    sigma_min = float(np.min(np.linalg.eigvalsh(h_full)))
    uniform_ok = sigma_min > _SIGMA_FLOOR

    val_star, _ = quad_objective(pair.fo_ltv, pair.fo_terms, du_star)
    val_hat, _ = quad_objective(pair.ro_ltv, pair.ro_terms, du_hat)
    minima_gap = abs(val_star - val_hat)
    bound = meas["cbar1"] * meas["eps"]
    distance = float(np.linalg.norm(du_star - du_hat))
    delta = _delta(meas, sigma_min)
    return {
        "eps": meas["eps"],
        "cbar": meas["cbar"],
        "cbar1": meas["cbar1"],
        "sigma_min": sigma_min,
        "uniformity_ok": uniform_ok,
        "minima_gap": minima_gap,
        "minima_gap_bound": bound,
        "minima_gap_ok": bool(minima_gap <= bound + _SLACK),
        "minimizer_distance": distance,
        "delta": delta,
        "distance_ok": bool(distance <= delta + _SLACK),
        "looseness": float(delta / distance) if distance > 0 else float("inf"),
    }


@dataclass
class BoundsReport:
    """Aggregated bound measurements for one instance."""

    eps: float
    cbar: float
    cbar1: float
    sigma_min: float
    delta: float
    max_objective_gap: float
    minima_gap: float
    minimizer_distance: float
    objective_gap_ok: bool
    minima_gap_ok: bool
    distance_ok: bool
    objective_gap_looseness: float
    distance_looseness: float
    uniformity_ok: bool
    limit_set_trace: list = field(default_factory=list)
    limit_set_consistent: bool | None = None

    def to_dict(self):
        from dataclasses import asdict

        return asdict(self)


def verify_bounds(pair, samples=200, seed=0, sigma=None):
    """Run both bound checks and assemble a single report."""
    frag1 = check_objective_gap(pair, samples=samples, seed=seed, sigma=sigma)
    frag3 = check_minimizer_distance(pair, samples=max(20, samples // 2), seed=seed + 1,
                         sigma=sigma)
    return BoundsReport(
        eps=max(frag1["eps"], frag3["eps"]),
        cbar=max(frag1["cbar"], frag3["cbar"]),
        cbar1=max(frag1["cbar1"], frag3["cbar1"]),
        sigma_min=frag3["sigma_min"],
        delta=frag3["delta"],
        max_objective_gap=frag1["max_objective_gap"],
        minima_gap=frag3["minima_gap"],
        minimizer_distance=frag3["minimizer_distance"],
        objective_gap_ok=frag1["holds"],
        minima_gap_ok=frag3["minima_gap_ok"],
        distance_ok=frag3["distance_ok"],
        objective_gap_looseness=frag1["looseness"],
        distance_looseness=frag3["looseness"],
        uniformity_ok=frag3["uniformity_ok"],
    )


def trace_limit_set(problem, report, energy_cutoff=0.99999, perturb=None,
                     samples=40, seed=0, sigma=None):
    """Per-iterate Newton-step norms of the full-order problem and
    membership in the limit set { ||H^-1 grad|| <= delta }.

    Uses the identified full-order LTV at each accepted iterate (data
    driven, consistent with the rest of the pipeline), so it is meant
    for desk-scale problems only.  Returns (trace, consistent) where
    ``consistent`` is the exhaustion property: once the cost falls below
    every non-member iterate's cost, membership never flips back off.
    """
    perturb = perturb or PerturbationConfig()
    model, cost = problem.model, problem.cost
    trace = []
    for idx, controls in enumerate(report.iterate_controls):
        nominal = rollout(model, problem.x0, controls)
        cost_k = cost.trajectory_cost(nominal)
        basis = method_of_snapshots(nominal.states.T,
                                    energy_cutoff=energy_cutoff)
        pair = build_lqr_pair(model, cost, nominal, basis,
                              replace(perturb, seed=perturb.seed + 7919 * idx))
        h_full, grad = stack_quadratic(pair.fo_ltv, pair.fo_terms)
        evals = np.linalg.eigvalsh(h_full)
        hessian_ok = bool(evals[0] > 0.0)
        if hessian_ok:
            newton = float(np.linalg.norm(np.linalg.solve(h_full, grad)))
        else:
            newton = float("nan")
        draws = _draw_controls(pair, samples, seed + idx, sigma)
        meas = _measure_constants(pair, draws)
        sigma_min = float(evals[0])
        delta = _delta(meas, sigma_min)
        trace.append({
            "iteration": idx,
            "cost": cost_k,
            "newton_norm": newton,
            "delta": delta,
            "member": bool(hessian_ok and newton <= delta + _SLACK),
            "hessian_ok": hessian_ok,
            "sigma_min": sigma_min,
            "eps": meas["eps"],
        })
    non_member_costs = [e["cost"] for e in trace if not e["member"]]
    floor = min(non_member_costs) if non_member_costs else float("inf")
    consistent = all(e["member"] for e in trace if e["cost"] < floor)
    return trace, consistent
