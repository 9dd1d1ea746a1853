"""Empirical verification of the solution-quality bounds.

Around one nominal trajectory, the full-order and reduced-order
perturbed quadratic problems are built from identified LTV models and
the cost expansion.  Each check measures its constants over its own set
of control draws: the residual eps, the cost-gradient bound cbar with
cbar1 = 7 (T+1) cbar, and the full-order stacked Hessian's smallest
eigenvalue sigma_min.  :func:`verify_bounds` checks

* ``objective_gap_ok``: max |dJ(dU) - dJ_red(dU)| over ``samples`` draws
  from ``seed`` against ``gap_bound`` = cbar1 eps of those draws;
* ``minima_gap_ok``: |dJ(dU*) - dJ_red(dU_red*)| against
  ``minima_gap_bound`` = cbar1 eps of max(20, samples // 2) draws from
  ``seed + 1`` plus the two minimizers;
* ``distance_ok``: ||dU* - dU_red*|| against ``delta`` =
  sqrt(2 cbar1 eps / sigma_min) of that second set (infinite, and
  ``uniformity_ok`` false, when sigma_min <= 1e-10).

A verdict holds only against a finite bound: an infinite bound (or
delta), be it a norm past the float range or the delta of a Hessian
that is not uniformly positive definite, fails it, and so fails the
limit-set membership of an iterate.

The reported ``eps``, ``cbar`` and ``cbar1`` are the larger of the two
sets' values.  Because every inequality is checked against constants
measured on its own draws, a violation indicates an implementation bug,
not a modeling judgement.  :func:`verify_iterates` verifies a solve:
one walk over its accepted iterates flags each one's membership of the
limit set { ||H^-1 grad|| <= delta }, with delta measured the same way,
and the three inequalities are checked on the last iterate's pair.

Every quadratic is evaluated from one stacked form (H, g, F) per model
(:func:`roilqr.lqr.stack_quadratic`), built at most once per pair: the
value at a flat control perturbation dU is 0.5 dU^T H dU + g^T dU, its
deviations are F @ dU, and the minimizers and Newton steps are the
dense minimizer -H^-1 g of :func:`roilqr.lqr.stacked_minimizer`.
"""

from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from .lqr import reduce_cost, stack_quadratic, stacked_minimizer
from .pde import Trajectory, rollout
from .pod import (DEFAULT_ENERGY_CUTOFF, method_of_snapshots,
                  projection_residual)
from .sysid import fit_ltv, generate_rollout_data

_SLACK = 1e-8  # absolute tolerance so exact-basis (eps ~ 0) cases pass
_SIGMA_FLOOR = 1e-10  # smallest stacked-Hessian eigenvalue deemed uniform


@dataclass
class LqrPair:
    """Full- and reduced-order perturbed quadratics around one nominal,
    each one's stacked form built on first use and kept."""

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

    @cached_property
    def fo_stacked(self):
        return stack_quadratic(self.fo_ltv, self.fo_terms)

    @cached_property
    def ro_stacked(self):
        return stack_quadratic(self.ro_ltv, self.ro_terms)


def build_lqr_pair(model, cost, nominal, basis):
    """Identify both LTV models around the nominal, the full-order one
    from coordinate samples of the state and the reduced one from samples
    along the modes of ``basis``, and assemble the pair."""
    fo_data = generate_rollout_data(model, nominal, basis=None)
    ro_data = generate_rollout_data(model, nominal, basis=basis)
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


@dataclass
class _Measurement:
    """Constants measured over one set of control draws.

    eps covers both residual clauses: the nominal projection residual and
    half the worst sampled deviation mismatch ||dx_t - phi dz_t||.  cbar
    is the max norm of every weighted state vector entering the gap
    bound (nominal gradients and weighted deviations, terminal included),
    and cbar1 = 7 (T+1) cbar.  ``values`` holds the (full, reduced)
    objective values at each draw, in draw order.
    """

    eps: float
    cbar: float
    cbar1: float
    values: list

    def delta(self, sigma_min):
        """Minimizer-distance radius sqrt(2 cbar1 eps / sigma_min);
        infinite when the stacked Hessian is not uniformly positive
        definite."""
        if sigma_min <= _SIGMA_FLOOR:
            return float("inf")
        return float(np.sqrt(2.0 * self.cbar1 * self.eps / sigma_min))


def _measure(pair, du_list):
    """Measure eps, cbar and the objective values over the flat control
    perturbations ``du_list``."""
    cost, basis, nominal = pair.cost, pair.basis, pair.nominal
    horizon = pair.horizon
    eps_nominal = projection_residual(basis, nominal)
    cbar = 0.0
    # a norm past the float range is an infinite cbar, whose infinite
    # bounds then fail their verdicts
    with np.errstate(over="ignore"):
        for g in cost.state_grads(nominal.states):
            cbar = max(cbar, float(np.linalg.norm(g)))
    weights = [cost.q] * horizon + [cost.q_terminal]
    eps_linear = 0.0
    values = []
    forms = (pair.fo_stacked, pair.ro_stacked)
    for du in du_list:
        values.append(tuple(float(0.5 * du @ h @ du + g @ du)
                            for h, g, _ in forms))
        dx, dz = (f_maps @ du for _, _, f_maps in forms)
        lifted = dz @ basis.phi.T
        mism = np.linalg.norm(dx - lifted, axis=1)
        eps_linear = max(eps_linear, 0.5 * float(np.max(mism)))
        with np.errstate(over="ignore"):
            for w, x, z in zip(weights, dx, lifted):
                cbar = max(cbar, float(np.linalg.norm(w * x)),
                           float(np.linalg.norm(w * z)))
    return _Measurement(eps=max(eps_nominal, eps_linear), cbar=cbar,
                        cbar1=7.0 * (horizon + 1) * cbar, values=values)


def _draw_controls(pair, samples, seed, sigma):
    if sigma is None:
        scale = float(np.max(np.abs(pair.nominal.controls))) \
            if pair.nominal.controls.size else 0.0
        sigma = 0.1 * max(1.0, scale)
    rng = np.random.default_rng(seed)
    return [sigma * rng.standard_normal(pair.nominal.controls.size)
            for _ in range(samples)]


def _holds(measured, bound):
    """Whether ``measured`` is within the finite ``bound``: an infinite
    bound bounds nothing, so its verdict fails."""
    return bool(np.isfinite(bound) and measured <= bound + _SLACK)


def _ratio(bound, measured):
    return float(bound / measured) if measured > 0 else float("inf")


@dataclass
class BoundsReport:
    """Measured constants, checked bounds and verdicts for one instance."""

    eps: float
    cbar: float
    cbar1: float
    sigma_min: float
    delta: float
    max_objective_gap: float
    gap_bound: float
    minima_gap: float
    minima_gap_bound: float
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
        return asdict(self)


def verify_bounds(pair, samples=200, seed=0, sigma=None):
    """Check the three inequalities of the module docstring, each
    against the bound measured on its own draws, and report them."""
    gap = _measure(pair, _draw_controls(pair, samples, seed, sigma))
    (h_full, g_full, _), (h_red, g_red, _) = pair.fo_stacked, pair.ro_stacked
    du_star = stacked_minimizer(h_full, g_full)
    du_hat = stacked_minimizer(h_red, g_red)
    draws = _draw_controls(pair, max(20, samples // 2), seed + 1, sigma)
    mini = _measure(pair, draws + [du_star, du_hat])
    sigma_min = float(np.linalg.eigvalsh(h_full)[0])

    max_gap = float(max((abs(fo - ro) for fo, ro in gap.values), default=0.0))
    gap_bound = gap.cbar1 * gap.eps
    # J(dU*) and J_red(dU_red*) were evaluated as the last two draws
    minima_gap = abs(mini.values[-2][0] - mini.values[-1][1])
    minima_gap_bound = mini.cbar1 * mini.eps
    distance = float(np.linalg.norm(du_star - du_hat))
    delta = mini.delta(sigma_min)
    return BoundsReport(
        eps=max(gap.eps, mini.eps),
        cbar=max(gap.cbar, mini.cbar),
        cbar1=max(gap.cbar1, mini.cbar1),
        sigma_min=sigma_min,
        delta=delta,
        max_objective_gap=max_gap,
        gap_bound=gap_bound,
        minima_gap=minima_gap,
        minima_gap_bound=minima_gap_bound,
        minimizer_distance=distance,
        objective_gap_ok=_holds(max_gap, gap_bound),
        minima_gap_ok=_holds(minima_gap, minima_gap_bound),
        distance_ok=_holds(distance, delta),
        objective_gap_looseness=_ratio(gap_bound, max_gap),
        distance_looseness=_ratio(delta, distance),
        uniformity_ok=sigma_min > _SIGMA_FLOOR,
    )


def verify_iterates(problem, report, energy_cutoff=DEFAULT_ENERGY_CUTOFF,
                    samples=200, seed=0, sigma=None):
    """Verify the solve ``report`` of ``problem`` in one walk over its
    accepted iterates, one pair alive at a time: around each re-rolled
    iterate ``idx``, flag limit-set membership with delta measured over
    max(20, samples // 10) draws from ``seed + 2 + idx``; then run
    :func:`verify_bounds` on the last iterate's pair with ``samples``
    draws from ``seed``.  ``limit_set_consistent`` is the exhaustion
    property: some iterate is a member, and once the cost falls below
    every non-member iterate's cost, membership never flips back off.
    Desk-scale problems only: each iterate's full-order model is
    identified.
    """
    if not report.iterate_controls:
        raise ValueError("the report has no iterate to verify around")
    model, cost = problem.model, problem.cost
    trace = []
    for idx, controls in enumerate(report.iterate_controls):
        pair = None   # dropped before the next pair is identified
        nominal = rollout(model, problem.x0, controls)
        basis = method_of_snapshots(nominal.states.T,
                                    energy_cutoff=energy_cutoff)
        pair = build_lqr_pair(model, cost, nominal, basis)
        h_full, grad = pair.fo_stacked[:2]   # F is dropped with the pair
        sigma_min = float(np.linalg.eigvalsh(h_full)[0])
        hessian_ok = sigma_min > 0.0
        newton = float(np.linalg.norm(stacked_minimizer(h_full, grad))) \
            if hessian_ok else float("nan")
        meas = _measure(pair, _draw_controls(
            pair, max(20, samples // 10), seed + 2 + idx, sigma))
        delta = meas.delta(sigma_min)
        trace.append({
            "iteration": idx,
            "cost": cost.trajectory_cost(nominal),
            "newton_norm": newton,
            "delta": delta,
            "member": hessian_ok and _holds(newton, delta),
            "hessian_ok": hessian_ok,
            "sigma_min": sigma_min,
            "eps": meas.eps,
        })
    non_member_costs = [e["cost"] for e in trace if not e["member"]]
    floor = min(non_member_costs) if non_member_costs else float("inf")
    # a walk with no member shows no exhaustion to be consistent with
    consistent = any(e["member"] for e in trace) \
        and all(e["member"] for e in trace if e["cost"] < floor)
    return replace(verify_bounds(pair, samples, seed, sigma),
                   limit_set_trace=trace, limit_set_consistent=consistent)
