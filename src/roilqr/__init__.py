"""Reduced-order iterative LQR for discretized nonlinear PDEs.

Pipeline: nonlinear PDE forward models -> snapshot-based reduced basis
-> perturbation-identified linear time-varying models -> Riccati-style
backward pass -> line-searched trajectory updates, with the basis
refreshed from every accepted trajectory.  A full-order mode (identity
basis) provides the benchmark baseline, and a bounds module empirically
verifies the suboptimality guarantees of the reduced solution.
"""

from .bounds import (BoundsReport, LqrPair, build_lqr_pair, verify_bounds,
                     verify_iterates)
from .lqr import (BackwardPassError, CostModel, GainSchedule, Regularizer,
                  backward_pass, reduce_cost)
from .pde import (AllenCahnModel, BurgersModel, CahnHilliardModel,
                  DivergenceError, Grid, PdeParams, StabilityError,
                  Trajectory, mask_from_goal, rollout)
from .pod import (DegenerateSnapshotsError, ReducedBasis, method_of_snapshots,
                  projection_residual)
from .solver import (ControlProblem, SolveReport, SolverConfig, forward_pass,
                     line_search, solve)
from .sysid import (LtvModel, RegressionData, fit_ltv, generate_rollout_data,
                    perturbation_scales)

__version__ = "0.1.0"
