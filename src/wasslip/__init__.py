"""wasslip: transport-robust risk certificates for Lipschitz classifiers.

Exact optimal transport over finite supports, the one-dimensional dual of the
worst-case risk over a transport ball, certificates for deep models from one
loss table in the input metric, adversarial-risk bounds, and the regularized
training objectives they justify; every analytic route is paired with an LP
or grid oracle.
"""

from wasslip.numerics import (
    DimensionError,
    LPProblem,
    LPSolution,
    LPStatus,
    NormTag,
    NumericalError,
    UnsupportedNormError,
    norm,
    operator_norm,
    power_iteration,
    solve_lp,
)
from wasslip.measures import (
    CostMatrix,
    DiscreteMeasure,
    MetricSpec,
    PointSet,
    TransportInfeasibleError,
    ball_contains,
    cost_matrix,
    empirical_from_samples,
    pushforward,
    transport_cost,
)
from wasslip.models import (
    ActivationTag,
    MLP,
    MLPLayer,
    ce_lipschitz_bound,
    empirical_lipschitz,
    network_lipschitz_bound,
)
from wasslip.robust import (
    DualSolution,
    RobustCertificate,
    RobustInstance,
    check_envelope_collapse,
    kappa_threshold,
    minimize_dual,
    minimize_dual_on_targets,
    primal_robust_risk_lp,
    robust_certificate_for,
)
from wasslip.adversarial import (
    AttackConfig,
    AttackResult,
    BallSpec,
    adversarial_risk,
    attack_sweep,
)
from wasslip.suite import check_adversarial_bound
from wasslip.train import ObjectiveKind, TrainConfig, TrainReport, objective_and_grad, project_layer_lipschitz, train_loop

__version__ = "0.1.0"
