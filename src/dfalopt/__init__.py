"""Decentralized composite convex optimization toolkit.

Distributed first-order augmented Lagrangian solver with synchronous and
asynchronous randomized-block inner oracles, consensus ADMM baselines, a
per-node communication ledger with a synchronous exchange reference, and a
sparse-group regression benchmark protocol.
"""

from .graph import (
    Graph,
    GraphError,
    build_topology,
    consensus_violation,
    laplacian_apply,
    laplacian_dense,
    laplacian_quadratic,
    load_edge_file,
    spectral_bounds,
)
from .funcs import (
    GroupPartition,
    HuberLoss,
    NodeProblem,
    SparseGroupReg,
    huber_scalar,
)
from .solvers import (
    BlockObjective,
    SolveResult,
    activation_stream,
    apg,
    arbcd_run,
    ms_apg,
    rbcd_run,
)
from .trace import CommLedger, RunTrace, TraceRow, TRACE_COLUMNS, rel_subopt
from .netsim import SyncNetwork
from .dfal import (
    DfalParams,
    DfalState,
    ProtocolError,
    async_dfal_solve,
    charge_activations,
    coupling_constants,
    default_params,
    dfal_solve,
    inner_cap,
    local_gradient,
)
from .baselines import SadmmState, admm_solve, sadmm_solve
from .bench import (
    BenchReport,
    ProblemInstance,
    Reference,
    generate_instance,
    reference_solve,
    run_benchmark,
)

__version__ = "0.1.0"
