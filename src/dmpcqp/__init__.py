"""Distributed active-set QP solvers for networked model predictive control.

The package builds partially separable QPs for networks of coupled linear
systems (:mod:`~dmpcqp.model`, :mod:`~dmpcqp.qp_builder`), solves them with
a distributed primal active-set method whose inner systems are condensed
per agent and resolved by a decentralized conjugate gradient
(:mod:`~dmpcqp.condense`, :mod:`~dmpcqp.dcg`, :mod:`~dmpcqp.asm`), and ships
a consensus ADMM baseline (:mod:`~dmpcqp.admm`), a centralized reference
solver (:mod:`~dmpcqp.oracle`), a metered communication fabric
(:mod:`~dmpcqp.fabric`), and a closed-loop experiment CLI
(:mod:`~dmpcqp.cli`).

Importing the package sets the BLAS thread variables in
:data:`THREAD_VARS` to one thread unless they are already set: floating-point
results then do not depend on the core count, and ``meta.json`` reports the
count the run used.  If numpy is already loaded, it warns instead.
"""

import os as _os
import sys as _sys
import warnings as _warnings

#: Environment variables that set the BLAS thread count; results depend on it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# must run before the first numpy import: BLAS reads the variables once,
# when numpy loads it
_unset = [_var for _var in THREAD_VARS if _var not in _os.environ]
if "numpy" not in _sys.modules:
    _os.environ.update(dict.fromkeys(_unset, "1"))
elif _unset:
    _warnings.warn(f"numpy was imported before dmpcqp with "
                   f"{', '.join(_unset)} unset, so BLAS may run "
                   "multi-threaded", RuntimeWarning, stacklevel=2)

from .admm import (ADMM_PRESETS, AdmmConfig, AdmmResult, admm_average,
                   admm_converged, admm_dual_update, admm_solve,
                   shift_averaged)
from .asm import (AsmConfig, AsmResult, AsmStats, asm_solve,
                  compute_step_length, network_objective, shift_active,
                  verify_iterate)
from .condense import (AgentBounds, AgentCoupling, CondensedAgent,
                       FactorCache, WorkingConstraints, WorkingSetFactor,
                       backsubstitute, recover_duals, working_constraints)
from .dcg import DcgResult, dcg_init, dcg_iterate, dcg_solve
from .fabric import CommLedger, Fabric, verify_comm_identities
from .model import (AgentModel, NetworkModel, PlantState,
                    build_chain_of_masses, plant_step)
from .oracle import (DenseSolution, Rollout, centralized_mpc_rollout,
                     prepare_kkt, solve_dense_qp)
from .qp_builder import (AgentQP, CouplingIndex, StackedQp, VariableLayout,
                         build_agent_qp, build_coupling_index,
                         build_network_qps, build_partner,
                         rollout_feasible_point, stack_global,
                         update_initial_state)

__all__ = [
    "THREAD_VARS",
    # admm
    "ADMM_PRESETS", "AdmmConfig", "AdmmResult", "admm_average",
    "admm_converged", "admm_dual_update", "admm_solve", "shift_averaged",
    # asm
    "AsmConfig", "AsmResult", "AsmStats", "asm_solve",
    "compute_step_length", "network_objective", "shift_active",
    "verify_iterate",
    # condense
    "AgentBounds", "AgentCoupling", "CondensedAgent", "FactorCache",
    "WorkingConstraints", "WorkingSetFactor", "backsubstitute",
    "recover_duals", "working_constraints",
    # dcg
    "DcgResult", "dcg_init", "dcg_iterate", "dcg_solve",
    # fabric
    "CommLedger", "Fabric", "verify_comm_identities",
    # model
    "AgentModel", "NetworkModel", "PlantState", "build_chain_of_masses",
    "plant_step",
    # oracle
    "DenseSolution", "Rollout", "centralized_mpc_rollout", "prepare_kkt",
    "solve_dense_qp",
    # qp_builder
    "AgentQP", "CouplingIndex", "StackedQp", "VariableLayout",
    "build_agent_qp", "build_coupling_index", "build_network_qps",
    "build_partner", "rollout_feasible_point", "stack_global",
    "update_initial_state",
]
