"""Dual-function radar-communication beamforming design and evaluation.

Design a transmit beamformer on the fixed-row-norm (oblique) manifold
that minimizes the sum-CRLB of target angle estimation, then project it
into the set meeting every user's minimum rate via second-order-cone
distances; evaluate with MUSIC-based Monte-Carlo angle estimation.
"""

from .arrays import beampattern, steering, steering_derivative, target_channel
from .comm import (RateReport, SocInstance, f2_and_grad, max_min_zf_rate, rates,
                   soc_assemble, zf_precoder)
from .config import build_options, build_scenario, load_config, parse_config
from .crlb import Coupling, FisherState, coupling_matrices, fisher_matrix, grad_f1
from .design import (DesignResult, MODES, initial_point, rate_target, run,
                     solve_sp1, solve_sp2)
from .errors import ConfigError, InfeasibleError, NumericalError
from .manifold import inner, is_on_manifold, project_tangent, retract, row_norms
from .radar import (EstimationReport, echo_channel, monte_carlo, monte_carlo_sweep,
                    music_estimate, synthesize_echo, synthesize_probe)
from .rcg import (IterRecord, LineSearchResult, RcgOptions, SolverTrace, minimize,
                  wolfe_linesearch)
from .scenario import (Scenario, dbm_to_watts, make_scenario, make_targets,
                       make_user_channels, pathloss, substream)

__version__ = "0.1.0"
