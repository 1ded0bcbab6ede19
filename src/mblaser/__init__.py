"""Maxwell-Bloch parametric-resonance laboratory.

One-mode laser field coupled to N pumped two-level molecules: time
integration, gauge-reduced period maps, the block differential at the ground
state, multiplier spectra via a degree-four reduction, and pumping-threshold
scans -- with every closed form validated against an independent numerical
oracle.
"""

from .model import (DimensionlessParams, FullState, PhysicalParams,
                    ReducedState, derive_dimensionless, ground_state,
                    hopf_project, inversion_from_z, lift_state,
                    perturbed_point, populations_from_z, ruby_params)
from .kernels import (KernelConstants, constants_AB, constants_J,
                      fundamental_solution, quadrature, residual_of_ode)
from .ensemble import (Ensemble, SumReport, cuboid_mode, sample_ensemble,
                       sum_S, sum_Sigma)
from .dynamics import (OdeSettings, integrate, integrate_full,
                       integrate_reduced, sample_trajectory)
from .poincare import (compute_nu, jacobian_fd, make_numeric_map,
                       poincare_analytic, poincare_numeric)
from .spectrum import (BlockDifferential, SpectrumReport, assemble_blocks,
                       assemble_full, eigvec_back_substitute,
                       poly_roots, reduced_matrix, resonance_verdict,
                       threshold_scan)
from .config import RunConfig, load_config, paper_preset
from .errors import (CapacityError, ChartBoundaryError, MBLaserError,
                     NumericsError, ValidationError)

__version__ = "0.1.0"
