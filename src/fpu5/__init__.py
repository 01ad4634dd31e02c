"""Pseudospectral laboratory for the fifth-order continuum equations of the
alpha+beta FPU chain: dealiased IF-RK4 or ETDRK4 integration of the wave
equations, closed-form solution generators with residual verifiers, the
pole-balance and Fuchs-index computation, and the recurrence experiments."""

from .errors import BlowUpError, ConfigError, DomainError, PoleError
from .params import (EquationKind, ModelParams, PhysicalChainParams,
                     kink_speed, physical_to_model, velocity_curve)
from .spectral import ETDRK4, Grid, IntegratingFactorRK4, spectral_derivative
from .equations import (conservation_flux, flux, full_rhs, linear_symbol,
                        make_nonlinear_operator, nonlinear_rhs)
from .weierstrass import WeierstrassP, degenerate_p
from .solutions import (EllipticSolution, GardnerSoliton, KdV5Soliton,
                        KinkSolution, elliptic_coeffs, elliptic_derivatives,
                        elliptic_eval, elliptic_g3_for_speed, gardner_soliton,
                        kdv5_soliton, kink_derivatives, kink_eval,
                        kink_integration_constants, kink_pole_variant,
                        residual_first_integral, residual_second_integral)
from .painleve import (FuchsResult, LeadingBalance, fuchs_indices,
                       leading_balance, painleve_verdict)
from .experiments import (EXPERIMENTS, STUDIES, InitialCondition,
                          RecurrenceReport, Snapshot, SimulationConfig,
                          ValidationReport, err_metric, kink_validation,
                          mass_drift, recurrence_scan, recurrence_table, run,
                          run_batch, shape_score, shape_score_series,
                          soliton_perturbation, xcorr_mismatch)
from .snapio import (RunManifest, config_to_dict, parse_config, read_snapshot,
                     write_snapshot, write_snapshots)

__version__ = "0.1.0"
