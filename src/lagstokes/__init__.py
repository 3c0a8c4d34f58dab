"""lagstokes: a desk-scale two-phase incompressible Stokes solver in
Lagrangian coordinates on a fixed reference droplet, with cofactor
geometry (in closed form, and as the paper's series), weak elliptic
transmission pressure, Picard fixed-point solves and conservation/decay
diagnostics."""

from .mesh import Field, RefMesh, build_two_phase_disk, facet_normal, jump
from .kernel import (CofactorField, DisplacementGradient, TransformedNormal,
                     accumulate_gradient, closed_form_cofactor, delta_cofactor,
                     deformation_tensors, direct_inverse_oracle, neumann_cofactor,
                     pushforward_normal)
from .transmission import (MaterialParams, RigidBasis, TransmissionSolution,
                           build_rigid_basis, helmholtz_project,
                           pressure_reconstruct_K, project_out_rigid,
                           solve_transmission_with_jumps, solve_weak_transmission)
from .stepper import (StokesData, StokesState, StokesWorkspace, Trajectory,
                      korn_constant, run_linear, solve_resolvent, step_linear)
from .fixedpoint import (ExponentSet, IterationConfig, NonlinearRHS,
                         compute_nonlinear_terms, cutoff_extension,
                         extension_reflect, global_continue, picard_solve_local,
                         select_local_T, sigma_exponents, stability_probe)
from .diagnostics import (ConservationReport, SpectrumReport, bootstrap_check,
                          bootstrap_rb, decay_fit, discrete_spectrum,
                          energy_budget, momentum_and_barycenter)

__version__ = "0.1.0"

__all__ = [
    "Field", "RefMesh", "build_two_phase_disk", "facet_normal", "jump",
    "CofactorField", "DisplacementGradient", "TransformedNormal",
    "accumulate_gradient", "closed_form_cofactor", "delta_cofactor",
    "deformation_tensors", "direct_inverse_oracle", "neumann_cofactor", "pushforward_normal",
    "MaterialParams", "RigidBasis", "TransmissionSolution",
    "build_rigid_basis", "helmholtz_project", "pressure_reconstruct_K",
    "project_out_rigid", "solve_transmission_with_jumps", "solve_weak_transmission",
    "StokesData", "StokesState", "StokesWorkspace", "Trajectory",
    "korn_constant", "run_linear", "solve_resolvent", "step_linear",
    "ExponentSet", "IterationConfig", "NonlinearRHS", "compute_nonlinear_terms",
    "cutoff_extension", "extension_reflect", "global_continue",
    "picard_solve_local", "select_local_T", "sigma_exponents", "stability_probe",
    "ConservationReport", "SpectrumReport", "bootstrap_check", "bootstrap_rb",
    "decay_fit", "discrete_spectrum", "energy_budget", "momentum_and_barycenter",
    "__version__",
]
