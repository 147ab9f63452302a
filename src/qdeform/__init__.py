"""Bound states of the s-wave Dirac equation with the q-deformed
generalized Poschl-Teller potential under exact spin symmetry.

Public surface: potential and constants types, the regime-dependent
spectrum solvers, the independent shooting oracle, and wavefunction
construction.  All quantities are in natural units where the chosen mass
scale is 1.
"""

from .deformed import (
    PotentialParams,
    cosh_q,
    morse_from_physical,
    morse_value,
    potential_value,
    singularity_radius,
    sinh_q,
    tanh_q,
)
from .effective import (
    DiracConstants,
    EffectiveParams,
    abc_params,
    bound_window,
    effective_eigenvalue,
    effective_params,
    effective_strengths,
    morse_limit_params,
    shape_params,
)
from .errors import (
    DiscriminantError,
    DomainError,
    EmptyWindowError,
    GridError,
    NoRootError,
    NonBindingError,
    NonConvergenceError,
    ParameterError,
    QdeformError,
    ZeroNormError,
)
from .oracle import RadialGrid, build_grid, integrate_radial, ode_residual, shoot_eigenvalues
from .solvers import (
    METHOD_MORSE_ASYMPTOTIC,
    METHOD_MORSE_EXACT,
    METHOD_ORACLE,
    METHOD_Q_GE_1,
    METHOD_Q_LT_1,
    EnergyLevel,
    SolverConfig,
    disputed_q_lt_1,
    morse_asymptotic_spectrum,
    solve_morse_asymptotic,
    solve_morse_exact,
    solve_q_lt_1,
    spectrum,
)
from .special import (
    confluent_limit_residual,
    gauss_2f1,
    jacobi_p,
    kummer_1f1,
    ln_gamma,
)
from .wavefunctions import (
    WavefunctionGrid,
    analytic_upper,
    lower_component,
    make_wavefunction,
    normalize,
    upper_morse,
    upper_q_ge_1,
    upper_q_ge_1_hypergeometric,
    upper_q_lt_1,
)

__version__ = "0.1.0"
