"""Bound states of the s-wave Dirac equation with the q-deformed
generalized Poschl-Teller potential under exact spin symmetry.

Public surface: potential and constants types, the regime-dependent
spectrum solvers, the independent shooting oracle, and wavefunction
construction.  All quantities are in natural units where the chosen mass
scale is 1.

Each public name is imported from its submodule on first use (PEP 562), so
``import qdeform`` alone loads neither numpy nor any submodule.
"""

import importlib

# submodule -> the public names it provides
_EXPORTS = {
    "deformed": (
        "PotentialParams",
        "cosh_q",
        "potential_value",
        "singularity_radius",
        "tanh_q",
    ),
    "effective": (
        "DiracConstants",
        "abc_params",
        "bound_window",
        "effective_eigenvalue",
        "effective_strengths",
        "shape_params",
    ),
    "errors": (
        "DiscriminantError",
        "DomainError",
        "EmptyWindowError",
        "GridError",
        "NonBindingError",
        "NonConvergenceError",
        "ParameterError",
        "QdeformError",
        "ZeroNormError",
    ),
    "oracle": (
        "RadialGrid",
        "build_grid",
        "integrate_radial",
        "ode_residual",
        "shoot_eigenvalues",
    ),
    "solvers": (
        "METHOD_DISPUTED",
        "METHOD_MORSE_ASYMPTOTIC",
        "METHOD_MORSE_EXACT",
        "METHOD_ORACLE",
        "METHOD_Q_GE_1",
        "METHOD_Q_LT_1",
        "EnergyLevel",
        "SolverConfig",
        "closed_form_spectrum",
        "spectrum",
    ),
    "special": ("gauss_2f1", "jacobi_p", "kummer_1f1"),
    "wavefunctions": ("WavefunctionGrid", "analytic_upper", "make_wavefunction"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        # `qdeform.solvers` and the like work after a bare `import qdeform`
        return importlib.import_module("." + name, __name__)
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _MODULE_OF[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
