"""The public names of the package, resolved from their submodules on first use."""

import importlib

import pytest

import qdeform

# submodule -> the public names ``from qdeform import *`` gives
PUBLIC = {
    "deformed": ["PotentialParams", "cosh_q", "potential_value", "singularity_radius",
                 "tanh_q"],
    "effective": ["DiracConstants", "abc_params", "bound_window", "effective_eigenvalue",
                  "effective_strengths", "shape_params"],
    "errors": ["DiscriminantError", "DomainError", "EmptyWindowError", "GridError",
               "NonBindingError", "NonConvergenceError", "ParameterError", "QdeformError",
               "ZeroNormError"],
    "oracle": ["RadialGrid", "build_grid", "integrate_radial", "ode_residual",
               "shoot_eigenvalues"],
    "solvers": ["METHOD_DISPUTED", "METHOD_MORSE_ASYMPTOTIC", "METHOD_MORSE_EXACT", "METHOD_ORACLE",
                "METHOD_Q_GE_1", "METHOD_Q_LT_1", "EnergyLevel", "SolverConfig",
                "closed_form_spectrum", "spectrum"],
    "special": ["gauss_2f1", "jacobi_p", "kummer_1f1"],
    "wavefunctions": ["WavefunctionGrid", "analytic_upper", "make_wavefunction"],
}
NAMES = {name for names in PUBLIC.values() for name in names}


def test_star_import_gives_the_public_names():
    namespace = {}
    exec("from qdeform import *", namespace)
    assert len(NAMES) == 41
    assert set(namespace) - {"__builtins__"} == NAMES
    assert set(qdeform.__all__) == NAMES


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_its_submodules_object(module):
    mod = importlib.import_module("qdeform." + module)
    assert getattr(qdeform, module) is mod
    for name in PUBLIC[module]:
        assert getattr(qdeform, name) is getattr(mod, name)


def test_dir_lists_the_public_names():
    assert NAMES <= set(dir(qdeform))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        qdeform.no_such_name
    assert not hasattr(qdeform, "_no_such_private")
    with pytest.raises(ImportError):
        exec("from qdeform import no_such_name", {})
