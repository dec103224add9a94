"""The scalar/array contract of every public function of r: a float or a
0-d array gives a float, a one-element array gives the same bits in an
array, and any other array keeps its shape (``specfun._route`` and
``specfun._restore``)."""

import math

import numpy as np
import pytest

from flockdyn.convolution import convolution_closed, convolution_closed_at, convolution_quadrature
from flockdyn.errors import DomainError
from flockdyn.potentials import (
    ModelParams,
    Morse,
    MorseLike,
    QuasiMorse,
    potential_force_magnitude,
    potential_value,
    potential_value_and_force,
    quasi_morse_u,
)
from flockdyn.solver import density_eval, solve_profile

REF3D = ModelParams(3, 1.255, 0.8, 0.2)
REF2D = ModelParams(2, 10.0 / 9.0, 0.75, 0.5)
_SPECS = {
    "qm3d": QuasiMorse(REF3D),
    "qm2d": QuasiMorse(REF2D),
    "morse": Morse(2.0, 1.0, 0.5, 1.0),
    "morse_like": MorseLike(0.5, 0.6, 0.2),
    "morse_like_p3": MorseLike(3.0, 0.6, 0.2),
}


@pytest.fixture(scope="module")
def profiles():
    return {3: solve_profile(REF3D), 2: solve_profile(REF2D)}


def _potential_cases():
    for name, spec in _SPECS.items():
        yield f"value-{name}", lambda r, s=spec: potential_value(s, r)
        yield f"force-{name}", lambda r, s=spec: potential_force_magnitude(s, r)
        yield f"pair_value-{name}", lambda r, s=spec: potential_value_and_force(s, r)[0]
        yield f"pair_force-{name}", lambda r, s=spec: potential_value_and_force(s, r)[1]
    for params in (REF3D, REF2D):
        yield f"quasi_morse_u-{params.n}d", lambda r, p=params: quasi_morse_u(p, r)


_POTENTIALS = dict(_potential_cases())


def _function(name, profiles):
    """(f, radii): a function of r and six radii in its domain."""
    if name in _POTENTIALS:
        return _POTENTIALS[name], [0.05, 0.3, 0.7, 1.0, 2.5, 9.0]
    kind, n = name.rsplit("-", 1)
    prof = profiles[int(n)]
    radii = [f * prof.R_star for f in (0.0, 0.1, 0.35, 0.6, 0.9, 1.0)]
    if kind == "density":
        return lambda r: density_eval(prof, r), radii
    if kind == "closed":
        return lambda r: convolution_closed(prof, r), radii
    if kind == "closed_at":
        return (lambda r: convolution_closed_at(prof.params, prof.R_star, 0.7 * prof.mu1,
                                                prof.mu2, r), radii)
    rho = lambda s: density_eval(prof, s)
    return lambda r: convolution_quadrature(rho, QuasiMorse(prof.params), prof.R_star, r), radii


_NAMES = [*_POTENTIALS, *(f"{kind}-{n}" for kind in ("density", "closed", "closed_at", "quad")
                          for n in (3, 2))]


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@pytest.mark.parametrize("name", _NAMES)
def test_scalar_forms_give_the_same_bits_and_a_float(name, profiles):
    f, radii = _function(name, profiles)
    for r in radii:
        as_float, as_0d, as_1 = f(r), f(np.array(r)), f(np.array([r]))
        assert type(as_float) is float and type(as_0d) is float
        assert isinstance(as_1, np.ndarray) and as_1.shape == (1,)
        assert _bits(as_float) == _bits(as_0d) == _bits(as_1)


@pytest.mark.parametrize("name", _NAMES)
def test_an_array_keeps_its_shape(name, profiles):
    # once convolution_quadrature raised "operands could not be broadcast"
    f, radii = _function(name, profiles)
    grid = np.array(radii).reshape(2, 3)
    out = f(grid)
    assert isinstance(out, np.ndarray) and out.shape == (2, 3)
    assert _bits(out) == _bits(f(grid.ravel()))
    assert _bits(f(grid.T)) == _bits(out.T)
    assert f(np.empty((0, 2))).shape == (0, 2)


@pytest.mark.parametrize("name", [n for n in _POTENTIALS if "qm" not in n])
def test_a_potential_at_a_float_equals_its_element_of_a_long_array(name):
    # powers of r are taken by np.power on both routes: Python's ** on a
    # float differs from numpy's by an ulp on some radii.  (Quasi-Morse is
    # left out: a K loop may take more terms within a longer array.)
    f = _POTENTIALS[name]
    grid = np.geomspace(1e-3, 50.0, 400)
    assert _bits([f(float(r)) for r in grid]) == _bits(f(grid))


@pytest.mark.parametrize("spec", _SPECS.values(), ids=_SPECS.keys())
@pytest.mark.parametrize("r", [0.0, -0.0, -1.0, -math.inf, np.array(0.0), np.array([0.0]),
                               np.array([1.0, 0.0]), np.array([[2.0], [-3.0]])],
                         ids=["0", "-0", "-1", "-inf", "0d", "one", "array", "column"])
def test_a_potential_refuses_r_at_or_below_zero(spec, r):
    for f in (potential_value, potential_force_magnitude, potential_value_and_force):
        with pytest.raises(DomainError, match="r must be > 0"):
            f(spec, r)


@pytest.mark.parametrize("n", [3, 2])
def test_the_density_is_zero_off_the_support(n, profiles):
    prof = profiles[n]
    off = [-1.0, prof.R_star + 1.0, math.inf, -math.inf, math.nan]
    for r in off:
        assert _bits(density_eval(prof, r)) == _bits(0.0)
    out = density_eval(prof, np.array([0.5 * prof.R_star, *off]))
    assert out[0] > 0.0 and _bits(out[1:]) == _bits(np.zeros(len(off)))
    assert _bits(density_eval(prof, np.array(off))) == _bits(np.zeros(len(off)))
