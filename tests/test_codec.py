"""The JSON codec of the records: round trips through JSON text, the wire
format pinned key by key, and files written before the codec existed; and
the float-table writer against the per-field text."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flockdyn import _codec
from flockdyn.convolution import ConvolutionReport
from flockdyn.errors import DomainError
from flockdyn.potentials import (
    ModelParams,
    Morse,
    MorseLike,
    QuasiMorse,
    potential_from_dict,
    potential_to_dict,
)
from flockdyn.simulate import FromFile, Gaussian, InitSpec, SimConfig, UniformBall
from flockdyn.solver import FlockProfile

DATA = Path(__file__).parent / "data"
REF3D = ModelParams(3, 1.255, 0.8, 0.2)
INIT_TAGS = _codec.tag_table(InitSpec)

positive = st.floats(min_value=1e-100, max_value=1e100)
finite = st.floats(allow_nan=False, allow_infinity=False)
params = st.builds(ModelParams, st.sampled_from([2, 3]), positive, positive, positive)
profiles = st.builds(
    FlockProfile, params, A=finite, a=finite, R_star=positive, mu1=finite,
    mu2=finite, D=finite, root_index=st.integers(1, 10**6),
)
potentials = st.one_of(
    st.builds(QuasiMorse, params),
    st.builds(Morse, positive, positive, positive, positive),
    st.builds(MorseLike, positive, positive, positive),
)
inits = st.one_of(
    st.builds(UniformBall, positive), st.builds(Gaussian, positive), st.builds(FromFile, st.text()),
)
configs = st.builds(
    SimConfig,
    potential=potentials,
    dimension=st.sampled_from([2, 3]),
    N=st.integers(2, 10**6),
    dt=st.none() | positive,
    steps=st.integers(0, 10**6),
    model=st.sampled_from(["first", "second"]),
    alpha=positive,
    beta=positive,
    seed=st.integers(0, 2**64),
    init=inits,
    min_separation=st.none() | positive,
    record_stride=st.integers(1, 10**6),
    blowup_bound=positive,
    tabulated_forces=st.booleans(),
    convergence_tol=st.floats(min_value=0.0, max_value=1e100),
    convergence_window=st.integers(1, 10**6),
    stop_when_converged=st.booleans(),
)

#: each record type, and each union, with its encoder and decoder
CODECS = {
    "ModelParams": (params, ModelParams.to_dict, ModelParams.from_dict),
    "FlockProfile": (profiles, FlockProfile.to_dict, FlockProfile.from_dict),
    "SimConfig": (configs, SimConfig.to_dict, SimConfig.from_dict),
    "PotentialSpec": (potentials, potential_to_dict, potential_from_dict),
    "InitSpec": (
        inits,
        lambda init: _codec.encode_tagged(INIT_TAGS, init),
        lambda d: _codec.decode_tagged(INIT_TAGS, d, "init"),
    ),
}


@pytest.mark.parametrize("name", CODECS)
def test_round_trip_through_json_text(name):
    strategy, encode, decode = CODECS[name]

    @settings(max_examples=150, deadline=None)
    @given(strategy)
    def check(record):
        assert decode(json.loads(json.dumps(encode(record)))) == record

    check()


def test_wire_format():
    flat = {"n": 3, "C": 1.255, "ell": 0.8, "k": 0.2}
    assert REF3D.to_dict() == flat
    profile = FlockProfile(REF3D, A=5.5, a=2.5, R_star=0.7, mu1=0.6, mu2=3e-4,
                           D=-3e-3, root_index=2)
    assert profile.to_dict() == {**flat, "A": 5.5, "a": 2.5, "R_star": 0.7, "mu1": 0.6,
                                 "mu2": 3e-4, "D": -3e-3, "root_index": 2}
    assert potential_to_dict(QuasiMorse(REF3D)) == {"kind": "quasi_morse", **flat}
    assert potential_to_dict(Morse(2.0, 1.0, 0.5, 1.5)) == {
        "kind": "morse", "C_R": 2.0, "C_A": 1.0, "ell_R": 0.5, "ell_A": 1.5,
    }
    assert potential_to_dict(MorseLike(1.5, 0.6, 0.7)) == {
        "kind": "morse_like", "p": 1.5, "C": 0.6, "ell": 0.7,
    }
    config = SimConfig(
        MorseLike(1.5, 0.6, 0.7), dimension=2, N=50, dt=0.05, steps=20, model="second",
        alpha=1.5, beta=0.25, seed=4, init=Gaussian(0.3), min_separation=1e-6,
        record_stride=5, blowup_bound=1e3, tabulated_forces=False,
        convergence_tol=1e-8, convergence_window=7, stop_when_converged=True,
    )
    assert config.to_dict() == {
        "potential": {"kind": "morse_like", "p": 1.5, "C": 0.6, "ell": 0.7},
        "dimension": 2, "N": 50, "dt": 0.05, "steps": 20, "model": "second",
        "alpha": 1.5, "beta": 0.25, "seed": 4, "init": {"kind": "gaussian", "sigma": 0.3},
        "min_separation": 1e-6, "record_stride": 5, "blowup_bound": 1e3,
        "tabulated_forces": False, "convergence_tol": 1e-8, "convergence_window": 7,
        "stop_when_converged": True,
    }
    for init, tagged in ((UniformBall(0.7), {"kind": "uniform_ball", "radius": 0.7}),
                         (FromFile("state"), {"kind": "from_file", "path": "state"})):
        assert SimConfig(QuasiMorse(REF3D), 3, init=init).to_dict()["init"] == tagged
    report = ConvolutionReport(
        r_grid=np.array([0.0, 0.5]), closed_form=np.array([1.0, 2.0]),
        quadrature=np.array([1.0, 2.5]), D=1.0, sup_dev_closed=1.0, sup_dev_quad=1.5,
        cross_dev=0.5,
    )
    encoded = report.to_dict()
    assert encoded == {
        "r_grid": [0.0, 0.5], "closed_form": [1.0, 2.0], "quadrature": [1.0, 2.5],
        "D": 1.0, "sup_dev_closed": 1.0, "sup_dev_quad": 1.5, "cross_dev": 0.5,
    }
    assert type(encoded["r_grid"][0]) is float


@pytest.mark.parametrize(
    "key, value, where",
    [
        ("init", {"kind": "gauss", "sigma": 0.3}, "SimConfig: 'init'"),
        ("init", "ball:0.3", "SimConfig: 'init'"),
        ("init", {"kind": "gaussian", "sigma": "0.3"}, "Gaussian: 'sigma'"),
        ("potential", {"kind": "morse_like", "p": 1.5, "C": 0.6}, "MorseLike: no 'ell'"),
        ("stop_when_converged", 1, "SimConfig: 'stop_when_converged'"),
        ("model", None, "SimConfig: 'model'"),
        # a value of the right type outside the field's declared domain
        ("seed", -1, "SimConfig: 'seed' must be at least 0, got -1"),
        ("init", {"kind": "gaussian", "sigma": 0.0},
         "Gaussian: 'sigma' must be positive and finite, got 0.0"),
        # an integer past the double range once raised OverflowError
        pytest.param("alpha", 10**400, "SimConfig: 'alpha' must be float, got 1000",
                     id="alpha-past-the-double-range"),
    ],
)
def test_decode_names_the_class_and_the_key(key, value, where):
    encoded = SimConfig(QuasiMorse(REF3D), 3).to_dict()
    with pytest.raises(DomainError, match=where):
        SimConfig.from_dict({**encoded, key: value})


def test_files_written_before_the_codec_still_load():
    # written by `flockdyn solve -n 3 -C 1.255 -l 0.8 -k 0.2 --grid 64` and
    # `flockdyn simulate -n 3 -C 1.255 -l 0.8 -k 0.2 -N 60 --steps 20
    # --stride 5 --dt 0.05 --model second --init gauss:0.3 --seed 4` with the
    # hand-written encoders the codec replaced
    doc = json.loads((DATA / "solve_ref3d.json").read_text())["profile"]
    profile = FlockProfile(
        REF3D, A=5.584999999999984, a=2.3632604596192914, R_star=0.7265985671865227,
        mu1=0.6903684752253288, mu2=0.00032649329516087547, D=-0.0029175440855575816,
    )
    assert FlockProfile.from_dict(doc) == profile
    assert profile.to_dict() == doc
    doc = json.loads((DATA / "simulate_sidecar.json").read_text())["config"]
    config = SimConfig(
        QuasiMorse(REF3D), dimension=3, N=60, dt=0.05, steps=20, model="second",
        seed=4, init=Gaussian(0.3), record_stride=5,
    )
    assert SimConfig.from_dict(doc) == config
    assert config.to_dict() == doc


# floats whose text is easy to get wrong: signed zeros and infinities, nan,
# subnormals, the extremes and a value that needs all 17 digits
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310,
           2.2250738585072014e-308, 1.7e308, -1.7e308, 1.7976931348623157e308, 1.0 / 3.0]


def assert_g17(values):
    """``g17_rows`` writes each value as ``"%.17g" % x`` does, byte for byte."""
    values = np.asarray(values, dtype=np.float64).ravel()
    got = _codec.text(_codec.g17_rows(values, "\n"))
    expected = ("%.17g\n" * values.size) % tuple(values.tolist())
    if got != expected:
        # the first value written wrongly, rather than a diff of two long strings
        for value, line in zip(values.tolist(), got.splitlines()):
            assert line == "%.17g" % value, repr(value)
        assert got == expected


def test_g17_rows_on_random_bit_patterns():
    # every bit pattern is a double: all exponents, subnormals, infs and nans
    bits = np.random.default_rng(27).integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    assert np.isnan(values).any() and (np.abs(values) < 2.2250738585072014e-308).any()
    assert_g17(np.concatenate([values, SPECIAL]))


def test_g17_rows_on_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{e}") for e in range(-307, 309)])
    neighbours = [np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)]
    assert_g17(np.concatenate([sign * v for sign in (1.0, -1.0) for v in neighbours]))


def _exact_ties():
    """The doubles m 2^-e (m odd, below 2^12) whose 18 significant digits
    end in 5: exactly halfway between two texts of 17 digits."""
    ties = []
    for e in range(20, 80):
        for m in range(1, 2**12, 2):
            digits = str(m * 5**e).rstrip("0")
            if len(digits) == 18 and digits[-1] == "5":
                ties.append(m * 2.0**-e)
    return ties


def test_g17_rows_on_exact_ties():
    ties = _exact_ties()
    assert 2.0**-25 in ties and len(ties) > 100
    assert_g17(ties + [-t for t in ties])
    assert _codec.text(_codec.g17_rows([2.0**-25], "\n")) == "2.9802322387695312e-08\n"


def test_g17_rows_on_integers_and_signed_zeros():
    assert_g17(np.concatenate([np.arange(-10**5, 10**5 + 1), [0.0, -0.0]]))


@pytest.mark.parametrize("switch", [1e-5, 1e-4, 1e16, 1e17])
def test_g17_rows_at_the_notation_switches(switch):
    # %g turns from fixed to scientific form below 1e-4 and from 1e17 up
    near = [switch * (1 + d) for d in (-1e-12, -1e-15, 0.0, 1e-15, 1e-12)]
    for direction in (0.0, math.inf):
        value = switch
        for _ in range(50):
            value = float(np.nextafter(value, direction))
            near.append(value)
    assert_g17(near + [-v for v in near])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_g17_rows_on_any_float(values):
    assert_g17(values)


def test_g17_rows_ends_and_shape():
    values = np.array([[1.5, -0.0], [math.nan, 1e300]])
    rows = _codec.g17_rows(values, [",", "\r\n"])
    assert rows.shape == (2, 2, _codec.FIELD_BYTES)
    assert _codec.text(rows) == "1.5,-0\r\nnan,1.0000000000000001e+300\r\n"
    assert _codec.text(rows[1, 0]) == "nan,"


@settings(max_examples=30, deadline=None)
@given(
    cols=st.integers(1, 7),
    offset=st.sampled_from([-1, 0, 1]),
    newline=st.sampled_from(["\n", "\r\n"]),
    seed=st.integers(0, 2**32 - 1),
    planted=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                               st.sampled_from(SPECIAL) | st.floats()), max_size=40),
)
def test_table_lines_equal_the_per_field_text(cols, offset, newline, seed, planted):
    # magnitudes from the subnormals to 1e308, either sign, with the drawn
    # floats planted at random places; the rows end one before, at or one
    # after a block's end
    block = _codec.BLOCK_FIELDS // cols
    rows = block + offset
    rng = np.random.default_rng(seed)
    values = (rng.choice([-1.0, 1.0], size=(rows, cols)) * rng.uniform(1.0, 10.0, (rows, cols))
              * 10.0 ** rng.integers(-323, 308, (rows, cols)))
    for place, value in planted:
        values.flat[int(place * values.size)] = value
    blocks = list(_codec.table_lines(values, newline))
    assert len(blocks) == -(-rows // block)
    # line by line, so that a failure does not diff two 100 kB strings
    lines = "".join(blocks).splitlines(True)
    assert len(lines) == rows
    for line, row in zip(lines, values.tolist()):
        for spell in ("%.17g".__mod__, lambda v: format(v, ".17g")):
            assert line == ",".join(map(spell, row)) + newline
