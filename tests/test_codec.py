"""The JSON codec of the records: round trips through JSON text, the wire
format pinned key by key, and files written before the codec existed."""

import json
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
    convergence_window=st.integers(0, 10**6),
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
