import json

import numpy as np
import pytest

from oracles import encode_x
from wfock import jsonio
from wfock.cli import RunConfig, run
from wfock.fock import TruncatedFock, weighted_creation
from wfock.graphs import CorrElement, GraphCorrespondence
from wfock.induced import InducedSpace, Representation
from wfock.linalg import residual, rng_complex
from wfock.weights import AdmissibleSequence, weight_system_from

CYCLE2 = GraphCorrespondence.cycle(2)


def test_matrix_round_trip():
    rng = np.random.default_rng(0)
    m = rng_complex(rng, 3, 2)
    back = jsonio.decode_matrix(jsonio.encode_matrix(m))
    assert np.allclose(back, m)
    # plain reals are accepted on decode
    assert np.allclose(jsonio.decode_matrix([[1.0, 2.0]]), np.array([[1.0, 2.0]]))


def test_graph_round_trip():
    g = jsonio.decode_graph(jsonio.encode_graph(CYCLE2))
    assert g == CYCLE2
    with pytest.raises(ValueError):
        jsonio.decode_graph({"vertices": 2})


def test_x_round_trip_matrices():
    x = AdmissibleSequence.from_scalar(CYCLE2, [0.5, 1 / 12], levels=3)
    blob = encode_x(x)
    back = jsonio.decode_x(json.loads(json.dumps(blob)), CYCLE2, 3)
    for k in range(4):
        assert residual(back.X[k], x.X[k]) < 1e-14


def test_explicit_weights_decode():
    x = AdmissibleSequence.from_scalar(CYCLE2, [0.5, 1 / 12], levels=3)
    ws = weight_system_from(x)
    blob = jsonio.encode_weights(ws)
    back = jsonio.decode_weights({"matrices": blob["matrices"]}, x)
    for k in range(4):
        assert residual(back.Z[k], ws.Z[k]) < 1e-12
    bad = {"matrices": {str(k): jsonio.encode_matrix(2.0 * ws.Z[k]) for k in range(1, 4)}}
    with pytest.raises(ValueError):
        jsonio.decode_weights(bad, x)


def test_fock_operator_dump():
    x = AdmissibleSequence.from_scalar(CYCLE2, [1.0], levels=3)
    ws = weight_system_from(x)
    space = TruncatedFock(CYCLE2, 3)
    op = weighted_creation(space, ws, CorrElement.basis_vector(CYCLE2, 1, 0))
    dump = jsonio.encode_fock_operator(op)
    assert dump["degree"] == 1
    assert dump["shape"] == [space.dim, space.dim]
    for key in dump["blocks"]:
        i, j = map(int, key.split(","))
        assert i - j == 1


def test_basis_dump():
    dump = jsonio.encode_basis(CYCLE2, 2)
    assert dump == [[0, 1], [1, 0]]
    assert jsonio.encode_basis(CYCLE2, 0) == [[0], [1]]


def test_point_matrix_form_cli(tmp_path):
    # a graph-side kernel run with matrix-form points and multiplicities
    x = AdmissibleSequence.from_scalar(CYCLE2, [1.0], levels=4)
    ind = InducedSpace(CYCLE2, Representation((2, 1)), 4)
    rng = np.random.default_rng(3)
    zmat = np.zeros((3, ind.level_dim(1)), dtype=complex)
    for e in range(CYCLE2.n_edges):
        v = CYCLE2.range_(e)
        esl = slice(ind.block_offsets[1][e], ind.block_offsets[1][e + 1])
        zmat[ind.rep.block(v), esl] = rng_complex(rng, ind.rep.multiplicities[v],
                                                  esl.stop - esl.start)
    zmat *= 0.4 / np.linalg.norm(zmat, 2)
    obj = {"graph": jsonio.encode_graph(CYCLE2), "sigma": [2, 1],
           "X": {"scalar": [1.0]},
           "points": [{"matrix": jsonio.encode_matrix(zmat)}]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    code, report = run(RunConfig("kernel", input_path=str(path), N=4))
    assert code == 0
    assert report["kernel"]["0,0"]["cauchy_residual"]["value"] <= 1e-9
    assert report["neumann"]["0"]["phi_norm"] < 1.0
