import math

import numpy as np
import pytest

from gromon import MeasureNetwork, MongeMap, simplex_network
from gromon.randgen import random_cloud, random_coupling, random_graph, random_metric_network
from gromon import serialize
from gromon.serialize import FormatError
from gromon.solvers import SolveReport


def test_network_round_trip(tmp_path):
    net = random_metric_network(5, 1)
    path = tmp_path / "net.json"
    serialize.save_network(str(path), net)
    back = serialize.load_network(str(path))
    assert np.array_equal(back.weights, net.weights)
    assert np.array_equal(back.omega, net.omega)


@pytest.mark.parametrize("labels", [np.array([1, 2]), np.array(["a", "b"])],
                         ids=["int", "str"])
def test_ndarray_labels_round_trip(tmp_path, labels):
    # numpy scalars are not JSON numbers or strings: labels are read as plain values
    net = MeasureNetwork([0.5, 0.5], [[0, 1], [1, 0]], labels=labels)
    assert net.labels == tuple(labels.tolist())
    path = tmp_path / "net.json"
    serialize.save_network(str(path), net)
    assert serialize.load_network(str(path)).labels == tuple(labels.tolist())


def test_network_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"weights": [0.5, 0.5]}')
    with pytest.raises(FormatError, match="omega"):
        serialize.load_network(str(path))


def test_malformed_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"weights": [0.5,,]}')
    with pytest.raises(FormatError, match="line 1"):
        serialize.load_network(str(path))


def test_coupling_round_trip(tmp_path):
    net = simplex_network(3)
    pi = random_coupling(net.weights, net.weights, 2)
    path = tmp_path / "pi.json"
    serialize.save_text(str(path), serialize.dumps_canonical(serialize.coupling_to_dict(pi)))
    back = serialize.load_coupling(str(path), net.weights, net.weights)
    assert np.allclose(back.table, pi.table)


def test_cloud_round_trip(tmp_path):
    cloud = random_cloud(4, 3, 7)
    path = tmp_path / "cloud.json"
    serialize.save_cloud(str(path), cloud)
    back = serialize.load_cloud(str(path))
    assert np.array_equal(back.points, cloud.points)
    assert back.dim == 3


def test_cloud_dim_mismatch(tmp_path):
    path = tmp_path / "cloud.json"
    path.write_text('{"dim": 2, "points": [[0.0], [1.0]], "weights": [0.5, 0.5]}')
    with pytest.raises(FormatError, match="dim"):
        serialize.load_cloud(str(path))


def test_graph_json_round_trip(tmp_path):
    g = random_graph(6, 3)
    path = tmp_path / "g.json"
    serialize.save_graph(str(path), g)
    back = serialize.load_graph(str(path))
    assert back.n == g.n
    assert back.edges == g.edges


def test_graph_edge_list_format(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# comment line\n0 1\n1 2 0.5\n")
    g = serialize.load_graph(str(path))
    assert g.n == 3
    assert g.edges == ((0, 1), (1, 2))
    assert g.weights == (1.0, 0.5)


def test_graph_edge_list_bad_line(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n0 oops\n")
    with pytest.raises(FormatError, match="line 2"):
        serialize.load_graph(str(path))


def test_report_serialization_finite_and_infinite():
    finite = SolveReport(0.25, MongeMap([0, 0, 1, 1]), "enumeration", 6, True)
    out = serialize.report_to_dict(finite)
    assert out["value"] == 0.25
    assert out["witness"] == {"assignment": [0, 0, 1, 1]}
    infeasible = SolveReport(math.inf, None, "enumeration", 0, True)
    out = serialize.report_to_dict(infeasible, meta={"command": "gm"})
    assert out["value"] == "inf"
    assert out["witness"] is None
    assert out["meta"] == {"command": "gm"}


def test_canonical_dump_is_stable():
    obj = {"b": [1.5, 2.25], "a": {"y": 1, "x": 2}}
    assert serialize.dumps_canonical(obj) == serialize.dumps_canonical(
        {"a": {"x": 2, "y": 1}, "b": [1.5, 2.25]})
