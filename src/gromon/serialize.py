"""JSON (and edge-list) readers/writers for every on-disk format.

Formats:

* network:  {"weights": [...], "omega": [[...]], "labels": optional}
* coupling: {"table": [[...]]}
* map:      {"assignment": [...]} (written only: witnesses, mass splits)
* cloud:    {"dim": d, "points": [[...]], "weights": [...]}
* isometry: {"rotation": [[...]], "translation": [...]}
* graph:    {"n": n, "edges": [[i, j], ...], "weights": optional}, or a
            plain text edge list with one "i j [w]" line per edge.

Infinite values serialize as the string "inf" (JSON has no infinity
literal).  ``dumps_canonical`` gives byte-stable output for a fixed input.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .euclidean import EuclideanCloud, Isometry
from .graphs import Graph, _integer
from .networks import Coupling, MeasureNetwork, MongeMap
from .solvers import MassSplit, SolveReport


class FormatError(ValueError):
    """A file exists but does not match the expected schema."""


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _require(obj: dict, key: str, path: str) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise FormatError(f"{path}: missing required field '{key}'")
    return obj[key]


def _build(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a ``TypeError``, ``ValueError`` or
    ``OverflowError`` from content of the wrong type or value re-raised as
    one ``FormatError`` that names ``path``."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: {exc}") from None


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return _build(path, fh.read)  # text that is not UTF-8 is a format error


def _load_json(path: str, text: str | None = None) -> Any:
    """The JSON value in ``path``, or in ``text`` when already read from it."""
    try:
        return json.loads(_read_text(path) if text is None else text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from None
    except RecursionError:
        raise FormatError(f"{path}: JSON nested too deeply") from None


def save_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# -- networks ---------------------------------------------------------------

def network_to_dict(net: MeasureNetwork) -> dict:
    out = {"weights": net.weights.tolist(), "omega": net.omega.tolist()}
    if net.labels is not None:
        out["labels"] = list(net.labels)
    return out


def network_from_dict(obj: dict, path: str = "<network>") -> MeasureNetwork:
    return _build(path, MeasureNetwork, _require(obj, "weights", path),
                  _require(obj, "omega", path), labels=obj.get("labels"))


def load_network(path: str) -> MeasureNetwork:
    return network_from_dict(_load_json(path), path)


def save_network(path: str, net: MeasureNetwork) -> None:
    save_text(path, dumps_canonical(network_to_dict(net)))


# -- couplings and maps -----------------------------------------------------

def coupling_to_dict(pi: Coupling) -> dict:
    return {"table": pi.table.tolist()}


def load_coupling(path: str, source_weights, target_weights) -> Coupling:
    return _build(path, Coupling, _require(_load_json(path), "table", path),
                  source_weights, target_weights)


def map_to_dict(phi: MongeMap) -> dict:
    return {"assignment": phi.assignment.tolist()}


# -- clouds and isometries --------------------------------------------------

def cloud_to_dict(cloud: EuclideanCloud) -> dict:
    return {"dim": cloud.dim, "points": cloud.points.tolist(),
            "weights": cloud.weights.tolist()}


def load_cloud(path: str) -> EuclideanCloud:
    obj = _load_json(path)
    cloud = _build(path, EuclideanCloud, _require(obj, "points", path),
                   _require(obj, "weights", path))
    if "dim" in obj and _build(path, _integer, obj["dim"], "declared dim") != cloud.dim:
        raise FormatError(f"{path}: declared dim {obj['dim']!r} does not match "
                          f"point width {cloud.dim}")
    return cloud


def save_cloud(path: str, cloud: EuclideanCloud) -> None:
    save_text(path, dumps_canonical(cloud_to_dict(cloud)))


def isometry_to_dict(iso: Isometry) -> dict:
    return {"rotation": iso.rotation.tolist(),
            "translation": iso.translation.tolist()}


# -- graphs -----------------------------------------------------------------

def graph_to_dict(g: Graph) -> dict:
    out = {"n": g.n, "edges": [list(e) for e in g.edges]}
    if g.weights is not None:
        out["weights"] = list(g.weights)
    return out


def graph_from_dict(obj: dict, path: str = "<graph>") -> Graph:
    # Graph checks n and normalizes the edge and weight lists itself
    return _build(path, Graph, _require(obj, "n", path), _require(obj, "edges", path),
                  obj.get("weights"))


def _parse_edge_list(text: str, path: str) -> Graph:
    edges, weights = [], []
    any_weight = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise FormatError(f"{path}: line {lineno}: expected 'i j [w]', got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else None
        except ValueError:
            raise FormatError(f"{path}: line {lineno}: bad number in {raw!r}") from None
        edges.append((i, j))
        weights.append(1.0 if w is None else w)
        any_weight = any_weight or w is not None
    if not edges:
        raise FormatError(f"{path}: empty edge list")
    n = max(max(i, j) for i, j in edges) + 1
    return _build(path, Graph, n, tuple(edges), tuple(weights) if any_weight else None)


def load_graph(path: str) -> Graph:
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return graph_from_dict(_load_json(path, text), path)
    return _parse_edge_list(text, path)


def save_graph(path: str, g: Graph) -> None:
    save_text(path, dumps_canonical(graph_to_dict(g)))


# -- reports ----------------------------------------------------------------

def _value_to_json(v: float):
    return "inf" if math.isinf(v) else float(v)


def witness_to_dict(witness) -> dict | None:
    if witness is None:
        return None
    if isinstance(witness, Coupling):
        return coupling_to_dict(witness)
    if isinstance(witness, MongeMap):
        return map_to_dict(witness)
    raise TypeError(f"unknown witness type {type(witness)!r}")


def report_to_dict(report: SolveReport, meta: dict | None = None) -> dict:
    out = {
        "value": _value_to_json(report.value),
        "witness": witness_to_dict(report.witness),
        "method": report.method,
        "iterations": report.iterations,
        "converged": report.converged,
    }
    if report.transform is not None:
        out["transform"] = isometry_to_dict(report.transform)
    if meta:
        out["meta"] = dict(meta)
    return out


def mass_split_to_dict(split: MassSplit, value: float | None = None) -> dict:
    out = {
        "z": network_to_dict(split.Z),
        "rho": map_to_dict(split.rho),
        "phi": map_to_dict(split.phi),
    }
    if value is not None:
        out["value"] = _value_to_json(value)
    return out
