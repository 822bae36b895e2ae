import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gromon import MeasureNetwork, simplex_network
from gromon.randgen import random_cloud, random_isometry
from gromon import cli, serialize
from gromon.euclidean import EuclideanCloud

from conftest import child_env, near_equal_small_pair, skewed_pair


def run_cli(args, cwd, env=None):
    return subprocess.run([sys.executable, "-m", "gromon", *args],
                          capture_output=True, cwd=cwd, env=child_env(env))


@pytest.fixture()
def workdir(tmp_path):
    serialize.save_network(str(tmp_path / "delta2.json"), simplex_network(2))
    serialize.save_network(str(tmp_path / "delta3.json"), simplex_network(3))
    serialize.save_network(str(tmp_path / "delta4.json"), simplex_network(4))
    return tmp_path


def test_gm_simplex_value(workdir):
    proc = run_cli(["gm", "delta4.json", "delta2.json", "--p", "1"], workdir)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["value"] == pytest.approx(0.25, abs=1e-9)
    assert out["method"] == "enumeration"
    assert out["meta"]["p"] == 1.0


def test_gm_infeasible_exit_code(workdir):
    proc = run_cli(["gm", "delta3.json", "delta2.json", "--p", "2"], workdir)
    assert proc.returncode == 2
    assert b"no measure-preserving map" in proc.stderr
    assert json.loads(proc.stdout)["value"] == "inf"


def test_gm_inf_exponent_reports_eps(workdir):
    proc = run_cli(["gm", "delta2.json", "delta2.json", "--p", "inf"], workdir)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["value"] == 0.0
    assert out["meta"]["p"] == "inf"
    assert out["meta"]["eps_supp"] == 1e-12


def test_gm_csv_and_plain_formats(workdir):
    proc = run_cli(["gm", "delta4.json", "delta2.json", "--p", "1",
                    "--format", "csv"], workdir)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.decode().strip().splitlines()
    assert lines[0] == "command,p,value,converged,iterations,seed"
    assert lines[1].startswith("gm,1.0,0.25,True,6,")
    proc = run_cli(["gm", "delta4.json", "delta2.json", "--p", "1",
                    "--format", "plain"], workdir)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().startswith("value 0.25 ")


def test_missing_file_exit_one(workdir):
    proc = run_cli(["gm", "nope.json", "delta2.json"], workdir)
    assert proc.returncode == 1
    assert b"error:" in proc.stderr


def test_bad_flag_exit_one(workdir):
    proc = run_cli(["rand", "--kind", "spd", "--n", "4", "--seed", "-3",
                    "--out", "x.json"], workdir)
    assert proc.returncode == 1
    assert b"unsigned 64-bit" in proc.stderr
    proc = run_cli(["gm", "delta2.json", "delta2.json", "--p", "0.5"], workdir)
    assert proc.returncode == 1
    assert b"p >= 1" in proc.stderr


def test_malformed_file_diagnostics(workdir):
    (workdir / "bad.json").write_text('{"weights": [0.5,,]}')
    proc = run_cli(["gm", "bad.json", "delta2.json"], workdir)
    assert proc.returncode == 1
    assert b"line 1" in proc.stderr


# one missing field, and fields of the wrong JSON type, for each file format
MALFORMED = [
    pytest.param("network", b'{"weights": [0.5, 0.5]}', id="network-no-omega"),
    pytest.param("network", b'{"weights": [0.5, 0.5], "omega": {}}', id="network-omega-dict"),
    pytest.param("network", b'{"weights": [0.5, 0.5], "omega": [[0, 1], [1, 0]], "labels": 5}',
                 id="network-labels-int"),
    pytest.param("network", b'\xff{}', id="network-not-utf8"),
    pytest.param("network", b'[' * 100_000, id="network-nested-too-deeply"),
    pytest.param("coupling", b'{}', id="coupling-no-table"),
    pytest.param("coupling", b'{"table": {}}', id="coupling-table-dict"),
    pytest.param("cloud", b'{"dim": 1, "weights": [0.5, 0.5]}', id="cloud-no-points"),
    pytest.param("cloud", b'{"dim": 1, "points": {}, "weights": [0.5, 0.5]}',
                 id="cloud-points-dict"),
    pytest.param("cloud", b'{"dim": null, "points": [[0.0], [1.0]], "weights": [0.5, 0.5]}',
                 id="cloud-dim-null"),
    pytest.param("graph", b'{"n": 2}', id="graph-no-edges"),
    pytest.param("graph", b'{"n": 2, "edges": 5}', id="graph-edges-int"),
    pytest.param("graph", b'{"n": Infinity, "edges": [[0, 1]]}', id="graph-n-infinite"),
    pytest.param("graph", b'{"n": 2.7, "edges": [[0, 1]]}', id="graph-n-fractional"),
    pytest.param("graph", b'{"n": "3", "edges": [[0, 1]]}', id="graph-n-string"),
    pytest.param("graph", b'{"n": 2, "edges": [[0.7, 1.2]]}', id="graph-edge-fractional"),
    pytest.param("cloud", b'{"dim": 1.5, "points": [[0.0], [1.0]], "weights": [0.5, 0.5]}',
                 id="cloud-dim-fractional"),
    pytest.param("cloud", b'{"dim": "2", "points": [[0.0, 0.0], [1.0, 1.0]], '
                 b'"weights": [0.5, 0.5]}', id="cloud-dim-string"),
    pytest.param("network", b'{"weights": [0.5, 0.5], "omega": [[0, 1], [1, 0]], "labels": "ab"}',
                 id="network-labels-string"),
    pytest.param("network", b'{"weights": [0.5, 0.5], "omega": [[0, 1], [1, 0]], '
                 b'"labels": {"a": 1, "b": 2}}', id="network-labels-dict"),
    pytest.param("graph", b'{"n": true, "edges": []}', id="graph-n-bool"),
    pytest.param("graph", b'{"n": 2, "edges": [[false, true]]}', id="graph-edge-bool"),
    pytest.param("cloud", b'{"dim": true, "points": [[0.0], [1.0]], "weights": [0.5, 0.5]}',
                 id="cloud-dim-bool"),
    pytest.param("graph", b'{"n": 3, "edges": [[0, 1], [1, 2]], "weights": "12"}',
                 id="graph-weights-string"),
    pytest.param("graph", b'{"n": 3, "edges": [[0, 1], [1, 2]], "weights": {"1": 0, "2": 0}}',
                 id="graph-weights-dict"),
    pytest.param("graph", b'{"n": 2, "edges": [[0, 1]], "weights": [true]}',
                 id="graph-weight-bool"),
    pytest.param("graph", b'{"n": 2, "edges": [[0, 1]], "weights": [NaN]}', id="graph-weight-nan"),
    pytest.param("graph", b'{"n": 2, "edges": [[0, 1]], "weights": [Infinity]}',
                 id="graph-weight-infinite"),
    pytest.param("graph", b'{"n": 3, "edges": [[0, 1, 2]]}', id="graph-edge-triple"),
    pytest.param("graph", b'0 1 nan\n', id="graph-edge-list-weight-nan"),
    pytest.param("graph", b'0 1 inf\n', id="graph-edge-list-weight-infinite"),
    # numeric fields that numpy would parse (strings) or upcast (bools)
    pytest.param("network", b'{"weights": ["0.5", "0.5"], "omega": [["0", "1"], ["1", "0"]]}',
                 id="network-numbers-as-strings"),
    pytest.param("network", b'{"weights": [true], "omega": [[false]]}', id="network-bools"),
    pytest.param("cloud", b'{"dim": 2, "points": [["1", "2"], [true, 0]], "weights": [0.5, 0.5]}',
                 id="cloud-points-strings-and-bool"),
    pytest.param("coupling", b'{"table": [["0.5", "0"], ["0", "0.5"]]}', id="coupling-strings"),
]

HALVES = [0.5, 0.5]
READERS = {
    "network": (["gm", "bad.json", "delta2.json"], serialize.load_network),
    "coupling": (["split", "delta2.json", "delta2.json", "bad.json"],
                 lambda path: serialize.load_coupling(path, HALVES, HALVES)),
    "cloud": (["miso", "bad.json", "bad.json"], serialize.load_cloud),
    "graph": (["heat", "bad.json", "--t", "1"], serialize.load_graph),
}


@pytest.mark.parametrize("kind,content", MALFORMED)
def test_malformed_field_is_one_line_input_error(workdir, monkeypatch, capsys, kind, content):
    (workdir / "bad.json").write_bytes(content)
    argv, load = READERS[kind]
    monkeypatch.chdir(workdir)
    # in process: an exception escaping main() (a traceback) fails the test
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: bad.json: ")
    assert captured.err.count("bad.json") == 1
    with pytest.raises(serialize.FormatError):
        load("bad.json")


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_gm_non_positive_cap_is_one_line_input_error(workdir, monkeypatch, capsys, cap):
    monkeypatch.chdir(workdir)
    assert cli.main(["gm", "delta2.json", "delta2.json", "--cap", cap]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cap must be >= 1, got {cap}\n"


def test_gw_command(workdir):
    # the product coupling is stationary for a self-comparison; a diagonal
    # start certifies the true zero
    diag = np.diag(simplex_network(4).weights)
    (workdir / "diag.json").write_text(json.dumps({"table": diag.tolist()}))
    proc = run_cli(["gw", "delta4.json", "delta4.json", "--init", "diag.json"],
                   workdir)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert out["method"] == "frank_wolfe"
    assert out["value"] <= 1e-10
    plain = run_cli(["gw", "delta4.json", "delta2.json"], workdir)
    assert plain.returncode == 0
    assert json.loads(plain.stdout)["converged"]


def test_gw_overflowing_tables_exit_one(workdir):
    big = MeasureNetwork(np.full(3, 1 / 3), simplex_network(3).omega * 1e160)
    serialize.save_network(str(workdir / "big.json"), big)
    proc = run_cli(["gw", "big.json", "big.json"], workdir)
    assert proc.returncode == 1
    assert proc.stdout == b""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and b"overflows" in lines[0]


def _save_overflow_inputs(workdir):
    """Inputs whose distortions or registration costs overflow float64."""
    serialize.save_network(str(workdir / "big.json"), MeasureNetwork(
        np.full(3, 1 / 3), simplex_network(3).omega * 1e200))
    spd = np.array([[3.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 3.0]])
    serialize.save_network(str(workdir / "spd.json"), MeasureNetwork(np.full(3, 1 / 3), spd))
    serialize.save_network(str(workdir / "spd_big.json"),
                           MeasureNetwork(np.full(3, 1 / 3), spd * 1e200))
    small = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    for name, far in (("small", 1.0), ("far200", 1e200), ("far308", 1e308)):
        serialize.save_cloud(str(workdir / f"{name}.json"),
                             EuclideanCloud([*small[:2], [0.0, far]], [1 / 3] * 3))


@pytest.mark.parametrize("argv", [
    ["gm", "big.json", "delta3.json", "--p", "2"],
    ["spd", "spd_big.json", "spd.json"],
    ["miso", "far200.json", "small.json", "--p", "1"],
    ["miso", "small.json", "far308.json"],
], ids=["gm", "spd", "miso-1e200", "miso-1e308"])
def test_overflowing_inputs_exit_one(workdir, argv):
    _save_overflow_inputs(workdir)
    proc = run_cli(argv, workdir)
    assert proc.returncode == 1
    assert proc.stdout == b""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and b"overflows" in lines[0]
    assert b"RuntimeWarning" not in proc.stderr


def test_gm_sup_distance_of_overflow_input_is_finite(workdir):
    # the maps exist: at p = inf no power is taken and the value is finite
    _save_overflow_inputs(workdir)
    proc = run_cli(["gm", "big.json", "delta3.json", "--p", "inf"], workdir)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == 1e200
    assert proc.stderr == b""


@pytest.mark.parametrize("flags,message", [(["--max-iters", "-3"], b"max_iters"),
                                           (["--tol", "nan"], b"tol_fw"),
                                           (["--tol", "-1"], b"tol_fw")])
def test_gw_bad_iteration_settings_exit_one(workdir, flags, message):
    proc = run_cli(["gw", "delta4.json", "delta2.json", *flags], workdir)
    assert proc.returncode == 1
    assert message in proc.stderr
    assert b"Traceback" not in proc.stderr
    assert proc.stdout == b""


def test_gm_indivisible_uniform_pair_exit_code(workdir):
    serialize.save_network(str(workdir / "delta23.json"), simplex_network(23))
    proc = run_cli(["gm", "delta23.json", "delta2.json", "--p", "2"], workdir)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["iterations"] == 0


def test_gm_near_equal_small_weights_exit_zero(workdir):
    for name, net in zip(("x.json", "y.json"), near_equal_small_pair()):
        serialize.save_network(str(workdir / name), net)
    proc = run_cli(["gm", "x.json", "y.json"], workdir)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == pytest.approx(1e-3, rel=1e-9)


def test_gw_marginal_totals_apart_exit_zero(workdir):
    for name, net in zip(("x.json", "y.json"), skewed_pair(0)):
        serialize.save_network(str(workdir / name), net)
    proc = run_cli(["gw", "x.json", "y.json"], workdir)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["method"] == "frank_wolfe"


def test_rand_round_trip_and_determinism(workdir):
    for kind, loader in (("spd", serialize.load_network),
                         ("metric", serialize.load_network),
                         ("cloud", serialize.load_cloud),
                         ("graph", serialize.load_graph)):
        a = run_cli(["rand", "--kind", kind, "--n", "5", "--seed", "9",
                     "--out", "a.json"], workdir)
        assert a.returncode == 0, a.stderr
        loader(str(workdir / "a.json"))  # every written file reads back
        b = run_cli(["rand", "--kind", kind, "--n", "5", "--seed", "9",
                     "--out", "b.json"], workdir)
        assert b.returncode == 0, b.stderr
        assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes()


def test_rand_seed_from_environment(workdir):
    proc = run_cli(["rand", "--kind", "metric", "--n", "4", "--out", "env.json"],
                   workdir, env={"GROMON_SEED": "77"})
    assert proc.returncode == 0, proc.stderr
    proc = run_cli(["rand", "--kind", "metric", "--n", "4", "--seed", "77",
                    "--out", "flag.json"], workdir)
    assert proc.returncode == 0, proc.stderr
    assert (workdir / "env.json").read_bytes() == (workdir / "flag.json").read_bytes()


@pytest.mark.parametrize("edge_prob", ["1.5", "nan"])
def test_rand_graph_bad_edge_prob_exit_one(workdir, edge_prob):
    proc = run_cli(["rand", "--kind", "graph", "--n", "4", "--edge-prob", edge_prob,
                    "--out", "g.json"], workdir)
    assert proc.returncode == 1
    assert b"edge_prob must be in [0, 1]" in proc.stderr
    assert b"Traceback" not in proc.stderr
    assert not (workdir / "g.json").exists()


def test_spd_command(workdir):
    for seed, name in (("1", "x.json"), ("2", "y.json")):
        proc = run_cli(["rand", "--kind", "spd", "--n", "5", "--seed", seed,
                        "--out", name], workdir)
        assert proc.returncode == 0, proc.stderr
    proc = run_cli(["spd", "x.json", "y.json", "--restarts", "10", "--seed", "0"],
                   workdir)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert out["method"] == "vertex_ascent"
    assert sorted(out["witness"]["assignment"]) == list(range(5))


def test_heat_command_stdout_and_file(workdir):
    (workdir / "edge.txt").write_text("0 1\n")
    proc = run_cli(["heat", "edge.txt", "--t", "1.0"], workdir)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["weights"] == [0.5, 0.5]
    proc = run_cli(["heat", "edge.txt", "--t", "1.0", "--out", "hk.json"], workdir)
    assert proc.returncode == 0, proc.stderr
    net = serialize.load_network(str(workdir / "hk.json"))
    assert net.n == 2
    for t in ("-1", "nan"):
        proc2 = run_cli(["heat", "edge.txt", "--t", t], workdir)
        assert proc2.returncode == 1
        assert b"t must be positive" in proc2.stderr


def test_spd_numerically_singular_heat_kernel_is_input_error(workdir):
    # the complete graph K16 at t = 3: SPD in exact arithmetic, singular in floats
    lines = [f"{i} {j}" for i in range(16) for j in range(i + 1, 16)]
    (workdir / "k16.txt").write_text("\n".join(lines) + "\n")
    proc = run_cli(["heat", "k16.txt", "--t", "3", "--out", "k16.json"], workdir)
    assert proc.returncode == 0, proc.stderr
    proc = run_cli(["spd", "k16.json", "k16.json"], workdir)
    assert proc.returncode == 1
    assert b"not positive definite (Cholesky failed)" in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_split_command(workdir):
    table = {"table": [[0.5, 0.5]]}
    (workdir / "pi.json").write_text(json.dumps(table))
    serialize.save_network(str(workdir / "point.json"), simplex_network(1))
    proc = run_cli(["split", "point.json", "delta2.json", "pi.json", "--p", "2"],
                   workdir)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert out["value"] == pytest.approx(2 ** -0.5, abs=1e-12)
    assert out["phi"] == {"assignment": [0, 1]}
    assert out["z"]["weights"] == [0.5, 0.5]


def test_miso_command(workdir):
    cloud = random_cloud(6, 2, 3)
    moved = EuclideanCloud(random_isometry(2, 4).apply(cloud.points), cloud.weights)
    serialize.save_cloud(str(workdir / "x.json"), cloud)
    serialize.save_cloud(str(workdir / "y.json"), moved)
    proc = run_cli(["miso", "x.json", "y.json", "--restarts", "10", "--seed", "0"],
                   workdir)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert out["value"] <= 1e-6
    assert "rotation" in out["transform"]


@pytest.mark.parametrize("restarts", ["0", "-7"])
def test_miso_bad_restarts_exit_one(workdir, restarts):
    serialize.save_cloud(str(workdir / "c.json"), random_cloud(4, 2, 3))
    proc = run_cli(["miso", "c.json", "c.json", "--restarts", restarts], workdir)
    assert proc.returncode == 1
    assert b"restarts must be >= 1" in proc.stderr
    assert proc.stdout == b""


def test_miso_unsupported_weighting_is_input_error(workdir):
    z = EuclideanCloud([[0.0], [1.0]], [0.25, 0.75])
    serialize.save_cloud(str(workdir / "z.json"), z)
    proc = run_cli(["miso", "z.json", "z.json"], workdir)
    assert proc.returncode == 1
    assert b"unsupported weighting" in proc.stderr
    assert b"no measure-preserving map" not in proc.stderr


# flags a subcommand would ignore: --threads everywhere (no solver takes a
# thread count), --format where no solver report is printed
@pytest.mark.parametrize("argv", [
    *([*argv, "--threads", "2"] for argv in (
        ["gm", "a", "b"], ["gw", "a", "b"], ["spd", "a", "b"], ["miso", "a", "b"],
        ["heat", "g", "--t", "1"], ["split", "a", "b", "c"],
        ["rand", "--kind", "spd", "--n", "3", "--out", "o"], ["suite"])),
    ["heat", "g", "--t", "1", "--format", "json"],
    ["split", "a", "b", "c", "--format", "json"],
    ["rand", "--kind", "spd", "--n", "3", "--out", "o", "--format", "json"],
    ["suite", "--format", "json"],
])
def test_threads_flag_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args(argv)
    assert exc.value.code == 1
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["gm", "a", "b"], ["gw", "a", "b"],
                                  ["spd", "a", "b"], ["miso", "a", "b"]])
def test_format_flag_on_report_commands(argv):
    assert cli._build_parser().parse_args([*argv, "--format", "csv"]).format == "csv"


def test_readme_lists_the_flags_of_each_subcommand():
    # the README's flag table has one row per subcommand, naming exactly the
    # flags that subcommand's parser takes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        row = re.search(rf"^\| `{name}` +\|(.*)$", readme, re.M)
        assert row, f"no README flag row for {name}"
        flags = {f for a in sub._actions for f in a.option_strings if f.startswith("--")}
        assert set(re.findall(r"--[a-z][a-z-]*", row[1])) == flags - {"--help"}, name


def test_bad_seed_environment_fails_only_seeded_commands(monkeypatch, capsys):
    monkeypatch.setenv("GROMON_SEED", "abc")
    parser = cli._build_parser()
    assert parser.parse_args(["gm", "a", "b"]).command == "gm"
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["rand", "--kind", "spd", "--n", "3", "--out", "o"])
    assert exc.value.code == 1
    assert "argument --seed" in capsys.readouterr().err


def test_deterministic_solver_output(workdir):
    args = ["gm", "delta4.json", "delta2.json", "--p", "2"]
    first, second = run_cli(args, workdir), run_cli(args, workdir)
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr
    assert first.stdout
    assert first.stdout == second.stdout
