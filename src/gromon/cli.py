"""Command-line front end.

Exit codes: 0 on success, 1 on input errors (with a diagnostic on stderr),
2 when a requested Monge distance is infinite (no measure-preserving map).
Output is deterministic for fixed inputs, flags and seed; the seed defaults
to the GROMON_SEED environment variable, then 0.  ``--format`` exists only on
the commands that print a solver report (gm, gw, spd, miso), ``--seed`` only
on the seeded ones (spd, miso, rand).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import serialize
from .euclidean import m_iso
from .graphs import heat_kernel_network
from .networks import parse_exponent
from .randgen import (
    random_cloud,
    random_graph,
    random_metric_network,
    random_spd_network,
)
from .solvers import (
    DEFAULT_CAP,
    gm_exact,
    gm_over_split,
    gw_frank_wolfe,
    gw_spd_vertex_ascent,
    mass_split_from_coupling,
)

INFEASIBLE_EXIT = 2


class _Parser(argparse.ArgumentParser):
    # bad flags are input errors (exit 1); exit 2 is reserved for infeasibility
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gromon",
        description="Gromov-Wasserstein / Gromov-Monge distances between "
                    "finite measure networks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gm = subs.add_parser("gm", help="exact Gromov-Monge distance by enumeration")
    gm.add_argument("source")
    gm.add_argument("target")
    gm.add_argument("--p", default="2")
    gm.add_argument("--cap", type=int, default=DEFAULT_CAP)

    gw = subs.add_parser("gw", help="Frank-Wolfe upper bound on order-2 GW")
    gw.add_argument("source")
    gw.add_argument("target")
    gw.add_argument("--init", help="optional coupling JSON used as the start")
    gw.add_argument("--max-iters", type=int, default=1000)
    gw.add_argument("--tol", type=float, default=1e-12)

    spd = subs.add_parser("spd", help="vertex ascent for SPD uniform networks")
    spd.add_argument("source")
    spd.add_argument("target")
    spd.add_argument("--restarts", type=int, default=20)

    miso = subs.add_parser("miso", help="isometry-invariant registration of clouds")
    miso.add_argument("source")
    miso.add_argument("target")
    miso.add_argument("--p", default="2")
    miso.add_argument("--restarts", type=int, default=20)
    miso.add_argument("--max-alternations", type=int, default=100)

    heat = subs.add_parser("heat", help="heat-kernel network of a graph")
    heat.add_argument("graph")
    heat.add_argument("--t", type=float, required=True,
                      help="diffusion time (no default on purpose)")
    heat.add_argument("--out", help="write the network here instead of stdout")

    split = subs.add_parser("split", help="mass splitting of a coupling")
    split.add_argument("source")
    split.add_argument("target")
    split.add_argument("coupling")
    split.add_argument("--p", default="2")

    rand = subs.add_parser("rand", help="write a seeded random instance")
    rand.add_argument("--kind", choices=("spd", "metric", "cloud", "graph"),
                      required=True)
    rand.add_argument("--n", type=int, required=True)
    rand.add_argument("--dim", type=int)
    rand.add_argument("--edge-prob", type=float)
    rand.add_argument("--out", required=True)

    subs.add_parser("suite", help="run the acceptance criteria")

    for sub in (gm, gw, spd, miso):
        sub.add_argument("--format", choices=("json", "csv", "plain"), default="json")
    for sub in (spd, miso, rand):
        # a string default goes through _u64 too, so a bad GROMON_SEED is a
        # usage error of the seeded commands only
        sub.add_argument("--seed", type=_u64, default=os.environ.get("GROMON_SEED", "0"),
                         help="64-bit seed (default: GROMON_SEED or 0)")
    return parser


def _emit_report(report, args, p=None, seed=None) -> None:
    if args.format == "csv":
        p_txt = "" if p is None else ("inf" if math.isinf(p) else repr(p))
        seed_txt = "" if seed is None else str(seed)
        value = "inf" if math.isinf(report.value) else repr(report.value)
        print("command,p,value,converged,iterations,seed")
        print(f"{args.command},{p_txt},{value},{report.converged},"
              f"{report.iterations},{seed_txt}")
        return
    if args.format == "plain":
        value = "inf" if math.isinf(report.value) else repr(report.value)
        print(f"value {value} method={report.method} iterations={report.iterations} "
              f"converged={report.converged}")
        return
    meta = {"command": args.command}
    if p is not None:
        meta["p"] = "inf" if math.isinf(p) else p
    if seed is not None:
        meta["seed"] = seed
    sys.stdout.write(serialize.dumps_canonical(serialize.report_to_dict(report, meta)))


def _infeasible() -> int:
    print("no measure-preserving map between these weight vectors "
          "(distance is infinite)", file=sys.stderr)
    return INFEASIBLE_EXIT


def _cmd_gm(args) -> int:
    p = parse_exponent(args.p)
    net_x = serialize.load_network(args.source)
    net_y = serialize.load_network(args.target)
    report = gm_exact(net_x, net_y, p, args.cap)
    _emit_report(report, args, p=p)
    return _infeasible() if math.isinf(report.value) else 0


def _cmd_gw(args) -> int:
    net_x = serialize.load_network(args.source)
    net_y = serialize.load_network(args.target)
    init = None
    if args.init:
        init = serialize.load_coupling(args.init, net_x.weights, net_y.weights)
    report = gw_frank_wolfe(net_x, net_y, init=init, max_iters=args.max_iters,
                            tol_fw=args.tol)
    _emit_report(report, args, p=2.0)
    return 0


def _cmd_spd(args) -> int:
    net_x = serialize.load_network(args.source)
    net_y = serialize.load_network(args.target)
    report = gw_spd_vertex_ascent(net_x, net_y, restarts=args.restarts,
                                  seed=args.seed)
    _emit_report(report, args, p=2.0, seed=args.seed)
    return 0


def _cmd_miso(args) -> int:
    p = parse_exponent(args.p)
    x = serialize.load_cloud(args.source)
    y = serialize.load_cloud(args.target)
    report = m_iso(x, y, p=p, restarts=args.restarts, seed=args.seed,
                   max_alternations=args.max_alternations)
    _emit_report(report, args, p=p, seed=args.seed)
    return _infeasible() if math.isinf(report.value) else 0


def _cmd_heat(args) -> int:
    g = serialize.load_graph(args.graph)
    net = heat_kernel_network(g, args.t)
    text = serialize.dumps_canonical(serialize.network_to_dict(net))
    if args.out:
        serialize.save_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_split(args) -> int:
    p = parse_exponent(args.p)
    net_x = serialize.load_network(args.source)
    net_y = serialize.load_network(args.target)
    pi = serialize.load_coupling(args.coupling, net_x.weights, net_y.weights)
    split = mass_split_from_coupling(net_x, net_y, pi)
    value = gm_over_split(net_x, net_y, pi, p)
    sys.stdout.write(serialize.dumps_canonical(
        serialize.mass_split_to_dict(split, value)))
    return 0


def _cmd_rand(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    # --dim and --edge-prob act on one kind each: a default there, an input error elsewhere
    for name, kind, default in (("dim", "cloud", 2), ("edge_prob", "graph", 0.5)):
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif args.kind != kind:
            raise ValueError(f"--{name.replace('_', '-')} applies only to --kind {kind}")
    if args.kind == "spd":
        serialize.save_network(args.out, random_spd_network(args.n, args.seed))
    elif args.kind == "metric":
        serialize.save_network(args.out, random_metric_network(args.n, args.seed))
    elif args.kind == "cloud":
        serialize.save_cloud(args.out, random_cloud(args.n, args.dim, args.seed))
    else:
        serialize.save_graph(args.out, random_graph(args.n, args.seed, args.edge_prob))
    print(f"wrote {args.out}")
    return 0


def _cmd_suite(args) -> int:
    from .acceptance import run_all  # only this command loads the suite
    results = run_all(stream=sys.stdout)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 0 if not failed else 1


_COMMANDS = {
    "gm": _cmd_gm,
    "gw": _cmd_gw,
    "spd": _cmd_spd,
    "miso": _cmd_miso,
    "heat": _cmd_heat,
    "split": _cmd_split,
    "rand": _cmd_rand,
    "suite": _cmd_suite,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # an input too large for this machine
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
