"""gromon benchmark: end-to-end figures per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload graph_match --seed 1 --seconds 18 --trace 0

Run from the root of a checkout that holds ``src/gromon``; nothing needs to
be installed.  The seed is the only source of inputs: every instance comes
from ``gromon.randgen``.  Each run starts fresh worker processes one after
another (one closed-loop client, no concurrency), with BLAS/OpenMP pinned to
one thread and the absolute ``src`` path as ``PYTHONPATH``:

* ``--trace 0``: three untraced parts share the seconds.  Op times are
  pooled; throughput and set-up time are medians over the parts, peak RSS
  the largest.
* ``--trace 1``: one traced part and one untraced part share the seconds;
  per-layer figures come from the traced part, and the ratio of the two
  parts' throughput gives the tracing overhead.

Op times are seconds at a nominal host speed: each is scaled by how much
faster or slower than nominal a fixed reference ran around it, so that the
drifting speed of a shared host cancels (see ``worker.py``).  Set-up times
are as measured.  The table also prints the unscaled op times and the
reference times, and the traced run reports them as ``wall.*`` and
``host.*``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
from importlib import metadata
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("graph_match", "cloud_register", "gm_enum", "gw_certify", "cli_calls")
PARTS = 3
PART_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
UNITS = {
    "op_s_p50": "s", "op_s_p75": "s", "ops_per_s": "1/s", "setup_s": "s",
    "peak_rss_mb": "MB", "ok_frac": "ratio",
}


WALL_ROWS = ("wall.op_s_p50", "wall.op_s_p75", "host.kernel_s", "host.start_s")


def layer_unit(name: str) -> str:
    if name.startswith(("cli.", "wall.", "host.")) or name == "trace.op_s_mean":
        return "s"
    if name == "repo.src_lines":
        return "lines"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("maps_per_s"):
        return "1/s"
    if name.endswith(".s") or name.endswith("self_s"):
        return "s/op"
    return "count/op"


def hermetic_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "GROMON_")) and k not in THREAD_VARS}
    env["PYTHONPATH"] = SRC
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "gromon")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def run_worker(args, env, seconds: float, part: int, parts: int, traced: bool) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(seconds), "--part", str(part),
            "--parts", str(parts), "--size", args.size, "--traced", str(int(traced))]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=PART_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {args.workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scaled_times(part: dict) -> list[float]:
    """The part's op times in seconds at the reference host speed."""
    return [t * k for t, k in zip(part["op_times"], part["op_scales"])]


def p75(times: list[float]) -> float:
    return statistics.quantiles(times, n=4, method="inclusive")[2] if len(times) > 1 else times[0]


def summarize(parts: list[dict]) -> dict:
    scaled = [scaled_times(p) for p in parts]
    times = [t for part in scaled for t in part]
    wall = [t for p in parts for t in p["op_times"]]
    attempted = len(times)
    failed = sum(p["failed"] for p in parts)
    out = {
        "attempted": attempted,
        "failed": failed,
        "op_s_p50": statistics.median(times),
        "op_s_p75": p75(times),
        # median over the parts of ops completed / timed time, so one part
        # hit by a slow spell of the host does not set the figure
        "ops_per_s": statistics.median(len(part) / sum(part) for part in scaled),
        "setup_s": statistics.median(p["setup_s"] for p in parts),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        "ok_frac": 1.0 - failed / attempted,
        "fail_frac": failed / attempted,
    }
    # the unscaled figures and the references, for the table and the trace
    out["wall.op_s_p50"] = statistics.median(wall)
    out["wall.op_s_p75"] = p75(wall)
    out["host.kernel_s"] = statistics.median(p["kernel_s"] for p in parts)
    out["host.start_s"] = statistics.median(p["start_s"] for p in parts)
    hits = [p["hits"] for p in parts if p["hits"] is not None]
    out["planted_hit_frac"] = sum(hits) / attempted if hits else None
    return out


def provenance(args) -> str:
    return (f"# provenance: workload={args.workload} seed={args.seed} seconds={args.seconds} "
            f"trace={args.trace} size={args.size} python={platform.python_version()} "
            f"numpy={metadata.version('numpy')} scipy={metadata.version('scipy')} "
            f"nproc={os.cpu_count()} "
            f"threads={','.join(f'{v}=1' for v in THREAD_VARS)} "
            f"repo.src_lines={src_lines()} client=closed-loop x1")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="instance sizes; 'tiny' is for the smoke test")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gromon", "__init__.py")):
        print(f"error: no gromon sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    env = hermetic_env()
    print(provenance(args))
    try:
        if args.trace:
            half = args.seconds / 2
            parts = [run_worker(args, env, half, 0, 1, True),
                     run_worker(args, env, half, 0, 1, False)]
        else:
            parts = [run_worker(args, env, args.seconds / PARTS, k, PARTS, False)
                     for k in range(PARTS)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        traced, plain = (summarize([p]) for p in parts)
        summary = traced
        metrics = dict(parts[0]["layers"])
        metrics["trace.overhead_frac"] = plain["ops_per_s"] / traced["ops_per_s"] - 1.0
        # unscaled, like the per-layer seconds it is compared with
        metrics["trace.op_s_mean"] = statistics.fmean(parts[0]["op_times"])
        metrics["repo.src_lines"] = src_lines()
        metrics["quality.planted_hit_frac"] = traced["planted_hit_frac"] or 0.0
        for name in WALL_ROWS:
            metrics[name] = traced[name]
        units = {name: layer_unit(name) for name in metrics}
    else:
        summary = summarize(parts)
        metrics = {name: summary[name] for name in UNITS}
        units = UNITS

    print(f"# {args.workload}: {summary['attempted']} ops timed, {summary['failed']} failed")
    rows = dict(metrics)
    if not args.trace:
        rows["fail_frac"] = summary["fail_frac"]
        rows["planted_hit_frac"] = summary["planted_hit_frac"]
        rows.update((name, summary[name]) for name in WALL_ROWS)
    for name, value in rows.items():
        unit = units.get(name) or (layer_unit(name) if name in WALL_ROWS else "ratio")
        shown = "n/a (no planted correspondence)" if value is None else f"{value:.6g}"
        print(f"{args.workload:>15}  {name:<36} {shown} {unit}")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
