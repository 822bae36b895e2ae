"""One part of a benchmark run, in a fresh process.

Set-up (imports, instance generation, file writing and one untimed warm-up
op) is timed from the first line of this file.  Then ops run in a closed
loop, one at a time, until the part's seconds are spent; each op is timed
alone and checked afterwards, untimed.  The part prints one JSON object on
its last line of standard output.

The speed of a shared host drifts, on a 2-vCPU VM by up to 2x within a
minute, and moves every op time measured on it.  So the part also times a
fixed reference between ops, never inside one, and gives each op time a
scale factor, nominal reference time / reference time measured around it:
scaled times are seconds at the nominal speed, and the drift cancels.  The
reference must drift as the op does.  In-process ops are referred to
``kernel_s``, which mixes the interpreter-bound and the native work the
solvers do; CLI calls, mostly process start and imports, to ``start_s``, a
bare interpreter start.  Neither runs gromon.  Set-up times stay as measured.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --part K --parts P --size full|tiny --traced 0|1
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402
from scipy.optimize import linear_sum_assignment  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Reference times at the nominal host speed (a 2-vCPU x86-64 VM, Python 3.11,
# numpy 2.4); scaled times are seconds on a host as fast as that.
KERNEL_NOMINAL_S = 0.011
START_NOMINAL_S = 0.075
# an op's reference time is the median of the WINDOW samples timed last
# before it and the WINDOW timed first after it
WINDOW = 3
CLI_SUBCOMMANDS = ("gm", "gw", "spd", "miso", "heat", "split", "rand")
CLI_METRICS = ("cli.python_start_s", "cli.import_s", "cli.import_scipy_optimize_s",
               "cli.command_s", *(f"cli.{name}.s_p50" for name in CLI_SUBCOMMANDS))


_rng = np.random.default_rng(0)
_LOOP = _rng.random((24, 24))
_NET_X, _NET_Y = _rng.random((26, 26)), _rng.random((22, 22))
_W_X, _W_Y = _rng.random(26), _rng.random(22)
_COST = _rng.random((60, 60))


def kernel_s() -> float:
    """Time one pass of the in-process reference: a loop of small numpy calls,
    like the solvers' inner loops, then an n^2 m^2 distortion sum and an
    assignment, like the distortion kernel and the assignment oracle.

    Measured on a 2-vCPU VM, one instance solved over and over for 100 s,
    interquartile range / median of the median op time of 12-op windows,
    alone and referred to this: graph_match 0.19 and 0.04, gw_certify 0.15
    and 0.08.  The loop alone tracked gw_certify worse than nothing, the
    native half alone graph_match worse than the mix."""
    a = _LOOP
    t = time.perf_counter()
    total = 0.0
    for k in range(400):
        total += float(a[k % 24].sum())
        total += float(a[:, [k % 24, (k + 1) % 24]].max())
    diff = np.abs(_NET_X[:, None, :, None] - _NET_Y[None, :, None, :])
    total += float(np.einsum("ijkl,i,j,k,l->", diff, _W_X, _W_Y, _W_X, _W_Y))
    linear_sum_assignment(_COST)
    return time.perf_counter() - t


def start_s() -> float:
    """Time one start of a bare interpreter, the reference for process starts."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, check=True)
    return time.perf_counter() - t


def op_scales(refs: list[float], nominal: float) -> list[float]:
    """Scale factor of each op; ``refs[j]`` was timed just before op ``j`` and
    the last entry just after the last op."""
    return [nominal / statistics.median(refs[max(0, j + 1 - WINDOW):j + 1 + WINDOW])
            for j in range(len(refs) - 1)]


def _import_times(runs: int) -> tuple[float, float]:
    """Median cumulative import time of gromon and of scipy.optimize."""
    gromon_s, scipy_s = [], []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gromon"],
                              capture_output=True, text=True, check=True)
        found = {}
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in ("gromon", "scipy.optimize"):
                found[fields[2].strip()] = int(fields[1]) / 1e6
        gromon_s.append(found["gromon"])
        scipy_s.append(found["scipy.optimize"])
    return statistics.median(gromon_s), statistics.median(scipy_s)


def cli_layers(op_times: list[float], subcommands: list[str],
               starts: list[float]) -> dict[str, float]:
    """Where a CLI call's time goes: interpreter start, import, command."""
    start = statistics.median(starts)
    import_s, scipy_s = _import_times(3)
    out = {
        "cli.python_start_s": start,
        "cli.import_s": import_s,
        "cli.import_scipy_optimize_s": scipy_s,
        "cli.command_s": statistics.median(op_times) - start - import_s,
    }
    for name in CLI_SUBCOMMANDS:
        times = [t for t, s in zip(op_times, subcommands) if s == name]
        out[f"cli.{name}.s_p50"] = statistics.median(times) if times else 0.0
    return out


def run_part(workload: str, seed: int, seconds: float, part: int, parts: int,
             size: str = "full", traced: bool = False, started: float | None = None) -> dict:
    """Set up ``workload``, time ops for ``seconds`` and report the figures."""
    if started is None:
        started = time.perf_counter()
    is_cli = workload == "cli_calls"
    tracer = tracing.Tracer()
    if traced:
        tracer.install()
    os.makedirs(os.path.join(ROOT, ".perfbench_tmp"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(ROOT, ".perfbench_tmp"))
    try:
        wl = workloads.WORKLOADS[workload](seed, workloads.SIZES[size], workdir)
        first = part * len(wl.pool) // parts
        try:
            wl.check(first, wl.op(first))
        except Exception:  # noqa: BLE001 - the timed ops count the failure
            pass
        setup_s = time.perf_counter() - started
        starts = [start_s() for _ in range(3)]
        kernels = [kernel_s() for _ in range(5)]
        reference, nominal = (start_s, START_NOMINAL_S) if is_cli else (kernel_s, KERNEL_NOMINAL_S)

        op_times, refs, failed, hits, subcommands = [], [], 0, 0, []
        i = first
        loop_start = time.perf_counter()
        while not op_times or time.perf_counter() - loop_start < seconds:
            refs.append(reference())
            tracer.enabled = traced
            t = time.perf_counter()
            try:
                result = wl.op(i)
                ok = True
            except Exception:  # noqa: BLE001 - a raising op is a failed op
                ok = False
            op_times.append(time.perf_counter() - t)
            tracer.enabled = False
            if ok:
                try:
                    ok = bool(wl.check(i, result))
                except Exception:  # noqa: BLE001 - a raising check is a failed op
                    ok = False
            failed += not ok
            if ok and wl.planted:
                hits += bool(wl.hit(i, result))
            if is_cli:
                subcommands.append(wl.subcommand(i))
            i += 1
        refs.append(reference())

        who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
        out = {
            "setup_s": setup_s,
            "op_times": op_times,
            "op_scales": op_scales(refs, nominal),
            "kernel_s": statistics.median(kernels),
            "start_s": statistics.median(starts),
            "failed": failed,
            "hits": hits if wl.planted else None,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        }
        if traced:
            out["layers"] = tracer.layer_metrics(len(op_times))
            out["layers"].update(cli_layers(op_times, subcommands, starts + refs) if is_cli
                                 else dict.fromkeys(CLI_METRICS, 0.0))
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--parts", type=int, default=1)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    out = run_part(args.workload, args.seed, args.seconds, args.part, args.parts,
                   args.size, bool(args.traced), _STARTED)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
