"""Smoke test of the benchmark itself, at tiny instance sizes.

    python3 perfbench/smoke.py

Checks that every workload prints every metric named in BENCHMARK.json with
its unit, in both the untraced and the traced run; that a deliberately wrong
reference, injected here rather than in the program, makes ops fail; and
that the benchmark refuses to run without the gromon sources.  Exits 0 when
all checks pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# the seven end-to-end figures the table shows for every workload
TABLE_ROWS = ("op_s_p50", "op_s_p75", "ops_per_s", "setup_s", "peak_rss_mb",
              "fail_frac", "planted_hit_frac")

# one wrong reference per workload: each makes every op's check fail
WRONG_REFERENCES = {
    "graph_match": ("identity_distortion", lambda *a: -1.0),
    "cloud_register": ("registration_value", lambda *a: float("nan")),
    "gm_enum": ("brute_force_gm", lambda *a: -1.0),
    "gw_certify": ("product_distortion2", lambda *a: -1.0),
    "cli_calls": ("cli_reference", lambda *a: (0, b"wrong\n")),
}

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL {message}")


def bench_run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def check_output(spec: dict) -> None:
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench_run(workload, trace)
            expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: "
                                         f"{proc.stderr[-500:]}")
            if proc.returncode != 0:
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{workload} trace={trace}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace={trace}: {result['attempted']} attempted, "
                   f"{result['failed']} failed")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{workload} trace={trace}: metrics differ from "
                                  f"BENCHMARK.json: {set(got) ^ set(wanted)}")
            if trace == 0:
                shown = {line.split()[1] for line in lines[:-1] if not line.startswith("#")}
                expect(set(TABLE_ROWS) <= shown,
                       f"{workload}: table lacks {set(TABLE_ROWS) - shown}")


def check_wrong_references() -> None:
    os.environ.update(run.hermetic_env())
    for workload, (name, wrong) in WRONG_REFERENCES.items():
        right = getattr(workloads, name)
        setattr(workloads, name, wrong)
        try:
            out = worker.run_part(workload, 5, 0.3, 0, 1, size="tiny")
        finally:
            setattr(workloads, name, right)
        attempted = len(out["op_times"])
        expect(out["failed"] / attempted > 0,
               f"{workload}: wrong {name} left fail_frac at 0 over {attempted} ops")


def check_refuses_without_sources() -> None:
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench_tmp"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench_run("graph_match", 0, cwd=bare)
        expect(proc.returncode != 0, "runs without the gromon sources")
        expect(not proc.stdout.strip().endswith("}"), "prints a result without sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(ROOT, ".perfbench_tmp"), exist_ok=True)
    check_output(spec)
    check_wrong_references()
    check_refuses_without_sources()
    print(f"{len(failures)} smoke check(s) failed" if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
