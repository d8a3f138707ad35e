"""multispin benchmark: `multispin simulate` from argv to CSV on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and imports the package from its
`src/`.  Each phase runs in its own child process (child.py), one after the
other: the oracle gate, then either the timed closed loop (--trace 0) or
the traced loop (--trace 1).  The last stdout line is the result object
{correct, attempted, failed, metrics}; the line before it holds the
details (host facts, sample counts, every failed check).  README.md says
what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
WORK = ROOT / ".perfbench_work"
GATE_TIMEOUT_S = 60
# Beyond --seconds: the warm-up command and the last command of the loop.
LOOP_SLACK_S = 60
# traced flip_* children plus accept self time must cover the flip_* spans this closely
CLOSURE_TOLERANCE = 0.03


class ChildFailed(RuntimeError):
    pass


def run_child(mode: str, args, workdir: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), mode, args.workload, str(args.seed),
           str(args.seconds), str(workdir)]
    if args.corrupt_add4:
        cmd.append("--corrupt-add4")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child exceeded {timeout} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(args) -> tuple[dict, dict]:
    """Run the children; return (result object, details)."""
    wl = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        gate = run_child("gate", args, workdir, GATE_TIMEOUT_S)
        loop = run_child("trace" if args.trace else "time", args, workdir,
                         args.seconds + LOOP_SLACK_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f"{c['name']}: {c['detail']}" for c in gate["checks"] if not c["ok"]]
    ops = loop["ops"]
    # Every command of one kind must write the same bytes, and the full
    # commands the same bytes as the gate's traced command.
    reference = {"setup": None, "full": gate["sha"], "warmup": gate["sha"], "traced": gate["sha"]}
    for k, op in enumerate(ops):
        if reference[op["kind"]] is None:
            reference[op["kind"]] = op["sha"]
        if op["sha"] != reference[op["kind"]]:
            op["problems"].append(f"CSV SHA-256 {op['sha']} != {reference[op['kind']]}")
        failures += [f"{op['kind']} command {k}: {p}" for p in op["problems"]]
    attempted = len(gate["checks"]) + len(ops)
    failed = sum(not c["ok"] for c in gate["checks"]) + sum(bool(op["problems"]) for op in ops)

    def walls(kind):
        return [op["wall_s"] for op in ops if op["kind"] == kind]

    details = {
        "workload": wl.name,
        "host": dict(gate["host"], commit=git_commit()),
        "samples": {kind: len(walls(kind)) for kind in ("setup", "full", "traced")},
        "failures": failures,
    }
    if args.trace:
        layers = loop["layers"]
        wall = statistics.median(walls("full"))
        layers["trace.overhead_s"] = statistics.median(walls("traced")) - wall
        layers["trace.wall_s"] = wall
        if abs(layers["trace.flip_closure"] - 1.0) > CLOSURE_TOLERANCE:
            failures.append(f"flip_* children + accept self time cover "
                            f"{layers['trace.flip_closure']:.4f} of the flip_* spans")
        values = layers
    else:
        wall = statistics.median(walls("full"))
        setup = statistics.median(walls("setup"))
        details["wall_s_range"] = [min(walls("full")), max(walls("full"))]
        details["setup_s_range"] = [min(walls("setup")), max(walls("setup"))]
        values = {
            "wall_s": wall,
            "setup_s": setup,
            "attempts_per_ns": wl.attempts / ((wall - setup) * 1e9),
            "peak_rss_mb": loop["maxrss_kb"] * 1024 / 1e6,
            "pass_share": 1.0 - failed / attempted,
        }
    metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-add4", action="store_true",
                        help="break bitwise_add4 in the benchmark's processes (checks must fail)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "multispin" / "cli.py").is_file():
        print(f"error: no multispin source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, details = measure(args)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
