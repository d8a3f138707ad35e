"""One benchmark child process: runs `multispin simulate` commands and checks them.

    python3 child.py {gate,time,trace} WORKLOAD SEED SECONDS WORKDIR [--corrupt-add4]

gate   the untimed oracle gate at the workload's dims, one traced command
       whose attempt count is checked, and the thread-invariance check.
time   one warm-up command, then setup (--sweeps 0) and full commands in a
       closed loop until SECONDS have passed; reports the process's peak RSS.
trace  untraced and traced full commands alternately until SECONDS have
       passed; reports the per-layer figures and the tracing overhead.

Every command goes through `multispin.cli.main(argv)` and writes its CSV
into WORKDIR.  The CSV checks run after the clock stops.  The last stdout
line is one JSON object.  `--corrupt-add4` breaks `bitwise_add4` in this
process only, to show that the checks catch a wrong kernel.
"""

from __future__ import annotations

import gc
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import multispin  # noqa: E402
from multispin import cli, engine as engine_mod, rng as rng_mod  # noqa: E402
from multispin.engine import Engine, neighbor_codes  # noqa: E402
from multispin.lattice import TC_OVER_J, LatticeDims  # noqa: E402
from multispin.observables import summarize  # noqa: E402
from multispin.reference import (  # noqa: E402
    checkerboard_sweep_plain,
    neighbor_code_brute,
    record_engine_randoms,
)

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import GATE_SWEEPS, WORKLOADS, Workload  # noqa: E402

# Setup commands per full command in the time loop: setup is short, so it
# gets more samples.
SETUP_REPEATS = 3
# Fewest full commands a timed or traced run measures, however short SECONDS.
MIN_FULL = 3


def corrupt_add4() -> None:
    """Flip bit 0 of the twos plane, as `multispin selftest` does."""
    original = engine_mod.bitwise_add4

    def broken_add4(a, b, c, d):
        ones, twos, fours = original(a, b, c, d)
        return ones, twos ^ np.uint16(0x0001), fours

    engine_mod.bitwise_add4 = broken_add4


def check_csv(path: Path, wl: Workload, sweeps: int) -> tuple[list, str | None]:
    """Problems found in one command's CSV, and the file's SHA-256."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        return [f"no CSV: {exc}"], None
    sha = hashlib.sha256(data).hexdigest()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        return ["CSV is not ASCII"], sha
    if not text.endswith("\n"):
        return ["CSV does not end with a newline"], sha
    lines = text[:-1].split("\n")
    if lines[0] != cli.CSV_HEADER:
        return [f"header {lines[0]!r} != {cli.CSV_HEADER!r}"], sha
    schedule = wl.schedule(sweeps)
    rows = lines[1:]
    if len(rows) != len(schedule) * wl.n_sim:
        return [f"{len(rows)} rows, expected {len(schedule)} x {wl.n_sim}"], sha
    problems = []
    abs_m = np.empty((len(schedule), wl.n_sim))
    for r, line in enumerate(rows):
        k, s = divmod(r, wl.n_sim)
        fields = line.split(",")
        if len(fields) != 5:
            return [f"row {r + 1} has {len(fields)} fields"], sha
        want = [str(schedule[k]), str(s), format(wl.temps[s], ".9g")]
        if fields[:3] != want:
            return [f"row {r + 1} starts {fields[:3]}, expected {want}"], sha
        try:
            m, e = float(fields[3]), float(fields[4])
        except ValueError:
            return [f"row {r + 1} has a non-numeric value"], sha
        if not (math.isfinite(m) and math.isfinite(e) and 0.0 <= m <= 1.0 and -2.0 <= e <= 2.0):
            problems.append(f"row {r + 1}: |M|={m}, E={e} out of range")
        abs_m[k, s] = m
    if wl.onsager_band is not None and sweeps == wl.sweeps and not problems:
        for s, T in enumerate(wl.temps):
            if T <= 0.93 * TC_OVER_J:
                dev = summarize(abs_m[:, s], T).deviation
                if abs(dev) > wl.onsager_band:
                    problems.append(f"T={T}: |M| off Onsager by {dev:+.4f} "
                                    f"(band {wl.onsager_band})")
    return problems, sha


def run_command(argv: list) -> tuple[float, int]:
    # Garbage left by the previous command's checks is collected off the clock.
    gc.collect()
    t0 = time.perf_counter()
    code = cli.main(argv)
    return time.perf_counter() - t0, code


def command_op(kind: str, wl: Workload, seed: int, workdir: Path, sweeps: int | None = None,
               tracer: Tracer | None = None) -> dict:
    """Run and check one command; `tracer` is installed only while it runs."""
    sweeps = wl.sweeps if sweeps is None else sweeps
    path = workdir / f"{kind}.csv"
    path.unlink(missing_ok=True)
    if tracer is not None:
        tracer.install(cli, engine_mod, rng_mod)
    try:
        wall, code = run_command(wl.argv(seed, str(path), sweeps=sweeps))
    finally:
        if tracer is not None:
            tracer.uninstall()
    problems, sha = check_csv(path, wl, sweeps)
    if code != 0:
        problems.insert(0, f"exit code {code}")
    return {"kind": kind, "wall_s": wall, "problems": problems, "sha": sha}


def oracle_gate(wl: Workload, seed: int) -> list:
    """Replay, halo and neighbor audits on one simulation at the first temperature."""
    dims = LatticeDims(wl.m, wl.n)
    T = wl.temps[0]
    eng = Engine(dims, [T], seed, init=wl.init)
    spins = eng.lattice(0).copy()
    spin_faults = halo_faults = 0
    for _ in range(GATE_SWEEPS):
        draws = record_engine_randoms(eng, 1)
        checkerboard_sweep_plain(spins, T, draws.for_sweep(0))
        spin_faults += int((eng.lattice(0) != spins).sum())
        halo_faults += eng.halo_mismatches()
    code_faults = int((neighbor_codes(eng.packed(0)) != neighbor_code_brute(eng.lattice(0))).sum())
    where = f"{wl.m}x{wl.n}, T={T}, {GATE_SWEEPS} sweeps"
    return [
        {"name": "replay", "ok": spin_faults == 0,
         "detail": f"{spin_faults} spins differ from the plain oracle ({where})"},
        {"name": "halo", "ok": halo_faults == 0,
         "detail": f"{halo_faults} halo words off their canonical source ({where})"},
        {"name": "neighbor", "ok": code_faults == 0,
         "detail": f"{code_faults} neighbor codes differ from brute force ({where})"},
    ]


def host_facts(wl: Workload, seed: int) -> dict:
    argv = wl.argv(seed, "-")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "effective_threads": cli.build_config(cli.build_parser().parse_args(argv))
        .effective_threads(),
        "seed": seed,
    }


def mode_gate(wl: Workload, seed: int, workdir: Path) -> dict:
    checks = oracle_gate(wl, seed)
    tracer = Tracer()
    op = command_op("gate", wl, seed, workdir, tracer=tracer)
    checks.append({"name": "gate-csv", "ok": not op["problems"], "detail": "; ".join(op["problems"])})
    attempts = tracer.attempts()
    checks.append({"name": "attempts", "ok": attempts == wl.attempts,
                   "detail": f"traced Engine.attempts {attempts}, m*n*n_sim*sweeps {wl.attempts}"})
    if wl.n_sim > 1:
        single = workdir / "threads1.csv"
        _, code = run_command(wl.argv(seed, str(single), threads=1))
        same = (code == 0 and op["sha"] is not None
                and single.read_bytes() == (workdir / "gate.csv").read_bytes())
        checks.append({"name": "thread-invariance", "ok": same,
                       "detail": "CSV at --threads 1 "
                                 + ("equals" if same else "differs from")
                                 + " the CSV at the default thread count"})
    return {"checks": checks, "sha": op["sha"], "host": host_facts(wl, seed)}


def mode_time(wl: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    ops = [command_op("warmup", wl, seed, workdir)]
    deadline = time.perf_counter() + seconds
    full = 0
    while full < MIN_FULL or time.perf_counter() < deadline:
        for _ in range(SETUP_REPEATS):
            ops.append(command_op("setup", wl, seed, workdir, sweeps=0))
        ops.append(command_op("full", wl, seed, workdir))
        full += 1
    return {"ops": ops, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def mode_trace(wl: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    ops = [command_op("warmup", wl, seed, workdir)]
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    traced = 0
    while traced < MIN_FULL or time.perf_counter() < deadline:
        ops.append(command_op("full", wl, seed, workdir))
        ops.append(command_op("traced", wl, seed, workdir, tracer=tracer))
        traced += 1
    attempts = tracer.attempts()
    if attempts != traced * wl.attempts:
        ops[-1]["problems"].append(f"traced Engine.attempts {attempts} != "
                                   f"{traced} x m*n*n_sim*sweeps {wl.attempts}")
    return {"ops": ops, "layers": layer_metrics(tracer.spans, traced, wl.sweeps)}


def main(argv: list) -> int:
    mode, name, seed, seconds, workdir = argv[:5]
    if not Path(multispin.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: multispin imported from {multispin.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if "--corrupt-add4" in argv[5:]:
        corrupt_add4()
    os.environ.pop(cli.ENV_THREADS, None)
    wl, seed, workdir = WORKLOADS[name], int(seed), Path(workdir)
    if mode == "gate":
        result = mode_gate(wl, seed, workdir)
    elif mode == "time":
        result = mode_time(wl, seed, float(seconds), workdir)
    else:
        result = mode_trace(wl, seed, float(seconds), workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
