"""Command-line interface: simulate, validate, bench, rngtest, selftest.

Configuration comes from an optional flat ``key = value`` file ('#' starts
a comment); a command reads exactly the keys its own flags name, and each
flag overrides the key of the same name.  ``--threads`` defaults to 1; the
environment variable ``MULTISPIN_THREADS`` overrides the configured thread
count (flags still beat it).  Input that cannot run (threads below 1, a
temperature that is not finite and positive, a non-finite J, a validate
run too short to analyse, with a tolerance or cap that is not finite and
non-negative or with J <= 0, an rngtest bit count below the battery's
minimum, an unknown init mode, a seed outside [0, 2**64), a config key the
command does not read, a config value or ``MULTISPIN_THREADS`` that does
not convert, named by its source) exits 2 before any output.  The simulate
``--output`` file is opened before the run: an unwritable path exits 2
before any sweep, and a failed run leaves the file empty.  Trajectories are written as CSV with the header
``sweep,sim,temperature,abs_magnetization,energy_per_spin``, floats printed
with 9 significant digits, '.' decimals and plain newlines.
"""

from __future__ import annotations

import argparse
import math
import os
import resource
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import engine as engine_mod
from .engine import INIT_MODES, Engine, neighbor_codes, run_simulations
from .lattice import LatticeDims, TC_OVER_J, check_temperature, pack, unpack
from .observables import MIN_EQUILIBRATION_SAMPLES, Trajectory, summarize
from .reference import (
    checkerboard_sweep_plain,
    neighbor_code_brute,
    record_engine_randoms,
)
from .rng import (
    MIN_BATTERY_BITS,
    Xoshiro256pp,
    XoshiroStreams,
    check_seed,
    draw_path,
    frequency_histogram,
    lag1_joint,
    load_bitstream,
    median_threshold_bits,
    run_battery,
    shape_unit_float,
)

__all__ = ["main", "SimConfig", "CSV_HEADER", "ENV_THREADS"]

CSV_HEADER = "sweep,sim,temperature,abs_magnetization,energy_per_spin"
ENV_THREADS = "MULTISPIN_THREADS"

# Pass/fail guard band around the critical temperature: inside it finite-size
# rounding dominates and validate reports values without judging them.
_BAND_LOW = 0.93 * TC_OVER_J
_BAND_HIGH = 1.10 * TC_OVER_J


def _fmt(x: float) -> str:
    # Adding 0.0 turns -0.0 into 0.0 and leaves every other value unchanged.
    return format(float(x) + 0.0, ".9g")


@dataclass
class SimConfig:
    """Run settings of the simulate/validate/bench commands.

    Each command reads the fields its own flags define (``build_parser``).
    """

    m: int = 64
    n: int = 64
    temperature: tuple = (2.0,)
    j: float = 1.0
    sweeps: int = 1000
    measure_interval: int = 100
    n_sim: int = 1
    seed: int = 1
    init: str = "random"
    output: str = ""
    threads: int = 1
    tolerance: float = 0.02
    disordered_cap: float = 0.10
    warmup: int = 10

    def dims(self) -> LatticeDims:
        return LatticeDims(self.m, self.n)

    def sim_temperatures(self) -> tuple:
        """One entry per simulation: each temperature n_sim times, in order."""
        return tuple(t for t in self.temperature for _ in range(self.n_sim))

    def effective_threads(self) -> int:
        """Worker threads run_simulations uses: at most one per simulation."""
        return min(self.threads, len(self.sim_temperatures()))


def parse_temperatures(text: str) -> tuple:
    """Temperature spec: a value, a comma list, or ``start:stop:step``."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"temperature range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError(f"temperatures must be finite and positive, got range {text!r}")
        if step <= 0:
            raise ValueError("temperature range step must be positive")
        count = int(np.floor((stop - start) / step + 1e-9)) + 1
        if count < 1:
            raise ValueError(f"temperature range {text!r} is empty")
        return tuple(round(start + k * step, 12) for k in range(count))
    return tuple(float(p) for p in text.split(",") if p.strip())


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` file with '#' comments."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = value
    return values


def build_config(args: argparse.Namespace) -> SimConfig:
    """Merge defaults, config file, environment, and flags (flags win).

    A command reads the ``SimConfig`` fields its subparser defines; a config
    key for any other field is a ValueError naming the file and the command.
    """
    cfg = SimConfig()
    kinds = {f.name: parse_temperatures if f.name == "temperature" else type(f.default)
             for f in fields(SimConfig) if f.name in vars(args)}
    if args.config:
        for key, value in parse_config_file(args.config).items():
            if key not in kinds:
                raise ValueError(f"{args.config}: config key {key!r} is not read by "
                                 f"{args.command}")
            try:
                setattr(cfg, key, kinds[key](value))
            except ValueError as exc:
                raise ValueError(f"{args.config}: config key {key!r}: {exc}") from None
    env_threads = os.environ.get(ENV_THREADS)
    if env_threads:
        try:
            cfg.threads = int(env_threads)
        except ValueError as exc:
            raise ValueError(f"{ENV_THREADS}: {exc}") from None
    for key, kind in kinds.items():
        value = getattr(args, key)
        if value is not None:
            setattr(cfg, key, kind(value))
    LatticeDims(cfg.m, cfg.n)
    if cfg.sweeps < 0 or cfg.warmup < 0:
        raise ValueError("sweeps and warmup must be non-negative")
    if cfg.measure_interval < 1:
        raise ValueError("measure interval must be positive")
    if cfg.threads < 1:
        raise ValueError(f"threads must be at least 1, got {cfg.threads}")
    check_seed(cfg.seed)
    if cfg.n_sim < 1:
        raise ValueError(f"n_sim must be at least 1, got {cfg.n_sim}")
    if not cfg.temperature:
        raise ValueError("need at least one temperature")
    for t in cfg.temperature:
        check_temperature(t, cfg.j)
    if cfg.init not in INIT_MODES:
        raise ValueError(f"init must be one of {', '.join(INIT_MODES)}, got {cfg.init!r}")
    for key in ("tolerance", "disordered_cap"):
        value = getattr(cfg, key)
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{key} must be finite and non-negative, got {value}")
    return cfg


def _add_sim_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file ('#' comments)")
    parser.add_argument("--m", type=int, help="cell-axis extent (multiple of 4)")
    parser.add_argument("--n", type=int, help="memory-axis extent (multiple of 32)")
    parser.add_argument(
        "--temperature",
        help="temperature in units of J: one value, a comma list, or start:stop:step",
    )
    parser.add_argument("--j", type=float, help="ferromagnetic coupling J (default 1)")
    parser.add_argument("--sweeps", type=int, help="number of full sweeps")
    parser.add_argument("--n-sim", dest="n_sim", type=int,
                        help="independent simulations per temperature")
    parser.add_argument("--seed", type=int, help="master seed in [0, 2**64)")
    parser.add_argument("--init", choices=INIT_MODES, help="initial spin state")
    parser.add_argument(
        "--threads",
        type=int,
        help=f"worker threads over simulations (default 1; ${ENV_THREADS} overrides config)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multispin",
        description="Bit-packed multi-spin Monte Carlo for the 2D Ising model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run simulations and write a trajectory CSV")
    p_val = sub.add_parser("validate", help="compare equilibrated |M| against the exact curve")
    p_bench = sub.add_parser("bench", help="throughput: flip rate and iteration period")
    for p in (p_sim, p_val, p_bench):
        _add_sim_flags(p)
    for p in (p_sim, p_val):
        p.add_argument("--measure-interval", dest="measure_interval", type=int,
                       help="sweeps between measurements")
    p_sim.add_argument("--output", help="CSV output path (default stdout)")
    p_val.add_argument("--tolerance", type=float,
                       help="allowed |deviation| below the critical region (default 0.02)")
    p_val.add_argument("--disordered-cap", dest="disordered_cap", type=float,
                       help="allowed |M| above the critical region (default 0.10)")
    p_bench.add_argument("--warmup", type=int, help="untimed warmup sweeps (default 10)")

    p_rng = sub.add_parser("rngtest", help="randomness battery, histogram, and lag-1 checks")
    p_rng.add_argument("--bits", type=int, default=6_400_000,
                       help="bit count for the battery (default 6400000)")
    p_rng.add_argument("--floats", type=int, default=1_000_000,
                       help="float count for histogram/lag-1 (default 1000000)")
    p_rng.add_argument("--seed", type=int, default=1,
                       help="master seed in [0, 2**64) (internal source)")
    p_rng.add_argument("--file", help="bit stream file (raw binary or ASCII 0/1) instead of the internal generator")
    p_rng.add_argument("--median-check", action="store_true",
                       help="also threshold 2**23 floats at their median and re-run the battery")
    p_rng.add_argument("--csv", help="also write machine-readable rows (name,p_value,passed)")

    sub.add_parser("selftest", help="fast invariant suite (round-trip, draws, adder, audits, oracle)")
    return parser


def write_csv(trajectory: Trajectory, stream) -> None:
    """Deterministic trajectory rows: sweep-major, then simulation index."""
    stream.write(CSV_HEADER + "\n")
    temps = trajectory.temperatures
    for k in range(trajectory.n_measurements):
        sweep = int(trajectory.sweeps[k])
        for s in range(trajectory.n_sim):
            stream.write(
                f"{sweep},{s},{_fmt(temps[s])},"
                f"{_fmt(trajectory.abs_m[k, s])},{_fmt(trajectory.energy[k, s])}\n"
            )


def _run_config(cfg: SimConfig) -> Trajectory:
    return run_simulations(
        cfg.dims(),
        cfg.sim_temperatures(),
        cfg.seed,
        cfg.sweeps,
        measure_interval=cfg.measure_interval,
        init=cfg.init,
        coupling=cfg.j,
        threads=cfg.effective_threads(),
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    if not cfg.output:
        write_csv(_run_config(cfg), sys.stdout)
        return 0
    # Opened before the run, so an unwritable path fails before any sweep.
    with open(cfg.output, "w", encoding="ascii", newline="") as fh:
        trajectory = _run_config(cfg)
        write_csv(trajectory, fh)
    print(f"wrote {trajectory.n_measurements * trajectory.n_sim} rows to {cfg.output}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    if cfg.j <= 0:
        raise ValueError(f"validate judges |M| against the ferromagnetic Onsager curve, "
                         f"so j must be positive, got {cfg.j}")
    measurements = -(-cfg.sweeps // cfg.measure_interval)  # every interval, plus the last sweep
    if measurements < MIN_EQUILIBRATION_SAMPLES:
        raise ValueError(
            f"validate needs at least {MIN_EQUILIBRATION_SAMPLES} measurements per simulation, "
            f"got {measurements} ({cfg.sweeps} sweeps, interval {cfg.measure_interval})"
        )
    trajectory = _run_config(cfg)
    temps = trajectory.temperatures
    print(f"# {cfg.m}x{cfg.n}, {cfg.sweeps} sweeps, seed {cfg.seed}, init {cfg.init}")
    print(f"{'T':>8} {'measured':>10} {'stderr':>9} {'onsager':>10} {'deviation':>10}  status")
    failures = 0
    by_temp: dict[float, list[float]] = {}
    for s, T in enumerate(temps):
        summ = summarize(trajectory.series(s), T, cfg.j)
        by_temp.setdefault(T, []).append(summ.mean_abs_m)
        scaled_t = T / cfg.j
        if scaled_t <= _BAND_LOW:
            ok = abs(summ.deviation) <= cfg.tolerance
            status = "pass" if ok else "FAIL"
        elif scaled_t >= _BAND_HIGH:
            ok = summ.mean_abs_m <= cfg.disordered_cap
            status = "pass" if ok else "FAIL"
        else:
            ok = True
            status = "near-Tc (not judged)"
        failures += 0 if ok else 1
        print(
            f"{T:8.4f} {summ.mean_abs_m:10.5f} {summ.stderr:9.5f} "
            f"{summ.onsager_abs_m:10.5f} {summ.deviation:+10.5f}  {status}"
        )
    unique_temps = sorted(by_temp)
    means = [float(np.mean(by_temp[t])) for t in unique_temps]
    tc = cfg.j * TC_OVER_J
    crossing = None
    for k in range(len(unique_temps) - 1):
        if means[k] >= 0.5 > means[k + 1]:
            t0, t1 = unique_temps[k], unique_temps[k + 1]
            crossing = t0 + (means[k] - 0.5) * (t1 - t0) / (means[k] - means[k + 1])
            break
    if min(unique_temps) < tc < max(unique_temps):
        if crossing is None:
            print("# |M| never crosses 0.5 inside the scan; Tc estimate omitted")
        else:
            print(f"# estimated Tc/J from |M|=0.5 crossing: {crossing / cfg.j:.4f} "
                  f"(exact {TC_OVER_J:.6f})")
    else:
        print(f"# warning: scan does not span Tc/J = {TC_OVER_J:.6f}; Tc estimate omitted")
    print(f"# {'PASS' if failures == 0 else 'FAIL'} ({failures} failing temperature(s))")
    return 0 if failures == 0 else 1


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    if len(cfg.temperature) != 1:
        raise ValueError("bench uses a single temperature")
    if cfg.sweeps < 1:
        raise ValueError("bench needs at least one timed sweep")
    dims = cfg.dims()
    temperature = cfg.temperature[0]
    sizes = []
    k = 1
    while k < cfg.n_sim:
        sizes.append(k)
        k *= 2
    sizes.append(cfg.n_sim)
    print(f"# {dims.m}x{dims.n}, T={temperature}, {cfg.sweeps} timed sweeps "
          f"(+{cfg.warmup} warmup; set-up timed), threads={cfg.effective_threads()}, "
          f"draws={draw_path()}")
    print("# peak RSS is the process's peak resident set so far (ru_maxrss), not the row's own")
    print(f"{'n_sim':>6} {'attempts':>14} {'flips/ns':>12} {'T_iter (ms)':>12} {'sweeps/s':>10} "
          f"{'peak RSS (MB)':>14}")
    for n_sim in sizes:
        temps = (temperature,) * n_sim
        run_simulations(dims, temps, cfg.seed, cfg.warmup,
                        measure_interval=max(1, cfg.warmup), init=cfg.init,
                        coupling=cfg.j, threads=cfg.threads)
        t0 = time.perf_counter()
        traj = run_simulations(dims, temps, cfg.seed, cfg.sweeps,
                               measure_interval=cfg.sweeps, init=cfg.init,
                               coupling=cfg.j, threads=cfg.threads)
        elapsed = time.perf_counter() - t0
        attempts = traj.meta["attempts"]
        expected = dims.sites * n_sim * cfg.sweeps
        if attempts != expected:
            raise AssertionError(f"attempt counter {attempts} != {expected}")
        flip_rate = attempts / (elapsed * 1e9)
        t_iter_ms = dims.sites * n_sim / flip_rate / 1e6
        # ru_maxrss is KiB on Linux; MB here is 10**6 bytes, as in perfbench's peak_rss_mb
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        print(f"{n_sim:6d} {attempts:14d} {flip_rate:12.6f} {t_iter_ms:12.4f} "
              f"{cfg.sweeps / elapsed:10.2f} {peak_mb:14.1f}")
    print("# host-hardware numbers for methodological comparison only; the flip "
          "rates of purpose-built accelerators (thousands of flips/ns across "
          "hundreds of parallel simulations) are not reproducible at desk scale")
    return 0


def _print_reports(reports, csv_rows) -> int:
    failures = 0
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        print(f"{rep.name:28s} n={rep.n_bits:<10d} p={rep.p_value:.6f}  {status}")
        csv_rows.append(f"{rep.name},{_fmt(rep.p_value)},{int(rep.passed)}")
        failures += 0 if rep.passed else 1
    return failures


def cmd_rngtest(args: argparse.Namespace) -> int:
    check_seed(args.seed)
    # --bits 0 with --file means "no truncation".
    if args.bits < MIN_BATTERY_BITS and not (args.file and args.bits == 0):
        raise ValueError(f"--bits must be at least {MIN_BATTERY_BITS} "
                         f"(the longest-run test's minimum), got {args.bits}")
    if args.floats < 0:
        raise ValueError(f"--floats must be non-negative, got {args.floats}")
    csv_rows: list[str] = []
    failures = 0
    if args.file:
        bits = load_bitstream(args.file)
        if bits.size < MIN_BATTERY_BITS:
            raise ValueError(f"{args.file} holds {bits.size} bits; the battery needs at least "
                             f"{MIN_BATTERY_BITS}")
        print(f"# bit stream from {args.file}: {bits.size} bits")
        if args.bits and bits.size > args.bits:
            bits = bits[: args.bits]
        raw32 = np.packbits(bits[: bits.size // 32 * 32]).view(">u4").astype(np.uint32)
        floats = shape_unit_float(raw32) if raw32.size else np.empty(0)
    else:
        gen = Xoshiro256pp(args.seed)
        bits = gen.bits(args.bits)
        floats = Xoshiro256pp(args.seed, stream=1).unit_floats(args.floats)
        print(f"# internal generator, seed {args.seed}: {bits.size} bits, "
              f"{floats.size} shaped floats")

    failures += _print_reports(run_battery(bits), csv_rows)

    if floats.size >= 1000:
        # Spread envelopes hold at the reference sample size of one million;
        # smaller samples only have to avoid a degenerate (empty-bin) histogram.
        for width, envelope in ((0.01, 0.08), (0.1, 0.02)):
            hist = frequency_histogram(floats, width)
            ok = not hist.degenerate
            if floats.size >= 1_000_000:
                ok = ok and hist.spread <= envelope
            print(f"{'frequency spread bin=' + str(width):28s} n={floats.size:<10d} "
                  f"spread={hist.spread * 100:.3f}%  "
                  f"{'pass' if ok else 'FAIL'}")
            csv_rows.append(f"frequency_spread_{width},{_fmt(hist.spread)},{int(ok)}")
            failures += 0 if ok else 1
        joint = lag1_joint(floats)
        status = "pass" if joint.passed else "FAIL"
        print(f"{'lag1_joint':28s} n={floats.size:<10d} p={joint.p_value:.6f}  {status}")
        csv_rows.append(f"lag1_joint,{_fmt(joint.p_value)},{int(joint.passed)}")
        failures += 0 if joint.passed else 1
    else:
        print("# too few floats for histogram/lag-1 summaries")

    if args.median_check:
        count = 1 << 23
        gen = Xoshiro256pp(args.seed, stream=2)
        med_bits = median_threshold_bits(gen.unit_floats(count))
        print(f"# median-threshold battery over {count} floats")
        failures += _print_reports(run_battery(med_bits), csv_rows)

    if args.csv:
        with open(args.csv, "w", encoding="ascii", newline="") as fh:
            fh.write("name,p_value,passed\n")
            fh.write("\n".join(csv_rows) + "\n")
    print(f"# {'PASS' if failures == 0 else 'FAIL'} ({failures} failing check(s))")
    return 0 if failures == 0 else 1


def _oracle_audit(J: float, sweeps: int) -> tuple[int, int, int]:
    """Spin, halo and neighbor-code faults of a 12x96 engine at T = 2, as the
    benchmark gate counts them: each sweep replayed from the engine's draws."""
    spins = np.random.default_rng(5).choice(np.array([-1, 1], np.int8), size=(12, 96))
    eng = Engine.from_lattices([spins], [2.0], seed=3, coupling=J)
    spin_faults = halo_faults = 0
    for _ in range(sweeps):
        checkerboard_sweep_plain(spins, 2.0, record_engine_randoms(eng, 1).for_sweep(0), J)
        spin_faults += int((eng.lattice(0) != spins).sum())
        halo_faults += eng.halo_mismatches()
    codes = neighbor_codes(eng.packed(0))
    code_faults = int((codes != neighbor_code_brute(eng.lattice(0))).sum())
    return spin_faults, halo_faults, code_faults


def _selftest_checks():
    def check_roundtrip():
        rng = np.random.default_rng(11)
        for _ in range(50):
            spins = rng.choice(np.array([-1, 1], np.int8), size=(12, 96))
            if not (unpack(pack(spins)) == spins).all():
                return "pack/unpack round trip broke"
        return None

    def check_adder():
        a, b, c, d = (np.uint16(x) for x in (0xFF00, 0xF0F0, 0xCCCC, 0xAAAA))
        ones, twos, fours = engine_mod.bitwise_add4(a, b, c, d)
        for bit in range(16):
            total = sum((int(x) >> bit) & 1 for x in (a, b, c, d))
            got = ((int(ones) >> bit) & 1) + 2 * ((int(twos) >> bit) & 1) + 4 * ((int(fours) >> bit) & 1)
            if got != total:
                return f"adder wrong at lane {bit}: {got} != {total}"
        return None

    def check_draws():
        # The active unit_block path against scalar streams, over two column
        # ranges; the second range continues streams the first one stepped.
        streams = XoshiroStreams(7, 40, first_stream=3)
        scalars = [Xoshiro256pp(7, stream=3 + j) for j in range(40)]
        for lo, hi in ((0, 40), (13, 27)):
            block = streams.unit_block(9, lo, hi)
            for j in range(lo, hi):
                want = [h & 0x7FFFFF for x in scalars[j].raw64(5).tolist() for h in (x >> 32, x)]
                if block[:, j - lo].tolist() != want[:9]:
                    return f"stream {3 + j} draws differ in columns [{lo}, {hi})"
        return None

    def check_audit(J: float):
        faults = _oracle_audit(J, 100)
        problem = "{} spins, {} halo words, {} neighbor codes off".format(*faults)
        return problem if any(faults) else None

    def check_tiles():
        # The flips step one tile of simulations at a time; tiles of 4 over 13
        # simulations must equal 13 single-simulation engines.
        dims = LatticeDims(4, 32)
        temps = np.linspace(1.5, 3.5, 13)
        budget = engine_mod._TILE_STREAMS
        engine_mod._TILE_STREAMS = 4 * dims.cells * dims.words
        try:
            tiled = Engine(dims, temps, seed=12, init="random")
        finally:
            engine_mod._TILE_STREAMS = budget
        if [b - a for a, b in tiled._tiles] != [4, 4, 4, 1]:
            return f"tiles {tiled._tiles} are not 4, 4, 4, 1 simulations"
        solos = [Engine(dims, [t], seed=12, init="random", sim_offset=s)
                 for s, t in enumerate(temps)]
        for _ in range(20):
            tiled.sweep()
            for solo in solos:
                solo.sweep()
        bad = int((tiled.state != np.concatenate([solo.state for solo in solos])).sum())
        flips = sum(solo.flips for solo in solos)
        if bad or tiled.flips != flips:
            return f"{bad} words and {tiled.flips} != {flips} flips differ from single engines"
        return None

    def check_fault_injection():
        # Corrupt one adder term: both the replay and the neighbor audit must see it.
        original = engine_mod.bitwise_add4

        def broken_add4(a, b, c, d):
            ones, twos, fours = original(a, b, c, d)
            return ones, twos ^ np.uint16(0x0001), fours

        engine_mod.bitwise_add4 = broken_add4
        try:
            spin_faults, _, code_faults = _oracle_audit(1.0, 5)
        finally:
            engine_mod.bitwise_add4 = original
        if spin_faults and code_faults:
            return None
        return f"corrupted adder left {spin_faults} spin and {code_faults} neighbor faults"

    return (
        ("pack/unpack round trip (random 12x96)", check_roundtrip),
        (f"draw blocks vs scalar streams ({draw_path()}, 40)", check_draws),
        ("half-adder place values (all 16 lane patterns)", check_adder),
        ("replay, halo, neighbor audit (12x96, J=+1)", lambda: check_audit(1.0)),
        ("replay, halo, neighbor audit (12x96, J=-1)", lambda: check_audit(-1.0)),
        ("tiled flips vs 13 single engines (4x32, k=4)", check_tiles),
        ("fault injection detected (corrupted adder)", check_fault_injection),
    )


def cmd_selftest(_args: argparse.Namespace) -> int:
    failures = 0
    t_start = time.perf_counter()
    for name, check in _selftest_checks():
        t0 = time.perf_counter()
        problem = check()
        dt = time.perf_counter() - t0
        status = "pass" if problem is None else f"FAIL ({problem})"
        print(f"{name:48s} {dt:6.2f}s  {status}")
        failures += 0 if problem is None else 1
    print(f"# {'PASS' if failures == 0 else 'FAIL'} in {time.perf_counter() - t_start:.1f}s")
    return 0 if failures == 0 else 1


_COMMANDS = {
    "simulate": cmd_simulate,
    "validate": cmd_validate,
    "bench": cmd_bench,
    "rngtest": cmd_rngtest,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
