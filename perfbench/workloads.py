"""Benchmark workloads: each is one `multispin simulate` command line.

Why each workload exists is recorded in README.md next to this file.  Every
workload runs a single `--n-sim 1` batch; the temperature list sets how many
simulations run side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

# Sweeps replayed through the plain-lattice oracle by the gate.
GATE_SWEEPS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    m: int
    n: int
    temperature: str  # the --temperature argument, as a user would type it
    temps: tuple  # the temperatures that argument must expand to
    sweeps: int
    measure_interval: int
    init: str
    # Largest |summarize(...).deviation| allowed for simulations with
    # T <= 0.93 T_c; None skips the Onsager check.
    onsager_band: float | None = None

    @property
    def n_sim(self) -> int:
        return len(self.temps)

    @property
    def attempts(self) -> int:
        """Spin-flip attempts of one full command: m * n * n_sim * sweeps."""
        return self.m * self.n * self.n_sim * self.sweeps

    def schedule(self, sweeps: int) -> list:
        """Sweep indices at which the program measures, in CSV order."""
        return [k for k in range(1, sweeps + 1) if k % self.measure_interval == 0 or k == sweeps]

    def argv(self, seed: int, output: str, sweeps: int | None = None,
             threads: int | None = None) -> list:
        argv = [
            "simulate",
            "--m", str(self.m),
            "--n", str(self.n),
            "--temperature", self.temperature,
            "--sweeps", str(self.sweeps if sweeps is None else sweeps),
            "--measure-interval", str(self.measure_interval),
            "--init", self.init,
            "--seed", str(seed),
            "--output", output,
        ]
        if threads is not None:
            argv += ["--threads", str(threads)]
        return argv


WORKLOADS = {
    wl.name: wl
    for wl in (
        # Not in BENCHMARK.json: too unsteady on a shared host (README.md, Steadiness); run by hand.
        Workload("small-128", 128, 128, "2.0", (2.0,), sweeps=50, measure_interval=10,
                 init="random"),
        Workload("ladder-256x8", 256, 256, "2.0:2.35:0.05",
                 tuple(round(2.0 + 0.05 * k, 2) for k in range(8)),
                 sweeps=40, measure_interval=1, init="all-up", onsager_band=0.03),
        Workload("single-1024", 1024, 1024, "2.0", (2.0,), sweeps=30, measure_interval=30,
                 init="random"),
        # Not in BENCHMARK.json: a seconds-long run of every code path for the smoke test.
        Workload("smoke", 12, 96, "1.5:2.5:1.0", (1.5, 2.5), sweeps=40, measure_interval=1,
                 init="all-up", onsager_band=0.03),
    )
}
