"""Spans around multispin's public functions, recorded from outside the program.

`Tracer.install` replaces module attributes and class methods with wrappers
and `Tracer.uninstall` puts the originals back, so untraced commands run the
program unmodified.  Each thread keeps its own stack of open spans, which
gives every span the parent that called it even under the thread pool of
`run_simulations`.  Spans stay in memory; `layer_metrics` reduces them when
the run ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple

SHIFT = ("engine.get_bit_above", "engine.get_bit_below")
ADD4 = ("engine.bitwise_add4",)
COMPACT = ("engine.nibble_compact",)
FLIPS = ("Engine.flip_red", "Engine.flip_blue")
HALOS = ("Engine.update_red_bc", "Engine.update_blue_bc")
MEASURES = ("Engine.abs_magnetization", "Engine.energy_per_spin")


class Span(NamedTuple):
    span_id: int
    parent: int  # 0 for a root span
    name: str
    start_ns: int
    end_ns: int
    extra: object  # what the wrapper counted, or None


def _size(_args, out):
    return int(out.size)


def _first_size(_args, out):
    return int(out[0].size)


def _run_counts(args, out):
    # An engine is run once per command, so its counters are this run's.
    return out.meta["attempts"], args[0].flips


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            self.spans.append(
                Span(span_id, parent, name, start, end, count(args, out) if count else None)
            )
            return out

        return traced

    def _patch(self, owner, attr, name, count=None):
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, count))

    def install(self, cli, engine, rng) -> None:
        """Wrap the layers named in README.md (module objects passed in)."""
        self._patch(rng.XoshiroStreams, "unit_block", "rng.unit_block", _size)
        self._patch(engine, "get_bit_above", SHIFT[0], _size)
        self._patch(engine, "get_bit_below", SHIFT[1], _size)
        self._patch(engine, "bitwise_add4", ADD4[0], _first_size)
        self._patch(engine, "nibble_compact", COMPACT[0], _size)
        self._patch(engine, "pack", "lattice.pack")
        self._patch(engine, "unpack", "lattice.unpack")
        for method in ("__init__", "flip_red", "flip_blue", "update_red_bc", "update_blue_bc",
                       "abs_magnetization", "energy_per_spin"):
            self._patch(engine.Engine, method, f"Engine.{method}")
        self._patch(engine.Engine, "run", "Engine.run", _run_counts)
        # cmd_simulate calls the names bound in the cli module.
        self._patch(cli, "run_simulations", "engine.run_simulations")
        self._patch(cli, "write_csv", "cli.write_csv")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def attempts(self) -> int:
        return sum(s.extra[0] for s in self.spans if s.name == "Engine.run")


def _seconds(span: Span) -> float:
    return (span.end_ns - span.start_ns) * 1e-9


def _covered_seconds(spans) -> float:
    """Length of the union of the spans' intervals."""
    total = 0
    reach = None
    for span in sorted(spans, key=lambda s: s.start_ns):
        if reach is None or span.start_ns >= reach:
            total += span.end_ns - span.start_ns
            reach = span.end_ns
        elif span.end_ns > reach:
            total += span.end_ns - reach
            reach = span.end_ns
    return total * 1e-9


def layer_metrics(spans, commands: int, sweeps: int) -> dict:
    """Per-layer figures over `commands` traced commands of `sweeps` sweeps each.

    Times are summed over threads.  Self time is a span's length minus the
    union of its children's intervals; `trace.flip_closure` adds the
    children's own lengths back, so it leaves 1 only if children overlap
    or are attributed to the wrong parent.
    """
    by_id = {s.span_id: s for s in spans}
    children = defaultdict(list)
    by_name = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
        by_name[s.name].append(s)

    def total(names, parents=None):
        return sum(
            _seconds(s) for name in names for s in by_name[name]
            if parents is None or (s.parent in by_id and by_id[s.parent].name in parents)
        )

    def calls(names):
        return sum(len(by_name[name]) for name in names)

    total_sweeps = commands * sweeps
    flips = [s for name in FLIPS for s in by_name[name]]
    flip_span = sum(_seconds(s) for s in flips)
    flip_self = sum(_seconds(s) - _covered_seconds(children[s.span_id]) for s in flips)
    flip_children = sum(_seconds(c) for s in flips for c in children[s.span_id])
    draws = by_name["rng.unit_block"]
    kernels = SHIFT + ADD4 + COMPACT
    runs = by_name["Engine.run"]
    attempts = sum(s.extra[0] for s in runs)
    return {
        "rng.unit_block.s_per_sweep": total(["rng.unit_block"]) / total_sweeps,
        "rng.draws_per_ns": sum(s.extra for s in draws) / (total(["rng.unit_block"]) * 1e9),
        "bitkernels.shift.s_per_sweep": total(SHIFT) / total_sweeps,
        "bitkernels.add4.s_per_sweep": total(ADD4) / total_sweeps,
        "bitkernels.compact.s_per_sweep": total(COMPACT) / total_sweeps,
        "bitkernels.calls_per_sweep": calls(kernels) / total_sweeps,
        "bitkernels.words_per_call": sum(s.extra for name in kernels for s in by_name[name])
        / calls(kernels),
        "engine.accept.s_per_sweep": flip_self / total_sweeps,
        "engine.halo.s_per_sweep": total(HALOS, parents=("Engine.run",)) / total_sweeps,
        "engine.measure.s_per_call": total(MEASURES) / calls(MEASURES[:1]),
        "lattice.unpack.s_per_call": total(["lattice.unpack"]) / calls(["lattice.unpack"]),
        "engine.thread_overlap": total(["Engine.run"]) / total(["engine.run_simulations"]),
        "engine.setup.s": total(["Engine.__init__"]) / commands,
        "lattice.pack.s": total(["lattice.pack"]) / commands,
        "cli.write_csv.s": total(["cli.write_csv"]) / commands,
        "engine.accepted_share": sum(s.extra[1] for s in runs) / attempts,
        "trace.flip_closure": (flip_children + flip_self) / flip_span,
    }
