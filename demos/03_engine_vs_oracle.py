"""
Bit-exact agreement between the packed engine and a plain oracle
================================================================

Every random draw the engine consumes is keyed to the one spin it gates,
read from a copy of the engine's streams in the stated draw order.
Replaying those draws through a straightforward +/-1 checkerboard sweep
must land on the identical lattice after every sweep -- no tolerance, no
statistics, spin for spin.
"""

from multispin.engine import Engine
from multispin.lattice import LatticeDims, unpack
from multispin.reference import checkerboard_sweep_plain, record_engine_randoms

dims = LatticeDims(12, 96)
T = 2.0
sweeps = 200

###############################################################################
# Record
# ------

recording = Engine(dims, [T], seed=7, init="random")
start = recording.lattice(0).copy()
random_map = record_engine_randoms(recording, sweeps)
print(f"recorded {random_map.entries_per_sweep()} draws per sweep "
      f"({dims.sites} spins) over {sweeps} sweeps")

###############################################################################
# Replay
# ------

replay = Engine(dims, [T], seed=7, init="random")
spins = start.copy()
mismatches = 0
for k in range(sweeps):
    replay.sweep()
    checkerboard_sweep_plain(spins, T, random_map.for_sweep(k))
    mismatches += int((unpack(replay.packed(0)) != spins).sum())
    if k % 50 == 49:
        m_eng = abs(unpack(replay.packed(0)).mean())
        print(f"  sweep {k + 1:4d}: |M| = {m_eng:.4f}, cumulative mismatches = {mismatches}")

print("\nbit-exact:", mismatches == 0)
print("halo words off canonical sources:", replay.halo_mismatches())
print("flip attempts:", replay.attempts, "accepted flips:", replay.flips)
