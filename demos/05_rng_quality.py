"""
Random-stream quality checks
============================

The engine draws from one xoshiro256++ stream per (simulation, cell, word),
shaping both 32-bit halves of each output, high half first, into unit-interval
floats by mantissa splicing (it compares the integer mantissa k against
ceil(p * 2**23)).  This script runs the bit-stream battery on one stream, then
examines the shaped top-half floats for uniformity (frequency histogram) and
independence (lag-1 joint distribution, median thresholding).
"""

import numpy as np

from multispin.rng import (
    Xoshiro256pp,
    frequency_histogram,
    lag1_joint,
    median_threshold_bits,
    run_battery,
    shape_unit_float,
)

###############################################################################
# Float shaping
# -------------
# Low 23 bits -> mantissa of a binary32 in [1, 2), minus one.

for raw in (0x00000000, 0x00400000, 0x007FFFFF, 0xFFC00000):
    print(f"raw 0x{raw:08x} -> {shape_unit_float(raw):.9f}")

###############################################################################
# Bit-stream battery (1M bits here; the acceptance run uses 6.4M)
# ---------------------------------------------------------------

bits = Xoshiro256pp(2718).bits(1_000_000)
print("\nbattery over", bits.size, "bits:")
for report in run_battery(bits):
    print(f"  {report.name:26s} p = {report.p_value:.4f}  "
          f"{'pass' if report.passed else 'FAIL'}")

###############################################################################
# Shaped-float uniformity and independence
# ----------------------------------------

floats = Xoshiro256pp(2718, stream=1).unit_floats(1_000_000)
for width in (0.01, 0.1):
    hist = frequency_histogram(floats, width)
    print(f"\nbin width {width}: highest {hist.frequencies.max():.6f}, "
          f"lowest {hist.frequencies.min():.6f}, spread {hist.spread * 100:.2f}%")

joint = lag1_joint(floats)
print(f"\nlag-1 joint chi-square p = {joint.p_value:.4f} "
      f"({'pass' if joint.passed else 'FAIL'})")

med_bits = median_threshold_bits(floats)
print(f"median-thresholded bits balanced: {med_bits.mean():.4f} ones fraction")
print("battery over thresholded bits:")
for report in run_battery(med_bits):
    print(f"  {report.name:26s} p = {report.p_value:.4f}  "
          f"{'pass' if report.passed else 'FAIL'}")

###############################################################################
# A broken stream fails loudly
# ----------------------------

ramp = np.linspace(0.0, 1.0, 200_000, endpoint=False)
broken = run_battery(median_threshold_bits(ramp))
print("\nmonotone ramp thresholded at its median:")
for report in broken:
    print(f"  {report.name:26s} p = {report.p_value:.4f}  "
          f"{'pass' if report.passed else 'FAIL'}")
