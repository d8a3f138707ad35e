"""
Word-level kernels: shifted neighbors and half-adder sums
=========================================================

Sixteen spins per word means one vector instruction touches sixteen sites.
This script traces the two shift kernels that fetch vertical neighbors
across word boundaries, then runs the four-way half-adder network that sums
neighbor bits into place-value planes.
"""

import numpy as np

from multispin.bitkernels import bitwise_add4, get_bit_above, get_bit_below, nibble_compact

###############################################################################
# Vertical neighbors across word boundaries
# -----------------------------------------
# In a column vector of words, bit t of element k packs the lattice row
# 32*(k-1) + 2*t (+ parity).  The row above bit 15 lives in the next word,
# so fetching "one row up" mixes two words.

v = np.array([0x0000, 0x8001, 0x0007, 0x0000], dtype=np.uint16)
print("vector words:", [f"{int(x):04x}" for x in v])
print("bit above   :", [f"{int(x):04x}" for x in get_bit_above(v)])
print("bit below   :", [f"{int(x):04x}" for x in get_bit_below(v)])

###############################################################################
# Half-adder network
# ------------------
# Four neighbor planes summed per bit lane into ones/twos/fours places.
# Lane q of these four constants spells out the binary digits of q, so all
# sixteen input combinations are checked in one shot.

a = np.uint16(0xFF00)
b = np.uint16(0xF0F0)
c = np.uint16(0xCCCC)
d = np.uint16(0xAAAA)
ones, twos, fours = bitwise_add4(a, b, c, d)
print("\nlane | a b c d | sum | fours twos ones")
for lane in range(16):
    bits = [(int(x) >> lane) & 1 for x in (a, b, c, d)]
    o, t, f = ((int(x) >> lane) & 1 for x in (ones, twos, fours))
    print(f"  {lane:2d} | {bits[0]} {bits[1]} {bits[2]} {bits[3]} |  {sum(bits)}  |"
          f"   {f}     {t}    {o}")

###############################################################################
# Nibble compaction
# -----------------
# Every fourth lane is gathered into a 4-bit field: neighbor count in bits
# 0-2, the spin's own state in bit 3.  The field is the code c of the
# Metropolis acceptance table: the engine accepts the spin when bit c of
# its draw's acceptance mask is set.

spins = np.uint16(0b1000_1000_0000_0001)
ssum = nibble_compact(ones, twos, fours, spins, 0)
print(f"\ncompacted fields for lanes 0,4,8,12 (own spins {int(spins):04x}):")
for ii in range(4):
    code = (int(ssum) >> (4 * ii)) & 0xF
    print(f"  lane {4 * ii:2d}: code {code:2d} = 8*{code >> 3} + {code & 7}")
