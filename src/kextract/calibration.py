"""Committed machine constants, measured once and frozen.

Every value here was produced by the exact oracles and engines in this
package at the recorded scale, then pinned so later runs regress against
a fixed target instead of re-deriving it. Changing the machine, the
enumeration order, or the generator invalidates these numbers and the
pipeline fixtures with them.
"""

# Slack margin added to class floors when translating a balance guarantee
# into a complexity guarantee; log2 of the measured symmetry constant's
# scale at n=4 (max deviation 6 means a two-bit margin keeps floors safe).
DELTA_MARGIN = 2

# Max |C(x||y) - (C(x) + C(y|x))| over all 4-bit pairs, singles at
# l_max=8, pairs at l_max=16. The machine's symmetry-of-information
# constant at desk scale.
SYMMETRY_MAX_DEVIATION_N4 = 6

# The same over all 5-bit pairs (singles at l_max=10, pairs at l_max=20;
# histogram {0: 894, 2: 56, 4: 56, 6: 18}) and all 6-bit pairs (singles
# at l_max=12, pairs at l_max=24; histogram {0: 3106, 2: 608, 4: 302,
# 6: 76, 8: 4}). No pair is skipped at either size.
SYMMETRY_MAX_DEVIATION_N5 = 6
SYMMETRY_MAX_DEVIATION_N6 = 8

# Largest fitted census constant c = |B_{x,alpha}| / 2^(n-alpha) over all
# 5-bit x at alpha=2, conditional table at l_max=10. Only y = x survives
# the two-bit drop at this scale.
MAX_FITTED_C_N5_ALPHA2 = 0.125

# Comparative separation fixture: the first splitmix64 seed whose
# 6-bit-output random table on 4-bit pairs colors no cell 0 or 63 (the
# only 6-bit strings cheaper than 12 bits, both costing 10). Its worst
# single-color rectangle census at k=3 is 8/64, so it passes the almost
# balance check at eps = 1/8 while the constant table fails it.
SEPARATION_SEED = 740
SEPARATION_M = 6
SEPARATION_EPS_BALANCE = 0.125
SEPARATION_EPS_STAR = 0.546875  # 35/64, measured at k=3, d=0
SEPARATION_ALPHA = 2  # ceil(log2(64/35)) + 0 + 1

# Inner-product table at n=4, k=3, d=0: worst single-color census over
# all 8x8 rectangles, and the exact eps* it induces at m=1.
IP4_WORST_CELLS = 44
IP4_EPS_STAR = 0.1875
