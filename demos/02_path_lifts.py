"""From sampled paths to signatures and piecewise-abelian descriptions.

A time series is read as a piecewise linear path.  Its signature over any
window of sample times is a product of segment exponentials; taking logs
per partition interval produces the compact log-linear description that
the kernel solver consumes.
"""

import numpy as np

from pabsig import (
    TimeSeries,
    build_pab,
    chen_signature,
    exp_trunc,
    log_signature,
    mul_trunc,
    pab_partial_signatures,
)

# an L-shaped path: right one unit, then up one unit
ts = TimeSeries([0.0, 1.0, 2.0], [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
sig = chen_signature(ts, None, 2)
print("signature of the L-path, degree 2:")
print(" ", sig.coeffs, " (e12 = 1: the two moves happen in order)")

logsig = log_signature(ts, None, 2)
print("log-signature:", logsig.tensor.coeffs)
print("  level 1 is the net displacement, level 2 the signed area +-1/2")

# Chen's identity: signatures multiply over concatenation
left = chen_signature(ts, (0.0, 1.0), 2)
right = chen_signature(ts, (1.0, 2.0), 2)
gap = np.abs(mul_trunc(left, right).coeffs - sig.coeffs).max()
print(f"\nChen multiplicativity gap at the interior point: {gap:.1e}")

# a rougher path and its piecewise-abelian description on a coarse partition
rng = np.random.default_rng(1)
times = np.linspace(0.0, 1.0, 9)
values = np.vstack([np.zeros(2),
                    np.cumsum(rng.standard_normal((8, 2)) * 0.3, axis=0)])
walk = TimeSeries(times, values)

pab = build_pab(walk, walk.times[::2], 3)
print(f"\npiecewise-abelian lift: {pab.n_intervals} intervals, degree 3,")
print(f"  {pab.increments.shape[1]} coefficients per interval")

# the partial products of exp(increment) recover the signature at every
# partition point
sigs = pab_partial_signatures(pab)
for i, t in enumerate(pab.partition):
    direct = chen_signature(walk, (0.0, t), 3) if i else None
    if i == 0:
        print(f"  t={t:.2f}: G_0 = 1")
        continue
    gap = np.abs(sigs[i].coeffs - direct.coeffs).max()
    print(f"  t={t:.2f}: |G_{i} - signature| = {gap:.1e}")

# degree-1 increments are just the displacement between partition points
lin = build_pab(walk, walk.times[::2], 1)
print("\ndegree-1 increments (rows) equal the coarse displacements:")
print(lin.increments[:, 1:])
