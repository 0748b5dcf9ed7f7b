"""Piecewise-linear homeomorphisms with exact norms.

On a Kuhn-triangulated box a PL map is affine on every simplex, so its
differential norm sup ||T_sigma f|| is a finite maximum computed
exactly, not estimated. This script builds a compactly supported PL
twist, certifies its constant, feeds it through the disk-replication
embedding, and round-trips it through the canonical map text.
"""

import os
import tempfile

import numpy as np

from bilip import estimators as est
from bilip import maps, pl
from bilip.mapformat import load_map, save_map

# ---------------------------------------------------------------
# Kuhn triangulations: n! simplices per cube
# ---------------------------------------------------------------
for n, res in ((2, 8), (3, 4)):
    tri = pl.kuhn_triangulation(n, (-1.0, 1.0), res)
    print(f"dimension {n}, resolution {res}: "
          f"{tri.n_vertices} vertices, {tri.n_simplices} simplices")

# ---------------------------------------------------------------
# A compactly supported PL twist and its exact constants
# ---------------------------------------------------------------
f = pl.pl_twist_example(2, 8, 0.4)
validation = pl.pl_validate(f)
print(f"\nPL twist: {validation}")

norm, argmax = pl.pl_differential_norm(f, with_argmax=True)
lam = pl.pl_bilip_constant(f)
print(f"  differential norm sup ||T_sigma f|| = {norm:.6f} "
      f"(attained on simplex {argmax})")
print(f"  bi-Lipschitz constant               = {lam:.6f}")

# the certificate is never beaten by sampled two-point ratios
rng = np.random.default_rng(0)
x = rng.uniform(-1, 1, size=(100_000, 2))
y = np.clip(x + rng.normal(size=x.shape) * 1e-3, -1, 1)
d = np.linalg.norm(x - y, axis=1)
keep = d > 1e-12
df = np.linalg.norm(pl.pl_eval(f, x[keep]) - pl.pl_eval(f, y[keep]), axis=1)
ratios = np.maximum(df / d[keep], d[keep] / df)
print(f"  sampled max ratio over 1e5 pairs    = {ratios.max():.6f}")

# ---------------------------------------------------------------
# Into the unit ball and onto the replication disks
# ---------------------------------------------------------------
g = maps.pl_disk_map(f)
print(f"\nas a disk map: claimed constant {g.lambda_claimed:.6f} (unchanged)")

rep = maps.disk_replication(g)
cfg = est.SamplerConfig(seed=7, region=est.ball((0.0, 0.0), 300.0),
                        n_pairs=200_000)
sampled = est.bilip_lower_bound(rep, cfg)
print(f"replicated over the disk family: sampled {sampled.lambda_lower:.6f} "
      f"<= {g.lambda_claimed:.6f}")

# ---------------------------------------------------------------
# Map text round trip: plmap(dim, lo, hi, resolution, boundary_fixed, images)
# ---------------------------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "twist.map")
    save_map(f, path)
    back = load_map(path, pl.PLMap)
    exact = np.array_equal(back.vertex_images, f.vertex_images)
    print(f"\nmap text round trip bit-exact: {exact}")
