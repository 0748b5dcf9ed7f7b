"""Products of quasi-isometries.

Two quasi-isometries f of R^k and g of R^l combine coordinatewise into
f x g on R^{k+l}. In the product-sum metric ||(x, y)||_1 = ||x|| + ||y||
the parameters compose cleanly: a (lam, eps) and a (mu, delta)
quasi-isometry give a (max(lam, mu), eps + delta) quasi-isometric
embedding, densities double at worst, and the displacement splits
exactly into the component displacements.
"""

import os

import numpy as np

from bilip import estimators as est
from bilip import maps, verify

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

# ---------------------------------------------------------------
# Components with verified constants
# ---------------------------------------------------------------
phi = maps.make_latitude_sphere_map(0.5, dim=2)
f = maps.radial_extension(phi)          # constant <= 1 + 2 = 3
g = maps.spiral_map(maps.LogSpiralProfile(1.0, (0, 1), 2))  # constant <= 3
print("components:")
print(f"  f = radial extension of a latitude map, claimed {f.lambda_claimed}")
print(f"  g = logarithmic spiral,                claimed {g.lambda_claimed}")

h = maps.product_map(f, g)
print(f"product acts on R^{h.dim}, claimed constant {h.lambda_claimed}")

# ---------------------------------------------------------------
# Composed parameters in the product-sum metric
# ---------------------------------------------------------------
cfg = est.SamplerConfig(seed=7, region=est.ball((0.0,) * 4, 50.0),
                        n_pairs=100_000)
report = verify.verify_product_qi(f, (3.0, 0.0), g, (3.0, 0.0), cfg)
print("\nquasi-isometry check with (max(3,3), 0+0):")
print(f"  sampled constant      : {report.observed:.6f}  (claimed {report.claimed})")
print(f"  drift identity error  : {report.details['drift_identity_error']:.2e}")
print(f"  covering radius f     : {report.details['c_density_left']:.3f}")
print(f"  covering radius g     : {report.details['c_density_right']:.3f}")
print(f"  covering radius f x g : {report.details['c_density_product']:.3f}"
      f"  (bound {report.details['c_density_bound']:.3f})")
print(f"  verdict: {'PASS' if report.passed else 'FAIL'}")

# ---------------------------------------------------------------
# The displacement splits exactly across the factors
# ---------------------------------------------------------------
rng = np.random.default_rng(1)
pts = rng.normal(size=(5, 4)) * 10.0
disp = maps.displacement_points(h, pts)
for p, d in zip(pts, disp):
    left = np.linalg.norm(d[:2])
    right = np.linalg.norm(d[2:])
    total = left + right
    print(f"  |disp_f|={left:8.4f}  |disp_g|={right:8.4f}  sum={total:8.4f}")

# an undersized claim is refutable, not just unverifiable
bad = verify.verify_product_qi(
    maps.affine([[3.0, 0.0], [0.0, 1.0]]), (1.5, 0.0),
    maps.identity(2), (1.0, 0.0),
    est.SamplerConfig(seed=7, region=est.ball((0.0,) * 4, 20.0),
                      n_pairs=50_000))
print(f"\nundersized claim (1.5, 0) for a 3-stretch map: "
      f"{'PASS' if bad.passed else 'FAIL (as it should)'}")
