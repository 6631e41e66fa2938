"""Two routes to the operator image of a cap datum.

The operator is defined by an area integral against the kernel over the
cap disk; for the monomial data it collapses to a contour integral over
a circle of adjustable radius r0. The circle route must not depend on
r0, and both routes must land on the same values.
"""

import numpy as np

from faberforms import (
    AffineMap,
    CapDatum,
    CapFamily,
    JoukowskiEllipseMap,
    SurfaceSpec,
    apply_schiffer,
    contour_nodes,
    contour_radius,
    schiffer_contour,
)
from faberforms.faber import alpha_values
from faberforms.schiffer import order_limit

surface = SurfaceSpec.sphere(CapFamily([
    AffineMap(0.4),
    JoukowskiEllipseMap(0.25, scale=0.3, offset=2.5),
]), w0=4.0 + 3.0j)

pts = np.array([1.2 + 0.9j, -1.1 - 0.4j, 3.6 - 1.2j, 0.8 - 1.5j])

print("contour route at three radii, then the area route, cap 0, m = 2")
vals = {r: schiffer_contour(surface, 0, 2, pts, r0=r) for r in (0.4, 0.6, 0.8)}
area = apply_schiffer(surface, CapDatum.monomial(0, 2), pts)
for i, z in enumerate(pts):
    row = "  ".join(f"{vals[r][i]:.10f}" for r in (0.4, 0.6, 0.8))
    print(f"z = {z:>10}: {row}")
    print(f"{'area':>14}: {area[i]:.10f}")

spread = max(
    float(np.max(np.abs(vals[a] - vals[b])))
    for a in vals for b in vals if a < b
)
gap = float(np.max(np.abs(area - vals[0.6])))
print()
print(f"radius spread {spread:.1e}, contour-to-area gap {gap:.1e}")

print()
print("default radius grows with the order in steps, to keep the integrand tame;")
print("each step's radius is read with the fewest of 64, 128, 256, 512, 1024 nodes")
print("whose aliasing factor r0^n is at most 1e-19 (1024 where none is) and carries")
print("orders up to the largest m with roundoff amplification r0^(-m) * eps at most 1e-8:")
for first, last in ((1, 6), (7, 12), (13, 24), (25, 48), (49, 96)):
    r0 = contour_radius(last)
    print(f"  m = {first:>2}..{last:<3}: r0 = {r0:.3f}, n = {contour_nodes(r0):>4}, "
          f"r0^n = {r0 ** contour_nodes(r0):.1e}, order limit {order_limit(r0)}")

print()
print("alpha_values reads orders 1..M of a cap from one kernel block, on the step")
print("of order M: a lower order's roundoff r0^(-m) * eps only shrinks on the larger")
print("radius, and the aliasing (r0 / rho)^n does not depend on m; at the inner")
r0 = contour_radius(30)
print(f"measuring circle rho = 0.95 it is ({r0:.3f} / 0.95)^{contour_nodes(r0)} = "
      f"{(r0 / 0.95) ** contour_nodes(r0):.1e},")
print("the figure orders 25..48 carry on their own step")
orders = range(1, 31)
block = alpha_values(surface, 0, orders, pts)
own = np.stack([schiffer_contour(surface, 0, m, pts, r0=contour_radius(m), n=2048)
                for m in orders], axis=-1)
gap = float(np.max(np.abs(block - own)) / np.max(np.abs(own)))
print("orders 1..30 from one block vs 2048-node reads, each on its own radius:")
print(f"  max gap {gap:.1e} of max |value|")
