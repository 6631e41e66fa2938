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
print("all orders of a step share one radius and so one kernel block, read with")
print("the fewest of 64, 128, 256 nodes whose aliasing factor r0^n is at most 1e-19")
print("(256 where none is):")
for first, last in ((1, 6), (7, 12), (13, 24), (25, 48), (49, 96)):
    r0 = contour_radius(last)
    print(f"  m = {first:>2}..{last:<3}: r0 = {r0:.3f}, n = {contour_nodes(r0):>3}, "
          f"r0^n = {r0 ** contour_nodes(r0):.1e}")

orders = range(7, 13)
block = schiffer_contour(surface, 0, orders, pts)
single = np.stack([schiffer_contour(surface, 0, m, pts) for m in orders], axis=-1)
print(f"orders 7..12 from one block vs one call each: max gap "
      f"{float(np.max(np.abs(block - single))):.1e}")
