"""Analytic cap maps from the unit disk and families of disjoint caps.

Every map here sends the closed unit disk injectively onto an analytic
Jordan region, with f(0) the distinguished center. Injectivity is enforced
for the documented parameter ranges and spot-checked on boundary samples;
the derivative is checked to be nonvanishing on a fixed interior grid.
"""

from __future__ import annotations

import numpy as np

from .numerics import TWO_PI, NumericalError, ValidationError, polyder, polyval, slice_views

# evaluation is allowed on the closed disk; anything beyond is a caller bug
_DOMAIN_SLACK = 1e-12
INVERT_TOL = 1e-12  # ConformalMap.invert's relative residual bound
INVERT_STEPS = 50  # and its most Newton steps


def winding_number(polygon: np.ndarray, z) -> np.ndarray:
    """Winding number of a closed sample polygon around each point of ``z``.

    The polygon is given by its vertices in order (the closing edge back to
    the first vertex is implicit). Points on or extremely near the polygon
    give unreliable results; callers guard with a distance check. The
    point-by-vertex block of edge ratios is built in row slices of
    ``numerics.row_slices``, into buffers allocated once per call; a
    point's sum does not depend on the slicing. The angles are those of
    ``np.angle`` and the sum that of ``np.nansum``, without their copies.
    """
    p = np.asarray(polygon, dtype=complex)
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    p_next = np.roll(p, -1)
    out = np.empty(zz.shape, dtype=int)
    for rows, (ratio, below, angle) in slice_views(zz.size, p.size, complex, complex, float):
        w = zz[rows, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(np.subtract(p_next, w, out=ratio), np.subtract(p, w, out=below), out=ratio)
        np.arctan2(ratio.imag, ratio.real, out=angle)
        np.copyto(angle, 0.0, where=np.isnan(angle))
        out[rows] = np.round(np.sum(angle, axis=1) / TWO_PI)
    return out if np.ndim(z) else out[0]


def nearest_distance(samples: np.ndarray, z: np.ndarray) -> np.ndarray:
    """min_j |samples_j - z_i| for each point z_i of the 1-d array ``z``.

    The point-by-sample block is built in row slices of
    ``numerics.row_slices``, into buffers allocated once per call, so it
    never exists whole; the minima are the same floats.
    """
    out = np.empty(z.shape)
    for rows, (diff, dist) in slice_views(z.size, samples.size, complex, float):
        np.subtract(samples, z[rows, None], out=diff)
        np.min(np.abs(diff, out=dist), axis=1, out=out[rows])
    return out


class ConformalMap:
    """Base class: injective analytic map of the closed unit disk.

    Subclasses implement ``_evaluate`` and ``_derivative`` on raw arrays.
    """

    kind: str = "abstract"

    def __init__(self, parameters):
        self.parameters = tuple(complex(p) for p in parameters)
        self._seed_table = None
        self._validate_construction()
        self.center = complex(self._evaluate(np.zeros(1))[0])

    # -- subclass surface ---------------------------------------------------

    def _evaluate(self, zeta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _derivative(self, zeta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- public api ----------------------------------------------------------

    def evaluate(self, zeta):
        z = self._check_domain(zeta)
        out = self._evaluate(z)
        return out if np.ndim(zeta) else complex(out[0])

    def derivative(self, zeta):
        z = self._check_domain(zeta)
        out = self._derivative(z)
        return out if np.ndim(zeta) else complex(out[0])

    def boundary(self, n: int = 512) -> np.ndarray:
        """Image samples of the unit circle."""
        zeta = np.exp(1j * TWO_PI * np.arange(n) / n)
        return self.evaluate(zeta)

    def invert(self, w):
        """Newton solve of f(zeta) = w, seeded from a forward-sample table.

        Accepts scalars or arrays. Raises when any point fails to reach
        |f(zeta) - w| < INVERT_TOL * max(1, |w|) within INVERT_STEPS steps,
        carrying the last iterate and residual.
        """
        ww = np.atleast_1d(np.asarray(w, dtype=complex))
        table_z, table_w = self._seeds()
        # nearest forward sample by modulus of difference
        idx = np.argmin(np.abs(table_w[None, :] - ww[:, None]), axis=1)
        zeta = table_z[idx].copy()
        target = INVERT_TOL * np.maximum(1.0, np.abs(ww))
        for _ in range(INVERT_STEPS):
            res = self._evaluate(zeta) - ww
            if np.all(np.abs(res) < target):
                break
            step = res / self._derivative(zeta)
            # keep iterates inside the closed disk where the map is trusted
            nxt = zeta - step
            over = np.abs(nxt) > 1.0
            if over.any():
                nxt[over] = nxt[over] / np.abs(nxt[over])
            zeta = nxt
        res = np.abs(self._evaluate(zeta) - ww)
        if np.any(res >= target):
            j = int(np.argmax(res))
            raise NumericalError(
                f"inverse iteration stalled at zeta = {zeta[j]:.6g} "
                f"with residual {res[j]:.3e} for w = {ww[j]:.6g}"
            )
        return zeta if np.ndim(w) else complex(zeta[0])

    # -- internals ------------------------------------------------------------

    def _check_domain(self, zeta) -> np.ndarray:
        z = np.atleast_1d(np.asarray(zeta, dtype=complex))
        r = np.abs(z)
        if np.any(r > 1.0 + _DOMAIN_SLACK):
            raise ValidationError(
                f"map evaluated outside the closed unit disk (|zeta| = {float(r.max()):.6g})"
            )
        return z

    def _seeds(self):
        if self._seed_table is None:
            r = (np.arange(64) + 0.5) / 64.0
            th = TWO_PI * np.arange(64) / 64.0
            zeta = (r[:, None] * np.exp(1j * th)[None, :]).ravel()
            self._seed_table = (zeta, self._evaluate(zeta))
        return self._seed_table

    def _validate_construction(self):
        # derivative must not vanish anywhere we will ever evaluate it
        r = (np.arange(32) + 1.0) / 32.0
        th = TWO_PI * np.arange(64) / 64.0
        grid = (r[:, None] * np.exp(1j * th)[None, :]).ravel()
        d = np.abs(self._derivative(grid))
        # the median as np.median computes it (the mean of the middle one or
        # two sorted values), without the numpy.ma import np.median pulls in
        srt = np.sort(d)
        ref = float(np.mean(srt[(srt.size - 1) // 2:srt.size // 2 + 1]))
        if np.any(d < 1e-8 * max(ref, 1e-30)):
            raise ValidationError(
                f"{self.kind} map derivative vanishes on the disk "
                f"(min {float(d.min()):.3e} at |zeta| <= 1)"
            )
        # argument principle: zeros of f' inside the disk equal the winding
        # of f' over the boundary around 0, which must be 0
        circle = np.exp(1j * TWO_PI * np.arange(256) / 256)
        bd = self._derivative(circle)
        if winding_number(bd, 0.0) != 0:
            raise ValidationError(f"{self.kind} map derivative vanishes inside the disk")
        # argument principle again: the center must have exactly one preimage
        b = self._evaluate(circle)
        if winding_number(b, self._evaluate(np.zeros(1))[0]) != 1:
            raise ValidationError(f"{self.kind} map covers its center more than once")
        # injectivity spot check on the boundary (heuristic, not a proof):
        # the least |b_j - b_i| over j != i, with 1 standing in on the
        # diagonal, taken in row slices; np.minimum keeps a NaN
        least = np.inf
        for rows, (diff, dist) in slice_views(b.size, b.size, complex, float):
            np.abs(np.subtract(b[None, :], b[rows, None], out=diff), out=dist)
            dist[np.arange(dist.shape[0]), np.arange(rows.start, rows.stop)] += 1.0
            least = np.minimum(least, dist.min())
        if float(least) < 1e-9 * max(float(np.abs(b).max()), 1.0):
            raise ValidationError(f"{self.kind} map is not injective on boundary samples")

    def __repr__(self):
        pars = ", ".join(f"{p:.6g}" for p in self.parameters)
        return f"{type(self).__name__}({pars})"


class AffineMap(ConformalMap):
    """f(zeta) = offset + scale * zeta."""

    kind = "affine"

    def __init__(self, scale: complex, offset: complex = 0.0):
        if abs(complex(scale)) == 0:
            raise ValidationError("affine scale must be nonzero")
        super().__init__((scale, offset))

    def _evaluate(self, zeta):
        s, b = self.parameters
        return b + s * zeta

    def _derivative(self, zeta):
        s, _ = self.parameters
        return np.full_like(zeta, s)


class JoukowskiEllipseMap(ConformalMap):
    """Oval cap f(zeta) = offset + scale * zeta / (1 - a zeta^2).

    This is the inversion of the exterior Joukowski map u -> u - a/u; the
    image boundary is an analytic oval. Injective with nonvanishing
    derivative on the closed disk for |a| < 1; the constructor enforces
    |a| <= 0.8 to keep the nearest singularity (at |zeta| = |a|^(-1/2))
    a safe distance outside.
    """

    kind = "joukowski-ellipse"

    def __init__(self, a: complex, scale: complex = 1.0, offset: complex = 0.0):
        if abs(complex(a)) > 0.8:
            raise ValidationError(f"joukowski parameter needs |a| <= 0.8, got |a| = {abs(a):.3g}")
        if abs(complex(scale)) == 0:
            raise ValidationError("joukowski scale must be nonzero")
        super().__init__((a, scale, offset))

    def _evaluate(self, zeta):
        a, s, b = self.parameters
        return b + s * zeta / (1.0 - a * zeta ** 2)

    def _derivative(self, zeta):
        a, s, _ = self.parameters
        return s * (1.0 + a * zeta ** 2) / (1.0 - a * zeta ** 2) ** 2


class PolynomialCapMap(ConformalMap):
    """f(zeta) = offset + sum_j c_j zeta^j, j >= 1.

    The constructor only spot-checks injectivity; coefficients with
    sum_j j |c_j| < |c_1| are injective by the classic bound, and the
    bundled configurations stay well inside it.
    """

    kind = "polynomial-perturbation"

    def __init__(self, coefficients, offset: complex = 0.0):
        coefficients = tuple(complex(c) for c in coefficients)
        if not coefficients or coefficients[0] == 0:
            raise ValidationError("polynomial cap needs a nonzero linear coefficient")
        super().__init__((offset,) + coefficients)

    def _evaluate(self, zeta):
        b = self.parameters[0]
        poly = np.concatenate(([0.0], self.parameters[1:]))
        return b + polyval(zeta, poly)

    def _derivative(self, zeta):
        poly = np.concatenate(([0.0], self.parameters[1:]))
        return polyval(zeta, polyder(poly))


class TranslatedMap(ConformalMap):
    """f0(zeta) + shift for a base map f0: the cap of f0 moved by shift."""

    kind = "translated"

    def __init__(self, base: ConformalMap, shift: complex):
        self.base = base
        super().__init__((shift,))

    def _evaluate(self, zeta):
        return self.base._evaluate(zeta) + self.parameters[0]

    def _derivative(self, zeta):
        return self.base._derivative(zeta)


_FAMILIES = {
    "affine": AffineMap,
    "joukowski-ellipse": JoukowskiEllipseMap,
    "polynomial-perturbation": PolynomialCapMap,
}


def make_map(kind: str, **params) -> ConformalMap:
    """Build a map from a family name and keyword parameters.

    Accepted kinds and parameters:
      affine: scale, offset
      joukowski-ellipse: a, scale, offset
      polynomial-perturbation: coefficients (list, linear term first), offset
    """
    if kind not in _FAMILIES:
        raise ValidationError(f"unknown map kind {kind!r}; choose from {sorted(_FAMILIES)}")
    try:
        return _FAMILIES[kind](**params)
    except TypeError as exc:
        raise ValidationError(f"bad parameters for {kind} map: {exc}") from None


# boundary samples per cap for the disjointness, containment and distance
# tests
CAP_SAMPLES = 512
CAP_SEPARATION = 0.02  # least gap between the boundary samples of two caps
# a cap's sample polygon lies in the disk |z - centroid| <= radius; a point
# farther out than radius + _DISK_SLACK is more than 1e-6 from the polygon
# and outside it, so the near-polygon and winding tests may skip it
_DISK_SLACK = 1e-6


class CapFamily:
    """An ordered list of cap maps with pairwise disjoint closed images.

    Disjointness is verified on boundary samples: the polygons must stay at
    least CAP_SEPARATION apart and no boundary point of one cap may fall
    inside another (winding-number test).
    """

    def __init__(self, maps):
        maps = list(maps)
        if not maps:
            raise ValidationError("cap family needs at least one map")
        self.maps = maps
        self._boundaries = [m.boundary(CAP_SAMPLES) for m in maps]
        # sample centroid and radius of each cap: |z - c_k| - R_k bounds the
        # distance from z to every boundary sample of cap k from below
        self._centroids = np.array([np.mean(b) for b in self._boundaries])
        self._radii = np.array(
            [np.max(np.abs(b - c)) for b, c in zip(self._boundaries, self._centroids)]
        )
        self._validate()

    def __len__(self):
        return len(self.maps)

    def __iter__(self):
        return iter(self.maps)

    def __getitem__(self, k):
        return self.maps[k]

    @property
    def centers(self) -> np.ndarray:
        return np.array([m.center for m in self.maps])

    def boundary_samples(self, k: int) -> np.ndarray:
        return self._boundaries[k]

    def reach(self, origin: complex) -> float:
        """The largest distance from ``origin`` of a cap's boundary sample."""
        return max(float(np.max(np.abs(b - origin))) for b in self._boundaries)

    def which_cap(self, z) -> np.ndarray:
        """Index of the cap whose closed image contains each point, else -1."""
        zz = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
        out = np.full(zz.shape, -1, dtype=int)
        for k in range(len(self._boundaries)):
            out[self._in_cap(zz, k)] = k
        return out.reshape(np.shape(z)) if np.ndim(z) else int(out[0])

    def _in_cap(self, z, k: int) -> np.ndarray:
        """Indices of the points of the 1-d array ``z`` in cap k's closed
        image: within 1e-9 of its sample polygon or wound around by it.

        Only the points in the cap's bounding disk are measured against its
        polygon; the rest are far from it and outside it, so the verdicts
        are those of testing every point.
        """
        idx = self._in_disk(z, k)
        poly, w = self._boundaries[k], z[idx]
        return idx[(nearest_distance(poly, w) < 1e-9) | (winding_number(poly, w) != 0)]

    def _in_disk(self, z, k: int) -> np.ndarray:
        """Indices of the points of the 1-d array ``z`` within cap k's
        bounding disk plus the slack."""
        return np.flatnonzero(np.abs(z - self._centroids[k]) <= self._radii[k] + _DISK_SLACK)

    def distance_to_caps(self, z) -> np.ndarray:
        """Distance from each point to the nearest cap boundary sample."""
        zz = np.atleast_1d(np.asarray(z, dtype=complex))
        d = self.min_distance(zz.ravel()[None, :]).reshape(zz.shape)
        return d if np.ndim(z) else float(d[0])

    def _lower_bounds(self, z, out, diff, slack) -> np.ndarray:
        """|z - c_k| - R_k for every point and cap k, along a new last axis,
        written into the real array ``out``; ``diff`` (complex) and
        ``slack`` (real) are scratch arrays of its shape."""
        centre = np.abs(np.subtract(z[..., None], self._centroids, out=diff), out=out)
        # the relative slack keeps the computed bound below every computed
        # sample distance despite rounding, so pruning never changes a result
        np.add(centre, self._radii, out=slack)
        slack *= 1e-12
        centre -= self._radii
        centre -= slack
        return centre

    def _bound_slices(self, cand):
        """Row slices of the (point, position, cap) lower bounds of the
        columns of ``cand`` (shape (C, P)): yields (cols, bounds), the
        bounds of columns ``cols`` as a (points, C * n_caps) block whose row
        lists a point's pairs (position, cap) in the order q = position *
        n_caps + cap. The slices are ``numerics.slice_views``' for that
        width, in buffers allocated once per call."""
        n_cand, n_pts = cand.shape
        n_caps = len(self._boundaries)
        shape = (-1, n_cand, n_caps)
        for cols, (lower, diff, slack) in slice_views(n_pts, n_cand * n_caps,
                                                      float, complex, float):
            self._lower_bounds(cand[:, cols].T, lower.reshape(shape), diff.reshape(shape),
                               slack.reshape(shape))
            yield cols, lower

    def lower_bound(self, candidates) -> np.ndarray:
        """For each column of ``candidates`` (shape (C, P)), the least
        bound |z - c_k| - R_k over its C positions and the caps: never above
        the float ``min_distance`` returns for it."""
        cand = np.asarray(candidates, dtype=complex)
        out = np.empty(cand.shape[1])
        for cols, lower in self._bound_slices(cand):
            np.min(lower, axis=1, out=out[cols])
        return out

    def min_distance(self, candidates) -> np.ndarray:
        """For each column of ``candidates`` (shape (C, P)), the distance from
        the nearest of its C positions to the nearest cap boundary sample.

        Exact: the result is the minimum of the same |sample - z| floats a
        full search computes. Per point, (position, cap) pairs are visited
        in order of the lower bound |z - c_k| - R_k, and a pair's samples
        are measured only while that bound is below the point's running
        minimum. The points go in row slices (``_bound_slices``), and so
        does every measured point-by-sample block (``nearest_distance``).
        """
        cand = np.asarray(candidates, dtype=complex)
        n_caps = len(self._boundaries)
        n_pairs = cand.shape[0] * n_caps
        best = np.full(cand.shape[1], np.inf)
        for cols, lower in self._bound_slices(cand):
            block = cand[:, cols]
            order = np.argsort(lower, axis=1)
            rows = np.arange(block.shape[1])
            run = best[cols]
            for rank in range(n_pairs):
                pair = order[:, rank]
                todo = lower[rows, pair] < run
                if not todo.any():
                    break
                # the pairs in use, in ascending order (np.unique would
                # import numpy.ma)
                for q in np.flatnonzero(np.bincount(pair[todo], minlength=n_pairs)):
                    idx = np.flatnonzero(todo & (pair == q))
                    c, k = divmod(int(q), n_caps)
                    run[idx] = np.minimum(
                        run[idx], nearest_distance(self._boundaries[k], block[c, idx])
                    )
        return best

    def _validate(self):
        for i in range(len(self.maps)):
            for j in range(i + 1, len(self.maps)):
                # overlap first, whatever the gap: a boundary sample of one
                # cap in the closed image of the other
                for a, b in ((i, j), (j, i)):
                    if self._in_cap(self._boundaries[a], b).size:
                        raise ValidationError(f"caps {i} and {j} overlap: a boundary point "
                                              f"of cap {a} lies in cap {b}")
                # the centroid bound on the gap, with the slack of
                # _lower_bounds: a pair it keeps apart is not measured
                centre = abs(self._centroids[i] - self._centroids[j])
                reach = self._radii[i] + self._radii[j]
                if (centre - reach) - 1e-12 * (centre + reach) < CAP_SEPARATION:
                    gap = float(np.min(nearest_distance(self._boundaries[i], self._boundaries[j])))
                    if gap < CAP_SEPARATION:
                        raise ValidationError(
                            f"caps {i} and {j} come within {gap:.4g} "
                            f"< separation {CAP_SEPARATION}"
                        )
