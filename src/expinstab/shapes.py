"""Sampled perturbation profiles of defects and their Hausdorff geometry.

A defect is represented as the (sub)graph of a nonnegative profile sampled on
a uniform grid, either over a flat segment [-r, r] or over a circle of radius
r.  A profile is its samples and base geometry; the class it is checked
against (order m, norm bound beta, amplitude eps) is passed to cm_norm and
validate_membership.  Profiles are sampled rather than symbolic; every
distance computed here carries a resolution error proportional to the grid
spacing.  The discrete C^m norm is a centered finite-difference surrogate of
the true norm; it is exact on sampled polynomials of degree <= m up to
difference-scheme order and under-approximates the true norm in general, so
constructions elsewhere keep a 5% safety margin when targeting a norm bound.  boundary_nodes gives the
quadrature nodes on which both Nystrom solvers discretize a radial boundary,
and pair_geometry the squared distances and normal projections between
nodes that both solvers' kernels are built from.  Shape files are a
key=value header (kind, r, center, M) and M values, one per line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_GRID = 2048

FLAT_GRAPH = "flat_graph"
FLAT_SUBGRAPH = "flat_subgraph"
RADIAL_GRAPH = "radial_graph"
RADIAL_SUBGRAPH = "radial_subgraph"
KINDS = (FLAT_GRAPH, FLAT_SUBGRAPH, RADIAL_GRAPH, RADIAL_SUBGRAPH)

_TOL = 1e-12


class ShapeError(ValueError):
    """Raised for malformed or incompatible shapes."""


@dataclass(frozen=True)
class FlatProfile:
    """Nonnegative heights over the uniform grid on [-half_width, half_width].

    The grid includes both endpoints; profile values must vanish there so the
    graph closes onto the base segment.
    """

    values: np.ndarray
    half_width: float = 0.5

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 4:
            raise ShapeError("flat profile needs a 1D array of >= 4 samples")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def grid_size(self) -> int:
        return self.values.size

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.grid_size - 1)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.grid_size)


@dataclass(frozen=True)
class RadialProfile:
    """Nonnegative radial perturbation heights over a circle of base_radius.

    Samples live on the uniform angular grid theta_i = 2*pi*i/M (no endpoint
    duplication); the defect radius at angle theta is base_radius + g(theta).
    """

    values: np.ndarray
    base_radius: float = 0.5
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 4:
            raise ShapeError("radial profile needs a 1D array of >= 4 samples")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))

    @property
    def grid_size(self) -> int:
        return self.values.size

    @property
    def spacing(self) -> float:
        # arc-length spacing on the base circle
        return 2.0 * np.pi * self.base_radius / self.grid_size

    @property
    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.grid_size) / self.grid_size

    @property
    def reach(self) -> float:
        """Bound on the boundary's distance from the origin: |center| +
        base_radius + max g, which the forward problems check against their
        domain."""
        return math.hypot(*self.center) + self.base_radius + float(self.values.max())


Profile = FlatProfile | RadialProfile


@dataclass(frozen=True)
class Shape:
    """A defect: flat or radial, graph (curve) or subgraph (solid region).

    Radial subgraphs are star-shaped with respect to the profile center by
    construction of the representation.
    """

    kind: str
    profile: Profile

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ShapeError(f"unknown shape kind {self.kind!r}")
        flat = self.kind in (FLAT_GRAPH, FLAT_SUBGRAPH)
        if flat and not isinstance(self.profile, FlatProfile):
            raise ShapeError(f"{self.kind} requires a FlatProfile")
        if not flat and not isinstance(self.profile, RadialProfile):
            raise ShapeError(f"{self.kind} requires a RadialProfile")

    @property
    def is_subgraph(self) -> bool:
        return self.kind in (FLAT_SUBGRAPH, RADIAL_SUBGRAPH)

    @property
    def is_radial(self) -> bool:
        return self.kind in (RADIAL_GRAPH, RADIAL_SUBGRAPH)


# ----------------------------------------------------------------------------
# sampling helpers
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryNodes:
    """Periodic trapezoid discretization of a star-shaped boundary
    x(t) = c + rho(t) (cos t, sin t) at t_i = 2*pi*i/n: the points, the
    outward unit normals, the speed jac = |x'(t_i)|, the quadrature weights
    (2*pi/n) * jac and the curvature (1/R on a circle of radius R)."""

    points: np.ndarray     # (n, 2)
    normals: np.ndarray    # (n, 2)
    jac: np.ndarray
    weights: np.ndarray
    curvature: np.ndarray


def boundary_nodes(profile: RadialProfile, n: int) -> BoundaryNodes:
    """Boundary nodes of the radial profile's star-shaped region, from the
    trigonometric interpolant of its samples and two angular derivatives,
    all three read off one spectrum of the samples."""
    m = profile.grid_size
    coef = np.fft.rfft(profile.values) / m
    k = np.arange(coef.size)
    keep = min(coef.size, n // 2 + 1)

    def resample(derivative: int) -> np.ndarray:
        spectrum = coef * (1j * k) ** derivative if derivative else coef
        if m % 2 == 0 and derivative % 2 == 1:
            spectrum[-1] = 0.0  # Nyquist mode has no well-defined odd derivative
        out_coef = np.zeros(n // 2 + 1, dtype=complex)
        out_coef[:keep] = spectrum[:keep]
        return np.fft.irfft(out_coef * n, n=n)

    rho = profile.base_radius + resample(0)
    d_rho, dd_rho = resample(1), resample(2)
    t = 2.0 * np.pi * np.arange(n) / n
    ct, st = np.cos(t), np.sin(t)
    cx, cy = profile.center
    points = np.column_stack([cx + rho * ct, cy + rho * st])
    jac = np.sqrt(rho**2 + d_rho**2)
    normals = np.column_stack([rho * ct + d_rho * st, rho * st - d_rho * ct]) / jac[:, None]
    curvature = (rho**2 + 2.0 * d_rho**2 - rho * dd_rho) / jac**3
    return BoundaryNodes(points, normals, jac, (2.0 * np.pi / n) * jac, curvature)


def pair_geometry(targets, sources, normals, out) -> None:
    """Write |t - s|^2 into out[0] and nu.(t - s) into out[1] for targets t,
    sources s and normals nu, each given as its x and y components, which the
    caller broadcasts to the shape of out's arrays; out[2] and out[3] are
    scratch.  Every entry is t - s, nu_x dx + nu_y dy and dx^2 + dy^2, the
    same operations on the same operands in any layout."""
    (tx, ty), (sx, sy), (nu_x, nu_y) = targets, sources, normals
    dist2, nu_dot, dy, term = out
    np.subtract(tx, sx, out=dist2)
    np.subtract(ty, sy, out=dy)
    np.multiply(nu_x, dist2, out=nu_dot)
    nu_dot += np.multiply(nu_y, dy, out=term)
    dist2 *= dist2
    dy *= dy
    dist2 += dy


def _flat_points(profile: FlatProfile, n: int) -> np.ndarray:
    t = np.linspace(-profile.half_width, profile.half_width, n)
    f = np.interp(t, profile.grid, profile.values)
    return np.column_stack([t, f])


def _radial_points(profile: RadialProfile, n: int) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(n) / n
    g = np.interp(theta, profile.angles, profile.values, period=2.0 * np.pi)
    rho = profile.base_radius + g
    cx, cy = profile.center
    return np.column_stack([cx + rho * np.cos(theta), cy + rho * np.sin(theta)])


def boundary_points(shape: Shape, samples: int | None = None) -> np.ndarray:
    """Dense point sampling of the graph curve (the relevant boundary part)."""
    n = samples or shape.profile.grid_size
    if shape.is_radial:
        return _radial_points(shape.profile, n)
    return _flat_points(shape.profile, n)


def _contains(shape: Shape, pts: np.ndarray) -> np.ndarray:
    """Membership of points in the solid flat subgraph region."""
    p = shape.profile
    t, y = pts[:, 0], pts[:, 1]
    inside_base = np.abs(t) <= p.half_width + _TOL
    f = np.interp(t, p.grid, p.values)
    return inside_base & (y >= -_TOL) & (y <= f + _TOL)


def _min_dist_to(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Min distance from each point to the target cloud, chunked."""
    out = np.empty(points.shape[0])
    chunk = max(1, 2_000_000 // max(targets.shape[0], 1))
    for i in range(0, points.shape[0], chunk):
        block = points[i : i + chunk]
        d2 = (block[:, None, 0] - targets[None, :, 0]) ** 2
        d2 += (block[:, None, 1] - targets[None, :, 1]) ** 2
        out[i : i + chunk] = np.sqrt(d2.min(axis=1))
    return out


def hausdorff_resolution(a: Shape, b: Shape, samples: int | None = None) -> float:
    """Conservative bound on the sampling error of hausdorff_distance.

    Nominal scale is base-length/samples (2*pi*r/M radial, 2r/M flat); the
    value returned is the largest gap between consecutive sampled boundary
    points of either shape, which bounds the actual discretization error.
    """
    gaps = []
    for s in (a, b):
        pts = boundary_points(s, samples)
        closed = s.is_radial
        nxt = np.roll(pts, -1, axis=0) if closed else pts[1:]
        cur = pts if closed else pts[:-1]
        gaps.append(np.hypot(*(nxt - cur).T).max())
    return float(max(gaps))


def _radial_directed(rho_a: np.ndarray, rho_b: np.ndarray, solid: bool) -> float:
    """Directed Hausdorff term for same-center star-shaped samplings on a
    common angular grid.

    Exact on the sampled point sets: any candidate at angular offset o has
    distance >= 2 r_min |sin(pi o / n)|, so offsets beyond the window implied
    by the pointwise radial-gap upper bound cannot attain the minimum.
    """
    n = rho_a.size
    gap = np.abs(rho_a - rho_b)
    ub = float(gap.max())
    r_min = float(min(rho_a.min(), rho_b.min()))
    if ub >= 2.0 * r_min:
        k_max = n // 2
    else:
        k_max = min(n // 2, int(np.ceil(np.arcsin(ub / (2.0 * r_min)) * n / (2.0 * np.pi))) + 1)
    offsets = np.arange(-k_max, k_max + 1)
    cos_off = np.cos(2.0 * np.pi * offsets / n)
    idx = (np.arange(n)[:, None] + offsets[None, :]) % n
    d2 = rho_a[:, None] ** 2 + rho_b[idx] ** 2 - 2.0 * rho_a[:, None] * rho_b[idx] * cos_off[None, :]
    dist = np.sqrt(np.maximum(d2.min(axis=1), 0.0))
    if solid:
        dist = np.where(rho_a <= rho_b + _TOL, 0.0, dist)
    return float(dist.max())


def hausdorff_distance(a: Shape, b: Shape, samples: int | None = None) -> float:
    """Hausdorff distance between two shapes of the same kind.

    Computed on a dense boundary sampling; for subgraph kinds points of one
    solid lying inside the other contribute zero.  The result is accurate up
    to hausdorff_resolution(a, b, samples).
    """
    if a.kind != b.kind:
        raise ShapeError(f"mismatched shape kinds {a.kind!r} vs {b.kind!r}")
    if a.is_radial and not np.allclose(a.profile.center, b.profile.center):
        raise ShapeError("radial shapes must share a center")
    if not a.is_radial and not np.isclose(a.profile.half_width, b.profile.half_width):
        raise ShapeError("flat shapes must share a base segment")
    if a.is_radial:
        n = samples or max(a.profile.grid_size, b.profile.grid_size)
        theta = 2.0 * np.pi * np.arange(n) / n
        pa = a.profile
        pb = b.profile
        rho_a = pa.base_radius + np.interp(theta, pa.angles, pa.values, period=2.0 * np.pi)
        rho_b = pb.base_radius + np.interp(theta, pb.angles, pb.values, period=2.0 * np.pi)
        solid = a.is_subgraph
        return max(
            _radial_directed(rho_a, rho_b, solid), _radial_directed(rho_b, rho_a, solid)
        )
    pa = boundary_points(a, samples)
    pb = boundary_points(b, samples)
    da = _min_dist_to(pa, pb)
    db = _min_dist_to(pb, pa)
    if a.is_subgraph:
        da = np.where(_contains(b, pa), 0.0, da)
        db = np.where(_contains(a, pb), 0.0, db)
    return float(max(da.max(), db.max()))


# ----------------------------------------------------------------------------
# discrete C^m norm
# ----------------------------------------------------------------------------

def _diff_once_flat(vals: np.ndarray, h: float, order: int) -> np.ndarray:
    if order == 1:
        return (vals[2:] - vals[:-2]) / (2.0 * h)
    return (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / h**2


def _diff_once_periodic(vals: np.ndarray, h: float, order: int) -> np.ndarray:
    up, down = np.roll(vals, -1), np.roll(vals, 1)
    if order == 1:
        return (up - down) / (2.0 * h)
    return (up - 2.0 * vals + down) / h**2


class GridTooCoarse(ShapeError):
    """Grid cannot resolve the requested difference order."""


def cm_norm(profile: Profile, m: int) -> float:
    """Discrete C^m norm: max over orders 0..m of the sup of centered
    finite differences scaled by the grid spacing.

    Odd orders use one central first difference composed with repeated
    second differences, so the scheme is exact on polynomials of degree <= m
    up to second-order truncation error.
    """
    if profile.grid_size <= 2 * (m + 1):
        raise GridTooCoarse(f"grid size {profile.grid_size} too coarse for order {m}")
    h = profile.spacing
    periodic = isinstance(profile, RadialProfile)
    step = _diff_once_periodic if periodic else _diff_once_flat
    best = float(np.abs(profile.values).max())
    for k in range(1, m + 1):
        vals = profile.values
        if k % 2 == 1:
            vals = step(vals, h, 1)
            remaining = (k - 1) // 2
        else:
            remaining = k // 2
        for _ in range(remaining):
            vals = step(vals, h, 2)
        best = max(best, float(np.abs(vals).max()))
    return best


# ----------------------------------------------------------------------------
# membership in the perturbation classes
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class MembershipCheck:
    ok: bool
    reason: str | None = None


def validate_membership(shape: Shape, m: int, beta: float, eps: float) -> MembershipCheck:
    """Check the defining constraints of the perturbation class: amplitude in
    [0, eps], compact support for flat profiles, discrete C^m norm <= beta.

    Never raises; returns a reason code on failure.
    """
    p = shape.profile
    vals = p.values
    slack = _TOL + 1e-9 * max(eps, 1.0)
    if np.any(vals < -slack):
        return MembershipCheck(False, "negative")
    if np.any(vals > eps + slack):
        return MembershipCheck(False, "amplitude")
    if isinstance(p, FlatProfile):
        if abs(vals[0]) > slack or abs(vals[-1]) > slack:
            return MembershipCheck(False, "endpoint")
        support = np.nonzero(np.abs(vals) > slack)[0]
        if support.size and (support[0] < 1 or support[-1] > vals.size - 2):
            return MembershipCheck(False, "support")
    try:
        norm = cm_norm(p, m)
    except GridTooCoarse:
        return MembershipCheck(False, "grid")
    if norm > beta * (1.0 + 1e-9):
        return MembershipCheck(False, "cm_norm")
    return MembershipCheck(True, None)


# ----------------------------------------------------------------------------
# plain-text serialization
# ----------------------------------------------------------------------------

def shape_to_text(shape: Shape) -> str:
    p = shape.profile
    if isinstance(p, RadialProfile):
        r, center = p.base_radius, p.center
    else:
        r, center = p.half_width, (0.0, 0.0)
    lines = [
        f"kind={shape.kind}",
        f"r={r:.17g}",
        f"center={center[0]:.17g},{center[1]:.17g}",
        f"M={p.grid_size}",
    ]
    lines.extend(f"{v:.17g}" for v in p.values)
    return "\n".join(lines) + "\n"


def shape_from_text(text: str) -> Shape:
    """Parse shape_to_text's format: leading key=value header lines, read by
    name (keys other than kind, r, center and M are ignored), then M values."""
    lines = [ln.strip() for ln in text.strip().splitlines()]
    head = 0
    while head < len(lines) and "=" in lines[head]:
        head += 1
    header = dict(ln.split("=", 1) for ln in lines[:head])
    kind = header["kind"]
    if kind not in KINDS:
        raise ShapeError(f"unknown shape kind {kind!r}")
    m_count = int(header["M"])
    vals = np.array([float(v) for v in lines[head : head + m_count]])
    if vals.size != m_count:
        raise ShapeError(f"expected {m_count} values, found {vals.size}")
    if kind in (RADIAL_GRAPH, RADIAL_SUBGRAPH):
        cx, cy = (float(c) for c in header["center"].split(","))
        profile: Profile = RadialProfile(vals, base_radius=float(header["r"]), center=(cx, cy))
    else:
        profile = FlatProfile(vals, half_width=float(header["r"]))
    return Shape(kind, profile)


def save_shape(shape: Shape, path: str | Path) -> None:
    Path(path).write_text(shape_to_text(shape), encoding="utf-8", newline="\n")


def load_shape(path: str | Path) -> Shape:
    return shape_from_text(Path(path).read_text(encoding="utf-8"))
