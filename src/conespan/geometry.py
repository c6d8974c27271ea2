"""Planar primitives: angles modulo 2pi, cone indices, placement frames, and the
curved-trapezoid geometry with its first-contact (dilation) computation.

All angles are radians normalized to [0, 2pi); angle subtraction means the
counterclockwise difference modulo 2pi.  The positive x-axis is the polar
axis everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

# Relative tolerance for comparisons between computed lengths and scales.
# Inputs are O(1) coordinates in double precision, so 1e-9 leaves a wide
# margin above accumulated rounding while staying far below feature sizes.
EPS_REL = 1e-9


class GeometryError(ValueError):
    """A geometric precondition does not hold for the given input."""


@dataclass(frozen=True)
class Point:
    """Immutable planar point; coordinates must be finite."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise GeometryError(f"point coordinates must be finite, got ({self.x}, {self.y})")


def dist(u: Point, v: Point) -> float:
    return math.hypot(v.x - u.x, v.y - u.y)


def normalize_angle(a: float) -> float:
    """Reduce a finite angle to the canonical range [0, 2pi)."""
    if not math.isfinite(a):
        raise GeometryError(f"angle must be finite, got {a}")
    r = math.fmod(a, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    if r >= TWO_PI:  # fmod/add can land exactly on 2pi for tiny negatives
        r = 0.0
    return r


def ccw_diff(a: float, b: float) -> float:
    """Counterclockwise difference a - b, normalized to [0, 2pi)."""
    return normalize_angle(a - b)


def _angle_arr(dx: np.ndarray, dy: np.ndarray, out: tuple = (None, None, None)) -> np.ndarray:
    """Vectorized polar angles in [0, 2pi) of the vectors (dx, dy): the one
    array form of :func:`normalize_angle` on ``np.arctan2``.

    On arctan2's range [-pi, pi], adding 2pi to the negative angles and 0.0
    to the rest gives np.mod(phi, 2pi) bit for bit (the 0.0 turns -0.0 into
    0.0, as np.mod does) at a fraction of its cost.  Like normalize_angle,
    an angle that rounds up to 2pi (a tiny negative one) maps to 0, so every
    caller orders such directions alike.  ``out`` may hold (angle, float
    scratch, bool scratch) arrays shaped like dx.
    """
    phi = np.arctan2(dy, dx, out=out[0])
    neg = np.less(phi, 0.0, out=out[2])
    np.add(phi, np.multiply(neg, TWO_PI, out=out[1]), out=phi)
    np.copyto(phi, 0.0, where=np.greater_equal(phi, TWO_PI, out=neg))
    return phi


def _polar_arr(dx: np.ndarray, dy: np.ndarray, out: tuple = (None, None, None)) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized lengths and polar angles (see :func:`_angle_arr`) of the
    vectors (dx, dy).  ``out`` may hold (length, angle, bool scratch) arrays
    shaped like dx that the results and the masks are written into."""
    phi = _angle_arr(dx, dy, out=(out[1], out[0], out[2]))  # the length array is scratch until np.hypot
    return np.hypot(dx, dy, out=out[0]), phi


def polar_angle(u: Point, v: Point) -> float:
    """Polar angle of the vector u->v in [0, 2pi).  Errors on u == v."""
    dx = v.x - u.x
    dy = v.y - u.y
    if dx == 0.0 and dy == 0.0:
        raise GeometryError("polar angle undefined for a degenerate (coincident) pair")
    return normalize_angle(math.atan2(dy, dx))


def cone_index(k: int, phi: float) -> int:
    """Index j in [0, k) of the half-open cone [2j*pi/k, 2(j+1)*pi/k) holding phi.

    Comparisons are against the floating-point grid j * (2pi/k) itself, so the
    k cones partition [0, 2pi) exactly: every direction lands in one cone and
    boundary directions belong to the upper cone.
    """
    if k < 1:
        raise GeometryError(f"cone count k must be >= 1, got {k}")
    return _cone_of(k, normalize_angle(phi))


def _cone_of(k: int, phi: float) -> int:
    """The grid search of :func:`cone_index` on an angle already in [0, 2pi)."""
    w = TWO_PI / k
    j = int(phi / w)
    if j > k - 1:
        j = k - 1
    while j < k - 1 and phi >= (j + 1) * w:
        j += 1
    while j > 0 and phi < j * w:
        j -= 1
    return j


def _greedy_cone(k: int, dx: float, dy: float) -> int:
    """The greedy overlapping-Yao walk's cone toward the offset (dx, dy):
    ``cone_index(k, normalize_angle(normalize_angle(atan2(dy, dx)) - pi/4))``
    bit for bit, in one call.

    Both fmod steps of normalize_angle return their argument unchanged here,
    since atan2 lies in [-pi, pi] and the shifted angle in [-pi/4, 2pi), so
    only the wraps remain: add 2pi to a negative angle, and map one that
    rounds up to 2pi to 0.
    """
    phi = math.atan2(dy, dx)
    if phi < 0.0:
        phi += TWO_PI
    if phi >= TWO_PI:
        phi = 0.0
    phi -= math.pi / 4
    if phi < 0.0:
        phi += TWO_PI
    if phi >= TWO_PI:
        phi = 0.0
    return _cone_of(k, phi)


def gamma(k: int) -> float:
    """Width of the widened (overlapping) cone: smallest multiple of 2pi/k >= pi/2.

    The true value is exactly pi/2 when 4 divides k and otherwise exceeds it
    by Omega(1/k), so clamping repairs the one-ulp dips the float product can
    take below the boundary (first at k = 300) without ever masking a real
    violation.
    """
    if k < 1:
        raise GeometryError(f"k must be >= 1, got {k}")
    return max(-(-k // 4) * (TWO_PI / k), HALF_PI)


def theta(k: int) -> float:
    """Cap angle of the curved trapezoid used at parameter k: ceil(k/8) * 2pi/k.

    Requires k > 24, which guarantees the result lies in [pi/4, pi/3); the
    lower boundary is clamped for the same reason as in :func:`gamma`
    (exactly pi/4 when 8 divides k, first float dip at k = 600).
    """
    if k <= 24:
        raise GeometryError(f"trapezoid cap angle requires k > 24, got {k}")
    return max(-(-k // 8) * (TWO_PI / k), 0.25 * math.pi)


class HitPart(str, Enum):
    """Boundary piece of the growing trapezoid that first reaches a point."""

    CRITICAL_ARC = "critical_arc"
    NEAR_ARC = "near_arc"
    TOP = "top"
    NONE = "none"


@dataclass(frozen=True)
class HitResult:
    """First-contact dilation factor and the boundary piece achieving it.

    ``lam`` is +inf when part is NONE (the point never enters the shape).
    """

    lam: float
    part: HitPart


@dataclass(frozen=True)
class TrapezoidFrame:
    """Placement of the unit curved trapezoid: apex, bottom-ray direction,
    optional mirror across the bottom ray, and the cap angle theta.

    Local coordinates put the apex at the origin with the bottom side along
    the positive x-axis and the shape in the upper half plane.
    """

    apex: Point
    orientation: float
    reflected: bool
    theta: float

    def __post_init__(self) -> None:
        if not (math.pi / 4 <= self.theta < math.pi / 3):
            raise GeometryError(f"theta must lie in [pi/4, pi/3), got {self.theta}")
        object.__setattr__(self, "orientation", normalize_angle(self.orientation))


def to_local(frame: TrapezoidFrame, w: Point) -> Point:
    """Map a global point into the frame's local coordinates."""
    dx = w.x - frame.apex.x
    dy = w.y - frame.apex.y
    c = math.cos(frame.orientation)
    s = math.sin(frame.orientation)
    x = c * dx + s * dy
    y = -s * dx + c * dy
    if frame.reflected:
        y = -y
    return Point(x, y)


def scale_to_hit(frame: TrapezoidFrame, w: Point) -> HitResult:
    """Smallest dilation of the placed trapezoid whose closure contains ``w``.

    In local coordinates (x, y) the closure of the shape scaled by lam is cut
    out by x <= lam (implied by |w| <= lam), y <= lam sin(theta),
    |w| <= lam, and |w|^2 <= 2 lam x; hence the first contact is at
    lam = max(|w|, y/sin(theta), |w|^2/(2x)).  Points with x <= 0 or y < 0
    can never enter and report part NONE.

    Classification follows the term achieving the max, with ties resolved
    toward the critical arc (the closed arc includes its endpoints, so corner
    and bottom-edge contacts count as critical-arc hits).
    """
    if w.x == frame.apex.x and w.y == frame.apex.y:
        raise GeometryError("first contact undefined for a point coincident with the apex")
    loc = to_local(frame, w)
    if loc.x <= 0.0 or loc.y < 0.0:
        return HitResult(math.inf, HitPart.NONE)
    r = math.hypot(loc.x, loc.y)
    c_top = loc.y / math.sin(frame.theta)
    c_near = r * r / (2.0 * loc.x)
    lam = max(r, c_top, c_near)
    if on_critical_arc(lam, r):
        return HitResult(lam, HitPart.CRITICAL_ARC)
    if c_top >= lam * (1.0 - EPS_REL):
        return HitResult(lam, HitPart.TOP)
    return HitResult(lam, HitPart.NEAR_ARC)


def on_critical_arc(lam, r):
    """Whether a first contact at dilation ``lam`` of a point at distance ``r``
    from the apex lands on the critical arc, i.e. lam <= r within EPS_REL.

    The one tolerance form of the critical-arc test, shared by the builder,
    the descent and :func:`scale_to_hit`; works on scalars and arrays.
    """
    return lam <= r * (1.0 + EPS_REL)


def _dilation(alpha: np.ndarray, r: np.ndarray, sin_th: float, out=None, scratch=None) -> np.ndarray:
    """The first-contact dilation r * max(1, sin(alpha)/sin(theta),
    1/(2 cos(alpha))) of points at distance r > 0 and local polar angle
    alpha in [0, pi/2) from the apex of a trapezoid with cap angle theta:
    the one array form of the bound in :func:`scale_to_hit`.  ``out`` and
    ``scratch``, float arrays of the broadcast shape, take the result and
    an intermediate in place of fresh arrays; ``scratch`` may be ``alpha``
    itself."""
    lam = np.divide(np.sin(alpha, out=out), sin_th, out=out)
    tmp = np.divide(0.5, np.cos(alpha, out=scratch), out=scratch)
    np.maximum(lam, tmp, out=lam)
    np.maximum(1.0, lam, out=lam)
    return np.multiply(r, lam, out=lam)


def _in_trapezoid_arr(th: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    sin_th = math.sin(th)
    return (
        (x > 0.0)
        & (x < 1.0)
        & (y > 0.0)
        & (y < sin_th)
        & (x * x + y * y < 1.0)
        & ((x - 1.0) ** 2 + y * y < 1.0)
    )


def lhp_containment_check(u: Point, v: Point, th: float, n_samples: int, seed: int) -> bool:
    """Sampled test that the similar copy grown from u toward v sticks out of
    the unit trapezoid only below the x-axis.

    The copy is u + |uv| * rotate(mirror(T), phi(uv)) for the unit trapezoid T
    anchored at o=(0,0), p=(1,0).  Preconditions (each reported by name on
    violation): u and v lie in the closed lower half plane, 0 < x_u < 1,
    |phi(uv) - pi| < pi/6, and |ou|, |pv| in [|uv|, 1).  The cap angle may be
    the extreme value pi/3 here.
    """
    if (u.x, u.y) == (v.x, v.y):
        raise GeometryError("precondition failed: degenerate pair (u == v)")
    if u.y > 0.0 or v.y > 0.0:
        raise GeometryError("precondition failed: u, v must lie in the lower half plane")
    if not (0.0 < u.x < 1.0):
        raise GeometryError(f"precondition failed: 0 < x_u < 1 (got x_u={u.x})")
    if not (math.pi / 4 <= th <= math.pi / 3):
        raise GeometryError(f"precondition failed: theta must lie in [pi/4, pi/3], got {th}")
    d = dist(u, v)
    phi = polar_angle(u, v)
    if abs(phi - math.pi) >= math.pi / 6:
        raise GeometryError(f"precondition failed: |phi(uv) - pi| < pi/6 (got phi={phi})")
    ou = math.hypot(u.x, u.y)
    pv = math.hypot(v.x - 1.0, v.y)
    if not (d <= ou < 1.0):
        raise GeometryError(f"precondition failed: |ou| in [|uv|, 1) (|ou|={ou}, |uv|={d})")
    if not (d <= pv < 1.0):
        raise GeometryError(f"precondition failed: |pv| in [|uv|, 1) (|pv|={pv}, |uv|={d})")
    if n_samples < 1:
        raise GeometryError("n_samples must be >= 1")

    rng = np.random.default_rng(seed)
    sin_th = math.sin(th)
    xs = np.empty(0)
    ys = np.empty(0)
    while xs.size < n_samples:
        need = n_samples - xs.size
        bx = rng.random(2 * need + 16)
        by = rng.random(bx.size) * sin_th
        keep = _in_trapezoid_arr(th, bx, by)
        xs = np.concatenate([xs, bx[keep]])
        ys = np.concatenate([ys, by[keep]])
    xs = xs[:n_samples]
    ys = ys[:n_samples]

    # map unit-shape samples through mirror, rotation by phi(uv), scale, shift
    c = math.cos(phi)
    s = math.sin(phi)
    gx = u.x + d * (c * xs + s * ys)
    gy = u.y + d * (s * xs - c * ys)
    inside = _in_trapezoid_arr(th, gx, gy)
    outside_y = gy[~inside]
    return bool(np.all(outside_y <= EPS_REL))
