import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conespan.geometry import (
    HALF_PI,
    TWO_PI,
    GeometryError,
    HitPart,
    Point,
    TrapezoidFrame,
    cone_index,
    _angle_arr,
    _greedy_cone,
    _dilation,
    _polar_arr,
    gamma,
    lhp_containment_check,
    normalize_angle,
    polar_angle,
    scale_to_hit,
    theta,
    to_local,
)
from conespan.verify import RunConfig, check_sector_cover
from conftest import bisect_first_contact, covers_sector_check, trapezoid_contains

finite_angles = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)


class TestNormalizeAngle:
    @pytest.mark.parametrize(
        "a,expected",
        [(TWO_PI, 0.0), (-math.pi / 2, 3 * math.pi / 2), (5 * math.pi, math.pi)],
    )
    def test_modular_identities(self, a, expected):
        assert normalize_angle(a) == pytest.approx(expected, abs=1e-12)

    @given(finite_angles)
    def test_total_and_in_range(self, a):
        r = normalize_angle(a)
        assert 0.0 <= r < TWO_PI

    @given(finite_angles)
    def test_idempotent(self, a):
        r = normalize_angle(a)
        assert normalize_angle(r) == r

    def test_rejects_non_finite(self):
        with pytest.raises(GeometryError):
            normalize_angle(math.inf)
        with pytest.raises(GeometryError):
            normalize_angle(math.nan)


class TestPoint:
    def test_non_finite_rejected(self):
        with pytest.raises(GeometryError):
            Point(math.inf, 0.0)
        with pytest.raises(GeometryError):
            Point(0.0, math.nan)


class TestAngleArr:
    """_angle_arr is np.mod(np.arctan2(dy, dx), 2pi) bit for bit, with an
    angle that rounds up to 2pi mapped to 0, as normalize_angle does."""

    @staticmethod
    def reference(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        phi = np.mod(np.arctan2(dy, dx), TWO_PI)
        phi[phi >= TWO_PI] = 0.0
        return phi

    def test_matches_np_mod_bit_for_bit(self):
        rng = np.random.default_rng(11)
        dx, dy = rng.normal(size=(2, 10_000)) * np.exp(rng.uniform(-30, 30, size=(2, 10_000)))
        special = [
            (-1.0, 0.0), (-1.0, -0.0), (1.0, -0.0), (1.0, 0.0), (0.0, -0.0), (-0.0, -0.0),  # +-pi, -0.0, 0.0
            (1.0, -1e-300), (1.0, -5e-324), (1.0, -1e-17), (1.0, -2.0**-52),  # tiny negatives
            (1.0, -math.ulp(TWO_PI) / 4), (1.0, -math.ulp(TWO_PI)), (-1.0, -1e-300), (0.0, -1.0),
        ]
        dx = np.concatenate([dx, [p[0] for p in special]])
        dy = np.concatenate([dy, [p[1] for p in special]])
        ref = self.reference(dx, dy)
        got = _angle_arr(dx, dy)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))  # signs of zero included
        assert np.all((got >= 0.0) & (got < TWO_PI))

    def test_tiny_negatives_round_onto_zero(self):
        got = _angle_arr(np.ones(3), np.array([-1e-300, -5e-324, -1e-17]))
        assert np.array_equal(got, np.zeros(3))

    def test_out_arrays_and_lengths(self):
        rng = np.random.default_rng(12)
        dx, dy = rng.normal(size=(2, 50))
        out = (np.empty(50), np.empty(50), np.empty(50, dtype=bool))
        r, phi = _polar_arr(dx, dy, out=out)
        assert r is out[0] and phi is out[1]
        assert np.array_equal(r, np.hypot(dx, dy))
        assert np.array_equal(phi, self.reference(dx, dy))


class TestPolarAngle:
    @pytest.mark.parametrize(
        "u,v,expected",
        [
            ((0, 0), (1, 0), 0.0),
            ((0, 0), (0, 1), math.pi / 2),
            ((1, 1), (0, 0), 5 * math.pi / 4),
        ],
    )
    def test_axis_cases(self, u, v, expected):
        assert polar_angle(Point(*u), Point(*v)) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_pair(self):
        with pytest.raises(GeometryError):
            polar_angle(Point(0.5, 0.5), Point(0.5, 0.5))


class TestConeIndex:
    @pytest.mark.parametrize(
        "k,phi,expected",
        [(8, 0.0, 0), (8, math.pi / 4, 1), (8, TWO_PI - 1e-6, 7)],
    )
    def test_boundaries(self, k, phi, expected):
        assert cone_index(k, phi) == expected

    @given(st.integers(min_value=1, max_value=64), finite_angles)
    def test_partition(self, k, phi):
        phi_n = normalize_angle(phi)
        w = TWO_PI / k
        matches = [
            j
            for j in range(k)
            if phi_n >= j * w and (j == k - 1 or phi_n < (j + 1) * w)
        ]
        assert matches == [cone_index(k, phi)]

    def test_exact_grid_multiples_go_up(self):
        # a direction exactly on a cone ray belongs to the upper cone
        for k in (3, 7, 8, 26):
            w = TWO_PI / k
            for j in range(k):
                assert cone_index(k, j * w) == j


GREEDY_KS = [26, 28, 30, 84]
finite_offsets = st.floats(allow_nan=False, allow_infinity=False)


def composed_greedy_cone(k: int, dx: float, dy: float) -> int:
    """The greedy walk's cone by the composed scalar rule: the cone index of
    the direction's polar angle shifted by pi/4."""
    return cone_index(k, normalize_angle(normalize_angle(math.atan2(dy, dx)) - math.pi / 4))


class TestGreedyCone:
    """_greedy_cone equals the composed scalar rule on every finite offset,
    including the knife edges of its two wraps and of every cone boundary."""

    @given(st.sampled_from(GREEDY_KS), finite_offsets, finite_offsets)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_any_finite_offset(self, k, dx, dy):
        assert _greedy_cone(k, dx, dy) == composed_greedy_cone(k, dx, dy)

    @given(
        st.sampled_from(GREEDY_KS),
        st.floats(max_value=0.0, exclude_max=True, allow_infinity=False),
        st.sampled_from([0.0, -0.0]),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_negative_x_axis(self, k, dx, dy):
        assert abs(math.atan2(dy, dx)) == math.pi  # +pi for +0.0, -pi for -0.0
        assert _greedy_cone(k, dx, dy) == composed_greedy_cone(k, dx, dy)

    @given(
        st.sampled_from(GREEDY_KS),
        st.floats(min_value=1e-3, max_value=1e300),
        st.floats(min_value=-1e-12, max_value=0.0, exclude_max=True),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_tiny_negative_angles(self, k, dx, dy):
        # an angle within half an ulp of 2pi below zero wraps onto 2pi, then 0
        assert _greedy_cone(k, dx, dy) == composed_greedy_cone(k, dx, dy)

    def test_a_polar_angle_rounding_onto_two_pi(self):
        assert math.atan2(-1e-300, 1.0) + TWO_PI == TWO_PI
        assert normalize_angle(math.atan2(-1e-300, 1.0)) == 0.0
        # 0 - pi/4 wraps to 7pi/4, in cone 26 of 30
        assert _greedy_cone(30, 1.0, -1e-300) == composed_greedy_cone(30, 1.0, -1e-300) == 26

    @pytest.mark.parametrize("k", GREEDY_KS)
    def test_one_step_either_side_of_every_shifted_boundary(self, k):
        # directions near each ray j*2pi/k + pi/4, at three magnitudes: bisect
        # dy down to the two adjacent floats where the composed rule changes
        # cone, and compare both sides and their next neighbours
        for j in range(k):
            b = math.remainder(j * (TWO_PI / k) + math.pi / 4, TWO_PI)
            for scale in (1.0, 1e-300, 1e300):
                dx, dy = scale * math.cos(b), scale * math.sin(b)
                lo, hi = dy - 1e-12 * scale, dy + 1e-12 * scale
                below = composed_greedy_cone(k, dx, lo)
                assert composed_greedy_cone(k, dx, hi) != below
                while (mid := 0.5 * (lo + hi)) not in (lo, hi):
                    lo, hi = (mid, hi) if composed_greedy_cone(k, dx, mid) == below else (lo, mid)
                assert np.nextafter(lo, hi) == hi
                for y in (np.nextafter(lo, -np.inf), lo, hi, np.nextafter(hi, np.inf)):
                    assert _greedy_cone(k, dx, float(y)) == composed_greedy_cone(k, dx, float(y))


class TestGammaTheta:
    @pytest.mark.parametrize("k,expected", [(8, math.pi / 2), (10, 3 * math.pi / 5), (24, math.pi / 2)])
    def test_gamma_values(self, k, expected):
        assert gamma(k) == pytest.approx(expected, rel=1e-15)

    def test_gamma_bracket(self):
        for k in range(1, 300):
            g = gamma(k)
            assert g >= math.pi / 2 - 1e-15
            assert g - math.pi / 2 < TWO_PI / k

    @pytest.mark.parametrize("k,expected", [(26, 4 * math.pi / 13), (84, 11 * math.pi / 42)])
    def test_theta_values(self, k, expected):
        assert theta(k) == pytest.approx(expected, rel=1e-15)

    def test_theta_out_of_range(self):
        with pytest.raises(GeometryError):
            theta(24)

    def test_theta_bracket(self):
        for k in list(range(25, 500)) + [10_000, 999_983]:
            assert math.pi / 4 <= theta(k) < math.pi / 3

    def test_boundary_multiples_land_exactly(self):
        # the float product can dip an ulp below the boundary at these k;
        # the clamped values must be usable (frame construction, cover check)
        assert theta(600) == math.pi / 4
        assert gamma(300) == math.pi / 2
        TrapezoidFrame(Point(0, 0), 0.0, False, theta(600))
        assert covers_sector_check(theta(300), gamma(300), 2000, seed=1)


class TestFrames:
    def test_identity(self):
        f = TrapezoidFrame(Point(0, 0), 0.0, False, math.pi / 4)
        assert to_local(f, Point(0.3, 0.4)) == Point(0.3, 0.4)

    def test_quarter_turn(self):
        f = TrapezoidFrame(Point(0, 0), math.pi / 2, False, math.pi / 4)
        loc = to_local(f, Point(0, 1))
        assert loc.x == pytest.approx(1.0, abs=1e-12)
        assert loc.y == pytest.approx(0.0, abs=1e-12)

    def test_reflection(self):
        f = TrapezoidFrame(Point(0, 0), 0.0, True, math.pi / 4)
        assert to_local(f, Point(0.5, -0.2)) == Point(0.5, 0.2)

    def test_theta_validation(self):
        with pytest.raises(GeometryError):
            TrapezoidFrame(Point(0, 0), 0.0, False, 0.3)
        with pytest.raises(GeometryError):
            TrapezoidFrame(Point(0, 0), 0.0, False, math.pi / 3)

    @given(
        st.floats(-100, 100),
        st.floats(-100, 100),
        finite_angles,
        st.booleans(),
        st.floats(0, 100),
        st.floats(-math.pi, math.pi),
    )
    @settings(max_examples=200)
    def test_recovers_known_local_coordinates(self, ax, ay, orient, refl, rho, beta):
        # the point at local polar coordinates (rho, beta) lies at global angle
        # orientation + beta, or orientation - beta in the mirrored frame
        f = TrapezoidFrame(Point(ax, ay), orient, refl, math.pi / 4)
        g = f.orientation - beta if refl else f.orientation + beta
        loc = to_local(f, Point(ax + rho * math.cos(g), ay + rho * math.sin(g)))
        assert math.isclose(loc.x, rho * math.cos(beta), abs_tol=1e-9)
        assert math.isclose(loc.y, rho * math.sin(beta), abs_tol=1e-9)


IDENTITY_45 = TrapezoidFrame(Point(0, 0), 0.0, False, math.pi / 4)


class TestScaleToHit:
    @pytest.mark.parametrize(
        "w,lam,part",
        [
            # frozen from the closed form, verified below against bisection
            ((0.5, 0.2), 0.5385164807134504, HitPart.CRITICAL_ARC),
            ((0.1, 0.3), 0.5, HitPart.NEAR_ARC),
            ((0.5, 0.6), 0.848528137423857, HitPart.TOP),
        ],
    )
    def test_reference_points(self, w, lam, part):
        hit = scale_to_hit(IDENTITY_45, Point(*w))
        assert hit.part is part
        assert hit.lam == pytest.approx(lam, rel=1e-12)
        assert bisect_first_contact(math.pi / 4, *w) == pytest.approx(lam, rel=1e-9)

    def test_never_entered(self):
        assert scale_to_hit(IDENTITY_45, Point(-0.1, 0.1)).part is HitPart.NONE
        assert scale_to_hit(IDENTITY_45, Point(0.4, -1e-12)).part is HitPart.NONE
        assert math.isinf(scale_to_hit(IDENTITY_45, Point(-0.1, 0.1)).lam)

    def test_apex_rejected(self):
        with pytest.raises(GeometryError):
            scale_to_hit(IDENTITY_45, Point(0.0, 0.0))

    def test_bottom_edge_counts_as_critical(self):
        hit = scale_to_hit(IDENTITY_45, Point(0.7, 0.0))
        assert hit.part is HitPart.CRITICAL_ARC
        assert hit.lam == pytest.approx(0.7, rel=1e-12)

    @pytest.mark.parametrize("th", [math.pi / 4, 0.9, theta(26)])
    def test_matches_bisection_oracle(self, th):
        frame = TrapezoidFrame(Point(0, 0), 0.0, False, th)
        rng = np.random.default_rng(hash(th) % 2**32)
        for x, y in rng.uniform(-0.2, 1.4, (2000, 2)):
            hit = scale_to_hit(frame, Point(float(x), float(y)))
            expected = bisect_first_contact(th, float(x), float(y))
            if math.isinf(expected):
                assert hit.part is HitPart.NONE
            else:
                assert hit.lam == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("th", [math.pi / 4, 0.9, theta(26)])
    def test_contact_sandwich(self, th):
        # contact point is inside the closure at lam*(1+eps), outside the
        # open shape at lam*(1-eps)
        frame = TrapezoidFrame(Point(0, 0), 0.0, False, th)
        rng = np.random.default_rng(5)
        for x, y in rng.uniform(0.0, 1.2, (500, 2)):
            hit = scale_to_hit(frame, Point(float(x), float(y)))
            if hit.part is HitPart.NONE:
                continue
            assert trapezoid_contains(th, x, y, scale=hit.lam * (1 + 1e-7), closed=True)
            assert not trapezoid_contains(th, x, y, scale=hit.lam * (1 - 1e-7))

    @pytest.mark.parametrize("th", [math.pi / 4, 0.9])
    def test_mirror_symmetry(self, th):
        # boundary contact at scale lam is preserved by mirroring across the
        # scaled shape's symmetry axis: lam(x, y) == lam(lam - x, y)
        frame = TrapezoidFrame(Point(0, 0), 0.0, False, th)
        rng = np.random.default_rng(11)
        checked = 0
        for x, y in rng.uniform(0.01, 1.2, (500, 2)):
            hit = scale_to_hit(frame, Point(float(x), float(y)))
            if hit.part is HitPart.NONE or y <= 0.0:
                continue
            mirrored = Point(hit.lam - x, y)
            m = scale_to_hit(frame, mirrored)
            assert m.lam == pytest.approx(hit.lam, rel=1e-9)
            checked += 1
        assert checked > 400


class TestFirstContact:
    # build_ty settles a frame once its best dilation is strictly below the
    # distance of every point it has not scanned; that is sound only if no
    # dilation ever rounds below its own point's distance
    @given(
        st.one_of(
            st.floats(0.0, HALF_PI, exclude_max=True),
            st.floats(0.0, 1e-12),
            st.floats(HALF_PI - 1e-9, HALF_PI, exclude_max=True),
        ),
        st.floats(np.finfo(float).smallest_subnormal, 1e300),
        st.sampled_from([26, 30, 84]),
    )
    @settings(max_examples=400, deadline=None)
    def test_dilation_never_below_distance(self, alpha, r, k):
        with np.errstate(over="ignore"):  # a dilation past the float range is +inf, still >= r
            lam = _dilation(np.array([alpha]), np.array([r]), np.sin(theta(k)))
        assert lam[0] >= r


class TestCoversSector:
    def test_right_angle_cover(self):
        assert covers_sector_check(math.pi / 4, math.pi / 2, 20_000, seed=3)

    def test_parameter_validation(self):
        with pytest.raises(GeometryError):
            covers_sector_check(0.3, math.pi / 2, 100, 0)
        with pytest.raises(GeometryError):
            covers_sector_check(math.pi / 4, 0.4, 100, 0)
        with pytest.raises(GeometryError):
            covers_sector_check(math.pi / 4, 2.0, 100, 0)  # gamma > 2*theta

    @pytest.mark.parametrize("k", [26, 27, 32, 41, 56, 77, 100])
    def test_construction_pairs(self, k):
        assert covers_sector_check(theta(k), gamma(k), 20_000, seed=k)

    def test_suite_criterion_against_sampler_and_integer_rule(self):
        # check_sector_cover compares the floats theta and gamma return;
        # doubling is exact, so it decides ceil(k/4) <= 2 ceil(k/8)
        for k in range(25, 10_001):
            passed = check_sector_cover(RunConfig(k=k), {})[0].passed
            assert passed == (-(-k // 4) <= 2 * -(-k // 8)), k
            if k <= 400:
                assert passed and covers_sector_check(theta(k), gamma(k), 20_000, seed=k), k


class TestLhpContainment:
    def test_reference_pair(self):
        assert lhp_containment_check(
            Point(0.45, -0.05), Point(0.15, -0.10), math.pi / 3, 20_000, seed=9
        )

    def test_degenerate(self):
        with pytest.raises(GeometryError, match="degenerate"):
            lhp_containment_check(Point(0.4, -0.1), Point(0.4, -0.1), math.pi / 3, 100, 0)

    def test_upper_half_plane_rejected(self):
        with pytest.raises(GeometryError, match="lower half plane"):
            lhp_containment_check(Point(0.45, 0.05), Point(0.15, -0.10), math.pi / 3, 100, 0)

    def test_angle_clause_named(self):
        with pytest.raises(GeometryError, match="phi"):
            lhp_containment_check(Point(0.45, -0.05), Point(0.46, -0.30), math.pi / 3, 100, 0)
