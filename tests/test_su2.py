import math
import warnings
from unittest import mock

import numpy as np
import pytest

from cobord2 import _kernel, su2
from cobord2.su2 import AlgVector, UnitQuaternion, BranchError


def test_exp_zero_is_identity():
    assert su2.exp_su2((0.0, 0.0, 0.0)) == su2.ONE


def test_exp_half_pi_is_i():
    q = su2.exp_su2((math.pi / 2, 0.0, 0.0))
    assert abs(q.w) < 1e-15
    assert abs(q.x - 1.0) < 1e-15


def test_log_identity():
    assert su2.log_su2(su2.ONE) == su2.ZERO_VEC


def test_log_of_i():
    v = su2.log_su2(UnitQuaternion(0.0, 1.0, 0.0, 0.0))
    assert abs(v.a - math.pi / 2) < 1e-15


def test_log_branch_error_near_minus_one():
    with pytest.raises(BranchError):
        su2.log_su2(UnitQuaternion(-1.0 + 1e-12, math.sqrt(2e-12), 0.0, 0.0))


def test_exp_log_round_trip_seeded():
    for seed in range(100):
        v = su2.sample_ball(math.pi - 1e-3, su2.mix_seed(7, seed))
        w = su2.log_su2(su2.exp_su2(v))
        assert su2.vec_dist(v, w) < 1e-10


def test_log_exp_stays_in_open_ball():
    for seed in range(50):
        q = su2.sample_haar(su2.mix_seed(11, seed))
        if su2.near_minus_one(q):
            continue
        v = su2.log_su2(q)
        assert v.norm() < math.pi
        assert su2.quat_dist(su2.exp_su2(v), q) < 1e-10


def test_adjoint_identity_and_isometry():
    for seed in range(100):
        g = su2.sample_haar(su2.mix_seed(13, seed))
        v = su2.sample_ball(math.pi, su2.mix_seed(17, seed))
        assert su2.vec_dist(su2.adjoint(su2.ONE, v), v) == 0.0
        assert abs(su2.adjoint(g, v).norm() - v.norm()) < 1e-12


def test_adjoint_i_on_j():
    assert su2.vec_dist(su2.adjoint((0, 1, 0, 0), (0, 1, 0)), (0, -1, 0)) < 1e-15


def test_adjoint_is_group_action():
    for seed in range(50):
        g = su2.sample_haar(su2.mix_seed(19, seed))
        h = su2.sample_haar(su2.mix_seed(23, seed))
        v = su2.sample_ball(math.pi, su2.mix_seed(29, seed))
        lhs = su2.adjoint(su2.mul(g, h), v)
        rhs = su2.adjoint(g, su2.adjoint(h, v))
        assert su2.vec_dist(lhs, rhs) < 1e-10


def test_commutator_trivial_cases():
    g = su2.sample_haar(42)
    assert su2.quat_dist(su2.commutator(g, su2.ONE), su2.ONE) < 1e-12
    assert su2.quat_dist(su2.commutator(g, g), su2.ONE) < 1e-12


def test_commutator_i_j():
    assert su2.quat_dist(su2.commutator((0, 1, 0, 0), (0, 0, 1, 0)), su2.MINUS_ONE) == 0.0


def test_product_associates_on_haar_triples():
    for seed in range(100):
        a = su2.sample_haar(su2.mix_seed(31, seed, 0))
        b = su2.sample_haar(su2.mix_seed(31, seed, 1))
        c = su2.sample_haar(su2.mix_seed(31, seed, 2))
        lhs = su2.mul(su2.mul(a, b), c)
        rhs = su2.mul(a, su2.mul(b, c))
        assert su2.quat_dist(lhs, rhs) < 1e-12


def test_long_product_keeps_unit_norm():
    qs = [su2.sample_haar(su2.mix_seed(37, k)) for k in range(4096)]
    p = su2.product(qs)
    assert abs(p.norm() - 1.0) < 1e-12


def test_sampling_is_deterministic():
    assert su2.sample_haar(123) == su2.sample_haar(123)
    assert su2.sample_ball(1.0, 99) == su2.sample_ball(1.0, 99)
    assert su2.sample_haar(123) != su2.sample_haar(124)


def test_ball_samples_inside_radius():
    for seed in range(200):
        v = su2.sample_ball(0.8, su2.mix_seed(41, seed))
        assert v.norm() < 0.8


def test_haar_mean_w_within_3_sigma():
    n = 100_000
    total = 0.0
    for k in range(n):
        total += su2.sample_haar(su2.mix_seed(43, k)).w
    # component variance of a Haar unit quaternion is 1/4
    assert abs(total / n) < 3.0 * 0.5 / math.sqrt(n)


def test_adjoint_matrices_match_adjoint():
    qs = [su2.sample_haar(su2.mix_seed(13, i)) for i in range(20)]
    mats = su2.adjoint_matrices(qs)
    assert mats.shape == (20, 3, 3)
    for q, m in zip(qs, mats):
        for seed in range(3):
            v = su2.sample_ball(math.pi, su2.mix_seed(14, seed))
            assert su2.vec_dist(m @ np.array(v), su2.adjoint(q, v)) < 1e-14
    assert su2.adjoint_matrices([]).shape == (0, 3, 3)


def test_left_jacobian_is_the_differential_of_exp():
    # exp(v + h e_c) exp(v)^-1 = exp(h J_l(v) e_c) + O(h^2); tiny and
    # near-pi radii exercise both branches of the closed forms
    h = 1e-6
    for radius in (1e-9, 1e-5, 0.3, 1.5, 3.0, math.pi - 1e-3):
        for seed in range(5):
            v = su2.sample_ball(math.pi, su2.mix_seed(15, seed))
            v = su2.vec_scale(v, radius / v.norm())
            jl = su2.left_jacobian(v)
            for c in range(3):
                vp, vm = list(v), list(v)
                vp[c] += h
                vm[c] -= h
                left = su2.mul(su2.exp_su2(vp), su2.inv(su2.exp_su2(vm)))
                fd = np.array(su2.log_su2(left)) / (2 * h)
                assert np.max(np.abs(fd - jl[:, c])) < 1e-8, (radius, seed, c)
            assert np.max(np.abs(su2.left_jacobian_inv(v) @ jl - np.eye(3))) < 1e-12


# --- the splitmix stream on a uint64 seed array ------------------------------

LANE_SEEDS = [0, 1, 2 ** 63, 2 ** 64 - 1] + [su2.mix_seed(47, t) for t in range(400)]


def _lanes():
    return np.array(LANE_SEEDS, dtype=np.uint64)


def _same_bits(lanes, scalars):
    """Lane i of the float arrays in lanes holds the bits of scalars[i]."""
    got = np.stack([np.asarray(c, dtype=float) for c in lanes], axis=-1)
    want = np.array(scalars, dtype=float).reshape(got.shape)
    return np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_mix_seed_on_a_trial_axis_equals_the_scalar_stream():
    axis = np.arange(300, dtype=np.uint64)
    assert su2.mix_seed(7, 30, 2, 3, axis).tolist() == [
        su2.mix_seed(7, 30, 2, 3, t) for t in range(300)]
    assert su2.mix_seed(_lanes(), 5, 9).tolist() == [su2.mix_seed(s, 5, 9) for s in LANE_SEEDS]
    # a negative int seed and an int64 index wrap as the ints do
    assert su2.mix_seed(-1, np.arange(3)).tolist() == [su2.mix_seed(-1, t) for t in range(3)]


def test_splitmix_lanes_equal_the_scalar_streams():
    rng = su2.SplitMix64(_lanes())
    scalar = [su2.SplitMix64(s) for s in LANE_SEEDS]
    for _ in range(3):
        assert rng.next_u64().tolist() == [r.next_u64() for r in scalar]
    assert _same_bits([rng.uniform()], [[r.uniform()] for r in scalar])
    assert _same_bits(rng.gauss_pair(), [r.gauss_pair() for r in scalar])


def test_haar_and_ball_lanes_equal_the_scalar_draws():
    assert _same_bits(su2.sample_haar(_lanes()), [su2.sample_haar(s) for s in LANE_SEEDS])
    for radius in (math.pi, 0.8):
        assert _same_bits(su2.sample_ball(radius, _lanes()),
                          [su2.sample_ball(radius, s) for s in LANE_SEEDS])


def test_haar_redraws_a_short_gaussian():
    # the first Gaussian of each chosen seed is zero, so that seed draws again
    chosen = [1, 2 ** 63, LANE_SEEDS[10], LANE_SEEDS[-1]]
    real = su2.SplitMix64.gauss_pair

    def zero_first_draw(rng):
        if not hasattr(rng, "drawn"):
            rng.seed, rng.drawn = rng._state, 0
        if isinstance(rng.seed, np.ndarray):
            hit = np.isin(rng.seed, np.array(chosen, dtype=np.uint64))
        else:
            hit = rng.seed in chosen
        short = hit & (rng.drawn < 2)  # a quaternion is two pairs
        rng.drawn += 1
        return tuple(_kernel.select(short, 0.0, g) for g in real(rng))

    def redraw(seed):
        rng = su2.SplitMix64(seed)
        rng.gauss_pair(), rng.gauss_pair()
        g = rng.gauss_pair() + rng.gauss_pair()
        n = math.sqrt(sum(x * x for x in g))
        return UnitQuaternion(*(x / n for x in g))

    with mock.patch.object(su2.SplitMix64, "gauss_pair", zero_first_draw):
        scalar = [su2.sample_haar(s) for s in LANE_SEEDS]
        lanes = su2.sample_haar(_lanes())
    for s, q in zip(LANE_SEEDS, scalar):
        assert q == (redraw(s) if s in chosen else su2.sample_haar(s))
    assert _same_bits(lanes, scalar)


def test_kernel_lanes_equal_the_scalar_kernel():
    qs = su2.sample_haar(_lanes())
    vs = su2.sample_ball(math.pi, su2.mix_seed(_lanes(), 1))
    # zero lanes take the r == 0 and s == 0 branches of exp and log
    vs = su2.AlgVector(*(np.where(np.arange(len(LANE_SEEDS)) % 7 == 0, 0.0, c) for c in vs))
    q_pts = [su2.UnitQuaternion(*(float(c[i]) for c in qs)) for i in range(len(LANE_SEEDS))]
    v_pts = [su2.AlgVector(*(float(c[i]) for c in vs)) for i in range(len(LANE_SEEDS))]
    assert _same_bits(su2.exp_su2(vs), [su2.exp_su2(v) for v in v_pts])
    assert _same_bits(su2.log_su2(su2.exp_su2(vs)), [su2.log_su2(su2.exp_su2(v)) for v in v_pts])
    assert _same_bits(su2.adjoint(qs, vs), [su2.adjoint(q, v) for q, v in zip(q_pts, v_pts)])
    assert _same_bits([qs.norm(), vs.norm(), su2.quat_dist(qs, su2.ONE)],
                      [(q.norm(), v.norm(), su2.quat_dist(q, su2.ONE))
                       for q, v in zip(q_pts, v_pts)])


def test_log_of_lane_w_beside_a_float_imaginary_part():
    # a float stands for the same value on every lane, zero included
    w = np.array([1.0, 0.5, -0.25])
    for im in ((0.0, 0.0, 0.0), (0.3, -0.1, 0.2)):
        got = su2.log_su2((w, *im))
        assert _same_bits([np.broadcast_to(c, w.shape) for c in got],
                          [su2.log_su2((x, *im)) for x in w.tolist()])


def test_log_branch_error_names_the_lanes():
    w = np.array([1.0, -1.0, 0.0, -1.0 + 1e-12])
    q = su2.UnitQuaternion(w, np.sqrt(1.0 - w * w), np.zeros(4), np.zeros(4))
    with pytest.raises(BranchError) as err:
        su2.log_su2(q)
    assert err.value.lanes.tolist() == [False, True, False, True]


def test_lane_math_rounds_as_python_floats():
    # numpy's log and atan2 round differently from math
    x = np.random.default_rng(3).standard_normal(20000)
    y = np.random.default_rng(4).standard_normal(20000)
    xs, ys = x.tolist(), y.tolist()
    assert _same_bits([_kernel.lanewise(math.log, np.abs(x))], [[math.log(abs(v))] for v in xs])
    assert _same_bits([_kernel.lanewise(math.atan2, y, x)],
                      [[math.atan2(b, a)] for a, b in zip(xs, ys)])
    assert _same_bits([su2.vec_dist((x, y, x), (y, 0.5, -y))],
                      [[su2.vec_dist((a, b, a), (b, 0.5, -b))] for a, b in zip(xs, ys)])


def test_numpy_integer_seeds_are_the_ints_they_hold():
    # iterating a seed array yields numpy scalars, which must not take the
    # int path in numpy scalar arithmetic: that warns on overflow
    arr = _lanes()[:50]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [su2.mix_seed(s, 3, np.int64(5)) for s in arr] == su2.mix_seed(arr, 3, 5).tolist()
        assert su2.mix_seed(np.uint64(5), 1) == su2.mix_seed(5, 1)
        assert type(su2.mix_seed(np.uint64(5), 1)) is int
        assert su2.mix_seed(np.int64(-1), 2) == su2.mix_seed(-1, 2)
        top = np.uint64(2 ** 64 - 1)
        assert su2.SplitMix64(top).next_u64() == su2.SplitMix64(2 ** 64 - 1).next_u64()
        assert su2.sample_haar(arr[7]) == su2.sample_haar(int(arr[7]))
        assert su2.sample_ball(1.0, arr[9]) == su2.sample_ball(1.0, int(arr[9]))


def test_tangent_matrices_on_lanes_equal_each_lane():
    n = len(LANE_SEEDS)
    qs = su2.sample_haar(_lanes())
    vs = su2.sample_ball(math.pi - 1e-3, su2.mix_seed(_lanes(), 2))
    # zero and tiny lanes take the small-angle series
    scale = np.select([np.arange(n) % 5 == 0, np.arange(n) % 5 == 1], [0.0, 1e-6], 1.0)
    vs = su2.AlgVector(*(c * scale for c in vs))
    q_pts = [su2.UnitQuaternion(*(float(c[i]) for c in qs)) for i in range(n)]
    v_pts = [su2.AlgVector(*(float(c[i]) for c in vs)) for i in range(n)]

    def same(got, want):
        return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))

    for f in (su2.left_jacobian, su2.left_jacobian_inv):
        assert same(f(vs), np.stack([f(v) for v in v_pts]))
    # a float quaternion stands for the same value on every lane
    assert same(su2.adjoint_matrices([qs, su2.ONE, qs]),
                np.stack([su2.adjoint_matrices([q, su2.ONE, q]) for q in q_pts]))
