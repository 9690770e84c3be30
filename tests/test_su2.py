import math
import warnings
from unittest import mock

import numpy as np
import pytest

from cobord2 import _kernel, su2
from cobord2.su2 import UnitQuaternion, BranchError
from scalar_reference import MATH, math_kernel, splitmix_stream


def _trials(seed, n, *tags):
    """The seeds mix_seed(seed, *tags, t) of trials t < n, as lanes."""
    return su2.mix_seed(seed, *tags, np.arange(n, dtype=np.uint64))


def _pick(q, lanes):
    """The lanes of a quaternion or vector that lanes picks."""
    return type(q)(*(c[lanes] for c in q))


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
    v = su2.sample_ball(math.pi - 1e-3, _trials(7, 100))
    w = su2.log_su2(su2.exp_su2(v))
    assert su2.largest(su2.vec_dist(v, w)) < 1e-10


def test_log_exp_stays_in_open_ball():
    q = su2.sample_haar(_trials(11, 50))
    q = _pick(q, ~su2.near_minus_one(q))
    v = su2.log_su2(q)
    assert np.all(v.norm() < math.pi)
    assert su2.largest(su2.quat_dist(su2.exp_su2(v), q)) < 1e-10


def test_adjoint_identity_and_isometry():
    g = su2.sample_haar(_trials(13, 100))
    v = su2.sample_ball(math.pi, _trials(17, 100))
    assert np.all(su2.vec_dist(su2.adjoint(su2.ONE, v), v) == 0.0)
    assert su2.largest(abs(su2.adjoint(g, v).norm() - v.norm())) < 1e-12


def test_adjoint_i_on_j():
    assert su2.vec_dist(su2.adjoint((0, 1, 0, 0), (0, 1, 0)), (0, -1, 0)) < 1e-15


def test_adjoint_is_group_action():
    g = su2.sample_haar(_trials(19, 50))
    h = su2.sample_haar(_trials(23, 50))
    v = su2.sample_ball(math.pi, _trials(29, 50))
    lhs = su2.adjoint(su2.mul(g, h), v)
    rhs = su2.adjoint(g, su2.adjoint(h, v))
    assert su2.largest(su2.vec_dist(lhs, rhs)) < 1e-10


def test_commutator_trivial_cases():
    g = su2.sample_haar(np.array([42], dtype=np.uint64))
    assert su2.largest(su2.quat_dist(su2.commutator(g, su2.ONE), su2.ONE)) < 1e-12
    assert su2.largest(su2.quat_dist(su2.commutator(g, g), su2.ONE)) < 1e-12


def test_commutator_i_j():
    assert su2.quat_dist(su2.commutator((0, 1, 0, 0), (0, 0, 1, 0)), su2.MINUS_ONE) == 0.0


def test_product_associates_on_haar_triples():
    a, b, c = (su2.sample_haar(su2.mix_seed(31, np.arange(100, dtype=np.uint64), i))
               for i in range(3))
    lhs = su2.mul(su2.mul(a, b), c)
    rhs = su2.mul(a, su2.mul(b, c))
    assert su2.largest(su2.quat_dist(lhs, rhs)) < 1e-12


def test_long_product_keeps_unit_norm():
    q = su2.sample_haar(_trials(37, 4096))
    p = su2.product([_pick(q, slice(k, k + 1)) for k in range(4096)])
    assert su2.largest(abs(p.norm() - 1.0)) < 1e-12


def test_sampling_is_deterministic():
    seeds = np.array([123, 124], dtype=np.uint64)
    for draw in (su2.sample_haar, lambda s: su2.sample_ball(1.0, s)):
        first, again = draw(seeds), draw(seeds)
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
        assert tuple(c[0] for c in first) != tuple(c[1] for c in first)


def test_ball_samples_inside_radius():
    v = su2.sample_ball(0.8, _trials(41, 200))
    assert np.all(v.norm() < 0.8)


def test_haar_mean_w_within_3_sigma():
    n = 100_000
    total = sum(su2.sample_haar(_trials(43, n)).w.tolist())
    # component variance of a Haar unit quaternion is 1/4
    assert abs(total / n) < 3.0 * 0.5 / math.sqrt(n)


def test_adjoint_matrices_match_adjoint():
    q = su2.sample_haar(_trials(13, 20))
    mats = su2.adjoint_matrices([q])[:, 0]
    assert mats.shape == (20, 3, 3)
    for seed in range(3):
        # one vector on every lane
        v = su2.sample_ball(math.pi, np.full(20, su2.mix_seed(14, seed), dtype=np.uint64))
        got = np.einsum("nij,nj->ni", mats, su2.stack_lanes(v))
        assert np.max(np.abs(got - su2.stack_lanes(su2.adjoint(q, v)))) < 1e-14
    assert su2.adjoint_matrices([]).shape == (0, 3, 3)


def test_left_jacobian_is_the_differential_of_exp():
    # exp(v + h e_c) exp(v)^-1 = exp(h J_l(v) e_c) + O(h^2); tiny and
    # near-pi radii exercise both branches of the closed forms
    h = 1e-6
    for radius in (1e-9, 1e-5, 0.3, 1.5, 3.0, math.pi - 1e-3):
        v = su2.sample_ball(math.pi, _trials(15, 5))
        v = su2.vec_scale(v, radius / v.norm())
        jl = su2.left_jacobian(v)
        for c in range(3):
            vp, vm = list(v), list(v)
            vp[c] = vp[c] + h
            vm[c] = vm[c] - h
            left = su2.mul(su2.exp_su2(vp), su2.inv(su2.exp_su2(vm)))
            fd = su2.stack_lanes(su2.log_su2(left)) / (2 * h)
            assert np.max(np.abs(fd - jl[:, :, c])) < 1e-8, (radius, c)
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


# Lanes run log, atan2, hypot and the cube root through numpy, the scalar
# reference (scalar_reference.math_kernel) through math.  Over the draws
# and kernel calls of this section on 20,000 seeds, a lane and its
# reference differ by at most 8.9e-16 (log_su2 of exp_su2 on the ball of
# radius pi, 2 ulp at pi).
FLOAT_TOL = 2e-15


def _close(lanes, ref, tol=FLOAT_TOL):
    """Each component of lanes is within tol of the same component of
    ref, lane by lane."""
    got = np.stack(np.broadcast_arrays(*lanes), axis=-1)
    want = np.stack(np.broadcast_arrays(*ref), axis=-1)
    return got.shape == want.shape and bool(np.max(np.abs(got - want), initial=0.0) <= tol)


def _one_lane(f, seeds):
    """f on each seed as a one-lane batch: the components of each result,
    as the floats (bits unchanged) its one lane holds."""
    return [tuple(float(c[0]) for c in f(np.array([s], dtype=np.uint64))) for s in seeds]


def test_mix_seed_on_a_trial_axis_equals_the_scalar_stream():
    axis = np.arange(300, dtype=np.uint64)
    assert su2.mix_seed(7, 30, 2, 3, axis).tolist() == [
        su2.mix_seed(7, 30, 2, 3, t) for t in range(300)]
    assert su2.mix_seed(_lanes(), 5, 9).tolist() == [su2.mix_seed(s, 5, 9) for s in LANE_SEEDS]
    # a negative int seed and an int64 index wrap as the ints do
    assert su2.mix_seed(-1, np.arange(3)).tolist() == [su2.mix_seed(-1, t) for t in range(3)]


def test_splitmix_lanes_equal_the_scalar_streams():
    rng = su2.SplitMix64(_lanes())
    streams = [splitmix_stream(s) for s in LANE_SEEDS]
    for _ in range(3):
        assert rng.block(1)[0].tolist() == [next(x) for x in streams]
    assert _same_bits(rng.uniforms(1), [[(next(x) >> 11) * 2.0 ** -53] for x in streams])
    # a Gaussian takes a log: one-lane batches give its bits, the scalar
    # reference its value
    u = rng.uniforms(2)
    pairs = su2._gauss_pairs(1.0 - u[0], u[1])

    def pair_after_four(seeds):
        u = su2.SplitMix64(seeds).uniforms(6)
        return su2._gauss_pairs(1.0 - u[4], u[5])

    assert _same_bits(pairs, _one_lane(pair_after_four, LANE_SEEDS))
    with math_kernel():
        assert _close(pairs, pair_after_four(_lanes()))


def test_block_draws_continue_the_scalar_streams():
    stack = _lanes()[:400].reshape(8, 50)
    # int seeds, the 2**64 - 1 wrap, lanes and an (n, N) stack of lanes
    for seed in (0, 7, 2 ** 64 - 1, np.uint64(2 ** 64 - 1), _lanes(), stack):
        flat = np.array(seed, dtype=np.uint64, ndmin=1).ravel().tolist()
        for k in range(1, 9):
            rng, streams = su2.SplitMix64(seed), [splitmix_stream(s) for s in flat]
            # the second block picks up where the first left off
            for _ in range(2):
                block = rng.block(k)
                assert block.dtype == np.uint64
                assert block.shape == (k,) + np.shape(np.array(seed, ndmin=1))
                want = np.array([[next(x) for x in streams] for _ in range(k)], dtype=np.uint64)
                assert np.array_equal(block.reshape(k, -1), want)
    with pytest.raises(ValueError):
        su2.SplitMix64(1).block(17)


def test_haar_and_ball_lanes_equal_their_one_lane_draws():
    haar = su2.sample_haar(_lanes())
    assert _same_bits(haar, _one_lane(su2.sample_haar, LANE_SEEDS))
    balls = {radius: su2.sample_ball(radius, _lanes()) for radius in (math.pi, 0.8)}
    for radius, ball in balls.items():
        assert _same_bits(ball, _one_lane(lambda s: su2.sample_ball(radius, s), LANE_SEEDS))
    with math_kernel():
        assert _close(haar, su2.sample_haar(_lanes()))
        for radius, ball in balls.items():
            assert _close(ball, su2.sample_ball(radius, _lanes()))


def test_haar_redraws_a_short_gaussian():
    # the first block of each chosen seed gives two zero Gaussians
    # (u1 = 1 - 0 in both pairs), so that seed draws again
    chosen = np.array([1, 2 ** 63, LANE_SEEDS[10], LANE_SEEDS[-1]], dtype=np.uint64)
    real = su2.SplitMix64.block

    def zero_first_block(rng, k):
        first = not hasattr(rng, "seed")
        if first:
            rng.seed = rng._state
        out = real(rng, k)
        if first:
            out[0::2] = np.where(np.isin(rng.seed, chosen), np.uint64(0), out[0::2])
        return out

    def redraw(seed):
        # draws 5-8 of the seed's own stream, as one-lane Gaussians
        draws = splitmix_stream(seed)
        u = [np.array([(next(draws) >> 11) * 2.0 ** -53]) for _ in range(8)][4:]
        g = []
        for u1, u2 in ((1.0 - u[0], u[1]), (1.0 - u[2], u[3])):
            r = np.sqrt(-2.0 * np.log(u1))
            g += [r * np.cos(2.0 * math.pi * u2), r * np.sin(2.0 * math.pi * u2)]
        n = np.sqrt(g[0] * g[0] + g[1] * g[1] + g[2] * g[2] + g[3] * g[3])
        return tuple(float((x / n)[0]) for x in g)

    plain = _one_lane(su2.sample_haar, LANE_SEEDS)
    with mock.patch.object(su2.SplitMix64, "block", zero_first_block):
        lanes = su2.sample_haar(_lanes())
        one_lane = _one_lane(su2.sample_haar, LANE_SEEDS)
        with math_kernel():
            ref = su2.sample_haar(_lanes())
    assert _same_bits(lanes, [redraw(s) if s in chosen else q for s, q in zip(LANE_SEEDS, plain)])
    assert _same_bits(lanes, one_lane)
    assert _close(lanes, ref)


def _bits(values):
    """The components of a list of values, each broadcast to the lanes,
    as one uint64 array."""
    return np.array([np.broadcast_to(np.asarray(c, dtype=float), len(LANE_SEEDS))
                     for v in values for c in (v if isinstance(v, tuple) else (v,))]).view(np.uint64)


def test_a_stack_on_the_generator_axis_equals_a_call_per_row():
    # four generators on every lane, as a chart point stacks its handles
    stacked = su2.sample_haar(su2.mix_seed(_lanes(), np.arange(4, dtype=np.uint64)[:, None]))
    qs = [su2.sample_haar(su2.mix_seed(_lanes(), i)) for i in range(4)]
    assert stacked.w.shape == (4, len(LANE_SEEDS))
    assert np.array_equal(_bits(_rows(stacked)), _bits(qs))
    vs = su2.sample_ball(math.pi, su2.mix_seed(_lanes(), 1, np.arange(3, dtype=np.uint64)[:, None]))
    assert np.array_equal(_bits(_rows(vs)),
                          _bits([su2.sample_ball(math.pi, su2.mix_seed(_lanes(), 1, i))
                                 for i in range(3)]))
    # a row made constant, as a pinned handle or a zero theta
    mixed = [qs[1], su2.ONE, qs[3], UnitQuaternion(0.5, 0.5, -0.5, 0.5)]
    mixed_stack = UnitQuaternion._make(np.array([np.broadcast_to(c, len(LANE_SEEDS))
                                                  for c in cs]) for cs in zip(*mixed))
    first3 = UnitQuaternion._make(c[:3] for c in stacked)
    for f, args, rows in ((su2.commutator, (stacked, mixed_stack), (qs, mixed)),
                          (su2.commutator, (mixed_stack, stacked), (mixed, qs)),
                          (su2.quat_dist, (stacked, mixed_stack), (qs, mixed)),
                          (su2.adjoint, (first3, vs), (qs[:3], _rows(vs)))):
        got = f(*args)
        want = [f(*xs) for xs in zip(*rows)]
        got_rows = list(got) if isinstance(got, np.ndarray) else _rows(got)
        assert np.array_equal(_bits(got_rows), _bits(want))
    # a single value (N,) or a float against a stack, as numpy broadcasts it
    for g in (qs[0], su2.ONE):
        got = su2.mul(g, stacked)
        assert np.array_equal(_bits(_rows(got)), _bits([su2.mul(g, q) for q in qs]))


def _rows(x):
    """The rows of a stack, one value per generator."""
    return [type(x)._make(cs) for cs in zip(*x)]


def test_kernel_lanes_equal_the_scalar_kernel():
    qs = su2.sample_haar(_lanes())
    vs = su2.sample_ball(math.pi, su2.mix_seed(_lanes(), 1))
    # zero lanes take the r == 0 and s == 0 branches of exp and log
    vs = su2.AlgVector(*(np.where(np.arange(len(LANE_SEEDS)) % 7 == 0, 0.0, c) for c in vs))

    def kernel_calls():
        return (su2.exp_su2(vs), su2.adjoint(qs, vs),
                [qs.norm(), vs.norm(), su2.quat_dist(qs, su2.ONE)],
                su2.log_su2(su2.exp_su2(vs)))

    got = kernel_calls()
    with math_kernel():
        ref = kernel_calls()
    # sqrt, sin and cos round alike through numpy and math, so exp, the
    # adjoint action and the norms keep the bits of the scalar reference
    for lanes, want in zip(got[:3], ref[:3]):
        assert _same_bits(lanes, np.stack(np.broadcast_arrays(*want), axis=-1))
    # log takes an atan2: each lane has its one-lane bits and the reference's value
    logs = got[3]
    v_pts = [tuple(np.array([c[i]]) for c in vs) for i in range(len(LANE_SEEDS))]
    assert _same_bits(logs, [tuple(float(c[0]) for c in su2.log_su2(su2.exp_su2(v)))
                             for v in v_pts])
    assert _close(logs, ref[3])


def test_multiplying_by_the_constant_identity_keeps_the_operand():
    qs = su2.sample_haar(su2.mix_seed(_lanes(), np.arange(3, dtype=np.uint64)[:, None]))
    # zero components of both signs, as a pinned or gauge-fixed value has
    n = len(LANE_SEEDS)
    zeros = np.where(np.arange(n) % 2 == 0, -0.0, 0.0)
    signed = UnitQuaternion(*(np.where(np.arange(n) % 3 == 0, zeros, c) for c in qs))
    ones = [su2.ONE, su2.inv(su2.ONE), (1.0, 0.0, 0.0, 0.0)]
    assert su2.inv(su2.ONE) == (1.0, -0.0, -0.0, -0.0)
    for q in (qs, signed, _rows(qs)[0]):
        for one in ones:
            for got in (_kernel.qmul(one, q), _kernel.qmul(q, one)):
                # the operand's own arrays, not a copy
                assert all(a is b for a, b in zip(got, q))
        # the computed product, the identity as lane arrays, agrees off zeros
        computed = _kernel.qmul(tuple(np.full_like(c, v) for c, v in zip(q, su2.ONE)), q)
        nonzero = [c != 0.0 for c in q]
        assert all(np.array_equal(np.asarray(a)[m].view(np.uint64), np.asarray(b)[m].view(np.uint64))
                   for a, b, m in zip(computed, q, nonzero))
    # computed, ONE * (-0.0, x, y, z) has w = -0.0 - 0.0 * x - ..., and
    # -0.0 - (-0.0) rounds to +0.0 for x < 0; the identity rule keeps -0.0
    neg = (np.array([-0.0]), np.array([-0.5]), np.array([0.5]), np.array([-0.5]))
    computed = _kernel.qmul((np.ones(1), np.zeros(1), np.zeros(1), np.zeros(1)), neg)
    assert np.signbit(computed[0]).tolist() == [False]
    assert np.signbit(_kernel.qmul(su2.ONE, neg)[0]).tolist() == [True]
    # the adjoint action of the identity is the vector itself
    v = su2.sample_ball(math.pi, _lanes())
    assert all(a is b for a, b in zip(su2.adjoint(su2.ONE, v), v))


def test_qrot_is_the_vector_part_of_the_full_product():
    gs = su2.sample_haar(su2.mix_seed(_lanes(), np.arange(3, dtype=np.uint64)[:, None]))
    vs = su2.sample_ball(math.pi, su2.mix_seed(_lanes(), 9))
    for g, v in ((gs, vs), (_rows(gs)[1], vs), (gs, (0.5, 0.0, -0.25))):
        full = _kernel.qmul(_kernel.qmul(g, (0.0, *v)), _kernel.qconj(g))
        got = _kernel.qrot(g, v)
        assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64))
                   for a, b in zip(got, full[1:]))


def test_log_of_lane_w_beside_a_float_imaginary_part():
    # a float stands for the same value on every lane, zero included
    w = np.array([1.0, 0.5, -0.25])
    for im in ((0.0, 0.0, 0.0), (0.3, -0.1, 0.2)):
        got = [np.broadcast_to(c, w.shape) for c in su2.log_su2((w, *im))]
        assert _same_bits(got, [[float(np.broadcast_to(c, (1,))[0])
                                 for c in su2.log_su2((np.array([x]), *im))]
                                for x in w.tolist()])
        with math_kernel():
            assert _close(got, su2.log_su2((w, *im)))


def test_log_branch_error_names_the_lanes():
    w = np.array([1.0, -1.0, 0.0, -1.0 + 1e-12])
    q = su2.UnitQuaternion(w, np.sqrt(1.0 - w * w), np.zeros(4), np.zeros(4))
    with pytest.raises(BranchError) as err:
        su2.log_su2(q)
    assert err.value.lanes.tolist() == [False, True, False, True]


def _ulps(got, want):
    """|got - want| in units of the last place of want."""
    return np.max(np.abs(got - want) / np.spacing(np.abs(want)), initial=0.0)


def test_lane_math_rounds_as_python_floats():
    # lanes take numpy's functions, within 1 ulp of math (2 ulp for the cube
    # root against math.pow(u, 1/3)) over 1M inputs each on x86-64 with
    # numpy 2.4's AVX-512 dispatch
    x = np.random.default_rng(3).standard_normal(20000)
    y = np.random.default_rng(4).standard_normal(20000)
    u = np.random.default_rng(5).random(20000)
    xs, ys, us = x.tolist(), y.tolist(), u.tolist()
    cases = [
        ("log", (np.abs(x),), [math.log(abs(a)) for a in xs], 1),
        ("atan2", (y, x), [math.atan2(b, a) for a, b in zip(xs, ys)], 1),
        ("hypot", (x, y), [math.hypot(a, b) for a, b in zip(xs, ys)], 1),
        ("cbrt", (u,), [math.pow(c, 1.0 / 3.0) for c in us], 2),
    ]
    for name, args, want, ulps in cases:
        fn = getattr(_kernel, name)
        got = fn(*args)
        assert _ulps(got, np.array(want)) <= ulps, name
        # the scalar reference is math itself
        with math_kernel():
            assert getattr(_kernel, name)(*args).tolist() == want, name
        assert [MATH[name](*a) for a in zip(*(a.tolist() for a in args))] == want, name
        # an element has the same bits in an array of any length
        for n in range(1, 18):
            assert np.array_equal(fn(*(a[:n] for a in args)), got[:n]), name
        assert np.array_equal(np.concatenate([fn(*(a[i:i + 1] for a in args))
                                              for i in range(500)]), got[:500]), name
    # a float beside a lane array broadcasts
    assert np.array_equal(_kernel.atan2(0.5, x), np.arctan2(0.5, x))
    assert np.array_equal(_kernel.hypot(y, 0.5), np.hypot(y, 0.5))
    dist = su2.vec_dist((x, y, x), (y, 0.5, -y))
    with math_kernel():
        assert _same_bits([dist], [[d] for d in su2.vec_dist((x, y, x), (y, 0.5, -y)).tolist()])


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
        # an int seed, or a numpy integer scalar, draws one lane
        top = np.uint64(2 ** 64 - 1)
        assert su2.SplitMix64(top).block(1) == su2.SplitMix64(2 ** 64 - 1).block(1)
        assert _same_bits(su2.sample_haar(arr[7]), [su2.sample_haar(int(arr[7]))])
        assert _same_bits(su2.sample_ball(1.0, arr[9]), [su2.sample_ball(1.0, int(arr[9]))])
        assert _same_bits(su2.sample_haar(int(arr[7])), _one_lane(su2.sample_haar, [int(arr[7])]))


def test_tangent_matrices_on_lanes_equal_each_lane():
    n = len(LANE_SEEDS)
    qs = su2.sample_haar(_lanes())
    vs = su2.sample_ball(math.pi - 1e-3, su2.mix_seed(_lanes(), 2))
    # zero and tiny lanes take the small-angle series
    scale = np.select([np.arange(n) % 5 == 0, np.arange(n) % 5 == 1], [0.0, 1e-6], 1.0)
    vs = su2.AlgVector(*(c * scale for c in vs))
    q_pts = [su2.UnitQuaternion(*(c[i:i + 1] for c in qs)) for i in range(n)]
    v_pts = [su2.AlgVector(*(c[i:i + 1] for c in vs)) for i in range(n)]

    def same(got, want):
        return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))

    for f in (su2.left_jacobian, su2.left_jacobian_inv):
        assert same(f(vs), np.concatenate([f(v) for v in v_pts]))
    # a float quaternion stands for the same value on every lane
    assert same(su2.adjoint_matrices([qs, su2.ONE, qs]),
                np.concatenate([su2.adjoint_matrices([q, su2.ONE, q]) for q in q_pts]))
