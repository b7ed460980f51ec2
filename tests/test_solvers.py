import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from demixcs import (
    ArgumentError,
    NumericalError,
    build_cs_ofdm,
    build_modulated_hadamard,
    build_partial_circulant,
    custom_model,
    gen_instance,
)
from demixcs.linop import Dense, Diagonal, hstack, identity, power_iteration
from demixcs.models import build_family
from demixcs.rip import certify_uniqueness
from demixcs.seeding import derive_seed
from demixcs.solvers import (
    _EPS_FLOOR,
    _EPS_INIT,
    _EPS_SHRINK,
    IrlsConfig,
    PenalizedL1Config,
    _cg_batch,
    _cg_target,
    _pdhg_core,
    _shrink,
    check_success,
    solve_irls_lp,
    solve_irls_lp_batch,
    solve_penalized_l1,
    solve_penalized_l1_batch,
)

from conftest import random_complex


# one model whose exact joint isometry constant beats the recovery
# threshold at (s, k) = (1, 1), so noiseless minimizers are the truth
CERT_FAMILY_ARGS = dict(n=32, m=32, seed=11)


@pytest.fixture(scope="module")
def certified_model():
    model = build_cs_ofdm(**CERT_FAMILY_ARGS)
    cert = certify_uniqueness(model, 1, 1, 1.0)
    assert cert.satisfied
    return model


def soft_threshold(v, t):
    return _shrink(v, np.abs(v), t)


# magnitudes under the 1e-300 division guard are flushed toward zero by design
_REALS = st.floats(-1e6, 1e6).map(lambda a: a if abs(a) >= 1e-200 else 0.0)


class TestSoftThreshold:
    def test_basic(self):
        out = soft_threshold(np.array([3.0, -1.0]), np.array([1.0, 1.0]))
        assert np.allclose(out, [2.0, 0.0])

    def test_zero_threshold_is_identity(self, rng):
        v = random_complex(rng, 16)
        assert np.array_equal(soft_threshold(v, 0.0), v)

    def test_complex_magnitude_shrinkage(self):
        assert soft_threshold(np.array([3 + 4j]), 5.0)[0] == 0
        out = soft_threshold(np.array([3 + 4j]), 2.5)[0]
        assert abs(out - (1.5 + 2j)) < 1e-14

    def test_prox_optimality_against_grid(self, rng):
        # 1e3-point scan of t|u| + 0.5|u - v|^2 along the phase of v
        for _ in range(20):
            v = complex(random_complex(rng, 1)[0]) * 3
            t = float(rng.uniform(0, 4))
            got = soft_threshold(np.array([v]), t)[0]
            f_got = t * abs(got) + 0.5 * abs(got - v) ** 2
            phase = v / abs(v)
            best = min(
                t * a + 0.5 * abs(a * phase - v) ** 2
                for a in np.linspace(0, abs(v), 1000)
            )
            assert f_got <= best + 1e-4

    @settings(max_examples=200, deadline=None)
    @given(re=arrays(np.float64, (5, 3), elements=_REALS),
           im=arrays(np.float64, (5, 3), elements=_REALS),
           t=arrays(np.float64, (5, 1), elements=st.floats(0, 1e6)))
    def test_shrinks_magnitude_keeps_phase_and_dtype(self, re, im, t):
        real = soft_threshold(re, t)
        cast = soft_threshold(re.astype(np.complex128), t)
        assert real.dtype == np.float64 and cast.dtype == np.complex128
        assert real.tobytes() == cast.real.tobytes() and not np.any(cast.imag)
        v = re + 1j * im
        out = soft_threshold(v, t)
        mag = np.abs(v)
        assert out.dtype == np.complex128
        assert np.allclose(np.abs(out), np.maximum(mag - t, 0.0), rtol=1e-13, atol=0.0)
        # the kept part points along v: out * conj(v) is real and nonnegative
        turn = out * np.conj(v)
        assert np.all(turn.real >= 0.0)
        assert np.all(np.abs(turn.imag) <= 1e-13 * np.abs(out) * mag)


def cg(op, b, tol=1e-10, max_iter=1000):
    x, _ = _cg_batch(op.apply, b[:, None], np.zeros((op.rows, 1), dtype=b.dtype),
                      tol, max_iter)
    return x[:, 0]


class TestCgSolve:
    def test_identity_one_step(self):
        b = np.array([1.0, 2.0, 3.0])
        assert np.allclose(cg(identity(3), b), b)

    def test_diagonal(self):
        op = Diagonal(np.array([1.0, 2.0, 4.0]))
        x = cg(op, np.array([1.0, 2.0, 4.0]), tol=1e-12)
        assert np.abs(x - 1.0).max() <= 1e-10

    def test_random_spd_matches_dense_solve(self, rng):
        g = random_complex(rng, 8, 8)
        mat = g.conj().T @ g + np.eye(8)
        b = random_complex(rng, 8)
        x = cg(Dense(mat), b, tol=1e-12, max_iter=200)
        assert np.linalg.norm(mat @ x - b) <= 1e-10 * np.linalg.norm(b)
        assert np.linalg.norm(x - np.linalg.solve(mat, b)) <= 1e-8

    def test_negative_curvature_raises(self):
        with pytest.raises(NumericalError):
            cg(Diagonal(np.array([-1.0, -2.0])), np.ones(2))

    def test_batch_freezes_each_column_as_it_would_alone(self):
        # per-column diagonal operators carried as data: a zero column, done
        # on entry, then columns needing 1, 2 and 6 steps
        diag = np.tile(np.arange(1.0, 7.0)[:, None], (1, 4)) * [1.0, 2.0, 0.5, 3.0]
        b = np.zeros((6, 4))
        b[0, 1] = 1.0
        b[:2, 2] = (1.0, -2.0)
        b[:, 3] = np.linspace(1.0, 3.0, 6)

        def scale(v, d):
            return d * v

        x, ok = _cg_batch(scale, b, np.zeros_like(b), 1e-13, 50, diag)
        assert ok.all()
        assert not np.any(x[:, 0])
        for j in range(1, 4):
            alone, ok_j = _cg_batch(scale, b[:, [j]], np.zeros((6, 1)), 1e-13, 50,
                                    diag[:, [j]])
            assert ok_j[0]
            assert x[:, j].tobytes() == alone[:, 0].tobytes()
            assert np.allclose(x[:, j], b[:, j] / diag[:, j], rtol=1e-12, atol=0.0)


class TestPenalizedL1:
    def test_zero_observation_gives_zero(self, certified_model):
        cfg = PenalizedL1Config(lambda_reg=1.0)
        r = solve_penalized_l1(certified_model, np.zeros(certified_model.m), cfg)
        assert np.all(r.x_hat == 0) and np.all(r.z_hat == 0)
        assert r.objective == 0.0 and r.status == "converged"

    def test_certified_instance_recovers_exactly(self, certified_model):
        cfg = PenalizedL1Config(lambda_reg=1.0, epsilon=0.0)
        inst = gen_instance(certified_model, 1, 1, "gaussian", 0.0, seed=4)
        r = solve_penalized_l1(certified_model, inst.y, cfg)
        err = (np.linalg.norm(r.x_hat - inst.x_true)
               + np.linalg.norm(r.z_hat - inst.z_true))
        assert err <= 1e-6

    def test_positive_homogeneity_of_outputs(self, certified_model):
        # tight tol so solver noise sits well under the comparison scale
        cfg = PenalizedL1Config(lambda_reg=1.0, epsilon=0.0, tol=1e-11)
        inst = gen_instance(certified_model, 1, 1, "gaussian", 0.0, seed=8)
        r1 = solve_penalized_l1(certified_model, inst.y, cfg)
        r7 = solve_penalized_l1(certified_model, 7.0 * inst.y, cfg)
        gap = (np.linalg.norm(r7.x_hat / 7.0 - r1.x_hat)
               + np.linalg.norm(r7.z_hat / 7.0 - r1.z_hat))
        assert gap <= 1e-9

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    @pytest.mark.parametrize("scale", [0.125, 8.0])
    def test_power_of_two_scaling_of_y_scales_the_iterate_exactly(self, eps, scale):
        # each column's steps follow ||y_j||, so scaling y and eps by a power
        # of two scales every primal iterate by it and leaves the dual alone
        for family, n, m in [("mtx1", 64, 32), ("cs-ofdm", 32, 16)]:
            model = build_family(family, n, m, 5)
            y = np.stack([gen_instance(model, 2, 2, "gaussian", eps / 10, seed).y
                          for seed in range(3)], axis=1)
            cfg = PenalizedL1Config(lambda_reg=0.7, epsilon=eps, max_iter=3000)
            base = solve_penalized_l1_batch(model, y, cfg)
            scaled = solve_penalized_l1_batch(model, scale * y,
                                              PenalizedL1Config(lambda_reg=0.7,
                                                                epsilon=scale * eps,
                                                                max_iter=3000))
            for r, rs in zip(base, scaled):
                # scaled as float64 pairs: a complex product can flip a zero's sign
                for got, want in ((rs.x_hat, r.x_hat), (rs.z_hat, r.z_hat)):
                    assert got.tobytes() == (scale * want.view(np.float64)).tobytes()
                assert (r.iterations, r.status) == (rs.iterations, rs.status)
            assert len({r.iterations for r in base}) > 1

    def test_feasibility_at_convergence(self):
        # converged runs satisfy the ball constraint up to iteration noise,
        # which scales like 1e2 * tol for this stopping rule
        model = build_modulated_hadamard(64, 32, seed=3)
        inst = gen_instance(model, 2, 2, "gaussian", 0.01, seed=9)
        eps_ball = 0.01 * np.sqrt(32)
        cfg = PenalizedL1Config(lambda_reg=1.0, epsilon=eps_ball, max_iter=50000)
        r = solve_penalized_l1(model, inst.y, cfg)
        assert r.status == "converged"
        assert r.residual <= eps_ball * (1.0 + 100 * cfg.tol)

    def test_objective_dominates_truth_on_certified(self, certified_model):
        cfg = PenalizedL1Config(lambda_reg=1.0, epsilon=0.0)
        inst = gen_instance(certified_model, 1, 1, "gaussian", 0.0, seed=13)
        r = solve_penalized_l1(certified_model, inst.y, cfg)
        truth_obj = float(np.sum(np.abs(inst.x_true)) + np.sum(np.abs(inst.z_true)))
        assert r.objective <= truth_obj + 1e-6

    def test_residual_field_recomputes(self, certified_model):
        cfg = PenalizedL1Config(lambda_reg=1.0)
        inst = gen_instance(certified_model, 1, 1, "gaussian", 0.0, seed=2)
        r = solve_penalized_l1(certified_model, inst.y, cfg)
        recomputed = np.linalg.norm(
            inst.y - certified_model.A.apply(r.x_hat)
            - certified_model.H.apply(r.z_hat))
        assert abs(recomputed - r.residual) <= 1e-12

    def test_deterministic_bitwise(self, certified_model):
        cfg = PenalizedL1Config(lambda_reg=1.0)
        inst = gen_instance(certified_model, 1, 1, "gaussian", 0.0, seed=21)
        a = solve_penalized_l1(certified_model, inst.y, cfg)
        b = solve_penalized_l1(certified_model, inst.y, cfg)
        assert np.array_equal(a.x_hat, b.x_hat)
        assert np.array_equal(a.z_hat, b.z_hat)
        assert a.iterations == b.iterations and a.residual == b.residual

    def test_batch_results_are_per_column(self):
        for family, n, m, seed in [("mtx1", 64, 32, 3), ("cs-ofdm", 32, 32, 11),
                                   ("partial-circulant", 64, 32, 5)]:
            model = build_family(family, n, m, seed)
            insts = [gen_instance(model, 1, 1, "gaussian", 0.0,
                                  seed=derive_seed(31, (t,))) for t in range(5)]
            y = np.stack([inst.y for inst in insts], axis=1)
            cfg = PenalizedL1Config(lambda_reg=1.0)
            rs = solve_penalized_l1_batch(model, y, cfg)
            for r, inst in zip(rs, insts):
                err = (np.linalg.norm(r.x_hat - inst.x_true)
                       + np.linalg.norm(r.z_hat - inst.z_true))
                assert err <= 1e-6
            # columns that stop at different iterations end as if solved alone
            irls = solve_irls_lp_batch(model, y, IrlsConfig())
            for batch in (rs, irls):
                assert len({r.iterations for r in batch}) > 1
            for j, (r, ir) in enumerate(zip(rs, irls)):
                alone = solve_penalized_l1(model, y[:, j], cfg)
                assert alone.x_hat.tobytes() == r.x_hat.tobytes()
                assert alone.z_hat.tobytes() == r.z_hat.tobytes()
                assert (alone.iterations, alone.status) == (r.iterations, r.status)
                alone = solve_irls_lp(model, y[:, j], IrlsConfig())
                assert (alone.iterations, alone.status, alone.eps_trace) == (
                    ir.iterations, ir.status, ir.eps_trace)


class TestAdaptiveStep:
    """PDLP's adaptive step: the norm estimate only sets the first step."""

    @pytest.mark.parametrize("factor", [1.0, 10.0, 100.0])
    def test_overlong_first_step_still_recovers(self, factor):
        # a fixed step this long diverges; rejected steps shrink it instead
        model = build_family("mtx1", 64, 32, 3)
        theta = hstack(model.A, model.H)
        insts = [gen_instance(model, 2, 2, "gaussian", 0.0, 40 + t) for t in range(6)]
        y = np.ascontiguousarray(np.stack([inst.y for inst in insts], axis=1).real)
        weights = np.ones((theta.cols, 1))
        omega = np.linalg.norm(weights) / np.linalg.norm(y, axis=0)
        eta = np.full(len(insts), factor * 0.99 / power_iteration(theta).value)
        u, iters, ok = _pdhg_core(theta, y, eta, omega, weights, 0.0, 1e-9, 5000)
        assert ok.all()
        for j, inst in enumerate(insts):
            err = (np.linalg.norm(u[:model.n, j] - inst.x_true)
                   + np.linalg.norm(u[model.n:, j] - inst.z_true))
            assert err <= 1e-6
        if factor == 10.0:
            # each column accepts and rejects on its own, as it would alone
            assert len(set(iters)) > 1
            for j in range(len(insts)):
                alone, it_j, _ = _pdhg_core(theta, y[:, [j]], eta[[j]], omega[[j]],
                                            weights, 0.0, 1e-9, 5000)
                assert alone[:, 0].tobytes() == u[:, j].tobytes()
                assert it_j[0] == iters[j]

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_zero_column_inside_a_batch_stops_at_once(self, eps):
        # nothing moves, so Re<du, T* dp> = 0 bounds no step and the first
        # step is accepted with zero change
        model = build_family("mtx1", 64, 32, 3)
        y = np.stack([gen_instance(model, 2, 2, "gaussian", 0.01, 7).y,
                      np.zeros(model.m),
                      gen_instance(model, 1, 3, "gaussian", 0.01, 8).y], axis=1)
        rs = solve_penalized_l1_batch(model, y, PenalizedL1Config(lambda_reg=1.0, epsilon=eps))
        assert (rs[1].iterations, rs[1].status) == (1, "converged")
        assert not np.any(rs[1].x_hat) and not np.any(rs[1].z_hat)
        assert all(r.iterations > 1 and r.status == "converged" for r in (rs[0], rs[2]))


def assert_same_result(got, want):
    assert got.x_hat.tobytes() == want.x_hat.tobytes()
    assert got.z_hat.tobytes() == want.z_hat.tobytes()
    assert (got.iterations, got.status, got.residual, got.objective, got.eps_trace) == (
        want.iterations, want.status, want.residual, want.objective, want.eps_trace)


_FAMILIES = ("mtx1", "mtx2", "partial-circulant", "cs-ofdm", "drpe")
_COLUMN = st.tuples(st.integers(0, 3), st.integers(0, 2), st.booleans(), st.integers(0, 999))
_SOLVERS = {
    "pdhg": (solve_penalized_l1_batch, PenalizedL1Config(lambda_reg=1.0, max_iter=300)),
    "pdhg_eps": (solve_penalized_l1_batch,
                 PenalizedL1Config(lambda_reg=1.0, epsilon=0.1, max_iter=300)),
    "irls": (solve_irls_lp_batch, IrlsConfig(outer_max=12)),
}


class TestBatchFreezing:
    """A column frozen inside a batch ends exactly as it does solved alone.

    Each column appears in a shuffled batch and is solved alone at width
    1; results must agree bit for bit.  Columns with s = k = 0 and no
    noise finish on the first step.
    """

    @settings(max_examples=30, deadline=None)
    @given(solver=st.sampled_from(sorted(_SOLVERS)), family=st.sampled_from(_FAMILIES),
           model_seed=st.integers(0, 99), columns=st.lists(_COLUMN, min_size=1, max_size=3),
           shuffle=st.randoms(use_true_random=False))
    def test_column_ends_as_it_would_alone(self, solver, family, model_seed, columns,
                                           shuffle):
        solve, cfg = _SOLVERS[solver]
        model = build_family(family, 16, 8, model_seed)
        y = np.stack([gen_instance(model, s, k, "gaussian", 0.01 * noisy, seed).y
                      for s, k, noisy, seed in columns], axis=1)
        order = list(range(len(columns)))
        shuffle.shuffle(order)
        batch = solve(model, y[:, order], cfg)
        for got, j in zip(batch, order):
            assert_same_result(got, solve(model, y[:, [j]], cfg)[0])

    @pytest.mark.parametrize("solver", sorted(_SOLVERS))
    @pytest.mark.parametrize("family", _FAMILIES)
    def test_every_family_alone_equals_batch(self, solver, family):
        # a wide batch whose columns stop at different iterations, the zero
        # first column at once; numpy sums a lone column pairwise but the
        # columns of a wide array row by row, which the solvers must not see
        solve, cfg = _SOLVERS[solver]
        model = build_family(family, 32, 16, 3)
        y = np.stack([gen_instance(model, t % 4, t % 3, "gaussian", 0.01 * (t % 2),
                                   100 + t).y for t in range(12)], axis=1)
        batch = solve(model, y, cfg)
        assert len({r.iterations for r in batch}) > 1
        for j, got in enumerate(batch):
            assert_same_result(got, solve(model, y[:, [j]], cfg)[0])


class TestIrls:
    def test_zero_observation(self):
        model = build_partial_circulant(64, 32, seed=5)
        r = solve_irls_lp(model, np.zeros(32), IrlsConfig())
        assert np.all(r.x_hat == 0) and np.all(r.z_hat == 0)
        assert r.iterations == 1

    def test_zero_observation_inside_a_batch(self):
        model = build_partial_circulant(64, 32, seed=5)
        insts = [gen_instance(model, 2, 1, "gaussian", 0.0, seed=sd) for sd in (6, 7)]
        y = np.stack([insts[0].y, np.zeros(32), insts[1].y], axis=1)
        results = solve_irls_lp_batch(model, y, IrlsConfig())
        zero = results[1]
        assert np.all(zero.x_hat == 0) and np.all(zero.z_hat == 0)
        assert (zero.iterations, zero.status) == (1, "converged")
        for j in (0, 2):
            assert_same_result(results[j], solve_irls_lp(model, y[:, j], IrlsConfig()))

    def test_sparse_recovery_without_corruption(self):
        model = build_partial_circulant(64, 32, seed=5)
        inst = gen_instance(model, 1, 0, "gaussian", 0.0, seed=3)
        r = solve_irls_lp(model, inst.y, IrlsConfig(p=0.5, nu=1.0))
        err = np.linalg.norm(r.x_hat - inst.x_true) + np.linalg.norm(r.z_hat)
        assert err <= 1e-5

    def test_agreement_with_penalized_l1(self):
        model = build_partial_circulant(64, 32, seed=5)
        inst = gen_instance(model, 1, 0, "gaussian", 0.0, seed=3)
        r_lp = solve_irls_lp(model, inst.y, IrlsConfig(p=0.5, nu=1.0))
        r_l1 = solve_penalized_l1(model, inst.y,
                                  PenalizedL1Config(lambda_reg=1.0))
        gap = (np.linalg.norm(r_lp.x_hat - r_l1.x_hat)
               + np.linalg.norm(r_lp.z_hat - r_l1.z_hat))
        assert gap <= 1e-5

    @pytest.mark.parametrize("noise_amp", [0.0, 0.1])
    def test_final_iterate_is_feasible(self, noise_amp):
        # the closing weighted solve puts T u within cg_tol^2 of y, up to rounding
        model = build_family("mtx1", 128, 64, 4)
        y = np.stack([gen_instance(model, 3, 3, "gaussian", noise_amp, seed).y
                      for seed in range(4)], axis=1)
        cfg = IrlsConfig(outer_max=30, cg_tol=1e-9, cg_max=500)
        for j, r in enumerate(solve_irls_lp_batch(model, y, cfg)):
            assert r.residual <= cfg.cg_tol / 100 * np.linalg.norm(y[:, j])

    def test_first_iterate_is_min_norm_solution(self, rng):
        a = random_complex(rng, 4, 4)
        h = random_complex(rng, 4, 4)
        model = custom_model(a, h)
        y = random_complex(rng, 4)
        r = solve_irls_lp(model, y, IrlsConfig(outer_max=1, cg_tol=1e-13, cg_max=500))
        theta = np.concatenate([a, h], axis=1)
        expected = np.linalg.pinv(theta) @ y
        got = np.concatenate([r.x_hat, r.z_hat])
        assert np.linalg.norm(got - expected) <= 1e-8

    def test_eps_schedule_monotone_and_floored(self):
        model = build_partial_circulant(64, 32, seed=5)
        inst = gen_instance(model, 2, 1, "gaussian", 0.0, seed=6)
        cfg = IrlsConfig()
        r = solve_irls_lp(model, inst.y, cfg)
        trace = r.eps_trace
        assert all(a >= b for a, b in zip(trace, trace[1:]))
        assert all(t >= _EPS_FLOOR for t in trace)

    def test_deterministic_bitwise(self):
        model = build_partial_circulant(64, 32, seed=5)
        inst = gen_instance(model, 2, 1, "gaussian", 0.0, seed=6)
        a = solve_irls_lp(model, inst.y, IrlsConfig())
        b = solve_irls_lp(model, inst.y, IrlsConfig())
        assert np.array_equal(a.x_hat, b.x_hat)
        assert a.eps_trace == b.eps_trace

    @pytest.mark.parametrize("cg_tol", [0.5, 1e-3, 1e-9, 1e-10, 1e-13])
    def test_cg_target_is_cg_tol_at_the_floor_and_capped(self, cg_tol):
        # every eps the smoothing schedule takes, from _EPS_INIT to the floor
        eps = [_EPS_INIT]
        while eps[-1] > _EPS_FLOOR:
            eps.append(max(_EPS_FLOOR, _EPS_SHRINK * eps[-1]))
        target = _cg_target(cg_tol, np.array(eps))
        assert target[-1] == cg_tol
        assert np.all(target <= math.sqrt(cg_tol))
        assert np.all(np.diff(target) <= 0)

    def test_loose_cg_tol_does_not_stop_at_the_first_pass(self):
        # uncapped, cg_tol = 1e-3 would give the first pass a target of 10,
        # which the zero start meets: no CG step, a zero iterate and a stop
        model = build_partial_circulant(64, 32, seed=5)
        inst = gen_instance(model, 1, 0, "gaussian", 0.0, seed=3)
        r = solve_irls_lp(model, inst.y, IrlsConfig(cg_tol=1e-3))
        assert r.iterations > 1 and r.status == "converged"
        assert check_success(r, inst)

    @pytest.mark.parametrize("noise_amp", [0.0, 0.1])
    def test_agrees_with_a_tight_cg_reference(self, noise_amp):
        # each column agrees with the cg_tol = 1e-12 solve to within 10x the
        # CG target of its last pass: 1e-8 once eps is at its floor, as at
        # noise 0; at noise 0.1 eps stays at 1e-2, whose target is 1e-6
        model = build_family("mtx1", 128, 64, 4)
        y = np.stack([gen_instance(model, 3, 3, "gaussian", noise_amp, seed).y
                      for seed in range(4)], axis=1)
        cfg = IrlsConfig(outer_max=30, cg_tol=1e-9, cg_max=500)
        ref = solve_irls_lp_batch(model, y, IrlsConfig(outer_max=30, cg_tol=1e-12, cg_max=500))
        for got, want in zip(solve_irls_lp_batch(model, y, cfg), ref):
            u = np.concatenate([got.x_hat, got.z_hat])
            v = np.concatenate([want.x_hat, want.z_hat])
            bound = 10.0 * _cg_target(cfg.cg_tol, got.eps_trace[-1])
            assert np.linalg.norm(u - v) <= bound * np.linalg.norm(v)

    def test_config_validation(self):
        for bad in (dict(p=1.5), dict(outer_max=0),
                    dict(outer_max=-3), dict(cg_max=0), dict(cg_tol=0.0),
                    dict(cg_tol=-1e-10)):
            with pytest.raises(ArgumentError):
                IrlsConfig(**bad)


@pytest.mark.parametrize("cls, bad, message", [
    (PenalizedL1Config, dict(lambda_reg=0.0),
     "lambda_reg must be a finite number in (0, inf), got 0.0"),
    (PenalizedL1Config, dict(epsilon=-0.1),
     "epsilon must be a finite number in [0, inf), got -0.1"),
    (PenalizedL1Config, dict(tol=0.0), "tol must be a finite number in (0, inf), got 0.0"),
    (PenalizedL1Config, dict(max_iter=0), "max_iter must be positive integers, got 0"),
    (PenalizedL1Config, dict(max_iter=2.5), "max_iter must be positive integers, got 2.5"),
    (PenalizedL1Config, dict(max_iter=True), "max_iter must be positive integers, got True"),
    (IrlsConfig, dict(nu=0.0), "nu must be a finite number in (0, inf), got 0.0"),
    (IrlsConfig, dict(outer_max=2.5), "outer_max and cg_max must be positive integers, got 2.5"),
    (IrlsConfig, dict(cg_max=True), "outer_max and cg_max must be positive integers, got True"),
    (PenalizedL1Config, dict(lambda_reg="1"),
     "lambda_reg must be a finite number in (0, inf), got '1'"),
    (PenalizedL1Config, dict(epsilon=True),
     "epsilon must be a finite number in [0, inf), got True"),
    (IrlsConfig, dict(p="0.5"), "p must be a finite number in (0, 1), got '0.5'"),
    (IrlsConfig, dict(cg_tol=None), "cg_tol must be a finite number in (0, inf), got None"),
    (PenalizedL1Config, dict(lambda_reg=10 ** 400),
     "lambda_reg must be a finite number in (0, inf), got 1000"),
])
def test_config_refusals(cls, bad, message):
    base = {"lambda_reg": 1.0} if cls is PenalizedL1Config else {}
    with pytest.raises(ArgumentError, match=re.escape(message)):
        cls(**{**base, **bad})


# (class, field, refused endpoint or value, accepted values): each field's
# interval, as the configs have always taken it
@pytest.mark.parametrize("cls, name, refused, accepted", [
    (PenalizedL1Config, "lambda_reg", 0.0, (5e-324, 1, np.float32(2.0), 1e308)),
    (PenalizedL1Config, "epsilon", -5e-324, (0, 0.0, 1e308)),
    (PenalizedL1Config, "tol", 0.0, (5e-324, 1.0)),
    (IrlsConfig, "p", 0.0, (5e-324, 0.5, 1 - 2 ** -53)),
    (IrlsConfig, "p", 1.0, ()),
    (IrlsConfig, "nu", 0, (5e-324, 1e308)),
    (IrlsConfig, "cg_tol", 0.0, (5e-324, 0.5)),
])
def test_real_field_endpoints(cls, name, refused, accepted):
    base = {"lambda_reg": 1.0} if cls is PenalizedL1Config else {}
    for value in accepted:
        assert getattr(cls(**{**base, name: value}), name) == value
    with pytest.raises(ArgumentError, match=f"{name} must be a finite number in .*got {refused}"):
        cls(**{**base, name: refused})


class TestConfigFiniteness:
    @pytest.mark.parametrize("cls", [PenalizedL1Config, IrlsConfig])
    def test_every_float_field_rejects_nan_and_inf(self, cls):
        base = {"lambda_reg": 1.0} if cls is PenalizedL1Config else {}
        names = [f.name for f in fields(cls) if f.type is float]
        assert names
        for name in names:
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ArgumentError, match=name):
                    cls(**{**base, name: bad})


class TestNonFiniteIterate:
    """A solve whose iterate goes non-finite raises within _FINITE_EVERY
    steps, without a numpy warning, instead of running to max_iter or
    returning NaN estimates."""

    @pytest.mark.parametrize("solve, scale, cfg", [
        (solve_penalized_l1_batch, 1.0, PenalizedL1Config(lambda_reg=1e160)),
        (solve_irls_lp_batch, 1e150, IrlsConfig()),
        (solve_penalized_l1_batch, 1e200, PenalizedL1Config(lambda_reg=1.0)),
    ], ids=["pdhg-lambda-1e160", "irls-y-times-1e150", "pdhg-y-times-1e200"])
    def test_raises_numerical_error(self, solve, scale, cfg, monkeypatch):
        from demixcs import solvers

        def finished(*_):
            raise AssertionError("the solve ran to its end")

        # the stop comes from the loop, not from the final check
        monkeypatch.setattr(solvers, "_results", finished)
        model = build_modulated_hadamard(32, 16, seed=0)
        y = np.stack([gen_instance(model, 1, 1, "gaussian", 0.0, seed).y
                      for seed in (1, 2)], axis=1)
        with pytest.raises(NumericalError, match="2 of 2 columns reached a non-finite"):
            solve(model, scale * y, cfg)


def real_batch(model, count, seed, noise_amp=0.0):
    insts = [gen_instance(model, 2, 2, "gaussian", noise_amp,
                          seed=derive_seed(seed, (t,))) for t in range(count)]
    y = np.stack([inst.y for inst in insts], axis=1)
    assert not np.any(y.imag)
    return np.ascontiguousarray(y.real)


class TestRealPath:
    """Real models on real data iterate in float64, rounding as complex128 would."""

    @pytest.mark.parametrize("eps", [0.0, 0.2])
    @pytest.mark.parametrize("width", [1, 4])
    def test_pdhg_core_real_and_complex_data_iterate_alike(self, eps, width):
        model = build_modulated_hadamard(64, 32, seed=3)
        theta = hstack(model.A, model.H)
        y = real_batch(model, width, 17, noise_amp=0.01 if eps else 0.0)
        # distinct primal weights and starting steps per column, some of
        # the steps too long, so some steps are rejected
        omega = np.linspace(0.7, 1.9, width)
        eta = np.linspace(0.99, 9.0, width) / np.sqrt(3.0)
        weights = np.ones((theta.cols, 1))
        # the early caps compare intermediate iterates, the last the finish
        for cap in (1, 7, 60, 3000):
            u_r, it_r, ok_r = _pdhg_core(theta, y, eta, omega, weights, eps, 1e-9, cap)
            u_c, it_c, ok_c = _pdhg_core(theta, y.astype(np.complex128), eta, omega,
                                         weights, eps, 1e-9, cap)
            assert u_r.dtype == np.float64 and u_c.dtype == np.complex128
            assert u_r.tobytes() == u_c.real.tobytes()
            assert not np.any(u_c.imag)
            assert np.array_equal(it_r, it_c) and np.array_equal(ok_r, ok_c)
        assert ok_r.all()

    @pytest.mark.parametrize("width", [1, 3])
    def test_cg_batch_real_and_complex_data_iterate_alike(self, width):
        model = build_modulated_hadamard(64, 32, seed=4)
        theta = hstack(model.A, model.H)
        weights = np.linspace(0.5, 2.0, theta.cols)[:, None]

        def normal(q):
            return theta.apply(weights * theta.apply_adjoint(q))

        b = real_batch(model, width, 23)
        for cap in (3, 200):
            x_r, ok_r = _cg_batch(normal, b, np.zeros_like(b), 1e-12, cap)
            x_c, ok_c = _cg_batch(normal, b.astype(np.complex128),
                                  np.zeros(b.shape, dtype=np.complex128), 1e-12, cap)
            assert x_r.dtype == np.float64
            assert x_r.tobytes() == x_c.real.tobytes()
            assert np.array_equal(ok_r, ok_c)

    def test_results_stay_complex128(self):
        model = build_modulated_hadamard(64, 32, seed=5)
        y = real_batch(model, 2, 29)
        for r in (solve_penalized_l1_batch(model, y, PenalizedL1Config(lambda_reg=1.0))
                  + [solve_irls_lp(model, y[:, 0], IrlsConfig(outer_max=5))]):
            assert r.x_hat.dtype == np.complex128 and r.z_hat.dtype == np.complex128


class TestCheckSuccess:
    def _result(self, x, z):
        return type("R", (), {"x_hat": x, "z_hat": z})()

    def _instance(self, x, z, k):
        return type("I", (), {"x_true": x, "z_true": z, "k": k})()

    def test_exact_recovery(self):
        x = np.array([1.0, 0.0])
        z = np.array([0.0, 2.0])
        assert check_success(self._result(x, z), self._instance(x, z, 1))

    def test_two_permille_error_fails(self):
        x = np.array([1.0, 0.0])
        z = np.array([0.0, 2.0])
        r = self._result(x * (1 + 2e-3), z)
        assert not check_success(r, self._instance(x, z, 1))

    def test_no_corruption_drops_z_term(self):
        x = np.array([1.0, 0.0])
        z = np.zeros(2)
        r = self._result(x, np.zeros(2))
        assert check_success(r, self._instance(x, z, 0))
