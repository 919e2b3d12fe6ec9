"""Relaxation dynamics: integrators, schedules, equivariances, TBM map.

Reference values are produced inside the tests (bisection fixed points,
explicitly re-run schedules) rather than imported from the module under
test.
"""

import hashlib
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from plantbench import (
    Instance,
    LinearRamp,
    SolverConfig,
    ValidationError,
    build_couplings,
    catalogue_pattern_set,
    generate_orthogonal_patterns,
    initial_states,
    max_eigenvalue,
    random_initial,
    run_batch,
    trajectory,
)
from plantbench import dynamics


def zero_instance(n):
    """Instance with no couplings: pure single-site dynamics."""
    return Instance(
        coupling=np.zeros((n, n)), pattern_set=None, label=f"zero-{n}",
    )


@pytest.fixture(scope="module")
def inst_c():
    return build_couplings(catalogue_pattern_set("c"))


@pytest.fixture(scope="module")
def inst_n64():
    return build_couplings(generate_orthogonal_patterns(64, 48, seed=5, dw=0.001))


def n64_config(inst):
    # the sweep_k setting: alpha = lambda/2, dt capped by the spectral edges
    alpha = max_eigenvalue(inst) / 2.0
    dt = min(0.1, 0.5 / (alpha + float(np.sum(inst.pattern_set.weights))))
    return SolverConfig(kind="I", alpha=alpha, beta=1.0, dt=dt, max_steps=1000)


def start_block(n, rows, seed=0):
    return np.vstack([random_initial(n, seed=seed + r) for r in range(rows)])


# ---------------------------------------------------------------------------
# first-order integrator


def test_class1_two_spin_fixed_point():
    # symmetric ferromagnetic pair with J12 = 2: the attractor solves
    # x = 2 tanh(x); bisection gives the root independently
    j = np.array([[0.0, 2.0], [2.0, 0.0]])
    inst = Instance(coupling=j, pattern_set=None, label="pair")
    lo, hi = 1.0, 3.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if 2 * np.tanh(mid) - mid > 0:
            lo = mid
        else:
            hi = mid
    root = (lo + hi) / 2
    cfg = SolverConfig(kind="I", alpha=1.0, beta=1.0, dt=0.05,
                       max_steps=20000, steady_tol=1e-10)
    x0 = np.array([0.4, 0.3])
    out = run_batch(inst, cfg, x0[None])[0]
    assert out.converged
    traj = trajectory(inst, cfg, x0)
    np.testing.assert_allclose(traj[-1], [root, root], atol=1e-6)
    assert np.array_equal(out.final_spins, [1, 1])


def test_class1_decay_without_couplings():
    inst = zero_instance(3)
    cfg = SolverConfig(kind="I", alpha=1.0, beta=1.0, dt=0.1, max_steps=2000)
    x0 = np.array([0.5, -0.3, 0.2])
    out = run_batch(inst, cfg, x0[None])[0]
    assert out.converged
    traj = trajectory(inst, cfg, x0)
    assert np.abs(traj[-1]).max() < 1e-6


def test_class2_constant_schedules_match_class1(inst_c):
    x0 = random_initial(8, seed=4)
    cfg = SolverConfig(alpha=2.0, beta=1.0, dt=0.1, max_steps=500)
    a = run_batch(inst_c, replace(cfg, kind="I"), x0[None])[0]
    b = run_batch(inst_c, replace(cfg, kind="II"), x0[None])[0]
    assert a.final_energy == b.final_energy
    assert a.steps_used == b.steps_used
    assert np.array_equal(a.final_spins, b.final_spins)


def test_class2_ramp_follows_schedule(inst_c):
    # re-run the ramped integration by hand and compare states exactly
    ramp_a = LinearRamp(4.0, 1.0, 50)
    cfg = SolverConfig(kind="II", alpha=ramp_a, beta=1.0, dt=0.1,
                       max_steps=60, steady_tol=0.0)
    x0 = random_initial(8, seed=7)
    traj = trajectory(inst_c, cfg, x0)
    x = x0.copy()
    for step in range(60):
        a = ramp_a(step)
        x = x + 0.1 * (np.tanh(x) @ inst_c.coupling - a * x)
    np.testing.assert_array_equal(traj[-1], x)


def test_ratio_invariance_is_exact(inst_c):
    # (alpha, beta, dt) and (2 alpha, 2 beta, dt/2) generate the same
    # per-step map, so trajectories agree bitwise step for step
    x0 = random_initial(8, seed=11)
    base = SolverConfig(kind="I", alpha=3.0, beta=1.0, dt=0.1,
                        max_steps=400, steady_tol=0.0)
    doubled = SolverConfig(kind="I", alpha=6.0, beta=2.0, dt=0.05,
                           max_steps=400, steady_tol=0.0)
    np.testing.assert_array_equal(
        trajectory(inst_c, base, x0), trajectory(inst_c, doubled, x0)
    )


# ---------------------------------------------------------------------------
# second-order integrator


def test_class3_damped_oscillator_comes_to_rest():
    inst = zero_instance(1)
    cfg = SolverConfig(kind="III", alpha=1.0, beta=0.0, gamma=-0.5,
                       dt=0.05, max_steps=20000, steady_tol=1e-9)
    out = run_batch(inst, cfg, np.array([[0.8]]))[0]
    assert out.converged
    traj = trajectory(inst, cfg, np.array([0.8]))
    assert abs(traj[-1][0]) < 1e-6


def test_class3_undamped_oscillator_never_converges():
    inst = zero_instance(1)
    cfg = SolverConfig(kind="III", alpha=1.0, beta=0.0, gamma=0.0, dt=0.01,
                       max_steps=1000, steady_tol=1e-9,
                       derivative_window=float("inf"))
    out = run_batch(inst, cfg, np.array([[0.5]]))[0]
    assert not out.converged and not out.diverged
    assert out.steps_used == 1000


def test_window_clamps_position_and_zeroes_velocity():
    inst = zero_instance(1)
    cfg = SolverConfig(kind="III", alpha=-1.0, beta=0.0, gamma=0.0, dt=0.2,
                       max_steps=40, steady_tol=0.0, derivative_window=1.0)
    traj = trajectory(inst, cfg, np.array([0.5]))
    assert np.abs(traj).max() <= 1.0
    assert traj[-1][0] == 1.0


def test_class3_negative_window_rejected():
    with pytest.raises(ValidationError):
        SolverConfig(kind="III", derivative_window=0.0)
    # a window that is not a number used to escape as a TypeError
    for window in ("1", None, float("nan"), True):
        with pytest.raises(ValidationError, match="derivative window must be positive"):
            SolverConfig(kind="III", derivative_window=window)
    assert SolverConfig(kind="III", derivative_window=float("inf")).derivative_window == np.inf


# ---------------------------------------------------------------------------
# bifurcation machine


def test_tbm_equals_mapped_class3(inst_c):
    # the TBM path must be arithmetic-identical to class III with
    # alpha(t) = delta (delta - p(t)), beta = delta xi0, sign nonlinearity
    delta, xi0, steps = 4.2, 0.64, 600
    x0 = random_initial(8, amplitude=0.5, seed=3)
    tbm_cfg = SolverConfig(kind="TBM", dt=0.1, max_steps=steps, delta=delta, xi0=xi0)
    pump = LinearRamp(0.0, 2.0, steps)
    manual = SolverConfig(
        kind="III",
        alpha=lambda s: delta * (delta - pump(s)),
        beta=delta * xi0,
        gamma=0.0,
        nonlinearity="sign",
        dt=0.1,
        max_steps=steps,
        steady_tol=0.0,
    )
    np.testing.assert_array_equal(
        trajectory(inst_c, tbm_cfg, x0), trajectory(inst_c, manual, x0)
    )


def test_tbm_runs_the_full_pump_schedule(inst_c):
    # wall-pinned intermediate states must not freeze the machine early
    cfg = SolverConfig(kind="TBM", dt=0.1, max_steps=1000, delta=4.2, xi0=0.64)
    out = run_batch(inst_c, cfg, random_initial(8, seed=17)[None])[0]
    assert out.steps_used == 1000
    assert not out.converged


def test_tbm_uncoupled_bifurcation_keeps_sign():
    # below threshold the pump lifts each coordinate along its initial
    # sign once p(t) exceeds delta; with delta = 0.1 the sign survives
    inst = zero_instance(4)
    cfg = SolverConfig(kind="TBM", dt=0.1, max_steps=1000, delta=0.1, xi0=0.1)
    out = run_batch(inst, cfg, np.full((1, 4), 0.1))[0]
    assert np.array_equal(out.final_spins, np.ones(4, dtype=np.int8))


def test_tbm_zero_state_reports_plus_spins():
    inst = zero_instance(3)
    cfg = SolverConfig(kind="TBM", dt=0.1, max_steps=200, delta=1.0, xi0=0.1)
    out = run_batch(inst, cfg, np.zeros((1, 3)))[0]
    assert np.array_equal(out.final_spins, np.ones(3, dtype=np.int8))


def test_pump_ramp_saturates():
    # the bifurcation pump: 0.0 + y == y, so each step is exactly
    # min(2 * step / N, 2)
    for steps in (1, 3, 100, 997, 1000):
        pump = LinearRamp(0.0, 2.0, steps)
        for step in range(steps + 3):
            assert pump(step) == min(2.0 * step / steps, 2.0)
    assert LinearRamp(0.0, 2.0, 100)(10**6) == 2.0


def test_linear_ramp_endpoints_and_hold():
    ramp = LinearRamp(4.0, 1.0, 10)
    assert ramp(0) == 4.0
    assert ramp(10) == 1.0
    assert ramp(25) == 1.0


# ---------------------------------------------------------------------------
# symmetries and batching


@pytest.mark.parametrize("kind", ["I", "III"])
def test_mirror_equivariance(inst_c, kind):
    cfg = SolverConfig(kind=kind, alpha=2.0, beta=1.0, dt=0.1,
                       max_steps=300, steady_tol=0.0)
    x0 = random_initial(8, seed=23)
    pos = trajectory(inst_c, cfg, x0)
    neg = trajectory(inst_c, cfg, -x0)
    assert pos.shape == neg.shape
    assert np.abs(pos + neg).max() < 1e-12


def test_batch_rows_are_independent(inst_c, inst_n64):
    # A row inside a block and the same row run alone agree in spins,
    # steps, status and label; BLAS may round the block's matrix
    # product differently from a single row's, so energies agree to
    # 1e-12 relative rather than bit for bit.
    cases = [
        (inst_c, SolverConfig(kind="I", alpha=3.0, dt=0.1, max_steps=500), 6),
        (inst_c, SolverConfig(kind="TBM", dt=0.1, max_steps=300, delta=4.2, xi0=0.64), 6),
        (inst_n64, n64_config(inst_n64), 8),
    ]
    for inst, cfg, rows in cases:
        block = start_block(inst.n, rows)
        batch = run_batch(inst, cfg, block)
        for i in range(rows):
            single = run_batch(inst, cfg, block[i:i + 1])[0]
            assert batch[i].final_energy == pytest.approx(
                single.final_energy, rel=1e-12
            )
            assert batch[i].steps_used == single.steps_used
            assert batch[i].converged == single.converged
            assert batch[i].diverged == single.diverged
            assert batch[i].label == single.label
            assert np.array_equal(batch[i].final_spins, single.final_spins)


def test_batch_replay_is_bitwise_stable(inst_n64):
    cfg = n64_config(inst_n64)
    block = start_block(64, 50)
    first = dynamics._integrate_block(inst_n64, cfg, block, None)
    again = dynamics._integrate_block(inst_n64, cfg, block.copy(), None)
    for a, b in zip(first, again):
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# active rows against a plain masked loop


def masked_reference(j, x0, alpha, beta, gamma, phi, dt, max_steps, steady_tol,
                     window=None):
    """Whole-block forward Euler that freezes finished rows with a mask.

    window=None selects the first-order update.  Every step updates the
    full block; rows that converged or diverged keep their state.
    Returns (states, steps, status) with status 0 running, 1 converged,
    2 diverged.
    """
    def value(coeff, step):
        return coeff(step) if callable(coeff) else coeff

    x = np.array(x0, dtype=np.float64)
    v = np.zeros_like(x)
    steps = np.full(len(x), max_steps)
    status = np.zeros(len(x), dtype=int)
    for step in range(max_steps):
        running = status == 0
        if not running.any():
            break
        a, b, g = value(alpha, step), value(beta, step), value(gamma, step)
        h = phi(x) @ j
        if window is None:
            dx = dt * (b * h - a * x)
            x_new, move = x + dx, np.abs(dx)
        else:
            acc = g * v - a * x + b * h
            x_new = x + dt * v
            v_new = v + dt * acc
            over = np.abs(x_new) > window
            x_new = np.clip(x_new, -window, window)
            v_new = np.where(over, v_new * 0.0, v_new)
            move = np.maximum(np.abs(x_new - x), dt * np.abs(v_new))
            v = np.where(running[:, None], v_new, v)
        x = np.where(running[:, None], x_new, x)
        diverged = running & (
            ~np.isfinite(x).all(axis=1) | (np.abs(x) > 1e6).any(axis=1)
        )
        converged = running & ~diverged & (move.max(axis=1) < steady_tol * dt)
        status[diverged] = 2
        status[converged] = 1
        steps[diverged | converged] = step + 1
    return x, steps, status


def assert_matches_reference(inst, cfg, x0, reference):
    x, steps, status = dynamics._integrate_block(inst, cfg, x0, None)
    ref_x, ref_steps, ref_status = reference
    assert np.array_equal(status, ref_status)
    assert np.array_equal(steps, ref_steps)
    assert np.array_equal(x >= 0, ref_x >= 0)
    np.testing.assert_allclose(x, ref_x, rtol=1e-12, atol=1e-12)
    return status


def test_active_rows_match_masked_loop_first_order(inst_n64):
    cfg = n64_config(inst_n64)
    x0 = start_block(64, 200)
    ref = masked_reference(inst_n64.coupling, x0, cfg.alpha, cfg.beta, 0.0,
                           np.tanh, cfg.dt, cfg.max_steps, cfg.steady_tol)
    status = assert_matches_reference(inst_n64, cfg, x0, ref)
    # both outcomes occur, so rows really leave the live set early
    assert (status == 1).any() and (status == 0).any()


def test_active_rows_match_masked_loop_second_order(inst_c):
    cfg = SolverConfig(kind="III", alpha=2.0, beta=1.0, gamma=-0.8, dt=0.1,
                       max_steps=600, steady_tol=1e-6, derivative_window=1.0)
    x0 = start_block(8, 300)
    ref = masked_reference(inst_c.coupling, x0, 2.0, 1.0, -0.8, np.tanh,
                           0.1, 600, 1e-6, window=1.0)
    status = assert_matches_reference(inst_c, cfg, x0, ref)
    assert (status == 1).any()


def test_active_rows_match_masked_loop_tbm(inst_c):
    delta, xi0, steps = 4.2, 0.64, 400
    cfg = SolverConfig(kind="TBM", dt=0.1, max_steps=steps, delta=delta, xi0=xi0)
    pump = LinearRamp(0.0, 2.0, steps)
    x0 = start_block(8, 100)
    ref = masked_reference(inst_c.coupling, x0,
                           lambda s: delta * (delta - pump(s)), delta * xi0,
                           0.0, np.sign, 0.1, steps, 0.0, window=1.0)
    status = assert_matches_reference(inst_c, cfg, x0, ref)
    assert (status == 0).all()


def test_active_rows_retire_diverged_rows_mid_block(inst_c):
    # alpha < 0 for 20 steps lifts the scaled rows past the divergence
    # limit; the other rows stay finite and converge once alpha = 3
    def alpha(step):
        return -5.0 if step < 20 else 3.0

    cfg = SolverConfig(kind="II", alpha=alpha, beta=1.0, dt=0.1, max_steps=800)
    x0 = start_block(8, 40)
    x0[::3] *= 1e3
    ref = masked_reference(inst_c.coupling, x0, alpha, 1.0, 0.0, np.tanh,
                           0.1, 800, cfg.steady_tol)
    status = assert_matches_reference(inst_c, cfg, x0, ref)
    assert (status == 2).any() and (status == 1).any()


@pytest.mark.parametrize("window", [0.5, float("inf")])
def test_second_order_rows_retire_mid_block(inst_c, window):
    # damped second order: rows converge at many different steps, and
    # without a window the scaled rows escape while alpha < 0, so live
    # rows, their velocities included, are compacted again and again
    def alpha(step):
        return -5.0 if step < 30 else 3.0

    cfg = SolverConfig(kind="III", alpha=alpha, beta=1.0, gamma=-1.5, dt=0.1,
                       max_steps=800, steady_tol=1e-6, derivative_window=window)
    x0 = start_block(8, 40)
    x0[::5] *= 1e5
    ref = masked_reference(inst_c.coupling, x0, alpha, 1.0, -1.5, np.tanh,
                           0.1, 800, 1e-6, window=window)
    status = assert_matches_reference(inst_c, cfg, x0, ref)
    assert len(set(ref[1][status == 1].tolist())) >= 3
    if window == float("inf"):
        assert (status == 2).any()


@pytest.mark.parametrize("bad", [[4], [11], [4, 11]])
@pytest.mark.parametrize("kind", ["I", "III"])
def test_unbounded_rows_fall_back_to_the_row_test(inst_c, kind, bad):
    # a NaN entry (row 4) and a row beyond the limit (row 11) inside an
    # otherwise bounded block: the block maximum fails, and the row-wise
    # test must retire exactly those rows at the first step
    second = {"gamma": -1.0, "derivative_window": float("inf")} if kind == "III" else {}
    cfg = SolverConfig(kind=kind, alpha=3.0, beta=1.0, dt=0.1,
                       max_steps=600, steady_tol=1e-6, **second)
    x0 = start_block(8, 30)
    if 4 in bad:
        x0[4, 2] = np.nan
    if 11 in bad:
        x0[11] = 5e6
    ref = masked_reference(inst_c.coupling, x0, 3.0, 1.0, -1.0, np.tanh, 0.1,
                           600, 1e-6, window=None if kind == "I" else float("inf"))
    x, steps, status = dynamics._integrate_block(inst_c, cfg, x0, None)
    assert np.flatnonzero(status == 2).tolist() == bad
    assert steps[bad].tolist() == [1] * len(bad)
    assert np.array_equal(status, ref[2])
    assert np.array_equal(steps, ref[1])
    live = status != 2
    np.testing.assert_allclose(x[live], ref[0][live], rtol=1e-12, atol=1e-12)


def test_unit_beta_skips_the_multiply_bit_for_bit(inst_c):
    # beta = 1.0 leaves out dx *= beta; 1.0 * y == y exactly, so a
    # schedule that returns 1.0 and a step written out in full agree
    x0 = start_block(8, 50)
    const = SolverConfig(kind="I", alpha=3.0, beta=1.0)
    sched = SolverConfig(kind="II", alpha=3.0, beta=lambda step: 1.0)
    for a, b in zip(dynamics._integrate_block(inst_c, const, x0, None),
                    dynamics._integrate_block(inst_c, sched, x0, None)):
        assert a.tobytes() == b.tobytes()
    second = trajectory(inst_c, const, x0[0])[1]
    h = np.tanh(x0[:1]) @ inst_c.coupling
    expected = x0[:1] + 0.1 * (1.0 * h - 3.0 * x0[:1])
    assert second.tobytes() == expected[0].tobytes()


@pytest.mark.parametrize("kind", ["III", "TBM"])
def test_zero_gamma_skips_the_velocity_term_bit_for_bit(inst_c, kind):
    # gamma = 0 leaves out g * v; the masked loop writes the full step,
    # 0.0 * v included, and no row retires, so every coupling product
    # covers the whole block and the bits must agree
    steps, x0 = 300, start_block(8, 40)
    if kind == "III":
        cfg = SolverConfig(kind="III", alpha=2.0, beta=0.7, gamma=0.0, dt=0.1,
                           max_steps=steps, steady_tol=0.0, derivative_window=1.0)
        alpha, beta, phi = 2.0, 0.7, np.tanh
    else:
        delta, xi0, pump = 4.2, 0.64, LinearRamp(0.0, 2.0, steps)
        cfg = SolverConfig(kind="TBM", dt=0.1, max_steps=steps, delta=delta, xi0=xi0)
        alpha, beta, phi = (lambda s: delta * (delta - pump(s))), delta * xi0, np.sign
    ref_x, ref_steps, ref_status = masked_reference(
        inst_c.coupling, x0, alpha, beta, 0.0, phi, 0.1, steps, 0.0, window=1.0)
    x, steps_used, status = dynamics._integrate_block(inst_c, cfg, x0, None)
    assert x.tobytes() == ref_x.tobytes()
    assert np.array_equal(steps_used, ref_steps) and np.array_equal(status, ref_status)


def test_zero_gamma_matches_a_zero_gamma_schedule_bit_for_bit(inst_c):
    # a gamma schedule keeps the full step; with rows escaping from
    # scaled starts and retiring at many different steps, the constant
    # still agrees
    x0 = start_block(8, 60) * 10.0 ** (np.arange(60) % 6)[:, None]
    const = SolverConfig(kind="III", alpha=-2.0, beta=1.0, gamma=0.0, dt=0.1,
                         max_steps=800, steady_tol=1e-6,
                         derivative_window=float("inf"))
    sched = replace(const, gamma=lambda step: 0.0)
    got = dynamics._integrate_block(inst_c, const, x0, None)
    want = dynamics._integrate_block(inst_c, sched, x0, None)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    assert len(set(got[1].tolist())) >= 10


def putmask_clamp_reference(j, x0, alpha, beta, phi, dt, max_steps, steady_tol, window):
    """Undamped second-order loop with the np.clip + np.putmask window clamp.

    Like _second_order it steps only the rows still running, so every
    coupling product covers the same rows and the bits can be compared.
    Returns (states, steps, status) as _integrate_block does.
    """
    x, v = np.array(x0), np.zeros_like(x0)
    final, live = x.copy(), np.arange(len(x))
    steps = np.full(len(x), max_steps)
    status = np.zeros(len(x), dtype=np.int8)
    for step in range(max_steps):
        if not len(live):
            break
        a = alpha(step) if callable(alpha) else alpha
        acc = (phi(x) @ j) * beta - x * a
        x_new = x + v * dt
        v = v + acc * dt
        over = np.abs(x_new) > window
        x_new = np.clip(x_new, -window, window)
        np.putmask(v, over, 0.0)
        done = (np.maximum(np.abs(x_new - x), np.abs(v) * dt) < steady_tol * dt).all(axis=1)
        x = x_new
        final[live[done]], steps[live[done]], status[live[done]] = x[done], step + 1, 1
        x, v, live = x[~done], v[~done], live[~done]
    final[live] = x
    return final, steps, status


@pytest.mark.parametrize("cfg", [
    SolverConfig(kind="TBM", delta=3.8, xi0=0.56),
    SolverConfig(kind="TBM", delta=4.4, xi0=0.64),
    SolverConfig(kind="TBM", delta=5.0, xi0=0.72),
    # rows pinned at the walls retire at many different steps
    SolverConfig(kind="III", alpha=2.0, beta=0.3, gamma=0.0, derivative_window=0.5,
                 max_steps=600, steady_tol=0.1),
    SolverConfig(kind="III", alpha=0.5, beta=0.3, gamma=0.0, derivative_window=1.0,
                 max_steps=600, steady_tol=0.1),
], ids=["tbm-3.8-0.56", "tbm-4.4-0.64", "tbm-5.0-0.72", "III-w0.5", "III-w1"])
def test_bounded_second_order_blocks_keep_their_bits(inst_c, cfg):
    # where every value is finite, v *= (clamped == x_new) zeroes the same
    # velocities as the putmask clamp, up to the sign of a zero velocity at
    # a coordinate pinned to +-window, which no state bit reads
    x0 = initial_states(8, 0.5, range(500))
    alpha, beta, _, nonlinearity, steady_tol = dynamics._second_order_coefficients(cfg)
    window = cfg.derivative_window
    _, alphas = dynamics._per_step(alpha, cfg.max_steps)
    assert dynamics._second_order_bounded(inst_c.coupling, x0, cfg.dt, cfg.max_steps,
                                          window, alphas, np.array([beta]))
    ref_x, ref_steps, ref_status = putmask_clamp_reference(
        inst_c.coupling, x0, alpha, beta, dynamics._NONLINEARITIES[nonlinearity], cfg.dt,
        cfg.max_steps, steady_tol, window)
    x, steps, status = dynamics._integrate_block(inst_c, cfg, x0)
    assert x.tobytes() == ref_x.tobytes()
    assert np.array_equal(steps, ref_steps) and np.array_equal(status, ref_status)
    assert (np.abs(x) == window).any()
    if cfg.kind == "III":
        assert len(set(steps[status == dynamics.CONVERGED].tolist())) >= 10


def test_an_overflowing_velocity_is_not_hidden_by_the_wall(inst_c):
    # beta = 1e308 overflows the acceleration, so the velocity turns inf;
    # a coordinate crossing the window with it keeps inf * 0 = NaN, and its
    # row diverges at the next step instead of resting at the wall
    cfg = SolverConfig(kind="III", alpha=1.0, beta=1e308, gamma=0.0)
    _, _, status = dynamics._integrate_block(inst_c, cfg, initial_states(8, 0.5, range(50)))
    assert (status == dynamics.DIVERGED).all()


def _check_against_masked_loop(inst, cfg, x0):
    """Integrate x0 and the masked loop; compare status, steps and spins."""
    with np.errstate(all="ignore"):
        ref_x, ref_steps, ref_status = masked_reference(
            inst.coupling, x0, cfg.alpha, cfg.beta, cfg.gamma,
            dynamics._NONLINEARITIES[cfg.nonlinearity], cfg.dt, cfg.max_steps,
            cfg.steady_tol, window=None if cfg.kind == "I" else cfg.derivative_window)
    x, steps, status = dynamics._integrate_block(inst, cfg, x0, None)
    assert np.array_equal(status, ref_status)
    assert np.array_equal(steps, ref_steps)
    live = status != 2
    assert np.array_equal(x[live] >= 0, ref_x[live] >= 0)
    return ref_x, ref_status


def _proven_bounded(inst, cfg, x0):
    alphas, betas = np.array([cfg.alpha]), np.array([cfg.beta])
    if cfg.kind == "I":
        return dynamics._first_order_bounded(inst.coupling, x0, cfg.dt, alphas, betas)
    return dynamics._second_order_bounded(inst.coupling, x0, cfg.dt, cfg.max_steps,
                                          cfg.derivative_window, alphas, betas)


def _scaled_block(x_max):
    x0 = start_block(8, 12)
    return x0 * (x_max / np.abs(x0).max())


@pytest.mark.parametrize("kind, alpha_dt, beta, x_max, window, dt, bounded", [
    ("I", 1e-6, 1e-3, 0.5, 1.0, 0.1, True),        # alpha dt just above 0
    ("I", 1e-12, 1e-3, 0.5, 1.0, 0.1, False),      # contraction below the 1e-9 floor
    ("I", 2 - 1e-6, 1e-3, 0.5, 1.0, 0.1, True),    # alpha dt just below 2
    ("I", 2.0, 1e-3, 0.5, 1.0, 0.1, False),
    ("I", -0.1, 1.0, 0.5, 1.0, 0.1, False),
    ("I", 1.0, 1.0, 4.9e5, 1.0, 0.1, True),        # x0 just inside half the limit
    ("I", 1.0, 1.0, 5.1e5, 1.0, 0.1, False),
    ("I", 1.0, 1.0, np.nan, 1.0, 0.1, False),
    ("I", 1.0, 1e308, 0.5, 1.0, 0.1, False),       # beta * (phi @ j) overflows
    ("I", 1.0, 1.0, 4e5, 1.0, 1e-308, False),      # alpha * x overflows
    ("III", 1.0, 1.0, 0.5, 1e6, 0.1, True),        # window at the limit
    ("III", 1.0, 1.0, 4.9e5, 1e6, 0.1, True),
    ("III", 1.0, 1.0, 0.5, 1.1e6, 0.1, False),
    ("III", 1.0, 1.0, np.nan, 1.0, 0.1, False),    # clamping keeps NaN
    ("III", 1.0, 1.0, np.inf, 1.0, 0.1, False),
    ("III", 1.0, 1e308, 0.5, 1e6, 0.1, False),     # overflows, every row diverges
])
def test_bounded_block_edges(inst_c, kind, alpha_dt, beta, x_max, window, dt, bounded):
    cfg = SolverConfig(kind=kind, alpha=alpha_dt / dt, beta=beta, gamma=0.0, dt=dt,
                       max_steps=200, steady_tol=1e-6, derivative_window=window)
    x0 = _scaled_block(x_max)
    assert _proven_bounded(inst_c, cfg, x0) is bounded
    ref_x, ref_status = _check_against_masked_loop(inst_c, cfg, x0)
    if bounded:
        assert (ref_status != 2).all()
        assert np.abs(ref_x).max() <= (5e5 if kind == "I" else window)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["I", "III"]),
    alpha_dt=st.floats(-0.5, 2.5) | st.sampled_from([1e-12, 2e-9, 1e-6, 2 - 1e-6]),
    dt=st.sampled_from([0.01, 0.1, 0.5]),
    beta=st.floats(-1e3, 1e3) | st.sampled_from([1e-6, 1e308]),
    x_max=st.sampled_from([0.5, 1e3, 4.9e5, 5.1e5, 2e6]),
    window=st.sampled_from([0.5, 1.0, 1e6, 1e300, float("inf")]),
    steady_tol=st.sampled_from([0.0, 1e-6]),
    nonlinearity=st.sampled_from(sorted(dynamics._NONLINEARITIES)),
)
def test_proven_bounded_blocks_match_the_masked_loop(inst_c, kind, alpha_dt, dt, beta,
                                                      x_max, window, steady_tol,
                                                      nonlinearity):
    # whether the block skips the divergence scan or not, its rows end
    # as the masked loop's do, and a block proven bounded never diverges
    second = {"derivative_window": window} if kind == "III" else {}
    cfg = SolverConfig(kind=kind, alpha=alpha_dt / dt, beta=beta, gamma=0.0, dt=dt,
                       max_steps=120, steady_tol=steady_tol, nonlinearity=nonlinearity,
                       **second)
    x0 = _scaled_block(x_max)
    _, ref_status = _check_against_masked_loop(inst_c, cfg, x0)
    if _proven_bounded(inst_c, cfg, x0):
        assert (ref_status != 2).all()


@pytest.mark.parametrize("name, plain", [
    ("identity-clip", lambda x: np.clip(x, -1.0, 1.0)),
    ("sign", np.sign),
])
def test_nonlinearities_write_through_out(inst_c, name, plain):
    x = start_block(8, 20, seed=3) * 3.0
    buf = np.empty_like(x)
    phi = dynamics._NONLINEARITIES[name]
    assert phi(x, out=buf) is buf
    assert buf.tobytes() == plain(x).tobytes()
    cfg = SolverConfig(kind="I", alpha=2.0, nonlinearity=name, dt=0.1,
                       max_steps=400)
    ref = masked_reference(inst_c.coupling, x, 2.0, 1.0, 0.0, plain, 0.1, 400,
                           cfg.steady_tol)
    assert_matches_reference(inst_c, cfg, x, ref)


def test_batch_shape_validation(inst_c):
    cfg = SolverConfig()
    with pytest.raises(ValidationError):
        run_batch(inst_c, cfg, np.zeros((4, 5)))
    with pytest.raises(ValidationError):
        trajectory(inst_c, cfg, np.zeros(5))


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(min_value=0, max_value=40),
    n=st.integers(min_value=0, max_value=70) | st.sampled_from([1, 3, 7, 8, 9, 63, 64, 65]),
    data=st.data(),
)
def test_all_rows_is_all_along_each_row(rows, n, data):
    # the steady and divergence tests: every entry of move below the
    # threshold, NaN entries included (NaN < t is False)
    values = st.sampled_from([0.0, 1e-10, 1e-9, 2e-9, 1.0, float("nan"), float("inf")])
    move = data.draw(hnp.arrays(np.float64, (rows, n), elements=values))
    move[data.draw(hnp.arrays(bool, rows))] = 0.0  # rows of all True occur
    entries, out = np.empty((rows, n), dtype=bool), np.empty(rows, dtype=bool)
    assert dynamics._all_rows(np.less(move, 1e-9, out=entries), out) is out
    assert np.array_equal(out, (move < 1e-9).all(axis=1))
    flags = data.draw(hnp.arrays(bool, (rows, n)))
    assert np.array_equal(dynamics._all_rows(flags, out), flags.all(axis=1))


def test_batch_rows_are_outcome_views(inst_c):
    seeds = [3, 2**63 + 5, 7]
    cfg = SolverConfig(kind="I", alpha=3.0, dt=0.1, max_steps=130)
    x0 = initial_states(8, cfg.init_amplitude, seeds)
    x0[1, 0] = 1e7  # beyond the divergence limit: diverged at its first step
    batch = run_batch(inst_c, cfg, x0)
    assert len(batch) == 3 and batch.spins.shape == (3, 8) and batch.spins.dtype == np.int8
    assert batch.status.tolist()[1] == dynamics.DIVERGED
    for i, row in enumerate(batch):
        assert np.shares_memory(row.final_spins, batch.spins)
        assert np.array_equal(row.final_spins, batch.spins[i])
        assert type(row.final_energy) is float and row.final_energy == batch.energies[i]
        assert type(row.steps_used) is int and row.steps_used == batch.steps[i]
        assert row.converged is (int(batch.status[i]) == dynamics.CONVERGED)
        assert row.diverged is (i == 1)
        assert row.label is batch.labels[i]
    assert batch[-1].label is batch.labels[2]
    with pytest.raises(IndexError):
        batch[3]
    with pytest.raises(TypeError):
        batch[0:2]


def test_converged_runs_are_stable_under_longer_budget(inst_c):
    x0 = random_initial(8, seed=31)
    short = SolverConfig(kind="I", alpha=3.0, dt=0.1, max_steps=1000)
    out = run_batch(inst_c, short, x0[None])[0]
    assert out.converged
    longer = run_batch(inst_c, SolverConfig(kind="I", alpha=3.0, dt=0.1,
                                            max_steps=out.steps_used + 100), x0[None])[0]
    assert longer.steps_used == out.steps_used
    assert np.array_equal(longer.final_spins, out.final_spins)


def test_divergence_flags_the_row(inst_c):
    # negative alpha feeds back positively: exponential escape
    cfg = SolverConfig(kind="I", alpha=-5.0, beta=0.0, dt=0.5, max_steps=2000)
    out = run_batch(inst_c, cfg, np.full((1, 8), 0.5))[0]
    assert out.diverged and not out.converged
    assert out.label.category == "diverged"


def test_non_finite_state_counts_as_diverged(inst_c):
    # NaN > limit is False and sign(NaN) would read as -1: a NaN row
    # must still stop as diverged at the step that produced it
    def alpha(step):
        return float("nan") if step == 3 else 3.0

    cfg = SolverConfig(kind="II", alpha=alpha, beta=1.0, dt=0.1, max_steps=500)
    out = run_batch(inst_c, cfg, start_block(8, 3))
    for row in out:
        assert row.diverged and not row.converged
        assert row.label.category == "diverged"
        assert row.steps_used == 4

def test_outcomes_carry_labels_on_planted_instances(inst_c):
    cfg = SolverConfig(kind="I", alpha=3.0, dt=0.1, max_steps=1000)
    out = run_batch(inst_c, cfg, random_initial(8, seed=2)[None])[0]
    assert out.label is not None
    assert out.label.category in ("planted", "mirror", "mixed", "spurious")


def test_trajectory_is_consistent_with_run(inst_c):
    # each way a step loop records and ends, with the status it ends in:
    # first order constant and scheduled (converged) and diverging, kind
    # III damped (at max_steps) and steady with steady_tol > 0
    # (converged), and a tbm-catalogue point, a proven-bounded block with
    # no steady measure whose retire returns at once
    cases = [
        (SolverConfig(kind="I", alpha=3.0, dt=0.1, max_steps=1000), dynamics.CONVERGED),
        (SolverConfig(kind="II", alpha=LinearRamp(0.5, 4.0, 300), dt=0.1, max_steps=500),
         dynamics.CONVERGED),
        (SolverConfig(kind="III", alpha=2.0, gamma=-0.3, dt=0.1, max_steps=800),
         dynamics.RUNNING),
        (SolverConfig(kind="III", alpha=2.0, steady_tol=0.1, dt=0.1, max_steps=800),
         dynamics.CONVERGED),
        (SolverConfig(kind="TBM", delta=4.6, xi0=0.64, dt=0.1, max_steps=1000),
         dynamics.RUNNING),
        (SolverConfig(kind="I", alpha=-5.0, beta=0.0, dt=0.5, max_steps=2000),
         dynamics.DIVERGED),
    ]
    x0 = random_initial(8, seed=2)
    for cfg, code in cases:
        out = run_batch(inst_c, cfg, x0[None])[0]
        x, steps, status = dynamics._integrate_block(inst_c, cfg, x0[None])
        assert status[0] == code, cfg
        traj = trajectory(inst_c, cfg, x0)
        assert traj.shape == (steps[0] + 1, 8) == (out.steps_used + 1, 8), cfg
        assert traj[0].tobytes() == x0.tobytes(), cfg
        assert traj[-1].tobytes() == x[0].tobytes(), cfg
        final_spins = np.where(traj[-1] >= 0, 1, -1)
        assert np.array_equal(final_spins, out.final_spins), cfg


# ---------------------------------------------------------------------------
# configuration validation


def test_random_initial_bounds_and_determinism():
    a = random_initial(100, amplitude=0.3, seed=9)
    b = random_initial(100, amplitude=0.3, seed=9)
    np.testing.assert_array_equal(a, b)
    assert np.abs(a).max() <= 0.3
    with pytest.raises(ValidationError):
        random_initial(4, amplitude=0.0)


# each escaped as numpy's ValueError or TypeError, and a bool seed ran
@pytest.mark.parametrize("call, message", [
    (lambda: random_initial(4, 0.5, -1), "seeds must be >= 0 and < 2\\^64"),
    (lambda: random_initial(4, 0.5, 2**64), "seeds must be >= 0 and < 2\\^64"),
    (lambda: random_initial(-1, 0.5, 1), "n must be an integer >= 0, got -1"),
    (lambda: random_initial(4, 0.5, 1.5), "seeds must be a 1-D array of integers"),
    (lambda: random_initial(4, 0.5, True), "seeds must be a 1-D array of integers"),
    (lambda: random_initial(2.5, 0.5, 1), "n must be an integer >= 0, got 2.5"),
    (lambda: initial_states(2.5, 0.5, [1]), "n must be an integer >= 0, got 2.5"),
    (lambda: initial_states(-1, 0.5, [1]), "n must be an integer >= 0, got -1"),
], ids=["negative-seed", "seed-2^64", "negative-n", "float-seed", "bool-seed", "float-n",
        "initial-states-float-n", "initial-states-negative-n"])
def test_initial_state_n_and_seed_rules(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


# seeds where SeedSequence's entropy changes word count or saturates
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]


@settings(max_examples=80, deadline=None)
@given(
    seeds=st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=30),
    n=st.integers(min_value=1, max_value=70),
    amplitude=st.sampled_from([0.5, 0.3, 1.0, 1e-3, 2.5, 1e6]),
)
def test_initial_states_are_default_rng_streams(seeds, n, amplitude):
    # pins the restated SeedSequence + PCG64 path to numpy's own stream:
    # if numpy ever changes it, this fails instead of moving output bytes
    seeds = EDGE_SEEDS + seeds
    want = np.vstack(
        [np.random.default_rng(s).uniform(-amplitude, amplitude, n) for s in seeds]
    )
    got = initial_states(n, amplitude, np.array(seeds, dtype=np.int64))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    empty = initial_states(n, amplitude, np.array([], dtype=np.int64))
    assert empty.shape == (0, n)


def test_initial_states_rows_are_random_initial():
    seeds = np.random.default_rng(4).integers(0, 2**63, size=2000, dtype=np.int64)
    for n in (8, 64):
        want = np.vstack([random_initial(n, 0.5, int(s)) for s in seeds])
        assert initial_states(n, 0.5, seeds).tobytes() == want.tobytes()


@pytest.mark.parametrize("amplitude", [np.nan, np.inf, -np.inf, 0.0, -0.5, 1e308, "x", None,
                                       True])
def test_initial_amplitude_must_be_positive_and_finite(amplitude):
    # nan and inf used to escape as numpy's OverflowError
    with pytest.raises(ValidationError, match="amplitude"):
        random_initial(4, amplitude, seed=1)
    with pytest.raises(ValidationError, match="amplitude"):
        initial_states(4, amplitude, np.array([1, 2]))
    # a SolverConfig used to take -0.5 and fail only at a sweep's first point
    with pytest.raises(ValidationError, match="amplitude must be positive and finite"):
        SolverConfig(init_amplitude=amplitude)


@pytest.mark.parametrize("seeds", [[3, -1], [[1, 2]], [0.5, 1.0]])
def test_initial_states_rejects_bad_seeds(seeds):
    with pytest.raises(ValidationError, match="seeds"):
        initial_states(4, 0.5, np.array(seeds))


# initial_states used to refuse the list [2**63 + 5, 7]; run_batch, which
# once echoed seeds under the same rule, no longer takes them, and the
# one-value use parameter keeps the case ids
@pytest.mark.parametrize("seeds, error", [
    ([2**63 + 5, 7], None),
    (np.array([2**63 + 5, 7], dtype=np.uint64), None),
    ((2**64 - 1, 0), None),
    (np.array([3, 1], dtype=np.int64), None),
    ([1.7, 2], "must be a 1-D array of integers"),
    ([True, 2], "must be a 1-D array of integers"),
    (np.array([0.0, 1.0]), "must be a 1-D array of integers"),
    ([[1, 2]], "must be a 1-D array of integers"),
    ([-3, 2], "must be >= 0 and < 2\\^64"),
    (np.array([-3, 2]), "must be >= 0 and < 2\\^64"),
    ([2**64, 2], "must be >= 0 and < 2\\^64"),
], ids=["python-int", "uint64", "tuple-edge", "int64", "float", "bool", "float-array",
        "2-d", "negative", "negative-array", "2^64"])
@pytest.mark.parametrize("use", ["initial_states"])
def test_one_seed_rule_for_initial_states_and_run_batch(use, seeds, error):
    if error is not None:
        with pytest.raises(ValidationError, match=f"seeds {error}"):
            initial_states(8, 0.5, seeds)
        return
    want = np.vstack([random_initial(8, 0.5, int(s)) for s in seeds])
    assert initial_states(8, 0.5, seeds).tobytes() == want.tobytes()


def test_unknown_nonlinearity_rejected():
    with pytest.raises(ValidationError):
        SolverConfig(nonlinearity="relu")
    # a list used to escape as TypeError: unhashable
    with pytest.raises(ValidationError, match="unknown nonlinearity"):
        SolverConfig(nonlinearity=["tanh"])


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError):
        SolverConfig(kind="IV")


@pytest.mark.parametrize("dt", [0.0, -0.1, float("nan"), float("inf"), "0.1", True])
def test_dt_must_be_positive_and_finite(dt):
    # a negative or NaN dt used to report every row as diverged
    with pytest.raises(ValidationError, match="dt must be positive and finite"):
        SolverConfig(dt=dt)


@pytest.mark.parametrize("max_steps", [0, -1, 10.0, True])
def test_max_steps_must_be_a_positive_integer(max_steps):
    # max_steps = 0 used to report zero-step rows labelled from x0
    with pytest.raises(ValidationError, match="max_steps must be an integer >= 1"):
        SolverConfig(max_steps=max_steps)


@pytest.mark.parametrize("steady_tol", [-1e-9, float("nan"), True])
def test_steady_tol_must_be_non_negative(steady_tol):
    with pytest.raises(ValidationError, match="steady_tol must be >= 0"):
        SolverConfig(steady_tol=steady_tol)
    assert SolverConfig(steady_tol=0.0).steady_tol == 0.0


# each of these used to be accepted and diverged every row at step 1 or 2
@pytest.mark.parametrize("kind", ["I", "II", "III"])
@pytest.mark.parametrize("field", ["alpha", "beta", "gamma"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), "1.0", False])
def test_constant_coefficients_must_be_finite(kind, field, value):
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        SolverConfig(kind=kind, **{field: value})


def test_coefficient_schedules_are_not_checked_and_tbm_takes_no_coefficient():
    # a schedule is not evaluated when the config is made (its NaN step
    # diverges the rows, see test_non_finite_state_counts_as_diverged);
    # TBM derives its coefficients from delta and xi0, and a NaN alpha it
    # would ignore used to be accepted
    SolverConfig(kind="II", alpha=lambda step: float("nan"))
    with pytest.raises(ValidationError, match="alpha must be finite"):
        SolverConfig(kind="TBM", alpha=float("nan"))
    with pytest.raises(ValidationError, match="alpha does not apply to solver kind TBM"):
        SolverConfig(kind="TBM", alpha=2.0)


# a value for each field away from its default; each used to be accepted
# and ignored by a kind that does not read it
_SET = {"alpha": 2.0, "beta": 0.5, "gamma": -0.5, "nonlinearity": "sign",
        "derivative_window": 2.0, "dt": 0.05, "max_steps": 7, "steady_tol": 1e-3,
        "init_amplitude": 0.25, "delta": 2.0, "xi0": 0.5}


@pytest.mark.parametrize("kind", sorted(dynamics._READS))
@pytest.mark.parametrize("field", [f.name for f in fields(SolverConfig)
                                   if f.name != "kind"])
def test_each_kind_takes_exactly_the_fields_it_reads(kind, field):
    set_fields = [{field: _SET[field]}]
    if field in ("alpha", "beta", "gamma"):
        set_fields.append({field: LinearRamp(0.0, 1.0, 10)})
    for given in set_fields:
        if field in dynamics._READS[kind]:
            assert getattr(SolverConfig(kind=kind, **given), field) == given[field]
        else:
            with pytest.raises(ValidationError,
                               match=f"^{field} does not apply to solver kind {kind}$"):
                SolverConfig(kind=kind, **given)
    # the default value is no setting, so it passes whatever the kind
    default = SolverConfig(kind=kind)
    assert SolverConfig(kind=kind, **{field: getattr(default, field)}) == default


# each constant used to be stored as given, so equal configs could differ
# in repr (delta=2 against delta=2.0), and so in the sweep hash
@pytest.mark.parametrize("kind", sorted(dynamics._READS))
def test_constants_are_stored_as_python_numbers(kind):
    given = {"alpha": np.float32(2.5), "beta": 3, "gamma": np.int64(-1),
             "derivative_window": np.float64(2.0), "dt": np.float16(0.125),
             "max_steps": np.int64(7), "steady_tol": 0, "init_amplitude": 1,
             "delta": 2, "xi0": np.float64(0.5)}
    given = {name: value for name, value in given.items() if name in dynamics._READS[kind]}
    cfg = SolverConfig(kind=kind, **given)
    plain = SolverConfig(kind=kind, **{name: int(value) if name == "max_steps" else float(value)
                                       for name, value in given.items()})
    assert cfg == plain and repr(cfg) == repr(plain)
    for f in fields(cfg):
        if f.name not in ("kind", "nonlinearity"):
            want = int if f.name == "max_steps" else float
            assert type(getattr(cfg, f.name)) is want, f.name
    ramp = LinearRamp(0.0, 1.0, 10)
    if "alpha" in dynamics._READS[kind]:
        assert SolverConfig(kind=kind, alpha=ramp).alpha is ramp


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tbm_coefficient_overflow_diverges_every_row(inst_c):
    # beta = delta * xi0 = inf is derived, not given: it runs and diverges
    cfg = SolverConfig(kind="TBM", dt=0.1, max_steps=50, delta=1e308, xi0=1e308)
    out = run_batch(inst_c, cfg, start_block(8, 4))
    assert all(row.diverged for row in out)


@pytest.mark.parametrize("field", ["delta", "xi0"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), None, True])
def test_tbm_params_must_be_finite(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        SolverConfig(kind="TBM", **{field: value})
    assert getattr(SolverConfig(kind="TBM", **{field: 1e308}), field) == 1e308


def test_sign_and_clip_nonlinearities_run(inst_c):
    for name in ("sign", "identity-clip"):
        cfg = SolverConfig(kind="I", alpha=2.0, nonlinearity=name,
                           dt=0.1, max_steps=400)
        out = run_batch(inst_c, cfg, random_initial(8, seed=1)[None])[0]
        assert np.isin(out.final_spins, (-1, 1)).all()


# ---------------------------------------------------------------------------
# float32 blocks


def test_bounded_float32_block_steps_in_float32(inst_n64):
    # the K sweep's steady rule; 1e-9 * dt is below float32's resolution
    cfg = replace(n64_config(inst_n64), steady_tol=1e-4)
    x0 = start_block(64, 20).astype(np.float32)
    x, steps, status = dynamics._integrate_block(inst_n64, cfg, x0)
    assert x.dtype == np.float32 and (status != dynamics.DIVERGED).all()
    wide = dynamics._integrate_block(inst_n64, cfg, x0.astype(np.float64))[0]
    assert np.array_equal(x >= 0, wide >= 0)
    batch = run_batch(inst_n64, cfg, x0)
    assert batch.energies.dtype == np.float64
    np.testing.assert_array_equal(batch.steps, steps)


def _float64_fallback(inst, cfg, x0):
    """A float32 block that must run the float64 path: float64 states, same bits."""
    with np.errstate(over="raise", invalid="raise"):  # no float32 cast overflows
        narrow = x0.astype(np.float32)
    got = dynamics._integrate_block(inst, cfg, narrow)
    want = dynamics._integrate_block(inst, cfg, narrow.astype(np.float64))
    assert got[0].dtype == np.float64
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("cfg", [
    SolverConfig(kind="TBM", max_steps=300),
    SolverConfig(kind="III", gamma=-0.3, derivative_window=0.5, steady_tol=0.1),
    SolverConfig(kind="III", gamma=0.0, max_steps=200),
], ids=["tbm", "damped", "undamped"])
def test_second_order_float32_blocks_step_in_float64(inst_c, cfg):
    _float64_fallback(inst_c, cfg, start_block(8, 10))


@pytest.mark.parametrize("alpha_dt", [1e-4, 2.0, -0.1])
def test_first_order_float32_blocks_not_proven_bounded_step_in_float64(inst_c, alpha_dt):
    # a contraction of 1e-4 is proof enough in float64 (1e-9), not in float32 (1e-3)
    cfg = SolverConfig(kind="I", alpha=alpha_dt / 0.1, dt=0.1, max_steps=300)
    assert dynamics._first_order_bounded(inst_c.coupling, start_block(8, 10), 0.1,
                                         np.array([cfg.alpha]), np.array([1.0])) == (
        alpha_dt == 1e-4)
    _float64_fallback(inst_c, cfg, start_block(8, 10))


def _integer_instance(n=16, seed=7):
    upper = np.triu(np.random.default_rng(seed).integers(-3, 4, size=(n, n)), 1)
    return Instance(coupling=(upper + upper.T).astype(np.float64), pattern_set=None,
                    label="integer")


# Digests of _integrate_block's (states, steps, status) on float64 blocks,
# recorded before float32 blocks existed.  Integer couplings and the sign
# nonlinearity make every coupling product exact, so the bits do not
# depend on the BLAS kernel or its summation order.
@pytest.mark.parametrize("cfg, digest", [
    (SolverConfig(kind="I", nonlinearity="sign", alpha=2.0, dt=0.05, max_steps=300),
     "ddcc6d865843b02e"),
    (SolverConfig(kind="II", nonlinearity="sign", alpha=LinearRamp(0.5, 3.0, 200), beta=0.7,
                  dt=0.05, max_steps=300), "c2ecb0038210aa99"),
    (SolverConfig(kind="I", nonlinearity="sign", alpha=-1.0, dt=0.1, max_steps=300),
     "c30ede4ab6e3bdc4"),
    (SolverConfig(kind="III", nonlinearity="sign", gamma=-0.5, derivative_window=2.0, dt=0.05,
                  max_steps=300, steady_tol=1e-6), "3699191284c61aec"),
    (SolverConfig(kind="TBM", max_steps=200), "b9d382f293bf56ee"),
], ids=["I", "II-ramp", "I-diverging", "III", "TBM"])
def test_float64_blocks_keep_their_bits(cfg, digest):
    x0 = initial_states(16, 0.5, range(40))
    h = hashlib.sha256()
    for a in dynamics._integrate_block(_integer_instance(), cfg, x0):
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    assert h.hexdigest()[:16] == digest
