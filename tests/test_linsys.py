import sys
import threading

import numpy as np
import pytest

from prhc.linsys import (
    DisturbanceSequence,
    LinearSystem,
    Trajectory,
    rollout,
    stack_dynamics,
)


def random_system(rng, n, m):
    return LinearSystem(A=rng.uniform(-1, 1, (n, n)), B=rng.uniform(-1, 1, (n, m)))


def one_step(sys, x, u, w):
    """The state after one update A x + B u + w, through rollout."""
    return rollout(sys, x, [u], [w]).states[-1]


def test_step_scalar():
    sys = LinearSystem(A=[[0.5]], B=[[1.0]])
    assert np.allclose(one_step(sys, [0.0], [1.0], [0.2]), [1.2])


def test_step_identity_zero_input_map():
    sys = LinearSystem(A=np.eye(2), B=np.zeros((2, 1)))
    assert np.allclose(one_step(sys, [1.0, 2.0], [5.0], [0.0, 0.0]), [1.0, 2.0])


def test_step_shift_structure():
    sys = LinearSystem(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]])
    out = one_step(sys, [1.0, 0.0], [3.0], [0.1, -0.1])
    assert np.allclose(out, [0.1, 2.9])


def test_system_validation():
    with pytest.raises(ValueError, match="square"):
        LinearSystem(A=np.ones((2, 3)), B=np.ones((2, 1)))
    with pytest.raises(ValueError, match="rows"):
        LinearSystem(A=np.eye(2), B=np.ones((3, 1)))
    with pytest.raises(ValueError, match="non-finite"):
        LinearSystem(A=[[np.nan]], B=[[1.0]])


def test_rollout_scalar_hand_values():
    sys = LinearSystem(A=[[0.5]], B=[[1.0]])
    traj = rollout(sys, [0.0], [[1.0], [0.0]], [[0.2], [0.0]])
    assert np.allclose(traj.states[:, 0], [0.0, 1.2, 0.6])


def test_rollout_zero_fixed_point():
    rng = np.random.default_rng(0)
    sys = random_system(rng, 3, 2)
    traj = rollout(sys, np.zeros(3), np.zeros((5, 2)), np.zeros((5, 3)))
    assert np.all(traj.states == 0.0)


def test_rollout_geometric_decay():
    sys = LinearSystem(A=[[0.5]], B=[[1.0]])
    traj = rollout(sys, [1.0], np.zeros((3, 1)), np.zeros((3, 1)))
    assert np.allclose(traj.states[:, 0], [1.0, 0.5, 0.25, 0.125])


def test_rollout_length_mismatch():
    sys = LinearSystem(A=[[1.0]], B=[[1.0]])
    with pytest.raises(ValueError, match="steps"):
        rollout(sys, [0.0], np.zeros((3, 1)), np.zeros((2, 1)))


def test_rollout_deterministic_bitwise():
    rng = np.random.default_rng(7)
    sys = random_system(rng, 3, 2)
    x1 = rng.normal(size=3)
    u = rng.normal(size=(6, 2))
    w = rng.normal(size=(6, 3))
    a = rollout(sys, x1, u, w)
    b = rollout(sys, x1, u, w)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.inputs, b.inputs)


def test_rollout_rejects_wrong_widths():
    sys = LinearSystem(A=np.eye(2), B=np.ones((2, 1)))
    with pytest.raises(ValueError, match="x1 has 1 entries"):
        rollout(sys, [1.0], np.zeros((3, 1)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="u_seq has shape"):
        rollout(sys, [1.0, 0.0], np.zeros((3, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="u_seq has shape"):
        rollout(sys, [1.0, 0.0], np.zeros((3, 1, 1)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="w_seq has shape"):
        rollout(sys, [1.0, 0.0], np.zeros((3, 1)), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="w_seq has shape"):
        rollout(sys, [1.0, 0.0], np.zeros((3, 1)), np.zeros(5))


def test_rollout_equals_chained_steps_bitwise():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 4))
        T = int(rng.integers(0, 12))
        sys = random_system(rng, n, m)
        x = rng.normal(size=n)
        u = rng.normal(size=(T, m))
        w = rng.normal(size=(T, n))
        traj = rollout(sys, x, u, w)
        chained = [x]
        for t in range(T):
            chained.append(sys.A @ chained[-1] + sys.B @ u[t] + w[t])
        np.testing.assert_array_equal(traj.states, np.array(chained))


def test_stack_dynamics_horizon_one():
    rng = np.random.default_rng(1)
    sys = random_system(rng, 3, 2)
    sd = stack_dynamics(sys, 1)
    assert np.array_equal(sd.F, np.eye(3))
    assert np.all(sd.G == 0.0)
    assert np.all(sd.H == 0.0)


def test_stack_dynamics_scalar_two_step():
    sys = LinearSystem(A=[[0.5]], B=[[1.0]])
    sd = stack_dynamics(sys, 2)
    assert np.allclose(sd.F, [[1.0], [0.5]])
    assert np.allclose(sd.G, [[0.0, 0.0], [1.0, 0.0]])
    assert np.allclose(sd.H, [[0.0, 0.0], [1.0, 0.0]])


def test_stack_dynamics_rejects_bad_horizon():
    sys = LinearSystem(A=[[1.0]], B=[[1.0]])
    with pytest.raises(ValueError, match="N"):
        stack_dynamics(sys, 0)


def test_leading_blocks_equal_shorter_stack():
    # a window of h < N steps may reuse the first h blocks of the N-step maps;
    # each short stack is built by a fresh system, so none is served from
    # the N-step stack
    rng = np.random.default_rng(12)
    for _ in range(15):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        N = int(rng.integers(1, 10))
        sys = random_system(rng, n, m)
        full = stack_dynamics(sys, N)
        for h in range(1, N + 1):
            short = stack_dynamics(LinearSystem(A=sys.A, B=sys.B), h)
            np.testing.assert_array_equal(full.F[:n * h], short.F)
            np.testing.assert_array_equal(full.G[:n * h, :m * h], short.G)
            np.testing.assert_array_equal(full.H[:n * h, :n * h], short.H)


def test_stack_maps_are_read_only():
    sys = random_system(np.random.default_rng(3), 2, 1)
    for N in (4, 2):  # built, then served from the leading blocks
        sd = stack_dynamics(sys, N)
        for arr in (sd.F, sd.G, sd.H):
            with pytest.raises(ValueError):
                arr[-1, 0] = 1.0


def test_short_long_short_serves_identical_maps(stack_builds):
    sys = random_system(np.random.default_rng(5), 3, 2)
    first = stack_dynamics(sys, 3)
    stack_dynamics(sys, 7)
    again = stack_dynamics(sys, 3)
    assert [N for _, N in stack_builds] == [3, 7]
    fresh = stack_dynamics(LinearSystem(A=sys.A, B=sys.B), 3)
    for sd in (first, again):
        assert sd.N == 3
        np.testing.assert_array_equal(sd.F, fresh.F)
        np.testing.assert_array_equal(sd.G, fresh.G)
        np.testing.assert_array_equal(sd.H, fresh.H)


def test_equal_systems_do_not_share_a_stack(stack_builds):
    rng = np.random.default_rng(6)
    A, B = rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, (2, 1))
    one, two = LinearSystem(A=A, B=B), LinearSystem(A=A.copy(), B=B.copy())
    a = stack_dynamics(one, 4)
    b = stack_dynamics(two, 4)
    assert len(stack_builds) == 2
    assert stack_builds[0][0] is one and stack_builds[1][0] is two
    assert not np.shares_memory(a.H, b.H)
    assert stack_dynamics(one, 4) is a and stack_dynamics(two, 4) is b


def test_threads_sharing_a_system_get_correct_stacks():
    rng = np.random.default_rng(7)
    sys_ = random_system(rng, 2, 1)
    fresh = {N: stack_dynamics(LinearSystem(A=sys_.A, B=sys_.B), N) for N in range(1, 13)}
    orders = [rng.permutation(np.arange(1, 13)).tolist() * 5 for _ in range(8)]
    wrong = []

    def worker(order):
        for N in order:
            sd = stack_dynamics(sys_, N)
            if not (np.array_equal(sd.F, fresh[N].F) and np.array_equal(sd.G, fresh[N].G)
                    and np.array_equal(sd.H, fresh[N].H)):
                wrong.append(N)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(o,)) for o in orders]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_stacked_prediction_matches_rollout():
    rng = np.random.default_rng(42)
    sys = random_system(rng, 2, 1)
    N = 4
    sd = stack_dynamics(sys, N)
    x = rng.normal(size=2)
    u = rng.normal(size=(N, 1))
    w = rng.normal(size=(N, 2))
    traj = rollout(sys, x, u, w)
    pred = (sd.F @ x + sd.G @ u.ravel() + sd.H @ w.ravel()).reshape(N, 2)
    # window covers offsets 0..N-1, the terminal state is excluded
    assert np.allclose(pred, traj.states[:N], rtol=1e-10, atol=1e-12)


def test_stacked_prediction_matches_rollout_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        N = int(rng.integers(1, 9))
        sys = random_system(rng, n, m)
        sd = stack_dynamics(sys, N)
        x = rng.normal(size=n)
        u = rng.normal(size=(N, m))
        w = rng.normal(size=(N, n))
        traj = rollout(sys, x, u, w)
        pred = (sd.F @ x + sd.G @ u.ravel() + sd.H @ w.ravel()).reshape(N, n)
        assert np.allclose(pred, traj.states[:N], rtol=1e-10, atol=1e-12)


def test_disturbance_sequence_window_and_energy():
    w = np.arange(8.0).reshape(4, 2)
    ds = DisturbanceSequence(w)
    assert len(ds) == 4
    assert ds.energy() == pytest.approx(float(np.sum(w * w)))
    sub = ds.window(1, 3)
    assert np.array_equal(sub.w, w[1:3])
    with pytest.raises(ValueError, match="out of range"):
        ds.window(2, 6)


def test_trajectory_shape_validation():
    with pytest.raises(ValueError, match="T\\+1"):
        Trajectory(states=np.zeros((3, 1)), inputs=np.zeros((3, 1)),
                   disturbances=np.zeros((3, 1)))
    with pytest.raises(ValueError, match="disturbances"):
        Trajectory(states=np.zeros((4, 1)), inputs=np.zeros((3, 1)),
                   disturbances=np.zeros((2, 1)))


def test_immutability_of_system_matrices():
    sys = LinearSystem(A=np.eye(2), B=np.ones((2, 1)))
    with pytest.raises(ValueError):
        sys.A[0, 0] = 2.0
