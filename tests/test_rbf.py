import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemp.feature_opt import FeatureObjective
from sparsemp.rbf import (
    SIGMA2_MIN,
    RbfParams,
    StackedRbfParams,
    basis_and_partials,
    build_basis,
    eval_basis,
)


def eval_basis_accel(t, params):
    return build_basis(t, params)[1]


def eval_basis_param_grads(t, params):
    """(dPhi/dmu, dPhi/dlogs2, dAcc/dmu, dAcc/dlogs2) of a one-block parameter set."""
    return basis_and_partials(t, params.mu[0], params.sigma2[0])[2:]


def blocks(params):
    """Each block of params as a one-block parameter set."""
    return [RbfParams(mu=mu, sigma2=s2) for mu, s2 in zip(params.mu, params.sigma2)]


def random_params(p=3, seed=0, lo=0.01, hi=0.5):
    rng = np.random.default_rng(seed)
    return RbfParams(
        mu=rng.uniform(0.0, 1.0, p), sigma2=rng.uniform(lo, hi, p)
    )


def round_trip(params, n_dof=1):
    """params laid out as theta and read back, as the refinement objective does."""
    obj = FeatureObjective(np.zeros(1), np.zeros((n_dof, 1)),
                           np.zeros((params.n_features, 1)), 0.0, n_dof_blocks=n_dof)
    return obj.decode(obj.encode(params))


class TestRbfParams:
    def test_width_floor_enforced(self):
        with pytest.raises(ValueError, match="sigma2_min"):
            RbfParams(mu=np.array([0.0]), sigma2=np.array([1e-9]))

    def test_theta_round_trip(self):
        params = random_params(p=4, seed=1)
        back = round_trip(params)
        np.testing.assert_allclose(back.mu, params.mu)
        np.testing.assert_allclose(back.sigma2, params.sigma2, rtol=1e-14)

    def test_select_preserves_order(self):
        params = random_params(p=5, seed=2)
        keep = np.array([0, 2, 4])
        sub = params.select(keep)
        np.testing.assert_array_equal(sub.mu, params.mu[:, keep])

    def test_stacked_requires_common_p(self):
        a = random_params(p=3)
        b = random_params(p=4)
        with pytest.raises(ValueError, match="inconsistent"):
            StackedRbfParams(per_dof=[a, b])

    def test_stacked_theta_round_trip(self):
        stacked = StackedRbfParams(
            per_dof=[random_params(p=3, seed=s) for s in range(2)]
        )
        back = round_trip(stacked, n_dof=2)
        for orig, rec in zip(blocks(stacked), blocks(back)):
            np.testing.assert_allclose(rec.mu, orig.mu)
            np.testing.assert_allclose(rec.sigma2, orig.sigma2, rtol=1e-14)


class TestEvalBasis:
    def test_unit_at_center(self):
        params = RbfParams(mu=np.array([0.3]), sigma2=np.array([0.04]))
        assert eval_basis(np.array([0.3]), params)[0, 0] == pytest.approx(1.0)

    def test_one_sigma_value(self):
        sigma2 = 0.04
        params = RbfParams(mu=np.array([0.0]), sigma2=np.array([sigma2]))
        val = eval_basis(np.array([np.sqrt(sigma2)]), params)[0, 0]
        assert val == pytest.approx(np.exp(-0.5), rel=1e-12)
        assert val == pytest.approx(0.606531, abs=1e-6)

    def test_matches_scalar_evaluation(self):
        params = random_params(p=3, seed=3)
        t = np.linspace(0, 1, 5)
        Phi = eval_basis(t, params)
        for i in range(5):
            for j in range(3):
                expected = np.exp(
                    -(t[i] - params.mu[0, j]) ** 2 / (2 * params.sigma2[0, j])
                )
                assert Phi[i, j] == pytest.approx(expected, rel=1e-14)

    def test_range_zero_one(self):
        params = random_params(p=6, seed=4)
        Phi = eval_basis(np.linspace(-1, 2, 40), params)
        assert np.all(Phi > 0)
        assert np.all(Phi <= 1)


class TestEvalBasisAccel:
    def test_value_at_center(self):
        params = RbfParams(mu=np.array([0.5]), sigma2=np.array([0.02]))
        acc = eval_basis_accel(np.array([0.5]), params)[0, 0]
        assert acc == pytest.approx(-1.0 / 0.02, rel=1e-12)

    def test_inflection_at_one_sigma(self):
        sigma2 = 0.09
        params = RbfParams(mu=np.array([0.0]), sigma2=np.array([sigma2]))
        acc = eval_basis_accel(np.array([np.sqrt(sigma2)]), params)[0, 0]
        assert acc == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_differences_in_time(self):
        params = random_params(p=4, seed=5, lo=0.02, hi=0.3)
        t = np.linspace(0.05, 0.95, 7)
        h = 1e-5
        acc = eval_basis_accel(t, params)
        fd = (
            eval_basis(t + h, params) - 2 * eval_basis(t, params)
            + eval_basis(t - h, params)
        ) / h ** 2
        np.testing.assert_allclose(acc, fd, rtol=1e-5, atol=1e-6)

    def test_column_integrates_to_zero(self):
        params = RbfParams(mu=np.array([0.5]), sigma2=np.array([0.01]))
        sigma = 0.1
        grid = np.linspace(0.5 - 6 * sigma, 0.5 + 6 * sigma, 4001)
        acc = eval_basis_accel(grid, params)[:, 0]
        integral = np.sum((acc[1:] + acc[:-1]) * np.diff(grid)) / 2.0  # trapezoid rule
        assert abs(integral) <= 1e-3


class TestParamGrads:
    def test_zero_grads_at_center(self):
        params = RbfParams(mu=np.array([0.4]), sigma2=np.array([0.05]))
        dpm, dpl, _, _ = eval_basis_param_grads(np.array([0.4]), params)
        assert dpm[0, 0] == pytest.approx(0.0, abs=1e-14)
        assert dpl[0, 0] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        params = random_params(p=3, seed=seed, lo=0.02, hi=0.3)
        t = np.linspace(0, 1, 9)
        dpm, dpl, dam, dal = eval_basis_param_grads(t, params)
        h = 1e-6
        for j in range(3):
            mu_p = params.mu.copy()
            mu_p[0, j] += h
            mu_m = params.mu.copy()
            mu_m[0, j] -= h
            up = RbfParams(mu=mu_p, sigma2=params.sigma2)
            dn = RbfParams(mu=mu_m, sigma2=params.sigma2)
            fd = (eval_basis(t, up) - eval_basis(t, dn))[:, j] / (2 * h)
            np.testing.assert_allclose(dpm[:, j], fd, rtol=1e-5, atol=1e-8)
            fd = (eval_basis_accel(t, up) - eval_basis_accel(t, dn))[:, j] / (2 * h)
            np.testing.assert_allclose(dam[:, j], fd, rtol=1e-5, atol=1e-4)

            logs = np.log(params.sigma2[0, j])
            s_up = params.sigma2.copy()
            s_up[0, j] = np.exp(logs + h)
            s_dn = params.sigma2.copy()
            s_dn[0, j] = np.exp(logs - h)
            up = RbfParams(mu=params.mu, sigma2=s_up)
            dn = RbfParams(mu=params.mu, sigma2=s_dn)
            fd = (eval_basis(t, up) - eval_basis(t, dn))[:, j] / (2 * h)
            np.testing.assert_allclose(dpl[:, j], fd, rtol=1e-5, atol=1e-8)
            fd = (eval_basis_accel(t, up) - eval_basis_accel(t, dn))[:, j] / (2 * h)
            np.testing.assert_allclose(dal[:, j], fd, rtol=1e-5, atol=1e-4)

    def test_columns_independent(self):
        # Changing feature 0's parameters must not touch column 1's partials.
        params = random_params(p=2, seed=8)
        t = np.linspace(0, 1, 6)
        grads_before = eval_basis_param_grads(t, params)
        mu2 = params.mu.copy()
        mu2[0, 0] += 0.1
        grads_after = eval_basis_param_grads(
            t, RbfParams(mu=mu2, sigma2=params.sigma2)
        )
        for ga, gb in zip(grads_after, grads_before):
            np.testing.assert_array_equal(ga[:, 1], gb[:, 1])


class TestBasisAndPartials:
    @pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
    def test_workspace_call_bit_identical(self, lead):
        rng = np.random.default_rng(len(lead))
        t = np.linspace(0, 1, 11)
        mu = rng.uniform(0, 1, lead + (5,))
        s2 = rng.uniform(SIGMA2_MIN, 0.2, lead + (5,))
        fresh = basis_and_partials(t, mu, s2)
        buf = np.full((6,) + lead + (11, 5), np.nan)
        for _ in range(2):  # a reused workspace gives the same bits
            filled = basis_and_partials(t, mu, s2, out=buf)
            for a, b in zip(fresh, filled):
                assert a.shape == lead + (11, 5) and np.shares_memory(b, buf)
                np.testing.assert_array_equal(a, b)

    def test_values_match_eval_basis(self):
        rng = np.random.default_rng(5)
        t = np.linspace(-0.2, 1.2, 30)
        mu = rng.uniform(0, 1, (3, 6))
        s2 = rng.uniform(1e-4, 0.3, (3, 6))
        phi, acc = basis_and_partials(t, mu, s2)[:2]
        for b in range(3):
            params = RbfParams(mu=mu[b], sigma2=s2[b])
            np.testing.assert_array_equal(phi[b], eval_basis(t, params))
            np.testing.assert_array_equal(acc[b], eval_basis_accel(t, params))

    def test_wrong_workspace_rejected(self):
        with pytest.raises(ValueError, match="workspace"):
            basis_and_partials(np.zeros(4), np.zeros(2), np.ones(2), out=np.empty((6, 2, 4)))


class TestStackBasis:
    def test_single_dof_equals_flat(self):
        params = random_params(p=3, seed=9)
        stacked = StackedRbfParams(per_dof=[params])
        t = np.linspace(0, 1, 10)
        Phi_s, Acc_s = build_basis(t, stacked)
        np.testing.assert_array_equal(Phi_s, eval_basis(t, params))
        np.testing.assert_array_equal(Acc_s, eval_basis_accel(t, params))

    def test_identical_dofs_give_identical_blocks(self):
        params = random_params(p=3, seed=10)
        stacked = StackedRbfParams(per_dof=[params, params])
        t = np.linspace(0, 1, 8)
        Phi_s, _ = build_basis(t, stacked)
        np.testing.assert_array_equal(Phi_s[:8], Phi_s[8:])

    def test_blocks_match_per_dof_evaluation(self):
        per_dof = [random_params(p=4, seed=s) for s in range(3)]
        stacked = StackedRbfParams(per_dof=per_dof)
        t = np.linspace(0, 1, 11)
        Phi_s, Acc_s = build_basis(t, stacked)
        assert Phi_s.shape == (33, 4)
        for i, params in enumerate(per_dof):
            block = slice(11 * i, 11 * (i + 1))
            np.testing.assert_array_equal(Phi_s[block], eval_basis(t, params))
            np.testing.assert_array_equal(Acc_s[block], eval_basis_accel(t, params))

    def test_build_basis_dispatch(self):
        params = random_params(p=2, seed=11)
        t = np.linspace(0, 1, 5)
        flat = build_basis(t, params)
        np.testing.assert_array_equal(
            flat[0], basis_and_partials(t, params.mu[0], params.sigma2[0])[0])
        stacked = build_basis(t, StackedRbfParams(per_dof=[params, params]))
        assert stacked[0].shape == (10, 2)


@st.composite
def stacked_bases(draw):
    """N times on [0, 1] and 1-4 DoF blocks of p features centred there.
    Widths of at least 0.01 keep every value clear of underflow."""
    N, p, n_blocks = draw(st.integers(2, 30)), draw(st.integers(1, 8)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    per_dof = [RbfParams(mu=rng.uniform(0.0, 1.0, p), sigma2=rng.uniform(0.01, 1.0, p))
               for _ in range(n_blocks)]
    return np.linspace(0.0, 1.0, N), StackedRbfParams(per_dof=per_dof)


KERNEL = settings(max_examples=60, deadline=None, derandomize=True)


class TestKernelProperties:
    @KERNEL
    @given(stacked_bases())
    def test_stacked_blocks_equal_flat_calls(self, case):
        t, stacked = case
        N = t.size
        Phi, Acc = build_basis(t, stacked)
        assert Phi.shape == Acc.shape == (stacked.n_blocks * N, stacked.n_features)
        for i, params in enumerate(blocks(stacked)):
            Phi_i, Acc_i = build_basis(t, params)
            np.testing.assert_array_equal(Phi[N * i:N * (i + 1)], Phi_i)
            np.testing.assert_array_equal(Acc[N * i:N * (i + 1)], Acc_i)
        first = blocks(stacked)[0]
        for single, flat in zip(build_basis(t, StackedRbfParams(per_dof=[first])),
                                build_basis(t, first)):
            np.testing.assert_array_equal(single, flat)

    @KERNEL
    @given(stacked_bases())
    def test_acceleration_is_the_second_time_difference(self, case):
        t, stacked = case
        h = 1e-4
        _, Acc = build_basis(t, stacked)
        fd = (eval_basis(t + h, stacked) - 2.0 * eval_basis(t, stacked)
              + eval_basis(t - h, stacked)) / h ** 2
        np.testing.assert_allclose(Acc, fd, rtol=0, atol=1e-6 * (1.0 + np.abs(Acc).max()))

    @KERNEL
    @given(stacked_bases())
    def test_values_in_unit_interval_and_one_at_the_centre(self, case):
        t, stacked = case
        Phi = eval_basis(t, stacked)
        assert np.all(Phi > 0.0) and np.all(Phi <= 1.0)
        for params in blocks(stacked):
            assert np.all(np.diagonal(eval_basis(params.mu[0], params)) == 1.0)
