import hashlib
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from birkhoff_attn import (
    GridSpec,
    ProjectionError,
    ProjectionSettings,
    affine_project,
    as_dsm,
    birkhoff_distance,
    check_stochasticity,
    frobenius_distance,
    project,
)
from birkhoff_attn import birkhoff
from birkhoff_attn.expressivity import grid_matrices

import oracles


class TestAffineProject:
    def test_dsm_is_fixed(self):
        m = np.full((3, 3), 1 / 3)
        assert_allclose(affine_project(m), m, atol=1e-15)

    def test_half_mass_example(self):
        # both marginals short by the same amount: the correction spreads
        # uniformly, landing on the polytope center
        out = affine_project(np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert_allclose(out, np.full((2, 2), 0.5), atol=1e-15)

    def test_marginals_exact_even_with_negative_entries(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((5, 5)) * 3.0
        out = affine_project(m)
        assert_allclose(out.sum(axis=1), np.ones(5), atol=1e-12)
        assert_allclose(out.sum(axis=0), np.ones(5), atol=1e-12)

    def test_matches_kkt_oracle(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 6):
            m = rng.standard_normal((n, n))
            assert_allclose(affine_project(m), oracles.affine_projection_oracle(m),
                            atol=1e-12)

    def test_is_idempotent(self):
        m = np.random.default_rng(3).standard_normal((4, 4))
        once = affine_project(m)
        assert_allclose(affine_project(once), once, atol=1e-13)


def certificate_inputs() -> list:
    """Ten 5x5 inputs, small enough for the n! walk of oracles.projection_gap."""
    rng = np.random.default_rng(4)
    return [rng.standard_normal((5, 5)) * 2.0 for _ in range(10)]


class TestProject:
    def test_identity_is_fixed(self):
        assert_allclose(project(np.eye(3)).matrix, np.eye(3), atol=1e-9)

    def test_center_plus_checkerboard(self):
        # J/4 + 0.3 * checkerboard already has exact marginals, so projection
        # only undoes the sign pattern where it breaks feasibility; it must
        # land on the same point as the slow oracle
        n = 4
        checker = np.fromfunction(lambda i, j: (-1.0) ** (i + j), (n, n))
        m = np.full((n, n), 0.25) + 0.3 * checker
        assert_allclose(project(m).matrix, oracles.birkhoff_projection_oracle(m), atol=1e-7)

    def test_passes_the_vertex_certificate_on_random_inputs(self):
        # the output is feasible and no permutation matrix, no vertex of the
        # polytope, beats it in the projection's variational inequality
        for m in certificate_inputs():
            x = project(m).matrix
            assert x.min() >= 0.0
            assert np.abs(x.sum(axis=0) - 1.0).max() <= 1e-8
            assert np.abs(x.sum(axis=1) - 1.0).max() <= 1e-8
            assert oracles.projection_gap(m, x) <= 1e-8

    def test_vertex_certificate_rejects_a_feasible_point_off_the_projection(self):
        # a 0.1% step towards the polytope's centre stays feasible, yet each
        # such point misses the certificate by over 5e-3
        for m in certificate_inputs():
            x = project(m).matrix
            mix = 0.999 * x + 0.001 * np.full_like(x, 1.0 / len(x))
            assert oracles.projection_gap(m, mix) > 1e-8

    def test_matches_independent_dykstra_oracle(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 4))
        want = oracles.birkhoff_projection_oracle(m)
        assert_allclose(project(m).matrix, want, atol=1e-8)

    def test_output_is_validated_dsm(self):
        d = project(np.random.default_rng(6).standard_normal((6, 6)))
        assert d.tolerance == 1e-8
        assert d.report.max_row_deviation <= 1e-8

    def test_one_matrix_report_is_its_own_measurement(self):
        # one matrix is projected and validated as a batch of one; its Dsm
        # report is still the one measured on the matrix alone, bit for bit
        m = np.random.default_rng(6).standard_normal((6, 6))
        for view in (m, np.asfortranarray(m), m.T):
            d = project(view)
            assert d.report == check_stochasticity(d.matrix)
            assert d.matrix.tobytes() == project(view[None])[0].tobytes()

    def test_idempotence(self):
        m = np.random.default_rng(7).standard_normal((4, 4))
        once = project(m).matrix
        twice = project(once).matrix
        assert frobenius_distance(once, twice) < 1e-8

    def test_non_expansiveness(self):
        # projections onto convex sets cannot increase distances
        rng = np.random.default_rng(8)
        for _ in range(5):
            a, b = rng.standard_normal((2, 4, 4))
            d_before = frobenius_distance(a, b)
            d_after = frobenius_distance(project(a).matrix, project(b).matrix)
            assert d_after <= d_before + 1e-9

    def test_raises_with_last_iterate_on_budget_exhaustion(self):
        m = np.random.default_rng(9).standard_normal((5, 5)) * 5.0
        tight = ProjectionSettings(tolerance=1e-14, max_iterations=3)
        with pytest.raises(ProjectionError, match="no convergence") as exc_info:
            project(m, tight)
        err = exc_info.value
        assert err.last_iterate.shape == (5, 5)
        assert err.report.max_row_deviation >= 0.0

    def test_raises_with_last_iterate_when_stopping_off_the_polytope(self):
        # at this scale Dykstra's gap test passes while the marginals are still
        # off by ~4e-7, above the 1e-8 validation
        m = 1e9 * np.random.default_rng(0).standard_normal((4, 4))
        with pytest.raises(ProjectionError, match="off the Birkhoff polytope") as exc_info:
            project(m)
        err = exc_info.value
        assert err.last_iterate.shape == (4, 4)
        assert err.report == check_stochasticity(err.last_iterate)
        assert max(err.report.max_row_deviation, err.report.max_col_deviation) > 1e-8

    def test_settings_validation(self):
        with pytest.raises(ValueError, match="tolerance"):
            ProjectionSettings(tolerance=0.0)
        with pytest.raises(ValueError, match="max_iterations"):
            ProjectionSettings(max_iterations=0)


def three_inputs(kind: str, n: int) -> np.ndarray:
    """A (3, n, n) stack of one input kind, seeded by kind and size."""
    rng = np.random.default_rng([n, len(kind)])
    if kind == "normal":
        return 2.0 * rng.standard_normal((3, n, n))
    if kind == "cube":
        return rng.integers(0, 2, (3, n, n)).astype(np.float64)
    if kind == "wide":
        return 10.0 * rng.standard_normal((3, n, n))
    return 1.0 / n + 1e-3 * rng.standard_normal((3, n, n))  # "near" the polytope's centre


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["normal", "cube", "wide", "near"])
def test_each_matrix_of_a_stack_passes_the_vertex_certificate(kind, n):
    stack = three_inputs(kind, n)
    for m, x in zip(stack, project(stack)):
        assert x.min() >= 0.0
        assert oracles.projection_gap(m, x) <= 1e-8


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("toward", ["centre", "vertex", "other-projection"])
def test_vertex_certificate_rejects_a_step_toward_another_feasible_point(toward, n):
    # for feasible z != x, y = x + t (z - x) has <m - y, x - y> >= t^2 |z - x|^2
    # > 0, and the certificate's maximum over vertices bounds that from above
    rng = np.random.default_rng([n, 17])
    m = 2.0 * rng.standard_normal((n, n))
    x = project(m).matrix
    z = {"centre": np.full((n, n), 1.0 / n),
         "vertex": np.eye(n)[list(min(permutations(range(n)),  # the vertex least like x
                                      key=lambda sigma: x[range(n), sigma].sum()))],
         "other-projection": project(-m).matrix}[toward]
    assert oracles.projection_gap(m, 0.999 * x + 0.001 * z) > 1e-8


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_a_permutation_matrix_is_its_own_projection(n):
    vertex = np.eye(n)[np.random.default_rng(n).permutation(n)]
    x = project(vertex).matrix
    assert np.array_equal(x, vertex)
    assert oracles.projection_gap(vertex, x) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("change", ["lines-permuted", "transposed", "lines-offset"])
def test_projection_follows_the_polytopes_symmetries(change, n):
    # the polytope is closed under permuting rows and columns and under
    # transposition, and adding a 1' + 1 b' moves m along the normal space of
    # its affine hull, which leaves the projection where it was
    rng = np.random.default_rng([n, 23])
    m = 2.0 * rng.standard_normal((n, n))
    x = project(m).matrix
    if change == "lines-permuted":
        rows, cols = (np.eye(n)[rng.permutation(n)] for _ in range(2))
        got, want = project(rows @ m @ cols).matrix, rows @ x @ cols
    elif change == "transposed":
        got, want = project(m.T).matrix, x.T
    else:
        a, b = rng.standard_normal((2, n, 1))
        got, want = project(m + a + b.T).matrix, x
    assert_allclose(got, want, atol=1e-9)


def iterations_needed(m: np.ndarray) -> int:
    """The smallest budget under which ``m`` alone converges."""
    for budget in range(1, 10_000):
        try:
            project(m, ProjectionSettings(max_iterations=budget))
            return budget
        except ProjectionError:
            continue
    raise AssertionError("no convergence")


def each_alone(stack: np.ndarray) -> list:
    return [project(m).matrix for m in stack]


@pytest.mark.parametrize("kind", ["cube", "random"])
@pytest.mark.parametrize("n", [1, 2, 4, 16])
@pytest.mark.parametrize("batch", [1, 2, 7, 512])
def test_stacked_projection_matches_each_matrix_alone(kind, batch, n):
    rng = np.random.default_rng([batch, n])
    if kind == "cube":
        stack = rng.integers(0, 2, (batch, n, n)).astype(np.float64)
    else:
        stack = rng.standard_normal((batch, n, n))
    out = project(stack)
    assert out.shape == stack.shape
    affine = affine_project(stack)
    # a stack of 512 is checked at 32 spread-out indices, the first and last included
    for i in sorted({*range(0, batch, max(1, batch // 32)), batch - 1}):
        assert out[i].tobytes() == project(stack[i]).matrix.tobytes(), i
        assert affine[i].tobytes() == affine_project(stack[i]).tobytes(), i


@pytest.mark.parametrize("stack, digest", [
    (grid_matrices(GridSpec(n=4, d=2), 0, 512),
     "b28e43fcef49377dd0119ce795fdb7431a514a85bdbe719d1a3fefdc5eb4fe04"),
    (np.random.default_rng(0).standard_normal((4, 8, 8)),
     "a5ee73a20dbb9280570c965d56fc8d91337d72f4d277e4b3aeeccc4aa5a63407"),
    (np.random.default_rng(0).standard_normal((64, 64)),
     "606ebf3f059192cdd1781abc5b8e1f9867879d2195d653ee8152e696008ec23b"),
], ids=["cube-4-2", "normal-8", "normal-64"])
def test_dykstra_output_bits_are_pinned(stack, digest):
    # digests of the Dykstra projections computed by the step that allocated
    # fresh arrays each iteration; the in-place step must keep every bit
    out = project(stack)
    out = out.matrix if stack.ndim == 2 else out
    assert hashlib.sha256(out.tobytes()).hexdigest() == digest


def five_samples() -> np.ndarray:
    """Five 4x4 matrices that converge at different iterations, the first one last."""
    rng = np.random.default_rng(12)
    return np.array([3.0 * rng.standard_normal((4, 4)), np.full((4, 4), 0.25),
                     rng.standard_normal((4, 4)), np.eye(4), rng.uniform(0.0, 1.0, (4, 4))])


NEEDED = [90, 2, 80, 2, 34]  # the budget each of five_samples needs alone


class TestStackedProjection:
    def test_samples_converging_at_different_iterations(self):
        stack = five_samples()
        assert [iterations_needed(m) for m in stack] == NEEDED
        out = project(stack)
        for got, want in zip(out, each_alone(stack)):
            assert got.tobytes() == want.tobytes()
            as_dsm(got, tolerance=1e-8)

    def test_each_matrix_counts_the_steps_it_takes_alone(self):
        # the solver loop's count is the smallest budget under which the matrix
        # converges, in a stack as alone
        settings = ProjectionSettings()

        def counts(stack):
            state = (np.zeros_like(stack), np.zeros_like(stack), np.empty_like(stack))
            return birkhoff._iterate(birkhoff._dykstra, stack.copy(), state, settings.tolerance,
                                     settings.max_iterations)[2]

        stack = five_samples()
        assert counts(stack).tolist() == NEEDED
        assert [int(counts(m[None])[0]) for m in stack] == NEEDED

    def test_a_failure_carries_the_failing_matrix_step_count(self):
        slow, _, quick = five_samples()[:3]
        five = ProjectionSettings(max_iterations=5)
        for m in (slow, np.array([np.eye(4), slow, quick])):
            with pytest.raises(ProjectionError, match="no convergence within 5") as exc_info:
                project(m, five)
            assert exc_info.value.iterations == 5
        # a matrix that stops off the polytope stops before the budget runs out
        with pytest.raises(ProjectionError, match="off the Birkhoff polytope") as exc_info:
            project(1e9 * np.random.default_rng(0).standard_normal((4, 4)))
        assert 1 < exc_info.value.iterations < ProjectionSettings().max_iterations

    def test_first_non_converging_sample_raises_with_its_last_iterate(self):
        rng = np.random.default_rng(12)
        slow, fast = 3.0 * rng.standard_normal((2, 4, 4))
        tight = ProjectionSettings(max_iterations=40)
        stack = np.array([np.eye(4), slow, fast, 2.0 * slow])
        with pytest.raises(ProjectionError, match="no convergence within 40") as alone:
            project(slow, tight)
        with pytest.raises(ProjectionError, match="no convergence within 40") as stacked:
            project(stack, tight)
        assert stacked.value.last_iterate.tobytes() == alone.value.last_iterate.tobytes()
        assert stacked.value.report == alone.value.report
        assert str(stacked.value) == str(alone.value)

    def test_first_sample_off_the_polytope_raises_with_its_last_iterate(self):
        # at 1e9 the gap test passes while the marginals are off by ~4e-7
        rng = np.random.default_rng(0)
        far = 1e9 * rng.standard_normal((4, 4))
        stack = np.array([np.eye(4), rng.standard_normal((4, 4)), far, 1e9 * np.eye(4)])
        with pytest.raises(ProjectionError, match="off the Birkhoff polytope") as alone:
            project(far)
        with pytest.raises(ProjectionError, match="off the Birkhoff polytope") as stacked:
            project(stack)
        assert stacked.value.last_iterate.tobytes() == alone.value.last_iterate.tobytes()
        assert str(stacked.value) == str(alone.value)

    def test_an_overflowing_sample_does_not_jump_the_index_order(self):
        # the iterate on the 1e308 matrix overflows to NaN; the error is still
        # the earlier matrix's, and the NaN matrix alone still fails as a
        # ProjectionError
        settings = ProjectionSettings(max_iterations=50)
        slow = 3.0 * np.random.default_rng(12).standard_normal((3, 3))
        overflow = np.full((3, 3), 1e308)
        with np.errstate(all="ignore"):
            with pytest.raises(ProjectionError, match="no convergence within 50") as alone:
                project(slow, settings)
            with pytest.raises(ProjectionError, match="no convergence within 50") as stacked:
                project(np.array([slow, overflow]), settings)
            with pytest.raises(ProjectionError, match="no convergence within 50") as nan:
                project(overflow, settings)
        assert stacked.value.last_iterate.tobytes() == alone.value.last_iterate.tobytes()
        assert stacked.value.report == alone.value.report
        assert np.isnan(nan.value.last_iterate).all()
        assert np.isnan(nan.value.report.max_row_deviation)

    def test_the_callers_array_is_left_unchanged(self):
        # project works on the caller's float64 array without a conversion
        # copy, so a step that reused its start buffer would write into it
        rng = np.random.default_rng(7)
        for m in (rng.standard_normal((5, 5)), rng.standard_normal((3, 5, 5))):
            before = m.copy()
            project(m)
            assert m.tobytes() == before.tobytes()

    def test_empty_stack(self):
        out = project(np.ones((0, 3, 3)))
        assert out.shape == (0, 3, 3)


class TestBirkhoffDistance:
    def test_zero_on_the_polytope(self):
        assert birkhoff_distance(np.eye(4)) == pytest.approx(0.0, abs=1e-8)

    def test_known_distance_of_scaled_identity(self):
        m = 2.0 * np.eye(3)
        want = frobenius_distance(m, oracles.birkhoff_projection_oracle(m))
        assert birkhoff_distance(m) == pytest.approx(want, abs=1e-7)

    def test_positive_off_polytope(self):
        assert birkhoff_distance(np.zeros((3, 3))) > 0.5

    def test_stack_gives_each_matrix_distance_to_the_bit(self):
        stack = np.random.default_rng(3).standard_normal((6, 5, 5))
        got = birkhoff_distance(stack)
        assert isinstance(got, np.ndarray) and got.shape == (6,)
        assert got.tolist() == [birkhoff_distance(m) for m in stack]
        assert isinstance(birkhoff_distance(stack[0]), float)
        assert birkhoff_distance(stack[:0]).shape == (0,)


@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
@hyp_settings(max_examples=20, deadline=None)
def test_projection_lands_on_the_polytope(seed, n):
    m = np.random.default_rng(seed).standard_normal((n, n)) * 2.0
    d = project(m)
    as_dsm(d.matrix, tolerance=1e-7)  # revalidation at a looser gate must pass
    assert np.all(d.matrix >= -1e-8)


@given(st.integers(0, 2**32 - 1))
@hyp_settings(max_examples=15, deadline=None)
def test_projection_beats_any_other_feasible_point(seed):
    # the projection is the closest feasible point; compare against a few
    # random doubly stochastic competitors built by heavy sinkhorn runs
    from birkhoff_attn import sinkhorn_naive

    rng = np.random.default_rng(seed)
    m = rng.standard_normal((4, 4))
    best = frobenius_distance(m, project(m).matrix)
    for _ in range(3):
        competitor = sinkhorn_naive(rng.uniform(0.5, 2.0, (4, 4)), 41)
        assert best <= frobenius_distance(m, competitor) + 1e-6
