from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paralangevin.potentials import (
    DoubleWell,
    Free,
    Harmonic,
    LennardJonesCluster,
    MinimizationError,
    Perturbed,
    PotentialError,
    PropagatorPair,
    gradient_check,
    local_minima,
)


def _hexagon(r: float) -> np.ndarray:
    """LJ7 2D start: one atom at the origin, six on a ring of radius r."""
    coords = [(0.0, 0.0)]
    for k in range(6):
        angle = k * np.pi / 3.0
        coords.append((r * np.cos(angle), r * np.sin(angle)))
    return np.array(coords).reshape(-1)


class TestFree:
    def test_energy_zero(self):
        pot = Free()
        assert pot.energy([1.0, -5.0, 3.0]) == 0.0

    def test_gradient_zero(self):
        pot = Free()
        assert np.array_equal(pot.gradient([1.0, 2.0]), [0.0, 0.0])


class TestHarmonic:
    def test_hand_values(self):
        pot = Harmonic(k=1.0)
        assert pot.energy([2.0]) == 2.0
        assert np.array_equal(pot.gradient([2.0]), [2.0])

    def test_vector_stiffness_pins_dimension(self):
        pot = Harmonic(k=[1.0, 4.0])
        assert pot.dimension == 2
        assert pot.energy([1.0, 1.0]) == 2.5
        with pytest.raises(PotentialError):
            pot.energy([1.0, 1.0, 1.0])

    def test_rejects_nonpositive_stiffness(self):
        with pytest.raises(ValueError):
            Harmonic(k=0.0)
        with pytest.raises(ValueError):
            Harmonic(k=[1.0, -1.0])


class TestDoubleWell:
    def test_hand_values(self):
        pot = DoubleWell(a=1.0, b=1.0)
        assert pot.energy([0.0]) == 1.0  # barrier top
        assert pot.energy([1.0]) == 0.0
        assert pot.energy([-1.0]) == 0.0
        assert np.array_equal(pot.gradient([0.0]), [0.0])

    def test_gradient_formula(self):
        pot = DoubleWell(a=2.0, b=1.0)
        q = np.array([0.5])
        # dV/dq = 4 a q (q^2 - b)
        assert pot.gradient(q)[0] == pytest.approx(4.0 * 2.0 * 0.5 * (0.25 - 1.0), rel=1e-15)

    def test_axis_separable(self):
        pot = DoubleWell(a=[1.0, 2.0], b=[1.0, 4.0])
        assert pot.energy([1.0, 2.0]) == 0.0
        assert pot.energy([0.0, 0.0]) == 1.0 + 2.0 * 16.0


class TestLennardJones:
    def test_two_atoms_at_minimum_distance(self):
        pot = LennardJonesCluster(epsilon=1.0, sigma=1.0, n_atoms=2, space_dim=1)
        r0 = 2.0 ** (1.0 / 6.0)
        grad = pot.gradient([0.0, r0])
        assert np.abs(grad).max() <= 1e-12
        assert pot.energy([0.0, r0]) == pytest.approx(-1.0, rel=1e-12)

    def test_coincident_atoms_domain_error(self):
        pot = LennardJonesCluster(n_atoms=2, space_dim=2)
        with pytest.raises(PotentialError):
            pot.energy([0.0, 0.0, 0.0, 0.0])
        with pytest.raises(PotentialError):
            pot.gradient([0.0, 0.0, 0.0, 0.0])

    def test_translation_invariance(self):
        pot = LennardJonesCluster(n_atoms=7, space_dim=2)
        q = _hexagon(1.2)
        shift = np.tile([0.7, -0.3], 7)
        e0 = pot.energy(q)
        e1 = pot.energy(q + shift)
        assert e1 == pytest.approx(e0, rel=1e-12)
        g0 = pot.gradient(q)
        g1 = pot.gradient(q + shift)
        assert np.allclose(g0, g1, rtol=1e-10, atol=1e-12)

    def test_forces_sum_to_zero(self):
        pot = LennardJonesCluster(n_atoms=7, space_dim=2)
        grad = pot.gradient(_hexagon(1.2)).reshape(7, 2)
        scale = np.abs(grad).sum()
        assert np.abs(grad.sum(axis=0)).max() <= 1e-12 * max(scale, 1.0)


def _dense_r2(pot: LennardJonesCluster, q: np.ndarray):
    """Reference: the full n x n pair matrix, every pair computed twice."""
    x = q.reshape(q.shape[:-1] + (pot.n_atoms, pot.space_dim))
    diff = x[..., :, None, :] - x[..., None, :, :]
    r2 = (diff * diff).sum(axis=-1)
    if (r2[..., ~np.eye(pot.n_atoms, dtype=bool)] == 0.0).any():
        raise PotentialError("coincident atoms: pair distance is zero")
    return diff, r2


def _dense_grad(pot: LennardJonesCluster, q: np.ndarray) -> np.ndarray:
    """Reference gradient: the dense formula the pair-table kernel must equal bitwise."""
    diff, r2 = _dense_r2(pot, q)
    diag = np.arange(pot.n_atoms)
    r2[..., diag, diag] = 1.0
    u3 = (pot.sigma * pot.sigma / r2) ** 3
    coeff = (24.0 * pot.epsilon * u3 - 48.0 * pot.epsilon * u3 * u3) / r2
    coeff[..., diag, diag] = 0.0
    return (coeff[..., :, :, None] * diff).sum(axis=-2).reshape(q.shape)


def _dense_energy(pot: LennardJonesCluster, q: np.ndarray) -> float:
    _, r2 = _dense_r2(pot, q)
    u3 = (pot.sigma * pot.sigma / r2[np.triu_indices(pot.n_atoms, k=1)]) ** 3
    return float(np.sum(4.0 * pot.epsilon * (u3 * u3 - u3)))


def _same_array(got, want) -> bool:
    return (
        got.shape == want.shape
        and got.dtype == want.dtype
        and got.flags.c_contiguous
        and got.tobytes() == want.tobytes()
    )


class TestLennardJonesPinnedToDenseFormula:
    """The pair-table kernel is bitwise the dense n x n formula.

    Only the summation order can differ, and numpy's order depends on the
    memory layout: an axis contiguous in memory is summed pairwise from 8
    elements on, any other in sequence.  Hence space dimensions 1 (the
    dense j sum is contiguous), 2-4 and 8-9 (the dense component sum turns
    pairwise), atom counts on both sides of 8, single rows and stacks.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        n_atoms=st.integers(2, 11),
        space_dim=st.sampled_from([1, 2, 3, 4, 8, 9]),
        rows=st.one_of(st.none(), st.integers(0, 40)),
        sigma=st.floats(0.3, 3.0),
        epsilon=st.floats(0.1, 5.0),
        seed=st.integers(0, 2**32 - 1),
        grid=st.sampled_from([0.0, 0.25, 0.5]),
        aligned=st.booleans(),
    )
    # always run: a stack whose j sum is pairwise, a row whose component
    # sum is pairwise, and LJ-7 on the hexagon's grid with aligned atoms
    @example(n_atoms=9, space_dim=1, rows=24, sigma=1.0, epsilon=1.0, seed=1, grid=0.0, aligned=False)
    @example(n_atoms=3, space_dim=9, rows=None, sigma=1.0, epsilon=1.0, seed=2, grid=0.0, aligned=False)
    @example(n_atoms=7, space_dim=2, rows=24, sigma=0.98, epsilon=1.0, seed=3, grid=0.25, aligned=True)
    def test_bitwise_equal(
        self, n_atoms, space_dim, rows, sigma, epsilon, seed, grid, aligned
    ):
        pot = LennardJonesCluster(
            epsilon=epsilon, sigma=sigma, n_atoms=n_atoms, space_dim=space_dim
        )
        rng = np.random.default_rng(seed)
        shape = (pot.dimension,) if rows is None else (rows, pot.dimension)
        q = rng.normal(0.0, 0.6 * n_atoms ** (1.0 / space_dim), size=shape)
        if grid:
            # some components on a grid: aligned atoms give exact-zero
            # differences, as the hexagon's do
            on_grid = rng.random(shape) < 0.7
            q[on_grid] = np.round(q[on_grid] / grid) * grid
        if aligned and space_dim > 1:
            q[..., ::space_dim] = grid  # every atom on one line: all-zero j sums
        try:
            want = _dense_grad(pot, q)
        except PotentialError:
            with pytest.raises(PotentialError):
                pot._grad(q)
            return
        assert _same_array(pot._grad(q), want)
        if rows is None:
            assert _same_array(pot.gradient(q), want)
            assert np.float64(pot.energy(q)).tobytes() == np.float64(_dense_energy(pot, q)).tobytes()

    @pytest.mark.parametrize("space_dim", [1, 2, 3, 9])
    def test_coincident_atoms_raise_on_rows_and_stacks(self, space_dim):
        pot = LennardJonesCluster(n_atoms=5, space_dim=space_dim)
        rng = np.random.default_rng(space_dim)
        stack = rng.normal(0.0, 2.0, size=(6, pot.dimension))
        stack[4, 3 * space_dim : 4 * space_dim] = stack[4, :space_dim]  # atoms 0 and 3
        single = stack[4]
        for q in (single, stack):
            with pytest.raises(PotentialError):
                _dense_grad(pot, q)
            with pytest.raises(PotentialError):
                pot._grad(q)
        with pytest.raises(PotentialError):
            pot.gradient(single)
        with pytest.raises(PotentialError):
            pot.energy(single)
        assert _same_array(pot._grad(stack[:4]), _dense_grad(pot, stack[:4]))


class TestPerturbed:
    def test_lambda_zero_bitwise(self):
        base = DoubleWell(a=1.0, b=1.0)
        delta = Harmonic(k=0.3)
        pot = Perturbed(base=base, delta=delta, lam=0.0)
        q = np.array([0.7123456])
        assert pot.energy(q) == base.energy(q)
        assert np.array_equal(pot.gradient(q), base.gradient(q))

    def test_exactly_linear_in_lambda(self):
        base = DoubleWell(a=1.0, b=1.0)
        delta = Harmonic(k=0.5)
        q = np.array([0.9])
        for lam in (0.25, 1.0, -2.0):
            pot = Perturbed(base=base, delta=delta, lam=lam)
            assert pot.energy(q) == base.energy(q) + lam * delta.energy(q)
            assert np.array_equal(
                pot.gradient(q), base.gradient(q) + lam * delta.gradient(q)
            )

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_raw_gradient_on_stacks_and_floats(self, lam):
        lj = Perturbed(
            base=LennardJonesCluster(n_atoms=4, space_dim=2),
            delta=Harmonic(k=[0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]),
            lam=lam,
        )
        rows = np.random.default_rng(5).normal(0.0, 1.5, size=(7, 8))
        want = np.array([lj.gradient(row) for row in rows])
        assert _same_array(lj._grad(rows), want)
        dw = Perturbed(base=DoubleWell(a=1.0, b=1.0), delta=Harmonic(k=0.7), lam=lam)
        for x in (0.6, -1.3):
            got = dw._grad(x)
            assert type(got) is float
            assert np.float64(got).tobytes() == dw.gradient(np.array([x])).tobytes()

    def test_incompatible_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Perturbed(
                base=LennardJonesCluster(n_atoms=2, space_dim=2),
                delta=Harmonic(k=[1.0, 1.0, 1.0]),
                lam=0.5,
            )


class TestGradientCheck:
    def test_harmonic(self):
        assert gradient_check(Harmonic(k=1.0), [1.7, -0.4], h=1e-5) < 1e-8

    def test_double_well(self):
        assert gradient_check(DoubleWell(a=1.0, b=1.0), [0.5], h=1e-5) < 1e-8

    def test_lj7_near_minimum(self):
        pot = LennardJonesCluster(n_atoms=7, space_dim=2)
        q = _hexagon(2.0 ** (1.0 / 6.0))
        assert gradient_check(pot, q, h=1e-6) < 1e-5

    def test_perturbed(self):
        pot = Perturbed(base=DoubleWell(a=1.0, b=1.0), delta=Harmonic(k=0.3), lam=0.8)
        assert gradient_check(pot, [0.6], h=1e-5) < 1e-8


class TestLocalMinima:
    def test_double_well_two_basins(self):
        minima = local_minima(DoubleWell(a=1.0, b=1.0), [[-2.0], [2.0]], tol=1e-8)
        assert len(minima) == 2
        assert minima[0][0] == pytest.approx(-1.0, abs=1e-7)
        assert minima[1][0] == pytest.approx(1.0, abs=1e-7)

    def test_harmonic_single_minimum(self):
        minima = local_minima(Harmonic(k=1.0), [[5.0]], tol=1e-10)
        assert len(minima) == 1
        assert abs(minima[0][0]) <= 1e-10

    def test_deduplicates_within_tol(self):
        minima = local_minima(DoubleWell(a=1.0, b=1.0), [[2.0], [1.5], [-2.0]], tol=1e-6)
        assert len(minima) == 2

    def test_lj7_hexagon(self):
        pot = LennardJonesCluster(n_atoms=7, space_dim=2)
        rng = np.random.default_rng(3)
        start = _hexagon(1.15) + 0.03 * rng.standard_normal(14)
        start -= np.tile(start.reshape(7, 2).mean(axis=0), 7)
        (minimum,) = local_minima(pot, [start], tol=1e-6)
        assert np.linalg.norm(pot.gradient(minimum)) <= 1e-6
        assert pot.energy(minimum) < pot.energy(start)

    def test_nonconvergence_names_start(self):
        with pytest.raises(MinimizationError) as err:
            local_minima(DoubleWell(a=1.0, b=1.0), [[2.0]], tol=1e-12, max_iter=1)
        assert "2.0" in str(err.value)


class TestPropagatorPair:
    def test_valid(self):
        pair = PropagatorPair(
            fine=DoubleWell(a=1.0, b=1.0),
            coarse=DoubleWell(a=0.9, b=1.0),
            cost_fine=175.0,
            cost_coarse=1.0,
        )
        assert pair.cost_fine == 175.0

    def test_cost_ordering_enforced(self):
        with pytest.raises(ValueError):
            PropagatorPair(
                fine=Free(), coarse=Free(), cost_fine=1.0, cost_coarse=2.0
            )
        with pytest.raises(ValueError):
            PropagatorPair(fine=Free(), coarse=Free(), cost_fine=1.0, cost_coarse=0.0)

    def test_dimension_compatibility(self):
        with pytest.raises(ValueError):
            PropagatorPair(
                fine=LennardJonesCluster(n_atoms=2, space_dim=2),
                coarse=Harmonic(k=[1.0, 1.0, 1.0]),
                cost_fine=2.0,
                cost_coarse=1.0,
            )
