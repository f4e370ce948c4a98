"""Radius and Crawford enclosures, seminorm, Monte Carlo oracles, intervals."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiradius import functionals
from semiradius.errors import BadConfig, NoConvergence, NonSquare
from semiradius.functionals import (
    Enclosure,
    RadiusOptions,
    a_numerical_radius,
    crawford,
    crawford_number,
    iabs,
    iadd,
    imax,
    imin,
    imul,
    ipoint,
    iscale,
    isqrt,
    isub,
    matrix_norms,
    mc_crawford_upper,
    mc_radius_lower,
    numerical_radius,
    op_seminorm,
    radii_and_crawford_numbers,
)
from semiradius.kernel import spectral_norm, spectral_norms
from semiradius.space import build_space

SHIFT = np.array([[0.0, 1.0], [0.0, 0.0]])
JORDAN = np.array([[1.0, 1.0], [0.0, 1.0]])
A_DEG = np.diag([2.0, 0.0])
T_LOWER = np.array([[1.0, 0.0], [5.0, 3.0]])


def random_matrix(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestNumericalRadius:
    def test_nilpotent_shift_is_half(self):
        enc = numerical_radius(SHIFT)
        assert enc.lo <= 0.5 <= enc.hi
        assert enc.width <= 1e-9 * 1.5 + 1e-15

    def test_hermitian_is_top_absolute_eigenvalue(self):
        enc = numerical_radius(np.diag([-3.0, 2.0]))
        assert enc.lo <= 3.0 <= enc.hi
        assert enc.width <= 1e-11
        assert enc.method == "exact"

    def test_skew_hermitian_shortcut(self):
        enc = numerical_radius(np.array([[0.0, 2.0], [-2.0, 0.0]]))
        assert enc.lo <= 2.0 <= enc.hi and enc.width <= 1e-11

    def test_scalar_matrix(self):
        enc = numerical_radius(np.array([[3.0 + 4.0j]]))
        assert enc.lo <= 5.0 <= enc.hi and enc.width <= 1e-10

    def test_zero_matrix(self):
        enc = numerical_radius(np.zeros((3, 3)))
        assert enc.lo == enc.hi == 0.0

    def test_empty_matrix(self):
        enc = numerical_radius(np.zeros((0, 0)))
        assert enc.lo == enc.hi == 0.0

    def test_rejects_non_square(self):
        with pytest.raises(NonSquare):
            numerical_radius(np.ones((2, 3)))
        with pytest.raises(NonSquare):
            radii_and_crawford_numbers([np.ones((1, 2, 3))], [])

    def test_rejects_non_finite(self):
        with pytest.raises(NoConvergence):
            numerical_radius(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_deterministic(self):
        M = random_matrix(5, 4)
        a, b = numerical_radius(M), numerical_radius(M)
        assert a.lo == b.lo and a.hi == b.hi

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    @settings(max_examples=30)
    def test_sandwich_and_gap(self, seed, n):
        M = random_matrix(seed, n)
        norm = spectral_norm(M)
        opts = RadiusOptions()
        enc = numerical_radius(M, opts)
        slack = 1e-12 * (1.0 + norm)
        assert enc.hi <= norm + opts.resolve_gap(norm) + slack
        assert enc.lo >= 0.5 * norm - slack
        assert enc.width <= opts.resolve_gap(norm) + slack

    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    @settings(max_examples=25)
    def test_contains_monte_carlo_lower_bound(self, seed, n):
        M = random_matrix(seed, n)
        sp = build_space(np.eye(n))
        enc = numerical_radius(M)
        mc = mc_radius_lower(sp, M, samples=2000, seed=seed)
        assert mc <= enc.hi + 1e-12 * (1.0 + enc.hi)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.floats(-4.0, 4.0))
    @settings(max_examples=25)
    def test_absolute_homogeneity(self, seed, n, c):
        M = random_matrix(seed, n)
        e1, e2 = numerical_radius(M), numerical_radius(c * M)
        scaled = iscale(abs(c), e1)
        pad = 1e-10 * (1.0 + abs(c)) * (1.0 + e1.hi)
        assert scaled.lo - pad <= e2.hi and e2.lo <= scaled.hi + pad


def mixed_stack(seed: int) -> list:
    """Matrices of several sizes, with shortcut, exact and grid cases."""
    rng = np.random.default_rng(seed)
    mats = [random_matrix(seed + n, n) for n in (1, 2, 3, 4, 6, 3, 4)]
    H = rng.standard_normal((3, 3))
    mats += [H + H.T, 1j * (H + H.T), np.diag([1.0, -2.0j]), SHIFT, JORDAN, np.zeros((0, 0))]
    # Flat radius objectives, closed by the dual certificate.
    mats += [shifted_jordan(seed, 4, 0.0), shifted_jordan(seed, 3, 0.0)]
    return mats


def as_stacks(mats) -> list:
    """The matrices as (k, m, m) stacks, one per run of equal sizes."""
    stacks = []
    for M in mats:
        if stacks and stacks[-1].shape[1:] == M.shape:
            stacks[-1] = np.concatenate([stacks[-1], M[None]])
        else:
            stacks.append(np.asarray(M, dtype=np.complex128)[None])
    return stacks


def rows(encs) -> list:
    return [encs[i] for i in range(encs.lo.size)]


def same(a: Enclosure, b: Enclosure) -> bool:
    return (a.lo, a.hi, a.method) == (b.lo, b.hi, b.method)


class TestStackedSolves:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_each_enclosure_is_the_one_it_gets_alone(self, seed):
        mats = mixed_stack(seed)
        radii, crawfords = map(rows, radii_and_crawford_numbers(as_stacks(mats), as_stacks(mats[::-1])))
        assert all(same(r, numerical_radius(M)) for r, M in zip(radii, mats))
        assert all(same(c, crawford_number(M)) for c, M in zip(crawfords, mats[::-1]))
        alone = rows(radii_and_crawford_numbers(as_stacks(mats), [])[0])
        alone += rows(radii_and_crawford_numbers([], as_stacks(mats[::-1]))[1])
        assert all(same(a, b) for a, b in zip(alone, radii + crawfords, strict=True))

    def test_mixed_size_stacks_equal_each_matrix_alone(self):
        # Stacks of one size are joined across the list, between stacks of
        # other sizes; each row keeps its place in the output.
        stacks = [np.stack([random_matrix(10 * m + j, m) for j in range(3)]) for m in (3, 2, 3, 1, 4, 2)]
        mats = [M for S in stacks for M in S]
        radii, crawfords = map(rows, radii_and_crawford_numbers(stacks, stacks[::-1]))
        assert all(same(r, numerical_radius(M)) for r, M in zip(radii, mats, strict=True))
        backwards = [M for S in stacks[::-1] for M in S]
        assert all(same(c, crawford_number(M)) for c, M in zip(crawfords, backwards, strict=True))
        norms = rows(matrix_norms(stacks))
        assert all(same(n, matrix_norms([M[None]])[0]) for n, M in zip(norms, mats, strict=True))

    @pytest.mark.parametrize("rounds", [1, 3])
    def test_round_budget_ends_each_matrix_as_alone(self, rounds, monkeypatch):
        # Matrices that run out of rounds keep their last bounds, next to
        # matrices that finished earlier in the same search.
        monkeypatch.setattr(functionals, "DEFAULT_MAX_ROUNDS", rounds)
        mats = mixed_stack(0)
        radii, crawfords = map(rows, radii_and_crawford_numbers(as_stacks(mats), as_stacks(mats)))
        assert all(same(r, numerical_radius(M)) for r, M in zip(radii, mats, strict=True))
        assert all(same(c, crawford_number(M)) for c, M in zip(crawfords, mats, strict=True))

    def test_non_finite_matrix_in_a_stack_raises(self):
        stack = np.stack([random_matrix(0, 3), np.full((3, 3), np.nan), random_matrix(1, 3)])
        for radius_stacks, crawford_stacks in (([stack], []), ([], [stack])):
            with pytest.raises(NoConvergence):
                radii_and_crawford_numbers(radius_stacks, crawford_stacks)
        with pytest.raises(NoConvergence):
            matrix_norms([random_matrix(2, 2)[None], stack])

    def test_cells_evaluated_in_chunks_give_the_same_enclosures(self, monkeypatch):
        # A flat objective keeps every cell, so the chunks split matrices.
        # Two flat 4 x 4 radius matrices also split the dual certificate.
        mats = [JORDAN + 0.3 * np.eye(2), random_matrix(4, 4), shifted_jordan(4, 4, 0.0), shifted_jordan(5, 4, 0.0)]
        mats.append(np.diag(np.ones(2), 1) + 0j)
        stacks = as_stacks(mats)
        whole = radii_and_crawford_numbers(stacks, stacks)
        monkeypatch.setattr(functionals, "_CHUNK_BYTES", 512)
        chunked = radii_and_crawford_numbers(stacks, stacks)
        for a, b in zip(rows(whole[0]) + rows(whole[1]), rows(chunked[0]) + rows(chunked[1]), strict=True):
            assert same(a, b)

    def test_hull_points_in_chunks_give_the_same_crawford_enclosures(self, monkeypatch):
        # Crawford matrices of one size whose ranges miss 0 step together,
        # so small chunks split the point pairs of their inner polygons.
        mats = [random_matrix(60 + i, 5) / 3.0 + (2.0 + i) * np.eye(5) for i in range(4)]
        mats += [shifted_jordan(70 + i, 5, 1.5, phi=0.7 * i) for i in range(3)]
        stacks = as_stacks(mats)
        whole = rows(radii_and_crawford_numbers([], stacks)[1])
        monkeypatch.setattr(functionals, "_CHUNK_BYTES", 512)
        chunked = rows(radii_and_crawford_numbers([], stacks)[1])
        assert all(same(a, b) for a, b in zip(whole, chunked, strict=True))
        assert all(e.lo > 0.0 for e in whole)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_antidiagonal_blocks_agree_with_the_general_search(self, seed):
        # [[0, X], [Y, 0]] is searched through its corner; a unitary
        # conjugate of it, which hides the structure, is searched in full.
        X, Y = random_matrix(seed, 3), random_matrix(seed + 10, 3)
        B = np.block([[np.zeros((3, 3)), X], [Y, np.zeros((3, 3))]])
        U = np.linalg.qr(random_matrix(seed + 20, 6))[0]
        block, hidden = rows(radii_and_crawford_numbers([np.stack([B, U @ B @ U.conj().T])], [])[0])
        assert block.lo <= hidden.hi and hidden.lo <= block.hi
        # antidiag(X, X) is unitarily similar to diag(X, -X).
        same_radius = numerical_radius(np.block([[np.zeros((3, 3)), X], [X, np.zeros((3, 3))]]))
        alone = numerical_radius(X)
        assert same_radius.lo <= alone.hi and alone.lo <= same_radius.hi

    def test_transposed_input(self):
        M = random_matrix(3, 3)
        assert same(numerical_radius(M.T), numerical_radius(np.ascontiguousarray(M.T)))
        assert same(crawford_number(M.T), crawford_number(np.ascontiguousarray(M.T)))

    def test_empty_request_lists(self):
        radii, crawfords = radii_and_crawford_numbers([], [])
        assert rows(radii) == [] and rows(crawfords) == []
        assert rows(matrix_norms([])) == []


def shifted_jordan(seed: int, n: int, c: float, phi: float = 0.0) -> np.ndarray:
    """exp(i phi) U (J_n + c I) U*, whose numerical range is the disk of
    radius cos(pi / (n + 1)) about c exp(i phi)."""
    U = np.linalg.qr(random_matrix(seed, n))[0]
    return np.exp(1j * phi) * (U @ (np.diag(np.ones(n - 1), 1) + c * np.eye(n)) @ U.conj().T)


def hidden(seed: int, M: np.ndarray) -> np.ndarray:
    """U M U* for a random unitary U, which hides the structure of M."""
    U = np.linalg.qr(random_matrix(seed, M.shape[0]))[0]
    return U @ M @ U.conj().T


def jordan(n: int) -> np.ndarray:
    return np.diag(np.ones(n - 1), 1).astype(np.complex128)


def weighted_shift(seed: int, weights) -> np.ndarray:
    """The weighted shift W with the given weights, hidden.  The range of W
    is a disk about 0, so its radius is the top eigenvalue of Re W."""
    return hidden(seed, np.diag(np.asarray(weights, dtype=np.complex128), 1))


def disk_radius(weights) -> float:
    W = np.diag(np.asarray(weights, dtype=np.float64), 1)
    return float(np.linalg.eigvalsh(0.5 * (W + W.T))[-1])


def block_diagonal(*blocks) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out, i = np.zeros((n, n), dtype=np.complex128), 0
    for b in blocks:
        out[i : i + b.shape[0], i : i + b.shape[0]] = b
        i += b.shape[0]
    return out


class TestHalfCircleSearch:
    @pytest.mark.parametrize("grid", [4, 5])
    def test_coarse_grids_enclose_the_disk_values(self, grid):
        # Rotations move the extremes to angles of either half turn.
        cases = [(n, c, phi) for n in (2, 3, 5, 8) for c in (0.7, 2.5) for phi in (0.0, 1.0, 2.5, -2.0)]
        cases.append((3, 0.0, 0.0))
        stacks = as_stacks([shifted_jordan(7 * n + i, n, c, phi) for i, (n, c, phi) in enumerate(cases)])
        radii, crawfords = map(rows, radii_and_crawford_numbers(stacks, stacks, RadiusOptions(grid_count=grid)))
        for (n, c, _), w, cr in zip(cases, radii, crawfords, strict=True):
            r = math.cos(math.pi / (n + 1))
            assert w.lo <= c + r <= w.hi
            assert cr.lo <= max(c - r, 0.0) <= cr.hi

    def test_one_eigensolve_serves_both_half_turns(self, eigensolves, monkeypatch):
        # The range of U J_4 U* is a disk about 0: every angle is a
        # maximizer, so no rotation cap prunes a cell and the dual
        # certificate closes the search at round 0.
        counted = eigensolves
        enc = numerical_radius(shifted_jordan(0, 4, 0.0))
        assert enc.lo <= math.cos(math.pi / 5) <= enc.hi
        assert counted[0] <= 1_000

    @pytest.mark.parametrize(
        "M, value",
        [
            (random_matrix(0, 32), None),
            (shifted_jordan(9, 16, 1.3, phi=0.4321), 1.3 + math.cos(math.pi / 17)),
        ],
        ids=["ginibre32", "J16+cI"],
    )
    def test_support_lines_prune_most_round_zero_cells(self, M, value, eigensolves, monkeypatch):
        # Round 0 alone has 128 cells at the default grid; the support lines
        # through 8 of its angles per half turn leave most of them unsolved.
        counted = eigensolves
        enc = numerical_radius(M)
        assert 0 < counted[0] <= 80 and counted[1] == 0
        if value is not None:
            assert enc.lo <= value <= enc.hi

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("grid", [64, 256])
    @pytest.mark.parametrize("gap_scale", [1e-9, 1e-3, 0.3])
    def test_ranges_flat_only_on_the_subgrid_keep_their_peaks(self, n, grid, gap_scale):
        # The eigenvalues exp(i (pi/16 + 2 pi k / n)) of a hidden normal
        # matrix give every angle of the subgrid of 8 the value cos(pi/16);
        # the radius 1 is attained only between them.
        M = hidden(n, np.diag(np.exp(1j * (np.pi / 16 + 2 * np.pi / n * np.arange(n)))))
        enc = numerical_radius(M, RadiusOptions(grid_count=grid, gap_scale=gap_scale))
        assert enc.lo <= 1.0 <= enc.hi

    @pytest.mark.parametrize("grid", [18, 33, 64])
    def test_unsolved_round_zero_cells_keep_the_bits(self, grid, eigensolves, monkeypatch):
        # Grids whose half circles (9, 17, 32 cells) the subgrid of 8 does
        # and does not divide, against every round-0 cell solved.
        X, Y = random_matrix(40, 4), random_matrix(41, 4)
        antidiagonal = np.block([[np.zeros((4, 4)), X], [Y, np.zeros((4, 4))]])
        mats = [random_matrix(30 + n, n) for n in (3, 5, 8, 16)]
        mats += [shifted_jordan(n, n, 0.8, phi=0.1 * n) for n in (4, 6, 12)]
        mats += [antidiagonal, 1e8 * random_matrix(42, 6)]
        stacks, opts = as_stacks(mats), RadiusOptions(grid_count=grid)
        counted = eigensolves
        sifted = rows(radii_and_crawford_numbers(stacks, [], opts)[0])
        solved = counted[0]
        counted.reset()
        monkeypatch.setattr(functionals, "_SUBGRID", grid)
        whole = rows(radii_and_crawford_numbers(stacks, [], opts)[0])
        assert all(same(a, b) for a, b in zip(sifted, whole, strict=True))
        assert solved < counted[0]

    def test_second_level_solves_fewer_ginibre_cells(self, eigensolves, monkeypatch):
        # Eigensolved matrices per 32 x 32 Ginibre matrix, seeds 0-9: 63.9
        # on average with one level of support lines, 52.4 with two.
        counted = eigensolves
        solved = []
        for seed in range(10):
            counted.reset()
            numerical_radius(random_matrix(seed, 32))
            solved.append(counted[0])
        assert 0 < min(solved) and np.mean(solved) <= 51 and counted[1] == 0

    @pytest.mark.parametrize("grid", [33, 64, 66, 256, 512])
    def test_second_level_keeps_the_bits(self, grid, eigensolves, monkeypatch):
        # Pencils of at least 16 rows, alone and in stacks with a flat
        # range, against one level and against every round-0 cell solved;
        # at grid 33 the finer subgrid leaves one of 17 cells.  Ranges far
        # from 0 make h(t) and h(t + pi) differ widely.  Pencils of at
        # least 32 rows (the 64 x 64 antidiagonal one among them) sift in
        # three levels at grids above 64; at grid 66 the finest subgrid
        # leaves one of 33 cells.
        X, Y = random_matrix(43, 16), random_matrix(44, 16)
        antidiagonal = np.block([[np.zeros((16, 16)), X], [Y, np.zeros((16, 16))]])
        X, Y = random_matrix(46, 32), random_matrix(47, 32)
        antidiagonal32 = np.block([[np.zeros((32, 32)), X], [Y, np.zeros((32, 32))]])
        mats = [random_matrix(50, 16), shifted_jordan(60, 16, 0.0), shifted_jordan(16, 16, 0.8, phi=1.3)]
        mats += [shifted_jordan(i, 16, c, phi=0.05 + 0.31 * i) for i, c in ((5, 2.0), (11, 5.0), (14, 20.0))]
        mats += [random_matrix(304, 16) + (3 + 4j) * np.eye(16), 1e8 * random_matrix(45, 16)]
        mats += [random_matrix(51, 24), shifted_jordan(25, 24, 5.0, phi=7.8), 1e-8 * shifted_jordan(20, 20, 2.5, phi=0.7)]
        mats += [random_matrix(52, 32), shifted_jordan(32, 32, 0.1, phi=2.0), shifted_jordan(44, 32, 20.0, phi=13.69)]
        mats += [random_matrix(305, 32) + (3 - 4j) * np.eye(32), 1e8 * random_matrix(48, 32)]
        mats += [1e-8 * shifted_jordan(21, 32, 2.5, phi=0.6), 1e-8 * random_matrix(55, 32)]
        mats += [random_matrix(54, 40), shifted_jordan(41, 40, 3.0, phi=4.4)]
        mats += [antidiagonal, antidiagonal32]
        stacks, opts = as_stacks(mats), RadiusOptions(grid_count=grid)
        counted = eigensolves
        two = rows(radii_and_crawford_numbers(stacks, [], opts)[0])
        solved = [counted[0]]
        for name, value in (("_FINE_M", 10**9), ("_SUBGRID", grid)):
            counted.reset()
            monkeypatch.setattr(functionals, name, value)
            other = rows(radii_and_crawford_numbers(stacks, [], opts)[0])
            assert all(same(a, b) for a, b in zip(two, other, strict=True))
            solved.append(counted[0])
        assert solved[0] < solved[1] < solved[2]


FLAT = {
    "J6": (shifted_jordan(1, 6, 0.0), math.cos(math.pi / 7), 1e-9),
    "J8": (shifted_jordan(2, 8, 0.0), math.cos(math.pi / 9), 1e-9),
    "J12": (shifted_jordan(3, 12, 0.0), math.cos(math.pi / 13), 1e-9),
    "shift5": (weighted_shift(4, [1.0, 2.0, 0.5, 3.0]), disk_radius([1.0, 2.0, 0.5, 3.0]), 1e-9),
    "shift12-gap1e-12": (
        weighted_shift(5, np.linspace(0.3, 2.0, 11)),
        disk_radius(np.linspace(0.3, 2.0, 11)),
        1e-12,
    ),
}


class TestDualCertificate:
    @pytest.mark.parametrize("name", list(FLAT))
    def test_flat_ranges_close_at_round_zero(self, name, eigensolves, monkeypatch):
        M, value, gap_scale = FLAT[name]
        opts = RadiusOptions(gap_scale=gap_scale)
        counted = eigensolves
        enc = numerical_radius(M, opts)
        assert enc.lo <= value <= enc.hi
        assert enc.width <= opts.resolve_gap(spectral_norm(M))
        assert counted[0] <= 1_000

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=40)
    def test_every_hermitian_z_bounds_the_radius(self, seed, n):
        rng = np.random.default_rng(seed)
        M = random_matrix(seed, n) * 10.0 ** rng.uniform(-3, 3)
        Z = random_matrix(seed + 1, n) * 10.0 ** rng.uniform(-3, 3)
        Z = Z + Z.conj().T
        bound = functionals._top(np.linalg.eigvalsh(functionals._ando(Z[None], M[None])))[0]
        X = rng.standard_normal((n, 512)) + 1j * rng.standard_normal((n, 512))
        X /= np.linalg.norm(X, axis=0)
        assert bound >= np.abs(np.einsum("ia,ij,ja->a", X.conj(), M, X)).max()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_fit_from_any_lower_bound_is_an_upper_bound(self, seed):
        # The fit's right-hand side uses the running lower bound; a wrong
        # one only loosens the certificate.
        M = random_matrix(seed, 4)
        P, K = functionals._pencil(M[None])
        pencils = functionals._Pencils(P, K, None)
        ts = np.pi / 8 * np.arange(8)
        radius = numerical_radius(M)
        for lower in (0.0, 0.5 * radius.lo, radius.lo, 2.0 * radius.hi):
            cap = pencils.dual(np.array([0]), ts, np.array([lower]), np.array([0.0]))
            assert cap[0] >= radius.lo

    @pytest.mark.parametrize(
        "name, M, value, gate",
        [
            ("J4+J3", hidden(6, block_diagonal(jordan(4), jordan(3))), math.cos(math.pi / 5), True),
            ("J6+1e-4G", hidden(7, jordan(6) + 1e-4 * random_matrix(8, 6)), None, False),
            ("J6+1e-6G", hidden(7, jordan(6) + 1e-6 * random_matrix(8, 6)), None, True),
        ],
    )
    def test_loose_certificates_fall_back_to_the_search(self, name, M, value, gate, dual_attempts, monkeypatch):
        opts = RadiusOptions()
        enc = numerical_radius(M, opts)
        assert dual_attempts[0] == (1 if gate else 0)
        assert enc.width <= opts.resolve_gap(spectral_norm(M))
        if value is not None:
            assert enc.lo <= value <= enc.hi
        # With the flat gate off, no matrix gets a certificate: the plain
        # cell search decides, and its enclosure overlaps the certified one.
        monkeypatch.setattr(functionals, "_flat", lambda V, hw, gap: np.zeros(len(V), dtype=bool))
        alone = numerical_radius(M, opts)
        assert dual_attempts[0] == (1 if gate else 0)
        assert enc.lo <= alone.hi and alone.lo <= enc.hi


class TestBudget:
    @pytest.mark.parametrize(
        "M, value, gap_scale",
        [
            (hidden(6, block_diagonal(jordan(4), jordan(3))), math.cos(math.pi / 5), 1e-12),
            (weighted_shift(9, 2.0 ** np.arange(-7, 8)), disk_radius(2.0 ** np.arange(-7, 8)), 1e-9),
        ],
        ids=["J4+J3-gap1e-12", "graded-shift16"],
    )
    def test_hard_flat_ranges_stay_within_the_budget(self, M, value, gap_scale, eigensolves):
        # Disks about 0 whose dual certificate misses its gap refine every
        # cell, four times more per round, until the cell budget runs out:
        # the enclosure is then sound but wider than the gap.
        enc = numerical_radius(M, RadiusOptions(gap_scale=gap_scale))
        assert enc.lo <= value <= enc.hi
        assert eigensolves.total <= functionals._MAX_CELLS + 2 * functionals.DEFAULT_GRID
        assert enc.width <= 1e-6


def direct_off(monkeypatch) -> None:
    """Patch the Crawford direct step to settle no matrix: every matrix
    with a nonzero diagonal enters the inner polygon search."""

    def none(M, rows, out):
        P, K = functionals._pencil(M)
        return np.arange(len(M)), P, K, spectral_norms(M)

    monkeypatch.setattr(functionals, "_crawford_direct", none)


def search_values(M: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The Crawford values max(lambda_min, -lambda_max) of H(t) of M at the
    angles ts, as the search computes them."""
    P, K = functionals._pencil(M[None])
    pencils = functionals._Pencils(P, K, np.array([spectral_norm(M)]), M[None])
    wmin, wmax = pencils.extremes(np.zeros(ts.size, dtype=np.intp), ts)
    return np.maximum(wmin, -wmax)


def hull_cap(points: np.ndarray, m: int, norm: float) -> float:
    """The Crawford upper end that the search takes from the inner polygon
    of points, before the evaluation pad: 0 where it holds 0, else its
    distance from 0 padded for the rounding of computed points."""
    z = points[None]
    if functionals._holds_zero(z)[0]:
        return 0.0
    return float(abs(functionals._nearest(z)[0][0])) + (4 * m + 16) * functionals._EPS * (1.0 + norm)


class TestCrawfordWork:
    def test_range_containing_zero_solves_no_eigenvectors(self, eigensolves, monkeypatch):
        # The diagonal points of a Ginibre matrix surround 0: c = 0 with no
        # eigensolve.  The search itself settles the same enclosure from
        # its probe of eigenvectors.
        M = random_matrix(16, 16)
        enc = crawford_number(M)
        assert enc.lo == 0.0 and enc.hi <= 1e-11 and enc.method == "grid"
        assert eigensolves.total == 0
        direct_off(monkeypatch)
        searched = crawford_number(M)
        assert same(enc, searched)
        assert eigensolves.eigvalsh == 0 and eigensolves.eigh == functionals._PROBE

    @pytest.mark.parametrize(
        "seed, n, grid, solves",
        [(16, 16, 256, 0), (0, 32, 256, 0), (0, 2, 256, 4), (5, 2, 16, 4), (16, 16, 16, 0), (0, 32, 8, 0)],
        ids=["16-16", "0-32", "0-2", "5-2-grid16", "16-16-grid16", "0-32-grid8"],
    )
    def test_wide_disk_about_zero_takes_four_eigensolves(self, seed, n, grid, solves, eigensolves):
        # The diagonal points of the 16 x 16 and 32 x 32 matrices surround
        # 0, at every grid: no eigensolve.  Those of 2 x 2 matrices span a
        # segment, and the probe, 4 eigensolves with eigenvectors, settles
        # 0.
        enc = crawford_number(random_matrix(seed, n), RadiusOptions(grid_count=grid))
        assert enc.lo == 0.0 and enc.hi <= 1e-11 and enc.method == "grid"
        assert eigensolves[0] == eigensolves[1] == solves

    def test_narrow_disk_about_zero_settles_in_a_few_steps(self, eigensolves):
        # The range, the disk of radius r about 0.95 r exp(i pi / 8), holds
        # 0 near its edge; the inner polygon closes around 0 in a few steps.
        n = 16
        r = math.cos(math.pi / (n + 1))
        enc = crawford_number(shifted_jordan(11, n, 0.95 * r, phi=math.pi / 8))
        assert enc.lo == 0.0 and enc.hi <= 1e-11
        assert eigensolves.eigvalsh == 0 and eigensolves.eigh <= functionals._PROBE + 2 * 8

    @pytest.mark.parametrize("c", [1.3, 2.0, 4.0])
    def test_eigenvectors_only_near_the_maximizer_either_way(self, c, eigensolves):
        # A disk missing 0: after the probe, the disk fit aims at the
        # maximizer exactly, so the gap is met one step later.  Coarse and
        # fine grids give the same enclosure: the polygon takes no grid.
        n = 16
        M, value = shifted_jordan(9, n, c, phi=0.4321), c - math.cos(math.pi / (n + 1))
        encs = [crawford_number(M, RadiusOptions(grid_count=grid)) for grid in (4, 256)]
        assert same(*encs)
        enc = encs[0]
        assert enc.lo <= value <= enc.hi and enc.width <= RadiusOptions().resolve_gap(spectral_norm(M))
        assert eigensolves.eigvalsh == 0 and eigensolves.eigh <= 2 * (functionals._PROBE + 2)


def sift_sweep() -> list:
    """Crawford matrices whose ranges hold 0 widely or barely, or miss it
    barely or widely, shifted Ginibre matrices and extreme scales."""
    mats = []
    for n in (3, 5, 8, 16):
        r = math.cos(math.pi / (n + 1))
        for k, c in enumerate((0.5 * r, r * (1 - 1e-9), r * (1 + 1e-9), 1.3 * r, 3.0)):
            mats.append(shifted_jordan(10 * n + k, n, c, phi=0.2345 + 0.9 * k))
    mats += [random_matrix(70 + n, n) / math.sqrt(2 * n) + (2.5 + 1j) * np.eye(n) for n in (3, 6, 12)]
    mats += [random_matrix(80, 4) + (2.5 + 1j) * np.eye(4)]
    mats += [scale * M for scale in (1e-8, 1e8) for M in mats[3::6]]
    return mats


class TestCrawfordSift:
    @pytest.mark.parametrize("grid", [18, 33, 64, 256])
    def test_sifted_rows_keep_their_bits(self, grid):
        # The work a search skips keeps the bits: ranges holding 0 widely
        # or barely, missing it barely or widely, shifted Ginibre matrices
        # and extreme scales, in stacks of several sizes, against each
        # solved alone; every enclosure meets its gap.
        mats = sift_sweep()
        opts = RadiusOptions(grid_count=grid)
        stacked = rows(radii_and_crawford_numbers([], as_stacks(mats), opts)[1])
        for enc, M in zip(stacked, mats, strict=True):
            assert same(enc, crawford_number(M, opts))
            assert enc.width <= opts.resolve_gap(spectral_norm(M)) + 4e-13 * (1.0 + spectral_norm(M))

    def test_hidden_jordan_solves_few_cells(self, eigensolves):
        # 64 round-0 cells at grid 128 in a cell search; the inner polygon
        # eigensolves a handful of angles, none without eigenvectors.
        n, c = 16, 1.5
        enc = crawford_number(shifted_jordan(12, n, c), RadiusOptions(grid_count=128))
        assert eigensolves.total - eigensolves.eigh <= 24
        assert enc.lo <= c - math.cos(math.pi / (n + 1)) <= enc.hi

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_point_bounds_cover_the_computed_values(self, seed, monkeypatch):
        # Normal matrices, and the points their search attains: the hull
        # distance of those points bounds every computed Crawford value,
        # and lies below the upper end the search gives.
        rng = np.random.default_rng(seed)
        ts = np.pi / 512 * np.arange(512)
        kept = []
        add = functionals._Inner.add

        def keeping(self, rows, ts, wmin, wmax, qmin, qmax, *z):
            kept.append(np.concatenate([qmin.ravel(), qmax.ravel()]))
            return add(self, rows, ts, wmin, wmax, qmin, qmax, *z)

        monkeypatch.setattr(functionals._Inner, "add", keeping)
        for n in (3, 8, 16):
            D = np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n) + 3.0)
            for scale in (1.0, 1e-8, 1e8):
                A = scale * hidden(seed + n, D)
                kept.clear()
                crawford_number(A)
                norm = spectral_norm(A)
                values = search_values(A, ts)
                cap = hull_cap(np.concatenate([np.diag(A)] + kept), n, norm)
                enc = crawford_number(A)
                assert (cap >= values).all() and cap <= enc.hi

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shift", [3.0, 0.0])
    def test_diagonal_bounds_cover_the_computed_values(self, seed, shift):
        # Diagonal matrices D, whose ranges, the hulls of points centered
        # at shift, miss 0 (shift 3) or hold it (shift 0): the distance of
        # the diagonal points' hull, with the evaluation pad, bounds the
        # computed values of D and of U D U*, whose range is the same and
        # whose eigenvalues carry rounding errors; the largest sampled
        # value comes within the sampling's reach of it (the value, a
        # minimum of cosines, falls off linearly from its peak).
        rng = np.random.default_rng(seed)
        ts = np.pi / 512 * np.arange(512)
        for n in (2, 3, 8, 16):
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            d = z - z.mean() + shift
            for scale in (1.0, 1e-8, 1e8):
                D = scale * np.diag(d)
                norm = spectral_norm(D)
                cap = hull_cap(np.diag(D), n, norm) + 1e-13 * (1.0 + norm)
                for A in (D, hidden(seed + n, D)):
                    values = search_values(A, ts)
                    assert (cap >= values).all()
                    assert cap - max(values.max(), 0.0) <= np.pi / 512 * (1.0 + norm)


def probe_results(monkeypatch) -> list:
    """The direct step's verdicts, one array per call: whether it took
    each matrix out of the search."""
    verdicts = []
    direct = functionals._crawford_direct

    def recording(M, *args):
        result = direct(M, *args)
        fired = np.ones(len(M), dtype=bool)
        fired[result[0]] = False
        verdicts.append(fired)
        return result

    monkeypatch.setattr(functionals, "_crawford_direct", recording)
    return verdicts


def probe_sweep() -> list:
    """Crawford matrices on both sides of the probe's threshold."""
    mats = []
    for n in (2, 3, 5, 16, 32):
        r = math.cos(math.pi / (n + 1))
        fractions = np.linspace(0.0, 1.1, 12 if n < 16 else 6)
        for i, f in enumerate(fractions):
            for phi in (0.0, math.pi / 8, 2.2):
                mats.append(shifted_jordan(100 * n + i, n, f * r, phi))
    mats += [random_matrix(50 + n, n) for n in range(2, 33, 3)]
    mats += [scale * M for scale in (1e-8, 1e8) for M in mats[::9]]
    return mats


class TestCrawfordProbe:
    @pytest.mark.parametrize("grid", [4, 5, 8, 64, 256])
    @pytest.mark.parametrize("gap_scale", [1e-9, 0.3])
    def test_enclosures_keep_their_bits(self, grid, gap_scale, monkeypatch):
        # Rows the direct step takes out of the search get the bits the
        # search gives them; mixed sizes share one call.
        opts = RadiusOptions(grid_count=grid, gap_scale=gap_scale)
        stacks = as_stacks(probe_sweep())
        verdicts = probe_results(monkeypatch)
        probed = rows(radii_and_crawford_numbers([], stacks, opts)[1])
        fired = np.concatenate(verdicts)
        assert fired.any()
        assert not fired.all()
        # A direct step that fires on nothing leaves every matrix to the
        # search.
        direct_off(monkeypatch)
        searched = rows(radii_and_crawford_numbers([], stacks, opts)[1])
        for a, b in zip(probed, searched, strict=True):
            assert (a.lo.hex(), a.hi.hex(), a.method) == (b.lo.hex(), b.hi.hex(), b.method)

    def test_fires_only_where_the_diagonal_holds_zero(self, monkeypatch):
        # Ranges that miss 0, segments (Hermitian and skew-Hermitian
        # matrices, sign-split or not) and points (scalar matrices): the
        # direct step settles exactly the matrices whose diagonal points'
        # hull holds 0, and those have c = 0.
        mats = [shifted_jordan(n, n, c * math.cos(math.pi / (n + 1)), 0.7) for n in (2, 5, 16) for c in (1.05, 2.0)]
        for n in (2, 4, 16):
            H = random_matrix(n, n)
            H = H + H.conj().T
            mats += [H, 1j * H, 1e8 * H, np.diag(np.linspace(-1.0, 1.0, n))]
            mats += [(2.0 - 1.0j) * np.eye(n), 1e-8j * np.eye(n)]
        verdicts = probe_results(monkeypatch)
        encs = [crawford_number(M, RadiusOptions(grid_count=64)) for M in mats]
        fired = np.concatenate(verdicts)
        assert fired.size == len(mats)
        # The Jordan disks miss 0, and so does each scalar matrix's point;
        # the real diagonals run from -1 to 1 through 0.
        assert not fired[:6].any()
        for j in range(6, len(mats), 6):
            assert fired[j + 3] and not fired[j + 4] and not fired[j + 5]
        for M, hit, enc in zip(mats, fired, encs, strict=True):
            if hit:
                assert enc.lo == 0.0 and enc.hi <= 1e-11 * (1.0 + spectral_norm(M))


def probe_eigensolves(monkeypatch) -> list:
    """A one-element list counting the matrices the first step of the
    Crawford search, its probe, eigensolves."""
    probe = [0]
    init = functionals._Inner.__init__

    def counting(self, groups, bases, ts, *args):
        probe[0] += ts.size
        init(self, groups, bases, ts, *args)

    monkeypatch.setattr(functionals._Inner, "__init__", counting)
    return probe


class TestCrawfordDiagonal:
    @pytest.mark.parametrize("grid", [18, 33, 64, 256])
    @pytest.mark.parametrize("gap_scale", [1e-9, 0.3])
    def test_enclosures_keep_their_bits(self, grid, gap_scale, monkeypatch):
        # Against every matrix searched: the inputs of
        # tests/test_crawford_bytes.py and more, the sweep's families,
        # hidden flat U J_n U* and Ginibre matrices.
        mats = certificate_sweep() + sift_sweep()
        mats += [shifted_jordan(700 + n, n, 0.0, 0.3 * n) for n in range(2, 13)]
        mats += [random_matrix(800 + n, n) for n in (8, 16, 24, 32)]
        opts = RadiusOptions(grid_count=grid, gap_scale=gap_scale)
        stacks = as_stacks(mats)
        probe = probe_eigensolves(monkeypatch)
        settled = rows(radii_and_crawford_numbers([], stacks, opts)[1])
        solved, probe[0] = probe[0], 0
        direct_off(monkeypatch)
        searched = rows(radii_and_crawford_numbers([], stacks, opts)[1])
        for a, b in zip(settled, searched, strict=True):
            assert (a.lo.hex(), a.hi.hex(), a.method) == (b.lo.hex(), b.hi.hex(), b.method)
        assert solved < probe[0]

    @pytest.mark.parametrize("n", range(4, 9))
    def test_flat_ranges_take_no_eigensolve(self, n, eigensolves):
        # The diagonal points of U J_n U*, whose range is a disk about 0,
        # surround 0: no probe, no eigensolve (Ginibre matrices:
        # test_wide_disk_about_zero_takes_four_eigensolves).
        counted = eigensolves
        enc = crawford_number(shifted_jordan(n, n, 0.0, 0.5 * n))
        assert enc.lo == 0.0 and enc.hi <= 1e-11 and enc.method == "grid"
        assert counted[0] == 0

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_ranges_missing_zero_still_take_the_probe(self, n, monkeypatch):
        # The disk of radius r about c exp(i phi), c > r: no diagonal point
        # set can hold 0, so the search's first step, its probe, solves
        # _PROBE matrices.
        c = 1.5 * math.cos(math.pi / (n + 1))
        probe = probe_eigensolves(monkeypatch)
        fired = probe_results(monkeypatch)
        enc = crawford_number(shifted_jordan(900 + n, n, c, 0.4 * n))
        assert probe[0] == functionals._PROBE and not np.concatenate(fired).any()
        assert enc.lo <= c - math.cos(math.pi / (n + 1)) <= enc.hi

    @pytest.mark.parametrize("grid", [18, 33, 64, 256])
    @pytest.mark.parametrize("z", [1, -1, 1j, -1j])
    def test_points_off_an_axis_leave_a_cap_above_zero(self, grid, z):
        # Diagonal points z b, b = 1 + i, 1 - i and points of the unit
        # circle's right half: all strictly on one side of the real or the
        # imaginary axis; and two points on a line off 0.  Their hull
        # misses 0, so its distance, the cap it gives, is above 0, and the
        # direct step leaves such matrices to the search, at odd and even
        # grids alike.
        rng = np.random.default_rng(grid)
        opts = RadiusOptions(grid_count=grid)
        for n in (3, 5, 16):
            arc = np.exp(1j * np.pi * rng.uniform(-0.4, 0.4, n - 2))
            segment = np.exp(2j * np.pi * rng.uniform()) * np.array([1.0, rng.uniform(0.5, 2.0)])
            for scale, b in itertools.product((1.0, 1e-8, 1e8), (np.concatenate(([1 + 1j, 1 - 1j], arc)), segment)):
                D = np.diag(scale * z * b)
                assert hull_cap(np.diag(D), D.shape[0], spectral_norm(D)) > 0.0
                out = functionals.Enclosures(np.zeros(1), np.zeros(1), np.zeros(1, dtype=np.intp))
                assert functionals._crawford_direct(D[None], np.array([0]), out)[0].size == 1
                enc = crawford_number(D, opts)
                cap = min(abs(p) for p in np.diag(D))
                assert 0.0 < enc.lo <= enc.hi and enc.lo <= cap * (1.0 + 1e-12)


def certificate_sweep() -> list:
    """The inputs of tests/test_crawford_bytes.py, then hidden J_n + cI
    missing 0 and Ginibre + 3I for n = 2..16."""
    mats = [random_matrix(100 + n, n) for n in range(2, 33)]
    for n in (2, 3, 5, 8, 16, 32):
        r = math.cos(math.pi / (n + 1))
        for k, c in enumerate((0.5 * r, r * (1 - 1e-9), r * (1 + 1e-9), 1.3 * r, 3.0)):
            mats.append(shifted_jordan(n + k, n, c, 0.1234 + 0.777 * k))
        mats.append(shifted_jordan(200 + n, n, 0.0, 0.0))
    mats += [np.diag([1.0, 2.0j, -0.5 + 3.0j]), np.diag([2.0, 3.0 + 1.0j, 2.5 - 0.5j, 4.0]), np.diag([1.0, -1.0])]
    for scale in (1e-8, 1e8):
        mats += [scale * random_matrix(300, 4), scale * shifted_jordan(301, 6, 2.0, 0.5)]
    for n in range(2, 17):
        mats.append(shifted_jordan(400 + n, n, 1.2 * math.cos(math.pi / (n + 1)), 0.37 * n))
        mats.append(random_matrix(500 + n, n) / math.sqrt(2 * n) + 3.0 * np.eye(n))
    return mats


def jordan_rows() -> list:
    """Hidden J_n + cI whose ranges miss 0, attained at either half turn,
    with their Crawford numbers c - cos(pi / (n + 1))."""
    out = []
    for n in range(2, 17):
        r = math.cos(math.pi / (n + 1))
        for k, (c, phi) in enumerate(((1.2 * r, 0.3), (r + 0.5, 2.5), (2.0, 4.0), (3.0, 5.5))):
            out.append((shifted_jordan(600 + 4 * n + k, n, c, phi), c - r))
    return out


def scan(m: int):
    """The 4096 seeded unit vectors of stream 0 in C^m, one block."""
    return functionals._mc_vectors(4096, 0, m)


def in_scan(seed: int, m: int, a: float, spread: float, phi: float) -> np.ndarray:
    """exp(i phi) Q diag(a, a + spread, .., a + (m - 1) spread) Q*, a > 0,
    with Q e1 a vector of scan(m): its range, a segment, misses 0, and a
    scanned vector attains its Crawford number a."""
    y = next(scan(m))[0][:, seed]
    Q = np.linalg.qr(np.column_stack([y, random_matrix(seed, m)[:, 1:]]))[0]
    Q[:, 0] = y
    return np.exp(1j * phi) * (Q @ np.diag(a + spread * np.arange(m)) @ Q.conj().T)


class TestCrawfordPolygonEnclosures:
    @pytest.mark.parametrize("grid", [18, 256])
    @pytest.mark.parametrize("gap_scale", [1e-9, 0.3])
    def test_lower_ends_stay_below_the_scan_minimum(self, grid, gap_scale):
        # The smallest |y* M y| over scan(m) bounds c(M) from above: every
        # lower end lies at or below it, and each enclosure meets its gap.
        mats = certificate_sweep()
        opts = RadiusOptions(grid_count=grid, gap_scale=gap_scale)
        encs = rows(radii_and_crawford_numbers([], as_stacks(mats), opts)[1])
        for enc, M in zip(encs, mats, strict=True):
            assert enc.lo <= functionals._mc_extreme(M, scan(M.shape[0]), reduce_max=False)
            assert enc.width <= opts.resolve_gap(spectral_norm(M)) + 4e-13 * (1.0 + spectral_norm(M))

    def test_inner_polygon_settles_the_shifted_jordan_rows(self):
        # The inner polygon alone settles every row, whichever end of
        # lambda(H) attains: method "grid", the value held, and each
        # enclosure within its gap.
        mats, values = zip(*jordan_rows())
        encs = rows(radii_and_crawford_numbers([], as_stacks(mats))[1])
        for enc, M, value in zip(encs, mats, values, strict=True):
            assert enc.lo > 0.0 and enc.method == "grid"
            assert enc.lo <= value <= enc.hi
            assert enc.width <= RadiusOptions().resolve_gap(spectral_norm(M)) + 4e-13 * (1.0 + spectral_norm(M))

    def test_rows_a_wide_gap_stops_early_hold_their_values(self):
        # At gap 0.3 and grid 18 the search stops early on most rows: each
        # row, solved alone, still holds its value within its gap.
        opts = RadiusOptions(grid_count=18, gap_scale=0.3)
        early = 0
        for M, value in jordan_rows():
            enc = crawford_number(M, opts)
            assert enc.method == "grid" and enc.lo <= value <= enc.hi
            assert enc.width <= opts.resolve_gap(spectral_norm(M)) + 4e-13 * (1.0 + spectral_norm(M))
            early += enc.width > crawford_number(M).width
        assert early >= 30

    def test_attaining_scan_vectors_are_scanned(self):
        # A scan vector attains the Crawford number a: the enclosure holds
        # it.
        for m in (2, 3, 4, 8, 16):
            for seed in range(4):
                for phi in (0.0, 2.0, math.pi):
                    for a, spread in ((1.0, 0.5), (0.3, 2.0), (1e-3, 1.0)):
                        enc = crawford_number(in_scan(seed, m, a, spread, phi))
                        assert enc.lo <= a <= enc.hi


class TestCrawfordNumber:
    def test_positive_diagonal(self):
        enc = crawford_number(np.diag([1.0, 2.0]))
        assert enc.lo <= 1.0 <= enc.hi and enc.width <= 1e-8

    def test_rotated_diagonal(self):
        enc = crawford_number(np.diag([1.0j, 2.0j]))
        assert enc.lo <= 1.0 <= enc.hi and enc.width <= 1e-8

    def test_range_containing_zero(self):
        enc = crawford_number(SHIFT)
        assert enc.lo == 0.0 and enc.hi <= 1e-8

    def test_sign_split_diagonal(self):
        enc = crawford_number(np.diag([-1.0, 1.0]))
        assert enc.lo == 0.0 and enc.hi <= 1e-8

    def test_jordan_block_is_half(self):
        # Numerical range is the disk of radius 1/2 around 1.
        enc = crawford_number(JORDAN)
        assert enc.lo <= 0.5 <= enc.hi and enc.width <= 1e-8

    def test_jordan_block_is_settled_by_the_grid_search(self):
        enc = crawford_number(JORDAN)
        assert enc.method == "grid" and enc.lo <= 0.5 <= enc.hi and enc.width <= 1e-8

    def test_scalar(self):
        enc = crawford_number(np.array([[2.0j]]))
        assert enc.lo <= 2.0 <= enc.hi and enc.width <= 1e-10

    def test_deterministic(self):
        M = random_matrix(7, 4)
        a, b = crawford_number(M), crawford_number(M)
        assert a.lo == b.lo and a.hi == b.hi

    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    @settings(max_examples=25)
    def test_below_radius_and_capped_by_samples(self, seed, n):
        M = random_matrix(seed, n)
        sp = build_space(np.eye(n))
        c = crawford_number(M)
        w = numerical_radius(M)
        assert c.lo <= w.hi + 1e-12
        mc = mc_crawford_upper(sp, M, samples=2000, seed=seed)
        assert mc >= c.lo - 1e-12 * (1.0 + c.lo)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    @settings(max_examples=20)
    def test_gap_meets_target(self, seed, n):
        M = random_matrix(seed, n)
        opts = RadiusOptions()
        enc = crawford_number(M, opts)
        norm = spectral_norm(M)
        assert enc.width <= opts.resolve_gap(norm) + 1e-12 * (1.0 + norm)


class TestSeminormFunctionals:
    def test_seminorm_hand_value(self):
        sp = build_space(A_DEG)
        enc = op_seminorm(sp, T_LOWER)
        assert enc.lo <= 1.0 <= enc.hi and enc.width <= 1e-10 * 2.0

    def test_seminorm_identity_seed(self):
        sp = build_space(np.eye(2))
        enc = op_seminorm(sp, SHIFT)
        assert enc.lo <= 1.0 <= enc.hi

    def test_radius_hand_value(self):
        # Reduced matrix of T_LOWER is [[1]], so norm and radius are both 1.
        sp = build_space(A_DEG)
        enc = a_numerical_radius(sp, T_LOWER)
        assert abs(enc.mid - 1.0) <= 1e-9

    def test_radius_identity_seed_shift(self):
        sp = build_space(np.eye(2))
        enc = a_numerical_radius(sp, SHIFT)
        assert enc.lo <= 0.5 <= enc.hi

    def test_crawford_through_reduction(self):
        sp = build_space(A_DEG)
        enc = crawford(sp, T_LOWER)
        assert enc.lo <= 1.0 <= enc.hi

    def test_trivial_space_gives_zero(self):
        sp = build_space(np.zeros((2, 2)))
        assert a_numerical_radius(sp, SHIFT).hi == 0.0
        assert crawford(sp, SHIFT).hi == 0.0
        assert op_seminorm(sp, SHIFT).hi <= 1e-10


class TestMonteCarloOracles:
    def test_identity_radius_is_one(self):
        sp = build_space(np.eye(3))
        assert mc_radius_lower(sp, np.eye(3), samples=100, seed=1) == pytest.approx(1.0, abs=1e-12)

    def test_zero_samples(self):
        sp = build_space(np.eye(2))
        assert mc_radius_lower(sp, SHIFT, samples=0) == 0.0
        assert mc_crawford_upper(sp, SHIFT, samples=0) == math.inf

    def test_trivial_space(self):
        sp = build_space(np.zeros((2, 2)))
        assert mc_radius_lower(sp, SHIFT, samples=10) == 0.0
        assert mc_crawford_upper(sp, SHIFT, samples=10) == 0.0

    def test_negative_samples_rejected(self):
        sp = build_space(np.eye(2))
        with pytest.raises(BadConfig):
            mc_radius_lower(sp, SHIFT, samples=-1)
        # Non-integral counts fail here, not with a TypeError from range.
        for oracle in (mc_radius_lower, mc_crawford_upper):
            with pytest.raises(BadConfig):
                oracle(sp, SHIFT, samples=2.5)

    def test_seed_determinism(self):
        sp = build_space(np.eye(3))
        M = random_matrix(3, 3)
        assert mc_radius_lower(sp, M, 500, seed=7) == mc_radius_lower(sp, M, 500, seed=7)
        assert mc_radius_lower(sp, M, 500, seed=7) != mc_radius_lower(sp, M, 500, seed=8)

    def test_rank_one_reduction_is_exact(self):
        # One-dimensional reduced space: every unit vector gives the same
        # value, so the sampled bound equals the radius.
        sp = build_space(A_DEG)
        enc = a_numerical_radius(sp, T_LOWER)
        mc = mc_radius_lower(sp, T_LOWER, samples=10, seed=0)
        assert enc.lo - 1e-12 <= mc <= enc.hi + 1e-12


class TestIntervals:
    def test_arith(self):
        a, b = Enclosure(1.0, 2.0, "exact"), Enclosure(-3.0, 4.0, "grid")
        assert iadd(a, b) == Enclosure(-2.0, 6.0, "grid")
        assert isub(a, b) == Enclosure(-3.0, 5.0, "grid")
        assert imul(a, b) == Enclosure(-6.0, 8.0, "grid")
        assert iscale(-2.0, a) == Enclosure(-4.0, -2.0, "exact")

    def test_extremes_and_shape_ops(self):
        a, b = Enclosure(1.0, 2.0, "exact"), Enclosure(-3.0, 4.0, "grid")
        assert imax(a, b) == Enclosure(1.0, 4.0, "grid")
        assert imin(a, b) == Enclosure(-3.0, 2.0, "grid")
        assert iabs(b) == Enclosure(0.0, 4.0, "grid")
        assert iabs(Enclosure(-5.0, -1.0, "exact")) == Enclosure(1.0, 5.0, "exact")
        assert isqrt(Enclosure(-1e-18, 4.0, "grid")) == Enclosure(0.0, 2.0, "grid")

    def test_point(self):
        p = ipoint(2.0, err=0.5)
        assert p.lo == 1.5 and p.hi == 2.5 and p.mid == 2.0

    def test_invalid_enclosure(self):
        with pytest.raises(BadConfig):
            Enclosure(2.0, 1.0, "exact")
        with pytest.raises(NoConvergence):
            Enclosure(0.0, math.inf, "exact")


class TestRadiusOptions:
    def test_validation(self):
        with pytest.raises(BadConfig):
            RadiusOptions(grid_count=3)
        for gap_scale in (-1.0, math.inf, math.nan):
            with pytest.raises(BadConfig):
                RadiusOptions(gap_scale=gap_scale)
        for counts in (dict(grid_count=64.5), dict(grid_count=64.0)):
            with pytest.raises(BadConfig):
                RadiusOptions(**counts)
        assert RadiusOptions(grid_count=np.int64(64)).grid_count == 64

    def test_gap_resolution(self):
        assert RadiusOptions(gap_scale=1e-9).resolve_gap(9.0) == pytest.approx(1e-8)
