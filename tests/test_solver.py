import ast
import functools
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from conftest import TINY
from sensesec import channels, sca, solver
from sensesec.linalg import RngState
from sensesec.solver import (
    BarrierProblem,
    ConicSubproblem,
    InfeasibleError,
    SolverError,
    _find_strictly_feasible,
    hermitian_basis,
    hermitian_weights,
    pack_hermitian,
    solve,
    unpack_hermitian,
)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, n, scale=1.0):
    a = random_complex(rng, n, n)
    return scale * 0.5 * (a + a.conj().T)


def random_psd(rng, n, scale=1.0):
    a = random_complex(rng, n, n)
    return scale * (a @ a.conj().T) / n


class TestRealify:
    def test_pack_unpack_hermitian(self):
        rng = np.random.default_rng(2)
        h = random_hermitian(rng, 4)
        assert np.max(np.abs(unpack_hermitian(pack_hermitian(h), 4) - h)) < 1e-14


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_hermitian_basis_unpacks_each_unit_coordinate(d):
    assert np.array_equal(
        hermitian_basis(d),
        np.stack([unpack_hermitian(e, d) for e in np.eye(d * d)]))
    # A stack of coordinate rows unpacks row by row, bit for bit.
    rng = np.random.default_rng(d)
    for shape in [(3, d * d), (2, 3, d * d)]:
        rows = rng.standard_normal(shape)
        stack = unpack_hermitian(rows, d)
        assert stack.shape == shape[:-1] + (d, d)
        for index in np.ndindex(shape[:-1]):
            assert np.array_equal(stack[index], unpack_hermitian(rows[index], d))


@pytest.mark.parametrize("d", [1, 2, 4])
def test_coefficient_helpers_match_packing(d):
    rng = np.random.default_rng(d)
    x = rng.standard_normal(d * d)
    assert np.abs(np.tensordot(x, hermitian_basis(d), axes=1)
                  - unpack_hermitian(x, d)).max() < 1e-14
    g, w = random_hermitian(rng, d), random_hermitian(rng, d)
    assert abs(hermitian_weights(g) @ pack_hermitian(w)
               - np.trace(g @ w).real) < 1e-12


def test_conic_subproblem_rejects_bad_declarations():
    prob = ConicSubproblem()
    prob.add_hermitian("W", 2)
    with pytest.raises(ValueError, match="duplicate variable name 'W'"):
        prob.add_hermitian("W", 1)
    with pytest.raises(ValueError,
                       match="matrix map offset must be a square matrix"):
        prob.matrix_map(np.zeros((2, 3)), {"W": hermitian_basis(2)})
    prob.add_hermitian("V", 3)
    with pytest.raises(ValueError, match=r"one size, got sizes \[4, 9\]"):
        prob.matrix_map(np.eye(2), {("W", "V"): hermitian_basis(2)})
    with pytest.raises(ValueError, match="objective not set"):
        BarrierProblem(prob)


def test_pack_rejects_a_value_of_another_shape():
    # A (1, 1) value or a plain number would broadcast over a 2 x 2 W.
    prob = ConicSubproblem()
    prob.add_hermitian("W", 2)
    for value, shape in (([[1.0]], r"\(1, 1\)"), (1.0, r"\(\)"),
                         (np.eye(3), r"\(3, 3\)")):
        with pytest.raises(ValueError,
                           match=rf"'W' needs shape \(2, 2\), got {shape}"):
            prob.pack({"W": value})


def test_pack_rejects_a_value_that_is_not_hermitian():
    # The packing keeps the real diagonal and the strict upper triangle, so
    # it would read these as [[1, 2], [2, 1]] and 1.
    prob = ConicSubproblem()
    prob.add_hermitian("W", 2)
    prob.add_hermitian("s", 1)
    for values, name in (({"W": [[1, 2], [0, 1]], "s": 1.0}, "W"),
                         ({"W": np.eye(2), "s": 1 + 2j}, "s")):
        with pytest.raises(ValueError,
                           match=rf"variable '{name}' is not Hermitian"):
            prob.pack(values)


def test_a_one_by_one_variable_packs_a_number_or_its_matrix():
    prob = ConicSubproblem()
    prob.add_hermitian("s", 1)
    prob.add_hermitian("W", 2)
    w = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
    x = prob.pack({"s": -0.75, "W": w})
    assert np.array_equal(prob.pack({"s": [[-0.75]], "W": w}), x)
    assert np.array_equal(x, np.concatenate([[-0.75], pack_hermitian(w)]))
    vals = prob.unpack(x)
    assert vals["s"].shape == (1, 1) and vals["s"][0, 0] == -0.75
    assert np.array_equal(vals["W"], w)


def test_add_psd_needs_hermitian_variables_of_one_dimension():
    prob = ConicSubproblem()
    prob.add_hermitian("A", 2)
    prob.add_hermitian("B", 3)
    prob.add_hermitian("s", 1)
    for names in (["A", "s"], ["A", "B"]):
        with pytest.raises(ValueError,
                           match="Hermitian variables of one dimension"):
            prob.add_psd(names)
    assert prob.lmis == []


def test_add_psd_over_one_by_one_variables_keeps_each_positive():
    prob = ConicSubproblem()
    prob.add_hermitian("s", 1)
    prob.add_hermitian("t", 1)
    prob.add_psd(["s", "t"])
    (block,) = prob.lmis
    assert block.coords.shape == (2, 1)
    prob.set_objective()
    bp = BarrierProblem(prob)
    for s, t in [(1.0, 2.0), (1e-12, 3.0), (0.0, 1.0), (1.0, -1e-12),
                 (-1.0, -1.0)]:
        assert bp.in_domain(prob.pack({"s": s, "t": t})) == (s > 0 < t)


def test_real_block_gradient_and_gram_match_direct_loops():
    from sensesec.solver import _RealBlock
    rng = np.random.default_rng(0)
    d, n = 5, 7
    real_mats = np.stack([0.5 * (a + a.T) for a in rng.standard_normal((n, d, d))])
    herm_mats = np.stack([random_hermitian(rng, d) for _ in range(n)])
    # One stack on two coordinate ranges, as a map of W0 + W1 declares it,
    # then with the identity row that phase I adds for its slack.
    shared = np.tile(np.arange(n), 2)
    extended = np.append(shared, n)
    with_eye = np.concatenate([herm_mats, np.eye(d)[None]])
    for distinct, rows in ((real_mats, np.arange(n)), (herm_mats, np.arange(n)),
                           (herm_mats, shared), (with_eye, extended)):
        mats, m = distinct[rows], len(rows)
        blk = _RealBlock(np.arange(m), distinct, 3.0 * np.eye(d), rows)
        f = blk.assemble(rng.standard_normal(m) * 0.1)
        chol = np.linalg.cholesky(f)
        gvec, gram, linv = blk.grad_gram(chol)
        assert np.abs(linv @ chol - np.eye(d)).max() < 1e-12
        finv = np.linalg.inv(f)
        gvec_ref = np.array([np.trace(finv @ s) for s in mats]).real
        gram_ref = np.array([[np.trace(finv @ si @ finv @ sj) for sj in mats]
                             for si in mats]).real
        assert np.abs(gvec - gvec_ref).max() < 1e-12
        assert np.abs(gram - gram_ref).max() < 1e-12

        # A batch of three maps with this stack on disjoint, shuffled
        # coordinates, as the per-user LMIs W_k >= 0 have it.
        coords = rng.permutation(3 * m).reshape(3, m)
        batch = _RealBlock(coords, distinct, 3.0 * np.eye(d), rows)
        x = rng.standard_normal(3 * m) * 0.1
        f = batch.assemble(x)
        chol = np.linalg.cholesky(f)
        gvec, gram, linv = batch.grad_gram(chol)
        assert np.abs(linv @ chol - np.eye(d)).max() < 1e-12
        assert f.shape == (3, d, d) and gvec.shape == (3, m)
        assert gram.shape == (3, m, m) and batch.batch_size == 3
        for k in range(3):
            f_ref = 3.0 * np.eye(d) + np.tensordot(x[coords[k]], mats, axes=1)
            assert np.abs(f[k] - f_ref).max() < 1e-14
            finv = np.linalg.inv(f_ref)
            gvec_ref = np.array([np.trace(finv @ s) for s in mats]).real
            gram_ref = np.array([[np.trace(finv @ si @ finv @ sj)
                                  for sj in mats] for si in mats]).real
            assert np.abs(gvec[k] - gvec_ref).max() < 1e-12
            assert np.abs(gram[k] - gram_ref).max() < 1e-12
        logdets = [np.linalg.slogdet(fk)[1] for fk in f]
        assert abs(batch.logdet(chol) - sum(logdets)) < 1e-12
        assert abs(batch.min_eig(x) - np.linalg.eigvalsh(f)[:, 0].min()) < 1e-12


def assert_derivatives_match_finite_differences(bp, x, t):
    val, grad, hess, _, _ = bp.merit_derivatives(x, t)
    hess = hess.copy()          # the problem's own array: later calls reuse it
    assert abs(val - bp.merit(x, t)) < 1e-9 * max(abs(val), 1.0)
    step = 1e-6
    for g in range(bp.n):
        xp, xm = x.copy(), x.copy()
        xp[g] += step
        xm[g] -= step
        fd = (bp.merit(xp, t) - bp.merit(xm, t)) / (2 * step)
        assert abs(fd - grad[g]) < 2e-5 * max(abs(fd), 1.0)
        _, gp, _, _, _ = bp.merit_derivatives(xp, t)
        _, gm, _, _, _ = bp.merit_derivatives(xm, t)
        col = (gp - gm) / (2 * step)
        assert np.abs(col - hess[:, g]).max() < 1e-4 * max(np.abs(col).max(), 1.0)


def test_barrier_derivatives_match_finite_differences():
    rng = np.random.default_rng(1)
    from sensesec.solver import BarrierProblem
    prob = ConicSubproblem()
    prob.add_hermitian("W", 3)
    prob.add_hermitian("rho", 1)
    prob.add_ineq(prob.scalar_map({"rho": -1.0}), 0.0)

    # W >= 0 and a slacked rank tie tr W - u^H W u <= rho, rho penalized.
    prob.add_lmi(prob.matrix_map(np.zeros((3, 3)), {"W": hermitian_basis(3)}))
    u = random_complex(rng, 3)
    u /= np.linalg.norm(u)
    prob.add_ineq(prob.scalar_map({
        "W": hermitian_weights(np.eye(3) - np.outer(u, u.conj())),
        "rho": -1.0}), 0.0)
    prob.add_ineq(prob.scalar_map({"W": hermitian_weights(np.eye(3))}), 2.0)
    h = random_complex(rng, 3)
    prob.add_ineq(prob.scalar_map(
        {"W": -hermitian_weights(np.outer(h, h.conj())), "rho": -1.0}),
        -0.01)
    prob.set_objective(
        linear=prob.scalar_map({"rho": -0.3}),
        logdet=prob.matrix_map(np.eye(3), {"W": hermitian_basis(3)}))
    bp = BarrierProblem(prob)
    w0 = 0.1 * random_complex(rng, 3)
    x = prob.pack({"W": np.outer(w0, w0.conj()) + 0.3 * np.eye(3),
                   "rho": 1.0})
    assert_derivatives_match_finite_differences(bp, x, 7.0)


def stacked_inequality_problem():
    """(problem, interior point): stacked inequality rows over the Hermitian
    and scalar variables, and a log-det objective over W0 + W1."""
    rng = np.random.default_rng(3)
    prob = ConicSubproblem()
    prob.add_hermitian("W0", 2)
    prob.add_hermitian("W1", 2)
    prob.add_hermitian("y", 1)
    prob.add_ineq(prob.scalar_map({"y": -1.0}), 0.0)
    prob.add_ineq(prob.scalar_map({"y": 1.0}), 3.0)
    prob.add_hermitian("z", 1)
    # A log-det of W0 + W1: the same coefficients on both.
    legit = np.stack([random_psd(rng, 3) for _ in range(4)])
    tx_cov = prob.matrix_map(np.eye(3), {("W0", "W1"): legit})
    prob.set_objective(linear=prob.scalar_map({"y": -0.3, "z": 0.2}),
                       logdet=tx_cov)
    trace = hermitian_weights(np.eye(2))
    prob.add_ineq(prob.scalar_map({"W0": trace, "W1": trace}), 2.0)
    h = random_complex(rng, 2)
    prob.add_ineq(prob.scalar_map(
        {"W0": -hermitian_weights(np.outer(h, h.conj())), "y": 0.5}), 1.0)
    prob.add_ineq(prob.scalar_map({"z": 1.0, "y": -0.5}), 0.5)
    w0 = 0.2 * random_complex(rng, 2)
    x = prob.pack({"W0": np.outer(w0, w0.conj()) + 0.3 * np.eye(2),
                   "W1": 0.2 * np.eye(2), "y": 1.0, "z": 0.1})
    return prob, x


def test_stacked_inequality_derivatives_match_finite_differences():
    from sensesec.solver import BarrierProblem, _phase1_problem
    prob, x = stacked_inequality_problem()
    bp = BarrierProblem(prob)
    assert_derivatives_match_finite_differences(bp, x, 7.0)

    relaxed = _phase1_problem(bp)
    x_ext = np.append(x, 0.05)
    assert_derivatives_match_finite_differences(relaxed, x_ext, 7.0)


def test_batched_schur_lmi_derivatives_match_finite_differences():
    from sensesec.solver import LMI_WEIGHT, BarrierProblem, _phase1_problem
    rng = np.random.default_rng(4)
    prob = ConicSubproblem()
    for k in range(2):
        prob.add_hermitian(f"W{k}", 3)
    prob.add_hermitian("rho", 1)
    prob.add_ineq(prob.scalar_map({"rho": -1.0}), 0.0)
    # Two LMIs W_k >= 0 in one batched block, and slacked rank ties
    # tr W_k - u_k^H W_k u_k <= rho sharing one penalized rho.
    prob.add_psd(["W0", "W1"])
    for k in range(2):
        u = random_complex(rng, 3)
        u /= np.linalg.norm(u)
        prob.add_ineq(prob.scalar_map({
            f"W{k}": hermitian_weights(np.eye(3) - np.outer(u, u.conj())),
            "rho": -1.0}), 0.0)
    trace = hermitian_weights(np.eye(3))
    prob.add_ineq(prob.scalar_map({"W0": trace, "W1": trace}), 3.0)
    legit = np.stack([random_psd(rng, 2) for _ in range(9)])
    prob.set_objective(
        linear=prob.scalar_map({"rho": -0.3}),
        logdet=prob.matrix_map(np.eye(2), {("W0", "W1"): legit}))
    bp = BarrierProblem(prob)
    assert len(bp.lmi_blocks) == 1
    assert bp.lmi_blocks[0].coords.shape == (2, 9)
    assert bp.gap_degree() == len(bp.b) + LMI_WEIGHT * 3 * 2
    values = {"rho": 1.0}
    for k in range(2):
        w = 0.2 * random_complex(rng, 3)
        values[f"W{k}"] = np.outer(w, w.conj()) + 0.2 * np.eye(3)
    x = prob.pack(values)
    assert_derivatives_match_finite_differences(bp, x, 7.0)

    # Phase I puts its slack coordinate in every block and batch member, so
    # the scatter targets repeat.
    relaxed = _phase1_problem(bp)
    assert relaxed.lmi_blocks[0].coords.shape == (2, 10)
    x_ext = np.append(x, 0.05)
    assert_derivatives_match_finite_differences(relaxed, x_ext, 7.0)


@pytest.fixture(scope="module")
def domain_cases():
    """(barrier problem, interior point): the default SCA subproblem, its
    phase-I problem inside a coordinate box of rows x <= hi and -x <= -lo,
    as _find_strictly_feasible builds it, and the stacked-inequality
    problem."""
    from conftest import random_expansion
    from sensesec import channels, sca
    from sensesec.linalg import RngState
    cfg = channels.ScenarioConfig()
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(1))
    state = sca.SCAState(random_expansion(cfg, RngState(1)), sca.PENALTY_INIT,
                         sca.PENALTY_INIT)
    bp = BarrierProblem(sca.build_subproblem_no_an(
        state, links, stats_r, sca._eve_row(state, stats_e, cfg), cfg))
    x = _find_strictly_feasible(bp)
    relaxed = solver._phase1_problem(bp)
    x_ext = np.append(x, 0.05)
    eye = np.eye(relaxed.n)
    relaxed.A = np.vstack([relaxed.A, eye, -eye])
    relaxed.b = np.concatenate([relaxed.b, x_ext + 3.0, 3.0 - x_ext])
    prob, x_log = stacked_inequality_problem()
    return [(bp, x), (relaxed, x_ext), (BarrierProblem(prob), x_log)]


@pytest.mark.parametrize("case", [0, 1, 2],
                         ids=["subproblem", "phase1-box", "stacked"])
def test_merit_paths_share_one_domain_and_value(domain_cases, case):
    # Points on random rays from an interior point, from well inside the
    # domain to well outside it, and one past the phase-I box alone: a
    # larger phase-I slack (the last coordinate) only relaxes the rows.
    bp, x0 = domain_cases[case]
    rays = np.random.default_rng(case).standard_normal((8, bp.n))
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    points = [x0 + step * ray for ray in rays
              for step in 10.0 ** np.arange(-6, 2)]
    points.append(x0 + 3.5 * np.eye(bp.n)[-1])
    inside = 0
    for x in points:
        for t in (7.0, 1e6):
            val = bp.merit(x, t)
            out = bp.merit_derivatives(x, t)
            assert bp.in_domain(x) == (val is not None) == (out is not None)
            if val is not None:
                inside += 1
                assert val == out[0]        # bitwise
    assert 0 < inside < 2 * len(points)


def scalar_logdet_problem(lin_coef):
    """maximize log(1 + x) + lin_coef * x, x >= 0 (variable bounded below)."""
    prob = ConicSubproblem()
    prob.add_hermitian("x", 1)
    prob.add_ineq(prob.scalar_map({"x": -1.0}), 0.0)
    mmap = prob.matrix_map(np.eye(1), {"x": [np.eye(1)]})
    lin = prob.scalar_map({"x": lin_coef})
    prob.set_objective(linear=lin, logdet=mmap)
    return prob


class TestSolveScalar:
    def test_monotone_boxed(self):
        # maximize logdet(I2 + x I2) on 0 <= x <= 1 -> x* = 1, value 2 log 2.
        prob = ConicSubproblem()
        prob.add_hermitian("x", 1)
        prob.add_ineq(prob.scalar_map({"x": -1.0}), 0.0)
        prob.add_ineq(prob.scalar_map({"x": 1.0}), 1.0)
        mmap = prob.matrix_map(np.eye(2), {"x": [np.eye(2)]})
        prob.set_objective(logdet=mmap)
        res = solve(prob)
        assert res.status == "optimal"
        assert abs(res.values["x"][0, 0].real - 1.0) < 1e-4
        assert abs(res.objective - 2.0 * math.log(2.0)) < 1e-4

    def test_negative_slope_sticks_at_zero(self):
        res = solve(scalar_logdet_problem(-2.0))
        assert res.status == "optimal"
        assert abs(res.values["x"][0, 0].real) < 1e-4
        assert abs(res.objective) < 1e-4

    def test_interior_stationary_point(self):
        # d/dx [log(1+x) - 0.25 x] = 0 at x = 3.
        res = solve(scalar_logdet_problem(-0.25))
        assert res.status == "optimal"
        assert abs(res.values["x"][0, 0].real - 3.0) < 1e-3
        assert abs(res.objective - (math.log(4.0) - 0.75)) < 1e-6

    def test_start_where_the_objective_gradient_vanishes(self):
        # No barrier parameter is most central for a start at x = 3.
        res = solve(scalar_logdet_problem(-0.25), initial={"x": 3.0})
        assert res.status == "optimal"
        assert res.history[0][0] == solver.BARRIER_T0
        assert abs(res.values["x"][0, 0].real - 3.0) < 1e-3

    def test_determinism(self):
        a = solve(scalar_logdet_problem(-0.25))
        b = solve(scalar_logdet_problem(-0.25))
        assert a.iterations == b.iterations
        assert a.objective == b.objective

    def test_history_monotone_objective(self):
        res = solve(scalar_logdet_problem(-0.25))
        objs = [row[1] for row in res.history]
        assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))
        # The result reads its objective and step count from the record.
        assert res.objective == res.history[-1][1]
        assert res.iterations == sum(steps for _, _, steps, _ in res.history)


class TestSolveMatrixVariable:
    def test_trace_capped_logdet(self):
        # maximize logdet(I + W), tr(W) <= 2, W >= 0 -> W = I (n = 2).
        prob = ConicSubproblem()
        prob.add_hermitian("W", 2)
        wmap = prob.matrix_map(np.zeros((2, 2)), {"W": hermitian_basis(2)})
        obj = prob.matrix_map(np.eye(2), {"W": hermitian_basis(2)})
        tr = prob.scalar_map({"W": hermitian_weights(np.eye(2))})
        prob.add_lmi(wmap)
        prob.add_ineq(tr, 2.0)
        prob.set_objective(logdet=obj)
        res = solve(prob)
        assert res.status == "optimal"
        assert np.max(np.abs(res.values["W"] - np.eye(2))) < 1e-3
        assert abs(res.objective - 2.0 * math.log(2.0)) < 1e-5

    def test_complex_coupling(self):
        # maximize logdet(I + W) with an off-diagonal reward; optimum uses
        # complex off-diagonals: maximize log det(I+W) + Re((1+1j) W_01).
        prob = ConicSubproblem()
        prob.add_hermitian("W", 2)
        wmap = prob.matrix_map(np.zeros((2, 2)), {"W": hermitian_basis(2)})
        obj = prob.matrix_map(np.eye(2), {"W": hermitian_basis(2)})
        tr = prob.scalar_map({"W": hermitian_weights(np.eye(2))})
        # Re tr(G W) == Re((1+1j) W_01) for this Hermitian G.
        g = 0.5 * np.array([[0.0, 1.0 - 1.0j], [1.0 + 1.0j, 0.0]])
        coupling = prob.scalar_map({"W": hermitian_weights(g)})
        prob.add_lmi(wmap)
        prob.add_ineq(tr, 1.0)
        prob.set_objective(linear=coupling, logdet=obj)
        res = solve(prob)
        w = res.values["W"]
        assert res.status == "optimal"
        assert np.max(np.abs(w - w.conj().T)) < 1e-10
        assert abs(w[0, 1].imag) > 1e-3  # coupling pulls in the imaginary part

    def test_feasibility_of_optimum(self):
        rng = np.random.default_rng(5)
        prob = ConicSubproblem()
        prob.add_hermitian("W", 3)
        g0 = random_psd(rng, 3) + 0.5 * np.eye(3)
        wmap = prob.matrix_map(np.zeros((3, 3)), {"W": hermitian_basis(3)})
        gmap = prob.matrix_map(g0, {"W": -hermitian_basis(3)})
        tr = prob.scalar_map({"W": hermitian_weights(np.eye(3))})
        obj = prob.matrix_map(np.eye(3), {"W": hermitian_basis(3)})
        prob.add_lmi(wmap)
        prob.add_lmi(gmap)
        prob.add_ineq(tr, 1.5)
        prob.set_objective(logdet=obj)
        res = solve(prob)
        assert res.status == "optimal"
        w = res.values["W"]
        assert np.min(np.linalg.eigvalsh(w)) >= -1e-7
        assert np.min(np.linalg.eigvalsh(g0 - w)) >= -1e-7
        assert np.real(np.trace(w)) <= 1.5 + 1e-7
        assert BarrierProblem(prob).in_domain(prob.pack(res.values))


class TestPhase1:
    def test_contradictory_bounds(self):
        prob = ConicSubproblem()
        prob.add_hermitian("x", 1)
        prob.add_ineq(prob.scalar_map({"x": -1.0}), 0.0)
        prob.add_ineq(prob.scalar_map({"x": 1.0}), -1.0)
        prob.set_objective(linear=prob.scalar_map({"x": 1.0}))
        with pytest.raises(InfeasibleError):
            _find_strictly_feasible(BarrierProblem(prob))

    def test_infeasible_solve_raises(self):
        prob = ConicSubproblem()
        prob.add_hermitian("x", 1)
        prob.add_ineq(prob.scalar_map({"x": -1.0}), 0.0)
        prob.add_ineq(prob.scalar_map({"x": 1.0}), -1.0)
        prob.set_objective(linear=prob.scalar_map({"x": 1.0}))
        with pytest.raises(InfeasibleError):
            solve(prob)

    @staticmethod
    def narrow_interval_problem():
        """5 <= x <= 5.001: feasible, but phase I must cross from the origin
        to an interval of width 1e-3."""
        prob = ConicSubproblem()
        prob.add_hermitian("x", 1)
        prob.add_ineq(prob.scalar_map({"x": -1.0}), 0.0)
        prob.add_ineq(prob.scalar_map({"x": -1.0}), -5.0)
        prob.add_ineq(prob.scalar_map({"x": 1.0}), 5.001)
        prob.set_objective(linear=prob.scalar_map({"x": -1.0}))
        return prob

    def test_unconverged_phase_one_is_not_reported_as_infeasible(
            self, monkeypatch):
        # One Newton step per stage leaves phase I's barrier at the stage cap
        # with its slack still positive.
        monkeypatch.setattr(solver, "STAGE_MAX_STEPS", 1)
        with pytest.raises(SolverError, match="'stage-cap'") as info:
            solve(self.narrow_interval_problem())
        assert not isinstance(info.value, InfeasibleError)

    def test_feasible_set_outside_the_box_is_not_reported_infeasible(self):
        # 2e4 <= x <= 2e4 + 10 lies beyond phase I's box of radius 1e4 about
        # the origin, so the slack it reaches there certifies nothing.
        prob = ConicSubproblem()
        prob.add_hermitian("x", 1)
        prob.add_ineq(prob.scalar_map({"x": -1.0}), -2e4)
        prob.add_ineq(prob.scalar_map({"x": 1.0}), 2e4 + 10.0)
        prob.set_objective(linear=prob.scalar_map({"x": -1.0}))
        with pytest.raises(SolverError, match="coordinate box") as info:
            solve(prob)
        assert not isinstance(info.value, InfeasibleError)

    def test_found_point_has_margin(self):
        rng = np.random.default_rng(7)
        prob = ConicSubproblem()
        prob.add_hermitian("W", 3)
        g0 = random_psd(rng, 3) + np.eye(3)
        prob.add_lmi(prob.matrix_map(np.zeros((3, 3)), {"W": hermitian_basis(3)}))
        prob.add_lmi(prob.matrix_map(g0, {"W": -hermitian_basis(3)}))
        prob.add_ineq(prob.scalar_map(
            {"W": hermitian_weights(np.eye(3))}), 1.0)
        prob.set_objective(linear=prob.scalar_map({}))
        vals = prob.unpack(_find_strictly_feasible(BarrierProblem(prob)))
        w = vals["W"]
        assert np.min(np.linalg.eigvalsh(w)) >= 1e-9
        assert np.min(np.linalg.eigvalsh(g0 - w)) >= 1e-9
        assert np.real(np.trace(w)) <= 1.0 - 1e-9


def make_grid_instance(seed):
    """Random small max-det instance over nonnegative scalars with a box, a
    shrinking LMI, and a log-det objective; returns (problem, oracle_fn)."""
    rng = np.random.default_rng(seed)
    d = seed % 3 + 1
    box = 1.0 if d <= 2 else 0.1
    m = int(rng.integers(2, 4))
    f0 = random_psd(rng, m) + 0.5 * np.eye(m)
    f_dirs = [random_psd(rng, m, scale=float(rng.uniform(0.5, 2.0))) for _ in range(d)]
    g0 = random_psd(rng, 2) + np.eye(2)
    g_dirs = [random_psd(rng, 2, scale=float(rng.uniform(0.5, 3.0))) for _ in range(d)]
    lin = -rng.uniform(0.5, 3.0, size=d)

    prob = ConicSubproblem()
    names = [f"x{i}" for i in range(d)]
    for name in names:
        prob.add_hermitian(name, 1)
        prob.add_ineq(prob.scalar_map({name: -1.0}), 0.0)
        prob.add_ineq(prob.scalar_map({name: 1.0}), box)
    fmap = prob.matrix_map(f0, {n: [f_dirs[i]] for i, n in enumerate(names)})
    gmap = prob.matrix_map(g0, {n: [-g_dirs[i]] for i, n in enumerate(names)})
    linmap = prob.scalar_map({n: lin[i] for i, n in enumerate(names)})
    prob.add_lmi(gmap)
    prob.set_objective(linear=linmap, logdet=fmap)

    def oracle(step=1e-3):
        axes = [np.arange(0.0, box + step / 2, step) for _ in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m_.ravel() for m_ in mesh], axis=1)
        gvals = g0 + np.tensordot(pts, np.stack([-g for g in g_dirs]), axes=1)
        feasible = np.linalg.eigvalsh(gvals)[:, 0] >= 0.0
        fvals = f0 + np.tensordot(pts, np.stack(f_dirs), axes=1)
        sign, logdet = np.linalg.slogdet(fvals)
        obj = np.where((sign.real > 0) & feasible,
                       logdet.real + pts @ lin, -np.inf)
        return float(np.max(obj))

    return prob, oracle


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_grid_search_oracle_sample(seed):
    prob, oracle = make_grid_instance(seed)
    res = solve(prob)
    assert res.status == "optimal"
    assert abs(res.objective - oracle()) < 5e-3


def test_long_barrier_path_ends_optimal_at_its_grid_optimum(monkeypatch):
    # A solve ends when its last stage does, whatever its Newton steps add up
    # to.  Without the predictor, centered to NEWTON_TOL and growing t by 3%
    # per stage, this instance's path takes 469 stages and 855 steps.
    prob, oracle = make_grid_instance(2)
    reference = solve(prob)
    monkeypatch.setattr(solver, "BARRIER_GROWTH", 1.03)
    monkeypatch.setattr(solver, "CENTERING_TOL", solver.NEWTON_TOL)
    monkeypatch.setattr(solver, "_predict", lambda bp, x, *args: x)
    res = solve(prob)

    assert res.status == "optimal" and res.iterations > 600
    assert res.iterations == sum(stage[2] for stage in res.history)
    assert abs(res.objective - oracle()) < 5e-3
    assert abs(res.objective - reference.objective) <= solver.OBJ_TOL


def test_stage_that_hits_its_step_cap_is_reported(monkeypatch):
    monkeypatch.setattr(solver, "STAGE_MAX_STEPS", 1)
    prob, _ = make_grid_instance(0)
    assert solve(prob).status == "stage-cap"


def test_line_search_that_finds_no_step_is_reported(monkeypatch):
    # maximize x over [0, 1] from the interior start x = 0.5, so no phase I
    # runs and only the main barrier calls the patched merit.
    monkeypatch.setattr(solver.BarrierProblem, "merit", lambda self, x, t: None)
    prob = ConicSubproblem()
    prob.add_hermitian("x", 1)
    prob.add_ineq(prob.scalar_map({"x": -1.0}), 0.0)
    prob.add_ineq(prob.scalar_map({"x": 1.0}), 1.0)
    prob.set_objective(linear=prob.scalar_map({"x": 1.0}))
    assert solve(prob, initial={"x": 0.5}).status == "line-search-failed"


@pytest.mark.parametrize("initial", [None, {}], ids=["phase1", "start"])
def test_problem_without_variables_solves_at_once(initial):
    # The Newton system is 0 x 0: its factor and step are empty, and its
    # decrement is 0.
    prob = ConicSubproblem()
    prob.set_objective()
    res = solve(prob, initial=initial)
    assert (res.status, res.values, res.objective, res.iterations) \
        == ("optimal", {}, 0.0, 0)
    assert len(res.history) == 1


def floored_logdet_problem():
    """maximize logdet(I + W) over 2x2 W >= 0 with tr W <= 10 and W_00 >= 8.
    The origin misses W_00 >= 8 by 8."""
    prob = ConicSubproblem()
    prob.add_hermitian("W", 2)
    prob.add_lmi(prob.matrix_map(np.zeros((2, 2)), {"W": hermitian_basis(2)}))
    prob.add_ineq(prob.scalar_map(
        {"W": hermitian_weights(np.eye(2))}), 10.0)
    prob.add_ineq(prob.scalar_map(
        {"W": -hermitian_weights(np.diag([1.0, 0.0]))}), -8.0)
    prob.set_objective(logdet=prob.matrix_map(
        np.eye(2), {"W": hermitian_basis(2)}))
    return prob


@pytest.fixture
def phase1_builds(monkeypatch):
    """Every phase-I problem built while the test runs."""
    built = []

    def recording_phase1_problem(bp):
        relaxed = phase1_problem(bp)
        built.append(relaxed)
        return relaxed

    phase1_problem = solver._phase1_problem
    monkeypatch.setattr(solver, "_phase1_problem", recording_phase1_problem)
    return built


def test_hint_inside_the_domain_skips_phase_one_at_any_margin(phase1_builds):
    # The hint, a rank-one matrix plus 5e-10 I, meets every row.
    prob = floored_logdet_problem()
    u = np.array([3.0, -1.0j])
    hint = {"W": 0.95 * np.outer(u, u.conj()) + 5e-10 * np.eye(2)}
    margin = BarrierProblem(prob).strict_margin(prob.pack(hint))
    assert 0.0 < margin < solver.PHASE1_MARGIN

    res = solve(prob, initial=hint)
    assert phase1_builds == []
    assert res.status == "optimal"
    assert abs(res.objective - solve(prob).objective) < 1e-8


def test_start_outside_the_domain_raises(phase1_builds):
    # W_00 = 7.9 misses the floor W_00 >= 8.
    prob = floored_logdet_problem()
    hint = {"W": np.diag([7.9, 0.1])}
    assert BarrierProblem(prob).strict_margin(prob.pack(hint)) < 0.0

    with pytest.raises(SolverError, match="outside the barrier domain") as info:
        solve(prob, initial=hint)
    assert not isinstance(info.value, InfeasibleError)
    assert phase1_builds == []


def test_solve_tests_its_start_without_phase_one(monkeypatch):
    # A start inside the domain solves, and one outside raises the start's
    # error, without a call of phase I's _find_strictly_feasible.
    def fail(*args, **kwargs):
        raise AssertionError("_find_strictly_feasible called")

    monkeypatch.setattr(solver, "_find_strictly_feasible", fail)
    prob = floored_logdet_problem()
    res = solve(prob, initial={"W": np.diag([9.0, 0.5])})
    assert res.status == "optimal"
    with pytest.raises(SolverError, match="outside the barrier domain"):
        solve(prob, initial={"W": np.diag([7.9, 0.1])})


def test_phase_one_starts_its_barrier_at_the_gap_of_its_slack(monkeypatch,
                                                             phase1_builds):
    runs = []

    def recording_run_barrier(bp, x0, *args, **kwargs):
        out = run_barrier(bp, x0, *args, **kwargs)
        runs.append((bp, x0, out[3]))
        return out

    run_barrier = solver._run_barrier
    monkeypatch.setattr(solver, "_run_barrier", recording_run_barrier)
    # Phase I starts from the origin, which misses W_00 >= 8 by 8, so the
    # slack ladder passes its first rung, 1.
    prob = floored_logdet_problem()
    _find_strictly_feasible(BarrierProblem(prob))

    (relaxed, start, history), = runs
    assert phase1_builds == [relaxed]
    assert not start[:-1].any()
    assert start[-1] == 1e2
    assert history[0][0] == relaxed.gap_degree() / 1e2


@pytest.fixture
def newton_directions(monkeypatch):
    """(t, lambda^2) of every Newton direction computed while the test runs,
    t read from the merit_derivatives call that precedes it."""
    directions = []

    def recording_derivatives(self, x, t):
        directions.append([t, None])
        return merit_derivatives(self, x, t)

    def recording_direction(hess, grad):
        d, lam2 = newton_direction(hess, grad)
        directions[-1][1] = lam2
        return d, lam2

    merit_derivatives = solver.BarrierProblem.merit_derivatives
    newton_direction = solver._newton_direction
    monkeypatch.setattr(solver.BarrierProblem, "merit_derivatives",
                        recording_derivatives)
    monkeypatch.setattr(solver, "_newton_direction", recording_direction)
    return directions


def interior_start(prob):
    """Variable values inside the barrier domain of ``prob``, from phase I:
    a start with which solve runs no phase I."""
    return prob.unpack(_find_strictly_feasible(BarrierProblem(prob)))


def stage_decrements(history, directions):
    """lambda^2 / 2 of every Newton direction, split by the barrier stages of
    ``history``: [(steps taken, [lambda^2 / 2, ...])].  A stage stopped by
    its Newton tolerance computed one direction more than it took steps."""
    stages, pos = [], 0
    for t, _, steps, _ in history:
        end = pos
        while end < len(directions) and directions[end][0] == t:
            end += 1
        stages.append((steps, [0.5 * lam2 for _, lam2 in directions[pos:end]]))
        assert end - pos in (steps, steps + 1)
        pos = end
    assert pos == len(directions)
    return stages


def assert_stops_at_first_decrement_below(steps, decrements, tol):
    """The stage stopped at its first decrement <= tol, or took a step along
    every direction (round-off floor or stage cap) with none below tol."""
    stopped_by_tol = len(decrements) == steps + 1
    assert all(dec > tol for dec in decrements[:-1])
    assert (decrements[-1] <= tol) == stopped_by_tol


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_intermediate_stages_stop_in_the_quadratic_phase(seed,
                                                         newton_directions):
    prob, _ = make_grid_instance(seed)
    start = interior_start(prob)
    newton_directions.clear()
    res = solve(prob, initial=start)
    assert res.status == "optimal"

    # The warm start's first direction is the start-t pass at BARRIER_T0,
    # before any stage; every stage, the last one too, stops in Newton's
    # quadratic phase.
    (start_t, _), *directions = newton_directions
    assert start_t == solver.BARRIER_T0
    stages = stage_decrements(res.history, directions)
    assert len(stages) >= 6
    for steps, decrements in stages:
        assert_stops_at_first_decrement_below(steps, decrements,
                                              solver.CENTERING_TOL)


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_stage_points_are_interior_and_centered_at_their_own_t(seed):
    prob, _ = make_grid_instance(seed)
    res = solve(prob, initial=interior_start(prob))
    assert res.status == "optimal"

    # One point per stage that ended on its tolerance, the last one too, in
    # stage order; every one still centered at its t, so the loop rebound
    # the iterate and never changed a recorded point in place.
    bp = BarrierProblem(prob)
    stage_ts = [t for t, *_ in res.history]
    points = [(t, x) for t, _, _, x in res.history if x is not None]
    point_ts = [t for t, _ in points]
    assert len(point_ts) >= 6 and point_ts[-1] == stage_ts[-1]
    assert point_ts == [t for t in stage_ts if t in point_ts]
    assert np.array_equal(prob.pack(res.values), points[-1][1])
    for t, x in points:
        assert bp.in_domain(x) and bp.strict_margin(x) > 0.0
        _, grad, hess, _, _ = bp.merit_derivatives(x, t)
        _, lam2 = solver._newton_direction(hess, grad)
        assert 0.5 * lam2 <= solver.CENTERING_TOL


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_derivatives_at_the_accepted_point_reuse_its_merit_pass(seed,
                                                                monkeypatch):
    # merit_derivatives at the very array that the last merit call accepted,
    # at its t, reads that call's domain pass instead of running _terms; a
    # call on a copy of the array runs it, and both give bitwise equal
    # results.
    prob, _ = make_grid_instance(seed)
    start = interior_start(prob)
    accepted = []                # (x, t) of the last merit call in the domain
    terms_calls = []
    reused = 0

    def recording_merit(self, x, t):
        val = merit(self, x, t)
        if val is not None:
            accepted[:] = [(x, t)]
        return val

    def counting_terms(self, x):
        terms_calls.append(None)
        return terms(self, x)

    def comparing_derivatives(self, x, t):
        nonlocal reused
        fresh = list(merit_derivatives(self, x.copy(), t))
        fresh[2] = fresh[2].copy()  # the problem's own array, rewritten next
        calls = len(terms_calls)
        out = merit_derivatives(self, x, t)
        if accepted and accepted[0][0] is x and accepted[0][1] == t:
            reused += 1
            assert len(terms_calls) == calls
            assert out[0] == fresh[0]
            assert np.array_equal(out[1], fresh[1])
            assert np.array_equal(out[2], fresh[2])
            assert np.array_equal(out[3], fresh[3])
        return out

    merit = BarrierProblem.merit
    terms = BarrierProblem._terms
    merit_derivatives = BarrierProblem.merit_derivatives
    monkeypatch.setattr(BarrierProblem, "merit", recording_merit)
    monkeypatch.setattr(BarrierProblem, "_terms", counting_terms)
    monkeypatch.setattr(BarrierProblem, "merit_derivatives",
                        comparing_derivatives)
    res = solve(prob, initial=start)
    assert res.status == "optimal"
    # Every accepted Newton step but a stage's last is followed by the next
    # step's derivatives at the same t.
    assert reused >= res.iterations - len(res.history) > 0


def test_centering_only_solve_centers_to_the_newton_tolerance(
        newton_directions):
    prob, _ = make_grid_instance(2)
    prob.set_objective()
    start = interior_start(prob)
    newton_directions.clear()
    res = solve(prob, initial=start)

    (stage,) = stage_decrements(res.history, newton_directions)
    steps, decrements = stage
    assert steps >= 3 and len(decrements) == steps + 1
    assert_stops_at_first_decrement_below(*stage, solver.NEWTON_TOL)


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_loose_intermediate_centering_keeps_the_optimum(seed, monkeypatch):
    prob, _ = make_grid_instance(seed)
    loose = solve(prob)
    monkeypatch.setattr(solver, "CENTERING_TOL", solver.NEWTON_TOL)
    tight = solve(prob)

    # Which one takes fewer steps varies per instance once the predictor
    # lands on the next stage's path (tight is cheaper on seed 5);
    # tests/test_sca.py compares the two over whole designs.
    assert loose.status == tight.status == "optimal"
    assert abs(loose.objective - tight.objective) <= 1e-9 * abs(tight.objective)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_start_t_of_a_centered_point_is_its_own_t(seed, monkeypatch):
    prob, _ = make_grid_instance(seed)
    bp = BarrierProblem(prob)
    # One barrier stage at t = 1e4, centered to its round-off floor: at
    # NEWTON_TOL the leftover gradient alone moves the estimate by up to
    # 1.6e-5 relative on these instances.
    monkeypatch.setattr(solver, "CENTERING_TOL", 0.0)
    x, _, status, history = solver._run_barrier(
        bp, _find_strictly_feasible(bp), t0=1e4, obj_tol=bp.gap_degree() / 1e4)
    assert status == "optimal" and len(history) == 1

    assert abs(solver._central_t(bp, x) - 1e4) <= 1e-6 * 1e4


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_predictor_keeps_the_optimum_in_fewer_steps(seed, monkeypatch):
    prob, _ = make_grid_instance(seed)
    predicted = solve(prob)
    monkeypatch.setattr(solver, "_predict", lambda bp, x, *args: x)
    corrected = solve(prob)

    assert predicted.status == corrected.status == "optimal"
    assert (abs(predicted.objective - corrected.objective)
            <= 1e-9 * abs(corrected.objective))
    assert predicted.iterations < corrected.iterations


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_last_stage_in_the_quadratic_phase_keeps_the_objective(seed,
                                                               monkeypatch):
    prob, _ = make_grid_instance(seed)
    res = solve(prob)
    t_last = res.history[-1][0]
    # A NEWTON_TOL last stage takes the same Newton steps until its
    # decrement first reaches CENTERING_TOL, then continues from there.
    bp = BarrierProblem(prob)
    monkeypatch.setattr(solver, "CENTERING_TOL", solver.NEWTON_TOL)
    x, steps, status, history = solver._run_barrier(
        bp, prob.pack(res.values), t0=t_last, obj_tol=bp.gap_degree() / t_last)
    assert res.status == status == "optimal" and len(history) == 1
    assert steps > 0

    assert abs(res.objective - bp.objective_value(x)) <= solver.OBJ_TOL


def kappa_problem(cap, eve_weight):
    """max log det(I + W) - eve_weight kappa over a 2 x 2 W >= 0 with
    tr W <= 1 and the Eve-type row Re tr(g W) <= cap + kappa, kappa >= 0:
    sca's Eve slack in miniature, read by no log-det block."""
    prob = ConicSubproblem()
    prob.add_hermitian("W", 2)
    prob.add_hermitian("kappa", 1)
    prob.add_ineq(prob.scalar_map({"kappa": -1.0}), 0.0)
    basis = hermitian_basis(2)
    g = np.array([[1.0, 0.5j], [-0.5j, 0.5]])
    prob.add_ineq(prob.scalar_map({"W": hermitian_weights(np.eye(2))}),
                  1.0)
    prob.add_ineq(prob.scalar_map({"W": hermitian_weights(g),
                                   "kappa": -1.0}), cap)
    prob.add_lmi(prob.matrix_map(np.zeros((2, 2)), {"W": basis}))
    prob.set_objective(
        linear=prob.scalar_map({"kappa": -eve_weight}),
        logdet=prob.matrix_map(np.eye(2), {"W": basis}))
    return prob


def padded_kappa_start(prob, cap):
    """W = 0.3 I, whose Eve-type bound is 0.45, and kappa at that bound's
    violation plus a pad of 1e-4, as sca._start_values sizes it."""
    return prob.pack({"W": 0.3 * np.eye(2),
                      "kappa": max(0.45 - cap, 0.0) + 1e-4})


def forbid_merit_calls(monkeypatch):
    def fail(*args):
        raise AssertionError("merit evaluated")

    monkeypatch.setattr(BarrierProblem, "merit", fail)
    monkeypatch.setattr(BarrierProblem, "merit_derivatives", fail)


# cap 1.0 leaves the Eve-type row inactive at the start, cap 0.2 is violated
# (bound 0.45 > cap); two rows that hold kappa within +-0.5 of its start
# bound it by the upper one at t = 1.
@pytest.mark.parametrize("cap", [1.0, 0.2], ids=["inactive", "violated"])
@pytest.mark.parametrize("t", [1.0, 100.0, 1e4])
@pytest.mark.parametrize("boxed", [False, True], ids=["free", "boxed"])
def test_free_coordinate_moves_to_its_exact_line_minimizer(cap, t, boxed,
                                                           monkeypatch):
    prob = kappa_problem(cap, eve_weight=2.0)
    bp = BarrierProblem(prob)
    x = padded_kappa_start(prob, cap)
    j = prob.blocks[1].offset
    if boxed:
        # Rows kappa <= x_j + 0.5 and -kappa <= 0.5 - x_j.
        unit = np.eye(bp.n)[j]
        bp.A = np.vstack([bp.A, unit, -unit])
        bp.b = np.append(bp.b, (x[j] + 0.5, 0.5 - x[j]))
    assert bp.in_domain(x) and j not in bp._grad_idx
    before = bp.merit(x, t)

    with monkeypatch.context() as patch:
        forbid_merit_calls(patch)
        moved = solver._center_free_coordinates(bp, x, t)

    # Only kappa moves, inside the domain, and the merit does not rise.
    others = np.arange(bp.n) != j
    assert np.array_equal(moved[others], x[others])
    assert moved[j] != x[j]
    assert bp.in_domain(moved)
    assert bp.merit(moved, t) <= before
    # The merit's derivative along kappa vanishes to round-off, relative to
    # the magnitudes of its terms.
    _, grad, _, _, _ = bp.merit_derivatives(moved, t)
    s = bp.b - bp.A @ moved
    scale = t * abs(bp.c[j]) + np.abs(bp.A[:, j]) @ (1.0 / s)
    assert abs(grad[j]) <= 1e-10 * scale


@pytest.mark.parametrize("cap", [1.0, 0.2], ids=["inactive", "violated"])
def test_free_coordinate_with_an_unbounded_line_merit_stays(cap, monkeypatch):
    # Without a price on kappa, -log kappa - log(slack + kappa) falls
    # without bound as kappa grows.
    prob = kappa_problem(cap, eve_weight=0.0)
    bp = BarrierProblem(prob)
    x = padded_kappa_start(prob, cap)
    forbid_merit_calls(monkeypatch)
    moved = solver._center_free_coordinates(bp, x, 100.0)
    assert np.array_equal(moved, x)


# ---------------------------------------------------------------------------
# The line search along the Newton step

# TINY, perfbench's eve_active scenario, and test_sca's kilowatt stall case,
# whose first subproblem's first stage takes damped steps that end short of
# the domain's end.
DESIGNS = {
    "tiny": TINY,
    "default": channels.ScenarioConfig(eve_mi_cap=1.0),
    "kilowatt": channels.ScenarioConfig(power_budget=1e3, noise_comm=1e-2,
                                        eve_mi_cap=1.0),
}


@functools.lru_cache(maxsize=None)
def design_newton_points(name, channel_seed=1):
    """(bp, x, t) of every merit_derivatives call of the design at
    ``channel_seed`` of the scenario ``name`` (DESIGNS): each Newton point of
    its barrier loops, and each warm start's start-t pass."""
    cfg = DESIGNS[name]
    points = []
    merit_derivatives = BarrierProblem.merit_derivatives

    def recording(self, x, t):
        points.append((self, x, t))
        return merit_derivatives(self, x, t)

    links, stats_r, stats_e = channels.build_scenario(cfg,
                                                      RngState(channel_seed))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BarrierProblem, "merit_derivatives", recording)
        sca.run_sca_no_an(links, stats_r, stats_e, cfg, RngState(channel_seed))
    return points


def newton_step(bp, x, t):
    """(val, slope, d, line) at x as _run_barrier computes them: the merit,
    its slope along the Newton direction d, and bp.line_model along d; None
    where the loop would stop, with lambda^2 / 2 <= CENTERING_TOL."""
    val, grad, hess, g0, line = bp.merit_derivatives(x, t)
    (d, _), lam2 = solver._newton_direction(hess, np.stack([grad, g0]))
    if 0.5 * lam2 <= solver.CENTERING_TOL:
        return None
    return val, float(grad @ d), d, bp.line_model(line, d, t)


def line_value(line, alpha):
    """(value, size) of bp.line_model's function at alpha: size sums the
    magnitudes of its terms."""
    slope, a, s, weights = line
    terms = weights * np.log((s - alpha * a) / s)
    return (slope * alpha - float(np.sum(terms)),
            abs(slope * alpha) + float(np.sum(np.abs(terms))))


def one_step(bp, x, t):
    """The iterate after _run_barrier's first Newton step from x at t, its
    one stage capped at that step."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "STAGE_MAX_STEPS", 1)
        stepped, steps, status, _ = solver._run_barrier(
            bp, x, t0=t, obj_tol=bp.gap_degree() / t)
    assert steps == 1 and status == "stage-cap"
    return stepped


@pytest.mark.parametrize("name", ["tiny", "default"])
def test_eigenvalue_model_is_the_merit_along_the_step(name):
    # To 1e-9 of the magnitudes of the model's terms, up to t = 1e4, where
    # the merit's own round-off, eps |merit|, stays below that.
    points = design_newton_points(name)
    checked = 0
    for bp, x, t in points:
        step = newton_step(bp, x, t)
        if step is None or t > 1e4:
            continue
        val, _, d, line = step
        _, end = solver._domain_bracket(line[1], line[2])
        for frac in (0.25, 0.5, 0.9, 1.0):
            alpha = frac * min(0.999 * end, 1.5)
            change = bp.merit(x + alpha * d, t) - val
            model, size = line_value(line, alpha)
            assert abs(model - change) <= 1e-9 * size
        checked += 1
    assert checked >= 8


def test_line_model_reads_the_point_whose_line_it_was_given():
    # The model of x_1's line along x_1's Newton step d is the merit along d
    # from x_1, also after the derivatives of the next Newton point x_2 of
    # TINY's design; to 1e-9 of its terms' magnitudes up to t = 1e4, as in
    # test_eigenvalue_model_is_the_merit_along_the_step.
    points = design_newton_points("tiny")
    checked = 0
    for (bp, x, t), (bp2, x2, t2) in zip(points, points[1:]):
        if bp2 is not bp or t > 1e4 or np.array_equal(x, x2):
            continue
        val, grad, hess, g0, line = bp.merit_derivatives(x, t)
        (d, _), lam2 = solver._newton_direction(hess, np.stack([grad, g0]))
        if 0.5 * lam2 <= solver.CENTERING_TOL:
            continue
        assert bp.merit_derivatives(x2, t2) is not None
        model = bp.line_model(line, d, t)
        _, end = solver._domain_bracket(model[1], model[2])
        for frac in (0.25, 0.5, 0.9, 1.0):
            alpha = frac * min(0.999 * end, 1.5)
            change = bp.merit(x + alpha * d, t) - val
            value, size = line_value(model, alpha)
            assert abs(value - change) <= 1e-9 * size
        checked += 1
    assert checked >= 8


def scipy_newton_direction(hess, grad):
    """_newton_direction through scipy.linalg.cho_factor and cho_solve, as
    the solver computed it before it called LAPACK itself: (d, lambda^2,
    factorization attempts)."""
    diag = np.abs(np.diag(hess))
    precond = 1.0 / np.sqrt(np.maximum(diag, 1e-30))
    hess *= precond[:, None]
    hess *= precond[None, :]
    scaled_diag = hess.diagonal().copy()
    g_scaled = (grad * precond).T
    jitter = 0.0
    for attempt in range(1, 13):
        if jitter > 0.0:
            np.fill_diagonal(hess, scaled_diag + jitter)
        try:
            factor = scipy.linalg.cho_factor(hess, check_finite=False)
            d = -precond * scipy.linalg.cho_solve(factor, g_scaled,
                                                  check_finite=False).T
            lam2 = float(-np.atleast_2d(grad)[0] @ np.atleast_2d(d)[0])
            if np.isfinite(lam2) and lam2 >= 0.0:
                return d, lam2, attempt
        except np.linalg.LinAlgError:
            pass
        jitter = max(jitter * 100.0, 1e-14)
    raise AssertionError("the reference found no factorization")


@pytest.fixture
def cho_factor_calls(monkeypatch):
    """The number of solver.cho_factor calls made while the test runs, in a
    one-element list."""
    calls = [0]

    def counting(a):
        calls[0] += 1
        return cho_factor(a)

    cho_factor = solver.cho_factor
    monkeypatch.setattr(solver, "cho_factor", counting)
    return calls


def assert_direction_matches_scipy(hess, grad, cho_factor_calls):
    """_newton_direction's step, its further right-hand sides, lambda^2 and
    scaled ``hess`` are bitwise those of scipy_newton_direction, from as
    many solver.cho_factor calls as the reference's attempts."""
    ref_hess = hess.copy()
    ref_d, ref_lam2, attempts = scipy_newton_direction(ref_hess, grad)
    before = cho_factor_calls[0]
    d, lam2 = solver._newton_direction(hess, grad)
    assert np.array_equal(d, ref_d) and d.shape == ref_d.shape
    assert lam2 == ref_lam2
    assert np.array_equal(hess, ref_hess)
    assert cho_factor_calls[0] - before == attempts
    return attempts


@pytest.mark.parametrize("name", ["tiny", "default"])
def test_newton_direction_equals_scipy_cholesky(name, cho_factor_calls):
    # Every Newton system of TINY's design and of eve_active's channel seed
    # 1 ("default"), with the central-path tangent's right-hand side: the
    # step, the tangent and lambda^2 bit for bit.
    points = design_newton_points(name)
    for bp, x, t in points:
        _, grad, hess, g0, _ = bp.merit_derivatives(x, t)
        assert_direction_matches_scipy(hess, np.stack([grad, g0]),
                                       cho_factor_calls)
    assert len(points) >= 20


def test_newton_direction_escalates_jitter_as_scipy_cholesky(
        cho_factor_calls):
    # D M D with M's eigenvalues 2 + 1e-9, -1e-9 and 1: Jacobi scaling
    # recovers M exactly (D is a power of two), which factors once the
    # jitter reaches 1e-8, at the fifth attempt.
    m = np.array([[1.0, 1.0 + 1e-9, 0.0],
                  [1.0 + 1e-9, 1.0, 0.0],
                  [0.0, 0.0, 1.0]])
    scale = np.array([4.0, 0.125, 1.0])
    hess = scale[:, None] * m * scale[None, :]
    grad = np.array([[1.0, -2.0, 0.5], [0.0, 1.0, 3.0]])
    assert np.linalg.eigvalsh(m)[0] < 0.0
    assert assert_direction_matches_scipy(hess, grad, cho_factor_calls) == 5
    assert hess[0, 0] == 1.0 + 1e-8


@pytest.mark.parametrize("rows", [(), (2,)], ids=["vector", "stacked"])
def test_empty_newton_system_gives_an_empty_step(rows, cho_factor_calls,
                                                 capfd):
    d, lam2 = solver._newton_direction(np.zeros((0, 0)), np.zeros(rows + (0,)))
    assert d.shape == rows + (0,) and lam2 == 0.0
    assert_direction_matches_scipy(np.zeros((0, 0)), np.zeros(rows + (0,)),
                                   cho_factor_calls)
    # LAPACK reports an illegal argument, such as a leading dimension of 0,
    # on the process's own stdout or stderr; the empty system passes none.
    assert capfd.readouterr() == ("", "")


def test_illegal_lapack_argument_raises():
    # A leading dimension below n is LAPACK's INFO = -4 for dpotrf: an
    # illegal argument raises rather than reading as a factorization.
    with pytest.raises(SolverError, match="LAPACK rejected argument 4"):
        solver._lapack(solver._potrf, 2, np.eye(2, order="F"), 1)


def test_numpy_without_scipy_openblas64_raises_import_error(monkeypatch):
    # A numpy that links another LAPACK, as a conda-forge or distribution
    # build does, exports no scipy_dpotrf_64_: the lookup raises ImportError
    # naming numpy's version and the BLAS that numpy reports.
    monkeypatch.setattr(solver.ctypes, "CDLL", lambda path: object())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with pytest.raises(ImportError) as raised:
        solver._lapack_routines()
    assert (f"numpy {np.__version__} links {blas['name']} {blas['version']}"
            in str(raised.value))


def test_no_module_sets_a_process_wide_allocator_option():
    # Importing sensesec leaves its host's malloc as it was: no module names
    # mallopt, and none opens the process's own symbols, ctypes.CDLL(None).
    modules = sorted(Path(solver.__file__).parent.rglob("*.py"))
    assert Path(solver.__file__) in modules
    for path in modules:
        text = path.read_text(encoding="utf-8")
        assert "mallopt" not in text, path
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr",
                                getattr(node.func, "id", None)) == "CDLL"):
                assert not (node.args
                            and isinstance(node.args[0], ast.Constant)
                            and node.args[0].value is None), path


@pytest.mark.parametrize("name", ["tiny", "default"])
def test_exact_step_is_the_minimizer_along_the_step(name):
    # Where the full step stays in the domain, the step that _run_barrier
    # takes is x + alpha* d, and alpha* (1 +- 1e-3) lowers the merit no
    # further; up to t = 1e4, as above.
    points = design_newton_points(name)
    checked = 0
    for bp, x, t in points:
        step = newton_step(bp, x, t)
        if step is None or t > 1e4:
            continue
        val, slope, d, line = step
        _, end = solver._domain_bracket(line[1], line[2])
        best = solver._line_minimizer(*line)
        if end <= 1.0 or best is None:
            continue
        at_best = bp.merit(x + best * d, t)
        if at_best > val + solver.ARMIJO_ALPHA * best * slope:
            continue
        assert np.array_equal(one_step(bp, x, t), x + best * d)
        for nearby in (best * (1.0 - 1e-3), best * (1.0 + 1e-3)):
            assert bp.merit(x + nearby * d, t) >= at_best
        checked += 1
    assert checked >= 5


def halving_from_the_full_step(bp, x, d, t, val, slope):
    """Backtracking from the full step by halves to the first that passes
    the Armijo test: (that step or None, the merit of every trial)."""
    step, trials = 1.0, []
    while step > 1e-14:
        mval = bp.merit(x + step * d, t)
        trials.append(mval)
        if (mval is not None
                and mval <= val + solver.ARMIJO_ALPHA * step * slope):
            return step, trials
        step *= 0.5
    return None, trials


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_step_beyond_the_domain_halves_from_below_its_end(name, monkeypatch):
    # A full step that leaves the domain takes the halving path.  It accepts
    # the step that halving from the full step accepts, and it skips the
    # trials at or beyond the domain's end, which all leave the domain.
    # TINY's design at channel seed 1 takes 3 such steps, so its points come
    # from channel seeds 1 and 2.
    seeds = (1, 2) if name == "tiny" else (1,)
    points = [point for seed in seeds
              for point in design_newton_points(name, seed)]
    calls = []
    merit = BarrierProblem.merit

    def counting_merit(self, x, t):
        calls.append(None)
        return merit(self, x, t)

    checked = skipped = 0
    for bp, x, t in points:
        step = newton_step(bp, x, t)
        if step is None:
            continue
        val, slope, d, line = step
        _, end = solver._domain_bracket(line[1], line[2])
        if end > 1.0:
            continue
        accepted, trials = halving_from_the_full_step(bp, x, d, t, val, slope)
        beyond = sum(1 for k in range(len(trials)) if 0.5 ** k >= end)
        assert accepted is not None and beyond >= 1
        assert all(mval is None for mval in trials[:beyond])
        with monkeypatch.context() as patch:
            patch.setattr(BarrierProblem, "merit", counting_merit)
            calls.clear()
            stepped = one_step(bp, x, t)
        assert np.array_equal(stepped, x + accepted * d)
        assert len(calls) == len(trials) - beyond
        checked += 1
        skipped += beyond
    assert checked >= 5
    if name == "kilowatt":
        assert checked >= 40 and skipped >= 300


# test_free_coordinate_moves_to_its_exact_line_minimizer's kappa, keyed by
# (cap, t, boxed), as _center_free_coordinates centered it before
# _line_minimizer took weights.
CENTERED_KAPPA = {
    (1.0, 1.0, False): "0x1.975d8cfd7b410p-1",
    (1.0, 1.0, True): "0x1.10ed36d53e62ep-2",
    (1.0, 100.0, False): "0x1.4aa89e226da62p-8",
    (1.0, 100.0, True): "0x1.4a97ba1e98422p-8",
    (1.0, 1e4, False): "0x1.a377f1959e05ap-15",
    (1.0, 1e4, True): "0x1.a377f2225e183p-15",
    (0.2, 1.0, False): "0x1.23f07b357f683p+0",
    (0.2, 1.0, True): "0x1.11f58451d289ep-1",
    (0.2, 100.0, False): "0x1.0538ec86315dep-2",
    (0.2, 100.0, True): "0x1.0538a6c163ecep-2",
    (0.2, 1e4, False): "0x1.000d1c1d4204bp-2",
    (0.2, 1e4, True): "0x1.000d1c1d466adp-2",
}


@pytest.mark.parametrize("cap, t, boxed", sorted(CENTERED_KAPPA))
def test_unit_weights_leave_free_coordinate_centering_bitwise_equal(
        cap, t, boxed, monkeypatch):
    # _center_free_coordinates passes no weights; unit weights give the same
    # minimizer bit for bit, and the centered kappa is the one computed
    # before _line_minimizer took weights.
    prob = kappa_problem(cap, eve_weight=2.0)
    bp = BarrierProblem(prob)
    x = padded_kappa_start(prob, cap)
    j = prob.blocks[1].offset
    if boxed:
        unit = np.eye(bp.n)[j]
        bp.A = np.vstack([bp.A, unit, -unit])
        bp.b = np.append(bp.b, (x[j] + 0.5, 0.5 - x[j]))
    steps = []
    line_minimizer = solver._line_minimizer

    def comparing(slope, a, s):
        step = line_minimizer(slope, a, s)
        assert step == line_minimizer(slope, a, s, np.ones(len(a)))
        steps.append(step)
        return step

    monkeypatch.setattr(solver, "_line_minimizer", comparing)
    moved = solver._center_free_coordinates(bp, x, t)
    assert len(steps) == 1
    assert moved[j].hex() == CENTERED_KAPPA[(cap, t, boxed)]
