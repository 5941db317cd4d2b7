"""Self-contained barrier interior-point solver for small conic subproblems:
maximize a concave log-det-plus-linear objective over complex Hermitian and
real scalar variables subject to affine inequalities and linear matrix
inequalities.

Problems are declared at the complex level (ConicSubproblem) by the
coefficients of their affine maps, as in MAXDET (Vandenberghe, Boyd & Wu
1998), and solved there: a log-barrier Newton method (Boyd & Vandenberghe,
Convex Optimization, sec. 11.3) runs on the real coordinates of the variables.

Identical problems give identical iterates at a fixed BLAS thread count.
Across thread counts, BLAS may sum in another order and the iterates may
differ by round-off.  For the default ScenarioConfig at channel seed 1,
run_sca_no_an solves one subproblem, certified at the relaxation, in 26
Newton steps at one OpenBLAS thread and at two, and its final MIs agree
bitwise; so do its designs at eve_mi_cap 5 and 1 on channel seeds 1-3,
with equal outer iterations and Newton steps: at cap 1, 2 outer iterations
and 49, 53 and 51 Newton steps (2-core x86 Xeon, OpenBLAS 0.3.31 in numpy,
0.3.30 in scipy).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

# Newton's stopping thresholds on lambda^2 / 2.  A centering-only solve
# centers to NEWTON_TOL.  Every stage of a solve with an objective, the last
# one included, stops once Newton's method is in its quadratic phase,
# lambda <= (1 - 2 alpha) / 4 for the Armijo parameter alpha (Boyd &
# Vandenberghe, Convex Optimization, sec. 9.6.4; inexact centering, sec.
# 11.3.1); _run_barrier says why the last stage needs no more.
ARMIJO_ALPHA = 0.01        # sufficient-decrease fraction of the line search
NEWTON_TOL = 1e-9
CENTERING_TOL = 0.5 * ((1.0 - 2.0 * ARMIJO_ALPHA) / 4.0) ** 2
BARRIER_T0 = 1e3           # barrier parameter of the first stage of a solve
BARRIER_GROWTH = 10.0
STAGE_MAX_STEPS = 60       # Newton steps in one barrier stage
PHASE1_MARGIN = 1e-9       # margin phase I aims at; a start needs none
PHASE1_MAX_STEPS = 400
FEAS_TOL = 1e-7            # largest constraint violation of an "optimal" result
OBJ_TOL = 1e-8             # duality-gap bound that ends the barrier
MAX_NEWTON_STEPS = 600


class SolverError(RuntimeError):
    pass


class InfeasibleError(SolverError):
    """Raised when a problem is certified to have no strictly feasible point:
    here when phase-I slack minimization converged with its slack still
    positive, off its coordinate box, and in sca when the min-power fixed
    point shows that the SINR targets do not fit the power budget."""


# ---------------------------------------------------------------------------
# Variable blocks and coordinate packing

KIND_HERMITIAN = "hermitian"
KIND_SCALAR = "scalar"


@dataclass(frozen=True)
class VarBlock:
    name: str
    kind: str
    dim: int
    offset: int
    size: int


def pack_hermitian(h):
    """Real coordinates of a Hermitian matrix: diagonal first, then
    (re, im) pairs of the strict upper triangle, row-major."""
    h = np.asarray(h, dtype=complex)
    upper = h[~np.tri(len(h), dtype=bool)]        # row-major
    return np.concatenate([h.real.diagonal(), upper.view(np.float64)])


def unpack_hermitian(coords, dim):
    h = np.zeros((dim, dim), dtype=complex)
    pairs = np.ascontiguousarray(coords[dim:], dtype=float)
    h[~np.tri(dim, dtype=bool)] = pairs.view(complex)
    h += h.conj().T
    h[np.diag_indices(dim)] = coords[:dim]
    return h


def hermitian_basis(dim):
    """(dim^2, dim, dim) stack E with sum_g x_g E_g == unpack_hermitian(x)."""
    basis = np.zeros((dim * dim, dim, dim), dtype=complex)
    diag = np.arange(dim)
    basis[diag, diag, diag] = 1.0
    iu, ju = np.triu_indices(dim, 1)
    re = dim + 2 * np.arange(len(iu))     # (re, im) coordinate pairs
    basis[re, iu, ju] = basis[re, ju, iu] = 1.0
    basis[re + 1, iu, ju] = 1j
    basis[re + 1, ju, iu] = -1j
    return basis


def hermitian_weights(g):
    """Weights of W -> Re tr(g W) on pack_hermitian(W), for Hermitian g: each
    off-diagonal pair of g meets its entry of W twice."""
    weights = pack_hermitian(g)
    weights[len(g):] *= 2.0
    return weights


# ---------------------------------------------------------------------------
# Affine maps given by their coefficients


@dataclass
class MatrixMap:
    """Affine map x -> offset + sum_g x[coords[g]] * mats[g] (complex d x d)."""

    coords: np.ndarray          # (m,) global coordinate indices
    mats: np.ndarray            # (m, d, d) complex
    offset: np.ndarray          # (d, d) complex


class ConicSubproblem:
    """Declarative description of one convex max-det subproblem: maximize
    a linear functional plus at most one log-det, of an affine matrix map,
    subject to linear rows and LMIs.

    A matrix map is stated by one complex Hermitian coefficient per real
    coordinate of each variable it involves, in packing order; a linear
    functional by its dense real weights over the coordinates declared so
    far (scalar_map).  ``ineqs`` holds (weights, rhs) pairs and
    ``objective`` (linear, logdet).  Packing order is private to this
    module; hermitian_basis and hermitian_weights build coefficients in it.
    """

    def __init__(self):
        self._blocks = {}
        self.n = 0
        self.objective = None
        self.lmis = []
        self.ineqs = []

    # -- variable declaration

    def _add_block(self, name, kind, dim, size):
        if name in self._blocks:
            raise ValueError(f"duplicate variable name {name!r}")
        blk = VarBlock(name, kind, dim, self.n, size)
        self._blocks[name] = blk
        self.n += size
        return blk

    def add_hermitian(self, name, dim):
        return self._add_block(name, KIND_HERMITIAN, dim, dim * dim)

    def add_scalar(self, name, lower=None):
        blk = self._add_block(name, KIND_SCALAR, 1, 1)
        if lower is not None:
            self.add_ineq(self.scalar_map({name: -1.0}), -float(lower))
        return blk

    @property
    def blocks(self):
        return list(self._blocks.values())

    # -- packing between named complex values and the real coordinate vector

    def pack(self, values):
        x = np.zeros(self.n)
        for blk in self.blocks:
            val = values[blk.name]
            sl = slice(blk.offset, blk.offset + blk.size)
            if blk.kind == KIND_HERMITIAN:
                x[sl] = pack_hermitian(val)
            else:
                x[sl] = float(val)
        return x

    def unpack(self, x):
        vals = {}
        for blk in self.blocks:
            sl = slice(blk.offset, blk.offset + blk.size)
            if blk.kind == KIND_HERMITIAN:
                vals[blk.name] = unpack_hermitian(x[sl], blk.dim)
            else:
                vals[blk.name] = float(x[sl][0])
        return vals

    # -- affine maps from coefficient stacks

    def _coefficients(self, terms, shape):
        """Global coordinates and coefficients of ``terms`` (variable name ->
        one coefficient per real coordinate, in packing order), leaving out
        the coefficients that are exactly zero."""
        coords = [np.zeros(0, dtype=np.intp)]
        coefs = [np.zeros((0,) + shape, dtype=complex)]
        for name, stack in terms.items():
            blk = self._blocks[name]
            stack = np.reshape(np.asarray(stack, dtype=complex), (blk.size,) + shape)
            keep = np.flatnonzero(np.any(stack.reshape(blk.size, -1) != 0, axis=1))
            coords.append(blk.offset + keep)
            coefs.append(stack[keep])
        return np.concatenate(coords), np.concatenate(coefs)

    def matrix_map(self, offset, terms):
        """Affine map x -> offset + sum_g x_g E_g into complex Hermitian
        matrices; ``terms[name]`` stacks the (d, d) Hermitian E_g of each
        real coordinate of that variable."""
        offset = np.asarray(offset, dtype=complex)
        if offset.ndim != 2 or offset.shape[0] != offset.shape[1]:
            raise ValueError("matrix map offset must be a square matrix")
        return MatrixMap(*self._coefficients(terms, offset.shape), offset)

    def scalar_map(self, terms):
        """Dense weights a of x -> a . x over the coordinates declared so far;
        ``terms[name]`` holds the real weights of that variable's coordinates
        (a plain number for a scalar variable), the rest weigh zero."""
        weights = np.zeros(self.n)
        for name, part in terms.items():
            blk = self._blocks[name]
            weights[blk.offset:blk.offset + blk.size] = np.reshape(
                np.asarray(part, dtype=float), blk.size)
        return weights

    # -- constraints and objective

    def set_objective(self, linear=None, logdet=None):
        """Maximize linear . x + log det F(x), for scalar_map weights
        ``linear`` and a MatrixMap F = ``logdet``; either may be left out."""
        linear = linear if linear is not None else self.scalar_map({})
        self.objective = (linear, logdet)

    def add_lmi(self, mmap):
        self.lmis.append(mmap)

    def add_ineq(self, weights, rhs):
        """weights . x <= rhs, for scalar_map weights."""
        self.ineqs.append((weights, float(rhs)))


@dataclass
class SolverResult:
    values: dict
    objective: float
    feas_residual: float
    iterations: int
    status: str        # optimal | max-iter | stage-cap | line-search-failed
    history: list = field(default_factory=list)
    # (t, x) of every stage that ended centered, in stage order: the point
    # before the predictor step, centered at t to its stage tolerance, in
    # the problem's real coordinates (ConicSubproblem.unpack reads them).
    stage_points: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Barrier problem


@dataclass
class _RealBlock:
    """One log-det barrier term over the complex Hermitian data of a
    MatrixMap, batched over maps that differ only in their coordinates:
    sum_k logdet F_k(x) with F_k(x) = offset + sum_g x[coords[k, g]] *
    mats[g].  BarrierProblem weighs it by the list that holds it: the
    objective's by t, an LMI's by LMI_WEIGHT.

    ``coords`` is (m,) for one map or (K, m) for K maps with equal
    coefficients and offset, such as the per-user LMIs W_k >= 0.  assemble,
    chol and grad_gram then carry the leading batch axis of length K, and
    logdet and min_eig reduce over it, so a batch costs one call of each.

    Coordinates with equal coefficients share one row of the derivative
    kernel: a map of sum_k W_k puts the same stack on every W_k.
    The arithmetic is complex despite the name, which stays because the
    benchmark's layer tracer wraps ``_RealBlock.grad_gram`` by name.
    """

    coords: np.ndarray           # (m,) or (K, m)
    mats: np.ndarray             # (m, d, d) complex Hermitian
    offset: np.ndarray           # (d, d) complex Hermitian

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.intp)
        self.mats = np.ascontiguousarray(self.mats, dtype=complex)
        # Real (m, 2 d^2) view of the coefficients: products with real
        # vectors run as real BLAS calls, which unlike complex ones stay
        # fast on small operands when BLAS runs several threads.
        m, d = self.mats.shape[:2]
        self._flat = self.mats.reshape(m, d * d).view(np.float64)
        # Group the coordinates whose coefficient rows are equal (cheaper
        # than hashing whole rows): a row joins the first row with its
        # fingerprint, unless the two differ.
        # inv[g] is the group of coordinate g, rows[j] the first row of j.
        keys = self._flat @ np.sqrt(np.arange(2.0, 2.0 + 2 * d * d))
        first = {}
        rep = np.array([first.setdefault(key, g)
                        for g, key in enumerate(keys.tolist())], dtype=np.intp)
        if len(first) < m:
            clash = np.any(self._flat != self._flat[rep], axis=1)
            rep[clash] = np.flatnonzero(clash)
        rows = np.flatnonzero(rep == np.arange(m))
        inv = np.searchsorted(rows, rep)
        distinct, k = self.mats[rows], len(rows)
        # Gather indices that expand distinct-row results to every
        # coordinate; None when every row is distinct.
        self._expand = None if k == m else (inv, inv[:, None] * k + inv)
        self._distinct_flat = distinct.reshape(k, d * d).view(np.float64)
        self._stacked = distinct.reshape(k * d, d)                  # [S_g; ...]
        self._side_by_side = np.ascontiguousarray(
            distinct.transpose(1, 0, 2)).reshape(d, k * d)         # [S_g ...]

    @property
    def dim(self):
        return self.offset.shape[0]

    @property
    def batch_size(self):
        """Number of maps K in the batch (1 for unbatched coords)."""
        return int(np.prod(self.coords.shape[:-1]))

    def assemble(self, x):
        acc = (x[self.coords] @ self._flat).view(complex)
        return self.offset + acc.reshape(self.coords.shape[:-1]
                                         + (self.dim, self.dim))

    def chol(self, x):
        try:
            return np.linalg.cholesky(self.assemble(x))
        except np.linalg.LinAlgError:
            return None

    def logdet(self, chol):
        """log det F summed over the batch, from its Cholesky factors."""
        diag = np.diagonal(chol, axis1=-2, axis2=-1).real
        return 2.0 * float(np.sum(np.log(diag)))

    def min_eig(self, x):
        return float(np.min(np.linalg.eigvalsh(self.assemble(x))[..., 0]))

    def grad_gram(self, chol):
        """(gvec, gram) of logdet at the assembled point F = L L^H: gvec_g =
        Re tr(F^-1 S_g), gram_gh = Re tr(F^-1 S_g F^-1 S_h), over every
        coordinate of the block, with the batch axis of ``chol`` leading.

        Both come from G = F^-1 = L^-H L^-1 on the distinct rows.  For
        Hermitian S, Re tr(G S) is the real dot product of G and S, and
        Re tr(G S_g G S_h) that of G S_g and S_h G, the conjugate transpose
        of G S_h.
        """
        d, k = self.dim, len(self._distinct_flat)
        batch = chol.shape[:-2]
        linv = np.linalg.inv(chol)
        g = linv.conj().swapaxes(-1, -2) @ linv
        gvec = g.reshape(batch + (d * d,)).view(np.float64) \
            @ self._distinct_flat.T
        sg = (self._stacked @ g).reshape(batch + (k, d * d))          # S_g G
        gs = (g @ self._side_by_side).reshape(batch + (d, k, d))     # G S_g
        gs = np.ascontiguousarray(gs.swapaxes(-2, -3))
        gram = gs.reshape(batch + (k, d * d)).view(np.float64) \
            @ sg.view(np.float64).swapaxes(-1, -2)
        if self._expand is None:
            return gvec, gram
        inv, pairs = self._expand
        return (np.take(gvec, inv, axis=-1),
                np.take(gram.reshape(batch + (k * k,)), pairs, axis=-1))


# An LMI F >= 0 enters the barrier as -LMI_WEIGHT * logdet F, with barrier
# parameter LMI_WEIGHT * dim F.
LMI_WEIGHT = 2.0


class BarrierProblem:
    """Solve-ready form: minimize -(c.x + logdet F(x)) subject to LMIs and
    rows with slacks b - A x, so the merit has two kinds of terms:
    log-det blocks and log slacks.  One pass, _terms, defines the barrier
    domain; in_domain, merit and merit_derivatives read it."""

    # (x, t, terms, value) of the last merit call inside the domain, which
    # merit_derivatives reuses at that very array and t: the line search and
    # the predictor evaluate the merit at the point they accept.
    _last_merit = None

    def __init__(self, problem: ConicSubproblem):
        if problem.objective is None:
            raise ValueError("objective not set")
        self.n = problem.n
        linear, logdet = problem.objective
        self.c = np.zeros(self.n)
        self.c[:len(linear)] = linear
        self.obj_blocks = [_RealBlock(m.coords, m.mats, m.offset)
                           for m in [logdet] if m is not None]
        self.lmi_blocks = [_RealBlock(coords, m.mats, m.offset)
                           for coords, m in _batch_shared_maps(problem.lmis)]
        # A row or c declared before a later variable leaves its column zero.
        self.A = np.zeros((len(problem.ineqs), self.n))
        self.b = np.zeros(len(problem.ineqs))
        for row, (weights, rhs) in enumerate(problem.ineqs):
            self.A[row, :len(weights)] = weights
            self.b[row] = rhs
        self._index_tables()

    def _index_tables(self):
        """Flat targets of the scatters in merit_derivatives: the gradient
        entry of every block coordinate and the Hessian entry of every
        coordinate pair, in the order the terms are evaluated.  Repeated
        targets add up."""
        n = self.n
        blocks = self.obj_blocks + self.lmi_blocks
        empty = [np.zeros(0, dtype=np.intp)]
        self._grad_idx = np.concatenate(
            [np.ravel(blk.coords) for blk in blocks] + empty)
        self._obj_grad_len = sum(blk.coords.size for blk in self.obj_blocks)
        self._hess_idx = np.concatenate(
            [np.ravel(blk.coords[..., :, None] * n + blk.coords[..., None, :])
             for blk in blocks] + empty)

    def gap_degree(self):
        return len(self.b) + sum(LMI_WEIGHT * blk.dim * blk.batch_size
                                 for blk in self.lmi_blocks)

    def objective_value(self, x):
        """Max-sense objective in original (complex) units."""
        val = float(self.c @ x)
        for blk in self.obj_blocks:
            chol = blk.chol(x)
            if chol is None:
                return -np.inf
            val += blk.logdet(chol)
        return val

    # -- the barrier domain and the merit

    def _terms(self, x):
        """The one test of the barrier domain: (chols, s), with chols of the
        objective then the LMI blocks and s the row slacks b - A x, when
        every block factors and every slack is positive; else None.  The
        pass stops at the first block without a factor."""
        chols = []
        for blk in self.obj_blocks + self.lmi_blocks:
            chol = blk.chol(x)
            if chol is None:
                return None
            chols.append(chol)
        s = self.b - self.A @ x
        if (s <= 0.0).any():
            return None
        return chols, s

    def _weighted(self, t):
        """(block, weight, merit weight) of the objective and LMI blocks in
        _terms order: the objective's log-det has weight 1 and carries the
        barrier parameter t, and an LMI has LMI_WEIGHT."""
        return ([(blk, 1.0, t) for blk in self.obj_blocks]
                + [(blk, LMI_WEIGHT, LMI_WEIGHT) for blk in self.lmi_blocks])

    def _merit_value(self, x, t, terms):
        """Barrier merit at x from its pass terms = _terms(x)."""
        chols, s = terms
        val = -t * float(self.c @ x)
        for (blk, _, w), chol in zip(self._weighted(t), chols):
            val -= w * blk.logdet(chol)
        return val - float(np.sum(np.log(s)))

    def in_domain(self, x):
        """True when merit_derivatives can evaluate x (see _terms)."""
        return self._terms(x) is not None

    def strict_margin(self, x):
        """Smallest row slack or block eigenvalue (negative: infeasible)."""
        worst = float(np.min(self.b - self.A @ x, initial=np.inf))
        for blk in self.lmi_blocks + self.obj_blocks:
            worst = min(worst, blk.min_eig(x))
        return worst

    def merit(self, x, t):
        """Barrier merit at x, or None outside the domain."""
        terms = self._terms(x)
        if terms is None:
            return None
        value = self._merit_value(x, t, terms)
        self._last_merit = (x, t, terms, value)
        return value

    @property
    def centering_only(self):
        """No objective: the merit does not depend on t."""
        return not (np.any(self.c) or self.obj_blocks)

    def merit_derivatives(self, x, t):
        """(value, grad, hess) of the barrier merit at x, or None outside.
        Also sets self.objective_grad to the gradient g0 of the minimized
        objective -(c.x + logdet F) at x: the merit's gradient is
        t g0 plus a part free of t.  At the array of the last merit call, at
        its t, it reads that call's terms and value, so x must not have
        changed in place since; _run_barrier rebinds its iterate."""
        last = self._last_merit
        if last is not None and last[0] is x and last[1] == t:
            _, _, terms, value = last
        else:
            terms = self._terms(x)
            if terms is None:
                return None
            value = self._merit_value(x, t, terms)
        chols, s = terms
        n = self.n
        # Scatter weights in _index_tables order, the objective's without
        # their factor t; the empty seeds keep np.concatenate working for
        # problems without blocks.
        gvals, hvals = [np.zeros(0)], [np.zeros(0)]
        for (blk, weight, w), chol in zip(self._weighted(t), chols):
            gvec, gram = blk.grad_gram(chol)
            gvals.append(np.ravel(gvec) * -weight)
            hvals.append(np.ravel(gram) * w)
        gvals, split = np.concatenate(gvals), self._obj_grad_len
        self.objective_grad = np.bincount(
            self._grad_idx[:split], gvals[:split], minlength=n) - self.c
        grad = t * self.objective_grad
        grad += np.bincount(self._grad_idx[split:], gvals[split:], minlength=n)
        grad += self.A.T @ (1.0 / s)
        scaled = self.A / s[:, None]
        hess = scaled.T @ scaled
        hess += np.bincount(self._hess_idx, np.concatenate(hvals),
                            minlength=n * n).reshape(n, n)
        return value, grad, hess


def _batch_shared_maps(maps):
    """Maps grouped by equal coefficients and offset, in first-seen order:
    [(coords, first map of the group)] with coords (K, m) stacking the
    coordinates of the group's K maps."""
    groups = {}
    for mmap in maps:
        key = (mmap.mats.shape, mmap.mats.tobytes(), mmap.offset.tobytes())
        groups.setdefault(key, (mmap, []))[1].append(mmap.coords)
    return [(np.stack(coords), first) for first, coords in groups.values()]


def _newton_direction(hess, grad):
    """Newton step d = -H^-1 g and the decrement lambda^2 = -g.d, with Jacobi
    preconditioning (the barrier mixes widely different curvature scales)
    and escalating jitter on failure.  ``grad`` may stack further right-hand
    sides below the gradient, (k, n); d then stacks -H^-1 of each row from
    one factorization, and lambda^2 is the first row's.  Scales ``hess`` in
    place."""
    n = hess.shape[0]
    if n == 0:
        return np.zeros(np.shape(grad)), 0.0
    diag = np.abs(np.diag(hess))
    precond = 1.0 / np.sqrt(np.maximum(diag, 1e-30))
    hess *= precond[:, None]
    hess *= precond[None, :]
    scaled_diag = hess.diagonal().copy()
    g_scaled = (grad * precond).T
    jitter = 0.0
    for _ in range(12):
        if jitter > 0.0:
            np.fill_diagonal(hess, scaled_diag + jitter)
        try:
            factor = cho_factor(hess, check_finite=False)
            d = -precond * cho_solve(factor, g_scaled, check_finite=False).T
            lam2 = float(-np.atleast_2d(grad)[0] @ np.atleast_2d(d)[0])
            if np.isfinite(lam2) and lam2 >= 0.0:
                return d, lam2
        except np.linalg.LinAlgError:
            pass
        jitter = max(jitter * 100.0, 1e-14)
    raise SolverError("Newton system could not be factorized")


def _run_barrier(bp, x0, t0, obj_tol, max_iters, early_stop=None):
    """Minimize the barrier sequence from a strictly feasible x0, from t0
    up by BARRIER_GROWTH per stage to the last stage, degree / t <= obj_tol.

    A centering-only solve stops Newton at lambda^2 / 2 <= NEWTON_TOL.  With
    an objective, every stage stops at CENTERING_TOL, in Newton's quadratic
    phase (Boyd & Vandenberghe, secs. 9.6.4 and 11.3.1), the last one too:
    the central path matters only as a route to the optimum (sec. 11.3.1),
    and a point with lambda <= 1/4 sits within about lambda of the central
    point in the merit's local norm, which moves the objective by a term of
    order lambda sqrt(degree) / t against the degree / t gap bound.
    Centering further buys nothing at the last t, and can cost a whole
    stage: there the Jacobi-scaled Newton matrix can be singular to double
    precision (condition near 1e18), its computed decrement then stays near
    1e-2 while each full step still lowers the merit by about as much, so
    a NEWTON_TOL last stage can run to its step cap.

    A stage that stopped on its tolerance records its point, with its t, in
    ``points`` and hands the next stage a predictor step (_predict) along
    the central-path tangent, solved with the factor of its last Newton
    system.  The points are the iterates themselves, not copies: x is
    rebound, never changed in place.  The status is "max-iter" when the step
    budget ran out, else "stage-cap" or "line-search-failed" when the last
    failing stage hit its step cap or found no step, else "optimal".
    Returns (x, Newton steps, status, history, points)."""
    x = x0.copy()
    t = t0
    degree = bp.gap_degree()
    # Without an objective the merit does not depend on t: the first stage
    # finds the analytic center and later stages could not move from it.
    centering_only = bp.centering_only
    tol = NEWTON_TOL if centering_only else CENTERING_TOL
    total_newton = 0
    history, points = [], []
    status = "optimal"
    while True:
        last_stage = degree / t <= obj_tol or degree == 0 or centering_only
        stage_newton = 0
        centered = False
        for _ in range(STAGE_MAX_STEPS):
            if total_newton >= max_iters:
                status = "max-iter"
                break
            out = bp.merit_derivatives(x, t)
            if out is None:
                raise SolverError("iterate left the barrier domain")
            val, grad, hess = out
            (d, tangent), lam2 = _newton_direction(
                hess, np.stack([grad, bp.objective_grad]))
            if 0.5 * lam2 <= tol:
                centered = True
                break
            # A decrement within the merit's round-off leaves the line
            # search a coin flip on the last ulp of the merit: take the full
            # step and end the stage at its round-off floor.
            at_floor = (0.5 * lam2 <= np.finfo(float).eps * abs(val)
                        and bp.in_domain(x + d))
            if at_floor:
                x = x + d
            slope = float(grad @ d)
            step = 1.0
            accepted = at_floor
            while not accepted and step > 1e-14:
                cand = x + step * d
                mval = bp.merit(cand, t)
                if (mval is not None
                        and mval <= val + ARMIJO_ALPHA * step * slope):
                    x = cand
                    accepted = True
                    break
                step *= 0.5
            total_newton += 1
            stage_newton += 1
            if not accepted:
                status = "line-search-failed"
                break
            if early_stop is not None and early_stop(x):
                history.append((t, bp.objective_value(x), stage_newton))
                return x, total_newton, status, history, points
            # At large t the Armijo bound rounds to val itself, so steps that
            # no longer lower the merit pass: the stage is at its round-off
            # floor and further steps only burn the stage cap.
            if at_floor or mval >= val:
                break
        else:
            status = "stage-cap"
        obj = bp.objective_value(x)
        history.append((t, obj, stage_newton))
        if centered:
            points.append((t, x))
        if status == "max-iter" or last_stage:
            break
        if centered:
            x = _predict(bp, x, t, val, obj, tangent)
        t *= BARRIER_GROWTH
    return x, total_newton, status, history, points


def _predict(bp, x, t, val, obj, tangent):
    """Predictor step of path following (Nesterov & Nemirovski,
    Interior-Point Polynomial Algorithms in Convex Programming, 1994) from
    x, centered at t with merit val and objective obj, to the next stage's
    t' = t BARRIER_GROWTH, along tangent = dx/dt = -H^-1 objective_grad.

    The central path is close to linear in mu = 1/t, not in t: its duality
    gap is degree * mu, and near the optimum x*(t) ~ x* + a mu, so dx/dt =
    -a mu^2.  The first trial is the step first-order in mu, (mu' - mu)
    dx/dmu = (t' - t) (t / t') tangent, which moves x as far as the path
    moves, a (mu' - mu).  The step linear in t, (t' - t) tangent, carries
    the slope at t, which fades as 1/t^2, over the whole stage: it is
    BARRIER_GROWTH times longer and overshoots the path about as many
    times.  The step halves while the merit at t' does not fall below its
    value at x or the objective falls below obj; x itself when no step
    passes."""
    t_next = t * BARRIER_GROWTH
    # The merit is affine in t: merit_t'(x) = merit_t(x) - (t' - t) obj.
    base = val - (t_next - t) * obj
    step = (t_next - t) * t / t_next
    while step > 1e-14 * (t_next - t):
        cand = x + step * tangent
        mval = bp.merit(cand, t_next)
        if (mval is not None and mval < base
                and bp.objective_value(cand) >= obj):
            return cand
        step *= 0.5
    return x


def _central_t(bp, x):
    """Barrier parameter at which x is most central: the minimizer t* =
    -(g0' H^-1 g_phi) / (g0' H^-1 g0) of the Newton decrement lambda^2(t) =
    (t g0 + g_phi)' H^-1 (t g0 + g_phi), where t g0 + g_phi is the merit's
    gradient at t (g0 = bp.objective_grad) and H its Hessian at BARRIER_T0;
    one derivative pass and one factorization.  Clipped to
    [BARRIER_T0 / BARRIER_GROWTH, BARRIER_T0 BARRIER_GROWTH^3]."""
    _, grad, hess = bp.merit_derivatives(x, BARRIER_T0)
    g0 = bp.objective_grad
    (d, tangent), _ = _newton_direction(hess, np.stack([grad, g0]))
    # d = -H^-1 grad and tangent = -H^-1 g0, so t* = T0 - g0.d / g0.tangent.
    curvature = -float(g0 @ tangent)
    if curvature <= 0.0:        # g0 = 0 at x: no t is preferred
        return BARRIER_T0
    t = BARRIER_T0 + float(g0 @ d) / curvature
    return min(max(t, BARRIER_T0 / BARRIER_GROWTH),
               BARRIER_T0 * BARRIER_GROWTH ** 3)


def _center_free_coordinates(bp, x, t):
    """x with each free coordinate, one that no log-det block reads, moved
    in turn to the minimizer of the merit at t along that coordinate alone,
    the others held fixed.  Along coordinate j the merit is -t c_j x_j minus
    the log slacks b - A x of the rows that involve j: a one-dimensional
    convex function that _line_minimizer solves without a merit evaluation.
    A coordinate whose merit is unbounded along it, or whose minimizer
    rounds out of the domain, stays put.

    Started far from that minimizer, as a padded slack is, Newton's method
    on the whole merit would approach it one damped step per doubling
    (Boyd & Vandenberghe, Convex Optimization, sec. 9.6.4)."""
    free = np.ones(bp.n, dtype=bool)
    free[bp._grad_idx] = False
    for j in np.flatnonzero(free):
        s = bp.b - bp.A @ x
        rows = np.flatnonzero(bp.A[:, j])
        step = _line_minimizer(-t * bp.c[j], bp.A[rows, j], s[rows])
        if step is not None:
            moved = x.copy()
            moved[j] += step
            if bp.in_domain(moved):
                x = moved
    return x


def _line_minimizer(slope, a, s):
    """Minimizer d of f(d) = slope d - sum_i log(s_i - a_i d), s > 0, to
    round-off; None when f has no minimizer or the one found does not lower
    f below f(0).  f' = slope + sum_i a_i / (s_i - a_i d) increases over
    the domain.  At an end that a row closes it tends to -inf (lower end) or
    +inf (upper end), at an open end to ``slope``; so f has a minimizer
    unless an open upper end has slope <= 0 or an open lower end slope >= 0.
    Newton's method on f' from d = 0 stays inside the bracket that the
    signs of f' shrink, and bisects where it would leave it."""
    up, down = a > 0.0, a < 0.0
    hi = float(np.min(s[up] / a[up], initial=np.inf))
    lo = float(np.max(s[down] / a[down], initial=-np.inf))
    if (hi == np.inf and slope <= 0.0) or (lo == -np.inf and slope >= 0.0):
        return None
    d = 0.0
    # A guard: on the perfbench panels the loop ends within 21 passes.
    for _ in range(200):
        r = a / (s - a * d)
        g = slope + float(np.sum(r))
        if g == 0.0:
            break
        if g < 0.0:
            lo = d
        else:
            hi = d
        nxt = d - g / float(r @ r)
        if nxt == d:
            break
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:       # the bracket holds no more floats
                break
        d = nxt
    if slope * d - float(np.sum(np.log((s - a * d) / s))) >= 0.0:
        return None
    return d


def _phase1_problem(bp):
    """Relaxed copy with one extra slack coordinate s: minimize s subject to
    every barrier argument shifted by +s (scalar slacks, +s I on blocks).
    The objective log-dets become LMIs of the relaxed problem."""
    relaxed = BarrierProblem.__new__(BarrierProblem)
    relaxed.n = bp.n + 1
    s_idx = bp.n
    relaxed.c = np.zeros(relaxed.n)
    relaxed.c[s_idx] = -1.0       # maximize -s
    relaxed.obj_blocks = []

    def extend_block(blk):
        m = blk.coords.shape[-1]
        mats = np.empty((m + 1,) + blk.mats.shape[1:], dtype=complex)
        mats[:m] = blk.mats
        mats[m] = np.eye(blk.dim)
        slack = np.full(blk.coords.shape[:-1] + (1,), s_idx)
        coords = np.concatenate([blk.coords, slack], axis=-1)
        return _RealBlock(coords, mats, blk.offset)

    relaxed.lmi_blocks = [extend_block(b)
                          for b in bp.lmi_blocks + bp.obj_blocks]
    relaxed.A = np.hstack([bp.A, -np.ones((len(bp.b), 1))])
    relaxed.b = bp.b
    relaxed._index_tables()
    return relaxed


def _find_strictly_feasible(bp, hint=None):
    """Strictly feasible x for bp: the hint when it lies strictly inside the
    barrier domain (BarrierProblem.in_domain), however small its margin; a
    hint outside raises SolverError.  Without a hint, phase-I slack
    minimization starts from the origin and returns a point with a margin of
    at least PHASE1_MARGIN.  Raises InfeasibleError when phase I converged
    ("optimal") with its slack still positive, and SolverError when it ended
    with any other status or on the rows of its coordinate box, neither of
    which certifies anything: a feasible set outside the box looks
    infeasible from inside it."""
    if hint is not None:
        if bp.in_domain(hint):
            return hint
        raise SolverError("the start lies outside the barrier domain")
    relaxed = _phase1_problem(bp)
    # Geometric slack ladder: the fully-relaxed problem is strictly feasible
    # at the origin for large enough s (Boyd & Vandenberghe, Convex
    # Optimization, sec. 11.4.1).
    for slack0 in (1.0, 1e2, 1e4, 1e6, 1e9, 1e12):
        start = np.append(np.zeros(bp.n), slack0)
        if relaxed.in_domain(start):
            break
    else:
        raise SolverError("could not initialize phase-I slack problem")
    # The 2 (n + 1) rows of a coordinate box lo <= x <= hi keep the phase-I
    # merit bounded: slack-coupled coordinates otherwise drift to infinity.
    radius = 1e4 * np.maximum(1.0, np.abs(start))
    lo, hi = start - radius, start + radius
    eye = np.eye(relaxed.n)
    relaxed.A = np.vstack([relaxed.A, eye, -eye])
    relaxed.b = np.concatenate([relaxed.b, hi, -lo])

    def done(x_ext):
        return x_ext[-1] <= -10.0 * PHASE1_MARGIN

    # The first stage aims at a duality gap equal to the start's slack.
    t0 = relaxed.gap_degree() / start[-1]
    x_ext, _, status, _, _ = _run_barrier(relaxed, start, t0=t0,
                                          obj_tol=PHASE1_MARGIN,
                                          max_iters=PHASE1_MAX_STEPS,
                                          early_stop=done)
    x, slack = x_ext[:bp.n], float(x_ext[-1])
    if slack <= -PHASE1_MARGIN and bp.strict_margin(x) >= PHASE1_MARGIN:
        return x
    if status != "optimal":
        raise SolverError(
            f"phase I ended {status!r} at slack {slack:.3e} (step cap "
            f"PHASE1_MAX_STEPS = {PHASE1_MAX_STEPS}); feasibility undecided")
    # A coordinate the box does not hold back sits far from its faces; one
    # that the box stops sits within about the final barrier gap of a face.
    on_box = np.minimum(x_ext - lo, hi - x_ext) <= 1e-3 * radius
    if on_box.any():
        i = int(np.argmax(on_box))
        raise SolverError(
            f"phase I stopped on its coordinate box (coordinate {i}, radius "
            f"{radius[i]:.1e}) at slack {slack:.3e}; feasibility undecided")
    raise InfeasibleError(
        f"phase-I terminated with slack {slack:.3e}; problem has no strictly "
        "feasible point at the required margin")


def solve(problem, initial=None):
    """Barrier solve of a ConicSubproblem.

    ``initial`` may carry variable values (dict), the start, which must lie
    strictly inside the barrier domain, however close to its boundary; a
    start outside it raises SolverError.  Without one, phase I constructs a
    start from the origin.  With a start and an objective, the barrier
    begins at the t where the start is most central (_central_t), so a warm
    start taken from an earlier solve's central path resumes near its own t;
    otherwise at ``BARRIER_T0``.  At that t, each free coordinate of a warm
    start, one that no log-det block reads (a slack such as sca's kappa),
    first moves to its exact minimizer of the merit with the other
    coordinates held fixed (_center_free_coordinates): a slack started at a
    small pad would otherwise cost the first stage one Newton step per
    doubling.  Returns a SolverResult whose objective is
    in the original complex log-det units and whose ``stage_points`` hold
    the centered point of every stage, the warm starts that interior-point
    reoptimization draws on (Gondzio & Grothey, SIAM J. Optim. 2003).
    """
    bp = BarrierProblem(problem)
    hint = problem.pack(initial) if initial is not None else None
    x0 = _find_strictly_feasible(bp, hint=hint)
    warm = hint is not None and not bp.centering_only
    t0 = BARRIER_T0
    if warm:
        t0 = _central_t(bp, x0)
        x0 = _center_free_coordinates(bp, x0, t0)
    x, iters, status, history, points = _run_barrier(
        bp, x0, t0=t0, obj_tol=OBJ_TOL, max_iters=MAX_NEWTON_STEPS)
    residual = max(-bp.strict_margin(x), 0.0)
    if status == "optimal" and residual > FEAS_TOL:
        status = "max-iter"
    return SolverResult(values=problem.unpack(x),
                        objective=bp.objective_value(x),
                        feas_residual=residual,
                        iterations=iters,
                        status=status,
                        history=history,
                        stage_points=points)
