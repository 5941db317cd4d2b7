"""Self-contained barrier interior-point solver for small conic subproblems:
maximize a concave log-det-plus-linear objective over complex Hermitian
variables, a real scalar being a 1 x 1 one, subject to affine inequalities
and linear matrix inequalities.

Problems are declared at the complex level (ConicSubproblem) by the
coefficients of their affine maps, as in MAXDET (Vandenberghe, Boyd & Wu
1998), and solved there: a log-barrier Newton method (Boyd & Vandenberghe,
Convex Optimization, sec. 11.3) runs on the real coordinates of the variables.

Identical problems give identical iterates at a fixed BLAS thread count.
Across thread counts, BLAS may sum in another order and the iterates may
differ by round-off.  The default ScenarioConfig's designs at eve_mi_cap 5
and 1 on channel seeds 1-3 do not: at one OpenBLAS thread and at two they
take equal anchor and subproblem Newton steps (21, 21 and 20 in one
subproblem at cap 5, certified at the relaxation; 39, 41 and 37 in two at
cap 1) and end with bitwise equal MIs (2-core x86 Xeon, OpenBLAS 0.3.31 in
numpy, the solver's only BLAS), as tests/test_sca.py's
test_documented_designs_agree_across_blas_thread_counts checks.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np

from .linalg import check_hermitian

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
OBJ_TOL = 1e-8             # duality-gap bound that ends the barrier


class SolverError(RuntimeError):
    pass


class InfeasibleError(SolverError):
    """Raised when a problem is certified to have no strictly feasible point:
    here when phase-I slack minimization converged with its slack still
    positive, off its coordinate box, and in sca when the min-power fixed
    point shows that the SINR targets do not fit the power budget."""


# ---------------------------------------------------------------------------
# Variable blocks and coordinate packing

@dataclass(frozen=True)
class VarBlock:
    name: str
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
    """Hermitian matrix of pack_hermitian coordinates; a stack of coordinate
    rows (..., dim^2) unpacks to the stack (..., dim, dim), row by row."""
    coords = np.asarray(coords, dtype=float)
    h = np.zeros(coords.shape[:-1] + (dim, dim), dtype=complex)
    h[..., ~np.tri(dim, dtype=bool)] = np.ascontiguousarray(
        coords[..., dim:]).view(complex)
    h += h.conj().swapaxes(-1, -2)
    h[..., np.arange(dim), np.arange(dim)] = coords[..., :dim]
    return h


def hermitian_basis(dim):
    """(dim^2, dim, dim) stack E with sum_g x_g E_g == unpack_hermitian(x)."""
    return unpack_hermitian(np.eye(dim * dim), dim)


def hermitian_weights(g):
    """Weights of W -> Re tr(g W) on pack_hermitian(W), for Hermitian g: each
    off-diagonal pair of g meets its entry of W twice."""
    weights = pack_hermitian(g)
    weights[len(g):] *= 2.0
    return weights


# ---------------------------------------------------------------------------
# Affine maps given by their coefficients


class ConicSubproblem:
    """Declarative description of one convex max-det subproblem: maximize
    a linear functional plus at most one log-det, of an affine matrix map,
    subject to linear rows and LMIs.

    Every variable is complex Hermitian, a real scalar 1 x 1 (add_hermitian).
    A matrix map is stated by one Hermitian coefficient per real coordinate
    of each variable, or sum of variables, that it involves, in packing
    order, and declared as the _RealBlock that the barrier evaluates
    (matrix_map, add_psd); a linear functional by its dense real weights over
    the coordinates declared so far (scalar_map).  ``ineqs`` holds (weights,
    rhs) pairs, ``lmis`` the LMI blocks and ``objective`` (linear, logdet).
    Packing order is private to this module; hermitian_basis and
    hermitian_weights build coefficients in it.
    """

    def __init__(self):
        self._blocks = {}
        self.n = 0
        self.objective = None
        self.lmis = []
        self.ineqs = []

    # -- variable declaration

    def add_hermitian(self, name, dim):
        """A dim x dim Hermitian variable; dim 1 declares a real scalar."""
        if name in self._blocks:
            raise ValueError(f"duplicate variable name {name!r}")
        blk = VarBlock(name, dim, self.n, dim * dim)
        self._blocks[name] = blk
        self.n += blk.size
        return blk

    @property
    def blocks(self):
        return list(self._blocks.values())

    # -- packing between named complex values and the real coordinate vector

    def pack(self, values):
        """Coordinates of (dim, dim) Hermitian values, a plain number for a
        1 x 1 one; linalg.check_hermitian checks each, naming its variable."""
        x = np.zeros(self.n)
        for blk in self.blocks:
            val = np.asarray(values[blk.name], dtype=complex)
            shape = (blk.dim, blk.dim)
            if val.shape != shape and (val.shape, shape) != ((), (1, 1)):
                raise ValueError(f"variable {blk.name!r} needs shape {shape}, "
                                 f"got {val.shape}")
            val = val.reshape(shape)
            check_hermitian(val, name=f"variable {blk.name!r}")
            x[blk.offset:blk.offset + blk.size] = pack_hermitian(val)
        return x

    def unpack(self, x):
        return {blk.name: unpack_hermitian(
            x[blk.offset:blk.offset + blk.size], blk.dim) for blk in self.blocks}

    # -- affine maps from coefficient stacks

    def matrix_map(self, offset, terms):
        """The _RealBlock of the affine map x -> offset + sum_g x_g E_g into
        complex Hermitian matrices; ``terms[name]`` stacks the (d, d)
        Hermitian E_g of each real coordinate of that variable, in packing
        order, and the block reads every one, zero coefficients included.
        A key may be a tuple of names of variables of one size: its stack
        maps their sum, and their coordinates share its rows."""
        offset = np.asarray(offset, dtype=complex)
        if offset.ndim != 2 or offset.shape[0] != offset.shape[1]:
            raise ValueError("matrix map offset must be a square matrix")
        coords, rows = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
        coefs = [np.zeros((0,) + offset.shape, dtype=complex)]
        for key, stack in terms.items():
            blks = [self._blocks[name]
                    for name in (key if isinstance(key, tuple) else (key,))]
            sizes = sorted({blk.size for blk in blks})
            if len(sizes) != 1:
                raise ValueError(f"a shared stack needs variables of one "
                                 f"size, got sizes {sizes}")
            base = sum(map(len, coefs))
            coords += [blk.offset + np.arange(blk.size) for blk in blks]
            rows += [base + np.arange(sizes[0])] * len(blks)
            coefs.append(np.reshape(np.asarray(stack, dtype=complex),
                                    (sizes[0],) + offset.shape))
        return _RealBlock(np.concatenate(coords), np.concatenate(coefs),
                          offset, np.concatenate(rows))

    def scalar_map(self, terms):
        """Dense weights a of x -> a . x over the coordinates declared so far;
        ``terms[name]`` holds the real weights of that variable's coordinates
        (a plain number for a 1 x 1 variable), the rest weigh zero."""
        weights = np.zeros(self.n)
        for name, part in terms.items():
            blk = self._blocks[name]
            weights[blk.offset:blk.offset + blk.size] = np.reshape(
                np.asarray(part, dtype=float), blk.size)
        return weights

    # -- constraints and objective

    def set_objective(self, linear=None, logdet=None):
        """Maximize linear . x + log det F(x), for scalar_map weights
        ``linear`` and a matrix_map F = ``logdet``; either may be left out."""
        linear = linear if linear is not None else self.scalar_map({})
        self.objective = (linear, logdet)

    def add_lmi(self, block):
        """F(x) >= 0, for a matrix_map F = ``block``."""
        self.lmis.append(block)

    def add_psd(self, names):
        """W >= 0 for each Hermitian variable W in ``names``, all of one
        dimension d, as one LMI block batched over them: coords (K, d^2), the
        hermitian_basis stack and a zero offset."""
        blks = [self._blocks[name] for name in names]
        dims = sorted({blk.dim for blk in blks})
        if len(dims) != 1:
            raise ValueError(f"add_psd needs Hermitian variables of one "
                             f"dimension, got dimensions {dims}")
        (dim,) = dims
        coords = np.stack([blk.offset + np.arange(blk.size) for blk in blks])
        self.add_lmi(_RealBlock(coords, hermitian_basis(dim),
                                np.zeros((dim, dim), dtype=complex),
                                np.arange(dim * dim)))

    def add_ineq(self, weights, rhs):
        """weights . x <= rhs, for scalar_map weights."""
        self.ineqs.append((weights, float(rhs)))


@dataclass
class SolverResult:
    values: dict
    objective: float
    iterations: int
    status: str  # _run_barrier's own
    # (t, objective, newton_steps, point) of every barrier stage: point is
    # its centered iterate before the predictor step, in real coordinates
    # (ConicSubproblem.unpack reads it), or None if it did not end centered.
    history: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Barrier problem


@dataclass
class _RealBlock:
    """One log-det barrier term over complex Hermitian affine maps that
    differ only in their coordinates, as ConicSubproblem.matrix_map and
    add_psd declare it: sum_k logdet F_k(x) with F_k(x) = offset + sum_g
    x[coords[k, g]] * mats[rows[g]].  BarrierProblem weighs it by the list
    that holds it: the objective's by t, an LMI's by LMI_WEIGHT.

    ``coords`` is (m,) for one map or (K, m) for K maps with equal
    coefficients and offset, such as the per-user LMIs W_k >= 0.  assemble,
    chol and grad_gram then carry the leading batch axis of length K, and
    logdet and min_eig reduce over it, so a batch costs one call of each.

    ``mats`` holds each distinct coefficient once, and the coordinates that
    read one row share it in the derivative kernel: a map of sum_k W_k, as
    a tuple key of matrix_map declares it, reads one stack for every W_k.
    The arithmetic is complex despite the name, which stays because the
    benchmark's layer tracer wraps ``_RealBlock.grad_gram`` by name.
    """

    coords: np.ndarray           # (m,) or (K, m)
    mats: np.ndarray             # (k, d, d) complex Hermitian, k <= m
    offset: np.ndarray           # (d, d) complex Hermitian
    rows: np.ndarray             # (m,): the row of mats of each coordinate

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.intp)
        self.mats = np.ascontiguousarray(self.mats, dtype=complex)
        self.rows = np.asarray(self.rows, dtype=np.intp)
        # Real (rows, 2 d^2) views of the coefficients: products with real
        # vectors run as real BLAS calls, which unlike complex ones stay
        # fast on small operands when BLAS runs several threads.
        (k, d), m = self.mats.shape[:2], len(self.rows)
        self._flat = self.mats[self.rows].reshape(m, d * d).view(np.float64)
        self._distinct_flat = self.mats.reshape(k, d * d).view(np.float64)
        # Gather indices that expand distinct-row results to every
        # coordinate; None when each coordinate reads its own row.
        self._expand = (None if np.array_equal(self.rows, np.arange(m))
                        else (self.rows, self.rows[:, None] * k + self.rows))
        self._stacked = self.mats.reshape(k * d, d)                 # [S_g; ...]

    @property
    def dim(self):
        return self.offset.shape[0]

    @property
    def batch_size(self):
        """Number of maps K in the batch (1 for unbatched coords)."""
        return int(np.prod(self.coords.shape[:-1]))

    def assemble(self, x):
        return self.offset + self.linear(x)

    def linear(self, x):
        """F(x) - offset, the block's change along a step x."""
        acc = (x[self.coords] @ self._flat).view(complex)
        return acc.reshape(self.coords.shape[:-1] + (self.dim, self.dim))

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
        """(gvec, gram, L^-1) of logdet at the assembled point F = L L^H:
        gvec_g = Re tr(F^-1 S_g), gram_gh = Re tr(F^-1 S_g F^-1 S_h), over
        every coordinate of the block, with the batch axis of ``chol``
        leading.

        Both come from G = F^-1 = L^-H L^-1 and one product S_g G per
        distinct row.  For Hermitian S, Re tr(G S) is the real dot product
        of G and S, and Re tr(G S_g G S_h) that of G S_g, the conjugate
        transpose of S_g G, and S_h G.
        """
        d, k = self.dim, len(self._distinct_flat)
        batch = chol.shape[:-2]
        linv = np.linalg.inv(chol)
        g = linv.conj().swapaxes(-1, -2) @ linv
        gvec = g.reshape(batch + (d * d,)).view(np.float64) \
            @ self._distinct_flat.T
        sg = (self._stacked @ g).reshape(batch + (k, d, d))          # S_g G
        gs = sg.conj().swapaxes(-1, -2).reshape(batch + (k, d * d))  # G S_g
        gram = gs.view(np.float64) \
            @ sg.reshape(gs.shape).view(np.float64).swapaxes(-1, -2)
        if self._expand is None:
            return gvec, gram, linv
        inv, pairs = self._expand
        return (np.take(gvec, inv, axis=-1),
                np.take(gram.reshape(batch + (k * k,)), pairs, axis=-1), linv)


# An LMI F >= 0 enters the barrier as -LMI_WEIGHT * logdet F, with barrier
# parameter LMI_WEIGHT * dim F.
LMI_WEIGHT = 2.0


class BarrierProblem:
    """Solve-ready form: minimize -(c.x + logdet F(x)) subject to LMIs and
    rows with slacks b - A x, so the merit has two kinds of terms:
    log-det blocks and log slacks.  One pass, _terms, defines the barrier
    domain; in_domain, merit and merit_derivatives read it, and
    merit_derivatives returns all that it computes at a point."""

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
        self.obj_blocks = [] if logdet is None else [logdet]
        self.lmi_blocks = list(problem.lmis)
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
        targets add up.  Also the n x n array that merit_derivatives writes
        each Hessian into; __init__ and _phase1_problem both end here."""
        n = self.n
        blocks = self.obj_blocks + self.lmi_blocks
        empty = [np.zeros(0, dtype=np.intp)]
        self._grad_idx = np.concatenate(
            [np.ravel(blk.coords) for blk in blocks] + empty)
        self._obj_grad_len = sum(blk.coords.size for blk in self.obj_blocks)
        self._hess_idx = np.concatenate(
            [np.ravel(blk.coords[..., :, None] * n + blk.coords[..., None, :])
             for blk in blocks] + empty)
        self._hess = np.empty((n, n))

    def gap_degree(self):
        return len(self.b) + sum(LMI_WEIGHT * blk.dim * blk.batch_size
                                 for blk in self.lmi_blocks)

    def objective_value(self, x):
        """Max-sense objective in original (complex) units."""
        val = float(self.c @ x)
        for blk in self.obj_blocks:
            val += blk.logdet(blk.chol(x))
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
        """(value, grad, hess, g0, line) of the barrier merit at x, or None
        outside.  g0 is the gradient of the minimized objective -(c.x +
        logdet F) at x: the merit's gradient is t g0 plus a part free of t.
        line = (each block's L^-1, the row slacks) at x is what line_model
        reads.  At the array of the last merit call, at its t, it reads that
        call's terms and value, so x must not have changed in place since;
        _run_barrier rebinds its iterate.  hess is the problem's own array,
        valid until its next merit_derivatives call, which overwrites it: a
        caller that keeps it across that call copies it."""
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
        gvals, hvals, linvs = [np.zeros(0)], [np.zeros(0)], []
        for (blk, weight, w), chol in zip(self._weighted(t), chols):
            gvec, gram, linv = blk.grad_gram(chol)
            gvals.append(np.ravel(gvec) * -weight)
            hvals.append(np.ravel(gram) * w)
            linvs.append(linv)
        gvals, split = np.concatenate(gvals), self._obj_grad_len
        g0 = np.bincount(self._grad_idx[:split], gvals[:split],
                         minlength=n) - self.c
        grad = t * g0
        grad += np.bincount(self._grad_idx[split:], gvals[split:], minlength=n)
        grad += self.A.T @ (1.0 / s)
        scaled = self.A / s[:, None]
        hess = np.matmul(scaled.T, scaled, out=self._hess)
        hess += np.bincount(self._hess_idx, np.concatenate(hvals),
                            minlength=n * n).reshape(n, n)
        return value, grad, hess, g0, (linvs, s)

    def line_model(self, line, d, t):
        """(slope, a, s, weights) of the merit at t along the step d from the
        point x whose merit_derivatives returned ``line``, exactly:
        merit(x + alpha d, t) - merit(x, t) = slope alpha - sum_i weights_i
        log((s_i - alpha a_i) / s_i), the function _line_minimizer reads.
        A log-det block F = L L^H contributes log det(I + alpha L^-1 dF
        L^-H), one term log(1 + alpha mu) per eigenvalue mu of L^-1 dF L^-H,
        with dF its linear part at d, weighed as in the merit; a row slack
        s_i falls by alpha (A d)_i (Boyd & Vandenberghe, Convex
        Optimization, sec. 9.2)."""
        linvs, slack = line
        a, s, weights = [self.A @ d], [slack], [np.ones(len(slack))]
        for (blk, _, w), linv in zip(self._weighted(t), linvs):
            change = linv @ blk.linear(d) @ linv.conj().swapaxes(-1, -2)
            mu = np.ravel(np.linalg.eigvalsh(change))
            a.append(-mu)
            s.append(np.ones(len(mu)))
            weights.append(np.full(len(mu), w))
        return (-t * float(self.c @ d), np.concatenate(a), np.concatenate(s),
                np.concatenate(weights))


def _lapack_routines():
    """dpotrf and dpotrs of the LAPACK that numpy.linalg links, looked up
    through its _umath_linalg extension, whose dependencies dlsym searches.
    numpy's wheels link scipy-openblas64, whose symbols carry a scipy_
    prefix and a 64_ suffix and take 64-bit INTEGERs; verified on numpy
    2.4.6 with OpenBLAS 0.3.31 (x86-64 Linux).  Another build raises
    ImportError naming the BLAS that numpy reports."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    try:
        return lib.scipy_dpotrf_64_, lib.scipy_dpotrs_64_
    except AttributeError:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        raise ImportError(
            "sensesec calls dpotrf/dpotrs of numpy's scipy-openblas64, but "
            f"numpy {np.__version__} links {blas['name']} {blas['version']}"
        ) from None


_potrf, _potrs = _lapack_routines()


def _lapack(routine, *args):
    """Call the LAPACK ``routine`` on the upper triangle: UPLO = 'U', then
    ``args`` (each int an INTEGER, each Fortran-order float64 array its
    data), then INFO and UPLO's length, the hidden argument that
    gfortran-built routines take last.  Returns INFO; a negative one, an
    illegal argument, raises SolverError."""
    info = ctypes.c_int64()
    routine(b"U", *[ctypes.byref(ctypes.c_int64(a)) if isinstance(a, int)
                    else ctypes.c_void_p(a.ctypes.data) for a in args],
            ctypes.byref(info), ctypes.c_size_t(1))
    if info.value < 0:
        raise SolverError(f"LAPACK rejected argument {-info.value}")
    return info.value


def cho_factor(a):
    """The upper Cholesky factor of a copy of ``a``, as
    scipy.linalg.cho_factor(a, check_finite=False) computes it: LAPACK
    dpotrf on the upper triangle of a Fortran-order copy, the lower one
    left as in ``a``, through numpy's LAPACK (_lapack_routines).  Raises
    np.linalg.LinAlgError when ``a`` is not positive definite."""
    factor = np.array(a, order="F")
    if _lapack(_potrf, len(a), factor, max(1, len(a))) > 0:
        raise np.linalg.LinAlgError("the matrix is not positive definite")
    return factor


def _newton_direction(hess, grad):
    """Newton step d = -H^-1 g and the decrement lambda^2 = -g.d, with Jacobi
    preconditioning (the barrier mixes widely different curvature scales)
    and escalating jitter on failure.  ``grad`` may stack further right-hand
    sides below the gradient, (k, n); d then stacks -H^-1 of each row from
    one factorization, and lambda^2 is the first row's.  Scales ``hess`` in
    place.

    Each attempt factors a copy of the scaled ``hess`` with LAPACK dpotrf
    (cho_factor), so that a retry shifts the intact matrix, and solves with
    dpotrs on a Fortran-order copy of the right-hand sides, as scipy's
    cho_factor and cho_solve do, whose results these are bit for bit.  Both
    routines are numpy's own, scipy_dpotrf_64_ and scipy_dpotrs_64_ of its
    scipy-openblas64 (_lapack_routines), so no second BLAS loads.
    cho_factor keeps scipy's name and runs once per attempt because
    perfbench/spans.py wraps solver.cho_factor to count jitter
    escalations."""
    diag = np.abs(np.diag(hess))
    precond = 1.0 / np.sqrt(np.maximum(diag, 1e-30))
    hess *= precond[:, None]
    hess *= precond[None, :]
    scaled_diag = hess.diagonal().copy()
    g_scaled = (grad * precond).T
    n, nrhs = len(hess), len(np.atleast_2d(grad))
    lda = max(1, n)
    jitter = 0.0
    for _ in range(12):
        if jitter > 0.0:
            np.fill_diagonal(hess, scaled_diag + jitter)
        try:
            factor = cho_factor(hess)
            solved = np.array(g_scaled, order="F")
            _lapack(_potrs, n, nrhs, factor, lda, solved, lda)
            d = -precond * solved.T
            lam2 = float(-np.atleast_2d(grad)[0] @ np.atleast_2d(d)[0])
            if np.isfinite(lam2) and lam2 >= 0.0:
                return d, lam2
        except np.linalg.LinAlgError:
            pass
        jitter = max(jitter * 100.0, 1e-14)
    raise SolverError("Newton system could not be factorized")


def _trial_steps(model):
    """The step lengths that _run_barrier's line search tries along the
    Newton step d, in its order, from model = bp.line_model(line, d, t)."""
    _, end = _domain_bracket(model[1], model[2])
    best = _line_minimizer(*model) if end > 1.0 else None
    if best is not None:
        yield best
    step = 1.0
    while step > 1e-14:
        if step < end:
            yield step
        step *= 0.5


def _run_barrier(bp, x0, t0, obj_tol, early_stop=None):
    """Minimize the barrier sequence from a strictly feasible x0, from t0
    up by BARRIER_GROWTH per stage to the last stage, degree / t <= obj_tol:
    t0, BARRIER_GROWTH and obj_tol fix the number of stages (Boyd &
    Vandenberghe, Convex Optimization, sec. 11.3.3), and no stage takes more
    than STAGE_MAX_STEPS Newton steps, which bounds the solve.

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

    The line search takes the first step length of _trial_steps that passes
    the Armijo test, one merit call per trial: the exact minimizer alpha* of
    the merit along the Newton step d, read in closed form
    (BarrierProblem.line_model, _line_minimizer), when the full step stays
    inside the barrier domain, then 1, 1/2, 1/4, ... down to 1e-14, each
    length at or beyond the domain's end skipped; alpha* may exceed 1.
    Exact search on every step, also with alpha* clipped to 1 or tried only
    after the full step fails the test, ends the kilowatt STALL_CASES of
    tests/test_sca.py at a barrier stage's step cap.  A stage also ends
    after a step that does not lower the merit, and the solve after a step
    at which ``early_stop`` holds.

    A stage that stopped on its tolerance records its point in its
    ``history`` entry and starts the next stage at the exact minimizer of
    the next stage's merit along the central-path tangent (_predict), the
    tangent solved with the factor of its last Newton system.  The points
    are the iterates themselves, not copies: x is rebound, never changed in
    place.  The status is "stage-cap" or "line-search-failed" when the last
    failing stage hit its step cap or found no step, else "optimal".
    Returns (x, Newton steps, status, history), with a (t, objective, steps,
    point or None) per stage; the Newton steps are the stages' sum."""
    x = x0.copy()
    t = t0
    degree = bp.gap_degree()
    # Without an objective the merit does not depend on t: the first stage
    # finds the analytic center and later stages could not move from it.
    centering_only = bp.centering_only
    tol = NEWTON_TOL if centering_only else CENTERING_TOL
    history = []
    status = "optimal"
    while True:
        last_stage = degree / t <= obj_tol or centering_only
        stage_newton = 0
        centered = False
        for _ in range(STAGE_MAX_STEPS):
            out = bp.merit_derivatives(x, t)
            if out is None:
                raise SolverError("iterate left the barrier domain")
            val, grad, hess, g0, line = out
            (d, tangent), lam2 = _newton_direction(hess, np.stack([grad, g0]))
            if 0.5 * lam2 <= tol:
                centered = True
                break
            stage_newton += 1
            # Armijo's sufficient decrease, with grad . d = -lam2.
            for step in _trial_steps(bp.line_model(line, d, t)):
                cand = x + step * d
                mval = bp.merit(cand, t)
                if (mval is not None
                        and mval <= val - ARMIJO_ALPHA * step * lam2):
                    x = cand
                    break
            else:
                status = "line-search-failed"
                break
            if early_stop is not None and early_stop(x):
                last_stage = True
                break
            # At large t the Armijo bound rounds to val itself, so steps that
            # no longer lower the merit pass: the stage is at its round-off
            # floor and further steps only burn the stage cap.
            if mval >= val:
                break
        else:
            status = "stage-cap"
        history.append((t, bp.objective_value(x), stage_newton,
                        x if centered else None))
        if last_stage:
            break
        if centered:
            x = _predict(bp, x, t, tangent, line)
        t *= BARRIER_GROWTH
    return x, sum(stage[2] for stage in history), status, history


def _predict(bp, x, t, tangent, line):
    """Predictor step of path following (Nesterov & Nemirovski,
    Interior-Point Polynomial Algorithms in Convex Programming, 1994) from
    x, centered at t, to the next stage's t' = t BARRIER_GROWTH, along
    tangent = dx/dt = -H^-1 g0: x + alpha* tangent, with alpha* the exact
    minimizer of the merit at t' along the tangent.

    The merit at t' along any direction from x is read in closed form from
    ``line``, which merit_derivatives returned at x when the stage stopped
    centered there (BarrierProblem.line_model), and minimized by
    _line_minimizer; one merit call checks the candidate and leaves its
    pass for the next stage's first derivatives.  x itself when the merit
    has no minimizer along the tangent or the candidate rounds out of the
    domain."""
    t_next = t * BARRIER_GROWTH
    step = _line_minimizer(*bp.line_model(line, tangent, t_next))
    if step is None:
        return x
    cand = x + step * tangent
    return cand if bp.merit(cand, t_next) is not None else x


def _central_t(bp, x):
    """Barrier parameter at which x is most central: the minimizer t* =
    -(g0' H^-1 g_phi) / (g0' H^-1 g0) of the Newton decrement lambda^2(t) =
    (t g0 + g_phi)' H^-1 (t g0 + g_phi), where t g0 + g_phi is the merit's
    gradient at t (g0 as merit_derivatives returns it) and H its Hessian at
    BARRIER_T0; one derivative pass and one factorization.  Clipped from
    below at BARRIER_T0 / BARRIER_GROWTH."""
    _, grad, hess, g0, _ = bp.merit_derivatives(x, BARRIER_T0)
    (d, tangent), _ = _newton_direction(hess, np.stack([grad, g0]))
    # d = -H^-1 grad and tangent = -H^-1 g0, so t* = T0 - g0.d / g0.tangent.
    curvature = -float(g0 @ tangent)
    if curvature <= 0.0:        # g0 = 0 at x: no t is preferred
        return BARRIER_T0
    t = BARRIER_T0 + float(g0 @ d) / curvature
    return max(t, BARRIER_T0 / BARRIER_GROWTH)


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


def _domain_bracket(a, s):
    """(lo, hi): the open interval of d where every s_i - a_i d > 0, s > 0."""
    up, down = a > 0.0, a < 0.0
    return (float((s[down] / a[down]).max(initial=-np.inf)),
            float((s[up] / a[up]).min(initial=np.inf)))


def _line_minimizer(slope, a, s, weights=1.0):
    """Minimizer d of f(d) = slope d - sum_i weights_i log(s_i - a_i d), s > 0
    and weights > 0, to round-off; None when f has no minimizer or the one
    found does not lower f below f(0).  f' = slope + sum_i weights_i a_i /
    (s_i - a_i d) increases over the domain.  At an end that a row closes it
    tends to -inf (lower end) or +inf (upper end), at an open end to
    ``slope``; so f has a minimizer unless an open upper end has slope <= 0
    or an open lower end slope >= 0.  Newton's method on f' from d = 0 stays
    inside the bracket that the signs of f' shrink, and bisects where it
    would leave it.  Unit weights, the default, multiply by 1.0 exactly."""
    lo, hi = _domain_bracket(a, s)
    if (hi == np.inf and slope <= 0.0) or (lo == -np.inf and slope >= 0.0):
        return None
    d = 0.0
    # A guard: on the perfbench panels (--seconds 130) the loop ends within
    # 65 passes.
    for _ in range(200):
        r = a / (s - a * d)
        wr = weights * r
        g = slope + float(wr.sum())
        if g == 0.0:
            break
        if g < 0.0:
            lo = d
        else:
            hi = d
        nxt = d - g / float(wr @ r)
        if nxt == d:
            break
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:       # the bracket holds no more floats
                break
        d = nxt
    if slope * d - float(np.sum(weights * np.log((s - a * d) / s))) >= 0.0:
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
        slack = np.full(blk.coords.shape[:-1] + (1,), s_idx)
        return _RealBlock(np.concatenate([blk.coords, slack], axis=-1),
                          np.concatenate([blk.mats, np.eye(blk.dim)[None]]),
                          blk.offset, np.append(blk.rows, len(blk.mats)))

    relaxed.lmi_blocks = [extend_block(b)
                          for b in bp.lmi_blocks + bp.obj_blocks]
    relaxed.A = np.hstack([bp.A, -np.ones((len(bp.b), 1))])
    relaxed.b = bp.b
    relaxed._index_tables()
    return relaxed


def _find_strictly_feasible(bp):
    """Strictly feasible x for bp by phase-I slack minimization from the
    origin, with a margin of at least PHASE1_MARGIN.  Raises InfeasibleError
    when phase I converged ("optimal") with its slack still positive, and
    SolverError when it ended with any other status or on the rows of its
    coordinate box, neither of which certifies anything: a feasible set
    outside the box looks infeasible from inside it."""
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
    x_ext, _, status, _ = _run_barrier(relaxed, start, t0=t0,
                                       obj_tol=PHASE1_MARGIN, early_stop=done)
    x, slack = x_ext[:bp.n], float(x_ext[-1])
    if slack <= -PHASE1_MARGIN and bp.strict_margin(x) >= PHASE1_MARGIN:
        return x
    if status != "optimal":
        raise SolverError(f"phase I ended {status!r} at slack {slack:.3e}; "
                          "feasibility undecided")
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
    strictly inside the barrier domain (BarrierProblem.in_domain), however
    close to its boundary; a start outside it raises SolverError.  Without
    one, phase I (_find_strictly_feasible) constructs a start from the
    origin.  With a start and an objective, the barrier begins at the t
    where the start is most central (_central_t), so a warm start taken
    from an earlier solve's central path resumes near its own t; otherwise
    at ``BARRIER_T0``.  At that t, each free coordinate of a warm start, one
    that no log-det block reads (a slack such as sca's kappa), first moves
    to its exact minimizer of the merit with the other coordinates held
    fixed (_center_free_coordinates): a slack started at a small pad would
    otherwise cost the first stage one Newton step per doubling.  Returns a
    SolverResult whose objective, in the original complex log-det units, is
    the last stage's in ``history``, and whose ``history`` holds the
    centered point of every stage that ended centered, the warm starts that
    interior-point reoptimization draws on (Gondzio & Grothey, SIAM J.
    Optim. 2003).  Its status is _run_barrier's, and every point
    _run_barrier returns passed the domain test (_terms).
    """
    bp = BarrierProblem(problem)
    t0 = BARRIER_T0
    if initial is None:
        x0 = _find_strictly_feasible(bp)
    else:
        x0 = problem.pack(initial)
        if not bp.in_domain(x0):
            raise SolverError("the start lies outside the barrier domain")
        if not bp.centering_only:
            t0 = _central_t(bp, x0)
            x0 = _center_free_coordinates(bp, x0, t0)
    x, iters, status, history = _run_barrier(bp, x0, t0=t0, obj_tol=OBJ_TOL)
    return SolverResult(values=problem.unpack(x),
                        objective=history[-1][1],
                        iterations=iters,
                        status=status,
                        history=history)
