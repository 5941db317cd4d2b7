"""Secure-sensing beamformer design without artificial noise: penalty SCA
over semidefinite-relaxed per-user beamformers.

Each outer iteration solves one convex max-det subproblem in which the
eavesdropper MI is replaced by its affine global upper bound at the current
expansion point (with one exception, below), and the rank-one requirement
tr W_k - ||W_k||_2 = 0 is linearized in its concave part at the expansion
point (difference-of-convex form; Yang, Jiang, Shi & Ding, IEEE TWC 2020).
The objective penalizes the linearized rank residuals, in watts, and the
eavesdropper bound's slack, in nats, each with its own weight; both weights
grow geometrically (penalty convex-concave procedure; Lipp & Boyd, Optim.
Eng. 2016).  The slack's weight starts at a least-squares estimate of the
Eve row's multiplier at the anchor, since an exact penalty must price the
slack above that multiplier (Nocedal & Wright, Numerical Optimization, 2nd
ed., sec. 17.2).

The first subproblem carries no rank penalty, so it is the semidefinite
relaxation (SDR) of the design.  Its Eve row is linearized at the anchor
when the anchor meets the cap.  When the anchor's Eve MI reaches the cap,
that expansion would start violated, so the row caps instead tr A_e(R) at
e^cap - 1, with A_e(R) the Eve MI's log-det argument minus I:
det(I + A) >= 1 + tr A for A >= 0, so every design that meets the cap meets
this row, and its solution lands near the cap, a better first expansion
point.  The loop stops after the SDR with a certificate of global optimality
for the tightened SINR targets when the eigenvector beams of its solution
meet the limits, the Eve cap with no slack, and reach its legitimate MI
within the solver's duality-gap bound OBJ_TOL, provided its Eve row is the
trace relaxation or an inactive linearization.  Either way the SDR's optimum
bounds every design that meets the cap: the trace row admits them all, and
an inactive row of a convex problem can be dropped, leaving the cap-free
SDR.  SDRs with few constraints are typically tight for downlink
beamforming (Luo, Ma, So, Ye & Zhang, IEEE SP Mag. 2010; Huang & Palomar,
IEEE TSP 2010).  Every other design stops once the legitimate MI settles
and the constraint residuals are small (Lipp & Boyd): the Eve slack and
each iterate's own rank residual tr W_k - lambda_max(W_k), which the
penalized residual along the expansion's top eigenvector bounds from above.
Such a design is a stationary point of the penalty SCA.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .linalg import psd_sqrt, sample_white_gaussian
from .metrics import (
    BeamformerSolution,
    _scaled_quadratic,
    rank_one_certificate,
    sensing_mi,
    sensing_mi_gradient,
    sensing_mi_taylor_bound,
    sinr,
    transmit_covariance,
)
from .solver import (
    OBJ_TOL,
    BarrierProblem,
    ConicSubproblem,
    InfeasibleError,
    SolverError,
    hermitian_basis,
    hermitian_weights,
    solve,
)

RANK_ONE_THRESHOLD = 0.999
RANDOMIZATION_CANDIDATES = 100
# Eve MI (nats) above the cap that a returned design may carry: the affine
# surrogate bounds the true MI in exact arithmetic, so only round-off is left.
EVE_RECHECK_SLACK = 1e-3
# Least fraction of the anchor's margin in the beam rows that a warm start
# keeps (_warm_start).
ANCHOR_BLEND = 1e-3
PENALTY_INIT = 1e-3          # least penalty weights of the second subproblem
PENALTY_GROWTH = 3.0         # factor on the penalty weights per iteration
MAX_OUTER_ITERS = 30
TOL_OBJ_NATS = 1e-3          # convergence: change of the legitimate MI
TOL_PENALTY = 1e-6           # kappa (nats), rho_max (W per W of budget > 1 W)
SINR_MARGIN = 1e-4           # relative SINR tightening inside subproblems
MIN_POWER_TOL = 1e-9         # relative step that settles _min_power_filters
MIN_POWER_MAX_ITERS = 1000


@dataclass
class SCAState:
    """Expansion point and penalty weights of one SCA iteration; the
    eavesdropper cap is the scenario's ``eve_mi_cap``.  The rank penalty
    reads the top eigenvector of each expansion matrix (_top_direction)."""

    exp_weight_mats: list        # per-user expansion matrices
    penalty_weight: float        # on the rank residuals, nats per watt
    eve_weight: float            # on the Eve slack kappa, nats per nat

    @property
    def exp_cov(self):
        return sum(self.exp_weight_mats)


@dataclass
class SCAIteration:
    index: int
    mi_legit: float
    mi_eve: float
    # The Eve bound that the row's subproblem enforced, at its iterate: the
    # Taylor expansion, an upper bound of mi_eve, or on a first row whose
    # anchor exceeds the cap, log1p(tr A_e(R)), a lower bound of it.
    mi_eve_surrogate: float
    kappa: float                 # max(0, mi_eve_surrogate - cap)
    rho_max: float               # max_k tr W_k - lambda_max(W_k), the
                                 # iterate's own rank residual
    power: float
    sinr_margin: float           # min_k SINR_k / target_k
    penalty_weight: float
    eve_weight: float
    solver_status: str
    solver_iterations: int
    # MI_legit(sum_k W_k) minus the MI of its eigenvector beams, on a row
    # whose certificate was tried; None elsewhere.
    beam_mi_gap: float | None = None


@dataclass
class SCATrace:
    rows: list = field(default_factory=list)
    converged_at: int | None = None
    certified: bool = False      # stopped on the tight-relaxation certificate
    anchor_newton_steps: int = 0  # of the anchor solve, outside every row


def _top_direction(mat):
    """Unit eigenvector of the largest eigenvalue of a Hermitian matrix."""
    return np.linalg.eigh(mat)[1][:, -1]


def _re_trace(g, r_x):
    """Re tr(g r_x)."""
    return float(np.real(np.trace(g @ r_x)))


@dataclass(frozen=True)
class EveRow:
    """A subproblem's Eve row Re tr(grad R) - kappa <= rhs, in R = sum_k W_k
    (_eve_row)."""

    grad: np.ndarray | None      # None without a row (an infinite cap)
    rhs: float
    bound: Callable              # R -> the Eve-MI bound, in nats, it caps
    relaxed: bool                # the trace relaxation


def _eve_row(state, stats_e, cfg):
    """The EveRow of the subproblem at ``state``.  Its bound(R) is at most
    the cap exactly where Re tr(grad R) <= rhs.

    Every row but one is the Taylor expansion of the Eve MI at the
    expansion point R_0, a global upper bound by concavity
    (sensing_mi_taylor_bound), so a design that meets the row meets the cap.
    The exception is the first subproblem (rank weight 0) when R_0's own Eve
    MI reaches the cap, where that expansion starts violated: its row is the
    trace relaxation tr A_e(R) = Re tr(G_0 R) <= e^cap - 1, with A_e(R) the
    Eve MI's log-det argument minus I and G_0 the MI's gradient at R = 0.
    det(I + A) >= 1 + tr A for A >= 0, so bound(R) = log1p(tr A_e(R)) bounds
    the Eve MI from below, and every design that meets the cap meets this
    row with kappa = 0.  An infinite cap has no row; its bound is still the
    Taylor expansion."""
    cap, frame, exp_cov = cfg.eve_mi_cap, cfg.frame_len, state.exp_cov

    def taylor(r_x):
        return sensing_mi_taylor_bound(stats_e, r_x, exp_cov, frame)

    if not np.isfinite(cap):
        return EveRow(None, cap, taylor, False)
    mi_e = sensing_mi(stats_e, exp_cov, frame)
    if state.penalty_weight == 0.0 and mi_e >= cap:
        grad = sensing_mi_gradient(stats_e, np.zeros_like(exp_cov), frame)
        return EveRow(grad, math.expm1(cap),
                      lambda r_x: math.log1p(_re_trace(grad, r_x)), True)
    grad = sensing_mi_gradient(stats_e, exp_cov, frame)
    return EveRow(grad, cap - (mi_e - _re_trace(grad, exp_cov)), taylor, False)


def build_subproblem_no_an(state, channels, stats_r, eve_row, cfg):
    """Convex subproblem of one SCA step: the _beam_rows_problem of
    ``channels``, extended by kappa, its rows and the objective.

    maximize   MI_legit(sum_k W_k)
               - e kappa - p sum_k (tr W_k - u_k^H W_k u_k)
    subject to the beam rows, kappa >= 0 and the Eve row Re tr(G sum_k W_k)
    - kappa <= b of ``eve_row``, the _eve_row of ``state``, with u_k the top
    unit eigenvector of expansion matrix k, p = ``state.penalty_weight`` and
    e = ``state.eve_weight``.  The rank residuals are nonnegative on W_k >=
    0, so they need no slack; an infinite cap drops kappa with the Eve row.
    """
    n_users = cfg.n_users
    if len(state.exp_weight_mats) != n_users:
        raise ValueError("expansion point count does not match user count")
    for m in state.exp_weight_mats:
        if np.asarray(m).shape != (cfg.n_tx, cfg.n_tx):
            raise ValueError("expansion matrix dimension mismatch")

    prob = _beam_rows_problem(channels, cfg)
    n = cfg.n_tx
    mat_names = [f"W{k}" for k in range(n_users)]

    # Penalty on the rank residuals tr W_k - ||W_k||_2, with ||W_k||_2 >=
    # u_k^H W_k u_k.
    pbar = state.penalty_weight
    penalty = {}
    for name, u in zip(mat_names, map(_top_direction, state.exp_weight_mats)):
        penalty[name] = -pbar * hermitian_weights(
            np.eye(n) - np.outer(u, u.conj()))

    # Eavesdropper constraint (_eve_row), slacked by a penalized kappa >= 0.
    if eve_row.grad is not None:
        prob.add_hermitian("kappa", 1)
        prob.add_ineq(prob.scalar_map({"kappa": -1.0}), 0.0)
        penalty["kappa"] = -state.eve_weight
        eve_weights = prob.scalar_map(
            {**dict.fromkeys(mat_names, hermitian_weights(eve_row.grad)),
             "kappa": -1.0})
        prob.add_ineq(eve_weights, eve_row.rhs)

    # Objective: legitimate sensing MI (symmetrized log-det form) of sum_k
    # W_k minus the penalty terms.
    scale_r = cfg.frame_len / stats_r.noise_power
    legit = scale_r * _scaled_quadratic(stats_r, hermitian_basis(n))
    obj_map = prob.matrix_map(np.eye(stats_r.dim), {tuple(mat_names): legit})
    prob.set_objective(linear=prob.scalar_map(penalty), logdet=obj_map)
    return prob


def _min_power_filters(links, targets, noise, budget):
    """MMSE filters M^-1 h_k of the least-power beams that meet the SINR
    ``targets``, with ``links`` holding the channels h_k as columns.

    q is the least fixed point of Yates' standard interference function
    q_k <- targets_k (1 - q_k a_k) / a_k, with a_k = h_k^H M^-1 h_k and M =
    I + sum_j q_j h_j h_j^H, iterated from q = 0 (Yates, IEEE JSAC 1995).
    By uplink-downlink duality, noise * sum_k q_k at the fixed point is the
    least downlink power that meets the targets (Schubert & Boche, IEEE TVT
    2004).  The iterates rise monotonically, so None, returned as soon as
    noise * sum_k q_k reaches ``budget``, certifies that no beams meet the
    targets within the budget.  Raises SolverError when the iterates neither
    settle nor reach the budget within MIN_POWER_MAX_ITERS."""
    q = np.zeros(links.shape[1])
    for _ in range(MIN_POWER_MAX_ITERS):
        filters = np.linalg.solve(
            np.eye(len(links)) + (links * q) @ links.conj().T, links)
        a = np.real(np.sum(links.conj() * filters, axis=0))
        q, prev = targets * (1.0 - q * a) / a, q
        if noise * np.sum(q) >= budget:
            return None
        if np.all(q - prev <= MIN_POWER_TOL * q):
            return filters
    raise SolverError(
        f"the min-power fixed point neither settled nor reached the power "
        f"budget in {MIN_POWER_MAX_ITERS} iterations; feasibility undecided")


def _anchor_start(channels, cfg):
    """Per-user matrices strictly inside the power, SINR and W_k >= 0 rows,
    in closed form, or InfeasibleError when those rows have no interior.

    Both come from one _min_power_filters call at the tightened targets:
    its None is the verdict, and its filters give the start's unit MMSE
    directions u_k.  The downlink powers that meet those targets exactly
    along u_k, scaled up to the midpoint between their sum and the budget,
    leave every SINR row strictly slack: scaling all powers by c > 1 scales
    signal and interference alike and shrinks the noise's share.  Each W_k
    = p_k u_k u_k^H + eps I, with eps small enough to keep at least half of
    the power slack and of every SINR row's slack."""
    links = np.column_stack(channels)
    targets = np.asarray(cfg.sinr_targets) * (1.0 + SINR_MARGIN)
    noise, budget = cfg.noise_comm, cfg.power_budget
    filters = _min_power_filters(links, targets, noise, budget)
    if filters is None:
        raise InfeasibleError(
            "the SINR targets are unreachable within the power budget for "
            "this channel draw (their least power, from the uplink fixed "
            "point, reaches the budget)")
    dirs = filters / np.linalg.norm(filters, axis=0)
    gains = np.abs(links.conj().T @ dirs) ** 2      # |h_k^H u_j|^2 at [k, j]
    signal = np.diag(gains)
    # p_k |h_k^H u_k|^2 / target_k - sum_{j != k} p_j |h_k^H u_j|^2 = noise
    system = np.diag(signal / targets + signal) - gains
    powers = np.linalg.solve(system, np.full(len(signal), noise))
    powers *= (budget + powers.sum()) / (2.0 * powers.sum())

    # Slacks of the rows, and their loss per unit of eps: n_users n_tx of
    # power, and on SINR row k, |h_k|^2 (target_k (n_users - 1) - 1).
    n_tx, n_users = links.shape
    sinr_slack = (1.0 + targets) * signal * powers \
        - targets * (gains @ powers + noise)
    loss = np.sum(np.abs(links) ** 2, axis=0) * (targets * (n_users - 1) - 1.0)
    lossy = loss > 0.0
    eps = 0.5 * min((budget - powers.sum()) / (n_users * n_tx),
                    np.min(sinr_slack[lossy] / loss[lossy], initial=np.inf))
    return [p * np.outer(u, u.conj()) + eps * np.eye(n_tx)
            for p, u in zip(powers, dirs.T)]


def _beam_rows_problem(channels, cfg):
    """The rows that involve the beams alone, on variables W{k}: power
    budget, tightened per-user SINR and W_k >= 0, with no objective.  Every
    subproblem extends this problem (build_subproblem_no_an), and the anchor
    is its analytic center (_anchor_point)."""
    prob = ConicSubproblem()
    n = cfg.n_tx
    mat_names = [f"W{k}" for k in range(cfg.n_users)]
    for name in mat_names:
        prob.add_hermitian(name, n)

    # Power budget.
    trace_weights = hermitian_weights(np.eye(n))
    prob.add_ineq(prob.scalar_map(dict.fromkeys(mat_names, trace_weights)),
                  cfg.power_budget)

    # Tightened per-user SINR (margin keeps the rank-one extraction within
    # the reporting tolerance): target (interference + noise) >= signal.
    for k in range(cfg.n_users):
        target = cfg.sinr_targets[k] * (1.0 + SINR_MARGIN)
        gain = hermitian_weights(np.outer(channels[k], channels[k].conj()))
        terms = {name: (-1.0 if j == k else target) * gain
                 for j, name in enumerate(mat_names)}
        prob.add_ineq(prob.scalar_map(terms), -target * cfg.noise_comm)

    prob.add_psd(mat_names)
    prob.set_objective()
    return prob


def _anchor_point(rows, channels, cfg):
    """Interior anchor, per-user matrices, and the Newton steps its solve
    took: the analytic center of ``rows``, the _beam_rows_problem of
    ``channels`` (Boyd & Vandenberghe, Convex Optimization, sec. 8.5.3).
    The solve starts at _anchor_start, which raises InfeasibleError,
    certified in closed form, when those rows have no interior."""
    start = _anchor_start(channels, cfg)
    res = solve(rows, initial={f"W{k}": m for k, m in enumerate(start)})
    return [res.values[f"W{k}"] for k in range(cfg.n_users)], res.iterations


def _eve_multiplier_estimate(mats, stats_r, stats_e, cfg):
    """Least-squares estimate of the Eve row's multiplier at the covariance
    sum_k W_k: the w >= 0 that brings grad MI_legit closest to w grad MI_eve
    in the Hermitian inner product <A, B> = Re tr(A^H B), in nats of legit MI
    per nat of Eve MI; 0 when the Eve MI is flat there (an Eve without target
    gain sees nothing)."""
    r_x = transmit_covariance(mats)
    grad_r = sensing_mi_gradient(stats_r, r_x, cfg.frame_len)
    grad_e = sensing_mi_gradient(stats_e, r_x, cfg.frame_len)
    inner = float(np.real(np.vdot(grad_e, grad_r)))
    norm2 = float(np.real(np.vdot(grad_e, grad_e)))
    return max(0.0, inner) / norm2 if norm2 > 0.0 else 0.0


def _start_values(mats, cfg, eve_row):
    """Solver warm start from explicit W_k; with an Eve row (_eve_row),
    kappa is sized to that row's violation Re tr(G R) - b plus a pad that
    keeps its barrier arguments strict."""
    vals = {f"W{k}": m for k, m in enumerate(mats)}
    if eve_row.grad is not None:
        pad = 1e-4 * max(1.0, cfg.power_budget)
        violation = _re_trace(eve_row.grad, transmit_covariance(mats)) \
            - eve_row.rhs
        vals["kappa"] = max(violation, 0.0) + pad
    return vals


def _warm_start(problem, res, anchor, beam_margin):
    """Per-user matrices that start the subproblem after ``problem``, whose
    solve returned ``res``: the deepest centered stage point in that solve's
    history whose ``beam_margin``, the smallest slack of the beam rows, is
    at least ANCHOR_BLEND times the anchor's, else its final iterate blended
    toward the anchor.  The margin is a minimum of affine slacks and
    smallest eigenvalues, so it is concave, and the blend keeps at least
    ANCHOR_BLEND times the anchor's margin without a test.  A point of the
    central path far enough from the boundary restarts the perturbed problem
    better than the final, near-boundary iterate (Gondzio & Grothey, SIAM J.
    Optim. 2003; Yildirim & Wright, SIAM J. Optim. 2002)."""
    def mats(values):
        return [values[f"W{k}"] for k in range(len(anchor))]

    floor = ANCHOR_BLEND * beam_margin(anchor)
    blend = [(1.0 - ANCHOR_BLEND) * m + ANCHOR_BLEND * a
             for m, a in zip(mats(res.values), anchor)]
    # Deepest first, unpacked only as far as the search reads.
    points = (mats(problem.unpack(x)) for *_, x in reversed(res.history)
              if x is not None)
    return next((start for start in points if beam_margin(start) >= floor),
                blend)


def _extract_solution(weight_mats, channels, stats_r, stats_e, cfg, eve_bound,
                      rng):
    """Rank-one beams from the relaxed per-user matrices plus re-verified
    metrics, with ``eve_bound`` the Eve bound of the last solved subproblem
    (_eve_row).  The status is this step's own: "randomization-failed", else
    "limits-violated", else "optimal"; run_sca_no_an composes the design's."""
    status = "optimal"
    certs = np.array([rank_one_certificate(w) for w in weight_mats])
    weights = [math.sqrt(max(float(np.real(np.trace(wmat))), 0.0))
               * _top_direction(wmat) for wmat in weight_mats]

    if not np.all(certs >= RANK_ONE_THRESHOLD):
        drawn = _gaussian_randomization(weight_mats, channels, stats_r,
                                        stats_e, cfg, rng)
        if drawn is None:
            status = "randomization-failed"
        else:
            weights = drawn

    r_x = transmit_covariance(weights)
    mi_r = sensing_mi(stats_r, r_x, cfg.frame_len)
    mi_e = sensing_mi(stats_e, r_x, cfg.frame_len)
    power = float(np.real(np.trace(r_x)))
    rates = sinr(channels, weights, cfg.noise_comm)
    if not _meets_limits(power, rates, mi_e, cfg):
        status = _first_failure([status, "limits-violated"])
    return BeamformerSolution(
        weights=weights,
        weight_mats=weight_mats,
        mi_legit=mi_r,
        mi_eve=mi_e,
        mi_eve_surrogate=eve_bound(r_x),
        sinrs=rates,
        power=power,
        rank_certs=certs,
        status=status,
    )


def _meets_limits(power, rates, mi_eve, cfg):
    """Power <= budget, SINR >= target and Eve MI <= cap, within slacks."""
    return (power <= cfg.power_budget * (1 + 1e-9)
            and np.all(rates >= np.asarray(cfg.sinr_targets) * (1.0 - 1e-6))
            and mi_eve <= cfg.eve_mi_cap + EVE_RECHECK_SLACK)


def _gaussian_randomization(weight_mats, channels, stats_r, stats_e, cfg,
                            rng):
    """Draw candidate beam sets from CN(0, W_k), each beam W_k^(1/2) u for a
    white u ~ CN(0, I) scaled to norm sqrt(tr W_k), and keep the best
    feasible, or None when no draw is feasible."""
    best, best_mi = None, -np.inf
    gen_rng = rng.child("randomization")
    roots = [psd_sqrt(wmat) for wmat in weight_mats]
    for m in range(RANDOMIZATION_CANDIDATES):
        cand = []
        for k, (root, wmat) in enumerate(zip(roots, weight_mats)):
            draw = root @ sample_white_gaussian(gen_rng.child(f"{m}:{k}"),
                                                cfg.n_tx)
            norm = np.linalg.norm(draw)
            trace = math.sqrt(max(float(np.real(np.trace(wmat))), 0.0))
            cand.append(draw / norm * trace if norm > 0 else draw)
        r_x = transmit_covariance(cand)
        if not _meets_limits(float(np.real(np.trace(r_x))),
                             sinr(channels, cand, cfg.noise_comm),
                             sensing_mi(stats_e, r_x, cfg.frame_len), cfg):
            continue
        cand_mi = sensing_mi(stats_r, r_x, cfg.frame_len)
        if cand_mi > best_mi:
            best, best_mi = cand, cand_mi
    return best


def run_sca_no_an(channels, stats_r, stats_e, cfg, rng):
    """Penalty-SCA outer loop; returns (BeamformerSolution, SCATrace).

    ``channels`` lists the users' (n_tx,) channel vectors h_k, as
    channels.build_scenario returns them.

    One solve per design finds the interior anchor, from a start built in
    closed form (_anchor_start), which raises InfeasibleError when the SINR
    targets do not fit the power budget, certified by the min-power fixed
    point, or SolverError when that fixed point cannot decide it; the trace
    counts the anchor solve's Newton steps in ``anchor_newton_steps``.  The
    anchor is the first subproblem's expansion point and start; every later
    subproblem expands at the previous solution and starts at the deepest
    centered stage point of the previous solve that keeps ANCHOR_BLEND of
    the anchor's margin in the beam rows (_warm_start), one solve per outer
    iteration and none after the last.  The first subproblem is the SDR: its
    rank-penalty weight is 0, and the i-th one's is PENALTY_INIT *
    PENALTY_GROWTH**(i - 2).  The SDR's Eve row caps tr A_e(R) when the
    anchor's Eve MI reaches the cap, and every other Eve row is the Taylor
    expansion at the expansion point (_eve_row).  The loop stops after the
    first solve, certified global, when that solve is "optimal", its Eve row
    is the trace relaxation or its Eve surrogate lies strictly below the cap
    (always, for an infinite cap), and the eigenvector beams that
    _extract_solution returns meet the limits, the Eve cap with no slack, and
    come within the solver's gap bound OBJ_TOL of the relaxed legitimate MI;
    the solution and the trace then read ``certified``.  Otherwise it stops
    after an outer iteration whose legitimate MI moved by at most
    TOL_OBJ_NATS from the previous one, with kappa at most TOL_PENALTY nats
    and the iterate's own largest rank residual tr W_k - lambda_max(W_k) at
    most TOL_PENALTY watts per watt of a budget above 1 W, as its round-off
    grows with the budget.
    That residual is at most the penalized one along the expansion's u_k,
    since lambda_max(W) >= u^H W u, so the loop stops no later than a test
    of the penalized residual would.  The solution's ``mi_eve_surrogate`` is
    the Eve bound that the last solved subproblem enforced, at the returned
    beams; after the trace row alone it bounds their Eve MI from below, not
    above.  ``rng`` feeds only the Gaussian randomization of a relaxed
    solution that is not rank one, so a rank-one design depends on the
    scenario alone.  The trace records the true metrics of every accepted
    iterate, recomputed from the metrics module rather than trusted from the
    solver.  The solution's status is composed once, after the loop: the
    first failure among the solves' statuses, "max-iter" for a loop that did
    not converge and _extract_solution's own status ("randomization-failed"
    or "limits-violated", _meets_limits), else "optimal".  An infinite
    ``cfg.eve_mi_cap`` designs without the eavesdropper constraint.  Raises
    ValueError when ``channels`` does not hold one (n_tx,) vector per user,
    or when ``stats_r`` or ``stats_e`` describes another number of antennas.
    """
    shapes = [np.shape(link) for link in channels]
    if shapes != [(cfg.n_tx,)] * cfg.n_users:
        raise ValueError(f"{len(shapes)} channel vectors of shapes {shapes} "
                         f"for {cfg.n_users} users of {cfg.n_tx} antennas")
    for name, stats in (("stats_r", stats_r), ("stats_e", stats_e)):
        if stats.n_tx != cfg.n_tx:
            raise ValueError(f"{name} has n_tx = {stats.n_tx}, but "
                             f"cfg.n_tx = {cfg.n_tx}")
    trace = SCATrace()
    targets = np.asarray(cfg.sinr_targets)

    rows = _beam_rows_problem(channels, cfg)
    anchor, trace.anchor_newton_steps = _anchor_point(rows, channels, cfg)
    rows_barrier = BarrierProblem(rows)
    names = [f"W{k}" for k in range(cfg.n_users)]

    def beam_margin(mats):
        return rows_barrier.strict_margin(rows.pack(dict(zip(names, mats))))

    eve_weight = PENALTY_INIT
    if np.isfinite(cfg.eve_mi_cap):
        eve_weight = max(PENALTY_INIT, _eve_multiplier_estimate(
            anchor, stats_r, stats_e, cfg))
    state = SCAState([m.copy() for m in anchor], 0.0, eve_weight)

    prev_mi = None
    start = anchor
    for itn in range(1, MAX_OUTER_ITERS + 1):
        if itn > 1:
            state = SCAState([m.copy() for m in weight_mats],
                             PENALTY_INIT * PENALTY_GROWTH ** (itn - 2),
                             state.eve_weight * PENALTY_GROWTH)
            start = _warm_start(problem, res, anchor, beam_margin)
        eve_row = _eve_row(state, stats_e, cfg)
        problem = build_subproblem_no_an(state, channels, stats_r, eve_row, cfg)
        res = solve(problem, initial=_start_values(start, cfg, eve_row))
        weight_mats = [res.values[name] for name in names]
        r_x = transmit_covariance(weight_mats)
        mi_r = sensing_mi(stats_r, r_x, cfg.frame_len)
        mi_e = sensing_mi(stats_e, r_x, cfg.frame_len)
        surrogate = eve_row.bound(r_x)
        # The tight-relaxation certificate, tried on the SDR's solution when
        # its Eve row is the trace relaxation or an inactive Taylor row; the
        # beams are the ones returned, so a matrix that randomization would
        # replace is not tried.
        gap = None
        if (itn == 1 and res.status == "optimal"
                and (eve_row.relaxed or surrogate < cfg.eve_mi_cap)
                and all(rank_one_certificate(m) >= RANK_ONE_THRESHOLD
                        for m in weight_mats)):
            sol = _extract_solution(weight_mats, channels, stats_r, stats_e,
                                    cfg, eve_row.bound, rng)
            gap = mi_r - sol.mi_legit
            trace.certified = (sol.status == "optimal" and gap <= OBJ_TOL
                               and sol.mi_eve <= cfg.eve_mi_cap)
        # The Eve slack the objective penalizes, and the iterate's own rank
        # residuals tr W_k - lambda_max(W_k): lambda_max(W) >= u^H W u, so
        # they lie at or below the penalized ones along the expansion's u_k.
        kappa = max(0.0, surrogate - cfg.eve_mi_cap)
        rho_max = max(float(np.trace(m).real - np.linalg.eigvalsh(m)[-1])
                      for m in weight_mats)
        rates = sinr(channels, weight_mats, cfg.noise_comm)
        trace.rows.append(SCAIteration(
            index=itn,
            mi_legit=mi_r,
            mi_eve=mi_e,
            mi_eve_surrogate=surrogate,
            kappa=kappa,
            rho_max=rho_max,
            power=float(np.real(np.trace(r_x))),
            sinr_margin=float(np.min(rates / targets)),
            penalty_weight=state.penalty_weight,
            eve_weight=state.eve_weight,
            solver_status=res.status,
            solver_iterations=res.iterations,
            beam_mi_gap=gap,
        ))
        converged = trace.certified or (
            prev_mi is not None
            and abs(mi_r - prev_mi) <= TOL_OBJ_NATS
            and max(kappa, rho_max / max(1.0, cfg.power_budget))
            <= TOL_PENALTY)
        if converged:
            trace.converged_at = itn
            break
        prev_mi = mi_r

    if not trace.certified:
        sol = _extract_solution(weight_mats, channels, stats_r, stats_e, cfg,
                                eve_row.bound, rng)
    loop = "optimal" if trace.converged_at is not None else "max-iter"
    sol.status = _first_failure(
        [row.solver_status for row in trace.rows] + [loop, sol.status])
    sol.certified = trace.certified
    return sol, trace


def _first_failure(statuses):
    """The first status that is not "optimal", else "optimal"."""
    return next((s for s in statuses if s != "optimal"), "optimal")
