"""Layer spans for the traced benchmark pass.

`tracing(tracer)` wraps the public entry points of `channels`, `sca`,
`metrics` and `solver` with timers for the duration of a `with` block and
restores every attribute on exit, so an untraced pass runs the unmodified
program.  Each span is charged to its parent as it closes: a layer's time is
its self time (its own duration minus that of its wrapped children), so the
per-layer times are disjoint and add up to about the traced wall time.

Spans opened inside `solver._find_strictly_feasible` are phase-I spans: their
Newton steps, merit calls and factorizations stay out of the main-barrier
totals.  A search that built a phase-I problem is charged whole to
`solver.phase1_s`.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# `solver._run_barrier` caps every barrier stage at this many Newton steps.
STAGE_CAP = 60


class _Frame:
    __slots__ = ("name", "start", "child", "phase1", "ran_phase1")

    def __init__(self, name, phase1):
        self.name = name
        self.start = perf_counter()
        self.child = 0.0          # time covered by wrapped children
        self.phase1 = phase1      # opened inside a feasibility search
        self.ran_phase1 = False   # a feasibility search that built phase I


class Tracer:
    """Folds spans, as they close, into per-layer self times and counts.

    Totals are keyed by ``(name, phase1)``, so the main barrier and phase I
    stay apart.
    """

    def __init__(self):
        self.self_s = Counter()
        self.calls = Counter()
        self.phase1_s = 0.0
        self.phase1_runs = 0
        self.newton_steps = Counter()     # keyed by phase1 flag
        self.accepted_steps = Counter()
        self.cho_factor_calls = Counter()
        self.solve_histories = []
        self.solve_statuses = []
        self._stack = []
        self._last_candidate = None

    def _in_phase1(self):
        return bool(self._stack) and self._stack[-1].phase1

    def span(self, name, fn, on_result=None, on_enter=None):
        """Wrap ``fn`` so that each call records a span called ``name``."""
        def wrapper(*args, **kwargs):
            phase1 = self._in_phase1() or name == "solver.find_feasible"
            if on_enter is not None:
                on_enter(args, phase1)
            frame = _Frame(name, phase1)
            self._stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self._close(frame, perf_counter() - frame.start)
            if on_result is not None:
                on_result(out, phase1)
            return out
        return wrapper

    def _close(self, frame, duration):
        if self._stack:
            self._stack[-1].child += duration
        key = (frame.name, frame.phase1)
        self.self_s[key] += duration - frame.child
        self.calls[key] += 1
        if frame.ran_phase1:
            self.phase1_s += duration
            self.phase1_runs += 1

    # -- hooks for counts that the spans alone do not give

    @staticmethod
    def counting(fn, before):
        """Wrap ``fn`` so that ``before()`` runs ahead of each call."""
        def wrapper(*args, **kwargs):
            before()
            return fn(*args, **kwargs)
        return wrapper

    def _mark_phase1(self):
        for frame in reversed(self._stack):
            if frame.name == "solver.find_feasible":
                frame.ran_phase1 = True
                return

    def _merit_enter(self, args, phase1):
        self._last_candidate = args[1]

    def _derivatives_enter(self, args, phase1):
        # The barrier loop evaluates derivatives at the very array that the
        # line search accepted, so identity marks an accepted step.
        if args[1] is self._last_candidate:
            self.accepted_steps[phase1] += 1
        self._last_candidate = None

    def _barrier_result(self, out, phase1):
        z, steps = out[0], out[1]
        if z is self._last_candidate:
            self.accepted_steps[phase1] += 1
        self._last_candidate = None
        self.newton_steps[phase1] += steps

    def _solve_result(self, res, phase1):
        self.solve_histories.append(res.history)
        self.solve_statuses.append(res.status)

    def _count_cho(self):
        self.cho_factor_calls[self._in_phase1()] += 1

    # -- summary

    def layer_metrics(self):
        """Per-layer metrics of everything traced so far (main barrier only
        for the solver.* step metrics; phase I has its own three)."""
        def s(name):
            return self.self_s[(name, False)]

        def n(name):
            return self.calls[(name, False)]

        steps = self.newton_steps[False]
        merit_calls = n("solver.merit")
        kernel_s = s("solver.derivatives") + s("solver.grad_gram") \
            + s("solver.factorize")
        return {
            "solver.derivatives_s": s("solver.derivatives"),
            "solver.grad_gram_s": s("solver.grad_gram"),
            "solver.grad_gram_calls": n("solver.grad_gram"),
            "solver.factorize_s": s("solver.factorize"),
            "solver.step_ms": 1e3 * kernel_s / steps if steps else 0.0,
            "solver.linesearch_s": s("solver.merit"),
            "solver.merit_calls": merit_calls,
            "solver.linesearch_accept_ratio":
                self.accepted_steps[False] / merit_calls if merit_calls else 0.0,
            "sca.build_s": s("sca.build"),
            "sca.build_calls": n("sca.build"),
            "solver.realify_s": s("solver.realify"),
            "solver.phase1_s": self.phase1_s,
            "solver.phase1_runs": self.phase1_runs,
            "solver.phase1_newton_steps": self.newton_steps[True],
            "solver.newton_steps": steps,
            "solver.stages": sum(len(h) for h in self.solve_histories),
            "solver.stage_cap_hits": sum(1 for h in self.solve_histories
                                         for stage in h if stage[2] >= STAGE_CAP),
            "solver.jitter_escalations":
                self.cho_factor_calls[False] - n("solver.factorize"),
            "sca.subproblems_nonoptimal":
                sum(1 for st in self.solve_statuses if st != "optimal"),
            "metrics.eval_s": s("metrics.eval"),
            "metrics.eval_calls": n("metrics.eval"),
            "sca.outer_self_s": s("sca.run"),
            "sca.extract_s": s("sca.extract"),
            "sca.randomize_s": s("sca.randomize"),
            "sca.randomize_runs": n("sca.randomize"),
            "channels.build_scenario_s": s("channels.build_scenario"),
        }


@contextmanager
def tracing(tracer):
    """Install ``tracer``'s wrappers for the duration of the block."""
    from sensesec import channels, sca, solver

    t = tracer
    patches = [
        (channels, "build_scenario", t.span("channels.build_scenario",
                                            channels.build_scenario)),
        (sca, "run_sca_no_an", t.span("sca.run", sca.run_sca_no_an)),
        (sca, "build_subproblem_no_an", t.span("sca.build",
                                               sca.build_subproblem_no_an)),
        (sca, "_extract_solution", t.span("sca.extract", sca._extract_solution)),
        (sca, "_gaussian_randomization", t.span("sca.randomize",
                                                sca._gaussian_randomization)),
        # sca imports solve and the metric functions by name.
        (sca, "solve", t.span("solver.solve", sca.solve,
                              on_result=t._solve_result)),
        (solver, "_find_strictly_feasible", t.span(
            "solver.find_feasible", solver._find_strictly_feasible)),
        (solver, "_phase1_problem", t.counting(solver._phase1_problem,
                                               t._mark_phase1)),
        (solver, "_run_barrier", t.span("solver.barrier", solver._run_barrier,
                                        on_result=t._barrier_result)),
        (solver, "_newton_direction", t.span("solver.factorize",
                                             solver._newton_direction)),
        (solver, "cho_factor", t.counting(solver.cho_factor, t._count_cho)),
        # Phase I builds its relaxed problem with __new__, so wrapping
        # __init__ (not the class) times exactly the realification.
        (solver.BarrierProblem, "__init__", t.span(
            "solver.realify", solver.BarrierProblem.__init__)),
        (solver.BarrierProblem, "merit_derivatives", t.span(
            "solver.derivatives", solver.BarrierProblem.merit_derivatives,
            on_enter=t._derivatives_enter)),
        (solver.BarrierProblem, "merit", t.span(
            "solver.merit", solver.BarrierProblem.merit,
            on_enter=t._merit_enter)),
        (solver._RealBlock, "grad_gram", t.span(
            "solver.grad_gram", solver._RealBlock.grad_gram)),
    ]
    for name in ("sensing_mi", "sensing_mi_gradient", "sensing_mi_taylor_bound",
                 "sinr"):
        patches.append((sca, name, t.span("metrics.eval", getattr(sca, name))))

    originals = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, wrapped in patches:
            setattr(owner, name, wrapped)
        yield tracer
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
