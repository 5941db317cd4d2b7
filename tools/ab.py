#!/usr/bin/env python3
"""Interleaved in-process A/B timing of two sensesec source trees.

Run from the repository root, for example:

    mkdir -p build/parent && git archive HEAD~1 src | tar -x -C build/parent
    python3 tools/ab.py --a build/parent/src --b src --workload cold_start \\
        --seconds 45 --reps 12

Each ``src`` tree is loaded as its own package (sensesec_a, sensesec_b, and a
second copy of A, sensesec_aa, for the A/A control); every intra-package
import of sensesec is relative, so the copies do not mix.  Each side builds
perfbench/run.py's panel of the workload with its own code (run.py's
WORKLOADS, channel_seeds and setup).  In every repetition, each design runs
on A and B back to back, then on A and its copy, and the order within each
pair alternates with the parity of repetition + design.  A repetition's
ratio is the sum of B's design times over A's (A/A: the copy's over A's).
Each repetition also times run.py's setup_s, the import and panel build,
in fresh processes (run.setup_sample with run.SRC set to the side's tree):
SETUP_SAMPLES rounds over A, B, copy, round r of repetition k starting at
side (k + r) mod 3, so that over a repetition's three rounds each side takes
each slot once, and each side's time is the median of its samples.

The design times come from one process that holds both trees, so what one
side does to the process as a whole, such as its allocator state, reaches
the other side too, and these ratios cannot see it; alternated fresh-process
runs of perfbench/run.py can.

The one line of JSON on stdout reports per-design parity, from the first
repetition: "equal" when status, outer iterations, subproblem and anchor
Newton steps, ``certified`` and each row's solver status agree and both MIs
lie within MI_TOL nats, "identical" when every field, the MIs and the SHA-1
of the returned beams' bytes included, is exactly equal, so the designs are
bitwise equal; and for A/B and A/A the ratios' median, quartiles
(statistics.quantiles, inclusive) and the number of repetitions in which the
second side was faster, of the design times under "ab" and "aa" and of the
setup times under "setup".
BLAS is pinned to one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402

MI_TOL = 1e-9
SETUP_SAMPLES = 3   # fresh-process setup samples per side and repetition
SEED = 1        # each design's stream, as run.py --seed 1 draws it
SUBMODULES = ("linalg", "channels", "metrics", "solver", "sca")


def load_tree(src, name):
    """The sensesec package under ``src``, imported as ``name``."""
    pkg_dir = Path(src).resolve() / "sensesec"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for sub in SUBMODULES:
        importlib.import_module(f"{name}.{sub}")
    return pkg


@contextmanager
def as_sensesec(pkg):
    """Let ``import sensesec`` resolve to ``pkg`` inside the block."""
    names = ["sensesec"] + [f"sensesec.{sub}" for sub in SUBMODULES]
    saved = {name: sys.modules.get(name) for name in names}
    sys.modules["sensesec"] = pkg
    for sub in SUBMODULES:
        sys.modules[f"sensesec.{sub}"] = getattr(pkg, sub)
    try:
        yield
    finally:
        for name, module in saved.items():
            if module is None:
                del sys.modules[name]
            else:
                sys.modules[name] = module


class Side:
    """One tree's panel: its configuration and scenarios, built by run.setup
    with the tree's own code."""

    def __init__(self, pkg, config, seeds):
        self.pkg = pkg
        with as_sensesec(pkg):
            self.cfg, self.scenarios = run.setup(config, seeds)

    def design(self, i):
        """(seconds, outcome) of design i of the panel."""
        channel_seed, scenario = self.scenarios[i]
        stream = self.pkg.linalg.RngState(SEED).child(f"design{channel_seed}")
        start = time.perf_counter()
        try:
            sol, trace = self.pkg.sca.run_sca_no_an(*scenario, self.cfg, stream)
        except Exception as exc:    # a design that raises is an outcome too
            return time.perf_counter() - start, {"error": type(exc).__name__}
        seconds = time.perf_counter() - start
        return seconds, {
            "status": sol.status, "outer_iters": len(trace.rows),
            "newton_steps": sum(r.solver_iterations for r in trace.rows),
            "anchor_newton_steps": trace.anchor_newton_steps,
            "certified": sol.certified,
            "solver_statuses": [r.solver_status for r in trace.rows],
            "mi_legit": sol.mi_legit, "mi_eve": sol.mi_eve,
            "weights_sha1": hashlib.sha1(
                b"".join(w.tobytes() for w in sol.weights)).hexdigest()}


def same_design(a, b):
    """Equal outcomes, MIs within MI_TOL; the beams' digest is left out."""
    if a.keys() != b.keys():
        return False
    return all(abs(a[k] - b[k]) <= MI_TOL if k.startswith("mi_")
               else a[k] == b[k] for k in a if k != "weights_sha1")


def ratio_summary(ratios):
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3,
            "second_faster": sum(r < 1.0 for r in ratios),
            "reps": len(ratios), "ratios": ratios}


def setup_times(srcs, config, seeds, rep):
    """Median seconds of SETUP_SAMPLES run.setup_sample calls on each tree of
    ``srcs``, sampled in rounds over the trees in that order, round r
    starting at tree (rep + r) mod len(srcs); run.setup_sample reads run.SRC
    at call time."""
    samples = [[] for _ in srcs]
    for r in range(SETUP_SAMPLES):
        for slot in range(len(srcs)):
            i = (rep + r + slot) % len(srcs)
            run.SRC = Path(srcs[i]).resolve()
            samples[i].append(run.setup_sample(config, seeds))
    return [statistics.median(times) for times in samples]


def compare(a_src, b_src, workload, seconds, reps):
    config = run.WORKLOADS[workload][0]
    seeds = run.channel_seeds(workload, seconds)
    a = Side(load_tree(a_src, "sensesec_a"), config, seeds)
    b = Side(load_tree(b_src, "sensesec_b"), config, seeds)
    aa = Side(load_tree(a_src, "sensesec_aa"), config, seeds)
    times = {pair: [[0.0, 0.0] for _ in range(reps)] for pair in ("ab", "aa")}
    setups = []                 # (A, B, copy of A) seconds per repetition
    parity = []
    for rep in range(reps):
        setups.append(setup_times([a_src, b_src, a_src], config, seeds, rep))
        for i, channel_seed in enumerate(seeds):
            for pair, second in (("ab", b), ("aa", aa)):
                sides = [(0, a), (1, second)]
                if (rep + i) % 2:
                    sides.reverse()
                outcomes = [None, None]
                for slot, side in sides:
                    seconds_i, outcomes[slot] = side.design(i)
                    times[pair][rep][slot] += seconds_i
                if rep == 0 and pair == "ab":
                    parity.append({"channel_seed": channel_seed,
                                   "equal": same_design(*outcomes),
                                   "identical": outcomes[0] == outcomes[1],
                                   "a": outcomes[0], "b": outcomes[1]})
    return {
        "workload": workload, "seconds": seconds, "seed": SEED,
        "a": str(a_src), "b": str(b_src),
        "blas_threads": {k: os.environ.get(k) for k in run.BLAS_ENV},
        "parity": {"designs": len(parity),
                   "equal": all(p["equal"] for p in parity),
                   "identical": all(p["identical"] for p in parity),
                   "per_design": parity},
        "ab": ratio_summary([tb / ta for ta, tb in times["ab"]]),
        "aa": ratio_summary([tb / ta for ta, tb in times["aa"]]),
        "setup": {"ab": ratio_summary([tb / ta for ta, tb, _ in setups]),
                  "aa": ratio_summary([tc / ta for ta, _, tc in setups])},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--a", required=True, help="src tree of side A")
    parser.add_argument("--b", required=True, help="src tree of side B")
    parser.add_argument("--workload", required=True,
                        choices=sorted(run.WORKLOADS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--reps", type=int, default=12)
    args = parser.parse_args(argv)
    if args.reps < 2:
        parser.error("--reps must be at least 2 for quartiles")
    for src in (args.a, args.b):
        if not (Path(src) / "sensesec" / "__init__.py").is_file():
            parser.error(f"no sensesec package under {src}")
    print(json.dumps(compare(args.a, args.b, args.workload, args.seconds,
                             args.reps)))
    return 0


if __name__ == "__main__":
    # Before numpy loads, as in perfbench/run.py.
    os.environ.update(run.BLAS_ENV)
    sys.exit(main())
