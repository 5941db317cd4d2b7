#!/usr/bin/env python3
"""Scenario-panel benchmark of sensesec: time to a verified beamformer design.

Run from the repository root, for example:

    python3 perfbench/run.py --workload eve_active --seed 1 --seconds 45 --trace 0

A run designs a fixed panel of channel draws (channel seeds 1..n, with n set
by ``--seconds`` and the workload's nominal cost per design) with
``sca.run_sca_no_an``.  ``--seed`` drives the random stream each design
receives, which sets the SCA start point.  Every returned design is checked
again with ``metrics``.  ``--trace 0`` reports the end-to-end metrics.
``--trace 1`` designs the panel untraced, then again with layer spans, and
reports the per-layer metrics.  The last line of stdout is the JSON result.
The line before it holds the per-design rows and the environment.  BLAS is
pinned to one thread.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_FILE = ROOT / ".bench_build" / "perfbench-runs.json"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_RUNS = 7
SINR_TOL = 1e-6
POWER_TOL = 1e-6
REPORT_RTOL = 1e-9

# name -> (ScenarioConfig overrides, nominal seconds per design on a 2-core
# x86 box at one BLAS thread).  The nominal cost only sets the panel length
# from --seconds, so a faster program designs the same panel.  BENCHMARK.json
# declares eve_active and cold_start; the other two serve layer studies.
WORKLOADS = {
    # The Eve cap binds: the paper's secure-sensing regime, with the most SCA
    # iterations and subproblem rebuilds.
    "eve_active": ({"eve_mi_cap": 1.0}, 3.6),
    # 325 real solver coordinates instead of 148: the derivative kernel
    # (merit_derivatives, grad_gram) dominates.
    "large_array": ({"n_tx": 8, "n_users": 4, "sinr_targets": (100.0,),
                     "rician_factors": (2.0,)}, 8.7),
    # 40 dB targets: the backtracking line search dominates.
    "tight_sinr": ({"sinr_targets": (1e4,)}, 5.6),
    # 1 mW: zero forcing does not fit the budget, so no interior anchor exists
    # and phase I runs on the subproblems.
    "cold_start": ({"power_budget": 1e-3}, 2.25),
}


def channel_seeds(workload, seconds):
    design_s = WORKLOADS[workload][1]
    return list(range(1, max(1, round(seconds / design_s)) + 1))


def setup(config, seeds):
    """Import sensesec and build every scenario of the panel."""
    from sensesec import channels
    from sensesec.linalg import RngState

    cfg = channels.ScenarioConfig(**config)
    return cfg, [(s, channels.build_scenario(cfg, RngState(s))) for s in seeds]


def setup_sample(config, seeds):
    """Seconds to import sensesec and build the panel, in a fresh process."""
    code = ("import json, sys, time; "
            f"sys.path[:0] = [{str(SRC)!r}, {str(Path(__file__).parent)!r}]; "
            "from run import setup; start = time.perf_counter(); "
            "setup(*json.loads(sys.argv[1])); print(time.perf_counter() - start)")
    out = subprocess.run([sys.executable, "-c", code, json.dumps([config, seeds])],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def verify(sol, scenario, cfg):
    """Recompute the design's numbers; never trusts its status string."""
    import numpy as np
    from sensesec import metrics, sca

    channels, stats_r, stats_e = scenario
    r_x = metrics.transmit_covariance(sol.weights)
    power = float(np.real(np.trace(r_x)))
    targets = np.asarray(cfg.sinr_targets)
    rates = metrics.sinr(channels, sol.weights, cfg.noise_comm)
    mi_legit = metrics.sensing_mi(stats_r, r_x, cfg.frame_len)
    mi_eve = metrics.sensing_mi(stats_e, r_x, cfg.frame_len)
    violations = []
    if np.any(rates < targets * (1.0 - SINR_TOL)):
        violations.append("sinr below target")
    if power > cfg.power_budget * (1.0 + POWER_TOL):
        violations.append("power over budget")
    if mi_eve > cfg.eve_mi_cap + sca.EVE_RECHECK_SLACK:
        violations.append("eve mi over cap")
    for name, mine in (("mi_legit", mi_legit), ("mi_eve", mi_eve)):
        if abs(getattr(sol, name) - mine) > REPORT_RTOL * max(1.0, abs(mine)):
            violations.append(f"reported {name} differs from recomputed")
    return {"mi_legit": mi_legit, "mi_eve": mi_eve, "power": power,
            "min_sinr_ratio": float(np.min(rates / targets)),
            "violations": violations}


def design_panel(cfg, scenarios, seed):
    """Design every scenario; one row per design."""
    from sensesec import sca
    from sensesec.linalg import RngState

    rows = []
    for s, scenario in scenarios:
        row = {"channel_seed": s}
        start = time.perf_counter()
        try:
            sol, trace = sca.run_sca_no_an(*scenario, cfg,
                                           RngState(seed).child(f"design{s}"))
        except Exception as exc:    # a design that raises counts as failed
            row["wall_s"] = time.perf_counter() - start
            row["error"] = f"{type(exc).__name__}: {exc}"
        else:
            row["wall_s"] = time.perf_counter() - start
            row["newton_steps"] = sum(r.solver_iterations for r in trace.rows)
            row["outer_iters"] = len(trace.rows)
            row["status"] = sol.status
            row.update(verify(sol, scenario, cfg))
        rows.append(row)
    return rows


def failed(row):
    return "error" in row or bool(row["violations"])


def fingerprint(rows):
    return [[r.get("newton_steps"), r.get("mi_legit")] for r in rows]


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "sensesec").glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def repeats_earlier_run(key, rows):
    """Record this run's (newton_steps, mi_legit) per design under ``key``;
    False when an earlier run with the same key recorded other values."""
    try:
        seen = json.loads(RUNS_FILE.read_text())
    except (FileNotFoundError, ValueError):
        seen = {}
    mine = fingerprint(rows)
    if key in seen:
        return seen[key] == mine
    seen[key] = mine
    RUNS_FILE.parent.mkdir(exist_ok=True)
    tmp = RUNS_FILE.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen))
    os.replace(tmp, RUNS_FILE)
    return True


def environment():
    import numpy
    import scipy

    def blas(mod):
        return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "numpy_blas": f"{blas(numpy)['name']} {blas(numpy)['version']}",
        "scipy_blas": f"{blas(scipy)['name']} {blas(scipy)['version']}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def declared_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def end_to_end(rows, setup_s):
    ok = [r for r in rows if not failed(r)]
    return {
        "wall_s": sum(r["wall_s"] for r in rows),
        "newton_steps": sum(r.get("newton_steps", 0) for r in rows),
        "outer_iters": sum(r.get("outer_iters", 0) for r in rows),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mi_legit_nats": statistics.fmean(r["mi_legit"] for r in ok) if ok else 0.0,
        "eve_mi_nats": max((r["mi_eve"] for r in ok), default=0.0),
    }


def measure(config, seeds, seed, trace, record_key=None):
    """One benchmark run; returns (result line, detail line) as dicts."""
    e2e_units, layer_units = declared_units()
    cfg, scenarios = setup(config, seeds)
    rows = design_panel(cfg, scenarios, seed)
    detail = {"channel_seeds": seeds, "seed": seed, "env": environment(),
              "designs": rows}
    problems = []
    if record_key is not None and not repeats_earlier_run(record_key, rows):
        problems.append("newton_steps or mi_legit differ from an earlier run "
                        "of the same seed")
    if trace:
        tracer = Tracer()
        with tracing(tracer):
            cfg, scenarios = setup(config, seeds)
            traced = design_panel(cfg, scenarios, seed)
        if fingerprint(traced) != fingerprint(rows):
            problems.append("traced pass differs from the untraced pass in "
                            "newton_steps or mi_legit")
        detail["traced_designs"] = traced
        values = tracer.layer_metrics()
        values["trace.wall_s"] = sum(r["wall_s"] for r in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - sum(
            r["wall_s"] for r in rows)
        units = layer_units
        designs = rows + traced
    else:
        setup_s = [setup_sample(config, seeds) for _ in range(SETUP_RUNS)]
        detail["setup_samples_s"] = setup_s
        values = end_to_end(rows, setup_s)
        units = e2e_units
        designs = rows
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)} but BENCHMARK.json "
                           f"declares {sorted(units)}")
    n_failed = sum(map(failed, designs))
    problems += [f"channel seed {r['channel_seed']}: "
                 + (r.get("error") or "; ".join(r["violations"]))
                 for r in designs if failed(r)]
    detail["failed_frac"] = n_failed / len(designs)
    detail["problems"] = problems
    result = {"correct": not problems, "attempted": len(designs),
              "failed": n_failed,
              "metrics": {k: {"value": values[k], "unit": units[k]}
                          for k in units}}
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Before numpy loads: more BLAS threads change the Newton path and,
    # on a 2-core box, nearly triple the design time.
    os.environ.update(BLAS_ENV)
    if not (SRC / "sensesec").is_dir():
        print(f"perfbench: no sensesec package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    config = WORKLOADS[args.workload][0]
    seeds = channel_seeds(args.workload, args.seconds)
    key = f"{args.workload}:{args.seed}:{seeds[-1]}:{source_digest()}"
    result, detail = measure(config, seeds, args.seed, bool(args.trace),
                             record_key=key)
    print(json.dumps({"workload": args.workload, **detail}))
    print(json.dumps(result))
    for problem in detail["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
