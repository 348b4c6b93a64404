"""The repo benchmark: host time of the simulator on three workloads.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload chip256-wordcount --seed 0 \\
        --seconds 36 --trace 0

``--trace 0`` times back-to-back invocations of the workload for
``--seconds`` seconds (a closed loop with one client) and prints the
end-to-end metrics; ``--trace 1`` makes one untraced and one profiled
pass and prints the per-layer metrics (see ``layers.py``).  Every run is
checked for correctness.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the full record with provenance.

End-to-end metrics (host time, serial engine):

* ``sim_ips`` -- simulated instructions per host second of the run phase
  (the sweep: all its instructions over the cold sweep's seconds);
* ``wall_s`` -- set-up, run, stats dump and energy report of one
  invocation (the sweep: Runner set-up plus the cold sweep);
* ``setup_s`` -- building the system and loading the workload (the sweep:
  source digest, Runner construction and spec expansion), the median of
  at least ``SETUP_SAMPLES`` builds;
* ``peak_rss_mb`` -- peak resident memory of the processes that ran it;
* ``replay_s`` -- answering the workload's requests from a warm result
  cache through ``Runner.run``, the median of at least ``REPLAY_SAMPLES``
  replays.

A replay takes tens of milliseconds, so one is exposed to the host's
second-to-second speed swings far more than a multi-second invocation.
Replays therefore get ``REPLAY_SHARE`` of each iteration's time, spread
over the whole window between invocations, and each starts from a
collected heap so that a cyclic collection of earlier garbage does not
land in one sample at random.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: set-up and replay samples taken after each timed invocation, and the
#: fewest of each a run reports a median over
SAMPLES_PER_ITERATION = 4
SETUP_SAMPLES = 16
REPLAY_SAMPLES = 16
#: replays continue after each invocation until they have taken this
#: share of the invocation's wall time
REPLAY_SHARE = 0.25

class Tally:
    """Runs (sweep: points) checked, and the problems of those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def count(self, problems: Sequence[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(p for p in problems
                                 if p not in self.problems)


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB; children are the sweep's pool workers
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - start, value


def _replay(suite, runner, spec, cold, tally: Tally):
    """Answer ``spec`` again from the runner's cache; seconds and hit rate."""
    gc.collect()
    seconds, replay = _timed(runner.run, spec)
    for problems in suite.replay_problems(replay, cold):
        tally.count(problems)
    return seconds, replay.hit_rate


# -- end-to-end measurement ------------------------------------------------------


def measure(suite, workload, seed: int, seconds: float, work_dir: Path,
            tiny: bool = False) -> Dict[str, object]:
    """Time the workload for ``seconds``; end-to-end metrics plus samples."""
    spec = workload.spec(seed, tiny)
    requests = [p.request for p in spec.points()]
    instructions = sum(suite.expected_instructions(r) for r in requests)
    tally = Tally()
    setups: List[float] = []
    walls: List[float] = []
    ips: List[float] = []
    replays: List[float] = []

    workers = max(1, min(2, os.cpu_count() or 1))
    runner = None
    if not workload.sweep:
        (request,) = requests
        # the cold Runner pass is the reference every invocation must
        # equal; it also finishes lazy imports before anything is timed
        runner = suite.new_runner(work_dir, workers=1)
        cold = runner.run(spec).outcomes
        ref_problems = suite.check_outcome(cold[0])

    def setup_only() -> float:
        if workload.sweep:
            took, extra = _timed(_sweep_setup, suite, spec, work_dir, workers)
            suite.discard(extra)
            return took
        took = _timed(suite.build_system, request)[0]
        gc.collect()  # the discarded system is cyclic garbage
        return took

    start = time.perf_counter()
    last = 0.0
    # stop before an iteration that, as long as the last, would overrun
    while not walls or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        if workload.sweep:
            if runner is not None:
                suite.discard(runner)
            setup_s, runner = _timed(_sweep_setup, suite, spec, work_dir,
                                     workers)
            run_s, sweep = _timed(runner.run, spec)
            cold = sweep.outcomes
            for outcome in cold:
                tally.count(suite.check_outcome(outcome))
            wall_s = setup_s + run_s
        else:
            inv = suite.invoke(request)
            tally.count(ref_problems + suite.check_outcome(inv.outcome)
                        + suite.outcome_mismatch(inv.outcome, cold[0]))
            setup_s, run_s, wall_s = inv.setup_s, inv.run_s, inv.wall_s
            del inv
            gc.collect()
        setups.append(setup_s)
        walls.append(wall_s)
        ips.append(instructions / run_s)
        # spread the short set-up and replay samples over the window
        for _ in range(SAMPLES_PER_ITERATION):
            setups.append(setup_only())
        replay_s = 0.0
        taken = 0
        while (taken < SAMPLES_PER_ITERATION
               or replay_s < REPLAY_SHARE * wall_s):
            replays.append(_replay(suite, runner, spec, cold, tally)[0])
            replay_s += replays[-1]
            taken += 1
        last = time.perf_counter() - began
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_only())
    while len(replays) < REPLAY_SAMPLES:
        replays.append(_replay(suite, runner, spec, cold, tally)[0])
    suite.discard(runner)

    metrics = {
        "sim_ips": statistics.median(ips),
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _peak_rss_mb(),
        "replay_s": statistics.median(replays),
    }
    samples = {"sim_ips": ips, "wall_s": walls, "setup_s": setups,
               "replay_s": replays}
    return {"tally": tally, "metrics": metrics, "samples": samples,
            "requests": requests}


def _sweep_setup(suite, spec, work_dir: Path, workers: int):
    runner = suite.new_runner(work_dir, workers)
    spec.points()
    return runner


# -- per-layer measurement -------------------------------------------------------


def trace(suite, layers, workload, seed: int, work_dir: Path,
          tiny: bool = False) -> Dict[str, object]:
    """Per-layer metrics from one untraced and one profiled pass.

    Each pass answers the spec cold and then replays it from the cache,
    with a serial Runner so the profile sees every point.  The counts come
    from direct, untraced invocations of each request, which must equal
    the Runner's outcomes; so must the profiled pass's.
    """
    spec = workload.spec(seed, tiny)
    requests = [p.request for p in spec.points()]
    tally = Tally()

    # direct invocations first: they give the counts and finish lazy
    # imports before either timed pass
    invocations = [suite.invoke(r) for r in requests]

    def cold_and_replay():
        runner = suite.new_runner(work_dir, workers=1)
        start = time.perf_counter()
        cold = runner.run(spec).outcomes
        replay_s, hit_rate = _replay(suite, runner, spec, cold, tally)
        wall_s = time.perf_counter() - start
        suite.discard(runner)
        return wall_s, replay_s, hit_rate, cold

    untraced_s, replay_s, hit_rate, cold = cold_and_replay()
    profile = cProfile.Profile()
    profile.enable()
    try:
        traced_s, _replay_s, _hit_rate, traced_cold = cold_and_replay()
    finally:
        profile.disable()

    for inv, ref, traced in zip(invocations, cold, traced_cold):
        tally.count(suite.check_outcome(ref)
                    + suite.outcome_mismatch(inv.outcome, ref)
                    + suite.outcome_mismatch(traced, ref))
    events = sum(inv.events for inv in invocations)
    run_s = sum(inv.run_s for inv in invocations)

    metrics = layers.fold_profile(profile)
    metrics.update(layers.count_metrics([inv.outcome for inv in invocations],
                                        events))
    metrics.update({
        "sim.ns_per_event": run_s * 1e9 / events if events else 0.0,
        "exp.points": len(requests),
        "exp.hit_rate": hit_rate,
        "exp.replay_ms_per_point": replay_s * 1e3 / len(requests),
        "trace.overhead_s": traced_s - untraced_s,
    })
    return {"tally": tally, "metrics": metrics,
            "samples": {"untraced_s": untraced_s, "traced_s": traced_s},
            "requests": requests}


# -- command line ----------------------------------------------------------------


def _import_program():
    """Import the simulator from this checkout's ``src``; fail loudly if absent."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import repro from {SRC}: {exc}")
    if Path(repro.__file__).resolve().parents[1] != SRC.resolve():
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, "
                         f"not from {SRC}")
    import layers
    import suite
    return suite, layers


def _declared_units(group: str) -> Dict[str, str]:
    """Metric name -> unit for one group of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[group]}


def main(argv: Optional[Sequence[str]] = None, tiny: bool = False) -> int:
    suite, layers = _import_program()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: print per-layer metrics from a profiled run")
    args = parser.parse_args(argv)

    workload = suite.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    work_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            out = trace(suite, layers, workload, seed, work_dir, tiny)
        else:
            out = measure(suite, workload, seed, args.seconds, work_dir, tiny)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    tally: Tally = out["tally"]
    units = _declared_units("per_layer" if args.trace else "end_to_end")
    if set(out["metrics"]) != set(units):
        raise RuntimeError("measured metrics differ from those declared: "
                           f"{sorted(set(out['metrics']) ^ set(units))}")
    metrics = {name: {"value": out["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "geometry": [suite.geometry(r) for r in out["requests"]],
        "provenance": {
            "code_version": suite.code_version(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "failed_frac": tally.failed / tally.attempted,
        "problems": tally.problems,
        "samples": out["samples"],
    }
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:>18.6g} {metric['unit']}",
              file=sys.stderr)
    for problem in tally.problems:
        print(f"perfbench: FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
