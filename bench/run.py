"""The dysonct benchmark: closed-loop verify grids through ``dysonct.cli.run``.

    python3 bench/run.py --workload qdyson --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ``src/``; the
benchmark adds no dependency.  One run measures one workload in this
(fresh) process.  A round is one pass over the workload's ``run()`` calls;
the next call starts when the previous one returns.  Another round starts
while at least half of it still fits in ``--seconds``, so every run
attempts whole rounds and lasts about ``--seconds``.  Every
record is checked by ``checks.py``, which never imports dysonct.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``setup_s`` (median time for a fresh interpreter to import ``dysonct.cli``,
sampled before the first round and after every round),
``wall_s`` (median over rounds of the round's summed ``run()`` wall time)
and ``peak_rss_mib`` (peak resident memory of this process or its largest
worker).  With ``--trace 1`` it carries the per-layer metrics of
``spans.py``; untraced and traced rounds alternate, and ``trace.overhead_s``
is the difference of their median walls.  The line before it records the
machine and the per-round figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# setup samples are spread over the run, so that they see the machine's
# slow phases as the rounds do: a few first, then some after every round
SETUP_FIRST = 3
SETUP_PER_ROUND = 2
USUM_BUDGET_MS = 2000  # far above any usum n <= 4 case's compute (< 0.1 s)

WORKLOADS = {
    "qdyson": "q-Dyson n<=4 sum-bounded grid at jobs=1: "
              "kernel expansion in mpoly dominates",
    "near_ct": "Sills and LXZ n<=4 grids at jobs=1: few cached kernels, "
               "so q-rational closed forms in qpoly dominate",
    "interp": "interp-dyson n=4 on seeded pair sets plus interp-closed and "
              "interp-sills: grid scans of small IntPoly products",
    "pooled": "poincare and kadell-t through the process pool, usum n=4 "
              "under a budget: large reports cross processes",
}


def workload_calls(name: str, seed: int) -> list:
    """The RunConfig keyword sets of one round, in order."""
    if name == "qdyson":
        return ([{"identity": "q-dyson", "n": n, "a_max": 8, "sum_max": 8}
                 for n in (1, 2, 3)]
                + [{"identity": "q-dyson", "n": 4, "a_max": 6, "sum_max": 6}])
    if name == "near_ct":
        return [{"identity": ident, "n": n, "a_max": 2, "sum_max": 8}
                for n in (2, 3, 4) for ident in ("sills", "lxz")]
    if name == "interp":
        return [{"identity": "interp-dyson", "n": 4, "a_max": 2, "sum_max": 7,
                 "seed": seed},
                {"identity": "interp-closed", "n": 3, "a_max": 2},
                {"identity": "interp-sills", "n": 4, "a_max": 2}]
    if name == "pooled":
        return [{"identity": "poincare", "n": 4, "a_max": 2, "jobs": 2},
                {"identity": "kadell-t", "n": 3, "a_max": 2, "m_max": 2, "jobs": 2},
                {"identity": "usum", "n": 4, "jobs": 2,
                 "budget_ms": USUM_BUDGET_MS}]
    raise KeyError(name)


def traced_calls(calls: list) -> list:
    """The traced round: pooled grids run in-process, so their spans are
    recorded here; a budgeted call is preceded by the same grid run
    in-process, whose wall is the budgeted cases' compute."""
    out = []
    for kw in calls:
        if kw.get("budget_ms"):
            out.append(dict(kw, jobs=1, budget_ms=None))
            out.append(kw)
        else:
            out.append(dict(kw, jobs=1))
    return out


# -- machine facts -----------------------------------------------------------------

def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def machine_facts() -> dict:
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "git_revision": git_revision(), "src_lines": src_line_count()}


# -- measurement --------------------------------------------------------------------

def measure_setup(count: int) -> list:
    """Wall times of ``count`` fresh interpreters importing dysonct.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import dysonct.cli"],
                              cwd=ROOT, env=env, capture_output=True,
                              timeout=120)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError("importing dysonct failed:\n"
                               + proc.stderr.decode(errors="replace"))
    return samples


def peak_rss_mib() -> float:
    """Peak RSS of this process or of its largest waited-for child."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


class Tally:
    """Counts attempted and failed cases and checks every record."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = []

    def _problem(self, text):
        self.correct = False
        if len(self.problems) < 20:
            self.problems.append(text)

    def add(self, kw: dict, code: int, records: list):
        want = checks.expected_case_count(kw)
        if len(records) != want:
            self._problem(f"{kw}: {len(records)} records, expected {want}")
        keys = {json.dumps(r["params"], sort_keys=True) for r in records}
        if len(keys) != len(records):
            self._problem(f"{kw}: repeated cases")
        if code != 0:
            self._problem(f"{kw}: exit code {code}")
        self.attempted += len(records)
        for r in records:
            try:
                checks.check_record(r)
            except checks.CheckError as exc:
                self.failed += 1
                if not checks.known_fault(kw, r):
                    self._problem(f"{r['identity']} {r['params']}: {exc}")


def run_round(cli, calls: list, tally: Tally, tracer=None) -> dict:
    """One closed-loop pass over the calls; returns its timings."""
    wall = 0.0
    elapsed = 0.0
    budget_idle = 0.0
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for kw in calls:
            start = time.perf_counter()
            code, records = cli.run(cli.RunConfig(**kw))
            if kw.get("budget_ms") and tracer is not None:
                # traced_calls put the same grid, run in-process, just before
                budget_idle += time.perf_counter() - start - elapsed
            elapsed = time.perf_counter() - start
            wall += elapsed
            tally.add(kw, code, records)
    finally:
        if tracer is not None:
            tracer.restore()
    out = {"wall_s": wall}
    if tracer is not None:
        out.update(tracer.layer_metrics())
        out["cli.budget_idle_s"] = budget_idle
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run whole rounds for ``seconds``; returns (tally, rounds, metrics)."""
    from dysonct import cli

    calls = workload_calls(workload, seed)
    tally = Tally()
    rounds = []
    setup = []
    if trace:
        calls = traced_calls(calls)
        tracer = spans.Tracer()
    else:
        setup += measure_setup(SETUP_FIRST)
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if not trace:
            rounds.append(run_round(cli, calls, tally))
            setup += measure_setup(SETUP_PER_ROUND)
        else:
            # alternate which side runs first, so that the first round's
            # warm-up does not always land on the same side of the overhead
            untraced_first = len(rounds) % 2 == 0
            if untraced_first:
                untraced = run_round(cli, calls, tally)["wall_s"]
            traced = run_round(cli, calls, tally, tracer)
            if not untraced_first:
                untraced = run_round(cli, calls, tally)["wall_s"]
            rounds.append(dict(traced, untraced_wall_s=untraced))
        now = time.perf_counter()
        # start another round only if at least half of it fits
        if now - start + (now - round_start) / 2 >= seconds:
            break
    if not trace:
        metrics = {"setup_s": (statistics.median(setup), "s"),
                   "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
                   "peak_rss_mib": (peak_rss_mib(), "MiB")}
        return tally, rounds, metrics
    metrics = {}
    for name in rounds[0]:
        if name in ("wall_s", "untraced_wall_s"):
            continue
        metrics[name] = (statistics.median(r[name] for r in rounds),
                         spans.unit_of(name))
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in rounds)
        - statistics.median(r["untraced_wall_s"] for r in rounds), "s")
    return tally, rounds, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full report to this JSON file")
    args = parser.parse_args(argv)

    if not (SRC / "dysonct" / "__init__.py").is_file():
        print(f"error: no dysonct sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tally, rounds, metrics = measure(args.workload, args.seed, args.seconds,
                                     bool(args.trace))

    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    report = {"machine": machine_facts(), "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "rounds": rounds}
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    if args.out:
        Path(args.out).write_text(json.dumps(dict(report, result=result),
                                             indent=1) + "\n")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
