"""Batch verification harness.

``verify <identity>`` enumerates a parameter grid in lexicographic order
as (identity, params) tasks and streams one report per case, buffered so
the output order never depends on scheduling.  The harness only
enumerates and schedules: ``_execute`` calls the case's checker,
``identities.verify_<identity>(**params)``, times it, compares the two
sides it returns and records the case under its own identity and params,
so a failing case prints the same case text as a passing one.  With one
job and no budget the cases run in this process, otherwise on at most
--jobs reusable worker processes.  Under --budget-ms each case is timed
from when its worker receives it; a worker that overruns is killed, its
case reported as TIMEOUT, and replaced.  ``ct`` prints one coefficient of
a kernel, named by its ``mpoly.kernel_factors`` family.  ``list`` names
the known identities.

Exit status: 0 when every case agreed or timed out, 1 on any mismatch or
failed case, 2 on usage errors, which include a grid bound or budget out
of range (--n below 1, --a-max, --m-max or --sum-max below 0, --jobs or
DYSONCT_JOBS below 1, --budget-ms below 1).  ``RunConfig`` rejects the
same bounds with ValueError, so ``run`` accepts only what ``verify``
does.  After the reports, ``verify`` writes one summary line on stderr:
the PASS, FAIL, ERROR and TIMEOUT counts, the total wall time and the
slowest case.

The text format is byte-deterministic for a fixed configuration and seed,
independent of --jobs.  The json format additionally carries the per-case
wall time in ``millis``, which is the one field that varies from run to
run; strip it if byte-stable json is needed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import multiprocessing
import os
import random
import sys
import time
from dataclasses import dataclass

from . import identities as ids
from .combi import (
    Permutation, Tournament, all_compositions, all_pairsets,
    all_zero_one_matrices, is_strict, partitions_upto, sort_desc,
)
from .mpoly import (
    bg_alternating_kernel, dyson_kernel, tkernel, tournament_kernel,
    tzero_kernel,
)

JOBS_ENV = "DYSONCT_JOBS"


@dataclass
class RunConfig:
    identity: str
    n: int = 3
    a_max: int = 2
    m_max: int = 2
    jobs: int = 1
    seed: int = 0
    budget_ms: int | None = None
    sum_max: int | None = None

    def __post_init__(self):
        """Reject a grid bound, job count or budget out of range."""
        for name, low in [("n", 1), ("a_max", 0), ("m_max", 0),
                          ("sum_max", 0), ("jobs", 1), ("budget_ms", 1)]:
            value = getattr(self, name)
            if value is not None and value < low:
                raise ValueError(f"--{name.replace('_', '-')} must be at "
                                 f"least {low}, got {value}")


# -- per-identity enumerators ---------------------------------------------------------
# Each yields (identity, params) tasks, params exactly as the report prints
# them and as identities.verify_<identity> takes them.

def _a_values(cfg, low: int = 1):
    """Every a with n parts in low..a_max and, if set, |a| <= sum_max."""
    for a in itertools.product(range(low, cfg.a_max + 1), repeat=cfg.n):
        if cfg.sum_max is None or sum(a) <= cfg.sum_max:
            yield list(a)


def _enum_qdyson(cfg):
    for a in _a_values(cfg, 0):
        yield "q-dyson", {"a": a}


def _enum_poincare(cfg):
    for a in _a_values(cfg):
        yield "poincare", {"a": a}


def _enum_poincare_equal(cfg):
    for k in range(1, cfg.a_max + 1):
        yield "poincare-equal", {"n": cfg.n, "k": k}


def _enum_wtd(cfg):
    for n in range(1, cfg.n + 1):
        yield "wtd", {"n": n}


def _enum_bg_general(cfg):
    for a in _a_values(cfg):
        for size in range(cfg.n + 1):
            for I in itertools.combinations(range(1, cfg.n + 1), size):
                yield "bg-general", {"a": a, "I": list(I)}


def _enum_bg_alternating(cfg):
    for a in _a_values(cfg):
        yield "bg-alternating", {"a": a}


def _enum_tournament(cfg):
    edges = [Tournament.from_pairset(S, cfg.n).serialize()
             for S in sorted(all_pairsets(cfg.n), key=sorted)]
    for a in _a_values(cfg):
        for e in edges:
            yield "tournament", {"a": a, "edges": e}


def _enum_kadell(cfg):
    for a in _a_values(cfg, 0):
        for m in range(1, cfg.m_max + 1):
            for v in all_compositions(m, cfg.n):
                yield "kadell", {"a": a, "v": list(v)}


def _enum_kadell_t(cfg):
    for a in _a_values(cfg):
        for m in range(1, cfg.m_max + 1):
            for k in range(1, cfg.n + 1):
                yield "kadell-t", {"a": a, "m": m, "k": k}


def _enum_strict(cfg):
    lams = [list(lam) for lam in
            itertools.product(range(cfg.m_max + 1), repeat=cfg.n)
            if is_strict(lam)]
    for a in _a_values(cfg):
        for lam in lams:
            for w in Permutation.all_perms(cfg.n):
                yield "strict", {"a": a, "lam": lam, "w": w.serialize()}


def _enum_usum(cfg):
    for n in range(1, cfg.n + 1):
        yield "usum", {"n": n}
    for n in range(1, cfg.n + 1):
        for k in range(1, n + 1):
            yield "usum-k", {"n": n, "k": k}


def _enum_prop_kappa(cfg):
    for a in _a_values(cfg):
        for kappa in all_zero_one_matrices(cfg.n, cfg.m_max):
            for lam, w in ids.solve_column_relation(kappa):
                yield "prop-kappa", {"a": a, "kappa": kappa.serialize(),
                                     "lam": list(lam), "w": w.serialize()}


def _enum_prop_zero(cfg):
    for a in _a_values(cfg):
        for kappa in all_zero_one_matrices(cfg.n, cfg.m_max):
            if kappa.is_left_justified():
                continue
            for lam, _ in ids.solve_column_relation(kappa):
                yield "prop-zero", {"a": a, "kappa": kappa.serialize(),
                                    "lam": list(lam)}


def _enum_prop_vnu(cfg):
    m = cfg.m_max
    for a in _a_values(cfg):
        for v in itertools.product(range(m + 1), repeat=cfg.n):
            yield "prop-vnu", {"a": a, "v": list(v), "m": m}


def _enum_sills(cfg):
    for a in _a_values(cfg, 0):
        for r, s in itertools.permutations(range(1, cfg.n + 1), 2):
            yield "sills", {"a": a, "r": r, "s": s}


def _lxz_vs(n):
    """All v with |v| = 0, max(v) <= 1 and v_1 = 1, lexicographically."""
    out = []
    for tail in itertools.product(range(-n, 2), repeat=n - 1):
        v = [1, *tail]
        if sum(v) == 0 and max(v) <= 1:
            out.append(v)
    return out


def _enum_lxz(cfg):
    vs = _lxz_vs(cfg.n)
    for a in _a_values(cfg, 0):
        for v in vs:
            yield "lxz", {"a": a, "v": v}


def _enum_interp_dyson(cfg):
    rng = random.Random(cfg.seed)
    all_s = sorted(all_pairsets(cfg.n), key=sorted)
    for a in _a_values(cfg):
        if cfg.n <= 3:
            chosen = all_s
        else:
            chosen = sorted(rng.sample(all_s, min(30, len(all_s))), key=sorted)
        for S in chosen:
            yield "interp-dyson", {"a": a, "S": [list(p) for p in sorted(S)]}


def _enum_interp_closed(cfg):
    for a in _a_values(cfg):
        for w in Permutation.all_perms(cfg.n):
            yield "interp-closed", {"a": a, "w": w.serialize()}


def _enum_interp_sills(cfg):
    for a in _a_values(cfg):
        for r in range(2, cfg.n + 1):
            yield "interp-sills", {"a": a, "r": r}


def _enum_scalar_kkhat(cfg):
    comps = list(itertools.product(range(cfg.a_max + 1), repeat=cfg.n))
    for v in comps:
        for w in comps:
            yield "scalar-kkhat", {"v": list(v), "w": list(w)}


def _enum_schur_monomial(cfg):
    for lam in itertools.product(range(cfg.m_max + 1), repeat=cfg.n):
        if sort_desc(lam) == lam:
            for v in all_compositions(sum(lam), cfg.n):
                yield "schur-monomial", {"lam": list(lam), "v": list(v)}


def _enum_hook_content(cfg):
    for a in range(cfg.a_max + 1):
        for lam in partitions_upto(cfg.m_max, cfg.n):
            yield "hook-content", {"lam": list(lam), "a": a}


REGISTRY = {
    "q-dyson": _enum_qdyson,
    "poincare": _enum_poincare,
    "poincare-equal": _enum_poincare_equal,
    "wtd": _enum_wtd,
    "bg-general": _enum_bg_general,
    "bg-alternating": _enum_bg_alternating,
    "tournament": _enum_tournament,
    "kadell": _enum_kadell,
    "kadell-t": _enum_kadell_t,
    "strict": _enum_strict,
    "usum": _enum_usum,
    "prop-kappa": _enum_prop_kappa,
    "prop-zero": _enum_prop_zero,
    "prop-vnu": _enum_prop_vnu,
    "sills": _enum_sills,
    "lxz": _enum_lxz,
    "interp-dyson": _enum_interp_dyson,
    "interp-closed": _enum_interp_closed,
    "interp-sills": _enum_interp_sills,
    "scalar-kkhat": _enum_scalar_kkhat,
    "schur-monomial": _enum_schur_monomial,
    "hook-content": _enum_hook_content,
}


# -- execution ----------------------------------------------------------------------

def _record(identity, params, status, lhs="", rhs="", equal=None, millis=None):
    """One case's record; ``status`` is ``ok``, ``error`` or ``timeout``."""
    return {"identity": identity, "params": params, "lhs": lhs, "rhs": rhs,
            "equal": equal, "millis": millis, "status": status}


def _execute(identity, params):
    """Time ``identities.verify_<identity>(**params)`` and record the case.

    The checker is looked up when the case runs, so a wrapper installed on
    the ``identities`` module sees the call.
    """
    check = getattr(ids, "verify_" + identity.replace("-", "_"))
    start = time.perf_counter()
    try:
        lhs, rhs = check(**params)
    except Exception as exc:  # an internal assertion is a failed case
        return _record(identity, params, "error", f"error: {exc}", equal=False)
    return _record(identity, params, "ok", lhs, rhs, lhs == rhs,
                   int((time.perf_counter() - start) * 1000))


def _worker(conn):
    for task in iter(conn.recv, None):
        conn.send(_execute(*task))


def _run_workers(tasks, jobs, budget_ms):
    """Run (identity, params) tasks on at most ``jobs`` worker processes,
    started as cases need them and reused.  Each result is read as soon as
    it arrives, so a large report cannot stall its worker.  With
    ``budget_ms``, a worker still busy ``budget_ms`` after it received its
    case is killed and the case recorded as ``timeout``; one that dies
    without a result leaves an ``error`` that names its exit code.  A
    fresh worker replaces either.
    """
    from multiprocessing.connection import wait
    results = [None] * len(tasks)
    idle, busy = [], {}  # busy: connection -> (process, task index, deadline)
    i = 0
    try:
        while i < len(tasks) or busy:
            while i < len(tasks) and (idle or len(busy) < jobs):
                if idle:
                    proc, conn = idle.pop()
                else:
                    conn, child = multiprocessing.Pipe()
                    proc = multiprocessing.Process(target=_worker, args=(child,))
                    proc.start()
                    child.close()
                conn.send(tasks[i])
                busy[conn] = (proc, i, budget_ms
                              and time.monotonic() + budget_ms / 1000.0)
                i += 1
            deadlines = [d for _, _, d in busy.values() if d]
            ready = wait(list(busy), max(0.0, min(deadlines) - time.monotonic())
                         if deadlines else None)
            for conn, (proc, j, deadline) in list(busy.items()):
                if conn in ready:
                    try:
                        results[j] = conn.recv()
                    except EOFError:  # the worker died without a result
                        status = "error"
                    else:
                        del busy[conn]
                        idle.append((proc, conn))
                        continue
                elif deadline and time.monotonic() >= deadline:
                    status = "timeout"
                else:
                    continue
                del busy[conn]
                proc.kill()
                proc.join()
                conn.close()
                if status == "timeout":
                    results[j] = _record(*tasks[j], status)
                else:
                    results[j] = _record(
                        *tasks[j], status,
                        f"error: worker exited with code {proc.exitcode}",
                        equal=False)
        for proc, conn in idle:
            conn.send(None)
            proc.join()
    finally:  # no worker outlives the call, even after an exception
        for proc, conn in idle + [(p, c) for c, (p, _, _) in busy.items()]:
            proc.kill()
            proc.join()
            conn.close()
    return results


def run(config: RunConfig):
    """Run a verification grid; returns (exit_code, list of record dicts)."""
    if config.identity not in REGISTRY:
        return 2, []
    tasks = list(REGISTRY[config.identity](config))
    if config.jobs > 1 or config.budget_ms:
        records = _run_workers(tasks, config.jobs, config.budget_ms)
    else:
        records = [_execute(*t) for t in tasks]
    bad = any(r["status"] != "timeout" and not r["equal"] for r in records)
    return (1 if bad else 0), records


def _record_case(r):
    params = " ".join(f"{k}={v}" for k, v in sorted(r["params"].items()))
    return f"{r['identity']} {params}"


def _record_text_line(r):
    if r["status"] == "timeout":
        return f"TIMEOUT {_record_case(r)}"
    status = "PASS" if r["equal"] else "FAIL"
    return f"{status} {_record_case(r)} | lhs={r['lhs']} rhs={r['rhs']}"


def _summary_line(records, wall_s):
    """PASS/FAIL/ERROR/TIMEOUT counts, total wall and the slowest case."""
    counts = dict.fromkeys(("PASS", "FAIL", "ERROR", "TIMEOUT"), 0)
    for r in records:
        if r["status"] != "ok":
            counts[r["status"].upper()] += 1
        else:
            counts["PASS" if r["equal"] else "FAIL"] += 1
    line = "summary: " + ", ".join(f"{c} {k}" for k, c in counts.items())
    line += f"; wall {wall_s:.3f} s"
    timed = [r for r in records if r["millis"] is not None]
    if timed:
        slow = max(timed, key=lambda r: r["millis"])
        line += f"; slowest {_record_case(slow)} ({slow['millis']} ms)"
    return line


def _emit(records, fmt, out):
    for r in records:
        if fmt == "json":
            payload = {k: r[k] for k in
                       ("identity", "params", "lhs", "rhs", "equal", "millis")}
            out.write(json.dumps(payload, sort_keys=True) + "\n")
        else:
            out.write(_record_text_line(r) + "\n")


# -- the ct subcommand ----------------------------------------------------------------

def _parse_int_vector(text):
    return tuple(int(v) for v in text.split(","))


def _ct_command(args, out):
    a = _parse_int_vector(args.a)
    v = _parse_int_vector(args.v)
    n = len(a)
    if len(v) != n:
        print(f"coefficient vector must have length {n}", file=sys.stderr)
        return 2
    if args.edges is not None and args.kernel != "tournament":
        print("--edges applies only to the tournament kernel", file=sys.stderr)
        return 2
    if args.kernel == "tournament":
        if not args.edges:
            print("tournament kernel needs --edges", file=sys.stderr)
            return 2
        kern = tournament_kernel(Tournament.parse(n, args.edges), a)
    else:  # the parser admits no other kernel family
        kern = {"dyson": dyson_kernel, "t": tkernel, "tzero": tzero_kernel,
                "bg-alternating": bg_alternating_kernel}[args.kernel](a)
    out.write(str(kern.coeff_x(v)) + "\n")
    return 0


# -- entry point -----------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="dysonct",
        description="exact constant-term identity verification")
    sub = parser.add_subparsers(dest="command")

    pv = sub.add_parser("verify", help="run an identity over a parameter grid")
    pv.add_argument("identity")
    pv.add_argument("--n", type=int, default=3)
    pv.add_argument("--a-max", type=int, default=2)
    pv.add_argument("--m-max", type=int, default=2)
    pv.add_argument("--sum-max", type=int, default=None,
                    help="skip tuples whose entries sum beyond this bound")
    pv.add_argument("--jobs", type=int, default=None)
    pv.add_argument("--format", choices=["text", "json"], default="text")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--budget-ms", type=int, default=None)

    pc = sub.add_parser("ct", help="print one kernel coefficient")
    pc.add_argument("kernel", help="a kernel_factors family",
                    choices=["dyson", "t", "tzero", "tournament",
                             "bg-alternating"])
    pc.add_argument("--a", required=True, help="comma-separated sequence")
    pc.add_argument("--v", required=True, help="comma-separated exponents")
    pc.add_argument("--edges", help="tournament edges, e.g. '1>2 2>3 1>3'")

    sub.add_parser("list", help="list known identities")
    return parser


def _env_jobs():
    """The job count in DYSONCT_JOBS (default 1)."""
    text = os.environ.get(JOBS_ENV, "1")
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(f"{JOBS_ENV} must be a positive integer, got {text!r}")
    return jobs


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    if args.command == "list":
        for name in sorted(REGISTRY):
            out.write(name + "\n")
        return 0
    if args.command == "ct":
        try:
            return _ct_command(args, out)
        except (ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.command == "verify":
        if args.identity not in REGISTRY:
            print(f"unknown identity {args.identity!r}; known identities:",
                  file=sys.stderr)
            for name in sorted(REGISTRY):
                print(f"  {name}", file=sys.stderr)
            return 2
        try:
            jobs = args.jobs if args.jobs is not None else _env_jobs()
            config = RunConfig(identity=args.identity, n=args.n,
                               a_max=args.a_max, m_max=args.m_max, jobs=jobs,
                               seed=args.seed, budget_ms=args.budget_ms,
                               sum_max=args.sum_max)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        start = time.perf_counter()
        code, records = run(config)
        _emit(records, args.format, out)
        print(_summary_line(records, time.perf_counter() - start),
              file=sys.stderr)
        return code
    parser.print_usage(sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
