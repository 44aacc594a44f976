"""Batch verification harness.

``verify <identity>`` enumerates a parameter grid in lexicographic order,
runs the corresponding checker on every tuple and streams one report per
case, buffered so the output order never depends on scheduling.  With one
job and no budget the cases run in this process, otherwise on at most
--jobs reusable worker processes.  Under --budget-ms each case is timed
from when its worker receives it; a worker that overruns is killed, its
case reported as TIMEOUT, and replaced.  ``ct`` prints a single kernel
coefficient.  ``list`` names the known identities.

Exit status: 0 when every case agreed or timed out, 1 on any mismatch or
failed case, 2 on usage errors, which include a grid bound or budget out
of range (--n below 1, --a-max, --m-max or --sum-max below 0, --jobs or
DYSONCT_JOBS below 1, --budget-ms below 1).  After the reports, ``verify``
writes one summary line on stderr: the PASS, FAIL, ERROR and TIMEOUT
counts, the total wall time and the slowest case.

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
    Permutation, Tournament, ZeroOneMatrix, all_compositions, all_pairsets,
    all_zero_one_matrices, ell_stats, is_strict, reverse, sort_desc,
)
from .interp import (
    closed_eval, dyson_coeff_interpolated, sills_coeff_interpolated,
)
from .mpoly import (
    MPoly, dyson_kernel, table_x, tkernel, tournament_kernel,
    bg_alternating_kernel,
)
from .qpoly import IntPoly
from .symfun import key_poly, keyhat_poly, scalar_product, schur_principal

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


# -- per-identity enumerators and runners ------------------------------------------

def _apos(cfg):
    for a in itertools.product(range(1, cfg.a_max + 1), repeat=cfg.n):
        if cfg.sum_max is None or sum(a) <= cfg.sum_max:
            yield a


def _annn(cfg):
    for a in itertools.product(range(0, cfg.a_max + 1), repeat=cfg.n):
        if cfg.sum_max is None or sum(a) <= cfg.sum_max:
            yield a


def _enum_qdyson(cfg):
    return [{"a": list(a)} for a in _annn(cfg)]


def _run_qdyson(p):
    return ids.verify_qdyson(tuple(p["a"]))


def _enum_poincare(cfg):
    return [{"a": list(a)} for a in _apos(cfg)]


def _run_poincare(p):
    return ids.verify_poincare(tuple(p["a"]))


def _enum_poincare_equal(cfg):
    return [{"n": cfg.n, "k": k} for k in range(1, cfg.a_max + 1)]


def _run_poincare_equal(p):
    return ids.verify_equal_collapse(p["n"], p["k"])


def _enum_wtd(cfg):
    return [{"n": n} for n in range(1, cfg.n + 1)]


def _run_wtd(p):
    return ids.verify_wtd(p["n"])


def _enum_bg_general(cfg):
    out = []
    for a in _apos(cfg):
        for size in range(cfg.n + 1):
            for I in itertools.combinations(range(1, cfg.n + 1), size):
                out.append({"a": list(a), "I": list(I)})
    return out


def _run_bg_general(p):
    return ids.verify_bg_general(tuple(p["a"]), set(p["I"]))


def _enum_bg_alternating(cfg):
    return [{"a": list(a)} for a in _apos(cfg)]


def _run_bg_alternating(p):
    return ids.verify_bg_alternating(tuple(p["a"]))


def _enum_tournament(cfg):
    out = []
    for a in _apos(cfg):
        for S in sorted(all_pairsets(cfg.n), key=sorted):
            out.append({"a": list(a), "S": sorted(S)})
    return out


def _run_tournament(p):
    t = Tournament.from_pairset(frozenset(map(tuple, p["S"])), len(p["a"]))
    return ids.verify_tournament(t, tuple(p["a"]))


def _enum_kadell(cfg):
    out = []
    for a in _annn(cfg):
        for m in range(1, cfg.m_max + 1):
            for v in all_compositions(m, cfg.n):
                out.append({"a": list(a), "v": list(v)})
    return out


def _run_kadell(p):
    return ids.verify_kadell(tuple(p["v"]), tuple(p["a"]))


def _enum_kadell_t(cfg):
    out = []
    for a in _apos(cfg):
        for m in range(1, cfg.m_max + 1):
            for k in range(1, cfg.n + 1):
                out.append({"a": list(a), "m": m, "k": k})
    return out


def _run_kadell_t(p):
    return ids.verify_kadell_t(p["k"], p["m"], tuple(p["a"]))


def _enum_strict(cfg):
    out = []
    lams = [lam for lam in itertools.product(range(cfg.m_max + 1), repeat=cfg.n)
            if is_strict(lam)]
    for a in _apos(cfg):
        for lam in lams:
            for w in Permutation.all_perms(cfg.n):
                out.append({"a": list(a), "lam": list(lam),
                            "w": w.serialize()})
    return out


def _run_strict(p):
    return ids.verify_strict(tuple(p["lam"]), tuple(p["a"]),
                             Permutation.parse(p["w"]))


def _enum_usum(cfg):
    out = [{"n": n, "k": 0} for n in range(1, cfg.n + 1)]
    for n in range(1, cfg.n + 1):
        out += [{"n": n, "k": k} for k in range(1, n + 1)]
    return out


def _run_usum(p):
    if p["k"] == 0:
        return ids.verify_usum(p["n"])
    return ids.verify_usum_k(p["n"], p["k"])


def _enum_prop_kappa(cfg):
    out = []
    m = cfg.m_max
    for a in _apos(cfg):
        for kappa in all_zero_one_matrices(cfg.n, m):
            for lam, w in ids.solve_column_relation(kappa, m):
                out.append({"a": list(a), "kappa": kappa.serialize(),
                            "lam": list(lam), "w": w.serialize()})
    return out


def _run_prop_kappa(p):
    return ids.verify_prop_kappa(ZeroOneMatrix.parse(p["kappa"]),
                                 tuple(p["lam"]), Permutation.parse(p["w"]),
                                 tuple(p["a"]))


def _enum_prop_zero(cfg):
    out = []
    m = cfg.m_max
    for a in _apos(cfg):
        for kappa in all_zero_one_matrices(cfg.n, m):
            if kappa.is_left_justified():
                continue
            for lam, _ in ids.solve_column_relation(kappa, m):
                out.append({"a": list(a), "kappa": kappa.serialize(),
                            "lam": list(lam)})
    return out


def _run_prop_zero(p):
    return ids.verify_prop_zero(ZeroOneMatrix.parse(p["kappa"]),
                                tuple(p["lam"]), tuple(p["a"]))


def _enum_prop_vnu(cfg):
    out = []
    m = cfg.m_max
    for a in _apos(cfg):
        for v in itertools.product(range(m + 1), repeat=cfg.n):
            out.append({"a": list(a), "v": list(v), "m": m})
    return out


def _run_prop_vnu(p):
    return ids.verify_prop_vnu(tuple(p["v"]), tuple(p["a"]), p["m"])


def _enum_sills(cfg):
    out = []
    for a in _annn(cfg):
        for r, s in itertools.permutations(range(1, cfg.n + 1), 2):
            out.append({"a": list(a), "r": r, "s": s})
    return out


def _run_sills(p):
    return ids.verify_sills(tuple(p["a"]), p["r"], p["s"])


def _lxz_vs(n):
    """All v with |v| = 0, max(v) <= 1 and v_1 = 1, lexicographically."""
    out = []
    for tail in itertools.product(range(-n, 2), repeat=n - 1):
        v = (1,) + tail
        if sum(v) == 0 and max(v) <= 1:
            out.append(v)
    return out


def _enum_lxz(cfg):
    out = []
    for a in _annn(cfg):
        for v in _lxz_vs(cfg.n):
            out.append({"a": list(a), "v": list(v)})
    return out


def _run_lxz(p):
    return ids.verify_lxz(tuple(p["v"]), tuple(p["a"]))


def _enum_interp_dyson(cfg):
    out = []
    rng = random.Random(cfg.seed)
    all_s = sorted(all_pairsets(cfg.n), key=sorted)
    for a in _apos(cfg):
        if cfg.n <= 3:
            chosen = all_s
        else:
            chosen = sorted(rng.sample(all_s, min(30, len(all_s))), key=sorted)
        for S in chosen:
            out.append({"a": list(a), "S": sorted(S)})
    return out


def _run_interp_dyson(p):
    start = time.perf_counter()
    a = tuple(p["a"])
    S = frozenset(map(tuple, p["S"]))
    n = len(a)
    value, _, _ = dyson_coeff_interpolated(a, S)
    d_in, e_out, _, K = ell_stats(S, n)
    v = tuple(e - d for e, d in zip(e_out, d_in))
    brute = (ids.cached_kernel("tzero", a).coeff_x(v).to_intpoly()
             * ((-1) ** len(S)))
    lhs = str(value)
    if (K == n) != (not value.is_zero):
        lhs += " [K-dichotomy violated]"
    return ids._report("interp-dyson", dict(p), lhs, str(brute), start)


def _enum_interp_closed(cfg):
    out = []
    for a in _apos(cfg):
        for w in Permutation.all_perms(cfg.n):
            out.append({"a": list(a), "w": w.serialize()})
    return out


def _run_interp_closed(p):
    start = time.perf_counter()
    a = tuple(p["a"])
    w = Permutation.parse(p["w"])
    rhs = str(ids.c_w(a, w))
    try:
        lhs = str(closed_eval(a, w))
    except AssertionError as exc:
        lhs = f"error: {exc}"
    return ids._report("interp-closed", dict(p), lhs, rhs, start)


def _enum_interp_sills(cfg):
    out = []
    for a in _apos(cfg):
        for r in range(2, cfg.n + 1):
            out.append({"a": list(a), "r": r})
    return out


def _run_interp_sills(p):
    start = time.perf_counter()
    a = tuple(p["a"])
    try:
        value, _ = sills_coeff_interpolated(a, p["r"])
        lhs = str(value)
    except AssertionError as exc:
        lhs = f"error: {exc}"
    return ids._report("interp-sills", dict(p), lhs,
                       str(ids.rhs_sills(a, p["r"], 1)), start)


def _enum_scalar_kkhat(cfg):
    comps = list(itertools.product(range(cfg.a_max + 1), repeat=cfg.n))
    return [{"v": list(v), "w": list(w)} for v in comps for w in comps]


def _run_scalar_kkhat(p):
    start = time.perf_counter()
    v, w = tuple(p["v"]), tuple(p["w"])
    t = table_x(len(v))
    got = scalar_product(key_poly(v, t), keyhat_poly(w, t))
    want = IntPoly.const(1 if v == reverse(w) else 0)
    return ids._report("scalar-kkhat", dict(p), str(got), str(want), start)


def _enum_schur_monomial(cfg):
    out = []
    lams = [lam for lam in itertools.product(range(cfg.m_max + 1), repeat=cfg.n)
            if sort_desc(lam) == lam]
    for lam in lams:
        for v in all_compositions(sum(lam), cfg.n):
            out.append({"lam": list(lam), "v": list(v)})
    return out


def _run_schur_monomial(p):
    start = time.perf_counter()
    lam, v = tuple(p["lam"]), tuple(p["v"])
    n = len(lam)
    t = table_x(n)
    got = scalar_product(
        schur_principal(lam, (1,) * n, t),
        MPoly.monomial(t, {t.x_index(i + 1): e for i, e in enumerate(v) if e}))
    delta = tuple(range(n - 1, -1, -1))
    u = tuple(x + d for x, d in zip(v, delta))
    ref = tuple(x + d for x, d in zip(lam, delta))
    if sorted(u, reverse=True) == list(ref) and len(set(u)) == n:
        w = Permutation(tuple(ref.index(x) + 1 for x in u))
        want = IntPoly.const(w.sign())
    else:
        want = IntPoly()
    return ids._report("schur-monomial", dict(p), str(got), str(want), start)


def _enum_hook_content(cfg):
    from dysonct.combi import partitions_upto
    out = []
    for a in range(cfg.a_max + 1):
        for lam in partitions_upto(cfg.m_max, cfg.n):
            out.append({"lam": list(lam), "a": a})
    return out


def _run_hook_content(p):
    return ids.verify_hook_content(tuple(p["lam"]), p["a"])


REGISTRY = {
    "q-dyson": (_enum_qdyson, _run_qdyson),
    "poincare": (_enum_poincare, _run_poincare),
    "poincare-equal": (_enum_poincare_equal, _run_poincare_equal),
    "wtd": (_enum_wtd, _run_wtd),
    "bg-general": (_enum_bg_general, _run_bg_general),
    "bg-alternating": (_enum_bg_alternating, _run_bg_alternating),
    "tournament": (_enum_tournament, _run_tournament),
    "kadell": (_enum_kadell, _run_kadell),
    "kadell-t": (_enum_kadell_t, _run_kadell_t),
    "strict": (_enum_strict, _run_strict),
    "usum": (_enum_usum, _run_usum),
    "prop-kappa": (_enum_prop_kappa, _run_prop_kappa),
    "prop-zero": (_enum_prop_zero, _run_prop_zero),
    "prop-vnu": (_enum_prop_vnu, _run_prop_vnu),
    "sills": (_enum_sills, _run_sills),
    "lxz": (_enum_lxz, _run_lxz),
    "interp-dyson": (_enum_interp_dyson, _run_interp_dyson),
    "interp-closed": (_enum_interp_closed, _run_interp_closed),
    "interp-sills": (_enum_interp_sills, _run_interp_sills),
    "scalar-kkhat": (_enum_scalar_kkhat, _run_scalar_kkhat),
    "schur-monomial": (_enum_schur_monomial, _run_schur_monomial),
    "hook-content": (_enum_hook_content, _run_hook_content),
}


# -- execution ----------------------------------------------------------------------

def _record(identity, params, status, lhs="", rhs="", equal=None, millis=None):
    """One case's record; ``status`` is ``ok``, ``error`` or ``timeout``."""
    return {"identity": identity, "params": params, "lhs": lhs, "rhs": rhs,
            "equal": equal, "millis": millis, "status": status}


def _execute(identity, params):
    try:
        r = REGISTRY[identity][1](params)
    except Exception as exc:  # an internal assertion is a failed case
        return _record(identity, params, "error", f"error: {exc}", equal=False)
    return _record(r.identity, r.params, "ok", r.lhs, r.rhs, r.equal, r.millis)


def _worker(conn):
    for task in iter(conn.recv, None):
        conn.send(_execute(*task))


def _run_workers(tasks, jobs, budget_ms):
    """Run (identity, params) tasks on at most ``jobs`` worker processes,
    started as cases need them and reused.  Each result is read as soon as
    it arrives, so a large report cannot stall its worker.  With
    ``budget_ms``, a worker still busy ``budget_ms`` after it received its
    case is killed and the case recorded as ``timeout``; one that dies
    without a result leaves an ``error``.  A fresh worker replaces either.
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
                results[j] = _record(*tasks[j], status)
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
    # a JSON round trip, so that params hold lists, as the reports print them
    tasks = [(config.identity, json.loads(json.dumps(p)))
             for p in REGISTRY[config.identity][0](config)]
    if config.jobs > 1 or config.budget_ms:
        records = _run_workers(tasks, max(config.jobs, 1), config.budget_ms)
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
    if args.t_mode is not None and args.kernel != "tkernel":
        print("--t-mode applies only to the tkernel kernel", file=sys.stderr)
        return 2
    if args.kernel == "dyson":
        kern = dyson_kernel(a)
    elif args.kernel == "tkernel":
        kern = tkernel(a)
    elif args.kernel == "alternating":
        kern = bg_alternating_kernel(a)
    elif args.kernel == "tournament":
        if not args.edges:
            print("tournament kernel needs --edges", file=sys.stderr)
            return 2
        edges = set()
        for part in args.edges.replace(",", " ").split():
            i, j = part.split(">")
            edges.add((int(i), int(j)))
        kern = tournament_kernel(Tournament(n, edges), a)
    else:
        print(f"unknown kernel {args.kernel!r}", file=sys.stderr)
        return 2
    coeff = kern.coeff_x(v)
    # t carries no x, so substituting it commutes with the extraction
    if args.kernel == "tkernel" and args.t_mode == "qa":
        coeff = coeff.subst_t_qpowers({(i, j): a[j - 1] for i in range(1, n)
                                       for j in range(i + 1, n + 1)})
    elif args.kernel == "tkernel" and args.t_mode == "zero":
        coeff = coeff.subst_t_zero()
    out.write(str(coeff) + "\n")
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
    pc.add_argument("kernel",
                    choices=["dyson", "tkernel", "tournament", "alternating"])
    pc.add_argument("--a", required=True, help="comma-separated sequence")
    pc.add_argument("--v", required=True, help="comma-separated exponents")
    pc.add_argument("--t-mode", choices=["symbolic", "qa", "zero"],
                    help="t substitution of tkernel (default symbolic)")
    pc.add_argument("--edges", help="tournament edges, e.g. '1>2 2>3 1>3'")

    sub.add_parser("list", help="list known identities")
    return parser


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
        jobs, jobs_source = args.jobs, "--jobs"
        if jobs is None:
            jobs_source = JOBS_ENV
            try:
                jobs = int(os.environ.get(JOBS_ENV, "1"))
            except ValueError:
                print(f"{JOBS_ENV} must be an integer, got "
                      f"{os.environ[JOBS_ENV]!r}", file=sys.stderr)
                return 2
        for name, value, low in [
                ("--n", args.n, 1), ("--a-max", args.a_max, 0),
                ("--m-max", args.m_max, 0), ("--sum-max", args.sum_max, 0),
                (jobs_source, jobs, 1), ("--budget-ms", args.budget_ms, 1)]:
            if value is not None and value < low:
                print(f"{name} must be at least {low}, got {value}",
                      file=sys.stderr)
                return 2
        config = RunConfig(identity=args.identity, n=args.n, a_max=args.a_max,
                           m_max=args.m_max, jobs=jobs, seed=args.seed,
                           budget_ms=args.budget_ms, sum_max=args.sum_max)
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
