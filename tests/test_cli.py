import hashlib
import itertools
import json
import multiprocessing
import os
import time

import pytest

import dysonct.cli as cli
import dysonct.identities as identities
from dysonct.cli import RunConfig, main, run
from dysonct.mpoly import tkernel
from dysonct.qpoly import IntPoly
from reference import subst_t_qpowers, subst_t_zero


def _register(monkeypatch, name, cases, checker):
    """Adds the grid ``name`` of the given params, checked by ``checker``."""
    monkeypatch.setitem(cli.REGISTRY, name,
                        lambda cfg: [(name, p) for p in cases])
    monkeypatch.setattr(identities, "verify_" + name, checker, raising=False)


class TestVerifyCommand:
    def test_small_grid_passes(self, capsys):
        code = main(["verify", "q-dyson", "--n", "2", "--a-max", "2"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 9  # {0,1,2}^2
        assert all(line.startswith("PASS q-dyson") for line in lines)
        assert "millis" not in out

    def test_unknown_identity_exits_2(self, capsys):
        code = main(["verify", "no-such-identity"])
        err = capsys.readouterr().err
        assert code == 2
        assert "q-dyson" in err  # the list of known identities is printed

    def test_json_schema(self, capsys):
        code = main(["verify", "q-dyson", "--n", "2", "--a-max", "1",
                     "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        for line in out.strip().splitlines():
            record = json.loads(line)
            assert set(record) == {"identity", "params", "lhs", "rhs",
                                   "equal", "millis"}
            assert record["equal"] is True

    def test_kadell_grid_contains_zero_cases(self, capsys):
        code = main(["verify", "kadell", "--n", "2", "--m-max", "2",
                     "--a-max", "2"])
        out = capsys.readouterr().out
        assert code == 0
        # compositions with v+ != (m) are part of the grid
        assert "v=[1, 1]" in out

    def test_sum_max_filter(self):
        code, records = run(RunConfig("q-dyson", n=3, a_max=2, sum_max=2))
        assert code == 0
        assert all(sum(r["params"]["a"]) <= 2 for r in records)

    def test_lexicographic_order(self):
        _, records = run(RunConfig("q-dyson", n=2, a_max=2))
        seen = [tuple(r["params"]["a"]) for r in records]
        assert seen == sorted(seen)


class TestUsageErrors:
    @pytest.mark.parametrize("flags", [
        ["--n", "-1"], ["--n", "0"], ["--a-max", "-1"], ["--m-max", "-1"],
        ["--sum-max", "-3"], ["--jobs", "-2"], ["--jobs", "0"],
        ["--budget-ms", "-5"], ["--budget-ms", "0"],
    ])
    def test_out_of_range_flag_exits_2(self, flags, capsys):
        code = main(["verify", "q-dyson"] + flags)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert flags[0] in captured.err

    @pytest.mark.parametrize("value", ["abc", "0", "-1"])
    def test_bad_jobs_environment_exits_2(self, value, monkeypatch, capsys):
        monkeypatch.setenv(cli.JOBS_ENV, value)
        code = main(["verify", "q-dyson", "--n", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert cli.JOBS_ENV in captured.err

    @pytest.mark.parametrize("field, value, flag", [
        ("n", -1, "--n"), ("n", 0, "--n"), ("a_max", -1, "--a-max"),
        ("m_max", -1, "--m-max"), ("sum_max", -3, "--sum-max"),
        ("jobs", -2, "--jobs"), ("jobs", 0, "--jobs"),
        ("budget_ms", -1, "--budget-ms"), ("budget_ms", 0, "--budget-ms"),
    ])
    def test_run_rejects_out_of_range_config(self, field, value, flag):
        with pytest.raises(ValueError, match=f"^{flag} must be at least"):
            run(RunConfig("q-dyson", **{"n": 2, "a_max": 1, field: value}))

    def test_prop_kappa_without_columns_passes(self):
        # m = 0: every case has the empty column permutation w = ""
        code, records = run(RunConfig("prop-kappa", n=2, m_max=0))
        assert code == 0
        assert len(records) == 4
        assert all(r["status"] == "ok" and r["equal"] for r in records)

    def test_zero_bounds_are_valid(self, capsys):
        code = main(["verify", "q-dyson", "--n", "1", "--a-max", "0",
                     "--m-max", "0", "--sum-max", "0", "--jobs", "1",
                     "--budget-ms", "60000"])
        assert code == 0
        assert capsys.readouterr().out == "PASS q-dyson a=[0] | lhs=1 rhs=1\n"


class TestSummary:
    def test_summary_line_on_stderr(self, capsys):
        code = main(["verify", "q-dyson", "--n", "2", "--a-max", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert len(captured.out.splitlines()) == 9
        assert "summary" not in captured.out
        (line,) = captured.err.splitlines()
        assert line.startswith("summary: 9 PASS, 0 FAIL, 0 ERROR, 0 TIMEOUT; "
                               "wall ")
        assert "; slowest q-dyson a=[" in line and line.endswith(" ms)")

    def test_summary_counts_each_status(self):
        records = [
            {"identity": "x", "params": {"a": 1}, "equal": True,
             "millis": 3, "status": "ok"},
            {"identity": "x", "params": {"a": 2}, "equal": False,
             "millis": 7, "status": "ok"},
            {"identity": "x", "params": {"a": 3}, "equal": False,
             "millis": None, "status": "error"},
            {"identity": "x", "params": {"a": 4}, "equal": None,
             "millis": None, "status": "timeout"},
        ]
        assert cli._summary_line(records, 1.5) == (
            "summary: 1 PASS, 1 FAIL, 1 ERROR, 1 TIMEOUT; wall 1.500 s; "
            "slowest x a=2 (7 ms)")
        assert cli._summary_line(records[3:], 0.25) == (
            "summary: 0 PASS, 0 FAIL, 0 ERROR, 1 TIMEOUT; wall 0.250 s")


class TestKernelCache:
    @staticmethod
    def _count_builds(monkeypatch, name):
        """Installs a counting wrapper over the builder ``name`` of
        ``identities``, as a tracer would; returns the list it appends to."""
        builds = []
        builder = getattr(identities, name)

        def counting(a, *args, **kwargs):
            builds.append(tuple(a))
            return builder(a, *args, **kwargs)

        monkeypatch.setattr(identities, name, counting)
        return builds

    def test_interp_dyson_builds_one_kernel_per_a(self, monkeypatch):
        config = RunConfig("interp-dyson", n=4, a_max=2, sum_max=7, seed=5)
        strip = lambda r: {k: v for k, v in r.items() if k != "millis"}
        identities.cached_kernel.cache_clear()
        builds = self._count_builds(monkeypatch, "tzero_kernel")
        try:
            code, cached = run(config)
        finally:
            identities.cached_kernel.cache_clear()
        distinct = {tuple(r["params"]["a"]) for r in cached}
        assert code == 0
        # the wrapper over the builder's name sees every real build
        assert sorted(builds) == sorted(distinct)
        assert len(cached) == 30 * len(distinct)

        monkeypatch.setattr(identities, "cached_kernel",
                            lambda build, *args: build(*args))
        _, uncached = run(config)
        assert [strip(r) for r in cached] == [strip(r) for r in uncached]
        assert len(builds) == len(distinct) + len(uncached)

    def test_prop_kappa_keeps_at_most_four_tau_kernels(self, monkeypatch):
        identities.cached_kernel.cache_clear()
        builds = self._count_builds(monkeypatch, "tau_kernel")
        try:
            code, records = run(RunConfig("prop-kappa", n=2, a_max=3, m_max=2))
            info = identities.cached_kernel.cache_info()
        finally:
            identities.cached_kernel.cache_clear()
        distinct = {tuple(r["params"]["a"]) for r in records}
        assert code == 0
        # the enumerator puts a outermost, so each a's kernel is built once
        assert info.misses == len(distinct) == len(builds) == 9
        assert sorted(builds) == sorted(distinct)
        assert info.currsize <= 4

    def test_the_cache_keys_on_the_builder_and_its_arguments(self):
        identities.cached_kernel.cache_clear()
        try:
            dyson = identities.cached_kernel(identities.dyson_kernel, (1, 2))
            assert identities.cached_kernel(identities.dyson_kernel,
                                            (1, 2)) is dyson
            tzero = identities.cached_kernel(identities.tzero_kernel, (1, 2))
            assert tzero is not dyson
            assert str(tzero.ct_x()) != str(dyson.ct_x())
            tau = identities.cached_kernel(identities.tau_kernel, (1, 2), 1)
            assert tau.table.nx == 3
            assert identities.cached_kernel.cache_info().misses == 3
        finally:
            identities.cached_kernel.cache_clear()


class TestParallelism:
    def test_results_independent_of_jobs(self):
        code1, seq = run(RunConfig("q-dyson", n=2, a_max=2, jobs=1))
        code4, par = run(RunConfig("q-dyson", n=2, a_max=2, jobs=4))
        assert code1 == code4 == 0
        strip = lambda r: {k: v for k, v in r.items() if k != "millis"}
        assert [strip(r) for r in seq] == [strip(r) for r in par]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched runner reaches workers by fork")
    def test_budget_timeout_status(self, monkeypatch):
        # every case needs far more than its budget; a real grid cannot
        # promise that for a 1 ms budget (poincare a=(1,1,1) takes about 1 ms)
        def sleepy(case):
            time.sleep(5.0)
            return "1", "1"

        _register(monkeypatch, "sleepy", [{"case": i} for i in range(3)],
                  sleepy)
        code, records = run(RunConfig("sleepy", budget_ms=1))
        assert code == 0  # timeouts are not mismatches
        assert [r["status"] for r in records] == ["timeout"] * 3

    def test_budget_large_enough_completes(self):
        code, records = run(RunConfig("q-dyson", n=2, a_max=1,
                                      budget_ms=60000))
        assert code == 0
        assert all(r["status"] == "ok" for r in records)

    def test_budget_large_reports_are_not_timeouts(self):
        # usum n = 4 reports reach 80 KB, more than a pipe buffer holds
        start = time.monotonic()
        code, records = run(RunConfig("usum", n=4, jobs=2, budget_ms=2000))
        assert code == 0
        assert len(records) == 14
        assert all(r["status"] == "ok" and r["equal"] for r in records)
        assert time.monotonic() - start < 10

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched runner reaches workers by fork")
    def test_budget_each_case_timed_from_its_own_start(self, monkeypatch):
        # the second case overruns its own budget but would finish within
        # a budget started when the first case's wait ends
        def sleepy(sleep):
            time.sleep(sleep)
            return "1", "1"

        _register(monkeypatch, "sleepy",
                  [{"sleep": 5.0}, {"sleep": 1.6}, {"sleep": 0.0}], sleepy)
        start = time.monotonic()
        code, records = run(RunConfig("sleepy", jobs=2, budget_ms=1000))
        assert time.monotonic() - start < 4
        assert code == 0
        assert [r["status"] for r in records] == ["timeout", "timeout", "ok"]


def _verify_stub(case=None, exit=False, sleep=0.0):
    """Exits the worker, sleeps or reports the pid of its process."""
    if exit:
        os._exit(3)
    time.sleep(sleep)
    pid = str(os.getpid())
    return pid, pid


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched runner reaches workers by fork")
class TestWorkers:
    @pytest.fixture
    def stub(self, monkeypatch):
        """Registers the grid "stub" with the given cases."""
        return lambda cases: _register(monkeypatch, "stub", cases,
                                       _verify_stub)

    @pytest.mark.parametrize("budget_ms", [None, 60000])
    def test_workers_are_reused(self, stub, budget_ms):
        stub([{"case": i} for i in range(6)])
        code, records = run(RunConfig("stub", jobs=2, budget_ms=budget_ms))
        pids = {r["lhs"] for r in records}
        assert code == 0
        assert [r["status"] for r in records] == ["ok"] * 6
        assert len(pids) <= 2 and str(os.getpid()) not in pids

    def test_no_more_workers_than_cases(self, stub, monkeypatch):
        started = []
        start = multiprocessing.process.BaseProcess.start

        def counting(proc):
            started.append(proc)
            start(proc)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            counting)
        stub([{"case": 0}, {"case": 1}])
        code, _ = run(RunConfig("stub", jobs=4))
        assert code == 0
        assert len(started) <= 2

    @pytest.mark.parametrize("budget_ms", [None, 60000])
    def test_worker_death_is_an_error(self, stub, budget_ms, capsys):
        stub([{"exit": i == 1} for i in range(4)])
        code, records = run(RunConfig("stub", jobs=2, budget_ms=budget_ms))
        assert code == 1
        assert [r["status"] for r in records] == ["ok", "error", "ok", "ok"]
        assert records[1]["params"] == {"exit": True}
        assert records[1]["equal"] is False
        budget = ["--budget-ms", str(budget_ms)] if budget_ms else []
        assert main(["verify", "stub", "--jobs", "2"] + budget) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == ("FAIL stub exit=True | "
                            "lhs=error: worker exited with code 3 rhs=")

    @pytest.mark.parametrize("case, budget_ms, status", [
        ({}, None, "ok"), ({"sleep": 5.0}, 200, "timeout"),
        ({"exit": True}, None, "error")])
    def test_no_worker_outlives_run(self, stub, case, budget_ms, status):
        stub([case, {}, {}])
        _, records = run(RunConfig("stub", jobs=2, budget_ms=budget_ms))
        assert [r["status"] for r in records] == [status, "ok", "ok"]
        assert multiprocessing.active_children() == []


# sha256 of the text report of each identity's default grid (--n 3 --a-max 2
# --m-max 2) with its exit code, so that the reports stay byte-identical
DEFAULT_GRID_DIGESTS = {
    "bg-alternating": (0, "007bb038c2643818c03e740c8d18ecd6db0677d16f76f80e90681208acd70764"),
    "bg-general": (0, "f71220c6753f6813111b4554d261e3a81a27a3fc8123a94678aae8eac11abd3a"),
    "hook-content": (0, "11d8b370c2457a88deb8418f7bfdd1bf4bf97121e3d74d2c3cf353caef8f9cf2"),
    "interp-closed": (0, "2669280eb5ae304c96e3249be1e86c95c9856502dfb5729a38b0b13042a64d39"),
    "interp-dyson": (0, "d70ecaf8501362b52107c34ae4b6884272bbf01f9fafa385ba3fa30f07eb26f7"),
    "interp-sills": (0, "7a1fe4514aafd8f210472d9a91d9a20a7424db1e5025c5192a5b68a7c678a516"),
    "kadell": (0, "ab8e7ed814fa4f2caadba0b8ff1a3348c708960e5c1fde4fa9baff877cf21609"),
    "kadell-t": (0, "e9b5fd714fddbd9c4a7ac7480e0487fad323867bc0f096ede85dcc41fc91ba02"),
    "lxz": (0, "6a7b6d9a65f63ca26c9ff9c978c6e417ea721d5e9ac581a61443b69602db3f08"),
    "poincare": (0, "a54978c114b582c80fa6d7ea0f7ec701fd25c5dfe99c0de064fd432195c48274"),
    "poincare-equal": (0, "f3b633d36908544b537835068b22553fb02012e32e8275ae971eafe16d65f228"),
    "prop-kappa": (0, "0da4854e576ff683a4ccd149e29d441bb1d805624d90cdb5aa851fa8ea49f300"),
    "prop-vnu": (0, "91e7efb709839718fc551c2ce9a52df9422d180003ad26f038b1e2f66a27c2d0"),
    "prop-zero": (0, "593bdb8cac064ef27fe527551dfe6a70c6a89509dbed736d8947b73e013146a3"),
    "q-dyson": (0, "7e619ba69bd3ae1035e508692065ad8717f5413920960313365bfb5d08280bcc"),
    "scalar-kkhat": (0, "3de9c079d141cc9530731cbfc4d20ffa18e406f6c45fab11da211cd57c16d45f"),
    "schur-monomial": (0, "9a783bc344cbb6ee2dda569a765e81c4eb0b02a08b17adb1f667fc7359cfd28d"),
    "sills": (0, "ab298e7c7d110a60da0b8547fd49dd847c85c8997c5cc50583bb82444f90a427"),
    "strict": (0, "21485813624621e5a1a08f97f79748ca18fd2da962b3aff2b50fb6560ffbd259"),
    "tournament": (0, "904a9ee4e97c53905214c13faabb03c74e8a3c66c53a2ddc5390e43644e0241d"),
    "usum": (0, "b93d7a2e7eb800587933c9b76c52f75432ac8655e834115455b31ff2f0ec96b6"),
    "wtd": (0, "1caf412d869f645d5820eaaeecb8d580838b7dd305055cad5e2890d822c99951"),
}


@pytest.mark.parametrize("identity", sorted(cli.REGISTRY))
def test_default_grid_report_is_pinned(identity, capsys):
    code = main(["verify", identity])
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == DEFAULT_GRID_DIGESTS[identity]


class TestFailedCases:
    @pytest.mark.parametrize("grid, identity, first", [
        ("tournament", "tournament", "tournament a=[1, 1] edges=1>2"),
        ("usum", "usum-k", "usum-k k=1 n=2"),
    ])
    def test_failed_case_keeps_its_case_text(self, grid, identity, first,
                                             monkeypatch, capsys):
        argv = ["verify", grid, "--n", "2", "--a-max", "1"]
        assert main(argv) == 0
        passing = capsys.readouterr().out.splitlines()

        def broken(**params):
            raise AssertionError("broken checker")

        monkeypatch.setattr(identities,
                            "verify_" + identity.replace("-", "_"), broken)
        assert main(argv) == 1
        captured = capsys.readouterr()
        failing = captured.out.splitlines()
        assert f"FAIL {first} | lhs=error: broken checker rhs=" in failing
        errors = 0
        for good, bad in zip(passing, failing, strict=True):
            case = good[len("PASS "):good.index(" | ")]
            if case.startswith(identity + " "):
                errors += 1
                assert bad == f"FAIL {case} | lhs=error: broken checker rhs="
            else:
                assert bad == good
        assert f" 0 FAIL, {errors} ERROR, " in captured.err


class TestRenderOnce:
    """Checkers render equal sides once; a mismatch must still show."""

    @pytest.mark.parametrize("name, config, identity, perturb", [
        ("rhs_qdyson", RunConfig("q-dyson", n=2, a_max=1), "q-dyson",
         lambda rhs: rhs + IntPoly.const(1)),
        ("usum_cleared_sides", RunConfig("usum", n=2), "usum",
         lambda sides: (sides[0], sides[1] + 1)),
        ("rhs_kadell_t", RunConfig("kadell-t", n=2, a_max=1, m_max=1),
         "kadell-t", lambda rhs: rhs * 2),
    ])
    def test_perturbed_side_is_a_mismatch(self, name, config, identity,
                                          perturb, monkeypatch):
        code, passing = run(config)
        assert code == 0
        assert all(r["lhs"] is r["rhs"] for r in passing)
        original = getattr(identities, name)
        monkeypatch.setattr(identities, name,
                            lambda *args: perturb(original(*args)))
        code, failing = run(config)
        assert code == 1
        hit = 0
        for good, bad in zip(passing, failing, strict=True):
            if bad["identity"] != identity:
                assert bad == dict(good, millis=bad["millis"])
                continue
            hit += 1
            assert bad["status"] == "ok" and bad["equal"] is False
            assert bad["lhs"] == good["lhs"]
            assert bad["rhs"] not in (good["rhs"], bad["lhs"])
        assert hit

    def test_pooled_records_share_the_text(self):
        code, records = run(RunConfig("usum", n=3, jobs=2))
        assert code == 0
        assert all(r["equal"] and r["lhs"] is r["rhs"] for r in records)


class TestCtCommand:
    def test_dyson_constant_term(self, capsys):
        code = main(["ct", "dyson", "--a", "1,1", "--v", "0,0"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1 + q"

    def test_out_of_support(self, capsys):
        code = main(["ct", "dyson", "--a", "1,1", "--v", "5,-5"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_tkernel_symbolic(self, capsys):
        code = main(["ct", "t", "--a", "1,1", "--v", "0,0"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1 + t[1,2]"

    def test_tkernel_qa_matches_dyson(self, capsys):
        # ct dyson and ct tzero are ct t at t[i,j] = q^{a_j} and at t = 0
        cases = 0
        for n in (1, 2, 3):
            for a in itertools.product((1, 2), repeat=n):
                powers = {(i, j): a[j - 1] for i in range(1, n)
                          for j in range(i + 1, n + 1)}
                for v in itertools.product((-1, 0, 1), repeat=n):
                    if sum(v):
                        continue
                    args = ["--a=" + ",".join(map(str, a)),
                            "--v=" + ",".join(map(str, v))]
                    texts = {}
                    for family in ("t", "dyson", "tzero"):
                        assert main(["ct", family] + args) == 0
                        texts[family] = capsys.readouterr().out
                    coeff = tkernel(a).coeff_x(v)
                    assert texts["t"] == f"{coeff}\n"
                    assert texts["dyson"] == f"{subst_t_qpowers(coeff, powers)}\n"
                    assert texts["tzero"] == f"{subst_t_zero(coeff)}\n"
                    cases += 1
        assert cases == 2 + 4 * 3 + 8 * 7

    def test_dyson_accepts_a_zero_part(self, capsys):
        assert main(["ct", "dyson", "--a", "0,1", "--v", "0,0"]) == 0
        assert capsys.readouterr().out == "1\n"
        for family in ("t", "tzero", "bg-alternating"):
            assert main(["ct", family, "--a", "0,1", "--v", "0,0"]) == 2
            assert "positive a" in capsys.readouterr().err

    def test_exponent_outside_packed_range(self, capsys):
        code = main(["ct", "dyson", "--a", "1,1", "--v", "4294967296,-1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_edges_rejected_outside_tournament(self, capsys):
        for kernel in ("dyson", "t", "tzero", "bg-alternating"):
            code = main(["ct", kernel, "--a", "1,1", "--v", "0,0",
                         "--edges", "1>2"])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert "--edges" in captured.err

    def test_bad_vector_length(self, capsys):
        code = main(["ct", "dyson", "--a", "1,1", "--v", "0,0,0"])
        assert code == 2

    def test_tournament_requires_edges(self, capsys):
        code = main(["ct", "tournament", "--a", "1,1", "--v", "0,0"])
        assert code == 2

    def test_tournament_rejects_a_repeated_edge(self, capsys):
        code = main(["ct", "tournament", "--a", "1,1", "--v", "0,0",
                     "--edges", "1>2 1>2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: repeated edge 1>2\n"

    def test_tournament_cycle_gives_zero(self, capsys):
        code = main(["ct", "tournament", "--a", "1,1,1", "--v", "0,0,0",
                     "--edges", "1>2 2>3 3>1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0"


class TestJobsEnvironment:
    def test_env_default_and_flag_override(self, monkeypatch, capsys):
        calls = []
        import dysonct.cli as cli

        def spy(config):
            calls.append(config.jobs)
            return 0, []

        monkeypatch.setattr(cli, "run", spy)
        monkeypatch.setenv(cli.JOBS_ENV, "3")
        main(["verify", "q-dyson", "--n", "2", "--a-max", "0"])
        main(["verify", "q-dyson", "--n", "2", "--a-max", "0", "--jobs", "2"])
        assert calls == [3, 2]


class TestListCommand:
    def test_lists_identities(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("q-dyson", "poincare", "kadell", "sills", "usum"):
            assert name in out
