import json
import multiprocessing
import os
import time

import pytest

import dysonct.cli as cli
import dysonct.identities as identities
from dysonct.cli import RunConfig, main, run
from dysonct.identities import VerifyReport


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
    def test_interp_dyson_builds_one_kernel_per_a(self, monkeypatch):
        config = RunConfig("interp-dyson", n=4, a_max=2, sum_max=7, seed=5)
        strip = lambda r: {k: v for k, v in r.items() if k != "millis"}
        builds = []
        builder = identities.tzero_kernel

        def counting(a, *args, **kwargs):
            builds.append(tuple(a))
            return builder(a, *args, **kwargs)

        identities.cached_kernel.cache_clear()
        monkeypatch.setattr(identities, "tzero_kernel", counting)
        try:
            code, cached = run(config)
        finally:
            identities.cached_kernel.cache_clear()
        distinct = {tuple(r["params"]["a"]) for r in cached}
        assert code == 0
        assert sorted(builds) == sorted(distinct)
        assert len(cached) == 30 * len(distinct)

        monkeypatch.setattr(identities, "cached_kernel",
                            lambda family, a: builder(a))
        _, uncached = run(config)
        assert [strip(r) for r in cached] == [strip(r) for r in uncached]


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
        def enum(cfg):
            return [{"case": i} for i in range(3)]

        def sleepy(p):
            time.sleep(5.0)
            return VerifyReport("sleepy", p, "1", "1", True, 0)

        monkeypatch.setitem(cli.REGISTRY, "sleepy", (enum, sleepy))
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
        def enum(cfg):
            return [{"sleep": 5.0}, {"sleep": 1.6}, {"sleep": 0.0}]

        def sleepy(p):
            time.sleep(p["sleep"])
            return VerifyReport("sleepy", p, "1", "1", True, 0)

        monkeypatch.setitem(cli.REGISTRY, "sleepy", (enum, sleepy))
        start = time.monotonic()
        code, records = run(RunConfig("sleepy", jobs=2, budget_ms=1000))
        assert time.monotonic() - start < 4
        assert code == 0
        assert [r["status"] for r in records] == ["timeout", "timeout", "ok"]


def _stub_runner(p):
    """Exits the worker, sleeps or reports the pid of its process."""
    if p.get("exit"):
        os._exit(3)
    time.sleep(p.get("sleep", 0.0))
    pid = str(os.getpid())
    return VerifyReport("stub", p, pid, pid, True, 0)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched runner reaches workers by fork")
class TestWorkers:
    @pytest.fixture
    def stub(self, monkeypatch):
        """Registers the grid "stub" with the given cases."""
        def register(cases):
            monkeypatch.setitem(cli.REGISTRY, "stub",
                                (lambda cfg: cases, _stub_runner))
        return register

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
    def test_worker_death_is_an_error(self, stub, budget_ms):
        stub([{"exit": i == 1} for i in range(4)])
        code, records = run(RunConfig("stub", jobs=2, budget_ms=budget_ms))
        assert code == 1
        assert [r["status"] for r in records] == ["ok", "error", "ok", "ok"]
        assert records[1]["params"] == {"exit": True}

    @pytest.mark.parametrize("case, budget_ms, status", [
        ({}, None, "ok"), ({"sleep": 5.0}, 200, "timeout"),
        ({"exit": True}, None, "error")])
    def test_no_worker_outlives_run(self, stub, case, budget_ms, status):
        stub([case, {}, {}])
        _, records = run(RunConfig("stub", jobs=2, budget_ms=budget_ms))
        assert [r["status"] for r in records] == [status, "ok", "ok"]
        assert multiprocessing.active_children() == []


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
        code = main(["ct", "tkernel", "--a", "1,1", "--v", "0,0"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1 + t[1,2]"

    def test_tkernel_qa_matches_dyson(self, capsys):
        main(["ct", "tkernel", "--a", "2,1", "--v", "0,0", "--t-mode", "qa"])
        got = capsys.readouterr().out.strip()
        main(["ct", "dyson", "--a", "2,1", "--v", "0,0"])
        assert capsys.readouterr().out.strip() == got

    def test_exponent_outside_packed_range(self, capsys):
        code = main(["ct", "dyson", "--a", "1,1", "--v", "4294967296,-1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_t_mode_rejected_outside_tkernel(self, capsys):
        for kernel, extra in [("dyson", []), ("alternating", []),
                              ("tournament", ["--edges", "1>2"])]:
            for mode in ("symbolic", "qa", "zero"):
                code = main(["ct", kernel, "--a", "1,1", "--v", "0,0",
                             "--t-mode", mode] + extra)
                captured = capsys.readouterr()
                assert code == 2
                assert captured.out == ""
                assert "--t-mode" in captured.err

    def test_bad_vector_length(self, capsys):
        code = main(["ct", "dyson", "--a", "1,1", "--v", "0,0,0"])
        assert code == 2

    def test_tournament_requires_edges(self, capsys):
        code = main(["ct", "tournament", "--a", "1,1", "--v", "0,0"])
        assert code == 2

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
