"""Tests of the benchmark's checker, failure accounting and tracer.

    python3 -m pytest bench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
from dysonct import cli, identities, interp, mpoly  # noqa: E402

SMALL_CONFIGS = [
    {"identity": "q-dyson", "n": 3, "a_max": 3, "sum_max": 4},
    {"identity": "sills", "n": 3, "a_max": 1, "sum_max": 8},
    {"identity": "lxz", "n": 3, "a_max": 1, "sum_max": 8},
    {"identity": "interp-dyson", "n": 4, "a_max": 1, "seed": 5},
    {"identity": "interp-closed", "n": 3, "a_max": 1},
    {"identity": "interp-sills", "n": 3, "a_max": 2},
    {"identity": "poincare", "n": 3, "a_max": 1},
    {"identity": "kadell-t", "n": 2, "a_max": 2, "m_max": 2},
    {"identity": "usum", "n": 3},
]


def _records(config):
    code, records = cli.run(cli.RunConfig(**config))
    assert code == 0
    return records


def _first(identity, config, pick=lambda r: True):
    return next(r for r in _records(config) if r["identity"] == identity and pick(r))


def _rejected(record):
    with pytest.raises(checks.CheckError):
        checks.check_record(record)


@pytest.mark.parametrize("config", SMALL_CONFIGS, ids=lambda c: c["identity"])
def test_program_outputs_pass_and_grid_sizes_match(config):
    records = _records(config)
    assert len(records) == checks.expected_case_count(config)
    for record in records:
        checks.check_record(record)


def test_checker_rejects_one_changed_coefficient():
    record = _first("q-dyson", {"identity": "q-dyson", "n": 3, "a_max": 2},
                    lambda r: r["params"]["a"] == [2, 1, 1])
    poly = checks.q_poly(record["lhs"])
    checks.check_record(record)
    for bumped in ({**poly, 1: poly[1] + 1},
                   # same value at q = 1: only the full comparison sees it
                   {**poly, 1: poly[1] + 1, 2: poly[2] - 1}):
        text = " + ".join(f"{c}*q^{e}" for e, c in sorted(bumped.items()))
        _rejected(dict(record, lhs=text, rhs=text))


def test_checker_rejects_wrong_value_at_q_equal_1():
    sills = _first("sills", {"identity": "sills", "n": 3, "a_max": 1},
                   lambda r: r["lhs"] != "0")
    _rejected(dict(sills, lhs="0", rhs="0"))
    doubled = checks.parse_terms(sills["lhs"])
    text = " + ".join(f"{2 * c}*q^{e.get('q', 0)}" for c, e in doubled)
    _rejected(dict(sills, lhs=text, rhs=text))
    usum = _first("usum-k", {"identity": "usum", "n": 2})
    _rejected(dict(usum, lhs=usum["lhs"] + " + u[1]", rhs=usum["rhs"] + " + u[1]"))
    poincare = _first("poincare", {"identity": "poincare", "n": 3, "a_max": 1})
    coeffs = json.loads(poincare["lhs"])
    coeffs["t[1,2]^9"] = "1"
    text = json.dumps(coeffs, sort_keys=True)
    _rejected(dict(poincare, lhs=text, rhs=text))


def test_checker_rejects_disagreeing_sides():
    record = _first("lxz", {"identity": "lxz", "n": 3, "a_max": 1})
    _rejected(dict(record, equal=False))
    _rejected(dict(record, rhs=record["rhs"] + " + q^9"))


def test_timeout_and_error_records_count_as_failed():
    config = {"identity": "usum", "n": 4, "jobs": 2, "budget_ms": 2000}
    records = _records({"identity": "usum", "n": 4})
    # a budget-mode timeout record names the grid's identity, not usum-k
    timeout = dict(records[-1], identity="usum", lhs="", rhs="", equal=None,
                   status="timeout")
    error = dict(records[0], lhs="error: boom", rhs="", equal=False, status="error")

    tally = bench.Tally()
    tally.add(config, 0, records[:-1] + [timeout])
    assert (tally.attempted, tally.failed, tally.correct) == (14, 1, True)

    tally = bench.Tally()
    tally.add(config, 0, [error] + records[1:])
    assert (tally.attempted, tally.failed, tally.correct) == (14, 1, False)

    small = {"identity": "usum", "n": 3, "jobs": 2, "budget_ms": 2000}
    tally = bench.Tally()
    small_records = _records({"identity": "usum", "n": 3})
    tally.add(small, 0, small_records[:-1] + [dict(timeout, params=small_records[-1]["params"])])
    assert (tally.failed, tally.correct) == (1, False)


def test_missing_cases_fail_the_run():
    config = {"identity": "sills", "n": 3, "a_max": 1}
    tally = bench.Tally()
    tally.add(config, 0, _records(config)[1:])
    assert not tally.correct


def test_wrapping_leaves_results_unchanged():
    def strip(records):
        return [json.dumps({k: v for k, v in r.items() if k != "millis"},
                           sort_keys=True) for r in records]

    originals = (interp.c_w, identities.dyson_kernel, mpoly.MPoly.__mul__, cli.run)
    plain = [strip(_records(c)) for c in SMALL_CONFIGS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert interp.c_w is not originals[0]
        traced = [strip(_records(c)) for c in SMALL_CONFIGS]
        metrics = tracer.layer_metrics()
    finally:
        tracer.restore()
    assert traced == plain
    assert (interp.c_w, identities.dyson_kernel, mpoly.MPoly.__mul__,
            cli.run) == originals
    assert metrics["mpoly.kernel_calls"] > 0
    assert metrics["interp.points_scanned"] > 0
    assert metrics["qpoly.qrat_calls"] > 0
    assert metrics["cli.report_bytes"] > 0


def test_checks_module_never_imports_dysonct():
    code = ("import sys, checks; "
            "sys.exit(any(m.startswith('dysonct') for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], cwd=HERE).returncode == 0
