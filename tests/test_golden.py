"""The benchmark's recorded outputs, checked in process: every
represent_audit catalog job and every cli_roundtrip invocation is run
through ``bench/workloads.py``'s own prepare, run, record and check and
compared with ``bench/golden.json``.  A change that moves a digit, a
verdict, a JSON byte or an exit code fails here, not only in the timed
benchmark runs, which sample the jobs in seed order.  The CLI inputs are
written to the ignored ``bench/.work/``."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import oracles
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    assert workloads.GOLDEN, "bench/golden.json is missing"
    return oracles, workloads


def _mismatches(wl, specs, run):
    bad = []
    for spec in specs:
        prepared = wl.prepare(spec)
        ok, _ = wl.check(spec, wl.record(spec, prepared, run(prepared)))
        if not ok:
            bad.append(spec.get("name", spec.get("id")))
    return bad


def test_represent_audit_matches_golden(bench):
    oracles, workloads = bench
    wl = workloads.RepresentAudit()
    jobs = wl.generate(0)
    assert oracles.digest(jobs) == workloads.GOLDEN[wl.name]["catalog"]
    assert len(jobs) == len(workloads.GOLDEN[wl.name]["jobs"])
    assert _mismatches(wl, jobs, wl.run) == []


def test_cli_roundtrip_matches_golden(bench):
    _, workloads = bench
    wl = workloads.CliRoundtrip()
    specs = wl.generate(0)
    assert {s["name"] for s in specs} == set(workloads.GOLDEN[wl.name])
    assert _mismatches(wl, specs, wl.run_in_process) == []
    assert wl.enclosure_only_diffs == 0
