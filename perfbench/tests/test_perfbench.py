"""Self-tests of the benchmark at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import qschur  # noqa: E402
from qschur.cli import main as cli_main  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
from checks import check_cold, check_decompose, check_wronskian, fibonacci  # noqa: E402
from jobs import (  # noqa: E402
    ROUNDS,
    WARM_TABLE_INDEX,
    Job,
    finite_degree,
    job_stream,
    schur_degree,
    terms,
    BASES,
    MAX_SLICES,
    placement,
)


def take(workload: str, seed: int, n: int = 60) -> list[Job]:
    return list(itertools.islice(job_stream(workload, seed), n))


def cli(capsys, *args: str) -> tuple[int, str, str]:
    code = cli_main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- job lists ---------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(ROUNDS))
def test_same_seed_gives_identical_job_list(workload):
    assert take(workload, 7) == take(workload, 7)
    assert take(workload, 7) != take(workload, 8)


FIRST_ROUND_TOPS = {
    "verify-cold": (9, [Job("verify", (("m_max", 14), ("order", 160)))]),
    "tables-cold": (12, [Job("schur-poly", (("kind", "D"), ("index", 210))),
                         Job("schur-poly", (("kind", "E"), ("index", 210))),
                         Job("determinant", (("n", 150), ("m", 8)))]),
    "products-warm": (13, [Job("wronskian", (("m", 70),))] + [
        Job("decompose", (("n", 140), ("m", m))) for m in (20, 30, 40)
    ]),
}


@pytest.mark.parametrize("workload", sorted(ROUNDS))
def test_first_round_reaches_the_top_of_every_range(workload):
    size, tops = FIRST_ROUND_TOPS[workload]
    for seed in range(5):
        first = take(workload, seed, size)
        assert all(job in first for job in tops)


def test_rounds_fill_every_slice_evenly_for_any_seed():
    for seed in range(5):
        place = placement(random.Random(seed))
        for param, base in enumerate(BASES):
            for k in range(MAX_SLICES):
                points = sorted(place(index, param, k) for index in range(base**2))
                gaps = [b - a for a, b in zip(points, points[1:])]
                assert max(gaps) == pytest.approx(min(gaps)) == pytest.approx(base**-2)


def test_products_warm_reads_only_tables_built_in_setup():
    for job in take("products-warm", 3, 200):
        top = job.arg("m") if job.kind == "wronskian" else job.arg("n") + job.arg("m")
        assert top <= WARM_TABLE_INDEX


def test_degree_recurrences_match_the_library():
    for k in range(0, 30):
        assert schur_degree("D", k) == qschur.schur_D(k).degree
        assert schur_degree("E", k) == qschur.schur_E(k).degree
        assert finite_degree(k, 3) == qschur.schur_finite(k, 3).degree
    m = 9
    d, e = qschur.schur_D, qschur.schur_E
    assert terms(Job("wronskian", (("m", m),))) == len((d(m - 1) * e(m)).coeffs) + len(
        (d(m) * e(m - 1)).coeffs
    )


# -- output checks -----------------------------------------------------------


def test_verify_check_rejects_a_failed_or_missing_line(capsys):
    job = Job("verify", (("m_max", 2), ("order", 20)))
    code, out, err = cli(capsys, *run.cli_args(job))
    assert check_cold(job, code, out, err) is None
    assert check_cold(job, code, out.replace("pass", "fail", 1), err) is not None
    assert check_cold(job, code, out.split("\n", 1)[1], err) is not None
    assert check_cold(job, 1, out, err) is not None


def _bump_first_coefficient(line: str, delta: int) -> str:
    doc = json.loads(line)
    doc["coeffs"][0] = str(int(doc["coeffs"][0]) + delta)
    return json.dumps(doc, separators=(",", ":"))


@pytest.mark.parametrize("kind", "DE")
def test_schur_poly_check_rejects_a_fibonacci_sum_off_by_one(capsys, kind):
    job = Job("schur-poly", (("kind", kind), ("index", 12)))
    code, out, err = cli(capsys, *run.cli_args(job))
    assert check_cold(job, code, out, err) is None
    assert check_cold(job, code, _bump_first_coefficient(out, 1) + "\n", err) is not None
    doc = json.loads(out)
    c = [int(x) for x in doc["coeffs"]]
    i, j = [k for k, x in enumerate(c) if x > 0][1:3]
    c[i], c[j] = -c[i], c[j] + 2 * c[i]  # same sum, one negative coefficient
    doc["coeffs"] = [str(x) for x in c]
    assert check_cold(job, code, json.dumps(doc) + "\n", err) is not None


@pytest.mark.parametrize("n", [6, 16])
def test_determinant_check_needs_a_passing_decomposition(capsys, n):
    job = Job("determinant", (("n", n), ("m", 2)))
    code, out, err = cli(capsys, *run.cli_args(job))
    assert check_cold(job, code, out, err) is None
    lines = out.splitlines()
    bad_sum = "\n".join([_bump_first_coefficient(lines[0], -1), *lines[1:]]) + "\n"
    assert check_cold(job, code, bad_sum, err) is not None
    assert check_cold(job, code, out.replace('"pass"', '"fail"'), err) is not None
    assert check_cold(job, code, "\n".join(lines[:-1]) + "\n", err) is not None


def test_wronskian_check_rejects_a_flipped_sign():
    for m in (6, 7):
        job = Job("wronskian", (("m", m),))
        w = qschur.wronskian(m)
        coeffs = [str(c) for c in w.coeffs]
        assert check_wronskian(job, w.min_exp, coeffs) is None
        assert check_wronskian(job, w.min_exp, [str(-c) for c in w.coeffs]) is not None
        assert check_wronskian(job, w.min_exp + 1, coeffs) is not None


def test_decompose_check_needs_passed():
    job = Job("decompose", (("n", 9), ("m", 4)))
    report = qschur.decompose(9, 4)
    reply = {"label": report.label, "params": dict(report.params), "passed": True}
    assert report.passed and check_decompose(job, reply) is None
    assert check_decompose(job, {**reply, "passed": False}) is not None


def test_fibonacci():
    assert [fibonacci(k) for k in range(1, 8)] == [1, 1, 2, 3, 5, 8, 13]


# -- tracing -----------------------------------------------------------------


def installed_wrappers() -> list[str]:
    """Every span wrapper bound in a loaded qschur module or class."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] != "qschur":
            continue
        for attr, value in vars(module).items():
            if hasattr(value, "bench_span"):
                found.append(f"{mod_name}.{attr}")
            elif isinstance(value, type) and value.__module__ == mod_name:
                found += [
                    f"{mod_name}.{attr}.{name}"
                    for name, method in vars(value).items()
                    if hasattr(method, "bench_span")
                ]
    return found


def test_install_reaches_every_binding_and_uninstall_restores():
    assert installed_wrappers() == []
    recorder = spans.Recorder()
    uninstall = spans.install(recorder)
    try:
        bound = installed_wrappers()
        for name in ("qschur.determinant.series_inverse",
                     "qschur.identities.series_inverse",
                     "qschur.series.series_inverse",
                     "qschur.series.LaurentPoly.__radd__",
                     "qschur.schur.schur_D",
                     "qschur.determinant.schur_D",
                     "qschur.cli.print"):
            assert name in bound
        recorder.job = 0
        qschur.determinant.schur_coefficient(3, 1, 20)
    finally:
        uninstall()
    assert installed_wrappers() == []
    totals = spans.LayerTotals()
    totals.add(recorder.spans)
    assert totals.metrics(1)["series.inverse_calls"] == 3


def test_self_and_inclusive_time_leave_out_wrapper_bookkeeping():
    # [name, parent, open, start, end, cover, job, extra]
    recorded = [
        ["schur.table:schur_D", -1, 0, 2, 100, 104, 0, 0],
        ["series.add:LaurentPoly.__add__", 0, 10, 10, 40, 50, 0, None],
        ["schur.table:schur_polynomial", 1, 12, 15, 30, 33, 0, 0],  # grandchild
        ["series.mul:LaurentPoly.__mul__", 2, 16, 16, 20, 27, 0, [1, 1]],
        ["schur.table:schur_E", -1, 200, 200, 210, 210, 0, 0],
        ["series.add:LaurentPoly.__add__", -1, 300, 300, 320, 320, -1, None],  # set-up
    ]
    totals = spans.LayerTotals()
    totals.add(recorded)
    got = totals.metrics(1)
    # add: 30 minus its child's open..cover (21); mul: 4.
    assert got["series.add_s"] == pytest.approx((30 - 21) * 1e-9)
    assert got["series.mul_s"] == pytest.approx(4e-9)
    # D: 98 minus the bookkeeping below it: add 10, polynomial 3 + 3, mul 7.
    assert got["schur.table_s"] == pytest.approx((98 - 23 + 10) * 1e-9)
    assert got["schur.table_calls"] == 2
    assert got["schur.table_hit_ratio"] == 0.5
    assert totals.self_ns["schur.table"] == (98 - 40) + (15 - 11) + 10


def test_pair_count_matches_brute_force():
    rng = random.Random(5)
    for _ in range(200):
        a = [rng.choice((0, 0, 1, -3)) for _ in range(rng.randint(0, 8))]
        b = [rng.choice((0, 2, 5)) for _ in range(rng.randint(0, 8))]
        for limit in (None, 0, 3, 20):
            want = sum(
                1
                for (i, x), (j, y) in itertools.product(enumerate(a), enumerate(b))
                if x and y and (limit is None or i + j < limit)
            )
            assert spans._pairs_below(a, b, limit) == want


def test_untraced_job_installs_no_wrappers_and_traced_job_records_spans(monkeypatch):
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    monkeypatch.setattr(run, "WORK", work)
    children = run.Children(deadline=run.monotonic() + 60)
    job = Job("verify", (("m_max", 1), ("order", 30)))
    runner = run.ColdRunner(children, traced=False)
    plain = runner.run(0, job, traced=False)
    assert plain.error is None
    assert not (run.WORK / "job.spans").exists()
    assert runner.layers.calls == {}
    traced = runner.run(1, job, traced=True)
    assert traced.error is None
    assert runner.layers.calls["series.inverse"] > 0
    assert runner.layers.outer_calls["reports.compare"] == 2


def test_missing_names_are_recorded_and_written(monkeypatch, tmp_path):
    monkeypatch.setattr(spans, "FUNCTIONS", [
        *spans.FUNCTIONS, ("qschur.series", "no_such_function", "series.mul", None, None)
    ])
    monkeypatch.setattr(spans, "METHODS", [
        *spans.METHODS, ("qschur.series", "NoSuchClass", "__mul__", "series.mul", None)
    ])
    recorder = spans.Recorder()
    spans.install(recorder)()
    assert recorder.missing == ["qschur.series.no_such_function",
                                "qschur.series.NoSuchClass.__mul__"]
    path = tmp_path / "spans.jsonl"
    recorder.write(str(path))
    runner = run.Runner(children=None, traced=True)
    runner.collect_spans(path)
    assert runner.missing == set(recorder.missing)


def test_jobs_are_scaled_by_their_calibrations_or_the_reference():
    job = Job("wronskian", (("m", 3),))
    plain = run.Outcome(job, 0.5, None)
    assert run.job_scale([plain, plain], 3.0) == 3.0
    calibrated = [run.Outcome(job, 0.5, None, calibration=c * run.CALIBRATION_S)
                  for c in (1, 3)]
    assert run.job_scale(calibrated, 3.0) == pytest.approx(0.5)


def test_reported_metrics_match_benchmark_json():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    outcomes = [run.Outcome(Job("verify", (("m_max", 1), ("order", 9))), 0.5, None, 2048)]
    e2e = run.end_to_end(outcomes, [0.5], [0.1], [2048])
    assert list(e2e) == [m["name"] for m in declared["end_to_end"]]
    layer_names = [*spans.LayerTotals().metrics(1), "trace.overhead_frac",
                   "trace.missing_names"]
    assert layer_names == [m["name"] for m in declared["per_layer"]]
