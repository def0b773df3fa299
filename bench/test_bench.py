"""Fast tests of the benchmark itself: python3 -m pytest bench -q"""

import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

import check
import reference
import run
import spans


@pytest.mark.parametrize(
    "model,d,n_max",
    [("hard-square", 2, 4), ("coloring:3", 2, 3), ("hard-square", 3, 2)],
)
def test_reference_counts_match_brute_force(model, d, n_max):
    for n in range(1, n_max + 1):
        assert reference.count(model, d, n) == reference.brute_force(model, d, n)


@pytest.mark.parametrize("n", [2, 3])
def test_key_sum_matches_brute_force(n):
    surface = [i * n + j for i in range(n) for j in range(n) if n - 1 in (i, j)]
    groups = {}
    for vals in itertools.product((0, 1), repeat=n * n):
        ok = all(
            not (vals[i * n + j] and vals[i * n + j + 1]) for i in range(n) for j in range(n - 1)
        ) and all(
            not (vals[i * n + j] and vals[(i + 1) * n + j]) for i in range(n - 1) for j in range(n)
        )
        if ok:
            key = tuple(vals[c] for c in surface)
            groups[key] = groups.get(key, 0) + 1
    assert reference.hard_square_key_sum(n) == sum(c ** 4 for c in groups.values())


def test_self_time_arithmetic_on_synthetic_nesting():
    # cli.main [0,10] > transfer.count_patterns [1,7] > transfer.build_slice_space
    # [2,3] and two enumerate resumptions under it; bounds.build_report [8,9.5].
    names = [
        "cli.main", "transfer.count_patterns", "transfer.build_slice_space",
        "enumeration.enumerate_patterns", "enumeration.enumerate_patterns#end",
        "bounds.build_report",
    ]
    rows = [  # name, parent, start, end
        (0, -1, 0.0, 10.0),
        (1, 0, 1.0, 7.0),
        (2, 1, 2.0, 3.0),
        (3, 2, 2.1, 2.3),
        (4, 2, 2.5, 2.6),
        (5, 0, 8.0, 9.5),
    ]
    table = spans.SpanTable(names, *zip(*rows))
    assert table.self_time.tolist() == pytest.approx([2.5, 5.0, 0.7, 0.2, 0.1, 1.5])
    assert table.layer_self("transfer") == pytest.approx(5.7)
    assert table.layer_self("enumeration") == pytest.approx(0.3)
    assert table.total("transfer.count_patterns", "transfer.build_slice_space") == 6.0
    m = spans.layer_metrics(table, wall_s=10.25)
    assert m["enumeration.enumerated"] == 1
    assert m["transfer.cache_hits"] == 0
    assert m["trace.unattributed_s"] == pytest.approx(0.25)
    layer_sum = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layer_sum + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"])


def test_recorder_times_generators_per_resumption():
    rec = spans.Recorder()

    def gen(k):
        yield from range(k)

    def consume(k):
        return sum(traced_gen(k))

    traced_gen = rec.wrap("enumeration.enumerate_patterns", gen)
    traced_consume = rec.wrap("sampling.sample_same_state_group", consume)
    assert rec.call("cli.main", traced_consume, 3) == 3
    names = [rec.names[i] for i in rec.name_id]
    assert names.count("enumeration.enumerate_patterns") == 3
    assert names.count("enumeration.enumerate_patterns#end") == 1
    assert list(rec.parent) == [-1, 0, 1, 1, 1, 1]
    assert rec.stack == []


TINY = {
    "hs2-bounds": {"size": 5},
    "col3-bounds": {"size": 4},
    "hs3-bounds": {"size": 2},
    "hs2-verify": {"size": 3, "samples": 20},
}


@pytest.mark.parametrize("name", list(TINY))
def test_workload_end_to_end_tiny(name, monkeypatch):
    tiny = dataclasses.replace(run.WORKLOADS[name], **TINY[name])
    monkeypatch.setitem(run.WORKLOADS, name, tiny)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    plain = run.run_workload(name, seed=3, seconds=0, trace=False)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] == 1
    assert plain["metrics"]["checks_decided"]["value"] > 0
    traced = run.run_workload(name, seed=3, seconds=0, trace=True)
    assert traced["correct"] and traced["attempted"] == 2
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    layer_sum = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layer_sum + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"])
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(traced["metrics"]) == {x["name"] for x in spec["per_layer"]}
    assert set(plain["metrics"]) == {x["name"] for x in spec["end_to_end"]}


def _bounds_output(n_max):
    result = run.spawn(["--", *dataclasses.replace(run.WORKLOADS["hs2-bounds"], size=n_max).argv(0)])
    return json.loads(result["stdout"])


def test_checks_reject_a_wrong_count():
    doc = _bounds_output(5)
    ref = reference.counts("hard-square", 2, 8)
    assert check.check_bounds(json.dumps(doc), "hard-square", 2, 5, ref) > 0
    doc["rows"][2]["C_n"] = str(int(doc["rows"][2]["C_n"]) + 1)
    with pytest.raises(check.CheckError):
        check.check_bounds(json.dumps(doc), "hard-square", 2, 5, ref)


def test_checks_reject_a_wrong_quoted_count():
    w = dataclasses.replace(run.WORKLOADS["hs2-verify"], size=3, samples=5)
    out = run.spawn(["--", *w.argv(7)])["stdout"]
    ref = reference.counts("hard-square", 2, 8)
    assert check.check_verify(out, 3, 5, 7, ref) == 5
    with pytest.raises(check.CheckError):
        check.check_verify(out.replace("C_5 = 55447", "C_5 = 55448"), 3, 5, 7, ref)
    with pytest.raises(check.CheckError):
        check.check_verify(out, 3, 6, 7, ref)


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hs2-bounds", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
