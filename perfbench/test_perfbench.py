"""Tests of the benchmark itself.

Run from the root of the repository::

    python -m pytest -q perfbench
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys

import bench
import corpora
import pytest

bench.load_program()

from alternator import codec, diagram, gen, merge  # noqa: E402

BENCHMARK_JSON = bench.ROOT / "BENCHMARK.json"


def tiny(name: str, rungs=(20, 60), per_rung=2) -> corpora.Workload:
    return dataclasses.replace(
        corpora.WORKLOADS[name], rungs=rungs, counts=(per_rung,) * len(rungs)
    )


@pytest.mark.parametrize("name", sorted(corpora.WORKLOADS))
def test_same_seed_same_inputs(name):
    workload = corpora.WORKLOADS[name]
    if name == "text-roundtrip":
        workload = tiny(name)
    first = corpora.make_inputs(workload, 5)
    assert first == corpora.make_inputs(workload, 5)
    assert first != corpora.make_inputs(workload, 6)
    assert len(first) == sum(workload.counts)


def test_names_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in corpora.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("name", ["braid-corpus", "text-roundtrip"])
def test_smoke_run_has_no_failures(name):
    workload = tiny(name)
    run, metrics, _ = bench.timed_run(workload, 3, 0)
    assert set(metrics) == set(bench.END_TO_END)
    assert run.failed == 0 and run.consistent
    assert metrics["verified_ratio"] == 1.0
    assert all(v > 0 for v in metrics.values())

    run, metrics, details = bench.traced_run(workload, 3, 0)
    assert set(metrics) == set(bench.PER_LAYER)
    assert run.failed == 0 and run.consistent
    assert metrics["items"] == 4 and metrics["merges"] > 0
    sampled = [run.items[i].rung for i in details["coverage_items"]]
    assert sorted(sampled) == [0, 1]


def test_failures_are_counted_not_raised():
    workload = tiny("braid-corpus", rungs=(20,), per_rung=1)
    m, items, _, _, _ = bench.setup(workload, 1)
    broken = dataclasses.replace(items[0], text="X[1,2,3")
    run = bench.Run(m, workload, [broken])
    assert run.one_pass() == [None]
    assert run.failures["input"] == 1 and run.failed == 1


def test_braid_tuples_match_program_closure():
    rng = random.Random(0)
    for _ in range(20):
        word = gen.random_word(rng.randint(2, 5), 12, rng.randrange(1000))
        ours = diagram.build_diagram(corpora.braid_tuples(word.letters, word.strands))
        assert codec.emit_pd(ours) == codec.emit_pd(gen.braid_closure(word))


def test_summands_alternate_until_switched():
    rng = random.Random(1)
    for _ in range(20):
        letters = corpora.alternating_letters(rng)
        assert diagram.is_alternating(diagram.build_diagram(corpora.braid_tuples(letters, 3)))
        switched = diagram.build_diagram(corpora.switched_summand(rng))
        assert not diagram.is_alternating(switched)


def pushes_per_merge(workload: corpora.Workload, seed: int) -> float:
    merges = pushes = 0
    for item in corpora.make_inputs(workload, seed):
        _, stats = merge.full_pipeline_with_stats(codec.parse_pd(item.text))
        merges += stats.merges
        pushes += stats.pushes
    return pushes / merges


def test_push_chain_really_pushes():
    assert pushes_per_merge(corpora.WORKLOADS["push-chain"], 0) >= 0.5
    # the ladder's two upper rungs take most of a minute; the lower two
    # already show that braid closures almost never push
    assert pushes_per_merge(tiny("braid-ladder", rungs=(200, 400)), 0) < 0.1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", "push-chain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
