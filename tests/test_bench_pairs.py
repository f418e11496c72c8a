"""The exit rule of scripts/bench_pairs.py on fake run records: a run that
is not correct or failed operations voids the comparison, and differing
determinism lines are named by seed."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(correct=True, failed=0, digest="a"):
    return {"determinism": {"counts": {"passes": 3}, "digest": digest},
            "result": {"correct": correct, "failed": failed, "attempted": 10}}


def test_clean_runs_pass(bench_pairs):
    runs = {"parent": [record(), record()], "change": [record(), record()]}
    assert bench_pairs.faults(runs, [1, 2]) == []
    assert bench_pairs.determinism_differs(runs, [1, 2]) == []


def test_incorrect_or_failed_runs_are_named(bench_pairs):
    runs = {"parent": [record(), record(failed=2)],
            "change": [record(correct=False), record()]}
    assert bench_pairs.faults(runs, [7, 8]) == ["parent seed 8: correct=True failed=2/10",
                                                 "change seed 7: correct=False failed=0/10"]


def test_differing_determinism_is_named_by_seed(bench_pairs):
    runs = {"parent": [record(), record(), record()],
            "change": [record(), record(digest="b"), record()]}
    assert bench_pairs.determinism_differs(runs, [4, 5, 6]) == [5]
    assert bench_pairs.faults(runs, [4, 5, 6]) == []
