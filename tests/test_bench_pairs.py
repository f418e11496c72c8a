"""The exit rule and the gain rule of scripts/bench_pairs.py on fake run
records: a run that is not correct or failed operations voids the
comparison, differing determinism lines are named by seed, and a gain is
resolved only by 9 in 10 won pairs and a median gap above the parent's
interquartile range."""

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


def rates(values, name="rate"):
    return [{"result": {"metrics": {name: {"value": v}}}} for v in values]


RATE = {"name": "rate", "unit": "1/s", "better": "higher"}
PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


@pytest.mark.parametrize("change,resolved", [
    # 10/10 pairs, medians 104.5 -> 112.5: the gap 8 exceeds the IQR 4.5
    ([v + 8.0 for v in PARENT], True),
    # 9/10 pairs still resolve
    ([v + 8.0 for v in PARENT[:9]] + [100.0], True),
    # 8/10 pairs do not, however far apart the medians
    ([v + 50.0 for v in PARENT[:8]] + [100.0, 100.0], False),
    # 10/10 pairs with a median gap of 3 inside the parent's IQR of 4.5
    ([v + 3.0 for v in PARENT], False),
])
def test_gain_resolved_needs_nine_in_ten_pairs_and_a_gap_above_the_iqr(bench_pairs, change,
                                                                      resolved):
    summary = bench_pairs.summarise({"parent": rates(PARENT), "change": rates(change)},
                                    [RATE])["rate"]
    assert summary["parent"]["q3"] - summary["parent"]["q1"] == pytest.approx(4.5)
    assert summary["gain_resolved"] is resolved


def test_gain_resolved_for_a_lower_is_better_metric(bench_pairs):
    seconds = {"name": "rate", "unit": "s", "better": "lower"}
    faster = bench_pairs.summarise({"parent": rates(PARENT),
                                    "change": rates([v - 8.0 for v in PARENT])}, [seconds])
    slower = bench_pairs.summarise({"parent": rates(PARENT),
                                    "change": rates([v + 8.0 for v in PARENT])}, [seconds])
    assert faster["rate"]["gain_resolved"] and faster["rate"]["change_wins"] == 10
    assert not slower["rate"]["gain_resolved"] and slower["rate"]["change_wins"] == 0


def metric_lines(**values):
    return [f"metric {name} {value!r} {'s' if name == 'train_epoch_s' else '1/s'}"
            for name, value in values.items()]


def test_diagnostics_are_read_from_the_metric_lines(bench_pairs):
    lines = ["environment {}", *metric_lines(ar_or_sim_events_per_s=9.0, sim_events_per_s=20.0,
                                             eval_events_per_s=80.0, train_epoch_s=0.25),
             "metric raw.sim_events_per_s 22.0 1/s", "metric probe_ms 1.2 ms", "{}"]
    assert bench_pairs.diagnostic_metrics(lines) == {
        "sim_events_per_s": {"value": 20.0, "unit": "1/s"},
        "eval_events_per_s": {"value": 80.0, "unit": "1/s"},
        "train_epoch_s": {"value": 0.25, "unit": "s"},
    }


def test_diagnostics_are_summarised_per_side_and_not_gated(bench_pairs):
    def run(eval_rate, sim_rate, train=None):
        extra = {} if train is None else {"train_epoch_s": train}
        lines = metric_lines(eval_events_per_s=eval_rate, sim_events_per_s=sim_rate, **extra)
        return {"diagnostics": bench_pairs.diagnostic_metrics(lines)}

    runs = {"parent": [run(70.0, 20.0, 0.3), run(72.0, 21.0, 0.3), run(74.0, 22.0, 0.3)],
            "change": [run(90.0, 20.5), run(95.0, 19.0, 0.2), run(100.0, 21.5, 0.2)]}
    summary = bench_pairs.summarise_diagnostics(runs)
    # a diagnostic missing from any run is left out
    assert list(summary) == ["sim_events_per_s", "eval_events_per_s"]
    evaluation = summary["eval_events_per_s"]
    assert evaluation["unit"] == "1/s"
    assert evaluation["parent"] == {"median": 72.0, "q1": 71.0, "q3": 73.0,
                                    "values": [70.0, 72.0, 74.0]}
    assert evaluation["change"]["median"] == 95.0
    assert summary["sim_events_per_s"]["change"]["values"] == [20.5, 19.0, 21.5]
    assert "gain_resolved" not in evaluation


# writes one byte in each 4 KiB page of an anonymous mapping that asks for no huge pages
FAKE_RUN = """import json, mmap
if {mib}:
    pages = mmap.mmap(-1, {mib} << 20)
    pages.madvise(mmap.MADV_NOHUGEPAGE)
    for i in range(0, len(pages), 4096):
        pages[i] = 1
print("environment {{}}")
print("determinism {{}}")
print(json.dumps({{"correct": True, "failed": 0, "attempted": 1, "metrics": {{}}}}))
"""


def test_a_run_records_its_minor_page_faults(bench_pairs, tmp_path):
    """run_once counts the faults of its child alone: a fake perfbench
    that writes 16 MiB more than another faults about 4096 pages more."""
    faults = {}
    for mib in (0, 16):
        tree = tmp_path / f"tree{mib}"
        (tree / "perfbench").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text(FAKE_RUN.format(mib=mib))
        run = bench_pairs.run_once(tree, "sample-short", 1, 1.0)
        assert run["diagnostics"]["minor_faults"]["unit"] == "count"
        faults[mib] = run["diagnostics"]["minor_faults"]["value"]
    assert faults[0] > 0 and faults[16] - faults[0] > 3000
