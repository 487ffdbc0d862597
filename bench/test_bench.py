"""Self-tests of the benchmark harness.

Run from the repository root with `python -m pytest bench`.  The default
test run (`testpaths = ["tests"]`) does not collect them.
"""

import json
import re
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
QUIET = {"log": lambda line: None}


def _smoke(name, trace, tmp_path, seed=0):
    return run.execute(name, seed=seed, seconds=0, trace=trace, own_setup_s=1.0,
                       n_ops=1, probes=0, spans_dir=tmp_path, **QUIET)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    make = workloads.WORKLOADS[name].make_input
    assert [make(3, i) for i in range(4)] == [make(3, i) for i in range(4)]
    assert len({make(3, i) for i in range(4)}) == 4
    assert make(3, 0) != make(4, 0)


def _package_attributes():
    import ultralink.link
    import ultralink.modem

    owners = [m for n, m in sys.modules.items() if m is not None and n.split(".")[0] == "ultralink"]
    owners += [ultralink.modem.ToneScanner, ultralink.link.SessionTrace]
    return {(repr(owner), key): value for owner in owners for key, value in vars(owner).items()}


def test_traced_run_restores_every_wrapped_attribute():
    import ultralink.link

    before = _package_attributes()
    tracer = Tracer()
    with tracer.installed():
        assert ultralink.link.propagate is not before[(repr(ultralink.link), "propagate")]
        workloads.run_ber_op(workloads.BerInput(1))
    after = _package_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert {span[0] for span in tracer.spans} >= {"analysis.ber_sweep", "channel.propagate"}


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == run.PER_LAYER
    for name in [*run.END_TO_END, *run.PER_LAYER]:
        assert NAME.fullmatch(name), name
    listed = {w["name"] for w in spec["workloads"]}
    assert listed == {n for n, w in workloads.WORKLOADS.items() if w.in_benchmark}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_one_op_smoke_run_passes_its_checks(name, trace, tmp_path):
    result = _smoke(name, trace, tmp_path)
    assert result["correct"], result
    assert (result["attempted"], result["failed"]) == (1, 0)
    assert set(result["metrics"]) == set(run.PER_LAYER if trace else run.END_TO_END)


def test_traced_counts_repeat_exactly(tmp_path):
    first, second = (_smoke("oneway-16b", True, tmp_path)["metrics"] for _ in range(2))
    for key, unit in run.PER_LAYER.items():
        if unit != "ms/op" and key != "bench.trace_overhead":
            assert first[key] == second[key], key


def test_failing_op_is_counted_not_skipped(tmp_path):
    # oneway-16b, seed 9, op 0: a corrupted frame decodes as BITRATE_DEC
    # and the nodes end at different rates (see README.md)
    lines = []
    result = run.execute("oneway-16b", seed=9, seconds=0, trace=False, own_setup_s=1.0,
                         n_ops=1, probes=0, log=lines.append)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert any(line.startswith("failed op 0 ") and "incomplete" in line for line in lines)


def test_slowdown_is_taken_around_each_op():
    speed = run.SpeedKernel()
    ref = run.REFERENCE_SPEED_S
    speed.at = [10.0, 10.5, 11.0, 15.0]
    speed.times = [ref, ref, 2 * ref, 3 * ref]
    assert speed.factor(10.25) == pytest.approx(1.0)     # the three samples within 1 s
    assert speed.factor(13.5) == pytest.approx(3.0)      # none within 1 s: the nearest
    assert speed.factor() == pytest.approx(1.5)          # the whole run


def test_a_run_is_a_fixed_number_of_ops():
    ber = workloads.WORKLOADS["ber-3m-166"]
    assert run.op_count(ber, 40) == round(40 / ber.nominal_op_s)
    assert run.op_count(ber, 0) == ber.count_ops
