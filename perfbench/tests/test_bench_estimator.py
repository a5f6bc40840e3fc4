"""The verdict_s estimator: fastest repeat of each unit of work, scaled to machine speed."""

import pytest

import calibrate
import run


def seg(wall, cases):
    return {"wall_s": wall, "case_walls": cases}


def test_serial_segment_takes_each_case_and_the_rest_at_their_fastest():
    # pass 1 is slow in case 0, pass 2 in case 1 and outside the cases
    repeats = [seg(1.0 + 0.5 + 0.1, [1.0, 0.5]), seg(0.6 + 0.9 + 0.3, [0.6, 0.9])]
    assert run.fastest_repeat(repeats, pooled=False) == pytest.approx(0.6 + 0.5 + 0.1)


def test_pooled_segment_is_one_unit():
    repeats = [seg(2.0, [1.5, 1.5]), seg(1.8, [1.7, 1.7])]
    assert run.fastest_repeat(repeats, pooled=True) == pytest.approx(1.8)


def test_serial_passes_take_turns_on_each_usable_core():
    cpus = run.pass_cpus("oracle-n7")
    turns = [next(cpus) for _ in range(4)]
    cores = run.os.sched_getaffinity(0)
    assert set(turns) == cores
    if len(cores) > 1:
        assert next(run.pass_cpus("pool-mix")) is None  # a pooled pass needs every core


def test_pass_count_depends_on_the_seconds_alone():
    closed = run.workloads.WORKLOADS["closed-form"]
    assert closed.passes_for(30) == closed.passes
    assert closed.passes_for(60) == 2 * closed.passes
    assert all(w.passes_for(1) == 2 for w in run.workloads.WORKLOADS.values())


def test_calibration_loop_is_a_short_positive_time():
    assert 0 < calibrate.calibration_s(rounds=2) < 100 * calibrate.REFERENCE_S
