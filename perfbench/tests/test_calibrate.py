"""Calibration: a seed-independent request set, and the speed arithmetic."""

import json
import sys

import pytest

import calibrate
import workloads

REFERENCE = json.loads(calibrate.REFERENCE_FILE.read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_calibration_set_matches_its_reference(workload):
    files, argvs = calibrate.requests(workload)
    assert len(argvs) == calibrate.SIZE[workload] == len(REFERENCE[workload])
    assert all(path.startswith(calibrate.ROOT + "/") for path in files)
    assert calibrate.requests(workload) == (files, argvs)


def test_speed_is_mean_time_over_reference_time():
    ref = REFERENCE["component-dp"]
    at_reference = [(i, wall, cpu) for i, (wall, cpu) in enumerate(ref)]
    assert calibrate.speed("component-dp", at_reference) == pytest.approx(1.0)
    # half the calls at reference speed, half three times slower: 2x on average
    thrice = [(i, 3 * wall, 3 * cpu) for i, wall, cpu in at_reference]
    assert calibrate.speed("component-dp", at_reference + thrice) == pytest.approx(2.0)


def test_wall_and_cpu_speeds_are_apart():
    ref = REFERENCE["bench-corpus"]
    samples = [(0, 2 * ref[0][0], 1.5 * ref[0][1])]
    assert calibrate.speed("bench-corpus", samples) == pytest.approx(2.0)
    assert calibrate.speed("bench-corpus", samples, calibrate.CPU) == pytest.approx(1.5)


def test_speed_counts_only_requests_that_ran():
    ref = REFERENCE["star-greedy"]
    samples = [(3, 3 * ref[3][0], ref[3][1]), (5, 3 * ref[5][0], ref[5][1])]
    assert calibrate.speed("star-greedy", samples) == pytest.approx(3.0)


def test_meter_runs_the_frozen_copy(tmp_path, monkeypatch):
    files, argvs = calibrate.requests("bench-corpus")
    calibrate.write(str(tmp_path), files)
    monkeypatch.chdir(tmp_path)
    meter = calibrate.Meter(argvs)
    meter.step()
    assert meter.samples[0][0] == 0 and meter.wall > 0
    assert sys.modules["frozen_graphsack.cli"].__file__.startswith(str(calibrate.HERE))
