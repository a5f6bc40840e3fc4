"""The runner of pooled suites: this process and `jobs - 1` forked children
take chunks from one queue, each child pickles its results back over a pipe,
and the run gives the report of a serial one. A child that dies, or leaves a
truncated pickle, ends `verify` with exit 2 and one line, and no run leaves a
child unreaped.
"""

import os
import pickle
import re
import select
import signal

import pytest

from slicekernels import suites
from slicekernels.cli import main
from slicekernels.suites import SuiteConfig, run_suite


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    # two usable CPUs on any host: `jobs=2` forks one child
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)


@pytest.fixture
def hold_parent(monkeypatch):
    """`hold(cases, then)` patches `suites._run_case` so that this process
    holds its first case until a forked child starts its `cases`-th case,
    where the child calls `then()`: the child surely runs that many cases."""
    parent, run_case = os.getpid(), suites._run_case
    read_end, write_end = os.pipe()

    def hold(cases=1, then=lambda: None):
        count = [0]

        def run(params, config):
            count[0] += 1
            if os.getpid() != parent and count[0] == cases:
                os.write(write_end, b"+")
                then()
            elif os.getpid() == parent and count[0] == 1:
                if not select.select([read_end], [], [], 120)[0]:
                    pytest.fail(f"no forked child started {cases} cases")
            return run_case(params, config)

        monkeypatch.setattr(suites, "_run_case", run)

    yield hold
    os.close(read_end)
    os.close(write_end)


def _report(**kw) -> dict:
    return run_suite(SuiteConfig(seed=0, **kw)).as_dict(strip_times=True)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("kw, child_cases", [
    # 1,000 appendix results pickle to more than a 64 KB pipe buffer
    (dict(suite="appendix", hn_max=16), 1000),
    (dict(suite="quadrature", quad_nodes=64), 1),
    (dict(suite="lemmas", n_values=(3, 5), trials=2), 1),
], ids=["appendix", "quadrature", "lemmas"])
def test_a_pooled_report_is_the_serial_one(monkeypatch, hold_parent, kw, child_cases):
    serial = _report(jobs=1, **kw)
    hold_parent(child_cases)
    sizes, loads = [], pickle.loads
    monkeypatch.setattr(pickle, "loads", lambda data: sizes.append(len(data)) or loads(data))
    # a child reaped before its pipe is read blocks on a full pipe for ever
    handler = signal.signal(signal.SIGALRM, lambda *_: pytest.fail("the pooled run hung"))
    signal.alarm(120)
    try:
        pooled = _report(jobs=2, **kw)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert pooled == serial
    _assert_no_child_left()
    assert len(sizes) == 1  # one child's results
    if kw["suite"] == "appendix":
        assert sizes[0] > 64 * 1024  # read to EOF before the child is reaped
    if kw["suite"] == "quadrature":
        assert serial["tables"]


def test_more_workers_than_cores_run_each_case_once(monkeypatch):
    # eight workers on any host share 8 groups, each the 80 cases at one point
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 8)
    config = dict(suite="lemmas", n_values=(3,), trials=8)
    serial = _report(jobs=1, **config)
    pooled = _report(jobs=8, **config)
    _assert_no_child_left()
    keys = [case["key"] for case in pooled["cases"]]
    assert len(keys) == len(set(keys)) == 640
    assert pooled == serial


def test_without_fork_a_pooled_run_is_serial(monkeypatch):
    monkeypatch.delattr(os, "fork")
    config = dict(suite="forms", n_values=(3,), trials=3)
    assert _report(jobs=2, **config) == _report(jobs=1, **config)


@pytest.mark.parametrize("death, message", [
    ("exit", "exited with status 9"),
    ("kill", "was killed by signal 9"),
    ("truncate", "left a truncated report"),
])
def test_a_dead_worker_ends_the_run_with_exit_2_and_one_line(
        monkeypatch, capsys, tmp_path, hold_parent, death, message):
    if death == "truncate":
        # the held parent leaves the child a case, so its pickle is longer
        # than the 20 bytes kept; an empty list pickles to 5 and stays whole
        hold_parent()
        monkeypatch.setattr(pickle, "dump", lambda obj, fh, protocol: fh.write(
            pickle.dumps(obj, protocol)[:20]))
    else:
        hold_parent(then=lambda: os._exit(9) if death == "exit"
                    else os.kill(os.getpid(), signal.SIGKILL))
    code = main(["verify", "--suite", "forms", "--n", "3", "--trials", "2", "--jobs", "2",
                 "--out", str(tmp_path / "report.json")])
    assert code == 2
    assert re.fullmatch(rf"error: worker \d+ {message}\n", capsys.readouterr().err)
    _assert_no_child_left()


def test_a_parent_that_raises_stops_and_reaps_its_children(monkeypatch, hold_parent):
    hold_parent()
    parent, run_case = os.getpid(), suites._run_case

    def interrupted(params, config):
        out = run_case(params, config)
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return out

    monkeypatch.setattr(suites, "_run_case", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_suite(SuiteConfig(suite="appendix", hn_max=16, jobs=2))
    _assert_no_child_left()
