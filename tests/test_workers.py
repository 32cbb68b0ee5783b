"""Experiments split across forked worker processes, bit for bit.

Every roster entry of run ``k`` sees the same snapshot stream, drawn from
``default_rng(master_seed ^ k)``, and no entry's trace depends on the
others. So a run's roster may be split into groups that run in different
processes, and runs may go to different processes, with the results of one
process. Each test pins its usable CPUs, so it splits the same way on any
host. A split run's blocks are drawn once, by its first group's process,
and sent down a pipe to each of the others.
"""

import multiprocessing
import os
import signal
import socket
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from smcgbeam import harness
from smcgbeam.harness import (
    ConfigError,
    RunDivergedError,
    algo,
    build_scenario,
    emit_csv,
    preset,
    run_experiment,
)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, and the forked processes started, as a list."""
    monkeypatch.setattr(harness, "_cpus", lambda: 2)
    started = []
    fork_context = harness._fork_context

    class Recording:
        def __init__(self, context):
            self.Pipe = context.Pipe
            self.context = context

        def Process(self, **kwargs):
            started.append(self.context.Process(**kwargs))
            return started[-1]

    def recording_context():
        context = fork_context()
        return context and Recording(context)

    monkeypatch.setattr(harness, "_fork_context", recording_context)
    return started


def _fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


def _same_results(config, tmp_path, workers=2) -> int:
    """Assert ``workers`` gives ``workers=1``'s result and CSV bytes, and
    leaves no process and no file descriptor; return how many groups each
    run is split into."""
    serial = run_experiment(config, workers=1)
    fds = _fds()
    forked = run_experiment(config, workers=workers)
    assert _fds() == fds
    assert vars(serial).keys() == vars(forked).keys()
    for name, want in vars(serial).items():
        got = getattr(forked, name)
        if isinstance(want, dict) and want and isinstance(next(iter(want.values())), np.ndarray):
            assert want.keys() == got.keys(), name
            for label in want:
                assert got[label].tobytes() == want[label].tobytes(), (name, label)
        else:
            assert got == want, name
    emit_csv(serial, tmp_path / "serial.csv")
    emit_csv(forked, tmp_path / "forked.csv")
    assert (tmp_path / "forked.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert multiprocessing.active_children() == []
    return len(harness._plan(config, workers)[1])


def test_one_run_of_fig6_split_by_roster(two_cpus, monkeypatch, tmp_path):
    """Also at m = 64 on 2 and 3 CPUs: a block is then 256 KiB, more than
    the drawer's pipe to a reader holds (about 228 KiB on Linux), so a send
    that waits for the reader does so in the middle of a block."""
    (fig6,) = preset("fig6", runs=1)
    assert _same_results(replace(fig6, n_snapshots=600), tmp_path) == 2
    assert len(two_cpus) == 1
    for cpus in (2, 3):
        monkeypatch.setattr(harness, "_cpus", lambda: cpus)
        assert _same_results(replace(fig6, m=64, n_snapshots=600), tmp_path, cpus) == cpus
    assert len(two_cpus) == 1 + 1 + 2


def test_fig5_with_its_gated_stack_split(two_cpus, tmp_path):
    (fig5,) = preset("fig5", runs=1)
    fig5 = replace(fig5, n_snapshots=600)
    count, groups = harness._plan(fig5, 2)
    gated = [[j for j in roster if fig5.algorithms[j].kind == "smcg"] for roster in groups]
    assert count == 2 and all(gated) and sum(map(len, gated)) == 5
    assert _same_results(fig5, tmp_path) == 2
    assert len(two_cpus) == 1


def test_fig9_across_its_epoch_change(two_cpus, tmp_path):
    (fig9,) = preset("fig9", runs=1)
    fig9 = replace(fig9, n_snapshots=700, epochs=((1, 8), (300, 12)))
    assert _same_results(fig9, tmp_path) == 2
    assert len(two_cpus) == 1


def test_three_runs_split_by_run(two_cpus, tmp_path):
    (fig4,) = preset("fig4", runs=3)
    assert _same_results(replace(fig4, n_snapshots=400), tmp_path) == 1
    assert len(two_cpus) == 1


# Runs of 11 blocks, more than a drawer's pipe to a reader holds (three at
# m = 16), so a drawer that runs ahead waits on a full pipe.
_LONG = {
    "fig6": dict(n_snapshots=2600),
    "fig9": dict(n_snapshots=2700, epochs=((1, 8), (1300, 12))),
}


@pytest.mark.parametrize("runs", [1, 2, 3])
@pytest.mark.parametrize("preset_name", ["fig6", "fig9"])
@pytest.mark.parametrize("cpus", [3, 4])
def test_exact_beyond_two_processes(monkeypatch, tmp_path, cpus, preset_name, runs):
    """Several readers per run (fig6 at one run), and a worker as a run's
    drawer (run 1 at 3 CPUs and 2 runs, at 4 CPUs and 2 or 3 runs)."""
    monkeypatch.setattr(harness, "_cpus", lambda: cpus)
    (config,) = preset(preset_name, runs=runs)
    config = replace(config, **_LONG[preset_name])
    groups = _same_results(config, tmp_path, workers=None)
    assert (groups > 1) == (runs < cpus)


@pytest.mark.parametrize("cpus, preset_name, runs", [(2, "fig9", 1), (4, "fig6", 2)])
def test_a_split_run_draws_each_snapshot_once(monkeypatch, tmp_path, cpus, preset_name, runs):
    """Only the process of a run's first group draws; the others read its
    blocks. Each process appends its calls to one file."""
    monkeypatch.setattr(harness, "_cpus", lambda: cpus)
    (config,) = preset(preset_name, runs=runs)
    config = replace(config, **_LONG[preset_name])
    assert len(harness._plan(config, None)[1]) > 1
    serial = run_experiment(config, workers=1)
    calls = tmp_path / "calls"
    draw = harness.generate_snapshot

    def logged(scenario, i, rng, block):
        with open(calls, "a") as fh:
            fh.write(f"{os.getpid()} {i}\n")
        draw(scenario, i, rng, block)

    monkeypatch.setattr(harness, "generate_snapshot", logged)
    forked = run_experiment(config)
    lines = [line.split() for line in calls.read_text().splitlines()]
    assert Counter(int(i) for _, i in lines) == dict.fromkeys(
        range(1, config.n_snapshots + 1), runs
    )
    assert len({pid for pid, _ in lines}) == runs
    for label in serial.algorithms:
        assert forked.mean_sinr_db[label].tobytes() == serial.mean_sinr_db[label].tobytes()
    assert multiprocessing.active_children() == []


def _divergence(config, workers: int) -> RunDivergedError:
    with np.errstate(all="ignore"), pytest.raises(RunDivergedError) as err:
        run_experiment(config, workers=workers)
    return err.value


def _causes(exc) -> list[type]:
    chain = []
    while exc is not None:
        chain.append(type(exc))
        exc = exc.__cause__
    return chain


@pytest.mark.parametrize(
    "preset_name, changes",
    [
        ("fig9", dict(inr_db=3070.0, epochs=((1, 8), (200, 12)))),
        ("fig6", dict(algorithms=(algo("sg", "sg", normalized=False, step_size=1000.0),
                                  algo("cg", "cg"), algo("rls", "rls")))),
    ],
    ids=["fig9-overflowing-bound", "fig6-diverging-sg"],
)
def test_divergence_of_a_split_run_named_as_in_one(two_cpus, preset_name, changes):
    """Each group of a split run runs on to its own first divergence, which
    need not be the one process's (fig9's ``rls`` fails before ``smcg``
    reaches the end of its block); the run is then run again in this
    process, with the message and the cause chain of one process."""
    (config,) = preset(preset_name, runs=1)
    config = replace(config, n_snapshots=300, **changes)
    serial = _divergence(config, 1)
    forked = _divergence(config, 2)
    assert str(forked) == str(serial)
    assert _causes(forked) == _causes(serial)
    assert len(two_cpus) == 1
    assert multiprocessing.active_children() == []


def test_divergence_of_a_worker_run_named_as_in_one(two_cpus, monkeypatch):
    """Split by run, run 1 goes to the worker, and only run 1 diverges."""
    (fig4,) = preset("fig4", runs=2)
    config = replace(fig4, n_snapshots=300)
    run1 = build_scenario(config, np.random.default_rng(config.master_seed ^ 1)).epochs
    draw = harness.generate_snapshot

    def poisoned(scenario, i, rng, block):
        draw(scenario, i, rng, block)
        if scenario.epochs == run1 and i == 20:
            block.noise[block.count - 1] = np.nan

    monkeypatch.setattr(harness, "generate_snapshot", poisoned)
    serial = _divergence(config, 1)
    forked = _divergence(config, 2)
    assert str(serial).startswith("run 1: ") and str(forked) == str(serial)
    assert _causes(forked) == _causes(serial)
    assert len(two_cpus) == 1
    assert multiprocessing.active_children() == []


@contextmanager
def _deadline(seconds=60):
    """Fail, instead of waiting for ever, if a stream is never closed. The
    failure is not an ``Exception``, so the fallback cannot catch it."""

    def hung(signum, frame):
        pytest.fail(f"no result within {seconds} s: a process waits on a snapshot stream")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _poison_run_1(monkeypatch, config, label, snapshot):
    """Make entry ``label`` of run 1 alone diverge at ``snapshot``."""
    run1 = build_scenario(config, np.random.default_rng(config.master_seed ^ 1)).epochs
    entry = harness._entry

    class Diverging(harness._Entry):
        def run(self, block, first, upd, dlt):
            super().run(block, first, upd, dlt)
            if first <= snapshot < first + len(block):
                self.w_out[0, snapshot - first] = np.nan

    def poisoned(j, spec, scenario, a0, gamma):
        runner = entry(j, spec, scenario, a0, gamma)
        if spec.label == label and scenario.epochs == run1:
            return Diverging(j, spec.label, runner.algo)
        return runner

    monkeypatch.setattr(harness, "_entry", poisoned)


@pytest.mark.parametrize(
    "cpus, runs, label, snapshot, reader",
    [(4, 3, "sg", 21, True), (3, 2, "cg", 1500, False)],
    ids=["a-reader-early-the-drawer-waits", "the-drawer-mid-run-this-process-reads"],
)
def test_a_stream_partner_that_ends_is_seen(monkeypatch, cpus, runs, label, snapshot, reader):
    """fig6 over 11 blocks; run 1's ``sg`` (a reader's group) or ``cg`` (the
    drawer's) diverges, and its process ends. At 4 CPUs and 3 runs, run 1's
    drawer is worker 2, which sends its blocks to the reader, worker 3, and
    waits once the pipe is full; worker 1 lives on into run 2. At 3 CPUs and
    2 runs, worker 2 draws run 1 and this process reads it. Every pipe end
    is open only in its two processes, so a receive ends at EOF and a send
    fails with EPIPE, and the run is run again here, with the message and
    the cause chain of one process.
    """
    monkeypatch.setattr(harness, "_cpus", lambda: cpus)
    (fig6,) = preset("fig6", runs=runs)
    config = replace(fig6, **_LONG["fig6"])
    count, groups = harness._plan(config, None)
    assert count == cpus and [fig6.algorithms[j].label for j in groups[0]] == ["cg", "mvdr"]
    assert (label in [fig6.algorithms[j].label for j in groups[1]]) == reader
    _poison_run_1(monkeypatch, config, label, snapshot)
    with _deadline():
        serial = _divergence(config, 1)
        fds = _fds()
        forked = _divergence(config, None)
    assert str(serial) == f"run 1: non-finite sinr for algorithm {label!r} at snapshot {snapshot}"
    assert str(forked) == str(serial)
    assert _causes(forked) == _causes(serial)
    assert multiprocessing.active_children() == []
    assert _fds() == fds


@pytest.mark.parametrize("workers", [0, -1, True, 1.5, "2"])
def test_workers_that_are_not_a_count_refused(workers):
    with pytest.raises(ConfigError, match=r"^workers must be"):
        run_experiment(preset("fig4", runs=1)[0], workers=workers)


@pytest.mark.parametrize("workers", [None, 3, 10**9])
def test_workers_capped_at_cpus_and_units(monkeypatch, workers):
    """Planned only: no process is started."""
    monkeypatch.setattr(harness, "_cpus", lambda: 4)
    (fig6,) = preset("fig6")
    (fig9,) = preset("fig9")
    for runs, want in ((1, 4), (2, 4), (3, 4), (50, 4)):
        assert harness._plan(replace(fig6, runs=runs), workers)[0] == min(want, workers or 4)
    assert harness._plan(replace(fig9, runs=1), workers)[0] == 2  # two that cost
    lone = replace(fig9, runs=1, algorithms=fig9.algorithms[:1])
    assert harness._plan(lone, workers) == (1, [(0,)])


def test_groups_balance_the_cost_per_kind():
    (fig6,) = preset("fig6", runs=1)
    labels = [[fig6.algorithms[j].label for j in roster] for roster in harness._plan(fig6, 2)[1]]
    assert labels == [["cg", "mvdr"], ["smcg", "sg", "rls"]]
    only_mvdr = replace(fig6, algorithms=(algo("a", "mvdr"), algo("b", "mvdr")))
    assert harness._plan(only_mvdr, 2) == (1, [(0, 1)])


def test_wrapped_run_experiment_forks_nothing(monkeypatch):
    """A tracer that wraps ``run_experiment`` by name sees every call in its
    own process; without the wrapper a fork is tried, and when it fails the
    experiment runs in this process."""
    monkeypatch.setattr(harness, "_cpus", lambda: 2)
    forks = []

    def failing_fork():
        forks.append(True)
        raise OSError("no fork here")

    monkeypatch.setattr(harness.os, "fork", failing_fork)
    (fig6,) = preset("fig6", runs=1)
    config = replace(fig6, n_snapshots=300)
    plain = run_experiment(config)
    assert forks == [True]
    function = harness.run_experiment
    monkeypatch.setattr(harness, "run_experiment", lambda *args, **kw: function(*args, **kw))
    wrapped = harness.run_experiment(config)
    assert forks == [True]
    assert wrapped.mean_sinr_db["cg"].tobytes() == plain.mean_sinr_db["cg"].tobytes()
    assert multiprocessing.active_children() == []


def test_a_stream_that_cannot_be_made_runs_here(monkeypatch, tmp_path):
    """fig6 at one run and 4 CPUs needs 3 readers, and a pipe to each, a
    socket pair, before any worker's result pipe; the third fails as at the
    descriptor limit. The ends already made are closed, and the experiment
    runs in this process."""
    monkeypatch.setattr(harness, "_cpus", lambda: 4)
    made, socketpair = [], socket.socketpair

    def failing_socketpair(*args):
        if len(made) == 2:
            raise OSError(24, "Too many open files")
        made.append(socketpair(*args))
        return made[-1]

    (fig6,) = preset("fig6", runs=1)
    config = replace(fig6, n_snapshots=300)
    serial = run_experiment(config, workers=1)
    fds = _fds()
    monkeypatch.setattr(socket, "socketpair", failing_socketpair)
    forked = run_experiment(config)
    monkeypatch.undo()
    assert len(made) == 2 and _fds() == fds
    assert forked.mean_sinr_db["smcg"].tobytes() == serial.mean_sinr_db["smcg"].tobytes()
    assert multiprocessing.active_children() == []


def test_another_thread_alive_forks_nothing(monkeypatch):
    monkeypatch.setattr(harness, "_cpus", lambda: 2)
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        assert harness._fork_context() is None
    finally:
        done.set()
        other.join()
    assert harness._fork_context() is not None
