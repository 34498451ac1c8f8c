"""The one runner of an epoch's candidate losses: in turn in this process,
through one workspace, or in W forked workers. A search forks its workers
once, after its data is prepared, so they inherit the training and
validation sets, the pairs and the settings without a copy. Each epoch the
parent writes the start parameters and velocity into an anonymous shared
mapping and sends each worker one message down its pipe: the epoch's
learning rate and stream and the worker's share of the candidates,
candidate i going to worker i mod W. Every candidate does the same
arithmetic on the same shapes, so the fixed shares balance the load. The
worker reads the start once and runs `train_candidate` for each candidate
of its share in turn, writes the trained parameters and velocity into the
candidate's slot of the mapping, and sends back the mean loss, reward,
timings and the warnings it raised. Each candidate does the arithmetic it
does in process, so every result is bit-identical. The workers are forked,
not spawned, so that they inherit the data; the command line forks them
from its one thread.
"""

from __future__ import annotations

import functools
import mmap
import os
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np

from .contracts import require
from .embed_model import unflatten
from .numerics import Workspace, one_blas_thread
from .sgd_trainer import CandidateOutcome, TrainState, train_candidate

# How long a closed worker gets to exit before it is killed.
_JOIN_S = 5.0


class CandidateWorkerError(RuntimeError):
    """A worker process ended before it returned one of its candidates."""


class _WorkerTraceback(Exception):
    """The traceback of an error raised in a worker, chained to the error
    the parent raises as its cause."""


def candidate_processes(population: int) -> int:
    """How many processes train a search epoch's candidates: min(population,
    usable CPUs), or 1 where the fork start method is missing. Usable CPUs
    are those this process may run on, capped by the whole CPUs its cgroup
    CPU quota allows. With 1 a search trains its candidates in process."""
    if not hasattr(os, "fork"):
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity is not None else os.cpu_count() or 1
    quota = cgroup_cpu_quota()
    if quota is not None:
        cpus = min(cpus, int(quota))
    return max(1, min(population, cpus))


def cgroup_cpu_quota(proc_cgroup="/proc/self/cgroup", root="/sys/fs/cgroup"):
    """CPUs' worth of time per period that the CPU quotas of this process's
    cgroup and its ancestors allow (cgroup v2 `cpu.max`, v1
    `cpu.cfs_quota_us` over `cpu.cfs_period_us`), the smallest of them;
    None where no quota is set or none can be read."""
    try:
        lines = Path(proc_cgroup).read_text(encoding="utf-8").splitlines()
    except OSError:
        return None
    quotas = []
    for line in lines:
        _, controllers, path = line.split(":", 2)
        if controllers == "":
            base, read = Path(root), _v2_quota
        elif "cpu" in controllers.split(","):
            base, read = Path(root) / controllers, _v1_quota
        else:
            continue
        # A container may mount its own cgroup as the root, so the path read
        # here need not exist under it: read every level that does.
        directory = base / path.lstrip("/")
        for level in (directory, *directory.parents):
            try:
                quota = read(level)
            except (OSError, ValueError):
                quota = None
            if quota is not None:
                quotas.append(quota)
            if level == base:
                break
    return min(quotas, default=None)


def _v2_quota(directory: Path):
    quota, period = (directory / "cpu.max").read_text(encoding="utf-8").split()
    return None if quota == "max" else int(quota) / int(period)


def _v1_quota(directory: Path):
    quota = int((directory / "cpu.cfs_quota_us").read_text(encoding="utf-8"))
    period = int((directory / "cpu.cfs_period_us").read_text(encoding="utf-8"))
    return None if quota < 0 else quota / period


class _Slots:
    """Parameter and velocity vectors in an anonymous shared mapping made
    before the fork: slot 0 holds an epoch's start, slot i + 1 candidate i."""

    def __init__(self, count: int, template: TrainState):
        self._template = template
        self._map = mmap.mmap(-1, count * 2 * template.params.nbytes)
        self.vectors = np.frombuffer(self._map, np.float64).reshape(
            count, 2, template.params.size)

    def write(self, slot: int, state: TrainState) -> None:
        self.vectors[slot, 0] = state.params
        self.vectors[slot, 1] = state.velocity

    def read(self, slot: int, epoch: int, copy: bool) -> TrainState:
        params, velocity = self.vectors[slot]
        if copy:
            params, velocity = params.copy(), velocity.copy()
        return TrainState(params, velocity,
                          *unflatten(params, self._template.model, self._template.head),
                          epoch)


def _serve(index, pipes, slots, data, config, score) -> None:
    """A worker: train and score each epoch's share of candidates it is
    sent, in order, recording each one's warnings, until its pipe closes.
    Exits quietly on SIGINT. It is forked pinned to one OpenBLAS thread, as
    workers share the CPUs, and leaves the count alone: setting it again
    would restart a pool thread that spins against the work and can take a
    SIGINT meant for the worker."""
    conn = pipes[index][1]
    for i, (parent_end, child_end) in enumerate(pipes):
        # Only the parent may hold the other ends, so that a closed pipe
        # reads as end of file on either side.
        parent_end.close()
        if i != index:
            child_end.close()
    workspace = Workspace()
    try:
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            while True:
                try:
                    lr, stream, epoch, share = conn.recv()
                except EOFError:
                    return
                start = slots.read(0, epoch, copy=False)
                for candidate, loss in share:
                    del log[:]
                    summary, error, trace = None, None, None
                    try:
                        outcome = train_candidate(start, loss, data, config, lr, stream,
                                                  workspace, score)
                    except Exception as exc:  # the parent raises it, as in process
                        error, trace = exc, traceback.format_exc()
                    else:
                        slots.write(candidate + 1, outcome.state)
                        summary = (outcome.mean_loss, outcome.reward, outcome.train_s,
                                   outcome.reward_s)
                    records = [(w.message, w.category, w.filename, w.lineno) for w in log]
                    conn.send((summary, error, trace, records))
    except (KeyboardInterrupt, BrokenPipeError, ConnectionResetError):
        return


@functools.cache
def _module_at(filename: str):
    return next((module for module in list(sys.modules.values())
                 if getattr(module, "__file__", None) == filename), None)


def _reissue(records) -> None:
    """Issue warnings recorded in a worker as a warning raised here would be:
    through this process's filters and the registry of the module that
    raised it, so a warning shown once here stays shown once."""
    for message, category, filename, lineno in records:
        module = _module_at(filename)
        if module is None:
            warnings.warn_explicit(message, category, filename, lineno)
        else:
            warnings.warn_explicit(message, category, filename, lineno,
                                   module=module.__name__,
                                   registry=vars(module).setdefault("__warningregistry__", {}))


class CandidateWorkers:
    """Trains and scores the candidates of one run: in turn in this
    process for `processes` 1, else each of that many forked workers a
    fixed share of every epoch. Leaving the context closes every pipe and
    joins every worker, and on an exception terminates them first."""

    def __init__(self, processes: int, template: TrainState, population: int, data,
                 config, score):
        require(processes >= 1, "need at least one worker process")
        self._conns, self._procs = [], []
        if processes == 1:
            self._local = (data, config, Workspace(), score)
            return
        # Imported here, not with the module: the import costs every command
        # about 13 ms, and only a search with workers needs it.
        import multiprocessing

        context = multiprocessing.get_context("fork")
        self._slots = _Slots(1 + population, template)
        pipes = [context.Pipe() for _ in range(processes)]
        self._conns = [parent_end for parent_end, _ in pipes]
        try:
            with one_blas_thread():
                for index in range(processes):
                    proc = context.Process(target=_serve, name=f"lfsearch-candidates-{index}",
                                           args=(index, pipes, self._slots, data, config, score),
                                           daemon=True)
                    proc.start()
                    self._procs.append(proc)
        except BaseException:
            self.close(abort=True)
            raise
        finally:
            for _, child_end in pipes:
                child_end.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_exc):
        self.close(abort=exc_type is not None)
        return False

    def close(self, abort: bool = False) -> None:
        for conn in self._conns:
            conn.close()
        for proc in self._procs:
            if abort:
                proc.terminate()
            proc.join(_JOIN_S)
            if proc.exitcode is None:
                proc.kill()
                proc.join()

    def run(self, state: TrainState, losses, lr: float, epoch_stream):
        """Outcomes of the candidate MarginSpecs, in the order of `losses`.
        In process the first failure stops the epoch. Otherwise each of the
        W workers gets one message with its share, candidates w, w + W, ...,
        and replies once per candidate, in order. Every reply is in before
        warnings come back in candidate order, and the first failing
        candidate's error is raised after its warnings, as in process."""
        if not self._conns:
            data, config, workspace, score = self._local
            return [train_candidate(state, loss, data, config, lr, epoch_stream, workspace,
                                    score) for loss in losses]
        self._slots.write(0, state)
        count = len(self._conns)
        candidates = list(enumerate(losses))
        for w, conn in enumerate(self._conns):
            try:
                conn.send((lr, epoch_stream, state.epoch, candidates[w::count]))
            except OSError:
                pass  # a dead worker is named where its first reply is missing
        replies = []
        for i in range(len(losses)):
            try:
                replies.append(self._conns[i % count].recv())
            except (EOFError, OSError):
                proc = self._procs[i % count]
                proc.join(_JOIN_S)
                raise CandidateWorkerError(
                    f"candidate {i}: worker process {proc.pid} ended "
                    f"(exit code {proc.exitcode}) before returning it") from None
        outcomes = []
        for i, (summary, error, trace, records) in enumerate(replies):
            _reissue(records)
            if error is not None:
                raise error from _WorkerTraceback(trace)
            outcomes.append(CandidateOutcome(
                self._slots.read(i + 1, state.epoch + 1, copy=True), *summary))
        return outcomes
