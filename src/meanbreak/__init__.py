"""LM-type test for a change in the mean of a heteroskedastic time series,
with its Brownian-bridge limit law, signal generators, asymptotic drift and
variance formulas, and a Monte Carlo size/power harness."""

import contextlib
import os
import pickle
import signal

from meanbreak.core import (
    CusumPath,
    DegenerateSeriesError,
    InsufficientDataError,
    NullEstimates,
    TestOutcome,
    absolute_transform,
    compute_returns,
    cusum_path,
    lm_test,
    null_estimates,
)
from meanbreak.dist import bridge_sup_cdf, bridge_sup_quantile, p_value

__version__ = "0.1.0"


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    keeps one (``taskset``, a cpuset container), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_map(fn, calls: list[tuple], names: list[str]) -> list:
    """``[fn(*args) for args in calls]``: the first call in this process,
    each other in a forked child, which pickles its result, or the exception
    it raised, into a pipe and ends.  Children are reaped in order and a
    child's exception is raised here; a child that ends without sending all
    of its result is a ChildProcessError naming it by ``names``.  On any
    error or interrupt, every child not yet reaped is killed and reaped.

    Fork, not spawn: a spawned child would import numpy again.  The callers
    call no BLAS, whose threads are the only ones numpy may have started.
    Plain children, not pool workers, so a daemonic pool worker may fork them
    too.  Where ``os.fork`` does not exist, every call runs in this process.
    """
    if not hasattr(os, "fork"):
        return [fn(*args) for args in calls]
    children = []  # (pid, pipe, name) of each child not yet reaped
    try:
        for args, name in zip(calls[1:], names[1:]):
            children.append((*_fork(fn, args), name))
        results = [fn(*calls[0])]
        while children:
            pid, pipe, name = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if status:
                raise ChildProcessError(
                    f"{name} ended with exit status {status} and sent no result"
                )
            result = pickle.loads(data)
            if isinstance(result, BaseException):
                raise result
            results.append(result)
    except BaseException:
        for pid, pipe, _ in children:
            pipe.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):  # reaped
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        raise
    return results


def _fork(fn, args: tuple):
    """Fork a child that runs ``fn(*args)``; return its pid and the read end
    of its pipe."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:  # the child, which ends here whatever happens
        status = 1
        try:
            os.close(read_fd)
            try:
                result = fn(*args)
            except BaseException as exc:
                result = exc
            with open(write_fd, "wb") as pipe:
                pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


# Below fork_map and usable_cpus, which montecarlo and reader import from here.
from meanbreak.montecarlo import (
    ExperimentConfig, RejectionTable, emit_table, preset, run_experiment,
)
from meanbreak.signals import (
    MeanSpec, SigmaSpec, TransitionSpec, ergodic_variance_limit, gaussian_stream,
    generate_series, mean_path, sigma_path, transition,
)

__all__ = [
    "CusumPath",
    "DegenerateSeriesError",
    "ExperimentConfig",
    "InsufficientDataError",
    "MeanSpec",
    "NullEstimates",
    "RejectionTable",
    "SigmaSpec",
    "TestOutcome",
    "TransitionSpec",
    "absolute_transform",
    "bridge_sup_cdf",
    "bridge_sup_quantile",
    "compute_returns",
    "cusum_path",
    "emit_table",
    "ergodic_variance_limit",
    "gaussian_stream",
    "generate_series",
    "lm_test",
    "mean_path",
    "null_estimates",
    "p_value",
    "preset",
    "run_experiment",
    "sigma_path",
    "transition",
    "usable_cpus",
]
