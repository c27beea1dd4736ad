"""Variable-metric linesearch proximal-gradient solver.

Each outer iteration picks a steplength and a diagonal scaling, computes a
(possibly inexact) scaled proximal point with a duality-gap certificate,
backtracks on the merit value of that point until an Armijo-type sufficient
decrease holds, and finally takes whichever of the proximal point and the
linesearch point has the smaller objective.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from itertools import repeat

import numpy as np

from . import diagnostics
from .prox import InexactProxError
from .strategies import METRIC_STRATEGIES, STEPLENGTH_STRATEGIES, DiagonalMetric

__all__ = [
    "SolverConfig",
    "IterateState",
    "IterateRecord",
    "Trace",
    "SolveResult",
    "SolverError",
    "LinesearchError",
    "armijo_backtrack",
    "solver_step",
    "minimize",
]


LAM_MIN = 2.0**-60  # the smallest probed step fraction: 61 probes at delta = 0.5


class SolverError(RuntimeError):
    pass


class LinesearchError(SolverError):
    """Backtracking passed :data:`LAM_MIN`, or accepted a probe that rounds
    to the iterate itself although the merit value promised a decrease
    beyond :func:`~vmprox.diagnostics.merit_slack`.  Finite termination with
    a moving step is guaranteed in exact arithmetic, so either signals a
    gradient or prox bug.

    Escaping :func:`minimize`, it names the outer iteration ``k`` in its
    message and attribute, as an :class:`InexactProxError` does.
    """

    k = None

    def __init__(self, message, probes):
        super().__init__(message)
        self.probes = probes


@dataclass(frozen=True)
class SolverConfig:
    """Scalar hyperparameters of the outer iteration.

    ``gamma`` switches the quadratic term of the linesearch merit on and
    off, ``tau`` controls the accepted proximal inexactness, ``delta`` and
    ``beta`` are the backtracking ratio and the sufficient-decrease
    fraction, and ``mu`` bounds the scaling's eigenvalues.
    """

    alpha_min: float = 1e-5
    alpha_max: float = 1e2
    mu: float = 1e10
    delta: float = 0.5
    beta: float = 1e-4
    gamma: float = 1.0
    tau: float = 1e6 - 1
    max_outer_iters: int = 500
    stop_tol: float = 1e-8

    def __post_init__(self):
        if not 0 < self.alpha_min <= self.alpha_max:
            raise ValueError("need 0 < alpha_min <= alpha_max")
        if self.mu < 1:
            raise ValueError("mu must be at least 1")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if not 0 < self.beta < 1:
            raise ValueError("beta must lie in (0, 1)")
        if not 0 <= self.gamma <= 1:
            raise ValueError("gamma must lie in [0, 1]")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.max_outer_iters < 0:
            raise ValueError("max_outer_iters must be nonnegative")
        if self.stop_tol < 0:
            raise ValueError("stop_tol must be nonnegative")


@dataclass
class IterateState:
    """Current iterate with cached objective pieces."""

    x: np.ndarray
    f_value: float
    f1_value: float
    grad_f0: np.ndarray
    k: int


@dataclass(slots=True)
class IterateRecord:
    """One trace row per outer iteration.

    ``f_value`` is the objective at the iterate the step started from;
    ``f_next`` the objective at the produced iterate.  ``flags`` is a
    bitmask with one bit per runtime audit (1 = satisfied), see
    :mod:`vmprox.diagnostics`.
    """

    k: int
    f_value: float
    alpha: float
    lam: float
    backtracks: int
    step_norm: float
    dist_tilde: float
    h_gamma: float
    epsilon_k: float
    inner_iters: int
    chose_tilde: bool
    f_tilde: float
    f_linesearch: float
    f_next: float
    flags: int
    y_tilde: np.ndarray | None = field(default=None, repr=False)


# One column per scalar field of IterateRecord, in field order.
_COLUMN_TYPES = {"float": np.float64, "int": np.int64, "bool": np.bool_}
TRACE_DTYPE = np.dtype([(f.name, _COLUMN_TYPES[f.type])
                        for f in fields(IterateRecord) if f.name != "y_tilde"])
_row_of = operator.attrgetter(*TRACE_DTYPE.names)


class Trace(Sequence):
    """The records of one solve, stored as columns.

    ``rows`` is a read-only structured array with one row per record and
    one float64, int64 or bool column per scalar field of
    :class:`IterateRecord`, in field order: 113 bytes a row, where a record
    object with its boxed floats takes about 320.  Indexing and
    iteration build :class:`IterateRecord` objects whose fields read back
    bit for bit, as Python floats, ints and bools; a slice is a list of
    them.  The prox points are kept, as a list, only when some record
    carries one.  A trace compares equal to a list of the same records.
    """

    __slots__ = ("rows", "_y_tilde")

    def __init__(self, records):
        records = list(records)
        self.rows = np.array([_row_of(r) for r in records], dtype=TRACE_DTYPE)
        self.rows.flags.writeable = False
        points = [r.y_tilde for r in records]
        self._y_tilde = points if any(y is not None for y in points) else None

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        point = None if self._y_tilde is None else self._y_tilde[index]
        return IterateRecord(*self.rows[index].item(), y_tilde=point)

    def __iter__(self):
        points = repeat(None) if self._y_tilde is None else self._y_tilde
        for row, point in zip(self.rows.tolist(), points):
            yield IterateRecord(*row, y_tilde=point)

    def __eq__(self, other):
        if not isinstance(other, (list, Trace)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self):
        return f"Trace({list(self)!r})"


@dataclass
class SolveResult:
    """The final iterate ``x`` and the :class:`Trace` of the iterations
    that produced it, one record per outer iteration."""

    x: np.ndarray
    trace: Trace


def armijo_backtrack(state, y_tilde, h_gamma_tilde, f1_tilde, problem, config):
    """Smallest ``i`` with ``f(x + delta^i d) <= f(x) + beta delta^i h_gamma``.

    Probes are convex combinations of the current iterate and the proximal
    point, hence feasible; the ``lam = 1`` probe is ``y_tilde`` itself, whose
    ``f1`` value ``f1_tilde`` the prox already computed.  Each probe costs
    one ``f0`` and, past the first, one ``f1``.  Probing stops at the step
    fraction :data:`LAM_MIN`; past it a :class:`LinesearchError` carries
    every probe.  So does an accepted probe equal to ``state.x`` bit for bit
    while ``-h_gamma_tilde`` exceeds the merit slack: only a wrong gradient
    or prox makes a genuine descent direction fail down to rounding.  At or
    within the slack such a step means stationary to rounding.  Returns
    ``(lam, f_new, backtracks, x_probe, f1_new, f_tilde)``, where
    ``f_tilde`` is the objective at ``y_tilde``.
    """
    probes = []
    lam = 1.0
    x_probe, f1_probe = y_tilde, f1_tilde
    while lam >= LAM_MIN:
        if probes:
            x_probe = (1.0 - lam) * state.x + lam * y_tilde
            f1_probe = problem.f1(x_probe)
        f_probe = problem.f0(x_probe) + f1_probe if np.isfinite(f1_probe) else np.inf
        probes.append((lam, f_probe))
        if f_probe <= state.f_value + config.beta * lam * h_gamma_tilde:
            if (-h_gamma_tilde > diagnostics.merit_slack(state.f_value)
                    and np.array_equal(x_probe, state.x)):
                raise LinesearchError(
                    f"probe {len(probes)} at lam={lam:.3e} rounds to the "
                    f"iterate although h_gamma={h_gamma_tilde:.3e}", probes)
            return lam, f_probe, len(probes) - 1, x_probe, f1_probe, probes[0][1]
        lam *= config.delta
    raise LinesearchError(
        f"no sufficient decrease within {len(probes)} probes down to "
        f"lam={LAM_MIN:.3e} (h_gamma={h_gamma_tilde:.3e})",
        probes,
    )


def solver_step(state, problem, config, metric_strategy, steplength_strategy,
                retain_prox_points=False):
    """One outer iteration; returns the next state and its trace record.

    The only place proposals are clamped: the metric strategy's ``D^{-1}``
    into ``[1/mu, mu]``, then the steplength strategy's step, which sees
    that metric, into ``[alpha_min, alpha_max]``.
    """
    metric = DiagonalMetric.from_inverse_diag(
        metric_strategy.metric(state.x, state.grad_f0, problem), config.mu
    )
    alpha = float(
        np.clip(
            steplength_strategy.choose(state.x, state.grad_f0, metric, problem),
            config.alpha_min,
            config.alpha_max,
        )
    )
    steplength_strategy.update(state.x, state.grad_f0, metric, alpha, problem)

    cert = problem.prox.solve(
        state.x,
        state.grad_f0,
        state.f1_value,
        alpha,
        metric,
        config.gamma,
        config.tau,
    )
    if cert.h_gamma > diagnostics.merit_slack(state.f_value):
        raise SolverError(
            f"prox certificate has positive merit value {cert.h_gamma:.3e}"
        )
    y_tilde = cert.y_tilde

    lam, f_ls, backtracks, x_ls, f1_ls, f_tilde = armijo_backtrack(
        state, y_tilde, cert.h_gamma, cert.f1_tilde, problem, config
    )
    if f_tilde < f_ls:
        x_next, f_next, f1_next, chose_tilde = y_tilde, f_tilde, cert.f1_tilde, True
    else:
        x_next, f_next, f1_next, chose_tilde = x_ls, f_ls, f1_ls, False

    dist_tilde = float(np.linalg.norm(y_tilde - state.x))
    step_norm = float(np.linalg.norm(x_next - state.x))
    record = IterateRecord(
        k=state.k,
        f_value=state.f_value,
        alpha=alpha,
        lam=lam,
        backtracks=backtracks,
        step_norm=step_norm,
        dist_tilde=dist_tilde,
        h_gamma=cert.h_gamma,
        epsilon_k=cert.epsilon_k,
        inner_iters=cert.inner_iters,
        chose_tilde=chose_tilde,
        f_tilde=f_tilde,
        f_linesearch=f_ls,
        f_next=f_next,
        flags=0,
        y_tilde=np.array(y_tilde) if retain_prox_points else None,
    )
    record.flags = diagnostics.iteration_flags(record, config)

    next_state = IterateState(x=x_next, f_value=f_next, f1_value=f1_next,
                              grad_f0=problem.grad_f0(x_next), k=state.k + 1)
    return next_state, record


def _initial_state(problem, x0):
    x0 = np.asarray(x0, dtype=float).copy()
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 has non-finite entries")
    if not problem.in_domain(x0):
        raise ValueError("x0 is infeasible")
    f1_0 = problem.f1(x0)
    return IterateState(x=x0, f_value=problem.f0(x0) + f1_0, f1_value=f1_0,
                        grad_f0=problem.grad_f0(x0), k=0)


def _strategy(spec, table, role):
    """``spec`` itself, or a new instance of the class that ``table`` maps
    the name ``spec`` to."""
    if not isinstance(spec, str):
        return spec
    if spec not in table:
        raise ValueError(f"unknown {role} strategy {spec!r}")
    return table[spec]()


def minimize(problem, config, x0, metric="identity", steplength="bb",
             retain_prox_points=False):
    """Run the outer loop from ``x0``.

    ``metric`` and ``steplength`` may be strategy names, keys of
    ``METRIC_STRATEGIES`` and ``STEPLENGTH_STRATEGIES``, or strategy
    instances; a metric strategy proposes the entries of ``D^{-1}`` and a
    steplength strategy a steplength, and :func:`solver_step` clamps both.
    Stops after ``config.max_outer_iters`` iterations or when
    the relative step norm drops to ``config.stop_tol``.  Returns a
    :class:`SolveResult` whose :class:`Trace` has one record per iteration
    performed.
    An :class:`InexactProxError` or :class:`LinesearchError` leaves with the
    failing outer iteration as its ``k`` and at the head of its message.
    The per-run state of the problem and of both strategies is cleared when
    the solve starts and when it ends, whether it returns or raises.
    """
    metric = _strategy(metric, METRIC_STRATEGIES, "metric")
    steplength = _strategy(steplength, STEPLENGTH_STRATEGIES, "steplength")
    for part in (problem, metric, steplength):
        part.reset()
    try:
        state = _initial_state(problem, x0)
        trace = []
        for _ in range(config.max_outer_iters):
            x_prev_norm = float(np.linalg.norm(state.x))
            try:
                state, record = solver_step(
                    state, problem, config, metric, steplength,
                    retain_prox_points=retain_prox_points,
                )
            except (InexactProxError, LinesearchError) as exc:
                exc.k = state.k
                exc.args = (f"outer iteration {state.k}: {exc.args[0]}",
                            *exc.args[1:])
                raise
            trace.append(record)
            if x_prev_norm > 0.0:
                rel_step = record.step_norm / x_prev_norm
            else:
                rel_step = record.step_norm
            if rel_step <= config.stop_tol:
                break
    finally:
        for part in (problem, metric, steplength):  # even after a failure
            part.reset()
    return SolveResult(x=state.x, trace=Trace(trace))
