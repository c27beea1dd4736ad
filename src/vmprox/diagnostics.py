"""Runtime audits, image-quality metrics and independent oracles.

The audit checks re-derive, from the per-iteration trace, the descent
inequalities that the outer iteration guarantees by construction; any
violation beyond floating-point slack indicates an implementation bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .prox import BoxProx, TVNonnegRegularizer

__all__ = [
    "AUDIT_NAMES",
    "AuditReport",
    "IncompleteTraceError",
    "iteration_flags",
    "audit_trace",
    "psnr",
    "mse",
    "fd_gradient_check",
    "dense_prox_oracle",
    "adjoint_max_residual",
]

# Slack absorbing summation-order noise at 64-bit precision; violations
# beyond it are hard failures.
TOL_ABS = 1e-10
TOL_REL = 1e-12

AUDIT_NAMES = (
    "h_gamma_nonpositive",
    "prox_distance_bound",
    "step_choice_descent",
    "step_contraction",
    "monotone_objective",
    "armijo_at_accepted",
)

_REQUIRED_FIELDS = (
    "f_value",
    "f_tilde",
    "f_linesearch",
    "f_next",
    "h_gamma",
    "lam",
    "dist_tilde",
    "step_norm",
)


class IncompleteTraceError(ValueError):
    """Trace records are missing fields needed by the audits."""


def _leq(lhs, rhs):
    return lhs <= rhs + TOL_ABS + TOL_REL * max(abs(lhs), abs(rhs))


def merit_slack(f_value):
    """Rounding residue up to which a merit value ``h_gamma`` at an iterate
    with objective ``f_value`` counts as nonpositive, in the solver and in
    audit 1."""
    return 1e-10 * (1.0 + abs(f_value))


def _record_checks(rec, config):
    # audit 1 owns the sign of h_gamma; a residue it accepts bounds nothing
    bound = (4.0 * config.alpha_max * config.mu * (1.0 + config.tau)
             * max(0.0, -rec.h_gamma))
    return (
        rec.h_gamma <= merit_slack(rec.f_value),
        _leq(rec.dist_tilde**2, bound),
        _leq(rec.f_next, min(rec.f_tilde, rec.f_linesearch)),
        _leq(rec.step_norm, rec.dist_tilde),
        _leq(rec.f_next, rec.f_value),
        _leq(rec.f_linesearch, rec.f_value + config.beta * rec.lam * rec.h_gamma),
    )


def iteration_flags(rec, config):
    """Bitmask of per-iteration audits, bit ``i`` set when check ``i`` holds."""
    mask = 0
    for bit, ok in enumerate(_record_checks(rec, config)):
        if ok:
            mask |= 1 << bit
    return mask


@dataclass
class AuditReport:
    """Outcome of auditing a solver trace.

    ``violation_counts`` maps each audit name to the exact number of
    iterations violating it; ``violations`` lists ``(k, name)`` pairs.
    Monitored sequences have no computable a-priori bounds and are reported
    without assertions; the constant ``a_empirical`` uses the observed
    minimum linesearch step as a proxy and is labeled accordingly.
    """

    n_iterations: int
    violation_counts: dict
    violations: list = field(default_factory=list)
    epsilon: np.ndarray = field(default_factory=lambda: np.zeros(0))
    lambda_min_observed: float = float("nan")
    a_empirical: float = float("nan")

    @property
    def total_violations(self):
        return sum(self.violation_counts.values())

    @property
    def ok(self):
        return self.total_violations == 0

    def to_dict(self):
        return {
            "n_iterations": self.n_iterations,
            "violation_counts": dict(self.violation_counts),
            "violations": [[int(k), name] for k, name in self.violations],
            "total_violations": self.total_violations,
            "ok": self.ok,
            "epsilon_max": float(self.epsilon.max(initial=0.0)),
            "epsilon_final": float(self.epsilon[-1]) if self.epsilon.size else None,
            "lambda_min_observed": self.lambda_min_observed,
            "a_empirical": self.a_empirical,
        }


def audit_trace(trace, config):
    """Re-check the descent inequalities over a full trace.

    For every iteration: (1) nonpositive linesearch merit at the proximal
    point, (2) squared prox distance controlled by that merit value,
    (3) the produced iterate beats both candidate points, (4) step norm
    bounded by the prox distance, (5) monotone objective, (6) the Armijo
    inequality at the accepted step.  Check (1) allows
    :func:`merit_slack`; the others use absolute slack ``1e-10`` plus
    relative slack ``1e-12``.
    """
    counts = {name: 0 for name in AUDIT_NAMES}
    violations = []
    eps = []
    lam_min = np.inf
    for rec in trace:
        for name in _REQUIRED_FIELDS:
            if getattr(rec, name, None) is None:
                raise IncompleteTraceError(f"record {rec!r} lacks {name}")
        for name, ok in zip(AUDIT_NAMES, _record_checks(rec, config)):
            if not ok:
                counts[name] += 1
                violations.append((rec.k, name))
        eps.append(rec.epsilon_k)
        lam_min = min(lam_min, rec.lam)

    a_emp = float("nan")
    if np.isfinite(lam_min):
        a_emp = config.beta * lam_min / (
            4.0 * config.alpha_max * config.mu * (1.0 + config.tau)
        )
    return AuditReport(
        n_iterations=len(trace),
        violation_counts=counts,
        violations=violations,
        epsilon=np.asarray(eps),
        lambda_min_observed=float(lam_min) if np.isfinite(lam_min) else float("nan"),
        a_empirical=a_emp,
    )


def mse(x, x_true):
    """Mean squared error between two equally sized rasters."""
    x = np.asarray(x, dtype=float).ravel()
    x_true = np.asarray(x_true, dtype=float).ravel()
    if x.size != x_true.size:
        raise ValueError("size mismatch")
    d = x - x_true
    return float(np.dot(d, d) / x.size)


def psnr(x, x_true):
    """Peak signal-to-noise ratio, with the peak taken as the range of the
    reconstruction itself: ``10 log10(n (max x - min x)^2 / ||x_true - x||^2)``.

    Returns ``inf`` when the arguments coincide; a constant reconstruction
    has no defined peak and raises.
    """
    x = np.asarray(x, dtype=float).ravel()
    x_true = np.asarray(x_true, dtype=float).ravel()
    if x.size != x_true.size:
        raise ValueError("size mismatch")
    d = x_true - x
    err = float(np.dot(d, d))
    if err == 0.0:
        return np.inf
    rng = float(x.max() - x.min())
    if rng == 0.0:
        raise ValueError("PSNR undefined for a constant reconstruction")
    return 10.0 * np.log10(x.size * rng**2 / err)


def fd_gradient_check(f_eval, grad_eval, x, h, trials, seed=0):
    """Max relative error of the gradient against central differences at
    ``trials`` random coordinates."""
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    coords = rng.choice(x.size, size=min(trials, x.size), replace=False)
    grad = np.asarray(grad_eval(x))
    scale = float(np.abs(grad).max()) + 1e-300
    worst = 0.0
    for i in coords:
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        fd = (f_eval(xp) - f_eval(xm)) / (2.0 * h)
        denom = max(abs(fd), abs(grad[i]), 1e-10 * scale)
        worst = max(worst, abs(fd - grad[i]) / denom)
    return worst


def adjoint_max_residual(op, trials=20, seed=0):
    """Largest relative adjoint-identity residual over random vector pairs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(op.n_in)
        y = rng.standard_normal(op.n_out)
        ax = op.apply(x)
        aty = op.adjoint(y)
        s1 = float(np.dot(ax, y))
        s2 = float(np.dot(x, aty))
        denom = max(
            np.linalg.norm(ax) * np.linalg.norm(y),
            np.linalg.norm(x) * np.linalg.norm(aty),
            1e-300,
        )
        worst = max(worst, abs(s1 - s2) / denom)
    return worst


def _box_prox_reference(z, alpha, metric, lower, upper, iters):
    d = metric.diag
    step = alpha / float(d.max())
    start = min(max(0.0, lower), upper)
    y = np.full_like(z, start)
    for _ in range(iters):
        y_next = np.clip(y - step * d * (y - z) / alpha, lower, upper)
        if np.array_equal(y_next, y):  # exact fixed point: later steps repeat it
            break
        y = y_next
    return y


def _tv_prox_reference(z, alpha, metric, reg, iters):
    # Lifted splitting t = Ay solved by ADMM: the y-subproblem is a dense SPD
    # solve (factorized once), the t-update is groupwise shrinkage plus a
    # nonnegative clip, both closed form.  The run stops once the primal
    # residual Ay - t and the dual residual sigma A^T (t - t_prev) fall below
    # absolute-plus-relative tolerances ``eps`` (Boyd et al. 2011, sec. 3.3),
    # or after ``iters`` iterations.  The regularizer's operator is
    # materialized; the oracle is restricted to tiny instances.
    n = reg.n
    p = reg.n_out
    d = metric.diag
    eye = np.eye(n)
    A_mat = np.column_stack([reg.apply(eye[:, j]) for j in range(n)])
    sigma = float(np.median(d)) / alpha
    M = np.diag(d / alpha) + sigma * (A_mat.T @ A_mat)
    cho = scipy.linalg.cho_factor(M)
    thresh = reg.rho / sigma
    base_rhs = d * z / alpha
    eps = 1e-14

    t = np.zeros(p)
    u = np.zeros(p)
    y = np.zeros(n)
    for _ in range(iters):
        y = scipy.linalg.cho_solve(cho, base_rhs + sigma * (A_mat.T @ (t - u)))
        Ay = A_mat @ y
        w = Ay + u
        pairs = w[: 2 * n].reshape(2, n)
        norms = np.hypot(pairs[0], pairs[1])
        scale = np.maximum(0.0, 1.0 - thresh / np.maximum(norms, 1e-300))
        t_new = np.empty_like(w)
        t_new[: 2 * n] = (pairs * scale).ravel()
        t_new[2 * n :] = np.maximum(w[2 * n :], 0.0)
        u = w - t_new
        r_pri = np.linalg.norm(Ay - t_new)
        r_dual = sigma * np.linalg.norm(A_mat.T @ (t_new - t))
        t = t_new
        tol_pri = eps * (np.sqrt(p) + max(np.linalg.norm(Ay), np.linalg.norm(t)))
        tol_dual = eps * (np.sqrt(n) + sigma * np.linalg.norm(A_mat.T @ u))
        if r_pri <= tol_pri and r_dual <= tol_dual:
            break
    return np.maximum(y, 0.0)


def dense_prox_oracle(z, alpha, metric, regularizer, iters=100_000):
    """Reference minimizer of the scaled proximal subproblem on tiny inputs.

    Runs a splitting iteration with closed-form pieces, independent of the
    dual-ascent solver it is used to check, for at most ``iters`` steps.
    ``regularizer`` is a :class:`~vmprox.prox.BoxProx` or a
    :class:`~vmprox.prox.TVNonnegRegularizer`.  Restricted to small sizes.
    """
    z = np.asarray(z, dtype=float)
    if z.size > 64:
        raise ValueError("dense oracle restricted to tiny instances")
    if isinstance(regularizer, BoxProx):
        return _box_prox_reference(
            z, alpha, metric, regularizer.lower, regularizer.upper, iters
        )
    if isinstance(regularizer, TVNonnegRegularizer):
        return _tv_prox_reference(z, alpha, metric, regularizer, iters)
    raise TypeError(f"unsupported regularizer {type(regularizer).__name__}")
