"""Correctness checks for benchmark solves.

Every check is an invariant that holds for any workload seed and any BLAS
thread count: zero audit violations, the whole iteration budget completed,
finite outputs, a PSNR floor on deblurring, prox certificates that satisfy
their own acceptance test, and agreement with recorded references within a
tolerance (never byte equality; the reduction order of threaded BLAS moves
the Cauchy 128x128 objective by about 2e-8 relative and its reconstruction
MSE by about 4e-5 relative).

Each function returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import math

import numpy as np

# Acceptance criterion 6's floor on the gain of a deblurring solve.
PSNR_GAIN_FLOOR_DB = 5.0

# DualTVProx accepts h_primal <= eta * psi_dual + 1e-14 * (1 + |psi_dual|);
# the outside audit grants the same slack and no more.
CERT_SLACK_REL = 1e-14


def certificate_violations(cert, tau):
    """Audit one ``ProxCertificate`` returned by ``DualTVProx.solve``.

    Weak duality ``psi_dual <= h_primal``, acceptance
    ``h_primal <= psi_dual / (1 + tau/2)`` and ``h_gamma <= 0``, each with
    the solver's own rounding slack.
    """
    eta = 1.0 / (1.0 + 0.5 * tau)
    slack = CERT_SLACK_REL * (1.0 + abs(cert.psi_dual))
    out = []
    if not cert.psi_dual <= cert.h_primal + slack:
        out.append(f"weak duality: psi_dual {cert.psi_dual!r} > h_primal {cert.h_primal!r}")
    if not cert.h_primal <= eta * cert.psi_dual + slack:
        out.append(f"acceptance: h_primal {cert.h_primal!r} > eta * psi_dual {eta * cert.psi_dual!r}")
    if not cert.h_gamma <= slack:
        out.append(f"h_gamma {cert.h_gamma!r} > 0")
    return out


def solve_failures(vp, records, config, budget, values, reference=None,
                   psnr_floor=None):
    """Check one solve: its trace, its scalar outputs and its references.

    ``records`` are the solver's trace records (or rows read back from a
    written trace), ``values`` the solve's scalar outputs by name, and
    ``reference`` maps some of those names to ``(value, rtol)``.
    """
    out = []
    report = vp.diagnostics.audit_trace(records, config)
    if not report.ok:
        out.append(f"{report.total_violations} audit violation(s): "
                   f"{report.violations[:3]}")
    if len(records) != budget:
        out.append(f"{len(records)} of {budget} iterations completed")
    for name, value in values.items():
        if value is None or not math.isfinite(value):
            out.append(f"{name} is not finite: {value!r}")
    gain = values.get("psnr_gain_db")
    if psnr_floor is not None and gain is not None and not gain >= psnr_floor:
        out.append(f"psnr_gain_db {gain:.3f} below the {psnr_floor} dB floor")
    for name, (ref, rtol) in (reference or {}).items():
        value = values.get(name)
        if value is None or not abs(value - ref) <= rtol * abs(ref):
            out.append(f"{name} {value!r} differs from reference {ref!r} "
                       f"by more than {rtol:g} relative")
    return out


def finite_failures(name, array):
    if not np.all(np.isfinite(array)):
        return [f"{name} has non-finite entries"]
    return []
