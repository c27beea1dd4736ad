"""Variable-metric linesearch proximal-gradient optimization toolkit."""

from .diagnostics import AuditReport, audit_trace, dense_prox_oracle, fd_gradient_check, mse, psnr
from .operators import (
    ConvOperator2D,
    ForwardDifference2D,
    gaussian_psf,
    isotropic_tv,
    laplacian,
)
from .problems import (
    CauchyDeblurProblem,
    MaskCompressionProblem,
    SignalDependentGaussianProblem,
    Toy1DBoxProblem,
    cartoon_image,
    degrade_synthetic,
    smooth_image,
)
from .prox import (
    BoxProx,
    DualTVProx,
    InexactProxError,
    ProxCertificate,
    TVNonnegRegularizer,
    exact_prox_box,
    project_dual_tv,
)
from .solver import (
    IterateRecord,
    LinesearchError,
    SolveResult,
    SolverConfig,
    SolverError,
    minimize,
)
from .strategies import DiagonalMetric

__version__ = "0.1.0"
