"""Experiment configuration: schema-validated YAML documents.

A configuration is one human-readable key-value document per experiment;
unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from . import pgm
from .operators import ConvOperator2D, gaussian_psf
from .problems import (
    DEBLUR_KINDS,
    CauchyDeblurProblem,
    MaskCompressionProblem,
    SignalDependentGaussianProblem,
    Toy1DBoxProblem,
    cartoon_image,
    degrade_synthetic,
    smooth_image,
)
from .solver import SolverConfig
from .strategies import METRIC_STRATEGIES, STEPLENGTH_STRATEGIES

__all__ = ["ConfigError", "ExperimentConfig", "load_experiment", "deblur_data",
           "build_problem"]

PROBLEM_KINDS = (*DEBLUR_KINDS, "compression", "toy1d")
METRICS = tuple(METRIC_STRATEGIES)
STEPLENGTHS = tuple(STEPLENGTH_STRATEGIES)

# Solver-section keys beyond the SolverConfig fields, with their defaults.
_RUN_DEFAULTS = {
    "metric": "identity",
    "steplength": "bb",
    "ritz_window": 3,
    "inner_limit": 5000,
    "warm_start": True,
}

_SOLVER_KEYS = {
    **{f.name: type(f.default) for f in fields(SolverConfig)},
    **{key: type(value) for key, value in _RUN_DEFAULTS.items()},
}

_IMAGE = (*DEBLUR_KINDS, "compression")

# Problem keys: the type of each and the kinds that read it.  A key that the
# config's kind never reads is rejected.
_PROBLEM_KEYS = {
    "kind": (str, PROBLEM_KINDS),
    "image": (str, _IMAGE),
    "size": (list, _IMAGE),
    "psf_size": (int, DEBLUR_KINDS),
    "psf_sigma": (float, DEBLUR_KINDS),
    "a": (float, ("gaussian_sd",)),
    "b": (float, ("gaussian_sd",)),
    "rho": (float, ("gaussian_sd",)),
    "gamma_noise": (float, ("cauchy",)),
    "lambda_reg": (float, ("cauchy", "compression")),
    "box_upper": (float, ("compression",)),
    "observed": (str, DEBLUR_KINDS),
    "clip_observed": (bool, DEBLUR_KINDS),
    "x0_floor": (float, DEBLUR_KINDS),
    "x0_value": (float, ("compression", "toy1d")),
}

_OUTPUT_KEYS = {
    "reconstruction": str,
    "trace": str,
    "summary": str,
    "observed": str,
}

_TOP_KEYS = ("problem", "solver", "seed", "audit", "output")


class ConfigError(ValueError):
    pass


def _check_keys(section, mapping, allowed):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {', '.join(unknown)}")
    for key, value in mapping.items():
        want = allowed[key]
        if want is float and isinstance(value, (int, float)) and not isinstance(value, bool):
            continue
        if want is int and isinstance(value, bool):
            raise ConfigError(f"{section}.{key} must be {want.__name__}")
        if not isinstance(value, want):
            raise ConfigError(f"{section}.{key} must be {want.__name__}")


def _section(raw, name):
    value = raw.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"'{name}' section must be a mapping")
    return dict(value)


@dataclass
class ExperimentConfig:
    """Validated experiment description."""

    problem: dict
    solver: SolverConfig
    metric: str
    steplength: str
    ritz_window: int
    inner_limit: int
    warm_start: bool
    seed: int
    audit: bool
    output: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a mapping")
        unknown = sorted(set(raw) - set(_TOP_KEYS))
        if unknown:
            raise ConfigError(f"unknown top-level keys: {', '.join(unknown)}")
        if "problem" not in raw:
            raise ConfigError("missing 'problem' section")
        problem = _section(raw, "problem")
        _check_keys("problem", problem, {k: t for k, (t, _) in _PROBLEM_KEYS.items()})
        kind = problem.get("kind")
        if kind not in PROBLEM_KINDS:
            raise ConfigError(f"problem.kind must be one of {PROBLEM_KINDS}")
        size = problem.get("size")
        if size is not None:
            if (len(size) != 2
                    or any(not isinstance(v, int) or v < 1 for v in size)):
                raise ConfigError("problem.size must be two positive integers")

        solver_raw = _section(raw, "solver")
        _check_keys("solver", solver_raw, _SOLVER_KEYS)
        run = {key: solver_raw.pop(key, value)
               for key, value in _RUN_DEFAULTS.items()}
        if run["metric"] not in METRICS:
            raise ConfigError(f"solver.metric must be one of {METRICS}")
        scalable = METRIC_STRATEGIES[run["metric"]].kinds
        if scalable is not None and kind not in scalable:
            raise ConfigError(
                f"solver.metric {run['metric']!r} needs problem.kind in "
                f"{scalable}, got {kind!r}"
            )
        if run["steplength"] not in STEPLENGTHS:
            raise ConfigError(f"solver.steplength must be one of {STEPLENGTHS}")
        if run["ritz_window"] < 1:
            raise ConfigError("solver.ritz_window must be at least 1")
        seed = raw.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigError("seed must be an integer")
        audit = raw.get("audit", False)
        if not isinstance(audit, bool):
            raise ConfigError("audit must be a boolean")
        output = _section(raw, "output")
        _check_keys("output", output, _OUTPUT_KEYS)
        try:
            solver = SolverConfig(**solver_raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid solver settings: {exc}") from exc
        unread = sorted(key for key in problem if kind not in _PROBLEM_KEYS[key][1])
        if unread:
            raise ConfigError(f"problem keys not read by kind {kind!r}: "
                              f"{', '.join(unread)}")
        return cls(problem=problem, solver=solver, seed=seed, audit=audit,
                   output=output, **run)


def load_experiment(path):
    """Read and validate the YAML experiment config at ``path``.

    Parsing uses PyYAML's libyaml-backed ``CSafeLoader`` when PyYAML was
    built with it and the pure-Python ``SafeLoader`` otherwise; both build
    the same documents.  Unreadable files raise ``FileNotFoundError``, and
    malformed YAML and schema violations raise :class:`ConfigError`.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FileNotFoundError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.load(
            text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


def resolve_path(path, base_dir):
    """``path`` as given when absolute, else relative to ``base_dir``, the
    directory of the config that names it."""
    path = Path(path)
    return path if path.is_absolute() else Path(base_dir) / path


def _given(p, *keys):
    """The entries of ``p`` among ``keys``: omitted model parameters take
    the defaults of the constructor they are passed to."""
    return {key: p[key] for key in keys if key in p}


_SYNTHETIC_IMAGES = {
    "synthetic:cartoon": cartoon_image,
    "synthetic:smooth": smooth_image,
}


def _load_base_image(spec, size, base_dir):
    spec = "synthetic:cartoon" if spec is None else spec
    if spec in _SYNTHETIC_IMAGES:
        if size is None:
            raise ConfigError("problem.size required for synthetic images")
        shape = (int(size[0]), int(size[1]))
        return _SYNTHETIC_IMAGES[spec](shape).reshape(shape)
    img = pgm.read_image(resolve_path(spec, base_dir))
    lo, hi = img.min(), img.max()
    if hi > lo:
        img = (img - lo) / (hi - lo)
    return img


def deblur_data(cfg: ExperimentConfig, base_dir="."):
    """Ground truth, blur operator and observed data of a deblurring config.

    The observation is read from ``problem.observed`` when the config names
    one and is synthesized from the truth with seed ``cfg.seed`` otherwise;
    ``clip_observed`` clips it into [0, 1].  A read observation sets the
    grid; without ``problem.image`` there is no ground truth, and a given
    ``size`` or image must match that grid.  Returns ``(truth, H, observed)``
    with a 2-D ``truth``, None without ground truth, and a flat ``observed``.
    """
    p = cfg.problem
    spec = p.get("observed")
    observed = None if spec is None else pgm.read_image(resolve_path(spec, base_dir))
    truth = None
    if p.get("image") is not None or observed is None:
        truth = _load_base_image(p.get("image"), p.get("size"), base_dir)
    shape = truth.shape if observed is None else observed.shape
    grid = p.get("size") if truth is None else truth.shape
    if grid is not None and tuple(grid) != shape:
        raise ConfigError(f"problem.observed is {shape[0]}x{shape[1]} pixels, "
                          f"not {grid[0]}x{grid[1]}")
    H = ConvOperator2D(
        gaussian_psf(p.get("psf_size", 9), p.get("psf_sigma", 1.0)), shape
    )
    if observed is None:
        observed = degrade_synthetic(
            truth.ravel(), H, p["kind"], cfg.seed,
            **_given(p, "a", "b", "gamma_noise"),
        )
    if p.get("clip_observed", False):
        observed = np.clip(observed, 0.0, 1.0)
    return truth, H, observed.ravel()


def _start(problem, x0, key, value):
    """``x0``, or a :class:`ConfigError` naming ``key`` when it lies outside
    the problem's domain."""
    if not (np.all(np.isfinite(x0)) and problem.in_domain(x0)):
        raise ConfigError(f"problem.{key} {value} puts the start point outside "
                          f"the domain of kind {problem.kind!r}")
    return x0


def build_problem(cfg: ExperimentConfig, base_dir="."):
    """Construct the problem, ground truth, observed data and start point.

    Returns ``(problem, x_true, observed, x0, shape)``; ``x_true`` is None
    when only observed data was supplied.  A start point outside the
    problem's domain raises :class:`ConfigError`.
    """
    p = cfg.problem
    kind = p["kind"]
    if kind == "toy1d":
        problem = Toy1DBoxProblem()
        value = p.get("x0_value", 0.0)
        x0 = _start(problem, np.array([value]), "x0_value", value)
        return problem, None, None, x0, (1, 1)

    if kind == "compression":
        truth = _load_base_image(p.get("image"), p.get("size"), base_dir)
        shape = truth.shape
        problem = MaskCompressionProblem(
            truth.ravel(), shape, **_given(p, "lambda_reg", "box_upper")
        )
        value = p.get("x0_value", 1.0)
        x0 = _start(problem, np.full(problem.n, value), "x0_value", value)
        return problem, truth.ravel(), None, x0, shape

    truth, H, observed = deblur_data(cfg, base_dir)
    if kind == "gaussian_sd":
        problem_cls, params = SignalDependentGaussianProblem, ("a", "b", "rho")
    else:
        problem_cls, params = CauchyDeblurProblem, ("gamma_noise", "lambda_reg")
    problem = problem_cls(H, observed, H.shape, **_given(p, *params),
                          inner_limit=cfg.inner_limit, warm_start=cfg.warm_start)
    value = p.get("x0_floor", 0.0)
    x0 = _start(problem, np.maximum(observed, value), "x0_floor", value)
    x_true = None if truth is None else truth.ravel()
    return problem, x_true, observed, x0, H.shape
