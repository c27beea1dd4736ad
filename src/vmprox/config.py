"""Experiment configuration: schema-validated YAML documents.

A configuration is one human-readable key-value document per experiment;
keys that the experiment would not read are rejected so typos fail loudly.
A model parameter is a keyword of its class's constructor, which states its
name, default and (by the default) type; the key tables read them at import.
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
    _keywords,
    cartoon_image,
    degrade_synthetic,
    smooth_image,
)
from .solver import SolverConfig, minimize
from .strategies import METRIC_STRATEGIES, STEPLENGTH_STRATEGIES

__all__ = ["ConfigError", "ExperimentConfig", "load_experiment", "deblur_data",
           "build_problem"]

_MODELS = {model.kind: model for model in (SignalDependentGaussianProblem,
           CauchyDeblurProblem, MaskCompressionProblem, Toy1DBoxProblem)}
PROBLEM_KINDS = tuple(_MODELS)


# Solver-section keys beyond the SolverConfig fields: ``minimize``'s strategy choice.
_RUN_DEFAULTS = {key: value for key, value in _keywords(minimize).items()
                 if key in ("metric", "steplength")}
_NOISE_KEYS = frozenset(_keywords(degrade_synthetic))

_IMAGE = (*DEBLUR_KINDS, "compression")

# Config's own problem keys: the type of each, and the kinds that read it,
# each mapped to the key's default for that kind (None: no default).  The
# other problem keys are the model constructors' keywords.
_DATA_KEYS = {
    "kind": (str, dict.fromkeys(PROBLEM_KINDS)),
    "image": (str, dict.fromkeys(_IMAGE, "synthetic:cartoon")),
    "size": (list, dict.fromkeys(_IMAGE)),
    "psf_size": (int, dict.fromkeys(DEBLUR_KINDS, 9)),
    "psf_sigma": (float, dict.fromkeys(DEBLUR_KINDS, 1.0)),
    "observed": (str, dict.fromkeys(DEBLUR_KINDS)),
}

# Each deblurring run starts at its observation, clipped into [0, 1] (the
# data are quantized intensities, and unit affine variance swamps a [0, 1]
# image), with every pixel raised to at least this floor: the split-gradient
# metric scales each pixel's step by its value, so a pixel at 0 would freeze.
X0_FLOOR = 1e-3

_OUTPUT_KEYS = dict.fromkeys(("reconstruction", "trace", "summary", "observed"), str)

_TOP_KEYS = ("problem", "solver", "seed", "output")


# Key -> type of each key read: per kind in the problem section, and the same
# for every kind in the solver section.
_PROBLEM_KEYS = {
    kind: {key: want for key, (want, kinds) in _DATA_KEYS.items() if kind in kinds}
    | {key: type(value) for key, value in _keywords(model).items()}
    for kind, model in _MODELS.items()}
_SOLVER_KEYS = {key: type(value) for key, value in (
    {f.name: f.default for f in fields(SolverConfig)} | _RUN_DEFAULTS).items()}


class ConfigError(ValueError):
    pass


def _check_keys(section, mapping, allowed, reader):
    """Reject the keys of ``mapping`` that ``reader`` does not read (those
    outside ``allowed``, key -> type) and values of another type."""
    unread = sorted(set(mapping) - set(allowed))
    if unread:
        raise ConfigError(f"{section} keys not read by {reader}: "
                          f"{', '.join(unread)}")
    for key, value in mapping.items():
        want = allowed[key]
        if (not isinstance(value, (int, float) if want is float else want)
                or isinstance(value, bool) and want is not bool):
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
    seed: int
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
        kind = problem.get("kind")
        if kind not in PROBLEM_KINDS:
            raise ConfigError(f"problem.kind must be one of {PROBLEM_KINDS}")

        solver_raw = _section(raw, "solver")
        _check_keys("solver", solver_raw, _SOLVER_KEYS, f"kind {kind!r}")
        run = {key: solver_raw.pop(key, value)
               for key, value in _RUN_DEFAULTS.items()}
        for key, table in (("metric", METRIC_STRATEGIES),
                           ("steplength", STEPLENGTH_STRATEGIES)):
            if run[key] not in table:
                raise ConfigError(f"solver.{key} must be one of {tuple(table)}")
        scalable = METRIC_STRATEGIES[run["metric"]].kinds
        if scalable is not None and kind not in scalable:
            raise ConfigError(f"solver.metric {run['metric']!r} needs problem.kind "
                              f"in {scalable}, got {kind!r}")
        _check_keys("problem", problem, _PROBLEM_KEYS[kind], f"kind {kind!r}")
        size = problem.get("size")
        if size is not None and (len(size) != 2 or any(
                type(v) is not int or v < 1 for v in size)):  # bool is an int type
            raise ConfigError("problem.size must be two positive integers")
        seed = raw.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        output = _section(raw, "output")
        _check_keys("output", output, _OUTPUT_KEYS, "vmprox")
        try:
            solver = SolverConfig(**solver_raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid solver settings: {exc}") from exc
        return cls(problem=problem, solver=solver, seed=seed, output=output,
                   **run)


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


def _value(p, key):
    """Config's own problem key ``key``: as given in ``p``, else its default."""
    return p.get(key, _DATA_KEYS[key][1][p["kind"]])


_SYNTHETIC_IMAGES = {"synthetic:cartoon": cartoon_image,
                     "synthetic:smooth": smooth_image}


def _load_base_image(spec, size, base_dir):
    if spec in _SYNTHETIC_IMAGES:
        if size is None:
            raise ConfigError("problem.size required for synthetic images")
        shape = (int(size[0]), int(size[1]))
        return _SYNTHETIC_IMAGES[spec](shape).reshape(shape)
    img = pgm.read_image(resolve_path(spec, base_dir))
    if size is not None and tuple(size) != img.shape:
        raise ConfigError(f"problem.size is {size[0]}x{size[1]}, but problem.image "
                          f"{spec} is {img.shape[0]}x{img.shape[1]} pixels")
    lo, hi = img.min(), img.max()
    if hi > lo:
        img = (img - lo) / (hi - lo)
    return img


def deblur_data(cfg: ExperimentConfig, base_dir="."):
    """Ground truth, blur operator and observed data of a deblurring config.

    The observation is read from ``problem.observed`` when the config names
    one and is synthesized from the truth with seed ``cfg.seed`` otherwise,
    then clipped into [0, 1].  A read observation sets the
    grid; without ``problem.image`` there is no ground truth, and a given
    ``size`` or image must match that grid.  Returns ``(truth, H, observed)``
    with a 2-D ``truth``, None without ground truth, and a flat ``observed``.
    """
    p = cfg.problem
    spec = p.get("observed")
    observed = None if spec is None else pgm.read_image(resolve_path(spec, base_dir))
    truth = None
    if p.get("image") is not None or observed is None:
        truth = _load_base_image(_value(p, "image"), p.get("size"), base_dir)
    shape = truth.shape if observed is None else observed.shape
    grid = p.get("size") if truth is None else truth.shape
    if grid is not None and tuple(grid) != shape:
        raise ConfigError(f"problem.observed is {shape[0]}x{shape[1]} pixels, "
                          f"not {grid[0]}x{grid[1]}")
    psf_size = _value(p, "psf_size")
    if psf_size > min(shape):
        raise ConfigError(f"problem.psf_size {psf_size} does not fit the "
                          f"{shape[0]}x{shape[1]} grid")
    H = ConvOperator2D(gaussian_psf(psf_size, _value(p, "psf_sigma")), shape)
    if observed is None:
        observed = degrade_synthetic(truth.ravel(), H, p["kind"], cfg.seed, **{
            key: value for key, value in p.items() if key in _NOISE_KEYS})
    return truth, H, np.clip(observed, 0.0, 1.0).ravel()


def build_problem(cfg: ExperimentConfig, base_dir="."):
    """Construct the problem, ground truth, observed data and start point.

    Returns ``(problem, x_true, observed, x0, shape)``; ``x_true`` is None
    when only observed data was supplied.  A deblurring run starts at the
    observation floored at :data:`X0_FLOOR`, compression at the all-ones mask
    (a ``box_upper`` below 1 raises :class:`ConfigError`) and toy1d at 0.
    """
    p = cfg.problem
    kind = p["kind"]
    model = _MODELS[kind]
    # The constructor keywords given: the problem keys beyond config's own.
    # Omitted ones take the constructor's defaults.
    given = {key: value for key, value in p.items() if key not in _DATA_KEYS}
    if kind == "toy1d":
        return model(**given), None, None, np.zeros(1), (1, 1)

    if kind == "compression":
        spec = _value(p, "image")
        truth = _load_base_image(spec, p.get("size"), base_dir)
        shape = truth.shape
        # A constant u0 has L u0 = 0, so every mask c > 0 reconstructs it
        # exactly, and the l1 term drives c to 0, where A(0) = -L is singular.
        if truth.min() == truth.max():
            raise ConfigError(f"problem.image {spec} is constant on the "
                              f"{shape[0]}x{shape[1]} grid; compression needs "
                              "a nonconstant image")
        problem = model(truth.ravel(), shape, **given)
        x0 = np.ones(problem.n)  # the mask that keeps every pixel
        if not problem.in_domain(x0):
            raise ConfigError(f"problem.box_upper {problem.prox.upper} is below 1, "
                              "the value of the start mask")
        return problem, truth.ravel(), None, x0, shape

    truth, H, observed = deblur_data(cfg, base_dir)
    problem = model(H, observed, H.shape, **given)
    x0 = np.maximum(observed, X0_FLOOR)
    x_true = None if truth is None else truth.ravel()
    return problem, x_true, observed, x0, H.shape
