"""Monte Carlo prior sampling of feedforward network hidden units.

Weights are drawn fresh per replicate from symmetric priors and a fixed
input is propagated through the network; the pre- and post-activations
of unit 0 are recorded per layer. Replicate ``i`` always draws
from stream id ``i`` of the configured seed, so results are bitwise
identical for any worker count. Chunks of replicates run on a thread
pool in the calling process, each filling its own columns of one trace
array; numpy's bulk draws and matmuls release the GIL, so threads share
the work.
"""
from __future__ import annotations

import contextlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NumericalOverflowError, OverflowAbortError, ParameterError, require_integer
from .rng import RngStream
from .tail_distributions import FIXED_TAIL_BETA, SYMMETRIC_FAMILIES, _symmetric_draws

SCALE_POLICIES = frozenset({"unit", "inv_sqrt_fan_in"})
ACTIVATIONS = frozenset({"relu", "identity", "tanh"})

# reserved stream id for the fixed network input, far above replicate ids
_INPUT_STREAM_ID = (1 << 64) - 1

# fraction of replicates allowed to overflow before the run aborts
OVERFLOW_ABORT_FRACTION = 1e-4


@dataclass(frozen=True)
class LayerPrior:
    """Symmetric weight prior of one layer.

    ``tail_beta_w`` is the prior's tail parameter and must match the
    family: 2 for gaussian, 1 for laplace, the shape itself for
    generalized gaussian. Asymmetric priors are rejected by construction;
    the layer-composition theory needs symmetry.
    """

    family: str
    tail_beta_w: float
    scale_policy: str = "inv_sqrt_fan_in"

    def __post_init__(self):
        if self.family not in SYMMETRIC_FAMILIES:
            raise ParameterError(f"prior family must be one of {sorted(SYMMETRIC_FAMILIES)}")
        if self.scale_policy not in SCALE_POLICIES:
            raise ParameterError(f"scale_policy must be one of {sorted(SCALE_POLICIES)}")
        if not self.tail_beta_w > 0:
            raise ParameterError("tail_beta_w must be > 0")
        expected = FIXED_TAIL_BETA.get(self.family, self.tail_beta_w)
        if self.tail_beta_w != expected:
            raise ParameterError(
                f"{self.family} prior has tail parameter {expected}, got {self.tail_beta_w}"
            )


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture, priors and Monte Carlo budget of one experiment."""

    input_dim: int
    widths: tuple[int, ...]
    layer_priors: tuple[LayerPrior, ...]
    activation: str
    n_samples: int
    seed: int

    def __post_init__(self):
        require_integer("input_dim", self.input_dim)
        require_integer("n_samples", self.n_samples)
        widths = tuple(self.widths)
        for w in widths:
            require_integer("widths entry", w)
        object.__setattr__(self, "widths", tuple(int(w) for w in widths))
        object.__setattr__(self, "layer_priors", tuple(self.layer_priors))
        if self.input_dim < 1:
            raise ParameterError("input_dim must be >= 1")
        if len(self.widths) == 0 or any(w < 1 for w in self.widths):
            raise ParameterError("widths must be a nonempty list of counts >= 1")
        if len(self.layer_priors) != len(self.widths):
            raise ParameterError("need one LayerPrior per layer")
        if self.activation not in ACTIVATIONS:
            raise ParameterError(f"activation must be one of {sorted(ACTIVATIONS)}")
        if self.n_samples < 1:
            raise ParameterError("n_samples must be >= 1")

    @property
    def depth(self) -> int:
        return len(self.widths)


@dataclass
class UnitTrace:
    """Per-layer samples of unit 0 from a Monte Carlo run.

    ``g[l]`` and ``h[l]`` hold the pre- and post-activations of unit 0 in
    layer ``l + 1`` over all replicates. Replicates that overflowed carry NaN
    and are listed in ``overflow_replicates``.
    """

    g: list[np.ndarray]
    h: list[np.ndarray]
    n_samples: int
    degenerate_input: bool
    overflow_replicates: np.ndarray


def make_input(input_dim: int, input_seed: int) -> np.ndarray:
    """Fixed standard-Gaussian input vector, sampled once per seed."""
    if input_dim < 1:
        raise ParameterError("input_dim must be >= 1")
    gen = RngStream(input_seed, _INPUT_STREAM_ID).generator()
    return gen.standard_normal(input_dim)


def predicted_tail_parameter(layer_priors, layer: int) -> float:
    """Theoretical tail parameter of layer ``layer`` (1-based).

    The reciprocals of the per-layer weight tail parameters accumulate:
    ``1 / beta_layer = sum_{k<=layer} 1 / beta_w_k``.
    """
    priors = list(layer_priors)
    if not 1 <= layer <= len(priors):
        raise ParameterError(f"layer must be in 1..{len(priors)}, got {layer}")
    return 1.0 / sum(1.0 / p.tail_beta_w for p in priors[:layer])


def _weight_scale(policy: str, fan_in: int) -> float:
    return 1.0 if policy == "unit" else fan_in ** -0.5


def _activate(name: str, g: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(g, 0.0)
    if name == "tanh":
        return np.tanh(g)
    return g


def forward_sample(config: NetworkConfig, input_vec: np.ndarray, rng: RngStream):
    """One prior draw of all layers' (g, h) values of unit 0.

    All hidden units of each layer are computed; unit 0's values are
    returned as two arrays of length ``depth``. Raises
    NumericalOverflowError on a non-finite pre-activation.
    """
    h = np.asarray(input_vec, dtype=np.float64)
    if h.size != config.input_dim:
        raise ParameterError(f"input has length {h.size}, config expects {config.input_dim}")
    gen = rng.generator()
    g_out = np.empty(config.depth)
    h_out = np.empty(config.depth)
    # an overflow is raised below, so numpy's warning for it only adds noise
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, (prior, width) in enumerate(zip(config.layer_priors, config.widths)):
            scale = _weight_scale(prior.scale_policy, h.size)
            w = _symmetric_draws(gen, prior.family, prior.tail_beta_w, scale, (h.size, width))
            g = h @ w
            if not np.isfinite(g).all():
                raise NumericalOverflowError(f"non-finite pre-activation at layer {idx + 1}")
            h = _activate(config.activation, g)
            g_out[idx] = g[0]
            h_out[idx] = h[0]
    return g_out, h_out


def _run_chunk(config: NetworkConfig, input_vec: np.ndarray, out: np.ndarray, start: int) -> None:
    """Fill column j of the NaN-filled ``out`` with unit 0's (g, h) of replicate ``start + j``.

    An overflowed replicate keeps its NaNs; no other can hold one, since
    forward_sample raises on any non-finite pre-activation.
    """
    for j in range(out.shape[2]):
        with contextlib.suppress(NumericalOverflowError):
            out[:, :, j] = forward_sample(config, input_vec, RngStream(config.seed, start + j))


def run_prior_monte_carlo(config: NetworkConfig, workers: int = 1) -> UnitTrace:
    """n_samples independent replicates of the prior forward pass.

    The fixed input is ``make_input(config.input_dim, config.seed)``.
    Replicate ``i`` uses stream id ``i`` of ``config.seed``, so the trace
    is identical for any worker count. ``workers`` threads, at most the
    CPUs this process may run on, fill disjoint column chunks of one
    ``(2, depth, n_samples)`` array. Aborts when more than 0.01 percent of
    replicates overflow.
    """
    input_vec = make_input(config.input_dim, config.seed)
    n = config.n_samples
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(max(1, workers), cpus)
    chunk = min(20_000, -(-n // (workers * 4)))
    trace = np.full((2, config.depth, n), np.nan)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        starts = range(0, n, chunk)
        for fut in [pool.submit(_run_chunk, config, input_vec, trace[:, :, s : s + chunk], s) for s in starts]:
            fut.result()  # re-raises a chunk's exception
    g, h = trace
    overflowed = np.flatnonzero(np.isnan(g[0]))
    if overflowed.size > OVERFLOW_ABORT_FRACTION * n:
        raise OverflowAbortError(
            f"{overflowed.size} of {n} replicates overflowed "
            f"(> {OVERFLOW_ABORT_FRACTION:.2%} abort threshold)"
        )
    return UnitTrace(
        g=list(g),
        h=list(h),
        n_samples=n,
        degenerate_input=not np.any(input_vec),
        overflow_replicates=overflowed,
    )
