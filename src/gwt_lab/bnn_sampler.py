"""Monte Carlo prior sampling of feedforward network hidden units.

Weights are drawn fresh per replicate from symmetric priors and a fixed
input is propagated through the network; the pre- and post-activations
of unit 0 are recorded per layer. Replicate ``i`` always draws
from stream id ``i`` of the configured seed, so results are bitwise
identical for any worker count.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalOverflowError, OverflowAbortError, ParameterError, require_integer
from .rng import RngStream
from .tail_distributions import _symmetric_draws

PRIOR_FAMILIES = frozenset({"gaussian", "laplace", "generalized_gaussian"})
SCALE_POLICIES = frozenset({"unit", "inv_sqrt_fan_in"})
ACTIVATIONS = frozenset({"relu", "identity", "tanh"})

# reserved stream id for the fixed network input, far above replicate ids
_INPUT_STREAM_ID = (1 << 64) - 1

# fraction of replicates allowed to overflow before the run aborts
OVERFLOW_ABORT_FRACTION = 1e-4

WORKERS_ENV_VAR = "GWT_LAB_THREADS"


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
        if self.family not in PRIOR_FAMILIES:
            raise ParameterError(f"prior family must be one of {sorted(PRIOR_FAMILIES)}")
        if self.scale_policy not in SCALE_POLICIES:
            raise ParameterError(f"scale_policy must be one of {sorted(SCALE_POLICIES)}")
        if not self.tail_beta_w > 0:
            raise ParameterError("tail_beta_w must be > 0")
        expected = {"gaussian": 2.0, "laplace": 1.0}.get(self.family)
        if expected is not None and self.tail_beta_w != expected:
            raise ParameterError(
                f"{self.family} prior has tail parameter {expected}, got {self.tail_beta_w}"
            )


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture, priors and Monte Carlo budget of one experiment."""

    input_dim: int
    widths: tuple[int, ...]
    layer_priors: tuple[LayerPrior, ...]
    activation: str = "relu"
    n_samples: int = 10**5
    seed: int = 0

    def __post_init__(self):
        require_integer("input_dim", self.input_dim)
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
        if self.n_samples < 0:
            raise ParameterError("n_samples must be >= 0")

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
    degenerate_input: bool = False
    overflow_replicates: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))


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


def _forward_with_generator(config: NetworkConfig, input_vec: np.ndarray, gen, replicate=None):
    """One replicate's forward pass; returns per-layer (g, h) of unit 0."""
    h = input_vec
    g_out = np.empty(config.depth)
    h_out = np.empty(config.depth)
    for idx, (prior, width) in enumerate(zip(config.layer_priors, config.widths)):
        scale = _weight_scale(prior.scale_policy, h.size)
        w = _symmetric_draws(gen, prior.family, prior.tail_beta_w, scale, (h.size, width))
        g = h @ w
        if not np.isfinite(g).all():
            raise NumericalOverflowError(
                f"non-finite pre-activation at layer {idx + 1}", layer=idx + 1, replicate=replicate
            )
        h = _activate(config.activation, g)
        g_out[idx] = g[0]
        h_out[idx] = h[0]
    return g_out, h_out


def forward_sample(config: NetworkConfig, input_vec: np.ndarray, rng: RngStream):
    """One prior draw of all layers' (g, h) values of unit 0.

    All hidden units of each layer are computed; unit 0's values are
    returned as two arrays of length ``depth``.
    """
    input_vec = np.asarray(input_vec, dtype=np.float64)
    if input_vec.size != config.input_dim:
        raise ParameterError(
            f"input has length {input_vec.size}, config expects {config.input_dim}"
        )
    return _forward_with_generator(config, input_vec, rng.generator())


def _run_chunk(config: NetworkConfig, input_vec: np.ndarray, start: int, stop: int):
    depth = config.depth
    m = stop - start
    g_block = np.empty((depth, m))
    h_block = np.empty((depth, m))
    overflowed = []
    for j in range(m):
        i = start + j
        gen = RngStream(config.seed, i).generator()
        try:
            g_row, h_row = _forward_with_generator(config, input_vec, gen, replicate=i)
        except NumericalOverflowError:
            g_block[:, j] = np.nan
            h_block[:, j] = np.nan
            overflowed.append(i)
            continue
        g_block[:, j] = g_row
        h_block[:, j] = h_row
    return start, g_block, h_block, overflowed


def _resolve_workers(workers) -> int:
    env = os.environ.get(WORKERS_ENV_VAR)
    try:
        cap = max(1, int(env)) if env else None
    except ValueError:
        raise ParameterError(f"{WORKERS_ENV_VAR} must be an integer, got {env!r}") from None
    if workers is None:
        return cap or 1
    workers = max(1, int(workers))
    return min(workers, cap) if cap else workers


def run_prior_monte_carlo(
    config: NetworkConfig,
    input_vec: np.ndarray | None = None,
    workers: int | None = None,
) -> UnitTrace:
    """n_samples independent replicates of the prior forward pass.

    Replicate ``i`` uses stream id ``i`` of ``config.seed``, so the trace
    is identical for any worker count. ``workers`` defaults to the
    GWT_LAB_THREADS environment variable (1 if unset), which also caps an
    explicit value. The pool never exceeds the CPUs this process may run
    on or the number of chunks: a fork pool starts all its processes at
    once. Aborts when more than 0.01 percent of replicates overflow.
    """
    if input_vec is None:
        input_vec = make_input(config.input_dim, config.seed)
    input_vec = np.asarray(input_vec, dtype=np.float64)
    if input_vec.size != config.input_dim:
        raise ParameterError(
            f"input has length {input_vec.size}, config expects {config.input_dim}"
        )
    n = config.n_samples
    depth = config.depth
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(_resolve_workers(workers), cpus)
    g_layers = [np.empty(n) for _ in range(depth)]
    h_layers = [np.empty(n) for _ in range(depth)]
    overflowed: list[int] = []

    chunk = max(1, min(20_000, -(-n // (workers * 4)))) if n else 1
    ranges = [(s, min(s + chunk, n)) for s in range(0, n, chunk)]
    workers = min(workers, len(ranges))

    def consume(result):
        start, g_block, h_block, over = result
        stop = start + g_block.shape[1]
        for l in range(depth):
            g_layers[l][start:stop] = g_block[l]
            h_layers[l][start:stop] = h_block[l]
        overflowed.extend(over)

    if workers <= 1:
        for s, e in ranges:
            consume(_run_chunk(config, input_vec, s, e))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_chunk, config, input_vec, s, e) for s, e in ranges]
            for fut in futures:
                consume(fut.result())

    if n and len(overflowed) > OVERFLOW_ABORT_FRACTION * n:
        raise OverflowAbortError(
            f"{len(overflowed)} of {n} replicates overflowed "
            f"(> {OVERFLOW_ABORT_FRACTION:.2%} abort threshold)",
            count=len(overflowed),
            n_samples=n,
        )
    return UnitTrace(
        g=g_layers,
        h=h_layers,
        n_samples=n,
        degenerate_input=not np.any(input_vec),
        overflow_replicates=np.asarray(sorted(overflowed), dtype=np.int64),
    )
