"""Monte Carlo prior sampling of feedforward network hidden units.

Weights are drawn fresh per replicate from symmetric priors and a fixed
input is propagated through the network; unit 0's pre-activation is
stored per layer, its post-activation derived from it on read. Replicate
``i`` always draws from stream id ``i`` of the configured seed, so results
are bitwise identical for any worker count. Chunks of replicates run on a
thread pool in the calling process, each filling its own columns of one
trace array. Numpy's bulk draws and the per-block stacked matmul release
the GIL; layer 1's vector-by-matrix ``np.matmul`` holds it.

Within a chunk, replicates run in blocks whose length is set by an element
budget, not by the worker count. Weights come from the two phases that
``tail_distributions`` owns: ``draw_unit`` takes a layer's unit-scale
draws from the replicate's own stream, in layer order, so blocks change no
draw, and ``to_scale`` finishes them, drawing nothing. For the layers after
the first, ``to_scale`` (for the generalized Gaussian too) and the products
run once per block. The stacked ``np.matmul(h[:, None, :], W)`` makes, for
each replicate, the same BLAS call as that replicate's own ``h @ w``, and
every other block step works elementwise, so each replicate keeps the
bits of a one-replicate forward pass. A summed loop or ``einsum`` would
reorder the sums and change them.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import OverflowAbortError, ParameterError, require_choice, require_finite, require_integer
from .rng import RngStream
from .tail_distributions import FIXED_TAIL_BETA, SYMMETRIC_FAMILIES, draw_unit, to_scale

SCALE_POLICIES = frozenset({"unit", "inv_sqrt_fan_in"})
ACTIVATIONS = frozenset({"relu", "identity", "tanh"})

# reserved stream id for the fixed network input, far above replicate ids
_INPUT_STREAM_ID = (1 << 64) - 1

# fraction of replicates allowed to overflow before the run aborts
OVERFLOW_ABORT_FRACTION = 1e-4

# elements one block holds per thread: the deeper layers' weights and a unit per layer
# of each replicate, so a block stays near 128 KiB whatever the widths
_BLOCK_ELEMENTS = 2**14


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
        require_choice("prior family", self.family, SYMMETRIC_FAMILIES)
        require_choice("scale_policy", self.scale_policy, SCALE_POLICIES)
        require_finite("tail_beta_w", self.tail_beta_w, positive=True)
        expected = FIXED_TAIL_BETA.get(self.family, self.tail_beta_w)
        if self.tail_beta_w != expected:
            raise ParameterError(
                f"{self.family} prior has tail parameter {expected}, got {self.tail_beta_w}"
            )


def _require_layer_priors(layer_priors) -> tuple[LayerPrior, ...]:
    """``layer_priors`` as a tuple; ParameterError names the first entry that is not a LayerPrior."""
    try:
        priors = tuple(layer_priors)
    except TypeError:
        raise ParameterError(f"layer_priors must be a sequence of LayerPrior, got {layer_priors!r}") from None
    for p in priors:
        if not isinstance(p, LayerPrior):
            raise ParameterError(f"layer_priors entry must be a LayerPrior, got {p!r}")
    return priors


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
        require_integer("input_dim", self.input_dim, low=1)
        require_integer("n_samples", self.n_samples, low=1)
        widths = tuple(self.widths) if np.iterable(self.widths) else ()
        if not widths:
            raise ParameterError(f"widths must be a nonempty list of counts >= 1, got {self.widths!r}")
        for w in widths:
            require_integer("widths entry", w, low=1)
        object.__setattr__(self, "widths", tuple(int(w) for w in widths))
        object.__setattr__(self, "layer_priors", _require_layer_priors(self.layer_priors))
        if len(self.layer_priors) != len(self.widths):
            raise ParameterError("need one LayerPrior per layer")
        require_choice("activation", self.activation, ACTIVATIONS)

    @property
    def depth(self) -> int:
        return len(self.widths)


@dataclass
class UnitTrace:
    """Per-layer samples of unit 0 from a Monte Carlo run.

    ``g[l]`` holds the pre-activations of unit 0 in layer ``l + 1`` over all
    replicates, a row of the run's one trace array. Replicates that
    overflowed carry NaN and are listed in ``overflow_replicates``.
    """

    g: list[np.ndarray]
    activation: str
    n_samples: int
    degenerate_input: bool
    overflow_replicates: np.ndarray

    @property
    def h(self) -> list[np.ndarray]:
        """Post-activations of unit 0 per layer, computed from ``g`` on each read: fresh arrays, NaN kept."""
        return [g.copy() if self.activation == "identity" else _activate(self.activation, g) for g in self.g]


def make_input(input_dim: int, input_seed: int) -> np.ndarray:
    """Fixed standard-Gaussian input vector, sampled once per seed."""
    require_integer("input_dim", input_dim, low=1)
    gen = RngStream(input_seed, _INPUT_STREAM_ID).generator()
    return gen.standard_normal(input_dim)


def predicted_tail_parameter(layer_priors, layer: int) -> float:
    """Theoretical tail parameter of layer ``layer`` (1-based).

    The reciprocals of the per-layer weight tail parameters accumulate:
    ``1 / beta_layer = sum_{k<=layer} 1 / beta_w_k``.
    """
    priors = _require_layer_priors(layer_priors)
    require_integer("layer", layer, low=1, high=len(priors))
    return 1.0 / sum(1.0 / p.tail_beta_w for p in priors[:layer])


def _weight_scale(policy: str, fan_in: int) -> float:
    return 1.0 if policy == "unit" else fan_in ** -0.5


def _activate(name: str, g: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(g, 0.0)
    if name == "tanh":
        return np.tanh(g)
    return g


def _block_size(config: NetworkConfig) -> int:
    """Replicates per block: ``_BLOCK_ELEMENTS`` over the elements a replicate holds in a block."""
    fan_ins = (config.input_dim, *config.widths[:-1])
    deeper = sum(f * w for f, w in zip(fan_ins[1:], config.widths[1:]))
    return max(1, _BLOCK_ELEMENTS // (deeper + sum(config.widths)))


class _Layer(NamedTuple):
    family: str
    beta: float
    scale: float
    fan_in: int
    width: int


def _run_chunk(config: NetworkConfig, input_vec: np.ndarray, out: np.ndarray, start: int) -> None:
    """Fill column j of the NaN-filled ``(depth, m)`` ``out`` with unit 0's g of replicate ``start + j``.

    Replicates run in blocks of ``_block_size(config)``. Each replicate
    draws all its layers from its own stream, in layer order; its layer-1
    product ``x @ W1`` is taken at once, from one weight buffer that every
    replicate reuses. The deeper layers' weights wait in per-block buffers,
    and each deeper layer is finished and multiplied once per block, from
    the block's ``h``, which is not stored. A replicate with a non-finite
    pre-activation in any unit keeps NaN in every slot.
    """
    fan_ins = (config.input_dim, *config.widths[:-1])
    layers = [
        _Layer(p.family, p.tail_beta_w, _weight_scale(p.scale_policy, f), f, w)
        for p, f, w in zip(config.layer_priors, fan_ins, config.widths)
    ]
    first, *deeper = layers
    block = _block_size(config)
    w1 = np.empty(first.fan_in * first.width)
    w1_matrix = w1.reshape(first.fan_in, first.width)
    bufs = [np.empty((block, layer.fan_in * layer.width)) for layer in deeper]
    # Laplace scratch as large as the largest buffer, so each to_scale below is one pass
    scratch = np.empty(max(a.size for a in (w1, *bufs)))
    # a non-finite unit is marked below, so numpy's warning for it only adds noise
    with np.errstate(over="ignore", invalid="ignore"):
        for b0 in range(0, out.shape[1], block):
            b = min(block, out.shape[1] - b0)
            g = np.empty((b, first.width))
            for j in range(b):
                gen = RngStream(config.seed, start + b0 + j).generator()
                draw_unit(gen, first.family, first.beta, w1)
                to_scale(first.family, first.scale, w1, scratch)
                np.matmul(input_vec, w1_matrix, out=g[j])
                for layer, buf in zip(deeper, bufs):
                    draw_unit(gen, layer.family, layer.beta, buf[j])
            rows = out[:, b0 : b0 + b]
            bad = ~np.isfinite(g).all(axis=1)
            rows[0] = g[:, 0]
            for idx, (layer, buf) in enumerate(zip(deeper, bufs), 1):
                h = _activate(config.activation, g)
                w = buf[:b]
                to_scale(layer.family, layer.scale, w.reshape(-1), scratch)
                # per replicate, the BLAS call its own h @ w would make, so the same bits
                g = np.matmul(h[:, None, :], w.reshape(b, layer.fan_in, layer.width))[:, 0]
                bad |= ~np.isfinite(g).all(axis=1)
                rows[idx] = g[:, 0]
            rows[:, bad] = np.nan


def run_prior_monte_carlo(config: NetworkConfig, workers: int = 1) -> UnitTrace:
    """n_samples independent replicates of the prior forward pass.

    The fixed input is ``make_input(config.input_dim, config.seed)``.
    Replicate ``i`` uses stream id ``i`` of ``config.seed``, so the trace
    is identical for any worker count. ``workers`` threads, at most the
    CPUs this process may run on, fill disjoint column chunks of one
    ``(depth, n_samples)`` array of unit 0's pre-activations. Aborts when
    more than 0.01 percent of replicates overflow.
    """
    require_integer("workers", workers)
    input_vec = make_input(config.input_dim, config.seed)
    n = config.n_samples
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(max(1, workers), cpus)
    chunk = min(20_000, -(-n // (workers * 4)))
    trace = np.full((config.depth, n), np.nan)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        starts = range(0, n, chunk)
        for fut in [pool.submit(_run_chunk, config, input_vec, trace[:, s : s + chunk], s) for s in starts]:
            fut.result()  # re-raises a chunk's exception
    overflowed = np.flatnonzero(np.isnan(trace[0]))
    if overflowed.size > OVERFLOW_ABORT_FRACTION * n:
        raise OverflowAbortError(
            f"{overflowed.size} of {n} replicates overflowed "
            f"(> {OVERFLOW_ABORT_FRACTION:.2%} abort threshold)"
        )
    return UnitTrace(
        g=list(trace),
        activation=config.activation,
        n_samples=n,
        degenerate_input=not np.any(input_vec),
        overflow_replicates=overflowed,
    )
