"""Empirical checks of tail-parameter closure rules and dependence bounds.

Covers the three closure rules (sums take the minimum tail parameter,
independent products compose harmonically, powers divide it), the
positive-dependence constant behind the sum rule, and the negative
controls built from truncation. ``closure_suite`` runs the canned checks
behind ``gwt-lab closure`` and yields one ``CheckResult`` per verdict.
``judge_tail`` judges a fitted tail parameter against its prediction, for
these rules and for the per-layer depth rule of ``gwt-lab bnn``.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import reduce

import numpy as np

from .errors import (
    DegenerateTailError,
    DomainError,
    InsufficientDataError,
    ParameterError,
    require_choice,
    require_finite,
    require_integer,
)
from .rng import RngStream
from .tail_distributions import SYMMETRIC_FAMILIES, DistributionSpec, sample_iid
from .tail_estimation import (
    SIDE_ABSOLUTE,
    SIDE_RIGHT,
    EmpiricalTail,
    FitWindow,
    TailEstimate,
    _sorted_quantiles,
    check_subweibull_envelope,
    estimate_with_points,
)

RULE_SUM_MIN = "sum_min"
RULE_PRODUCT_HARMONIC = "product_harmonic"
RULE_POWER = "power"

# the PD z-grid sits at quantiles 1 - 1/d of the conditioning coordinate
_Z_TAIL_DIVISORS = (2, 10, 100, 1000, 10000)
# events a z cell must expect: c_hat is a minimum over cells, and the +-0.05
# bands of the PD verdicts need cells this large to be binomially meaningful
PD_CELL_EVENTS = 1000
# the smallest n whose grid keeps the 0.99 cell
_PD_MIN_SAMPLES = 100 * PD_CELL_EVENTS

# two-layer ReLU net behind weight_unit_product_samples
PRODUCT_NET_INPUT_DIM = 16
PRODUCT_NET_HIDDEN_WIDTH = 4
# rows per block of the PD checks' draws: each layer reads its own stream in row
# order, so the bits do not depend on it, only the working memory does
_PRODUCT_ROW_BLOCK = 2**14

# relative band plus noise floor: slowly-varying bias scales with beta
RELATIVE_TOLERANCE = 0.15


def closure_tolerance(predicted_beta: float, stderr: float) -> float:
    require_finite("predicted_beta", predicted_beta, positive=True)
    return max(RELATIVE_TOLERANCE * predicted_beta, 2.0 * stderr)


@dataclass(frozen=True)
class PDEstimate:
    """Empirical positive-dependence constant over a z-grid.

    ``per_z_conditional[k]`` is the conditional probability that all
    non-conditioning coordinates fall on the required side of zero given
    the conditioning coordinate exceeds (right) or falls below (left)
    ``z_grid[k]``; ``c_hat`` is the grid minimum. ``cell_events[k]`` is
    the number of rows in that conditioning cell.
    """

    c_hat: float
    side: str
    z_grid: np.ndarray
    per_z_conditional: np.ndarray
    cell_events: np.ndarray


@dataclass(frozen=True)
class ClosureReport:
    """Predicted vs estimated tail parameter for one closure check.

    The check passes when the estimate lies within ``tolerance`` of the
    prediction; ``points`` are the log-log points it was fitted on.
    """

    rule: str
    predicted_beta: float
    estimated: TailEstimate
    tolerance: float
    points: np.ndarray

    @property
    def passed(self) -> bool:
        return abs(self.estimated.beta_hat - self.predicted_beta) <= self.tolerance


@dataclass(frozen=True)
class TruncationReport:
    """Outcome of the truncation negative control."""

    m: float
    bound: float
    max_abs_sum: float
    within_bound: bool
    survival_beyond_bound: float
    tail_outcome: str
    tail_estimate: TailEstimate | None
    pd: PDEstimate
    points: np.ndarray | None = None


def _cell_counts(ascending: np.ndarray, z_grid: np.ndarray, right: bool) -> np.ndarray:
    """How many values lie at or above (right) or at or below (left) each z."""
    if right:
        return ascending.size - np.searchsorted(ascending, z_grid, side="left")
    return np.searchsorted(ascending, z_grid, side="right")


def estimate_pd_constant(cond, on_side, side: str = SIDE_RIGHT) -> PDEstimate:
    """Empirical PD constant from the conditioning column and the side mask of the other coordinates.

    ``cond`` is the conditioning coordinate, shape ``(n,)``. ``on_side`` is a
    bool mask of the same shape, True where every other coordinate lies on
    the side of zero: >= 0 for the right side, <= 0 for the left. For each z
    on the grid, computes P(on_side | cond >= z) on the right side (cond <= z
    on the left). The grid keeps each quantile q = 1 - 1/d of 0.5, 0.9, 0.99,
    0.999 and 0.9999 of ``cond`` whose cell expects n / d >= ``PD_CELL_EVENTS``
    events, compared in integers, so that n = 1e6 keeps 0.999 at exactly
    1000; every cell must hold that many. ``cond`` must be finite. The grid
    and the counts come from a sorted copy of ``cond``, which is freed before
    the passing rows are gathered and sorted.
    """
    cond = np.asarray(cond, dtype=np.float64)
    on_side = np.asarray(on_side)
    if cond.ndim != 1:
        raise ParameterError("cond must be an (n,) column")
    # only a bool array selects rows: a raw column would be read as truthiness or as row indices
    if on_side.dtype != np.bool_ or on_side.shape != cond.shape:
        raise ParameterError("on_side must be a bool mask of cond's shape")
    n = cond.size
    if n < _PD_MIN_SAMPLES:
        raise InsufficientDataError(f"PD estimation needs n >= {_PD_MIN_SAMPLES}, got {n}")
    require_choice("side", side, (SIDE_RIGHT, "left"))
    qs = np.array([1.0 - 1.0 / d for d in _Z_TAIL_DIVISORS if n >= PD_CELL_EVENTS * d])
    right = side == SIDE_RIGHT
    # cells are counted by binary search on sorted copies: all rows, then the rows that pass
    ranked = np.sort(cond)
    if not np.isfinite(ranked[[0, -1]]).all():  # a sort puts every NaN and inf at an end
        raise DomainError("the conditioning column must be finite")
    # + 0.0 writes the zero of a point mass as 0.0, whichever signed zero the sort put there
    z_grid = _sorted_quantiles(ranked, qs if right else 1.0 - qs) + 0.0
    counts = _cell_counts(ranked, z_grid, right)
    del ranked
    passing = cond[on_side]
    passing.sort()
    hits = _cell_counts(passing, z_grid, right)
    for z, count in zip(z_grid, counts):
        if count < PD_CELL_EVENTS:
            raise InsufficientDataError(f"conditioning cell at z={z:g} has {count} events, need {PD_CELL_EVENTS}")
    per_z = hits / counts
    return PDEstimate(c_hat=float(per_z.min()), z_grid=z_grid, per_z_conditional=per_z, side=side, cell_events=counts)


def judge_tail(
    rule: str, predicted: float, samples, side: str, window: FitWindow, overwrite: bool = False
) -> ClosureReport:
    """Fit the tail of ``samples`` folded on ``side`` and judge it against ``predicted``.

    ``overwrite`` is ``EmpiricalTail.from_samples``'s: a check folds the array it owns in place.
    """
    estimate, points = estimate_with_points(samples, side, window, overwrite)
    return ClosureReport(rule, predicted, estimate, closure_tolerance(predicted, estimate.stderr_slope), points)


def check_sum_rule(
    specs,
    n: int,
    window: FitWindow,
    rng: RngStream,
) -> ClosureReport:
    """Sum of independent draws: the tail parameter is the minimum.

    Independent coordinates satisfy the positive-dependence condition, so
    the minimum rule applies. Every summand must carry a ``tail_beta``
    except point masses, which do not constrain the minimum; a power tail
    (student_t) is refused.
    """
    specs = list(specs)
    require_integer("n", n, low=0)
    if len(specs) < 2:
        raise ParameterError("sum rule needs at least two specs")
    finite = [s.tail_beta for s in specs if s.tail_beta is not None]
    if not finite:
        raise ParameterError("no summand carries a tail parameter")
    if any(s.tail_beta is None and s.family != "point_mass" for s in specs):
        raise ParameterError("sum rule applies to Weibull-like (or bounded) summands")
    total = np.zeros(n)
    for k, spec in enumerate(specs):
        total += sample_iid(spec, n, rng.child(k))
    return judge_tail(RULE_SUM_MIN, min(finite), total, SIDE_RIGHT, window, overwrite=True)


def _require_symmetric_real(spec: DistributionSpec, what: str) -> float:
    """The tail parameter of a family in SYMMETRIC_FAMILIES; any other family is refused."""
    if spec.family not in SYMMETRIC_FAMILIES:
        raise ParameterError(f"{what} requires a symmetric real-line Weibull-like family")
    return spec.tail_beta


def check_product_rule(
    spec_x: DistributionSpec,
    spec_y: DistributionSpec,
    n: int,
    window: FitWindow,
    rng: RngStream,
) -> ClosureReport:
    """Product of independent symmetric draws: reciprocals add.

    Estimated on |XY| (absolute folding). Each factor must be in
    SYMMETRIC_FAMILIES, and the prediction composes their ``tail_beta``.
    A nonzero point mass acts as a pure rescaling and leaves the other
    factor's tail parameter.
    """
    pm_x = spec_x.family == "point_mass"
    pm_y = spec_y.family == "point_mass"
    if pm_x and pm_y:
        raise ParameterError("product of two point masses has no tail")
    if pm_x or pm_y:
        pm, other = (spec_x, spec_y) if pm_x else (spec_y, spec_x)
        if pm.params["value"] == 0:
            raise ParameterError("point-mass factor must be nonzero")
        predicted = _require_symmetric_real(other, "product rule")
    else:
        beta_x = _require_symmetric_real(spec_x, "product rule")
        beta_y = _require_symmetric_real(spec_y, "product rule")
        predicted = 1.0 / (1.0 / beta_x + 1.0 / beta_y)
    x = sample_iid(spec_x, n, rng.child(0))
    x *= sample_iid(spec_y, n, rng.child(1))
    return judge_tail(RULE_PRODUCT_HARMONIC, predicted, x, SIDE_ABSOLUTE, window, overwrite=True)


def check_power_rule(
    spec: DistributionSpec,
    a: float,
    b: float,
    n: int,
    window: FitWindow,
    rng: RngStream,
) -> ClosureReport:
    """a |X|**b has tail parameter beta / b; the scale a changes nothing.

    ``spec`` must be in SYMMETRIC_FAMILIES; ``beta`` is its ``tail_beta``.
    """
    require_finite("a", a, positive=True)
    require_finite("b", b, positive=True)
    beta = _require_symmetric_real(spec, "power rule")
    x = sample_iid(spec, n, rng.child(0))
    np.abs(x, out=x)
    np.power(x, b, out=x)
    np.multiply(x, a, out=x)
    return judge_tail(RULE_POWER, beta / b, x, SIDE_RIGHT, window, overwrite=True)


def negative_control_truncation(
    spec: DistributionSpec,
    m: float,
    n: int,
    rng: RngStream,
    window: FitWindow = FitWindow(),
) -> TruncationReport:
    """Truncation control: Y flips X outside [-m, m], so X + Y is capped.

    X + Y = 2 X 1{|X| <= m} algebraically, hence every sum lies in
    [-2m, 2m] and the pair (X, Y) violates positive dependence. The tail
    estimator must refuse (degenerate or insufficient) or return a fit
    whose window never crosses 2m.

    The PD estimate conditions on Y, with the mask X >= 0. X is turned into
    Y in place, and the sums are Y + Y with the flipped rows set to 0.0, the
    bits of X + Y, since x + (-x) is +0.0; so the control holds one sample
    array and two masks.
    """
    require_finite("m", m, positive=True)
    y = sample_iid(spec, n, rng.child(0))
    right_ok = y >= 0
    flip = np.abs(y) > m
    np.negative(y, out=y, where=flip)
    pd = estimate_pd_constant(y, right_ok)
    del right_ok
    sums = np.add(y, y, out=y)
    sums[flip] = 0.0
    del flip
    # the bound facts read every sum: the fold keeps only the order statistics from q_lo up
    max_abs_sum = float(np.abs(sums).max())
    beyond = np.count_nonzero(sums >= 2.0 * m * (1.0 + 1e-12)) / sums.size
    outcome, estimate, points = "estimate", None, None
    try:
        estimate, points = estimate_with_points(sums, SIDE_RIGHT, window, overwrite=True)
    except DegenerateTailError:
        outcome = "degenerate"
    except InsufficientDataError:
        outcome = "insufficient_data"
    return TruncationReport(
        m=m,
        bound=2.0 * m,
        max_abs_sum=max_abs_sum,
        within_bound=bool(max_abs_sum <= 2.0 * m),
        survival_beyond_bound=beyond,
        tail_outcome=outcome,
        tail_estimate=estimate,
        pd=pd,
        points=points,
    )


def _row_blocks(n: int):
    """The (lo, hi) bounds that split n rows into blocks of ``_PRODUCT_ROW_BLOCK``, in row order."""
    for lo in range(0, n, _PRODUCT_ROW_BLOCK):
        yield lo, min(lo + _PRODUCT_ROW_BLOCK, n)


def _product_row_blocks(n: int, n_units: int, rng: RngStream):
    """The rows of ``weight_unit_product_samples``, one (rows, n_units) block at a time, in row order.

    Each layer reads its own stream in row order, as that docstring says, so no
    block size moves a bit. A row's ||h1|| is the root of its squared columns
    added one by one, which is faster than ``np.linalg.norm`` on so few columns.
    """
    x_norm = np.linalg.norm(rng.child(1).generator().standard_normal(PRODUCT_NET_INPUT_DIM))
    hidden, pre, weights = rng.generator(), rng.child(2).generator(), rng.child(3).generator()
    for lo, hi in _row_blocks(n):
        h1 = hidden.standard_normal((hi - lo, PRODUCT_NET_HIDDEN_WIDTH))
        h1 *= x_norm
        np.maximum(h1, 0.0, out=h1)
        h1 *= h1
        h1_norm = np.sqrt(reduce(np.add, h1.T))
        block = pre.standard_normal((hi - lo, n_units))
        block *= h1_norm[:, None]
        np.maximum(block, 0.0, out=block)
        block *= weights.standard_normal((hi - lo, n_units))
        yield block


def weight_unit_product_samples(
    n: int,
    n_units: int,
    rng: RngStream,
) -> np.ndarray:
    """Joint samples of weight-times-unit products from a two-layer net.

    Returns an (n, n_units) matrix whose columns are w_i * h_i with h_i
    dependent nonnegative hidden units (they share the first layer) and
    w_i independent symmetric weights, the construction behind the
    positive-dependence lower bound 1 / 2**(N-1).

    The net has N(0, 1) weights, so each layer is drawn through its exact
    collapse: given h, ``h @ W`` is N(0, ||h||^2 I), and a row needs
    4 + 2 n_units normals instead of one per weight. The units of a row
    stay dependent through the shared ||h1||. The hidden layer draws from
    ``rng``, the pre-activations from ``rng.child(2)`` and the output weights
    from ``rng.child(3)``; child 1 is the fixed input. Each stream is read in
    row order, a block of rows at a time, so the result has the bits of
    drawing each layer in one call, and the working memory stays near the
    output's.
    """
    require_integer("n", n, low=0)
    require_integer("n_units", n_units, low=2)
    out = np.empty((n, n_units))
    for (lo, hi), block in zip(_row_blocks(n), _product_row_blocks(n, n_units, rng)):
        out[lo:hi] = block
    return out


def _pd_masks(blocks, n: int):
    """The row blocks of an (n, N) joint reduced to ``estimate_pd_constant``'s arguments, for both sides.

    Returns ``(cond, right_ok, left_ok)``: column N-1, and whether columns
    0..N-2 all lie >= 0, or all <= 0. All >= 0 holds exactly when their
    minimum is >= 0, and all <= 0 exactly when their maximum is <= 0, so the
    masks come from the row minimum and maximum, and give the joint's
    estimate on either side, field for field. Both go column by column: an
    ``axis=1`` reduction is slower on so few columns.
    """
    cond, right_ok, left_ok = np.empty(n), np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    for (lo, hi), block in zip(_row_blocks(n), blocks):
        others = block[:, :-1].T
        np.greater_equal(reduce(np.minimum, others), 0, out=right_ok[lo:hi])
        np.less_equal(reduce(np.maximum, others), 0, out=left_ok[lo:hi])
        cond[lo:hi] = block[:, -1]
    return cond, right_ok, left_ok


# ----------------------------- canned suite -----------------------------

SUITES = ("sum", "product", "power", "pd", "negatives", "all")
_TRUNCATION_FIELDS = ("m", "bound", "max_abs_sum", "within_bound", "survival_beyond_bound", "tail_outcome")


@dataclass(frozen=True)
class CheckResult:
    """One verdict of the canned closure suite.

    ``fields`` holds the record's details, numpy values as they are;
    ``points`` the log-log points its tail estimate was fitted on, if any.
    """

    name: str
    kind: str
    passed: bool
    fields: dict
    points: np.ndarray | None = None

    def to_dict(self) -> dict:
        head = {"name": self.name, "kind": self.kind}
        verdict = {"verdict": "pass" if self.passed else "fail"}
        # rule checks list their verdict after the estimate, the others before their details
        if self.kind == "closure":
            return {**head, **self.fields, **verdict}
        return {**head, **verdict, **self.fields}


def _rule_result(name: str, report: ClosureReport) -> CheckResult:
    fields = {"rule": report.rule, "predicted_beta": report.predicted_beta, **asdict(report.estimated)}
    return CheckResult(name, "closure", report.passed, fields, report.points)


def _truncation_result(name: str, rep: TruncationReport, passed: bool, **extra) -> CheckResult:
    fields = {
        "truncation": {key: getattr(rep, key) for key in _TRUNCATION_FIELDS},
        "pd": asdict(rep.pd),
    }
    if rep.tail_estimate is not None:
        fields["tail_estimate"] = asdict(rep.tail_estimate)
    return CheckResult(name, "negative", bool(passed), {**fields, **extra}, rep.points)


def _pd_independent_result(name: str, n_coords: int, expected: float, n: int, rng: RngStream) -> CheckResult:
    gen = rng.generator()
    # row blocks of one generator read the stream as one (n, n_coords) draw does
    cond, right_ok, _ = _pd_masks((gen.standard_normal((hi - lo, n_coords)) for lo, hi in _row_blocks(n)), n)
    pd = estimate_pd_constant(cond, right_ok)
    return CheckResult(name, "pd", abs(pd.c_hat - expected) <= 0.05, {"pd": asdict(pd)})


def _pd_counter_monotone_result(n: int, rng: RngStream) -> CheckResult:
    """The pair (X, -X): conditioned on -X, with the mask X >= 0."""
    x = rng.generator().standard_normal(n)
    right_ok = x >= 0
    pd = estimate_pd_constant(np.negative(x, out=x), right_ok)
    # PD is expected to fail here; the control passes when c_hat is tiny
    fields = {"pd": asdict(pd), "expected_fail_of_pd": True}
    return CheckResult("pd_counter_monotone_control", "pd", pd.c_hat <= 0.05, fields)


def _pd_lemma_result(n_units: int, n: int, rng: RngStream) -> CheckResult:
    """The lemma's checks on ``weight_unit_product_samples(n, n_units, rng)``, which is never held whole."""
    cond, right_ok, left_ok = _pd_masks(_product_row_blocks(n, n_units, rng), n)
    right = estimate_pd_constant(cond, right_ok, side="right")
    del right_ok
    left = estimate_pd_constant(cond, left_ok, side="left")
    floor = 1.0 / 2 ** (n_units - 1) - 0.05
    passed = right.c_hat >= floor and left.c_hat >= floor
    fields = {"pd": asdict(right), "pd_left": asdict(left)}
    return CheckResult(f"pd_lemma_products_{n_units}", "pd", passed, fields)


def closure_suite(suite: str, seed: int, n: int, window: FitWindow):
    """Run the canned checks of ``suite`` (one of SUITES); yields CheckResults in report order.

    Check k draws from child stream k of ``seed`` in every suite. The PD
    checks and the truncation controls run at n >= 1e5, the PD estimate's
    floor. Every PD check reduces its data, while it draws, to the
    conditioning column and its side masks, and holds no (n, N) matrix. PD
    checks run in helpers: a suspended generator keeps its locals alive, so
    their columns and masks would stack on the next check's memory. The
    envelope check folds the sample it owns in place.
    """
    require_choice("suite", suite, SUITES)
    require_integer("n", n, low=0)
    base = RngStream(seed)
    n_pd = max(n, _PD_MIN_SAMPLES)
    gauss, laplace = DistributionSpec.gaussian(), DistributionSpec.laplace()
    groups = SUITES[:-1] if suite == "all" else (suite,)

    if "sum" in groups:
        yield _rule_result("sum_gauss_laplace", check_sum_rule([gauss, laplace], n, window, base.child(1)))
        pm0 = DistributionSpec.point_mass(0.0)
        yield _rule_result("sum_identity_point_mass", check_sum_rule([gauss, pm0], n, window, base.child(2)))
        ggs = [DistributionSpec.generalized_gaussian(s) for s in (2.0, 1.5, 3.0)]
        yield _rule_result("sum_three_generalized_gaussians", check_sum_rule(ggs, n, window, base.child(3)))
    if "product" in groups:
        yield _rule_result("product_gauss_gauss", check_product_rule(gauss, gauss, n, window, base.child(4)))
        yield _rule_result("product_gauss_laplace", check_product_rule(gauss, laplace, n, window, base.child(5)))
        pm1 = DistributionSpec.point_mass(1.0)
        yield _rule_result(
            "product_identity_point_mass", check_product_rule(gauss, pm1, n, window, base.child(6))
        )
    if "power" in groups:
        yield _rule_result("power_gauss_squared", check_power_rule(gauss, 1.0, 2.0, n, window, base.child(7)))
        yield _rule_result("power_gauss_rescaled", check_power_rule(gauss, 3.0, 1.0, n, window, base.child(8)))
        yield _rule_result("power_laplace_sqrt", check_power_rule(laplace, 1.0, 0.5, n, window, base.child(9)))
    if "pd" in groups:
        yield _pd_independent_result("pd_independent_pair", 2, 0.5, n_pd, base.child(10))
        yield _pd_independent_result("pd_independent_triple", 3, 0.25, n_pd, base.child(11))
        yield _pd_counter_monotone_result(n_pd, base.child(12))
        for n_units, k in ((2, 13), (3, 14), (4, 15)):
            yield _pd_lemma_result(n_units, n_pd, base.child(k))
    if "negatives" in groups:
        rep = negative_control_truncation(gauss, 1.0, n_pd, base.child(16), window)
        tight = rep.within_bound and rep.survival_beyond_bound == 0.0 and rep.pd.c_hat <= 0.05
        yield _truncation_result("truncation_gaussian_m1", rep, tight, expected_fail_of_pd=True)
        rep = negative_control_truncation(gauss, 10.0, n_pd, base.child(17), window)
        loose = rep.within_bound
        if rep.tail_estimate is not None:
            tol = closure_tolerance(gauss.tail_beta, rep.tail_estimate.stderr_slope)
            loose = loose and abs(rep.tail_estimate.beta_hat - gauss.tail_beta) <= tol
        yield _truncation_result("truncation_gaussian_m10", rep, loose)
        t3 = sample_iid(DistributionSpec.student_t(3.0), n, base.child(18))
        tail = EmpiricalTail.from_samples(t3, q_keep=window.q_lo, overwrite=True)
        holds = {f"beta_{b}": check_subweibull_envelope(tail, 1.0 / b, window) for b in (0.5, 1.0, 2.0)}
        fields = {"envelope_holds": holds, "expected_fail_of_envelopes": True}
        yield CheckResult("student_t_weibull_envelopes", "negative", not any(holds.values()), fields)
