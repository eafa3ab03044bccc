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

import numpy as np

from .errors import (
    DegenerateTailError,
    DomainError,
    InsufficientDataError,
    ParameterError,
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
# rows per block of its draws: the bits do not depend on it, only the memory does
_PRODUCT_ROW_BLOCK = 2**14

# relative band plus noise floor: slowly-varying bias scales with beta
RELATIVE_TOLERANCE = 0.15


def closure_tolerance(predicted_beta: float, stderr: float) -> float:
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


def estimate_pd_constant(joint_samples, side: str = SIDE_RIGHT) -> PDEstimate:
    """Empirical PD constant of a joint sample matrix, conditioned on its last column.

    For each z on the grid, computes P(all other coordinates >= 0 |
    X_cond >= z) on the right side (both inequalities flipped on the
    left). The grid keeps each quantile q = 1 - 1/d of 0.5, 0.9, 0.99,
    0.999 and 0.9999 of the conditioning coordinate whose cell expects
    n / d >= ``PD_CELL_EVENTS`` events, compared in integers, so that
    n = 1e6 keeps 0.999 at exactly 1000; every cell must hold that many.
    The conditioning column must be finite.
    """
    x = np.asarray(joint_samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ParameterError("joint_samples must be an (n, N) matrix with N >= 2")
    n = x.shape[0]
    if n < _PD_MIN_SAMPLES:
        raise InsufficientDataError(f"PD estimation needs n >= {_PD_MIN_SAMPLES}, got {n}")
    if side not in (SIDE_RIGHT, "left"):
        raise ParameterError("side must be 'right' or 'left'")
    qs = np.array([1.0 - 1.0 / d for d in _Z_TAIL_DIVISORS if n >= PD_CELL_EVENTS * d])
    cond = x[:, -1]
    right = side == SIDE_RIGHT
    on_side = np.greater_equal if right else np.less_equal
    all_ok = on_side(x[:, 0], 0)
    for j in range(1, x.shape[1] - 1):
        all_ok &= on_side(x[:, j], 0)
    # cells are counted by binary search on sorted copies: all rows, then the rows that pass
    ranked = np.sort(cond)
    if not np.isfinite(ranked[[0, -1]]).all():  # a sort puts every NaN and inf at an end
        raise DomainError("the conditioning column must be finite")
    # + 0.0 writes the zero of a point mass as 0.0, whichever signed zero the sort put there
    z_grid = _sorted_quantiles(ranked, qs if right else 1.0 - qs) + 0.0
    counts = _cell_counts(ranked, z_grid, right)
    del ranked
    passing = cond[all_ok]
    passing.sort()
    hits = _cell_counts(passing, z_grid, right)
    for z, count in zip(z_grid, counts):
        if count < PD_CELL_EVENTS:
            raise InsufficientDataError(f"conditioning cell at z={z:g} has {count} events, need {PD_CELL_EVENTS}")
    per_z = hits / counts
    return PDEstimate(c_hat=float(per_z.min()), z_grid=z_grid, per_z_conditional=per_z, side=side, cell_events=counts)


def judge_tail(rule: str, predicted: float, samples, side: str, window: FitWindow) -> ClosureReport:
    """Fit the tail of ``samples`` folded on ``side`` and judge it against ``predicted``."""
    estimate, points = estimate_with_points(samples, side, window)
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
    return judge_tail(RULE_SUM_MIN, min(finite), total, SIDE_RIGHT, window)


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
    y = sample_iid(spec_y, n, rng.child(1))
    return judge_tail(RULE_PRODUCT_HARMONIC, predicted, x * y, SIDE_ABSOLUTE, window)


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
    if a <= 0 or b <= 0:
        raise ParameterError("a and b must be > 0")
    beta = _require_symmetric_real(spec, "power rule")
    x = sample_iid(spec, n, rng.child(0))
    transformed = a * np.abs(x) ** b
    return judge_tail(RULE_POWER, beta / b, transformed, SIDE_RIGHT, window)


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
    """
    if m <= 0:
        raise ParameterError("m must be > 0")
    x = sample_iid(spec, n, rng.child(0))
    flip = np.abs(x) > m
    # X and Y share one (n, 2) matrix, with Y = X negated where |X| > m
    xy = np.repeat(x[:, None], 2, axis=1)
    del x
    np.negative(xy[:, 1], out=xy[:, 1], where=flip)
    del flip
    pd = estimate_pd_constant(xy)
    sums = xy[:, 0] + xy[:, 1]
    del xy
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
    stay dependent through the shared ||h1||. The first and last layers
    are drawn in row blocks, in stream order, so the result keeps the bits
    of one-shot draws while the working memory stays near the output's.
    """
    if n_units < 2:
        raise ParameterError("need at least two product coordinates")
    gen = rng.generator()
    x_norm = np.linalg.norm(rng.child(1).generator().standard_normal(PRODUCT_NET_INPUT_DIM))
    block = _PRODUCT_ROW_BLOCK
    h1_norm = np.empty((n, 1))
    for lo in range(0, n, block):
        h1 = gen.standard_normal((min(block, n - lo), PRODUCT_NET_HIDDEN_WIDTH))
        h1 *= x_norm
        np.maximum(h1, 0.0, out=h1)
        h1_norm[lo : lo + block] = np.linalg.norm(h1, axis=1, keepdims=True)
    out = gen.standard_normal(out=np.empty((n, n_units)))
    out *= h1_norm
    del h1_norm
    np.maximum(out, 0.0, out=out)
    for lo in range(0, n, block):
        rows = out[lo : lo + block]
        rows *= gen.standard_normal(rows.shape)
    return out


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
    pd = estimate_pd_constant(rng.generator().standard_normal((n, n_coords)))
    return CheckResult(name, "pd", abs(pd.c_hat - expected) <= 0.05, {"pd": asdict(pd)})


def _pd_counter_monotone_result(n: int, rng: RngStream) -> CheckResult:
    x = rng.generator().standard_normal(n)
    pd = estimate_pd_constant(np.column_stack([x, -x]))
    # PD is expected to fail here; the control passes when c_hat is tiny
    fields = {"pd": asdict(pd), "expected_fail_of_pd": True}
    return CheckResult("pd_counter_monotone_control", "pd", pd.c_hat <= 0.05, fields)


def _pd_lemma_result(n_units: int, n: int, rng: RngStream) -> CheckResult:
    joint = weight_unit_product_samples(n, n_units, rng)
    right = estimate_pd_constant(joint, side="right")
    left = estimate_pd_constant(joint, side="left")
    floor = 1.0 / 2 ** (n_units - 1) - 0.05
    passed = right.c_hat >= floor and left.c_hat >= floor
    fields = {"pd": asdict(right), "pd_left": asdict(left)}
    return CheckResult(f"pd_lemma_products_{n_units}", "pd", passed, fields)


def closure_suite(suite: str, seed: int, n: int, window: FitWindow):
    """Run the canned checks of ``suite`` (one of SUITES); yields CheckResults in report order.

    Check k draws from child stream k of ``seed`` in every suite. The PD
    checks and the truncation controls run at n >= 1e5, the PD estimate's
    floor. PD checks run in helpers: a suspended generator keeps its locals
    alive, so their sample matrices would stack on the next check's memory.
    """
    if suite not in SUITES:
        raise ParameterError(f"suite must be one of {SUITES}, got {suite!r}")
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
        tail = EmpiricalTail.from_samples(t3, q_keep=window.q_lo)
        holds = {f"beta_{b}": check_subweibull_envelope(tail, 1.0 / b, window) for b in (0.5, 1.0, 2.0)}
        fields = {"envelope_holds": holds, "expected_fail_of_envelopes": True}
        yield CheckResult("student_t_weibull_envelopes", "negative", not any(holds.values()), fields)
