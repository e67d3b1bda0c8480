"""Gain certification: theorem conditions, thresholds and analytic bounds.

Four regimes are distinguished by ensemble homogeneity and which gains are
zero. Each certify_* function evaluates the corresponding stability
conditions, the predicted consensus value and the applicable bound on the
integral states (or on the residual disagreement in the derivative-only
case). The heterogeneous condition embeds the optimal slack choice, so no
free parameter is exposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFinite, NotHomogeneous, UnstableAverage
from .netmodel import Gains, Instance, norm2
from .spectral import h_norm_bound, modified_laplacian
from .transverse import dominant_real_part

REGIME_HOMOGENEOUS_PID = "HomogeneousPID"
REGIME_HOMOGENEOUS_PI = "HomogeneousPI"
REGIME_HOMOGENEOUS_PD = "HomogeneousPD"
REGIME_HETEROGENEOUS_PID = "HeterogeneousPID"

# Reference proportional-gain threshold reported for the six-inverter
# benchmark in the literature; echoed for comparison, never asserted.
BENCHMARK_ALPHA_REFERENCE = 5.92


@dataclass(frozen=True)
class Condition:
    name: str
    satisfied: bool
    margin: float

    def __post_init__(self):
        # normalize numpy scalars so certificates serialize cleanly
        object.__setattr__(self, "satisfied", bool(self.satisfied))
        object.__setattr__(self, "margin", float(self.margin))


@dataclass(frozen=True)
class Certificate:
    """In field order, the ``certificate`` block; ``certified`` is whether every condition holds."""

    regime: str
    certified: bool = field(init=False)
    conditions: tuple[Condition, ...]
    x_inf: float | None = None
    z_inf_bound: float | None = None
    epsilon_bound: float | None = None
    mu: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "certified", all(c.satisfied for c in self.conditions))


def _require_homogeneous(instance: Instance) -> float:
    """Return the common stability margin rho* = -max(rho), that of the least
    stable pole: it does not depend on the node order."""
    if not instance.ensemble.is_homogeneous():
        raise NotHomogeneous(
            f"poles span [{instance.ensemble.rho.min()}, {instance.ensemble.rho.max()}]"
        )
    return -float(np.max(instance.ensemble.rho))


def _certify_homogeneous_integral(instance: Instance, gains: Gains, regime: str,
                                  gamma_condition: Condition, factor: float) -> Certificate:
    """The PID and PI theorems' shared body: their four conditions, the consensus
    value, the integral-state bound factor * ||delta|| and, for stable poles, mu."""
    rho_star = _require_homogeneous(instance)
    conditions = (
        Condition("alpha_positive", gains.alpha > 0, gains.alpha),
        Condition("beta_positive", gains.beta > 0, gains.beta),
        gamma_condition,
        Condition("stable_poles", rho_star > 0, rho_star),
    )
    mu = convergence_rate(instance, gains) if rho_star > 0 else None
    return Certificate(
        regime=regime,
        conditions=conditions,
        x_inf=instance.ensemble.x_inf,
        z_inf_bound=_finite_z_bound(factor * instance.ensemble.delta_norm, instance),
        mu=mu,
    )


def certify_homogeneous_pid(instance: Instance, gains: Gains) -> Certificate:
    """Full PID on identical agents: certified for any positive gains.

    Stable agents (rho* > 0) give bounded consensus; unstable ones are
    flagged since the common trajectory then diverges (consensus is still
    reached in the disagreement sense).
    """
    n = instance.node_count
    factor = math.sqrt(n**3 * (n - 1)) / (gains.gamma * instance.dec.lambda_2 + 1.0)
    return _certify_homogeneous_integral(
        instance, gains, REGIME_HOMOGENEOUS_PID,
        Condition("gamma_positive", gains.gamma > 0, gains.gamma), factor)


def certify_homogeneous_pi(instance: Instance, gains: Gains) -> Certificate:
    """PI protocol (gamma = 0) on identical agents."""
    n = instance.node_count
    return _certify_homogeneous_integral(
        instance, gains, REGIME_HOMOGENEOUS_PI,
        Condition("gamma_zero", gains.gamma == 0, -abs(gains.gamma)), math.sqrt(n * (n - 1)))


def certify_homogeneous_pd(instance: Instance, gains: Gains) -> Certificate:
    """PD protocol (beta = 0): residual disagreement bounded by epsilon."""
    rho_star = _require_homogeneous(instance)
    n = instance.node_count
    lam2 = instance.dec.lambda_2
    lamN = instance.dec.lambda_max
    denom = gains.alpha * lamN + rho_star
    conditions = (
        Condition("alpha_positive", gains.alpha > 0, gains.alpha),
        Condition("beta_zero", gains.beta == 0, -abs(gains.beta)),
        Condition("feedback_dominates_pole", denom > 0, denom),
    )
    eps = None
    if denom > 0:
        eps = (
            (gains.gamma * lamN + 1.0)
            / (gains.gamma * lam2 + 1.0)
            * n
            / denom
            * instance.ensemble.delta_norm
        )
    return Certificate(
        regime=REGIME_HOMOGENEOUS_PD,
        conditions=conditions,
        epsilon_bound=eps,
    )


def convergence_rate(instance: Instance, gains: Gains) -> float:
    """Decay rate of the transverse modes for identical agents.

    Each nonzero Laplacian eigenvalue contributes a quadratic
    eta^2 + eta*(alpha*lam + rho*)/(gamma*lam + 1) + beta*lam/(gamma*lam + 1);
    the rate is the magnitude of the largest real part over all roots.
    """
    rho_star = _require_homogeneous(instance)
    lam = instance.dec.lam[1:]
    with np.errstate(all="ignore"):
        denom = gains.gamma * lam + 1.0
        b = gains.alpha * (lam / denom) + rho_star / denom  # finite where alpha*lam need not be
        c = gains.beta * lam / denom
    return float(abs(np.max(dominant_real_part(b, c))))  # np.max keeps a NaN


def _gain_threshold_rhs(instance: Instance, h1_norm: float) -> float:
    """Right-hand side of the heterogeneous proportional-gain condition,
    (max|rho| + rho_bar.rho_bar ||I + H_hat||^2 / (4 |psi11|)) / N.

    Raises UnstableAverage unless the average pole psi11 is negative.
    """
    ens = instance.ensemble
    if ens.psi11 >= 0:
        raise UnstableAverage(f"average pole psi11 = {ens.psi11:.6g} is nonnegative")
    rr = ens.rho_bar_sq
    # in Python floats: an overflow gives inf, and inf - inf (the margin) NaN, not warnings
    return (float(np.max(np.abs(ens.rho))) + rr / (4.0 * abs(ens.psi11)) * h1_norm**2) / ens.node_count


def min_alpha(instance: Instance, gamma: float, conservative: bool = False) -> float:
    """Infimum proportional gain satisfying the heterogeneous condition.

    With ``conservative=True`` the closed-form bound 1 + N/(gamma*lambda_2+1)
    replaces the exact spectral norm of I + H_hat.
    """
    mod_lap = modified_laplacian(instance.dec, gamma)
    h1_norm = 1.0 + h_norm_bound(instance.dec, gamma) if conservative else mod_lap.h1_norm
    lam2 = instance.dec.lambda_2
    rhs = _gain_threshold_rhs(instance, h1_norm)
    return rhs * (gamma * lam2 + 1.0) / lam2  # Python floats: inf, not a warning


def z_infinity_bound(instance: Instance, gains: Gains) -> float:
    """Asymptotic bound on the norm of the integral states."""
    h_norm = modified_laplacian(instance.dec, gains.gamma).h_norm
    ens = instance.ensemble
    n = instance.node_count
    rho_bar_norm = norm2(ens.rho_bar)
    if rho_bar_norm > 0 and ens.psi11 == 0.0:
        raise UnstableAverage("psi11 = 0: heterogeneous bound undefined")
    het = 1.0 + (rho_bar_norm / (n * abs(ens.psi11)) if rho_bar_norm > 0 else 0.0)
    return _finite_z_bound(math.sqrt(n * (n - 1)) * h_norm * het * ens.delta_norm, instance)


def _finite_z_bound(bound: float, instance: Instance) -> float:
    """A bound formed in Python floats (inf, not a warning, on overflow) where finite."""
    if not math.isfinite(bound):
        raise NonFinite(f"z_inf_bound leaves the float range "
                        f"(||ensemble.delta|| = {instance.ensemble.delta_norm:.6g})")
    return bound


def certify_heterogeneous_pid(instance: Instance, gains: Gains) -> Certificate:
    """Heterogeneous agents under full PID: negative average pole plus a
    proportional-gain threshold. With beta = 0 the integral action is
    missing and the certificate fails its beta condition."""
    mod_lap = modified_laplacian(instance.dec, gains.gamma)
    ens = instance.ensemble
    lam2 = instance.dec.lambda_2
    lhs = gains.alpha * lam2 / (gains.gamma * lam2 + 1.0)
    rhs = _gain_threshold_rhs(instance, mod_lap.h1_norm)
    conditions = (
        Condition("average_pole_negative", ens.psi11 < 0, -ens.psi11),
        Condition("beta_positive", gains.beta > 0, gains.beta),
        Condition("proportional_gain_threshold", lhs > rhs, float(lhs - rhs)),
    )
    return Certificate(
        regime=REGIME_HETEROGENEOUS_PID,
        conditions=conditions,
        x_inf=ens.x_inf,
        z_inf_bound=z_infinity_bound(instance, gains),
    )


def certify(instance: Instance, gains: Gains) -> Certificate:
    """Dispatch to the regime implied by the ensemble and gains."""
    if instance.ensemble.is_homogeneous():
        if gains.beta == 0:
            return certify_homogeneous_pd(instance, gains)
        if gains.gamma == 0:
            return certify_homogeneous_pi(instance, gains)
        return certify_homogeneous_pid(instance, gains)
    return certify_heterogeneous_pid(instance, gains)


@dataclass(frozen=True)
class Analysis:
    """The graph and ensemble quantities the thresholds read: in field order, the
    ``analysis`` block of ``analyze`` and ``tune``."""

    nodes: int
    lambda_2: float
    lambda_max: float
    psi11: float
    rho_bar_sq: float
    h_norm_exact: float  # ||H_hat||
    h_norm_bound: float


def analysis(instance: Instance, gamma: float) -> Analysis:
    """The quantities at gamma, formed in field order after the modified Laplacian."""
    dec, ens = instance.dec, instance.ensemble
    mod_lap = modified_laplacian(dec, gamma)
    return Analysis(dec.node_count, dec.lambda_2, dec.lambda_max, ens.psi11, ens.rho_bar_sq,
                    mod_lap.h_norm, h_norm_bound(dec, gamma))


@dataclass(frozen=True)
class Tuning:
    """``tune``'s report, in field order."""

    gamma: float
    alpha_min_exact: float
    alpha_min_conservative: float
    reference_alpha_threshold: float
    suggested_gains: dict  # not a Gains, which rejects the infinite or zero alpha a report can hold
    analysis: Analysis


def tune(instance: Instance, gamma: float, beta: float) -> Tuning:
    """Both thresholds at gamma, a gain triple 1% above the exact one (beta at
    least 1), and the analysis at gamma, formed in that order."""
    alpha_exact = min_alpha(instance, gamma)
    return Tuning(gamma, alpha_exact, min_alpha(instance, gamma, conservative=True),
                  BENCHMARK_ALPHA_REFERENCE,
                  {"alpha": 1.01 * alpha_exact, "beta": max(beta, 1.0), "gamma": gamma},
                  analysis(instance, gamma))
