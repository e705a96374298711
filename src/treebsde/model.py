"""Problem specification: barriers with left limits, generator registry, validation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UnknownForm
from .lattice import AdaptedValues, Tree, _branch_sum, values_from_function

DEFAULT_PROBE_SEED = 42


@dataclass
class GeneratorSpec:
    """A named generator form f(t, x, y, z, v_1..v_m) with declared Lipschitz constant.

    Registered forms:
      - "constant":  c0 + c1*t                    (independent of state and solution)
      - "affine":    a0 + a1*t + b*y + c*z + sum_j d_j*v_j
      - "lipschitz-clip": the affine form clipped to [-clip, clip]
    """

    form: str
    params: dict = field(default_factory=dict)
    lipschitz: float = 0.0

    def __post_init__(self):
        if not isinstance(self.form, str) or self.form not in _GENERATOR_FORMS:
            raise UnknownForm(f"unknown generator form {self.form!r}")

    def y_slope(self) -> float:
        """The coefficient b of y in the affine part (lipschitz-clip clips that part)."""
        return float(self.params.get("b", 0.0)) if self.form != "constant" else 0.0

    def clip_bound(self) -> float | None:
        """The bound C of lipschitz-clip, which clips the affine part to [-C, C]; None for the other forms."""
        return float(self.params.get("clip", 1.0)) if self.form == "lipschitz-clip" else None


def _eval_affine(params, t, x, y, z, v):
    out = params.get("a0", 0.0) + params.get("a1", 0.0) * t
    out = out + params.get("b", 0.0) * y + params.get("c", 0.0) * z
    d = np.atleast_1d(np.asarray(params.get("d", []), dtype=float))
    if d.size:
        v = np.atleast_2d(np.asarray(v, dtype=float))
        if v.shape[-1] != d.size:
            raise ValueError(f"d has {d.size} entries for {v.shape[-1]} marks")
        out = out + _branch_sum(v, d)
    return out


_GENERATOR_FORMS = {
    "constant": lambda p, t, x, y, z, v: np.broadcast_to(
        np.asarray(p.get("c0", 0.0) + p.get("c1", 0.0) * t, dtype=float), np.shape(y)
    ).astype(float),
    "affine": _eval_affine,
    "lipschitz-clip": lambda p, t, x, y, z, v: np.clip(
        _eval_affine(p, t, x, y, z, v), -p.get("clip", 1.0), p.get("clip", 1.0)
    ),
}


def comparison_weights(tree: Tree, spec: GeneratorSpec) -> np.ndarray:
    """The weight of each child, in branch order, in the numerator of the one-step drift solve.

    With Z and V from ``represent_layer``, a + dt*(c*Z + sum_j d_j*V_j) puts
    (1 - dt*sum(lambda))/2 +- c*sqrt(dt)/2 - dt*sum(d)/2 on the up and down
    children and dt*(lambda_j + d_j) on mark child j.  lipschitz-clip's
    slopes in Z and V are c and d or zero, and a constant form's are zero,
    where the weights are the tree's own.  The scheme is monotone in the
    children where no weight is negative; the penalization bracket needs
    every weight strictly positive (the comparison condition), as rounding
    broke its order where a weight was zero.
    """
    dt, m = tree.grid.dt, tree.marks.m
    rates = np.asarray(tree.marks.rates, dtype=float)
    p = spec.params if spec.form != "constant" else {}
    d = np.atleast_1d(np.asarray(p.get("d", []), dtype=float))
    if d.size not in (0, m):
        raise ValueError(f"d has {d.size} entries for {m} marks")
    d = d if d.size else np.zeros(m)
    diffusion = (1.0 - dt * rates.sum()) / 2.0 - dt * d.sum() / 2.0
    slope = float(p.get("c", 0.0)) * math.sqrt(dt) / 2.0
    return np.concatenate(([diffusion + slope, diffusion - slope], dt * (rates + d)))


def evaluate_generator(spec: GeneratorSpec, t, x, y, z, v):
    """Evaluate a registered generator form; vectorized over nodes."""
    y = np.asarray(y, dtype=float)
    out = _GENERATOR_FORMS[spec.form](spec.params, t, x, y, np.asarray(z, dtype=float), v)
    return np.broadcast_to(np.asarray(out, dtype=float), y.shape)


@dataclass
class BarrierPair:
    """Barrier values per node, with optional flagged deterministic jump times.

    ``lower``/``upper`` cover every layer.  ``flagged`` maps a layer index k
    to pre-jump values (L_pre, U_pre) at t_k-, each one array per layer-k
    node.  At unflagged times the left limit equals the value itself (rcll
    convention), which is also the default when no pre-jump value is given.
    """

    lower: AdaptedValues
    upper: AdaptedValues
    flagged: dict = field(default_factory=dict)  # layer -> (L_pre, U_pre)

    def pre_jump(self, k: int):
        """Left-limit values (L_{t_k-}, U_{t_k-}) at layer k."""
        if k in self.flagged:
            return self.flagged[k]
        return self.lower.layer(k), self.upper.layer(k)


def barriers_from_functions(tree: Tree, lower_fn, upper_fn, state=None, flagged=None) -> BarrierPair:
    """Realize a barrier pair from (t, x) callables plus flagged pre-jump values.

    ``flagged`` maps layer -> (lower_pre, upper_pre) where each entry is a
    scalar, an array per node, or a (t, x) callable; missing entries default
    to the at-time value (no jump on that side).
    """
    lower = values_from_function(tree, lower_fn, state)
    upper = values_from_function(tree, upper_fn, state)
    realized = {}
    for k, (lp, up) in (flagged or {}).items():
        n = tree.layer_size(k)
        x = state.layer(k) if state is not None else np.zeros(n)
        t = tree.grid.time(k)

        def _realize(v, default):
            if v is None:
                return default.copy()
            if callable(v):
                return np.broadcast_to(np.asarray(v(t, x), dtype=float), (n,)).astype(float).copy()
            return np.broadcast_to(np.asarray(v, dtype=float), (n,)).astype(float).copy()

        realized[k] = (_realize(lp, lower.layer(k)), _realize(up, upper.layer(k)))
    return BarrierPair(lower=lower, upper=upper, flagged=realized)


def terminal_layer(tree: Tree, terminal) -> np.ndarray:
    """The terminal values as one float per leaf; a scalar is broadcast to every leaf."""
    terminal = np.asarray(terminal, dtype=float)
    n = tree.layer_size(tree.grid.steps)
    if terminal.shape == ():
        return np.full(n, float(terminal))
    if terminal.shape[0] != n:
        raise ValueError(f"terminal layer needs {n} values, got {terminal.shape[0]}")
    return terminal


@dataclass
class ProblemSpec:
    """A reflected-equation instance: tree, generator, barriers, terminal values."""

    tree: Tree
    generator: GeneratorSpec
    barriers: BarrierPair
    terminal: np.ndarray
    state: AdaptedValues | None = None

    def __post_init__(self):
        self.terminal = terminal_layer(self.tree, self.terminal)

    def state_layer(self, k: int) -> np.ndarray:
        if self.state is None:
            return np.zeros(self.tree.layer_size(k))
        return self.state.layer(k)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _lipschitz_probe(spec: GeneratorSpec, tree: Tree, rng, n_pairs=1000):
    """Max observed |df| / (|dy| + |dz| + ||dv||) over random input pairs.

    All pairs are evaluated in one call per side.  Each pair sits in its
    own row of shape (1,) or (1, m), and the generator's mark sum and the
    norm's dot product see each row alone, so they give a one-pair call's
    bits.
    """
    m = tree.marks.m
    t_samples = rng.uniform(0.0, tree.grid.horizon, n_pairs)
    a = rng.normal(size=(n_pairs, 2 + m)) * 3.0
    b = rng.normal(size=(n_pairs, 2 + m)) * 3.0
    t = t_samples[:, None]
    f1 = evaluate_generator(spec, t, 0.0, a[:, :1], a[:, 1:2], a[:, None, 2:])[:, 0]
    f2 = evaluate_generator(spec, t, 0.0, b[:, :1], b[:, 1:2], b[:, None, 2:])[:, 0]
    dv = a[:, 2:] - b[:, 2:]
    dv_norm = np.sqrt(np.matmul(dv[:, None, :], dv[:, :, None])[:, 0, 0])
    denom = np.abs(a[:, 0] - b[:, 0]) + np.abs(a[:, 1] - b[:, 1]) + dv_norm
    probed = denom > 1e-12
    # fmax skips NaN ratios, as a running max(worst, ratio) does
    return float(np.fmax.reduce(np.abs(f1 - f2)[probed] / denom[probed], initial=0.0))


def validate(problem: ProblemSpec, require_h: bool = False, seed: int = DEFAULT_PROBE_SEED) -> ValidationReport:
    """Run the standing-assumption checks and return a report (never raises).

    Checks: node-wise barrier order L <= U; strict separation including left
    limits at flagged times (only when ``require_h``); terminal sandwich
    L_T <= xi <= U_T; randomized Lipschitz probe of the generator against
    its declared constant; contraction warning when C_f * dt >= 1.
    """
    tree = problem.tree
    bar = problem.barriers
    checks = []

    order_ok, order_detail = True, ""
    for k in range(tree.n_layers):
        bad = bar.lower.layer(k) > bar.upper.layer(k)
        if np.any(bad):
            order_ok = False
            order_detail = f"L > U at layer {k}, node {int(np.argmax(bad))}"
            break
    checks.append(CheckResult("barrier-order", order_ok, order_detail))

    if require_h:
        h_ok, h_detail = True, ""
        for k in range(tree.n_layers):
            if np.any(bar.lower.layer(k) >= bar.upper.layer(k)):
                h_ok, h_detail = False, f"L >= U at layer {k}"
                break
            lp, up = bar.pre_jump(k)
            if np.any(lp >= up):
                h_ok, h_detail = False, f"left limits L- >= U- at flagged layer {k}"
                break
        checks.append(CheckResult("strict-separation", h_ok, h_detail))

    ln, un = bar.lower.layer(tree.grid.steps), bar.upper.layer(tree.grid.steps)
    sandwich = bool(np.all(ln <= problem.terminal) and np.all(problem.terminal <= un))
    checks.append(CheckResult("terminal-sandwich", sandwich))

    rng = np.random.default_rng(seed)
    observed = _lipschitz_probe(problem.generator, tree, rng)
    lip_ok = observed <= problem.generator.lipschitz * (1.0 + 1e-9) + 1e-15
    checks.append(
        CheckResult("lipschitz-probe", bool(lip_ok), f"max observed ratio {observed:.6g}")
    )

    contraction = problem.generator.lipschitz * tree.grid.dt < 1.0
    checks.append(
        CheckResult(
            "contraction-margin",
            bool(contraction),
            "" if contraction else "C_f*dt >= 1: implicit solves may diverge; refine grid",
        )
    )
    return ValidationReport(checks)
