"""Problem specification: barriers with left limits, generator registry, validation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UnknownForm
from .lattice import AdaptedValues, Tree, values_from_function

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
        if self.form not in _GENERATOR_FORMS:
            raise UnknownForm(f"unknown generator form {self.form!r}")

    @property
    def depends_on_solution(self) -> bool:
        if self.form == "constant":
            return False
        p = self.params
        return bool(p.get("b", 0.0) or p.get("c", 0.0) or any(np.atleast_1d(p.get("d", [0.0]))))

    @property
    def affine_in_y(self) -> bool:
        return self.form in ("constant", "affine")

    def y_slope(self) -> float:
        return float(self.params.get("b", 0.0)) if self.form == "affine" else 0.0


def _eval_affine(params, t, x, y, z, v):
    out = params.get("a0", 0.0) + params.get("a1", 0.0) * t
    out = out + params.get("b", 0.0) * y + params.get("c", 0.0) * z
    d = np.atleast_1d(np.asarray(params.get("d", []), dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float)) if d.size else None
    if d.size:
        out = out + v @ d
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


@dataclass
class ProblemSpec:
    """A reflected-equation instance: tree, generator, barriers, terminal values."""

    tree: Tree
    generator: GeneratorSpec
    barriers: BarrierPair
    terminal: np.ndarray
    state: AdaptedValues | None = None

    def __post_init__(self):
        self.terminal = np.asarray(self.terminal, dtype=float)
        n = self.tree.layer_size(self.tree.grid.steps)
        if self.terminal.shape == ():
            self.terminal = np.full(n, float(self.terminal))
        if self.terminal.shape[0] != n:
            raise ValueError(f"terminal layer needs {n} values, got {self.terminal.shape[0]}")

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
    own row of shape (1,) or (1, m), so the stacked matrix products run the
    same per-pair dot products as a one-pair call and give the same bits.
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
