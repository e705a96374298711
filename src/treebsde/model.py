"""Problem specification: barriers with left limits, generator registry, validation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import ConfigError, LayerMismatch, UnknownForm
from .lattice import AdaptedValues, Tree, _branch_sum, check_layers, evaluate_form, values_from_function

DEFAULT_PROBE_SEED = 42
PROBE_PAIRS = 1000  # random input pairs of the Lipschitz probe
# the parameters each generator form reads
GENERATOR_PARAMS = {"constant": ("c0", "c1"), "affine": ("a0", "a1", "b", "c", "d"),
                    "lipschitz-clip": ("a0", "a1", "b", "c", "d", "clip")}


@dataclass(frozen=True)
class GeneratorSpec:
    """A named generator form f(t, y, z, v_1..v_m) with declared Lipschitz constant.

    Every form is one formula, a0 + a1*t + b*y + c*z + sum_j d_j*v_j:
    "affine" is the formula, "lipschitz-clip" clips it to [-clip, clip], and
    "constant" is c0 + c1*t, read as a0 and a1.  Construction checks
    ``params`` and resolves them into the floats a0, a1, b, c, the read-only
    array d and ``clip`` (None but for lipschitz-clip); the spec is frozen,
    and every solve reads those coefficients, never ``params``.
    """

    form: str
    params: dict = field(default_factory=dict)
    lipschitz: float = 0.0

    def __post_init__(self):
        if not isinstance(self.form, str) or self.form not in GENERATOR_PARAMS:
            raise UnknownForm(f"unknown generator form {self.form!r}")
        p = self.params
        if self.form == "lipschitz-clip" and not p.get("clip", 1.0) >= 0.0:  # NaN fails too
            raise ConfigError("params.clip", "the clip bound must be >= 0")
        for key in GENERATOR_PARAMS[self.form]:
            if key in p and not np.all(np.isfinite(p[key])):
                raise ConfigError(f"params.{key}", f"expected finite values, got {p[key]!r}")
        if self.form == "constant":
            p = {"a0": p.get("c0", 0.0), "a1": p.get("c1", 0.0)}
        for name in ("a0", "a1", "b", "c"):
            object.__setattr__(self, name, float(p.get(name, 0.0)))
        object.__setattr__(self, "d", np.array(p.get("d", []), dtype=float, ndmin=1))
        self.d.flags.writeable = False
        object.__setattr__(self, "clip", float(p.get("clip", 1.0)) if self.form == "lipschitz-clip" else None)

    def weights(self, m: int) -> np.ndarray:
        """The mark weights d, or zeros(m) where the form has none; LayerMismatch unless none or one per mark."""
        if self.d.size and self.d.shape != (m,):
            raise LayerMismatch(f"generator d has {self.d.size} entries for {m} marks")
        return self.d if self.d.size else np.zeros(m)

    def formula(self, t, y, z, v):
        """a0 + a1*t + b*y + c*z + sum_j d_j*v_j, before any clip; vectorized over nodes."""
        out = self.a0 + self.a1 * t
        out = out + self.b * y + self.c * z
        if self.d.size:
            v = np.atleast_2d(np.asarray(v, dtype=float))
            out = out + _branch_sum(v, self.weights(v.shape[-1]))
        return out


def comparison_weights(tree: Tree, spec: GeneratorSpec) -> np.ndarray:
    """The weight of each child, in branch order, in the numerator of the one-step drift solve.

    With Z and V from ``represent_layer``, a + dt*(c*Z + sum_j d_j*V_j) puts
    (1 - dt*sum(lambda))/2 +- c*sqrt(dt)/2 - dt*sum(d)/2 on the up and down
    children and dt*(lambda_j + d_j) on mark child j.  lipschitz-clip's
    slopes in Z and V are c and d or zero, and a constant form's are zero,
    where the weights are the tree's own.  The scheme is monotone in the
    children where no weight is negative; the penalization bracket needs
    every weight strictly positive (the comparison condition), as rounding
    broke its order where a weight was zero.  Raises LayerMismatch if
    ``spec`` has mark weights d, but not one per mark.
    """
    dt = tree.grid.dt
    rates = np.asarray(tree.marks.rates, dtype=float)
    d = spec.weights(tree.marks.m)
    diffusion = (1.0 - dt * rates.sum()) / 2.0 - dt * d.sum() / 2.0
    slope = spec.c * math.sqrt(dt) / 2.0
    return np.concatenate(([diffusion + slope, diffusion - slope], dt * (rates + d)))


def evaluate_generator(spec: GeneratorSpec, t, y, z, v):
    """Evaluate a generator f(t, y, z, v): its formula, clipped for lipschitz-clip; vectorized over nodes."""
    y = np.asarray(y, dtype=float)
    out = spec.formula(t, y, np.asarray(z, dtype=float), v)
    if spec.clip is not None:
        out = np.clip(out, -spec.clip, spec.clip)
    return np.broadcast_to(np.asarray(out, dtype=float), y.shape)


@dataclass(frozen=True)
class BarrierPair:
    """Barrier values per node, with optional flagged deterministic jump times.

    ``lower``/``upper`` cover every layer.  ``flagged`` maps a layer index k
    in 1..N to pre-jump values (L_pre, U_pre) at t_k-, each one array per
    layer-k node.  At unflagged times the left limit equals the value itself
    (rcll convention).  A side given as None is its at-time array (no jump
    on that side): construction replaces ``flagged`` by a read-only mapping
    holding that array itself, so every reader sees two arrays per flagged
    layer.  The pair is frozen and its arrays read-only, so every solve
    reads the data its checks saw.

    Raises
    ------
    LayerMismatch
        if a flagged layer lies outside 1..N (N the last layer of ``lower``)
        or a pre-jump array does not hold one value per node of its layer.
    """

    lower: AdaptedValues
    upper: AdaptedValues
    flagged: dict = field(default_factory=dict)  # layer -> (L_pre, U_pre)

    def __post_init__(self):
        N = self.lower.last_layer
        for k, pre in self.flagged.items():
            if not 1 <= k <= N:
                raise LayerMismatch(f"flagged layer {k} outside [1, {N}]")
            n = len(self.lower.layer(k))
            for side, values in zip(("lower", "upper"), pre):
                if values is not None and np.shape(values) != (n,):
                    raise LayerMismatch(f"{side} pre-jump values at flagged layer {k} have shape "
                                        f"{np.shape(values)}, expected ({n},)")
        flagged = {k: (self.lower.layer(k) if lp is None else np.asarray(lp),
                       self.upper.layer(k) if up is None else np.asarray(up))
                   for k, (lp, up) in self.flagged.items()}
        for values in (*self.lower.layers, *self.upper.layers, *(x for pre in flagged.values() for x in pre)):
            values.flags.writeable = False
        object.__setattr__(self, "flagged", MappingProxyType(flagged))

    def __reduce__(self):
        # a mapping proxy does not pickle: rebuild the pair from a plain dict
        return BarrierPair, (self.lower, self.upper, dict(self.flagged))


def barriers_from_functions(tree: Tree, lower_fn, upper_fn, state=None, flagged=None) -> BarrierPair:
    """Realize a barrier pair from (t, x) callables plus flagged pre-jump values.

    ``flagged`` maps layer -> (lower_pre, upper_pre) where each entry is a
    scalar, an array per node, a (t, x) callable, or None for the at-time
    value (no jump on that side).
    """
    lower = values_from_function(tree, lower_fn, state)
    upper = values_from_function(tree, upper_fn, state)
    realized = {k: tuple(None if form is None else evaluate_form(tree, form, state, k) for form in pre)
                for k, pre in (flagged or {}).items()}
    return BarrierPair(lower=lower, upper=upper, flagged=realized)


def check_barriers(tree: Tree, barriers: BarrierPair) -> None:
    """Raise LayerMismatch, naming the side, layer and shape, unless each barrier holds one value per node."""
    for side in ("lower", "upper"):
        check_layers(tree, getattr(barriers, side), f"{side} barrier", tree.grid.steps)


def terminal_layer(tree: Tree, terminal) -> np.ndarray:
    """The terminal values as one float per leaf, read-only; a scalar is broadcast to every leaf."""
    terminal = np.asarray(terminal, dtype=float)
    n = tree.layer_size(tree.grid.steps)
    if terminal.shape == ():
        terminal = np.full(n, float(terminal))
    if terminal.shape[0] != n:
        raise ValueError(f"terminal layer needs {n} values, got {terminal.shape[0]}")
    terminal.flags.writeable = False
    return terminal


@dataclass(frozen=True)
class ProblemSpec:
    """A reflected-equation instance: tree, generator, barriers, terminal values.

    ``state`` is the forward state the barriers and terminal were built from,
    kept as data: no solve reads it.  The spec is frozen and its terminal
    read-only, a copy's and an unpickled spec's too.  Raises LayerMismatch
    if a barrier does not cover layers 0..N with one value per node, or if
    an affine or lipschitz-clip generator has mark weights d, but not one
    per tree mark.
    """

    tree: Tree
    generator: GeneratorSpec
    barriers: BarrierPair
    terminal: np.ndarray
    state: AdaptedValues | None = None

    def __post_init__(self):
        object.__setattr__(self, "terminal", terminal_layer(self.tree, self.terminal))
        check_barriers(self.tree, self.barriers)
        self.generator.weights(self.tree.marks.m)

    def __reduce__(self):
        # rebuilt through the constructor, which makes the copied terminal read-only again
        return ProblemSpec, (self.tree, self.generator, self.barriers, self.terminal, self.state)


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


def _lipschitz_probe(spec: GeneratorSpec, tree: Tree, rng):
    """Max observed |df| / (|dy| + |dz| + ||dv||) over random input pairs.

    All pairs are evaluated in one call per side.  Each pair sits in its
    own row of shape (1,) or (1, m), and the generator's mark sum and the
    norm's dot product see each row alone, so they give a one-pair call's
    bits.
    """
    m = tree.marks.m
    t_samples = rng.uniform(0.0, tree.grid.horizon, PROBE_PAIRS)
    a = rng.normal(size=(PROBE_PAIRS, 2 + m)) * 3.0
    b = rng.normal(size=(PROBE_PAIRS, 2 + m)) * 3.0
    t = t_samples[:, None]
    f1 = evaluate_generator(spec, t, a[:, :1], a[:, 1:2], a[:, None, 2:])[:, 0]
    f2 = evaluate_generator(spec, t, b[:, :1], b[:, 1:2], b[:, None, 2:])[:, 0]
    dv = a[:, 2:] - b[:, 2:]
    dv_norm = np.sqrt(np.matmul(dv[:, None, :], dv[:, :, None])[:, 0, 0])
    denom = np.abs(a[:, 0] - b[:, 0]) + np.abs(a[:, 1] - b[:, 1]) + dv_norm
    probed = denom > 1e-12
    # fmax skips NaN ratios, as a running max(worst, ratio) does
    return float(np.fmax.reduce(np.abs(f1 - f2)[probed] / denom[probed], initial=0.0))


def validate(problem: ProblemSpec, require_h: bool = False, seed: int = DEFAULT_PROBE_SEED) -> ValidationReport:
    """Run the standing-assumption checks and return a report (never raises).

    Checks: node-wise barrier order L <= U and strict separation including
    left limits at flagged times (only when ``require_h``), a NaN failing
    both; terminal sandwich L_T <= xi <= U_T; randomized Lipschitz probe
    against the declared constant; contraction warning when C_f*dt >= 1.
    """
    tree = problem.tree
    bar = problem.barriers
    checks = []

    # one walk, where NaN fails every comparison; L > U is sought only where L < U fails
    order_detail = h_detail = ""
    for k in range(tree.n_layers):
        lo, up = bar.lower.layer(k), bar.upper.layer(k)
        if not np.all(lo < up):
            h_detail = h_detail or f"L >= U at layer {k}"
            ordered = lo <= up
            if not np.all(ordered):
                i = int(np.argmin(ordered))
                fault = "L > U" if lo[i] > up[i] else "NaN barrier"
                order_detail = f"{fault} at layer {k}, node {i}"
                break
        # an unflagged layer's left limits are its at-time values, just compared
        elif not h_detail and k in bar.flagged and not np.all(np.less(*bar.flagged[k])):
            h_detail = f"left limits L- >= U- at flagged layer {k}"
    checks.append(CheckResult("barrier-order", not order_detail, order_detail))
    if require_h:
        checks.append(CheckResult("strict-separation", not h_detail, h_detail))

    ln, un = bar.lower.layer(tree.grid.steps), bar.upper.layer(tree.grid.steps)
    sandwich = bool(np.all(ln <= problem.terminal) and np.all(problem.terminal <= un))
    checks.append(CheckResult("terminal-sandwich", sandwich))

    observed = _lipschitz_probe(problem.generator, tree, np.random.default_rng(seed))
    lip_ok = observed <= problem.generator.lipschitz * (1.0 + 1e-9) + 1e-15
    checks.append(CheckResult("lipschitz-probe", bool(lip_ok), f"max observed ratio {observed:.6g}"))

    contraction = problem.generator.lipschitz * tree.grid.dt < 1.0
    checks.append(
        CheckResult(
            "contraction-margin",
            bool(contraction),
            "" if contraction else "C_f*dt >= 1: implicit solves may diverge; refine grid",
        )
    )
    return ValidationReport(checks)
