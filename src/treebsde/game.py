"""Zero-sum mixed control/stopping game on the tree.

The minimizer picks a control in A and a stopping time paying the upper
barrier; the maximizer picks a control in B and a stopping time collecting
the lower one.  Controls act through a drift tilt theta = f/sigma on the
diffusion and an intensity tilt beta on the marks, plus a running payoff h.
The value solves the doubly reflected equation with the saddle Hamiltonian
as generator, and is cross-checked by exhaustive enumeration oracles.

``_pair_coefficients`` evaluates the control callbacks and
``_hamiltonian_table`` the one formula H = z*theta + h + sum_j
r_j*beta_j*lambda_j, over the control grid, for ``_hamiltonian_sweep``, the
one backward solve of the game: ``solve_game`` picks the saddle of H, the
fixed-control route R2 of ``dynkin_value`` the pair its control maps give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OracleInconsistent, SaddleViolated, SingularSigma, TooLargeToEnumerate
from .lattice import AdaptedValues, Tree, _branch_sum, conditional_expectation, forward_state, reweight
from .model import BarrierPair, terminal_layer
from .oracles import digit_table, dynkin_pair_values, stopping_layout
from .sweep import SweepResult, _clamp, backward_sweep

SADDLE_TOL = 1e-12
TABLE_BLOCK = 1 << 14  # nodes per control-table block in _hamiltonian_sweep and route R1


@dataclass
class ControlGrid:
    """Finite control sets for the two players."""

    A: tuple
    B: tuple

    def __post_init__(self):
        self.A = tuple(self.A)
        self.B = tuple(self.B)
        if not self.A or not self.B:
            raise ValueError("control grids must be non-empty")


@dataclass
class GameSpec:
    """A mixed control/stopping game instance.

    Callbacks (any may be None, meaning identically zero; sigma defaults
    to one): ``sigma(t, x)``, ``gamma(t, e, x)`` for the state,
    ``drift(t, x, u, v)``, ``tilt(t, e, x, u, v)`` with tilt > -1, and the
    running payoff ``running(t, x, u, v)``.  All must accept array x.
    """

    tree: Tree
    controls: ControlGrid
    barriers: BarrierPair
    terminal: np.ndarray
    sigma: object = None
    gamma: object = None
    drift: object = None
    tilt: object = None
    running: object = None
    x0: float = 0.0
    _state: AdaptedValues = field(default=None, repr=False)

    def __post_init__(self):
        self.terminal = terminal_layer(self.tree, self.terminal)

    def state(self) -> AdaptedValues:
        """Forward state skeleton under the reference measure (built once)."""
        if self._state is None:
            sig = self.sigma if self.sigma is not None else (lambda t, x: np.ones_like(x))
            gam = self.gamma if self.gamma is not None else (lambda t, e, x: np.zeros_like(x))
            self._state = forward_state(self.tree, sig, gam, self.x0)
        return self._state

    def sigma_at(self, t, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.sigma is None:
            return np.ones_like(x)
        s = np.broadcast_to(np.asarray(self.sigma(t, x), dtype=float), x.shape)
        if np.any(s == 0.0):
            raise SingularSigma(f"sigma vanishes at t={t}")
        return s

    def _eval(self, fn, t, x, u, v) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if fn is None:
            return np.zeros_like(x)
        return np.broadcast_to(np.asarray(fn(t, x, u, v), dtype=float), x.shape).astype(float)

    def tilt_at(self, t, x, u, v) -> np.ndarray:
        """Per-mark intensity tilt, shape (n, m)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        m = self.tree.marks.m
        if self.tilt is None or m == 0:
            return np.zeros((x.shape[0], m))
        cols = [
            np.broadcast_to(np.asarray(self.tilt(t, e, x, u, v), dtype=float), x.shape)
            for e in self.tree.marks.points
        ]
        return np.stack(cols, axis=1)


def tilt_dual(tree: Tree, z, v):
    """The pair at which the Hamiltonian reproduces the tilted expectation.

    For the one-step density zeta = 1 + theta*dB + sum beta_j*C_j and the
    representation y = a + Z*dB + sum V_j*C_j, the exact identity

        E[zeta*y] = a + dt*(theta*z_g + sum_j beta_j*lambda_j*r_g_j)

    holds with z_g = Z*(1 - dt*sum(lambda)) and r_g_j = V_j - dt*sum_k
    V_k*lambda_k.  Evaluating H at (z_g, r_g) makes the generator route and
    the change-of-measure route agree to machine precision.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    dt = tree.grid.dt
    rates = np.asarray(tree.marks.rates, dtype=float)
    zg = z * (1.0 - dt * tree.marks.total_rate)
    rg = v - dt * _branch_sum(v, rates)[:, None] if tree.marks.m else v
    return zg, rg


def _pair_coefficients(game: GameSpec, t, x, u, v, sig):
    """Drift tilt theta = f/sig, mark tilt beta (n, m) and running payoff h at one control pair."""
    f = game._eval(game.drift, t, x, u, v)
    return f / sig, game.tilt_at(t, x, u, v), game._eval(game.running, t, x, u, v)


def _hamiltonian_table(game: GameSpec, t, x, z, r) -> np.ndarray:
    """H = z*theta + h + sum_j r_j*beta_j*lambda_j over the control grid, shape (p, q, n_nodes).

    The one evaluation of the Hamiltonian, filled one control pair at a time.
    """
    A, B = game.controls.A, game.controls.B
    x = np.atleast_1d(np.asarray(x, dtype=float))
    sig = game.sigma_at(t, x)
    rates = np.asarray(game.tree.marks.rates, dtype=float)
    table = np.empty((len(A), len(B), x.shape[0]))
    for iu, u in enumerate(A):
        for iv, v in enumerate(B):
            theta, beta, h = _pair_coefficients(game, t, x, u, v, sig)
            H = z * theta + h
            table[iu, iv] = H + _branch_sum(r * beta, rates) if game.tree.marks.m else H
    return table


def _saddle_from_table(table: np.ndarray):
    """Vectorized first-index saddle selection from H values (p, q, n)."""
    max_over_v = table.max(axis=1)
    infsup = max_over_v.min(axis=0)
    u_idx = max_over_v.argmin(axis=0)
    min_over_u = table.min(axis=0)
    supinf = min_over_u.max(axis=0)
    v_idx = min_over_u.argmax(axis=0)
    gap = infsup - supinf
    # saddle inequalities at the tight nodes, with the (tiny) gap as the only
    # slack: max_v H[u*, v] is max_over_v[u*] = infsup and min_u H[u, v*] is
    # min_over_u[v*] = supinf, exactly, as max and min do not round; a node
    # with a NaN entry has a NaN gap, so it is never tight
    tight = np.flatnonzero(gap <= SADDLE_TOL)
    sel = table[u_idx[tight], v_idx[tight], tight]
    if not (np.all(infsup[tight] <= sel + gap[tight]) and np.all(supinf[tight] >= sel - gap[tight])):
        raise SaddleViolated("selected control pair breaks the saddle inequalities")
    return u_idx, v_idx, infsup, gap


@dataclass
class GameResult:
    """Solved game: value process, saddle maps, gaps, push decomposition."""

    Y: AdaptedValues
    Z: AdaptedValues  # dual diffusion component fed to H
    R: AdaptedValues  # dual mark components fed to H, shape (n, m) per layer
    u_index: AdaptedValues
    v_index: AdaptedValues
    gap: AdaptedValues
    controls: ControlGrid
    sweep: SweepResult

    def u_star(self, k: int) -> list:
        return [self.controls.A[int(i)] for i in self.u_index.layer(k)]

    def v_star(self, k: int) -> list:
        return [self.controls.B[int(i)] for i in self.v_index.layer(k)]

    def K_plus(self) -> AdaptedValues:
        return self.sweep.K_plus()

    def K_minus(self) -> AdaptedValues:
        return self.sweep.K_minus()

    @property
    def max_gap(self) -> float:
        return max(float(g.max()) if g.size else 0.0 for g in self.gap.layers)


def _hamiltonian_sweep(game: GameSpec, pick) -> SweepResult:
    """The game's backward sweep with the Hamiltonian as an explicit drift.

    Per layer the drift solver forms the dual pair of the continuation's
    representation, tabulates H over the control grid one TABLE_BLOCK of
    nodes at a time, so its scratch stays at p*q*TABLE_BLOCK entries, and
    takes each block's H from ``pick(k, block, table)``; the step y = a +
    dt*H then goes through the engine's clamps.
    """
    tree, state, bar = game.tree, game.state(), game.barriers

    def solver(k, a, z, v):
        zg, rg = tilt_dual(tree, z, v)
        t, x = tree.grid.time(k), state.layer(k)
        H = np.empty(x.shape[0])
        for start in range(0, x.shape[0], TABLE_BLOCK):
            block = slice(start, start + TABLE_BLOCK)
            H[block] = pick(k, block, _hamiltonian_table(game, t, x[block], zg[block], rg[block]))
        # the drift is explicit, so the clamp increment is the push
        return a + tree.grid.dt * H, None, None

    return backward_sweep(tree, game.terminal, solver, lower=bar.lower, upper=bar.upper,
                          pre_jump=dict(bar.flagged))


def solve_game(game: GameSpec) -> GameResult:
    """Backward solve of the game value with the saddle generator.

    The Hamiltonian sweep picking the saddle of H at every node, recording
    the saddle maps and Isaacs gaps; Z and R are the dual pair H was
    evaluated at.  ``brute_force_game_oracle`` certifies the root value
    separately.
    """
    sizes = [game.tree.layer_size(k) for k in range(game.tree.grid.steps)]
    u_index, v_index = ([np.empty(n, np.intp) for n in sizes] for _ in range(2))
    gap = [np.empty(n) for n in sizes]

    def saddle(k, block, table):
        u_index[k][block], v_index[k][block], hstar, gap[k][block] = _saddle_from_table(table)
        return hstar

    res = _hamiltonian_sweep(game, saddle)
    zg, rg = zip(*(tilt_dual(game.tree, z, v) for z, v in zip(res.Z.layers, res.V.layers)))
    return GameResult(
        Y=res.Y,
        Z=AdaptedValues(list(zg), 0),
        R=AdaptedValues(list(rg), 0),
        u_index=AdaptedValues(u_index, 0),
        v_index=AdaptedValues(v_index, 0),
        gap=AdaptedValues(gap, 0),
        controls=game.controls,
        sweep=res,
    )


def constant_control_map(tree: Tree, index: int) -> list:
    """Per-layer control index arrays holding one fixed index."""
    return [np.full(tree.layer_size(k), index, dtype=int) for k in range(tree.grid.steps)]


def _control_table(game: GameSpec, t, x):
    """Drift tilt theta, mark tilt beta and running payoff h at every control pair.

    Evaluated over the states ``x`` once per pair (u, v); shapes (p, q, n),
    (p, q, n, m) and (p, q, n).  Control maps gather their per-node
    coefficients from these tables by index.
    """
    A, B = game.controls.A, game.controls.B
    shape = (len(A), len(B), x.shape[0])
    theta, beta, h = np.empty(shape), np.empty(shape + (game.tree.marks.m,)), np.empty(shape)
    sig = game.sigma_at(t, x)
    for iu, u in enumerate(A):
        for iv, v in enumerate(B):
            theta[iu, iv], beta[iu, iv], h[iu, iv] = _pair_coefficients(game, t, x, u, v, sig)
    return theta, beta, h


def _map_rows(u_map, v_map, k: int, nodes=slice(None)):
    """Index tuple picking each node's (u, v) entry out of a layer-k control table.

    The maps' layer-k rows may carry leading batch axes (one row per map).
    """
    ui = np.asarray(u_map[k], dtype=int)[..., nodes]
    return ui, np.asarray(v_map[k], dtype=int)[..., nodes], np.arange(ui.shape[-1])


def _controlled_coefficients(game: GameSpec, u_map, v_map):
    """Per layer: drift tilt theta, mark tilt beta, running payoff h (per node).

    The tables are built block by block, so their scratch stays at
    p*q*TABLE_BLOCK entries on large layers.
    """
    tree = game.tree
    out = []
    for k in range(tree.grid.steps):
        t, x = tree.grid.time(k), game.state().layer(k)
        n = tree.layer_size(k)
        theta, beta, h = np.empty(n), np.empty((n, tree.marks.m)), np.empty(n)
        for start in range(0, n, TABLE_BLOCK):
            block = slice(start, start + TABLE_BLOCK)
            rows = _map_rows(u_map, v_map, k, block)
            tables = _control_table(game, t, x[block])
            theta[block], beta[block], h[block] = (table[rows] for table in tables)
        out.append((theta, beta, h))
    return out


def _tilted_recursion(game: GameSpec, u_map, v_map) -> AdaptedValues:
    """Route R1: y = E^Q[Y_{k+1} | node] + dt*h under the control-tilted weights.

    Its clamps are the engine's ``_clamp``, separation check included: it
    is independent of the Hamiltonian sweep through the measure, not the clamp.
    """
    tree, bar = game.tree, game.barriers
    N, flagged = tree.grid.steps, bar.flagged
    coeff = _controlled_coefficients(game, u_map, v_map)
    layers = [None] * N + [game.terminal.copy()]
    cont = _clamp(layers[N], *flagged[N], N)[0] if N in flagged else layers[N]
    for k in range(N - 1, -1, -1):
        theta, beta, h = coeff[k]
        w = reweight(tree, theta, beta, k)
        y = conditional_expectation(tree, cont, k, weights=w) + h * tree.grid.dt
        layers[k] = _clamp(y, bar.lower.layer(k), bar.upper.layer(k), k)[0]
        cont = _clamp(layers[k], *flagged[k], k)[0] if k in flagged else layers[k]
    return AdaptedValues(layers, 0)


def dynkin_value(game: GameSpec, u_map, v_map, route: str = "both"):
    """Value of the stopping game under fixed control maps, by two routes.

    Route "R1" tilts the branch weights by the control-dependent density and
    runs its own clamped recursion with running payoff h.  Route "R2" is
    ``solve_game``'s Hamiltonian sweep picking the maps' pair instead of
    the saddle.  The two agree to machine precision; their comparison is
    the change-of-measure consistency test.  ``route`` "both" returns the
    pair (R1, R2); each call builds only the routes it returns.
    """
    def maps_pair(k, block, table):
        return table[_map_rows(u_map, v_map, k, block)]

    if route == "R1":
        return _tilted_recursion(game, u_map, v_map)
    if route == "R2":
        return _hamiltonian_sweep(game, maps_pair).Y
    if route == "both":
        return _tilted_recursion(game, u_map, v_map), _hamiltonian_sweep(game, maps_pair).Y
    raise ValueError("route must be 'R1', 'R2' or 'both'")


MAX_CONTROL_PAIRS = 10**6
PAIR_BLOCK = 1 << 18  # stopping-pair table entries per block of map pairs in brute_force_game_oracle


def _layer_columns(tree: Tree) -> list:
    """Per non-terminal layer, its columns in a table over the nodes in layer order."""
    ends = np.cumsum([tree.layer_size(k) for k in range(tree.grid.steps)])
    return [slice(int(end) - tree.layer_size(k), int(end)) for k, end in enumerate(ends)]


def _all_maps(tree: Tree, n_controls: int):
    """Every assignment of a control index to each non-terminal node.

    Map ``code`` is row ``code`` of the digit table over the nodes in layer
    order, split into per-layer arrays.
    """
    cols = _layer_columns(tree)
    return [[row[c] for c in cols] for row in digit_table(n_controls, cols[-1].stop)]


def _check_pair_count(p: int, q: int, n_nodes: int) -> None:
    """Raise TooLargeToEnumerate if p**n_nodes * q**n_nodes > MAX_CONTROL_PAIRS.

    The count itself can run to millions of digits, so it is only formed
    once its logarithm shows it to be within a factor e of the cap.
    """
    if (n_nodes * math.log(p * q) > math.log(MAX_CONTROL_PAIRS) + 1.0
            or (p * q) ** n_nodes > MAX_CONTROL_PAIRS):
        raise TooLargeToEnumerate(
            f"{p}^{n_nodes} x {q}^{n_nodes} control-map pairs > {MAX_CONTROL_PAIRS}"
        )


def _oracle_tables(game: GameSpec) -> list:
    """Per layer: tilted branch weights (p, q, n, m+2) and running payoff (p, q, n)."""
    tree = game.tree
    p, q = len(game.controls.A), len(game.controls.B)
    tables = []
    for k in range(tree.grid.steps):
        theta, beta, h = _control_table(game, tree.grid.time(k), game.state().layer(k))
        weights = np.array([
            [reweight(tree, theta[iu, iv], beta[iu, iv], k) for iv in range(q)] for iu in range(p)
        ])
        tables.append((weights, h))
    return tables


def _pair_block_bounds(game: GameSpec, layout, tables, u_maps, v_maps):
    """(infsup, supinf) over stopping-rule pairs for a block of control-map pairs.

    ``u_maps[k]`` and ``v_maps[k]`` hold the layer-k control indices of the
    block, shape (B, n_k), or (n_k,) for a single pair.  Each pair's tilted
    weights and running payoff are gathered from ``tables`` and its (d, d)
    stopping-pair table is scored in one batched ``dynkin_pair_values``.
    """
    rows = [_map_rows(u_maps, v_maps, k) for k in range(len(tables))]
    total = dynkin_pair_values(
        game.tree,
        layout,
        game.terminal,
        game.barriers.lower,
        game.barriers.upper,
        drift=AdaptedValues([h[r] for (_, h), r in zip(tables, rows)], 0),
        pre_jump=game.barriers.flagged,
        weights=[w[r] for (w, _), r in zip(tables, rows)],
    )
    return total.max(axis=-1).min(axis=-1), total.min(axis=-2).max(axis=-1)


def brute_force_game_oracle(game: GameSpec):
    """Exact (supinf, infsup) over adapted control maps and stopping-rule pairs.

    For every pair of node-feedback control maps the inner stopping game is
    solved by full enumeration of stopping-rule pairs under the tilted
    weights; the outer optimization is exact over all maps.  On a tree,
    node-feedback maps exhaust adapted control processes.  supinf =
    max_v min_u, infsup = min_u max_v; weak duality supinf <= infsup holds
    by construction.

    The stopping layout is built once per game, and the tilted branch
    weights and running payoff once per (layer, u, v).  Map pairs, in
    (u-map, v-map) code order, are scored in blocks of PAIR_BLOCK // d**2
    (at least one), each reading its maps' layer rows from column blocks of
    the two digit tables.

    Raises
    ------
    OracleInconsistent
        for the first map pair whose inner stopping game has no value.
    """
    tree = game.tree
    cols = _layer_columns(tree)
    n_nodes = cols[-1].stop
    p, q = len(game.controls.A), len(game.controls.B)
    _check_pair_count(p, q, n_nodes)
    layout = stopping_layout(tree, game.barriers.flagged)
    tables = _oracle_tables(game)

    u_table, v_table = digit_table(p, n_nodes), digit_table(q, n_nodes)
    n_v = v_table.shape[0]
    n_pairs = u_table.shape[0] * n_v
    block = max(1, PAIR_BLOCK // layout.stop_index.shape[1] ** 2)
    vals = np.empty(n_pairs)
    for start in range(0, n_pairs, block):
        a, b = np.divmod(np.arange(start, min(start + block, n_pairs)), n_v)
        infsup_stop, supinf_stop = _pair_block_bounds(
            game, layout, tables, [u_table[a, c] for c in cols], [v_table[b, c] for c in cols])
        # the inner stopping game has a value on a finite tree
        bad = np.flatnonzero(~(np.abs(infsup_stop - supinf_stop) <= 1e-9 * (1.0 + np.abs(infsup_stop))))
        if bad.size:
            raise OracleInconsistent(
                f"inner stopping game without a value: infsup {float(infsup_stop[bad[0]])!r} "
                f"!= supinf {float(supinf_stop[bad[0]])!r}"
            )
        vals[start:start + a.size] = infsup_stop
    vals = vals.reshape(-1, n_v)
    infsup = float(vals.max(axis=1).min())
    supinf = float(vals.min(axis=0).max())
    return supinf, infsup
