"""Zero-sum mixed control/stopping game on the tree.

The minimizer picks a control in A and a stopping time paying the upper
barrier; the maximizer picks a control in B and a stopping time collecting
the lower one.  Controls act through a drift tilt theta = f/sigma on the
diffusion and an intensity tilt beta on the marks, plus a running payoff h.
The value solves the doubly reflected equation with the saddle Hamiltonian
as generator, and is cross-checked by exhaustive enumeration oracles.

``_pair_callbacks`` is the one caller of the control callbacks, and
``_hamiltonian_table`` assembles the one formula H = z*theta + h + sum_j
r_j*beta_j*lambda_j in place, one control pair at a time, for
``_hamiltonian_sweep``, the one backward solve of the game: ``solve_game``
picks the saddle of H, the fixed-control route R2 of ``dynkin_value`` the
pair its control maps give; ``TABLE_BLOCK`` bounds that sweep's scratch
only.  Route R1, R2's pick and the game oracle read control maps through
one decoder, ``_map_codes`` (range-checked pair codes u*|B| + v); R1 and
the oracle take theta = f/sigma, beta and h from one evaluator,
``_map_coefficients``, each picked pair on its own nodes.
Both routes score a batch of control-map pairs in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OracleInconsistent, SaddleViolated, SingularSigma, TooLargeToEnumerate
from .lattice import AdaptedValues, Tree, _branch_sum, conditional_expectation, forward_state, reweight
from .model import BarrierPair, check_barriers, terminal_layer
from .oracles import digit_table, dynkin_pair_values, stopping_layout
from .sweep import FIELDS, SweepResult, _clamp_steps, backward_sweep

TABLE_BLOCK = 1 << 14  # nodes per H-table block in _hamiltonian_sweep


@dataclass(frozen=True)
class ControlGrid:
    """Finite control sets for the two players, frozen."""

    A: tuple
    B: tuple

    def __post_init__(self):
        object.__setattr__(self, "A", tuple(self.A))
        object.__setattr__(self, "B", tuple(self.B))
        if not self.A or not self.B:
            raise ValueError("control grids must be non-empty")


@dataclass(frozen=True)
class GameSpec:
    """A mixed control/stopping game instance.

    Callbacks (any may be None, meaning identically zero; sigma defaults
    to one): ``sigma(t, x)``, ``gamma(t, e, x)`` for the state,
    ``drift(t, x, u, v)``, ``tilt(t, e, x, u, v)`` with tilt > -1, and the
    running payoff ``running(t, x, u, v)``.  All must accept array x.
    The spec is frozen and its terminal read-only, so the forward state
    ``state()`` builds at its first call, the one write after construction,
    stays the state of the spec's sigma, gamma and x0.  Raises
    LayerMismatch if a barrier does not cover layers 0..N with one value
    per node.
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
    _state: AdaptedValues = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "terminal", terminal_layer(self.tree, self.terminal))
        check_barriers(self.tree, self.barriers)

    def state(self) -> AdaptedValues:
        """Forward state skeleton under the reference measure (built once)."""
        if self._state is None:
            sig = self.sigma if self.sigma is not None else (lambda t, x: np.ones_like(x))
            gam = self.gamma if self.gamma is not None else (lambda t, e, x: np.zeros_like(x))
            object.__setattr__(self, "_state", forward_state(self.tree, sig, gam, self.x0))
        return self._state

    def sigma_at(self, t, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.sigma is None:
            return np.ones_like(x)
        s = np.broadcast_to(np.asarray(self.sigma(t, x), dtype=float), x.shape)
        if np.any(s == 0.0):
            raise SingularSigma(f"sigma vanishes at t={t}")
        return s


def tilt_dual(tree: Tree, z, v):
    """The pair at which the Hamiltonian reproduces the tilted expectation.

    For the one-step density zeta = 1 + theta*dB + sum beta_j*C_j and the
    representation y = a + Z*dB + sum V_j*C_j, the exact identity

        E[zeta*y] = a + dt*(theta*z_g + sum_j beta_j*lambda_j*r_g_j)

    holds with z_g = Z*(1 - dt*sum(lambda)) and r_g_j = V_j - dt*sum_k
    V_k*lambda_k.  Evaluating H at (z_g, r_g) makes the generator route and
    the change-of-measure route agree to machine precision.  ``z`` (..., n)
    and ``v`` (..., n, m) may carry leading axes, one row per control map.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    dt = tree.grid.dt
    rates = np.asarray(tree.marks.rates, dtype=float)
    zg = z * (1.0 - dt * tree.marks.total_rate)
    rg = v - dt * _branch_sum(v, rates)[..., None] if tree.marks.m else v
    return zg, rg


_ZERO = np.zeros(())  # a callback that is None: zero at every node


def _per_node(value, shape) -> np.ndarray:
    """A callback's output as floats broadcasting to ``shape``: itself where it already has that shape."""
    value = np.asarray(value, dtype=float)
    return value if value.shape == shape or value.ndim == 0 else np.broadcast_to(value, shape)


def _pair_callbacks(game: GameSpec, t, x, u, v):
    """Drift f, per-mark tilts [beta_j] and running payoff h at one control pair (u, v).

    The one caller of the drift, tilt and running callbacks, in that order,
    each over the states ``x``.  Every value is float and broadcasts to
    ``x.shape``; a callback that is None gives a 0-d zero.
    """
    f = _ZERO if game.drift is None else _per_node(game.drift(t, x, u, v), x.shape)
    if game.tilt is None:
        beta = [_ZERO] * game.tree.marks.m
    else:
        beta = [_per_node(game.tilt(t, e, x, u, v), x.shape) for e in game.tree.marks.points]
    h = _ZERO if game.running is None else _per_node(game.running(t, x, u, v), x.shape)
    return f, beta, h


def _hamiltonian_table(game: GameSpec, t, x, z, r) -> np.ndarray:
    """H = z*theta + h + sum_j r_j*beta_j*lambda_j over the control grid, shape (p, q, ..., n_nodes).

    The one evaluation of the Hamiltonian, assembled in place in each
    pair's row: theta = f/sigma, then (z*theta) + h, then plus the mark sum
    of (r_j*beta_j)*lambda_j, added onto +0.0 in mark order as
    ``lattice._branch_sum`` adds it.  The dual pair ``z`` (..., n) and
    ``r`` (..., n, m) may carry leading axes (one row per control map),
    which the table keeps after its (p, q) axes; theta, beta and h are
    those of the nodes ``x``, one per node.
    """
    A, B = game.controls.A, game.controls.B
    x = np.atleast_1d(np.asarray(x, dtype=float))
    sig = game.sigma_at(t, x)
    rates = np.asarray(game.tree.marks.rates, dtype=float)
    r_cols = np.ascontiguousarray(np.moveaxis(np.asarray(r, dtype=float), -1, 0))
    shape = np.broadcast_shapes(x.shape, np.shape(z))
    table = np.empty((len(A), len(B)) + shape)
    marks, term = np.empty(shape), np.empty(shape)
    for iu, u in enumerate(A):
        for iv, v in enumerate(B):
            f, beta, h = _pair_callbacks(game, t, x, u, v)
            H = table[iu, iv]
            np.divide(f, sig, out=H)
            np.multiply(z, H, out=H)
            np.add(H, h, out=H)
            if beta:
                np.multiply(r_cols[0], beta[0], out=marks)
                marks *= rates[0]
                marks += 0.0  # onto +0.0, which turns a leading -0.0 into +0.0
                for rj, bj, lam in zip(r_cols[1:], beta[1:], rates[1:]):
                    np.multiply(rj, bj, out=term)
                    term *= lam
                    marks += term
                H += marks
    return table


def _first_row(rows: np.ndarray, best: np.ndarray, arg) -> np.ndarray:
    """Per node, the index of the first of ``rows`` (p, n) equal to ``best``, as ``arg`` picks it.

    ``arg`` is np.argmin or np.argmax and ``best`` the matching reduction
    over the rows.  The rows are compared from the last to the first, so
    the first equal one is written last; where ``best`` is NaN no row
    equals it, and ``arg`` picks the first NaN there.
    """
    index = np.zeros(best.shape, np.intp)
    for i in range(rows.shape[0] - 1, -1, -1):
        np.putmask(index, rows[i] == best, i)
    nan = np.flatnonzero(np.isnan(best))
    if nan.size:
        index[nan] = arg(rows[:, nan], axis=0)
    return index


def _saddle_from_table(table: np.ndarray):
    """Vectorized first-index saddle selection from H values (p, q, n)."""
    max_over_v = table.max(axis=1)
    infsup = max_over_v.min(axis=0)
    u_idx = _first_row(max_over_v, infsup, np.argmin)
    min_over_u = table.min(axis=0)
    supinf = min_over_u.max(axis=0)
    v_idx = _first_row(min_over_u, supinf, np.argmax)
    gap = infsup - supinf
    # supinf <= H[u*, v*] <= infsup at every node, exactly: max_v H[u*, v] is
    # max_over_v[u*] = infsup and min_u H[u, v*] is min_over_u[v*] = supinf,
    # as max and min do not round; NaN compares false, so a node with a NaN
    # entry is never checked
    sel = table[u_idx, v_idx, np.arange(table.shape[2])]
    if np.any(sel > infsup) or np.any(sel < supinf):
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

    @property
    def max_gap(self) -> float:
        return max(float(g.max()) for g in self.gap.layers)


def _hamiltonian_sweep(game: GameSpec, pick, keep):
    """The game's backward sweep with the Hamiltonian as an explicit drift.

    Per layer the drift solver forms the dual pair of the continuation's
    representation, tabulates H over the control grid one TABLE_BLOCK of
    nodes at a time, so its scratch stays at p*q*TABLE_BLOCK entries, and
    takes each block's H from ``pick(k, block, table)``; the step y = a +
    dt*H then goes through the engine's clamps.  A pick may return rows of
    H, one per control map of a batch: H and every layer below N then hold
    those rows, and the table, from layer N-2 on, one per row.  Returns the
    SweepResult itself, forming the fields of ``keep`` (``backward_sweep``);
    H was evaluated at ``tilt_dual`` of its Z and V.
    """
    tree, state, bar = game.tree, game.state(), game.barriers

    def solver(k, a, z, v):
        zg, rg = tilt_dual(tree, z, v)
        t, x = tree.grid.time(k), state.layer(k)
        H = None
        for start in range(0, x.shape[0], TABLE_BLOCK):
            block = slice(start, start + TABLE_BLOCK)
            h = pick(k, block, _hamiltonian_table(game, t, x[block], zg[..., block], rg[..., block, :]))
            if H is None:  # the first block's pick shows how many rows H holds
                H = np.empty(h.shape[:-1] + x.shape)
            H[..., block] = h
        # the drift is explicit, so the clamp increment is the push
        return a + tree.grid.dt * H, None

    return backward_sweep(tree, game.terminal, solver, lower=bar.lower, upper=bar.upper,
                          pre_jump=bar.flagged, keep=keep)


def solve_game(game: GameSpec) -> GameResult:
    """Backward solve of the game value with the saddle generator.

    The Hamiltonian sweep picking the saddle of H at every node, recording
    the saddle maps and Isaacs gaps; Z and R are the dual pair H was
    evaluated at, ``tilt_dual`` of the sweep's Z and V layer by layer.
    ``brute_force_game_oracle`` certifies the root value separately.
    """
    sizes = [game.tree.layer_size(k) for k in range(game.tree.grid.steps)]
    u_index, v_index = ([np.empty(n, np.intp) for n in sizes] for _ in range(2))
    gap = [np.empty(n) for n in sizes]

    def saddle(k, block, table):
        u_index[k][block], v_index[k][block], hstar, gap[k][block] = _saddle_from_table(table)
        return hstar

    res = _hamiltonian_sweep(game, saddle, FIELDS)
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


def _map_codes(game: GameSpec, u_maps, v_maps, k: int, nodes=slice(None)) -> np.ndarray:
    """Layer k's control pair code u*|B| + v at ``nodes``, one row per map.

    The maps' layer-k rows may carry leading batch axes.  An index outside
    its grid raises ValueError and a non-integer one TypeError, so no map
    reads another control.
    """
    return np.ravel_multi_index((np.asarray(u_maps[k])[..., nodes], np.asarray(v_maps[k])[..., nodes]),
                                (len(game.controls.A), len(game.controls.B)))


def _map_coefficients(game: GameSpec, u_maps, v_maps, k: int):
    """Layer k's drift tilt theta = f/sigma, mark tilt beta (..., m) and running payoff h, one row per map.

    Each control pair the maps pick is evaluated once, on the nodes where
    some map picks it, and scattered to every map entry that picks it.
    """
    tree, A, B = game.tree, game.controls.A, game.controls.B
    t, x = tree.grid.time(k), game.state().layer(k)
    sig = game.sigma_at(t, x)
    codes = _map_codes(game, u_maps, v_maps, k)
    theta, h, beta = np.empty(codes.shape), np.empty(codes.shape), np.empty(codes.shape + (tree.marks.m,))
    rows = [theta, h] + [beta[..., j] for j in range(tree.marks.m)]
    for code in np.bincount(codes.ravel()).nonzero()[0]:
        picks = codes == code
        nodes = picks.reshape(-1, x.shape[0]).any(axis=0).nonzero()[0]
        iu, iv = divmod(int(code), len(B))
        f, tilts, hp = _pair_callbacks(game, t, x[nodes], A[iu], B[iv])
        c = np.empty((len(rows), nodes.size))  # one row per entry of ``rows``
        np.divide(f, sig[nodes], out=c[0])  # no (n,) temporary: R1's largest layer sets its memory peak
        c[1] = hp
        for j, b in enumerate(tilts):
            c[2 + j] = b
        # each picked entry's place among the pair's nodes: all of them, in order, for one map
        at = slice(None) if codes.ndim == 1 else nodes.searchsorted(picks.nonzero()[-1])
        for row, col in zip(rows, c[:, at]):  # a 1-d scatter each: (n, m+2) rows scatter 6x slower
            row[picks] = col
    return theta, beta, h


def _tilted_recursion(game: GameSpec, u_map, v_map) -> AdaptedValues:
    """Route R1: y = E^Q[Y_{k+1} | node] + dt*h under the control-tilted weights.

    Its clamps are the engine's ``_clamp_steps`` (values only, separation check
    included): it is independent of the Hamiltonian sweep through the measure, not the clamp.
    """
    tree, bar = game.tree, game.barriers
    N, flagged = tree.grid.steps, bar.flagged
    layers = [None] * N + [game.terminal]
    cont = _clamp_steps(layers[N], *flagged[N], N, True)[1] if N in flagged else layers[N]
    for k in range(N - 1, -1, -1):
        theta, beta, h = _map_coefficients(game, u_map, v_map, k)
        w = reweight(tree, theta, beta, k)
        y = conditional_expectation(tree, cont, k, weights=w) + h * tree.grid.dt
        layers[k] = _clamp_steps(y, bar.lower.layer(k), bar.upper.layer(k), k)[1]
        cont = _clamp_steps(layers[k], *flagged[k], k, True)[1] if k in flagged else layers[k]
    return AdaptedValues(layers, 0)


def dynkin_value(game: GameSpec, u_map, v_map, route: str = "both"):
    """Value of the stopping game under fixed control maps, by two routes.

    Route "R1" tilts the branch weights by the control-dependent density and
    runs its own clamped recursion with running payoff h.  Route "R2" is
    ``solve_game``'s Hamiltonian sweep picking the maps' pair instead of
    the saddle, forming Y only.  The two agree to machine precision; their
    comparison is the change-of-measure consistency test.  ``route`` "both"
    returns the pair (R1, R2); each call builds only the routes it returns.

    ``u_map[k]`` and ``v_map[k]`` hold the layer-k control indices, integers
    in range(|A|) and range(|B|) (else ValueError, or TypeError if not
    integer), shape (n_k,) for one pair of maps or (B, n_k) for a batch of B
    pairs, scored in one pass of each route: layer k < N of a result is then
    (B, n_k), row b the value under map pair b, bit for bit what a call with
    that pair alone gives.  Layer N is the game's read-only terminal (n_N,):
    the array itself in R1, the engine's view of it in R2.
    """
    def maps_pair(k, block, table):
        codes = _map_codes(game, u_map, v_map, k, block)
        own = (np.arange(table.shape[2])[:, None],) if table.ndim == 4 else ()  # per-map tables: each picks its own
        return table.reshape((-1,) + table.shape[2:])[(codes, *own, np.arange(codes.shape[-1]))]

    if route == "R1":
        return _tilted_recursion(game, u_map, v_map)
    if route == "R2":
        return _hamiltonian_sweep(game, maps_pair, ()).Y
    if route == "both":
        return _tilted_recursion(game, u_map, v_map), _hamiltonian_sweep(game, maps_pair, ()).Y
    raise ValueError("route must be 'R1', 'R2' or 'both'")


MAX_CONTROL_PAIRS = 10**6
PAIR_BLOCK = 1 << 18  # stopping-pair table entries per block of map pairs in brute_force_game_oracle


def _layer_columns(tree: Tree) -> list:
    """Per non-terminal layer, its columns in a table over the nodes in layer order."""
    ends = np.cumsum([tree.layer_size(k) for k in range(tree.grid.steps)])
    return [slice(int(end) - tree.layer_size(k), int(end)) for k, end in enumerate(ends)]


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
    """Per layer: tilted branch weights (p*q, n, m+2) and running payoff (p*q, n).

    Row u*|B| + v holds control pair (u, v), as ``_map_codes`` numbers it:
    ``_map_coefficients`` over one constant map per pair, then reweighted.
    """
    tree, N = game.tree, game.tree.grid.steps
    pairs = np.divmod(np.arange(len(game.controls.A) * len(game.controls.B)), len(game.controls.B))
    u_maps, v_maps = ([c[:, None] + np.zeros(tree.layer_size(k), int) for k in range(N)] for c in pairs)
    tables = []
    for k in range(N):
        theta, beta, h = _map_coefficients(game, u_maps, v_maps, k)
        tables.append((reweight(tree, theta, beta, k), h))
    return tables


def _pair_block_bounds(game: GameSpec, layout, tables, u_maps, v_maps):
    """(infsup, supinf) over stopping-rule pairs for a block of control-map pairs.

    ``u_maps[k]`` and ``v_maps[k]`` hold the layer-k control indices of the
    block, shape (B, n_k), or (n_k,) for a single pair.  Each pair's tilted
    weights and running payoff are gathered from ``tables`` by its pair codes
    and its (d, d) stopping-pair table is scored in one batched ``dynkin_pair_values``.
    """
    codes = [_map_codes(game, u_maps, v_maps, k) for k in range(len(tables))]
    rows = [(c, np.arange(c.shape[-1])) for c in codes]
    total = dynkin_pair_values(
        game.tree,
        layout,
        game.terminal,
        game.barriers,
        drift=AdaptedValues([h[r] for (_, h), r in zip(tables, rows)], 0),
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
    block = max(1, PAIR_BLOCK // layout.pair_class.size)
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
