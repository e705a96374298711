"""The CLI's JSON writer against ``json.dumps(sort_keys=True, indent=2, allow_nan=False)``.

The writer takes a bundle whose node-keyed fields are AdaptedValues and
writes each as the map from node id to value; the reference builds that
map as a dict first and hands the whole bundle to ``json.dumps``.
"""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from treebsde import AdaptedValues, NonFiniteOutput, cli  # noqa: E402

# a fixed, derandomized example set keeps the suite deterministic
WRITER = settings(max_examples=60, derandomize=True, deadline=None, database=None)

EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0]
FLOATS = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))
# ids from a small alphabet repeat within and across layers, and need escaping
IDS = st.text(alphabet='ud12é"\\', max_size=3)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, st.text(max_size=4))


def node_map(ids, values):
    """The reference's node-id -> value dict, filled layer by layer."""
    out = {}
    for k in range(values.first_layer, values.last_layer + 1):
        out.update(zip(ids[k], values.layer(k).tolist()))
    return out


def reference(obj, ids):
    if isinstance(obj, AdaptedValues):
        return node_map(ids, obj)
    if isinstance(obj, dict):
        return {key: reference(value, ids) for key, value in obj.items()}
    if isinstance(obj, list):
        return [reference(value, ids) for value in obj]
    return obj


@st.composite
def fields(draw, ids):
    """AdaptedValues over a random range of the table's layers, scalar or with m = 0, 1 or 2 entries."""
    first = draw(st.integers(0, len(ids)))
    last = draw(st.integers(first - 1, len(ids) - 1))
    m = draw(st.sampled_from([None, 0, 1, 2]))
    shapes = [(len(ids[k]),) if m is None else (len(ids[k]), m) for k in range(first, last + 1)]
    count = sum(int(np.prod(shape)) for shape in shapes)
    if draw(st.booleans()):  # heavy repeats
        pool = np.array(draw(st.lists(FLOATS, min_size=1, max_size=3)))
        flat = pool[np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, len(pool), count)]
    else:  # all distinct, -0.0 and 0.0 counting as two
        flat = draw(st.lists(FLOATS, min_size=count, max_size=count, unique_by=float.hex))
    layers, start = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        layers.append(np.array(flat[start:start + size], dtype=float).reshape(shape))
        start += size
    return AdaptedValues(layers, first)


# detail strings that need escaping, and a newline that must not be indented
DETAILS = st.one_of(st.sampled_from(['café "q"', "a\\b", "line\nnext", ""]), st.text(max_size=4))


@st.composite
def reports(draw):
    """A dict holding a list of dicts, as a validation report or the verify criteria."""
    checks = draw(st.lists(st.fixed_dictionaries({"name": DETAILS, "passed": st.booleans(), "detail": DETAILS}),
                           max_size=3))
    return {"passed": draw(st.booleans()), "checks": checks}


@st.composite
def bundles(draw):
    ids = draw(st.lists(st.lists(IDS, max_size=5), min_size=1, max_size=3))
    bundle = {
        "command": draw(st.text(max_size=6)),
        "levels": draw(st.lists(st.integers(), max_size=3)),
        "widths": draw(st.lists(FLOATS, max_size=3)),
        "flags": [draw(SCALARS) for _ in range(3)],
        "validation": draw(reports()),
        "nested": {"empty": {}, "none": [], "Y": draw(fields(ids)), "deeper": {"V": draw(fields(ids))},
                   "validation": draw(reports())},
        "Y": draw(fields(ids)),
        "Z": draw(fields(ids)),
        "no_layers": AdaptedValues([], draw(st.integers(0, 2))),
    }
    return bundle, ids


@WRITER
@given(bundles())
def test_writer_equals_json_dumps(case):
    bundle, ids = case
    expected = json.dumps(reference(bundle, ids), sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert cli._json_text(bundle, ids, "bundle.json") == expected


def test_signed_zeros_and_extremes_in_one_field():
    ids = [[""], ["u", "d", "1"]]
    values = AdaptedValues([np.array([-0.0]), np.array([0.0, 5e-324, -1e308])], 0)
    vector = AdaptedValues([np.array([[1e308, -0.0]])], 0)
    text = cli._json_text({"Y": values, "V": vector}, ids, "bundle.json")
    assert text == json.dumps({"Y": node_map(ids, values), "V": node_map(ids, vector)},
                              sort_keys=True, indent=2) + "\n"
    for entry in ('"": -0.0', '"u": 0.0', '"d": 5e-324', '"1": -1e+308', "1e+308,\n      -0.0"):
        assert entry in text


@WRITER
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.sampled_from([None, 1, 2]),
       st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
def test_a_non_finite_node_value_raises(sizes, m, bad, data):
    ids = [[f"{k}.{i}" for i in range(n)] for k, n in enumerate(sizes)]
    layers = [np.zeros((n,) if m is None else (n, m)) for n in sizes]
    layer = data.draw(st.sampled_from(layers))
    layer.flat[data.draw(st.integers(0, layer.size - 1))] = bad
    with pytest.raises(NonFiniteOutput, match="bundle.json would hold a NaN or an infinity"):
        cli._json_text({"solution": {"Y": AdaptedValues(layers, 0)}}, ids, "bundle.json")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_scalar_raises(bad):
    with pytest.raises(NonFiniteOutput, match="bundle.json would hold"):
        cli._json_text({"widths": [0.5, bad]}, None, "bundle.json")
