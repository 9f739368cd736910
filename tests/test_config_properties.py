"""Property tests of the config boundary: bad input only ever raises ConfigError,
every accepted config runs clean, and `ScenarioConfig.steps` agrees with exact
rational arithmetic.

Needs `hypothesis` (the `[test]` extra); skipped without it. Derandomized and
without an example database, so every run draws the same examples.
"""

import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from magsat import ConfigError, presets  # noqa: E402
from magsat.cli import main  # noqa: E402
from magsat.scenario import MAX_STEPS, scenario_from_dict  # noqa: E402


def preset_document(name: str = "detumble-paper") -> dict:
    doc = presets.get_scenario_preset(name)
    doc["elements"] = presets.get_element_preset(doc["elements"])
    return doc


def key_paths(node, prefix=()):
    """Every dict key and list index of a document, as a path from the root."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from key_paths(value, prefix + (key,))


# JSON integers have no size limit; Python's json also reads NaN and Infinity
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=8)
    | st.dictionaries(st.text(max_size=12), children, max_size=4),
    max_leaves=12,
)


@settings(database=None, derandomize=True, max_examples=500, deadline=None)
@given(path=st.sampled_from(list(key_paths(preset_document()))), value=json_values)
# a reference norm and a weight times Ts that leave the float range, which
# the draws miss; each once printed a numpy overflow warning
@example(path=("mpc", "x_ref", "q", 0), value=1e300)
@example(path=("mpc", "r_diag", 0), value=1.7976931348623157e308)
def test_single_key_replacement_raises_only_config_error(path, value):
    doc = preset_document()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        scenario_from_dict(doc)
    except ConfigError:
        pass


def get_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def number_paths(doc: dict) -> list:
    """Paths of the numeric leaves a scaled document may change: all but the work counts."""
    fixed = {("mpc", "horizon"), ("substeps",), ("duration",)}
    return [
        path for path in key_paths(doc)
        if path not in fixed and type(get_at(doc, path)) in (int, float)
    ]


# one or two numeric leaves of a preset, each times 10^k with k in -320..308
# (a zero leaf counts as 1), a quarter of them negated: magnitudes across the
# whole float range, on a run of two solves with a short horizon
scaled_documents = st.sampled_from(sorted(presets.SCENARIO_PRESETS)).flatmap(
    lambda name: st.tuples(
        st.just(name),
        st.lists(
            st.tuples(
                st.sampled_from(number_paths(preset_document(name))),
                st.integers(min_value=-320, max_value=308),
                st.sampled_from((1.0, 1.0, 1.0, -1.0)),
            ),
            min_size=1, max_size=2, unique_by=lambda leaf: leaf[0],
        ),
    )
)


@settings(database=None, derandomize=True, max_examples=100, deadline=None)
@given(
    scaled=scaled_documents,
    horizon=st.integers(min_value=1, max_value=3),
    substeps=st.integers(min_value=1, max_value=3),
)
# one of each class of run that once warned: the first-order test's norm of a
# gradient past the float range, a reference whose cost overflows, and a
# model (the state Jacobian) that overflows while the states stay finite
@example(scaled=("detumble-paper", [(("mpc", "q_diag", 4), 304, 1.0)]), horizon=2, substeps=3)
@example(scaled=("detumble-paper", [(("mpc", "x_ref", "omega", 1), 233, 1.0)]), horizon=2,
         substeps=3)
@example(scaled=("attitude-paper", [(("x0", "omega", 1), 31, 1.0)]), horizon=2, substeps=3)
def test_every_accepted_config_runs_clean(scaled, horizon, substeps):
    # a numpy warning raises here (pyproject's error::RuntimeWarning); every
    # document is refused, or runs to exit 0 or 3 with only finite output
    name, leaves = scaled
    doc = preset_document(name)
    for path, k, sign in leaves:
        node = get_at(doc, path[:-1])
        value = sign * (node[path[-1]] or 1.0) * 10.0**k
        node[path[-1]] = math.copysign(1.797e308, value) if math.isinf(value) else value
    doc["mpc"]["horizon"] = horizon
    doc["substeps"] = substeps
    doc["duration"] = 2.0 * doc["mpc"]["ts"]
    try:
        scenario_from_dict(doc)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        config, csv, summary = (Path(tmp) / f for f in ("c.json", "run.csv", "s.json"))
        config.write_text(json.dumps(doc))
        status = main(["run", str(config), "--out", str(csv), "--summary", str(summary)])
        assert status in (0, 3)
        for row in csv.read_text().splitlines()[1:]:
            assert all(math.isfinite(float(cell)) for cell in row.split(",")), row
        if status == 0:  # NaN and Infinity are not JSON
            json.loads(summary.read_text(), parse_constant=lambda c: pytest.fail(c))


def config_with(duration: float, ts: float):
    doc = preset_document()
    doc["duration"] = duration
    doc["mpc"]["ts"] = ts
    return scenario_from_dict(doc)


@settings(database=None, derandomize=True, max_examples=200, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=2**12),
    j=st.integers(min_value=0, max_value=12),
    n=st.integers(min_value=1, max_value=MAX_STEPS),
)
def test_steps_counts_exact_dyadic_multiples(k, j, n):
    ts = k * 2.0**-j
    duration = n * ts
    assume(Fraction(duration) == n * Fraction(ts))  # n*ts is exactly representable
    assert config_with(duration, ts).steps == n


@settings(database=None, derandomize=True, max_examples=200, deadline=None)
@given(
    ts=st.floats(min_value=1e-3, max_value=100.0),
    quotient=st.floats(min_value=1.0, max_value=float(MAX_STEPS)),
)
@example(ts=2.0, quotient=999999.9995)  # 1999999.999 s is short of 1e6 intervals
def test_steps_floors_the_exact_quotient(ts, quotient):
    duration = quotient * ts
    exact = Fraction(duration) / Fraction(ts)
    assume(1 <= exact <= MAX_STEPS)
    # `steps` absorbs only float rounding, so 1e-6 from an integer is far enough
    gap = min(exact - math.floor(exact), math.ceil(exact) - exact)
    assume(gap >= Fraction(1, 10**6))
    assert config_with(duration, ts).steps == math.floor(exact)
