"""Property tests of the config boundary: bad input only ever raises ConfigError,
and `ScenarioConfig.steps` agrees with exact rational arithmetic.

Needs `hypothesis` (the `[test]` extra); skipped without it. Derandomized and
without an example database, so every run draws the same examples.
"""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from magsat import ConfigError, presets  # noqa: E402
from magsat.scenario import MAX_STEPS, scenario_from_dict  # noqa: E402


def preset_document() -> dict:
    doc = presets.get_scenario_preset("detumble-paper")
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
