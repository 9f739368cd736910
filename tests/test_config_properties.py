"""Property test of the config boundary: bad input only ever raises ConfigError.

Needs `hypothesis` (the `[test]` extra); skipped without it. Derandomized and
without an example database, so every run draws the same examples.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from magsat import ConfigError, presets  # noqa: E402
from magsat.scenario import scenario_from_dict  # noqa: E402


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
