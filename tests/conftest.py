import os
import pathlib

import hypothesis
import hypothesis.strategies as st
import pytest

import segmax
from segmax import ShapeKind, bin_, cons, fork, inode, leaf, nil, nilt, tip


def pytest_configure(config):
    # pyproject.toml's pythonpath puts this checkout's src ahead of
    # PYTHONPATH, so a PYTHONPATH naming another checkout's src would
    # silently test this one
    imported = pathlib.Path(segmax.__file__).resolve().parent
    for entry in filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep)):
        package = pathlib.Path(entry, "segmax")
        if (package / "__init__.py").is_file() and package.resolve() != imported:
            pytest.exit(f"PYTHONPATH holds {package}, but the tests import segmax "
                        f"from {imported}: run them inside that checkout",
                        returncode=pytest.ExitCode.USAGE_ERROR)


hypothesis.settings.register_profile(
    "segmax",
    deadline=None,
    derandomize=True,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("segmax")


small_labels = st.integers(min_value=-8, max_value=8)
wide_labels = st.integers(min_value=-(1 << 20), max_value=1 << 20)


def terms(shape: ShapeKind, label_st=small_labels, max_leaves: int = 16):
    if shape is ShapeKind.LIST:
        return st.recursive(
            st.just(nil()), lambda ch: st.builds(cons, label_st, ch),
            max_leaves=max_leaves,
        )
    if shape is ShapeKind.ETREE:
        return st.recursive(
            st.builds(tip, label_st), lambda ch: st.builds(bin_, ch, ch),
            max_leaves=max_leaves,
        )
    if shape is ShapeKind.ITREE:
        return st.recursive(
            st.just(nilt()), lambda ch: st.builds(inode, label_st, ch, ch),
            max_leaves=max_leaves,
        )
    return st.recursive(
        st.builds(leaf, label_st), lambda ch: st.builds(fork, label_st, ch, ch),
        max_leaves=max_leaves,
    )


any_term = st.sampled_from(list(ShapeKind)).flatmap(terms)
int_lists = st.lists(st.integers(min_value=-64, max_value=64), max_size=16)


def mutate(rng, text):
    """text with one character deleted, inserted or replaced, or one
    span duplicated."""
    i = rng.randrange(len(text) + 1)
    op = rng.randrange(4)
    if op == 0:
        return text[:i] + text[i + 1:]
    if op == 1:
        return text[:i] + rng.choice("() -1nilE@x") + text[i:]
    if op == 2:
        return text[:i] + rng.choice(")(9 ") + text[i + 1:]
    j = rng.randrange(i, len(text) + 1)
    return text[:j] + text[i:j] + text[j:]
