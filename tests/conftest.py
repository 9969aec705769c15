"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st


def decades(lo: float, hi: float):
    """Positive floats spread evenly over the decades from 10**lo to 10**hi."""
    return st.floats(lo, hi).map(lambda d: 10.0**d)
