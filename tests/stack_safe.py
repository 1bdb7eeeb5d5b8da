"""A guard for tests on terms far past the interpreter recursion limit."""

from __future__ import annotations

import functools

import pytest


def stack_safe(test):
    """Report a RecursionError raised by the test as a one-line failure.
    Left to pytest, the traceback of a walk over a term 10^5 deep renders
    about a thousand frames of such terms, which takes minutes."""

    @functools.wraps(test)
    def run(*args, **kwargs):
        try:
            return test(*args, **kwargs)
        except RecursionError as e:
            message = f"RecursionError: {e}"
        # outside the handler, so that the failure holds no frame of the walk
        pytest.fail(message, pytrace=False)

    return run
