"""Checks shared by the tests of the validated records: IntMatrix,
SmithForm, FramedLink, LambdaClass and FiniteSubgroup."""

import copy
import pickle
import re

import pytest


def assert_rejected(good, changes: dict, exc: type, message: str) -> None:
    """Changing the fields in changes raises exc with exactly message,
    whether the record is built by its constructor, _replace or _make."""
    values = {**good._asdict(), **changes}
    builds = (lambda: type(good)(**values),
              lambda: good._replace(**changes),
              lambda: type(good)._make(values.values()))
    for build in builds:
        with pytest.raises(exc, match=f"^{re.escape(message)}$"):
            build()


def assert_round_trips(record) -> None:
    """Every pickle protocol and deepcopy give back an equal record of the same type."""
    twins = [pickle.loads(pickle.dumps(record, protocol))
             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in twins + [copy.deepcopy(record)]:
        assert type(twin) is type(record) and twin == record
