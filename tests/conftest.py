"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.types import IdlePeriod


def pytest_collection_modifyitems(items: list[pytest.Item]) -> None:
    """Every test under tests/service/ talks to a real server — tag the
    whole directory so `-m "not service"` works without per-file marks."""
    for item in items:
        if "tests/service/" in str(item.path).replace("\\", "/"):
            item.add_marker(pytest.mark.service)


def make_periods(
    n: int,
    seed: int = 0,
    servers: int = 8,
    st_range: tuple[float, float] = (0.0, 100.0),
    et_range: tuple[float, float] = (101.0, 200.0),
    first_uid: int = 0,
) -> list[IdlePeriod]:
    """Random non-degenerate idle periods (ends always after starts),
    numbered ``first_uid`` on in creation order."""
    rng = random.Random(seed)
    return [
        IdlePeriod(
            server=rng.randrange(servers),
            st=rng.uniform(*st_range),
            et=rng.uniform(*et_range),
            uid=uid,
        )
        for uid in range(first_uid, first_uid + n)
    ]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)
