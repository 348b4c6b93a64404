"""Conformance of every named plug-in table to the one Catalog contract."""

import re

import pytest

from repro.errors import ConfigError, SchedulerError, TrafficError, WorkloadError
from repro.power import DVFS_POINTS
from repro.sched import POLICIES, SCENARIOS
from repro.traffic import ARRIVALS, BALANCERS
from repro.workloads.base import _PROFILES

TABLES = [
    (POLICIES, SchedulerError),
    (SCENARIOS, SchedulerError),
    (ARRIVALS, TrafficError),
    (BALANCERS, TrafficError),
    (DVFS_POINTS, ConfigError),
    (_PROFILES, WorkloadError),
]


@pytest.fixture(params=TABLES, ids=[t.kind for t, _ in TABLES])
def table(request):
    return request.param


def test_duplicate_add_raises_table_error(table):
    catalog, error = table
    name = catalog.names()[0]
    entry = catalog.get(name)
    before = catalog.items()
    with pytest.raises(error, match=f"duplicate {catalog.kind} '{name}'"):
        catalog.add(name, entry)
    assert catalog.items() == before


def test_unknown_name_lists_registered(table):
    catalog, error = table
    listed = ", ".join(catalog.names())
    with pytest.raises(error, match=re.escape(
            f"unknown {catalog.kind} 'no-such-name'; registered: {listed}")):
        catalog.get("no-such-name")
    assert "no-such-name" not in catalog


def test_names_and_items_are_sorted(table):
    catalog, _ = table
    names = catalog.names()
    assert names and names == sorted(names)
    assert [name for name, _ in catalog.items()] == names
    assert all(name in catalog for name in names)
