"""Shared fixtures for the test suite."""

import os
import tempfile

# The whole suite runs under quackplan (see repro.verifier): every
# optimizer pass and lowering of every test query is verified, and any
# plan-invariant violation raises.  Export before any connection is made;
# an explicit REPRO_VERIFY_PLANS=0 in the environment still wins.
os.environ.setdefault("REPRO_VERIFY_PLANS", "1")

import pytest
from hypothesis import settings

import repro
from repro import sanitizer

# In CI (GitHub sets ``CI``) every property test draws the same examples on
# every run, so a property failure there reproduces locally with
# ``CI=true python -m pytest <test id>``.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def pytest_sessionfinish(session, exitstatus):
    """Under ``REPRO_SANITIZE=1`` the whole suite is a sanitizer gate: any
    lock-order cycle or race witnessed by any test fails the run.  Tests
    that seed deliberate findings reset the collector on teardown."""
    if sanitizer.enabled():
        sanitizer.assert_clean()


@pytest.fixture
def con():
    """A fresh in-memory database connection."""
    connection = repro.connect()
    yield connection
    connection.close()


@pytest.fixture
def traced(con):
    """Tracing on for ``con``'s database; yields that database's tracer."""
    con.session_config.trace_enabled = True
    return con.database.tracer


@pytest.fixture
def db_path(tmp_path):
    """A path for a persistent database file in a temp directory."""
    return str(tmp_path / "test.qdb")


@pytest.fixture
def file_con(db_path):
    """A connection to a persistent single-file database."""
    connection = repro.connect(db_path)
    yield connection
    connection.close()


@pytest.fixture
def populated(con):
    """An in-memory connection with a small, NULL-bearing sample table."""
    con.execute("CREATE TABLE sample (i INTEGER, s VARCHAR, d DOUBLE)")
    con.execute(
        "INSERT INTO sample VALUES "
        "(1, 'alpha', 1.5), (2, 'beta', 2.5), (3, 'alpha', NULL), "
        "(4, NULL, 4.5), (5, 'gamma', 0.5)"
    )
    return con
