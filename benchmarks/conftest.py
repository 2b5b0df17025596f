"""Shared benchmark fixtures and table-printing helpers.

Every benchmark module regenerates one table/figure of the evaluation (its
module docstring names the table and the expected shape) and *prints* the
regenerated rows so the bench output doubles as the experiment record; the
regression gates are listed in ``docs/architecture.md``.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--bench-scale",
        action="store",
        default="small",
        choices=("small", "full"),
        help="workload scale for value/runtime benchmarks",
    )
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help=(
            "CI smoke mode: force the small workload scale (combine with "
            "--benchmark-disable to skip timing calibration; correctness "
            "assertions — equivalence, nesting, speedup gates — still run)"
        ),
    )


@pytest.fixture(scope="session")
def bench_scale(request):
    if request.config.getoption("--quick"):
        return "small"
    return request.config.getoption("--bench-scale")


@pytest.fixture(scope="session")
def emit():
    """Print a block with a separating newline (keeps bench logs readable)."""

    def _emit(text: str) -> None:
        print("\n" + text)

    return _emit
