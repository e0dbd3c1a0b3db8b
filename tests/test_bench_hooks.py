"""The benchmark worker wraps program functions by name; a renamed function
must fail here, not only when the benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"


@pytest.fixture(scope="module")
def worker():
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class SiteCheck:
    """A tracer that patches nothing and checks that the site it would wrap
    from exists, as ``Tracer.patch`` reads it."""

    def __init__(self) -> None:
        self.names: list[str] = []

    def patch(self, name: str, sites: list[tuple[object, str]]) -> None:
        owner, attr = sites[0]
        assert attr in vars(owner), f"{name}: {owner.__name__} has no attribute {attr!r}"
        self.names.append(name)


def test_trace_program_sites_exist(worker):
    check = SiteCheck()
    worker.trace_program(check)
    assert "cli.write" in check.names


@pytest.mark.parametrize("workload", ["tabular-k1", "dqn-k1", "exact-k5", "tabular-k6"])
def test_main_phase_sites_exist(worker, workload):
    assert workload in worker.COMMANDS
    check = SiteCheck()
    worker.time_main_phase(check, workload)
    assert check.names
