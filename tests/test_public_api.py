"""Public API surface tests: everything the README and examples rely on
must be importable from the top-level package, the error taxonomy
must be intact, and the simulator must not pull in the linter."""

import os
import subprocess
import sys

import pytest

import repro
from repro.errors import (
    AddressError,
    AllocationError,
    ConfigError,
    DatasetError,
    ExperimentError,
    GraphError,
    OutOfMemoryError,
    ReproError,
    WorkloadError,
)


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_quickstart_surface(self):
        """The README quickstart's exact imports."""
        from repro import (
            Machine,
            ThpPolicy,
            create_workload,
            load_dataset,
        )

        data = load_dataset("test-small")
        machine = Machine(
            repro.tiny(), thp=ThpPolicy.always()
        )
        metrics = machine.run(
            create_workload("bfs", data.graph), dataset=data.name
        )
        summary = metrics.summary()
        assert summary["dataset"] == "test-small"

    def test_version(self):
        assert repro.__version__

    def test_machine_import_loads_no_analysis_module(self):
        """The simulator (MemSan included) stands apart from the static
        analyzer: ``import repro.machine`` must not load it."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        probe = (
            "import sys, repro.machine; "
            "print(sorted(m for m in sys.modules "
            "if m == 'repro.analysis' or m.startswith('repro.analysis.')))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True,
            capture_output=True, text=True,
        )
        assert result.stdout.strip() == "[]"


class TestErrorTaxonomy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            AddressError,
            AllocationError,
            ConfigError,
            DatasetError,
            ExperimentError,
            GraphError,
            OutOfMemoryError,
            WorkloadError,
        ):
            assert issubclass(exc, ReproError)

    def test_dataset_error_is_graph_error(self):
        assert issubclass(DatasetError, GraphError)

    def test_catchable_as_repro_error(self):
        with pytest.raises(ReproError):
            repro.load_dataset("definitely-not-a-dataset")
        with pytest.raises(ReproError):
            repro.get_profile("definitely-not-a-profile")
        with pytest.raises(ReproError):
            repro.create_workload("definitely-not-a-workload", None)
