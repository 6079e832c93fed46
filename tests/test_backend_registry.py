"""The counting-backend registry and its conformance gate.

The registry (:mod:`repro.grid.backends`) is the single source of
truth for ``--count-backend`` choices and ``CountingBackend.kind``
validation — and no kernel may serve counts without passing the
differential self-check.  These
tests pin that contract:

* unknown names fail loudly *with the menu* (CLI exits 2 listing the
  registered backends; the API raises ``ValidationError`` naming them),
* a kernel that diverges from the reference — or lies about its stats —
  raises :class:`BackendConformanceError` and is **not** registered,
* duplicate registrations are rejected,
* the builtin kernels genuinely pass their own gate, on every tier.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.core.params import CountingBackend
from repro.exceptions import ValidationError
from repro.grid import backends as reg
from repro.grid.backends import (
    BackendConformanceError,
    BackendSpec,
    get_backend,
    register_backend,
    register_kernel,
    registered_backends,
    registered_kernels,
    resolve_kernel,
    verify_kernel,
)
from repro.grid.kernels import batch_counts
from repro.grid.native import (
    available_tiers,
    forced_tier,
    native_batch_counts,
    resolve_tier,
)

BUILTIN_BACKENDS = ["native", "serial"]


@pytest.fixture
def scratch_registry():
    """Roll back any names a test registers (the registry is module
    state shared by the whole process)."""
    kernels = dict(reg._KERNELS)
    backends = dict(reg._BACKENDS)
    verified = set(reg._VERIFIED)
    yield
    reg._KERNELS.clear()
    reg._KERNELS.update(kernels)
    reg._BACKENDS.clear()
    reg._BACKENDS.update(backends)
    reg._VERIFIED.clear()
    reg._VERIFIED.update(verified)


def _diverging_kernel(stack, dims_arr, rng_arr, packed):
    # Off-by-one on every count: must never pass the gate.
    counts, stats = batch_counts(stack, dims_arr, rng_arr, packed)
    return counts + 1, stats


def _stats_lying_kernel(stack, dims_arr, rng_arr, packed):
    counts, _ = batch_counts(stack, dims_arr, rng_arr, packed)
    return counts, {"words": 0}  # missing the required keys


class TestRegistryMenu:
    def test_builtin_backends_registered(self):
        assert registered_backends() == BUILTIN_BACKENDS

    def test_builtin_kernels_registered(self):
        assert registered_kernels() == ["native", "numpy"]

    def test_get_backend_unknown_lists_menu(self):
        with pytest.raises(ValidationError) as exc:
            get_backend("bogus")  # repro-lint: disable=RPL014
        message = str(exc.value)
        for name in BUILTIN_BACKENDS:
            assert name in message

    def test_counting_backend_kind_validated_via_registry(self):
        with pytest.raises(ValidationError) as exc:
            CountingBackend(kind="bogus")  # repro-lint: disable=RPL014
        assert "native" in str(exc.value)

    def test_resolve_kernel_unknown(self):
        with pytest.raises(ValidationError, match="numpy"):
            resolve_kernel("bogus")  # repro-lint: disable=RPL014

    def test_backend_spec_rejects_empty_name(self):
        with pytest.raises(ValidationError):
            BackendSpec(name="", kernel="numpy", description="x")


class TestCLIMenu:
    def test_unknown_count_backend_exits_2_with_menu(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                ["detect", "--dataset", "machine",
                 "--count-backend", "bogus"]
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        for name in BUILTIN_BACKENDS:
            assert name in err

    def test_native_backend_accepted(self, capsys):
        code = main(
            ["detect", "--dataset", "machine", "--method", "brute_force",
             "--top", "3", "--count-backend", "native"]
        )
        assert code == 0
        assert "Top 3 outliers" in capsys.readouterr().out


class TestRemovedBackends:
    """The worker-pool backends and the numba tier are gone for good:
    asking for them fails with the current menu, never silently."""

    def test_process_kind_rejected_with_menu(self):
        with pytest.raises(ValidationError) as exc:
            CountingBackend(kind="process")  # repro-lint: disable=RPL014
        assert "['native', 'serial']" in str(exc.value)

    def test_cli_process_backend_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--dataset", "machine", "--count-backend", "process"])
        assert exc.value.code == 2
        assert "'native', 'serial'" in capsys.readouterr().err

    def test_numba_tier_rejected(self, monkeypatch):
        with pytest.raises(ValidationError, match="numba"):
            with forced_tier("numba"):
                pass
        monkeypatch.setenv("REPRO_NATIVE_KERNEL", "numba")
        with pytest.raises(ValidationError, match="numba"):
            resolve_tier()


class TestConformanceGate:
    def test_builtin_native_kernel_passes_every_tier(self):
        for tier in available_tiers():
            with forced_tier(tier):
                verify_kernel(native_batch_counts, f"native[{tier}]")

    def test_diverging_kernel_raises_and_is_not_registered(
        self, scratch_registry
    ):
        with pytest.raises(BackendConformanceError, match="differential"):
            register_kernel("tests-diverging", _diverging_kernel)
        assert "tests-diverging" not in registered_kernels()

    def test_stats_contract_enforced(self, scratch_registry):
        with pytest.raises(BackendConformanceError, match="stats"):
            register_kernel("tests-lying", _stats_lying_kernel)
        assert "tests-lying" not in registered_kernels()

    def test_backend_over_unverified_bad_kernel_raises(
        self, scratch_registry
    ):
        # Sneaking the kernel in unverified does not help: registering a
        # backend over it re-runs the gate and refuses.
        register_kernel("tests-sneaky", _diverging_kernel, verify=False)
        with pytest.raises(BackendConformanceError):
            register_backend(
                BackendSpec(
                    name="tests-sneaky-backend",
                    kernel="tests-sneaky",
                    description="should never register",
                )
            )
        assert "tests-sneaky-backend" not in registered_backends()

    def test_good_custom_kernel_registers(self, scratch_registry):
        register_kernel("tests-clone", batch_counts)
        register_backend(
            BackendSpec(
                name="tests-clone-backend",
                kernel="tests-clone",
                description="reference clone",
            )
        )
        assert get_backend("tests-clone-backend").kernel == "tests-clone"
        # ...and the params layer immediately accepts the new kind.
        assert CountingBackend(kind="tests-clone-backend").kind == (
            "tests-clone-backend"
        )

    def test_duplicate_kernel_rejected(self, scratch_registry):
        with pytest.raises(ValidationError, match="already"):
            register_kernel("numpy", batch_counts, verify=False)

    def test_duplicate_backend_rejected(self, scratch_registry):
        with pytest.raises(ValidationError, match="already"):
            register_backend(
                BackendSpec(
                    name="serial", kernel="numpy", description="dup",
                ),
                verify=False,
            )

    def test_backend_requires_registered_kernel(self, scratch_registry):
        with pytest.raises(ValidationError, match="unregistered"):
            register_backend(
                BackendSpec(  # repro-lint: disable=RPL014
                    name="tests-orphan", kernel="no-such-kernel",
                    description="orphan",
                )
            )

    def test_verify_kernel_names_divergence(self):
        with pytest.raises(BackendConformanceError, match="candidate"):
            verify_kernel(_diverging_kernel)


class TestCounterIntegration:
    def test_counter_reports_backend_kernel(self, rng):
        from repro.grid.cells import CellAssignment
        from repro.grid.packed_counter import PackedCubeCounter

        codes = rng.integers(0, 3, size=(50, 4)).astype(np.int16)
        counter = PackedCubeCounter(
            CellAssignment(codes, 3),
            backend=CountingBackend(kind="native"),
        )
        info = counter.kernel_info()
        assert info["backend"] == "native"
        assert info["kernel"] == "native"
        assert info["tier"] in available_tiers()
        assert counter.cache_stats()["kernel"] == "native"
