"""Kernel-phase memo tests (:mod:`repro.sim.phasecache`)."""

from repro.sim.calibration import default_calibration
from repro.sim.hardware import default_system
from repro.sim.kernel import AccessPattern, KernelDescriptor
from repro.sim.phasecache import (PhaseMemo, clear_phase_memos,
                                  phase_memo_for)
from repro.sim.timing import ConfigFlags, simulate_kernel

DESC = KernelDescriptor(
    name="memo_kernel", blocks=128, threads_per_block=256,
    tiles_per_block=4, tile_bytes=16384, compute_cycles_per_tile=2048.0,
    access_pattern=AccessPattern.SEQUENTIAL, write_bytes=1 << 20,
    data_footprint_bytes=1 << 24)


class TestPhaseMemo:
    def setup_method(self):
        clear_phase_memos()

    def teardown_method(self):
        clear_phase_memos()

    def test_hit_returns_identical_object(self):
        system, calib = default_system(), default_calibration()
        smem = system.gpu.default_shared_mem_bytes
        memo = PhaseMemo(system, calib)
        flags = ConfigFlags()
        first = memo.simulate(DESC, flags, system, calib,
                              smem_carveout_bytes=smem,
                              resident_fraction=0.0)
        second = memo.simulate(DESC, flags, system, calib,
                               smem_carveout_bytes=smem,
                               resident_fraction=0.0)
        assert second is first
        assert (memo.hits, memo.misses) == (1, 1)
        assert first == simulate_kernel(DESC, flags, system, calib,
                                        smem_carveout_bytes=smem,
                                        resident_fraction=0.0)

    def test_distinct_arguments_miss(self):
        system, calib = default_system(), default_calibration()
        smem = system.gpu.default_shared_mem_bytes
        memo = PhaseMemo(system, calib)
        memo.simulate(DESC, ConfigFlags(), system, calib,
                      smem_carveout_bytes=smem)
        memo.simulate(DESC, ConfigFlags(use_async=True), system, calib,
                      smem_carveout_bytes=smem)
        memo.simulate(DESC, ConfigFlags(), system, calib,
                      smem_carveout_bytes=smem, resident_fraction=0.5)
        assert memo.misses == 3
        assert memo.hits == 0

    def test_foreign_environment_bypasses(self):
        system, calib = default_system(), default_calibration()
        memo = PhaseMemo(system, calib)
        import dataclasses
        other = dataclasses.replace(
            system, gpu=dataclasses.replace(system.gpu, sm_count=1))
        smem = other.gpu.default_shared_mem_bytes
        result = memo.simulate(DESC, ConfigFlags(), other, calib,
                               smem_carveout_bytes=smem)
        assert memo.bypasses == 1
        assert len(memo) == 0
        assert result == simulate_kernel(DESC, ConfigFlags(), other, calib,
                                         smem_carveout_bytes=smem,
                                         resident_fraction=0.0)

    def test_registry_reuses_by_equality(self):
        a = phase_memo_for(default_system(), default_calibration())
        b = phase_memo_for(default_system(), default_calibration())
        assert a is b
        clear_phase_memos()
        c = phase_memo_for(default_system(), default_calibration())
        assert c is not a
