"""Unit tests for the processor-sharing CPU model."""

import pytest

from repro.sim import ProcessorSharingServer, SimulationError, Simulator


@pytest.fixture
def sim():
    return Simulator()


def run_job(sim, cpu, work, results, name):
    def proc(sim):
        start = sim.now
        yield cpu.execute(work)
        results[name] = (start, sim.now)

    return sim.process(proc(sim))


class TestSingleJob:
    def test_work_takes_work_seconds_at_unit_speed(self, sim):
        cpu = ProcessorSharingServer(sim, cores=1)
        results = {}
        run_job(sim, cpu, 2.0, results, "j")
        sim.run()
        assert results["j"] == (0.0, 2.0)

    def test_zero_work_completes_instantly(self, sim):
        cpu = ProcessorSharingServer(sim, cores=1)
        done = cpu.execute(0.0)
        assert done.triggered

    def test_negative_work_rejected(self, sim):
        cpu = ProcessorSharingServer(sim, cores=1)
        with pytest.raises(SimulationError):
            cpu.execute(-1.0)

    def test_speed_scales_completion(self, sim):
        cpu = ProcessorSharingServer(sim, cores=1, speed=0.5)
        results = {}
        run_job(sim, cpu, 1.0, results, "j")
        sim.run()
        assert results["j"][1] == pytest.approx(2.0)


class TestSharing:
    def test_two_jobs_share_one_core(self, sim):
        cpu = ProcessorSharingServer(sim, cores=1)
        results = {}
        run_job(sim, cpu, 1.0, results, "a")
        run_job(sim, cpu, 1.0, results, "b")
        sim.run()
        # Each proceeds at rate 1/2: both finish at t=2.
        assert results["a"][1] == pytest.approx(2.0)
        assert results["b"][1] == pytest.approx(2.0)

    def test_two_cores_no_interference_for_two_jobs(self, sim):
        cpu = ProcessorSharingServer(sim, cores=2)
        results = {}
        run_job(sim, cpu, 1.0, results, "a")
        run_job(sim, cpu, 1.0, results, "b")
        sim.run()
        assert results["a"][1] == pytest.approx(1.0)
        assert results["b"][1] == pytest.approx(1.0)

    def test_three_jobs_on_two_cores(self, sim):
        cpu = ProcessorSharingServer(sim, cores=2)
        results = {}
        for name in ("a", "b", "c"):
            run_job(sim, cpu, 1.0, results, name)
        sim.run()
        # Total rate 2 shared by 3 -> each at 2/3 -> done at 1.5.
        for name in ("a", "b", "c"):
            assert results[name][1] == pytest.approx(1.5)

    def test_short_job_departure_speeds_up_long_job(self, sim):
        cpu = ProcessorSharingServer(sim, cores=1)
        results = {}
        run_job(sim, cpu, 0.5, results, "short")
        run_job(sim, cpu, 1.0, results, "long")
        sim.run()
        # Shared until short finishes at t=1.0 (0.5 each done);
        # long finishes its remaining 0.5 alone by t=1.5.
        assert results["short"][1] == pytest.approx(1.0)
        assert results["long"][1] == pytest.approx(1.5)

    def test_late_arrival_shares_fairly(self, sim):
        cpu = ProcessorSharingServer(sim, cores=1)
        results = {}
        run_job(sim, cpu, 1.0, results, "early")

        def late(sim):
            yield 0.5
            start = sim.now
            yield cpu.execute(0.25)
            results["late"] = (start, sim.now)

        sim.process(late(sim))
        sim.run()
        # early runs alone [0,0.5] (0.5 done); then shares until late's
        # 0.25 completes at t=1.0; early finishes remaining 0.25 at 1.25.
        assert results["late"][1] == pytest.approx(1.0)
        assert results["early"][1] == pytest.approx(1.25)


class TestSpeedChanges:
    def test_mid_job_slowdown(self, sim):
        cpu = ProcessorSharingServer(sim, cores=1)
        results = {}
        run_job(sim, cpu, 1.0, results, "j")
        sim.call_in(0.5, lambda: cpu.set_speed(0.1))
        sim.run()
        # 0.5 work done by t=0.5; remaining 0.5 at speed 0.1 -> 5s more.
        assert results["j"][1] == pytest.approx(5.5)

    def test_zero_speed_stalls_until_recovery(self, sim):
        cpu = ProcessorSharingServer(sim, cores=1)
        results = {}
        run_job(sim, cpu, 1.0, results, "j")
        sim.call_in(0.5, lambda: cpu.set_speed(0.0))
        sim.call_in(2.5, lambda: cpu.set_speed(1.0))
        sim.run()
        assert results["j"][1] == pytest.approx(3.0)

    def test_negative_speed_rejected(self, sim):
        cpu = ProcessorSharingServer(sim, cores=1)
        with pytest.raises(SimulationError):
            cpu.set_speed(-0.1)


class TestAccounting:
    def test_busy_time_counts_stall_as_busy(self, sim):
        cpu = ProcessorSharingServer(sim, cores=1, speed=0.5)
        results = {}
        run_job(sim, cpu, 1.0, results, "j")
        sim.run()
        # Took 2s wall at half speed: busy the whole 2s for a monitor.
        assert cpu.busy_core_seconds == pytest.approx(2.0)
        assert cpu.work_done == pytest.approx(1.0)

    def test_busy_capped_at_cores(self, sim):
        cpu = ProcessorSharingServer(sim, cores=2)
        results = {}
        for name in ("a", "b", "c", "d"):
            run_job(sim, cpu, 1.0, results, name)
        sim.run()
        # 4 jobs on 2 cores: 2s wall, 2 cores busy throughout.
        assert cpu.busy_core_seconds == pytest.approx(4.0)
        assert cpu.work_done == pytest.approx(4.0)

    def test_idle_cpu_accrues_nothing(self, sim):
        cpu = ProcessorSharingServer(sim, cores=1)
        sim.run(until=10.0)
        assert cpu.busy_core_seconds == 0.0

    def test_job_counters(self, sim):
        cpu = ProcessorSharingServer(sim, cores=1)
        results = {}
        run_job(sim, cpu, 0.5, results, "a")
        run_job(sim, cpu, 0.5, results, "b")
        sim.run()
        assert cpu.jobs_submitted == 2
        assert cpu.jobs_completed == 2
        assert cpu.active_jobs == 0


class TestCancel:
    def test_cancelled_job_never_completes(self, sim):
        cpu = ProcessorSharingServer(sim, cores=1)
        job = cpu.execute(1.0)
        sim.call_in(0.5, lambda: cpu.cancel(job))
        sim.run()
        assert not job.triggered
        assert cpu.active_jobs == 0

    def test_cancel_frees_capacity_for_others(self, sim):
        cpu = ProcessorSharingServer(sim, cores=1)
        victim = cpu.execute(1.0)
        results = {}
        run_job(sim, cpu, 1.0, results, "other")
        sim.call_in(0.5, lambda: cpu.cancel(victim))
        sim.run()
        # other: [0,0.5] at rate 1/2 (0.25 done), then alone -> +0.75.
        assert results["other"][1] == pytest.approx(1.25)
