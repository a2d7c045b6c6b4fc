// The clocks the end-to-end metrics are read on.
//
// On a shared virtual machine the same work takes a different time on
// every run. The hypervisor takes a vCPU away for a varying share of the
// run (steal time), which a wall clock counts and a CPU clock does not.
// While the vCPU runs, other guests on the same cores, caches and memory
// slow it by a share that also varies: on a 4-vCPU guest the CPU time of
// one write_mix run differed from the next by up to 30%. So the benchmark
// reads CPU time, and scales it by the host's current speed, which it
// measures by timing a fixed reference kernel on the same thread right
// before each phase. A scaled time reads as CPU time on a host that runs
// the kernel in exactly kReferenceUs.
#pragma once

namespace mvbench {

/// Microseconds of CPU time used by the calling thread, and by every
/// thread of the process (ended ones included).
double thread_cpu_us();
double process_cpu_us();

/// The reference kernel's CPU time on the reference host: a quiet vCPU of
/// a 2.1 GHz x86-64 Xeon.
inline constexpr double kReferenceUs = 2900;

/// Runs the reference kernel three times on the calling thread and returns
/// kReferenceUs over the median CPU time: the factor that turns CPU times
/// this thread measures now into reference-host CPU times. Below 1 when
/// the host runs slower than the reference.
double host_speed();

}  // namespace mvbench
