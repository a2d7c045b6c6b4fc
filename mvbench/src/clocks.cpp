#include "mvbench/src/clocks.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <ctime>
#include <string>
#include <unordered_map>
#include <vector>

namespace mvbench {

namespace {

double cpu_clock_us(clockid_t clock) {
  timespec t{};
  clock_gettime(clock, &t);
  return static_cast<double>(t.tv_sec) * 1e6 +
         static_cast<double>(t.tv_nsec) / 1e3;
}

/// Keeps the kernel's results observable so the compiler cannot drop it.
std::atomic<std::uint64_t> g_kernel_sink{0};

/// Sorting, hashing and short-string allocation over ~0.5 MiB, the kinds
/// of work the library's operators do, in the benchmark's own code so a
/// change to the library cannot change the kernel.
double kernel_us() {
  static const std::vector<std::uint64_t> keys = [] {
    std::vector<std::uint64_t> out(20'000);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;  // xorshift64
    for (std::uint64_t& k : out) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      k = x;
    }
    return out;
  }();
  const double c0 = thread_cpu_us();
  std::vector<std::uint64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  std::unordered_map<std::uint64_t, std::uint64_t> groups;
  for (const std::uint64_t k : keys) groups[k % 8192] += k;
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < keys.size(); i += 2) {
    labels.push_back("row_" + std::to_string(keys[i] % 100'000));
  }
  g_kernel_sink += sorted[keys.size() / 2] + groups.size() + labels.size();
  return thread_cpu_us() - c0;
}

}  // namespace

double thread_cpu_us() { return cpu_clock_us(CLOCK_THREAD_CPUTIME_ID); }

double process_cpu_us() { return cpu_clock_us(CLOCK_PROCESS_CPUTIME_ID); }

double host_speed() {
  double t[3] = {kernel_us(), kernel_us(), kernel_us()};
  std::sort(t, t + 3);
  return kReferenceUs / t[1];
}

}  // namespace mvbench
