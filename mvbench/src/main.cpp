// mvbench — the repository's end-to-end benchmark.
//
//   mvbench --workload NAME --seed N --seconds S --trace 0|1
//           [--trace-out FILE]
//
// Prints one JSON report line, then the result line
// {"correct", "attempted", "failed", "metrics"} last. Exits 0 when every
// op succeeded and every correctness gate held, 1 otherwise, 2 on bad
// arguments or a pinned-configuration violation.
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "mvbench/src/runner.hpp"

extern char** environ;

namespace {

int usage(const std::string& why) {
  std::cerr << "mvbench: " << why
            << "\nusage: mvbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\nworkloads:";
  for (const mvbench::Workload& w : mvbench::workloads()) {
    std::cerr << ' ' << w.name;
  }
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // The library reads MVD_* variables for its defaults and debug hooks
  // (MVD_CHECK and MVD_LINT_LEVEL add whole analysis passes, MVD_JOURNAL
  // adds a file sink): a measured configuration must not depend on them.
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    if (std::strncmp(*env, "MVD_", 4) == 0) {
      return usage(std::string("refusing to run with ") + *env +
                   " set; unset every MVD_* variable");
    }
  }

  std::string workload;
  mvbench::RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = options.seconds > 0 && options.seconds <= 600;
        if (!have_seconds) return usage("--seconds must be in (0, 600]");
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else if (arg == "--trace-out") {
        options.trace_out = value;
      } else {
        return usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg + ": " + value);
    }
  }
  const mvbench::Workload* w = mvbench::find_workload(workload);
  if (w == nullptr) return usage("unknown workload '" + workload + "'");
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }

  try {
    const mvbench::RunResult result = mvbench::run_workload(*w, options);
    mvd::Json report = mvd::Json::object();
    report.set("report", result.report);
    std::cout << report.dump() << '\n'
              << mvbench::result_line(result) << std::endl;
    return result.correct && result.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "mvbench: " << workload << ": " << e.what() << '\n';
    return 1;
  }
}
