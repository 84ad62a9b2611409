// perfbench: the repository's benchmark program. One process runs one
// workload, either untraced (end-to-end metrics) or traced (per-layer
// metrics plus a span file), checks every output, and prints two JSON
// lines: the run record and, last, the result.
//
//   perfbench --workload=massive-x1 --seed=1 --seconds=10 --trace=0
//             --work-dir=DIR [--trace-out=FILE] [--smoke] [--wrong=CHECK]
//             [--commit=SHA]
//
// perfbench/run.py builds this binary and is the command to use.
#include <cmath>
#include <exception>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.h"

namespace {

using perfbench::Options;
using perfbench::Report;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::stoull(val);
    } else if (key == "--seconds") {
      o.seconds = std::stod(val);
    } else if (key == "--trace") {
      o.trace = val == "1";
    } else if (key == "--work-dir") {
      o.work_dir = val;
    } else if (key == "--trace-out") {
      o.trace_out = val;
    } else if (key == "--smoke") {
      o.smoke = true;
    } else if (key == "--wrong") {
      o.wrong = val;
    } else if (key == "--commit") {
      o.commit = val;
    } else {
      std::cerr << "unknown argument " << arg << "\n";
      return false;
    }
  }
  return !o.workload.empty() && !o.work_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    std::cerr << "usage: perfbench --workload=NAME --work-dir=DIR "
                 "[--seed=N] [--seconds=S] [--trace=0|1] [--trace-out=FILE] "
                 "[--smoke] [--wrong=CHECK] [--commit=SHA]\n";
    return 2;
  }
  perfbench::fresh_dir(o.work_dir);
  int code = 0;
  try {
    Report report =
        o.workload == "massive-x1"   ? perfbench::run_massive_x1(o)
        : o.workload == "paper-x6"   ? perfbench::run_paper_x6(o)
        : o.workload == "svc-closed" ? perfbench::run_svc_closed(o)
                                     : throw std::invalid_argument(
                                           "unknown workload " + o.workload);

    std::ostringstream record;
    record << std::setprecision(12);
    record << "{\"record\": {\"workload\": " << json_string(o.workload)
           << ", \"seed\": " << o.seed << ", \"trace\": " << (o.trace ? 1 : 0)
           << ", \"seconds\": " << o.seconds
           << ", \"smoke\": " << (o.smoke ? "true" : "false")
           << ", \"nproc\": " << std::thread::hardware_concurrency()
           << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
           << ", \"commit\": " << json_string(o.commit)
           << ", \"work_dir\": " << json_string(o.work_dir)
           << ", \"tmpfs\": " << json_string("none (work_dir is inside the checkout)")
           << ", \"trace_out\": " << json_string(o.trace_out)
           << ", \"params\": {";
    for (std::size_t i = 0; i < report.params.size(); ++i) {
      record << (i == 0 ? "" : ", ") << json_string(report.params[i].first)
             << ": " << json_string(report.params[i].second);
    }
    record << "}}}";
    std::cout << record.str() << "\n";

    const bool correct = report.checks.failed() == 0;
    std::ostringstream result;
    result << std::setprecision(12);
    result << "{\"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << report.checks.attempted()
           << ", \"failed\": " << report.checks.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
      const perfbench::Metric& m = report.metrics[i];
      result << (i == 0 ? "" : ", ") << json_string(m.name)
             << ": {\"value\": " << (std::isfinite(m.value) ? m.value : 0.0)
             << ", \"unit\": " << json_string(m.unit) << "}";
    }
    result << "}}";
    std::cout << result.str() << std::endl;
    code = correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    code = 3;
  }
  perfbench::remove_dir(o.work_dir);
  return code;
}
