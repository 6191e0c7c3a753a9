// perfbench_bin: runs one workload of the benchmark and prints its raw
// measurements as one JSON object on the last line of stdout.  run.py is
// the front end; this binary is not meant to be read by people.
//
// Usage: perfbench_bin --workload=<attest_poll|tenant_churn|rack_fabric>
//                      --seed=<n> --seconds=<s> [--trace=<chrome-trace.json>]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "perfbench/src/harness.h"

namespace {

bool Flag(const char* arg, const char* name, const char** value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=' && arg[len + 1] != '\0') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (Flag(argv[i], "--workload", &v)) {
      opts.workload = v;
    } else if (Flag(argv[i], "--seed", &v)) {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (Flag(argv[i], "--seconds", &v)) {
      opts.seconds = std::atof(v);
    } else if (Flag(argv[i], "--trace", &v)) {
      opts.traced = true;
      opts.trace_path = v;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  if (opts.seconds < 0) {
    std::fprintf(stderr, "--seconds must not be negative\n");
    return 2;
  }

  perfbench::SpanRecorder spans(opts.traced);
  perfbench::WorkloadResult result;
  int rc = 0;
  if (opts.workload == "attest_poll") {
    rc = perfbench::RunAttestPoll(opts, result, spans);
  } else if (opts.workload == "tenant_churn") {
    rc = perfbench::RunTenantChurn(opts, result, spans);
  } else if (opts.workload == "rack_fabric") {
    rc = perfbench::RunRackFabric(opts, result, spans);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opts.workload.c_str());
    return 2;
  }
  if (rc != 0) {
    return rc;
  }
  if (opts.traced) {
    std::ofstream out(opts.trace_path);
    out << spans.ChromeTraceJson();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opts.trace_path.c_str());
      return 1;
    }
  }
  std::printf("%s\n", perfbench::RenderResultJson(opts, result).c_str());
  return 0;
}
