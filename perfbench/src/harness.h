// Shared plumbing for the benchmark's workloads: the timed step loop, the
// host-time span recorder of the traced run, the raw result every workload
// fills in, and its JSON rendering.
//
// The binary reports raw measurements only (per-step host times, unit
// counts, simulated latencies, digests, check counters, layer readings).
// run.py turns them into the end-to-end and per-layer metrics, so the
// statistics live in one tested place.

#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace bolted::tpm {
class Tpm;
}  // namespace bolted::tpm

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Steps every run executes whatever the host speed: p90 then has at least
// ten samples beyond it.  Simulated-time metrics, digests and obs counts
// are taken over exactly this prefix, so they are a function of the seed
// alone.
inline constexpr int kMinSteps = 100;
// Setups per run: at least kSetups and at least kSetupSeconds of them, so
// a setup of a few milliseconds gets hundreds of samples; run.py reports
// their median.
inline constexpr int kSetups = 5;
inline constexpr double kSetupSeconds = 1.0;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string trace_path;  // chrome-trace JSON of the host-time spans
};

// Host-time spans around the benchmark's own calls into the program.
// Disabled (every call a no-op) outside the traced run.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }
  // Returns a span id (or -1 when disabled); parent -1 is a root span.
  int64_t Begin(std::string_view name, int64_t parent = -1, int64_t step = -1);
  void End(int64_t id);
  std::string ChromeTraceJson() const;

 private:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int64_t parent = -1;
    int64_t step = -1;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string_view name, int64_t parent = -1,
             int64_t step = -1)
      : recorder_(recorder), id_(recorder.Begin(name, parent, step)) {}
  ~ScopedSpan() { recorder_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanRecorder& recorder_;
  int64_t id_;
};

// What one step of a workload did.
struct StepOutcome {
  uint64_t attempted = 0;  // units of work the step tried
  uint64_t completed = 0;  // units that completed and were correct
  // Simulated latency samples (ms) the step produced: one per round for
  // attest_poll, one per unit for the other workloads.
  std::vector<double> sim_latency_ms;
};

struct WorkloadResult {
  std::vector<double> setup_s;
  std::vector<double> step_ms;  // host ms of every timed step
  // The host's speed of the moment, probed after every step and every
  // setup; run.py scales host times by it (benchlib.host_scale).
  std::vector<double> step_probe_ms;
  std::vector<double> setup_probe_ms;
  double timed_s = 0;           // host seconds of the whole timed phase
  uint64_t attempted = 0;
  uint64_t completed = 0;
  // Over the first kMinSteps steps only (deterministic for a seed).
  uint64_t prefix_units = 0;
  std::vector<double> sim_latency_ms;
  // Peak resident memory when the prefix ends (setups included): the
  // program's state grows with the steps it runs, and the prefix is the
  // same work on every host.
  double peak_rss_mb = 0;
  // Named digests (hex) printed for replay comparison, and the oracle's
  // view of the same digests where the workload has an oracle.
  std::map<std::string, std::string> digests;
  std::map<std::string, std::string> oracle_digests;
  // Correctness counters; every one must be zero (run.py gates on them).
  std::map<std::string, uint64_t> checks;
  // Per-layer readings (traced run only).
  std::map<std::string, double> layers;
  // Deterministic obs counters at the end of the prefix (traced run only).
  std::map<std::string, uint64_t> obs;
  std::string obs_digest;
};

// Runs step(i) until at least kMinSteps steps have run and opts.seconds
// of host time have passed; after step kMinSteps - 1 it calls
// at_prefix_end() (snapshot digests and counters there).  Fills step_ms,
// timed_s, attempted/completed, prefix_units and sim_latency_ms.  Returns
// the number of steps run.
int RunTimedPhase(const RunOptions& opts, WorkloadResult& result,
                  const std::function<StepOutcome(int)>& step,
                  const std::function<void()>& at_prefix_end);

// Host ms of a fixed multiply-throughput loop that shares no code with
// the program.  On a shared machine the host's speed swings by tens of
// percent within seconds; the probe measures that swing next to each step.
double ProbeHostMs();

// Runs setup() kSetups times or for kSetupSeconds, whichever is more,
// recording each one's host seconds; the caller keeps the last instance.
void RunSetups(WorkloadResult& result, const std::function<void()>& setup);

std::string Hex64(uint64_t value);
// FNV-1a over a string (obs text dumps, digest vectors).
uint64_t Fnv1a(std::string_view data, uint64_t hash = 0xcbf29ce484222325ull);
double PeakRssMb();

// obs counters of one registry text dump ("counter <name> <value>" lines).
std::map<std::string, uint64_t> ParseObsCounters(const std::string& text);
// Count of a histogram in the same dump ("hist <name> count=<n> ...").
uint64_t ObsHistogramCount(const std::string& text, std::string_view name);

// Median of a copy of the samples (0 for none).
double Median(std::vector<double> samples);

// Host time of quote signing and batched verification, replayed on the
// workload's own TPMs (the crypto.* per-layer rows).
struct QuoteReplay {
  double sign_us = 0;
  double verify_us = 0;
};
// Signs one quote per TPM (Tpm::MakeQuote over keylime::kQuotePcrMask),
// then verifies them through Tpm::VerifyQuoteBatch at the verifier's
// default batch size on prepared AIKs, several passes each; reports the
// median per-quote cost of a pass.
QuoteReplay ReplayQuotes(const std::vector<const bolted::tpm::Tpm*>& tpms,
                         SpanRecorder& spans);

// Everything the result writer needs besides the workload's own result.
std::string RenderResultJson(const RunOptions& opts, const WorkloadResult& r);

int RunAttestPoll(const RunOptions& opts, WorkloadResult& result,
                  SpanRecorder& spans);
int RunTenantChurn(const RunOptions& opts, WorkloadResult& result,
                   SpanRecorder& spans);
int RunRackFabric(const RunOptions& opts, WorkloadResult& result,
                  SpanRecorder& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
