#include "perfbench/src/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "src/crypto/cpu.h"
#include "src/crypto/p256.h"
#include "src/keylime/agent.h"
#include "src/keylime/verifier.h"
#include "src/obs/obs.h"
#include "src/tpm/tpm.h"

namespace perfbench {
namespace {

// Hard stop for one run's timed phase: the prefix must finish even on a
// slow host, but a run that cannot finish it in this long is broken.
constexpr double kTimedPhaseCapSeconds = 140;

void AppendJsonString(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

void AppendDouble(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

void AppendU64(std::string& out, uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  out += buf;
}

void AppendDoubles(std::string& out, const std::vector<double>& values) {
  out += '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    AppendDouble(out, values[i]);
  }
  out += ']';
}

template <typename Map, typename AppendValue>
void AppendObject(std::string& out, const Map& map, AppendValue append_value) {
  out += '{';
  bool first = true;
  for (const auto& [key, value] : map) {
    if (!first) {
      out += ',';
    }
    first = false;
    AppendJsonString(out, key);
    out += ':';
    append_value(out, value);
  }
  out += '}';
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

// Everything that decides whether two results may be compared: the same
// program on a different host, or a different build of it, is not a
// regression or a gain.
std::map<std::string, std::string> Fingerprint() {
  namespace cpu = bolted::crypto::cpu;
  const cpu::Features& f = cpu::Detect();
  std::string features;
  for (const auto& [name, on] :
       {std::pair{"aesni", f.aesni}, std::pair{"pclmul", f.pclmul},
        std::pair{"shani", f.shani}, std::pair{"avx2", f.avx2}}) {
    if (on) {
      features += features.empty() ? "" : ",";
      features += name;
    }
  }
  return {
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", CpuModel()},
      {"crypto_features", features.empty() ? "none" : features},
      {"force_scalar", cpu::ForceScalarEnabled() ? "1" : "0"},
      {"compiler", "g++ " __VERSION__},
      {"build_type", PERFBENCH_BUILD_TYPE},
#if BOLTED_OBS
      {"bolted_obs", "ON"},
#else
      {"bolted_obs", "OFF"},
#endif
  };
}

}  // namespace

double ProbeHostMs() {
  // Eight independent 64x64->128 multiply chains: the port pressure of
  // P-256 field arithmetic, and the resource a neighbour on a shared core
  // takes away first.
  const auto start = Clock::now();
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ull;
  uint64_t acc[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (int i = 0; i < 500000; ++i) {
    for (uint64_t& a : acc) {
      const unsigned __int128 p = static_cast<unsigned __int128>(a) * kMul;
      a = static_cast<uint64_t>(p) + static_cast<uint64_t>(p >> 64);
    }
  }
  static volatile uint64_t sink = 0;
  sink = sink + (acc[0] ^ acc[7]);
  return SecondsSince(start) * 1e3;
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(Clock::now()) {}

int64_t SpanRecorder::Begin(std::string_view name, int64_t parent, int64_t step) {
  if (!enabled_) {
    return -1;
  }
  const double now_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  spans_.push_back(Span{std::string(name), now_us, now_us, parent, step});
  return static_cast<int64_t>(spans_.size() - 1);
}

void SpanRecorder::End(int64_t id) {
  if (id < 0) {
    return;
  }
  spans_[static_cast<size_t>(id)].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
}

std::string SpanRecorder::ChromeTraceJson() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) {
      out += ",\n";
    }
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":\"perfbench\",\"name\":";
    AppendJsonString(out, s.name);
    out += ",\"ts\":";
    AppendDouble(out, s.start_us);
    out += ",\"dur\":";
    AppendDouble(out, s.end_us - s.start_us);
    out += ",\"args\":{\"id\":";
    out += std::to_string(i);
    out += ",\"parent\":";
    out += std::to_string(s.parent);
    out += ",\"step\":";
    out += std::to_string(s.step);
    out += "}}";
  }
  out += "]}\n";
  return out;
}

int RunTimedPhase(const RunOptions& opts, WorkloadResult& result,
                  const std::function<StepOutcome(int)>& step,
                  const std::function<void()>& at_prefix_end) {
  const auto start = Clock::now();
  int steps = 0;
  while (steps < kMinSteps || SecondsSince(start) < opts.seconds) {
    if (SecondsSince(start) > kTimedPhaseCapSeconds) {
      std::fprintf(stderr, "timed phase passed %.0f s after %d steps\n",
                   kTimedPhaseCapSeconds, steps);
      ++result.checks["timed_phase_overrun"];
      break;
    }
    const auto step_start = Clock::now();
    StepOutcome outcome = step(steps);
    result.step_ms.push_back(SecondsSince(step_start) * 1e3);
    result.step_probe_ms.push_back(ProbeHostMs());
    result.attempted += outcome.attempted;
    result.completed += outcome.completed;
    if (steps < kMinSteps) {
      result.prefix_units += outcome.completed;
      result.sim_latency_ms.insert(result.sim_latency_ms.end(),
                                   outcome.sim_latency_ms.begin(),
                                   outcome.sim_latency_ms.end());
    }
    ++steps;
    if (steps == kMinSteps) {
      // Host time spent snapshotting is not the program's; keep it out of
      // the timed phase.
      const auto pause = Clock::now();
      at_prefix_end();
      result.peak_rss_mb = PeakRssMb();
      result.timed_s -= SecondsSince(pause);
    }
  }
  result.timed_s += SecondsSince(start);
  return steps;
}

void RunSetups(WorkloadResult& result, const std::function<void()>& setup) {
  double total = 0;
  while (result.setup_s.size() < kSetups || total < kSetupSeconds) {
    const auto start = Clock::now();
    setup();
    result.setup_s.push_back(SecondsSince(start));
    total += result.setup_s.back();
    result.setup_probe_ms.push_back(ProbeHostMs());
  }
}

std::string Hex64(uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

uint64_t Fnv1a(std::string_view data, uint64_t hash) {
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::map<std::string, uint64_t> ParseObsCounters(const std::string& text) {
  std::map<std::string, uint64_t> counters;
  std::istringstream in(text);
  std::string kind;
  std::string name;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    uint64_t value = 0;
    if (fields >> kind >> name >> value && kind == "counter") {
      counters[name] = value;
    }
  }
  return counters;
}

uint64_t ObsHistogramCount(const std::string& text, std::string_view name) {
  const std::string prefix = "hist " + std::string(name) + " count=";
  const size_t at = text.find(prefix);
  if (at == std::string::npos) {
    return 0;
  }
  return std::strtoull(text.c_str() + at + prefix.size(), nullptr, 10);
}

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

QuoteReplay ReplayQuotes(const std::vector<const bolted::tpm::Tpm*>& tpms,
                         SpanRecorder& spans) {
  using bolted::tpm::Quote;
  using bolted::tpm::Tpm;
  constexpr int kPasses = 5;
  QuoteReplay replay;
  if (tpms.empty()) {
    return replay;
  }
  const bolted::crypto::P256& curve = bolted::crypto::P256::Instance();
  std::vector<bolted::crypto::P256::PreparedKey> keys;
  keys.reserve(tpms.size());
  for (const Tpm* tpm : tpms) {
    keys.push_back(*curve.Prepare(tpm->aik_public()));
  }
  const size_t batch =
      static_cast<size_t>(bolted::keylime::Verifier::FleetOptions{}.batch_size);
  std::vector<double> sign_us;
  std::vector<double> verify_us;
  std::vector<Quote> quotes(tpms.size());
  std::vector<Tpm::QuoteBatchEntry> entries(tpms.size());
  const std::unique_ptr<bool[]> ok(new bool[batch]);
  const double n = static_cast<double>(tpms.size());
  for (int pass = 0; pass < kPasses; ++pass) {
    {
      ScopedSpan span(spans, "tpm.MakeQuote");
      const auto start = Clock::now();
      for (size_t i = 0; i < tpms.size(); ++i) {
        const bolted::crypto::Bytes nonce(20, static_cast<uint8_t>(pass + i));
        quotes[i] = tpms[i]->MakeQuote(nonce, bolted::keylime::kQuotePcrMask);
        entries[i] = Tpm::QuoteBatchEntry{&quotes[i], &keys[i]};
      }
      sign_us.push_back(SecondsSince(start) * 1e6 / n);
    }
    ScopedSpan span(spans, "tpm.VerifyQuoteBatch");
    const auto start = Clock::now();
    for (size_t at = 0; at < entries.size(); at += batch) {
      const size_t len = std::min(batch, entries.size() - at);
      if (!Tpm::VerifyQuoteBatch({entries.data() + at, len}, ok.get())) {
        std::fprintf(stderr, "replayed quote batch failed to verify\n");
        std::abort();
      }
    }
    verify_us.push_back(SecondsSince(start) * 1e6 / n);
  }
  replay.sign_us = Median(sign_us);
  replay.verify_us = Median(verify_us);
  return replay;
}

std::string RenderResultJson(const RunOptions& opts, const WorkloadResult& r) {
  std::string out = "{\"workload\":";
  AppendJsonString(out, opts.workload);
  out += ",\"seed\":";
  AppendU64(out, opts.seed);
  out += ",\"traced\":";
  out += opts.traced ? "true" : "false";
  out += ",\"min_steps\":";
  out += std::to_string(kMinSteps);
  out += ",\"fingerprint\":";
  AppendObject(out, Fingerprint(), [](std::string& o, const std::string& v) {
    AppendJsonString(o, v);
  });
  out += ",\"setup_s\":";
  AppendDoubles(out, r.setup_s);
  out += ",\"step_ms\":";
  AppendDoubles(out, r.step_ms);
  out += ",\"step_probe_ms\":";
  AppendDoubles(out, r.step_probe_ms);
  out += ",\"setup_probe_ms\":";
  AppendDoubles(out, r.setup_probe_ms);
  out += ",\"timed_s\":";
  AppendDouble(out, r.timed_s);
  out += ",\"attempted\":";
  AppendU64(out, r.attempted);
  out += ",\"completed\":";
  AppendU64(out, r.completed);
  out += ",\"prefix_units\":";
  AppendU64(out, r.prefix_units);
  out += ",\"sim_latency_ms\":";
  AppendDoubles(out, r.sim_latency_ms);
  out += ",\"peak_rss_mb\":";
  AppendDouble(out, r.peak_rss_mb);
  const auto append_string = [](std::string& o, const std::string& v) {
    AppendJsonString(o, v);
  };
  const auto append_u64 = [](std::string& o, uint64_t v) { AppendU64(o, v); };
  out += ",\"digests\":";
  AppendObject(out, r.digests, append_string);
  out += ",\"oracle_digests\":";
  AppendObject(out, r.oracle_digests, append_string);
  out += ",\"checks\":";
  AppendObject(out, r.checks, append_u64);
  out += ",\"layers\":";
  AppendObject(out, r.layers, [](std::string& o, double v) { AppendDouble(o, v); });
  out += ",\"obs\":";
  AppendObject(out, r.obs, append_u64);
  out += ",\"obs_digest\":";
  AppendJsonString(out, r.obs_digest);
  out += "}";
  return out;
}

}  // namespace perfbench
