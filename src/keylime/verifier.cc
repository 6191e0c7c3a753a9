#include "src/keylime/verifier.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "src/crypto/ecies.h"
#include "src/keylime/agent.h"
#include "src/net/wire.h"
#include "src/obs/obs.h"
#include "src/sim/offload.h"
#include "src/tpm/tpm.h"

namespace bolted::keylime {
namespace {

// Extracts the quoted value for a PCR from a quote's (mask, values) pair.
const crypto::Digest* QuotedPcr(const tpm::Quote& quote, int pcr) {
  if ((quote.pcr_mask & (1u << pcr)) == 0) {
    return nullptr;
  }
  size_t index = 0;
  for (int i = 0; i < pcr; ++i) {
    if (quote.pcr_mask & (1u << i)) {
      ++index;
    }
  }
  return &quote.pcr_values[index];
}

// Splits an uncompressed SEC1 encoding into coordinates without the curve
// membership check — P256::Prepare performs it exactly once when the
// verifier's per-node cache misses.
std::optional<crypto::EcPoint> ParsePointUnchecked(crypto::ByteView encoded) {
  if (encoded.size() != 65 || encoded[0] != 0x04) {
    return std::nullopt;
  }
  crypto::EcPoint p;
  p.x = crypto::U256::FromBytes(encoded.subspan(1, 32));
  p.y = crypto::U256::FromBytes(encoded.subspan(33, 32));
  return p;
}

// Decodes and prepares an AIK; null when the encoding is not a curve
// point.  A plain function, so the 8 KB key never sits in a coroutine frame.
std::shared_ptr<const crypto::P256::PreparedKey> PrepareAik(crypto::ByteView wire) {
  const auto aik = ParsePointUnchecked(wire);
  auto prepared = aik ? crypto::P256::Instance().Prepare(*aik) : std::nullopt;
  if (!prepared) {
    return nullptr;
  }
  return std::make_shared<const crypto::P256::PreparedKey>(*std::move(prepared));
}

// Decodes a quote onto the heap, where a fleet batch can share it; null
// when malformed.  A plain function, so the decoded quote never sits in a
// coroutine frame.
std::shared_ptr<const tpm::Quote> ParseQuote(crypto::ByteView wire) {
  auto quote = tpm::Quote::Deserialize(wire);
  return quote ? std::make_shared<const tpm::Quote>(*std::move(quote)) : nullptr;
}

constexpr std::string_view kNodeRemoved = "node removed during verification";

}  // namespace

bool IsTransientFailure(std::string_view failure) {
  // Everything else is evidence of a bad node, not a bad network: forged or
  // stale quotes, log mismatches, unwhitelisted measurements, registration
  // problems.
  return failure == "registrar lookup failed" || failure == "agent unreachable" ||
         failure == "payload delivery failed";
}

Verifier::Verifier(sim::Simulation& sim, net::Endpoint& endpoint,
                   net::Address registrar, uint64_t seed)
    : sim_(sim), node_(sim, endpoint), registrar_(registrar), drbg_(seed) {
  node_.Start();
}

void Verifier::AddNode(const std::string& name, NodeConfig config) {
  NodeState state;
  state.config = std::move(config);
  state.incarnation = ++next_incarnation_;
  nodes_[name] = std::move(state);
}

Verifier::NodeState* Verifier::Live(const std::string& name, uint64_t incarnation) {
  const auto it = nodes_.find(name);
  return it != nodes_.end() && it->second.incarnation == incarnation ? &it->second
                                                                    : nullptr;
}

void Verifier::RemoveNode(const std::string& name) { nodes_.erase(name); }

void Verifier::UpdatePeers(const std::string& name, std::vector<net::Address> peers) {
  const auto it = nodes_.find(name);
  if (it != nodes_.end()) {
    it->second.config.peers = std::move(peers);
  }
}

sim::Task Verifier::DeliverPayload(const NodeState& state, const crypto::EcPoint& nk,
                                   bool* ok) {
  *ok = false;
  const crypto::Bytes sealed_v = crypto::EciesSeal(nk, state.config.v_half, drbg_);

  net::Message message;
  message.kind = std::string(kRpcDeliverV);
  message.payload =
      net::WireWriter().Blob(sealed_v).Blob(state.config.sealed_payload).Take();
  net::Message response;
  bool rpc_ok = false;
  co_await node_.Call(state.config.agent, std::move(message), &response, &rpc_ok);
  if (!rpc_ok) {
    co_return;
  }
  net::WireReader reader(response.payload);
  *ok = reader.U32() == 1 && reader.AtEnd();
}

// Plain dispatcher: the traced wrapper (a second coroutine frame) is only
// interposed when a Registry is attached, so untraced runs — and the whole
// BOLTED_OBS=0 build — pay nothing for it.
sim::Task Verifier::VerifyNode(const std::string& name, VerificationResult* result) {
#if BOLTED_OBS
  if (sim_.observer() != nullptr) {
    return VerifyNodeTraced(name, result);
  }
#endif
  return VerifyNodeImpl(name, result);
}

sim::Task Verifier::VerifyNodeTraced(const std::string& name,
                                     VerificationResult* result) {
  obs::Span span(sim_, "keylime.verify", "keylime", "verify:" + name);
  co_await VerifyNodeImpl(name, result);
  if (result->passed) {
    obs::Count(sim_, "keylime.verify_pass");
  } else {
    obs::Count(sim_, "keylime.verify_fail");
    span.AddArg("failure", result->failure);
  }
  span.End();
}

void Verifier::InvalidateKeyCache(const std::string& name) {
  const auto it = nodes_.find(name);
  if (it == nodes_.end()) {
    return;
  }
  it->second.aik_prepared.reset();
  it->second.aik_wire.clear();
  it->second.nk_decoded.reset();
  it->second.nk_wire.clear();
}

const Verifier::BootReplay* Verifier::ReplayBootLog(const crypto::Bytes& wire) {
  const crypto::Digest key = crypto::Sha256::Hash(wire);
  const auto it = boot_log_cache_.find(key);
  if (it != boot_log_cache_.end()) {
    ++boot_log_cache_hits_;
    return &it->second;
  }
  auto decoded = tpm::EventLog::Deserialize(wire);
  if (!decoded.has_value()) {
    return nullptr;  // malformed logs are not cached (they carry no replay)
  }
  BootReplay replay;
  replay.log = std::move(*decoded);
  for (const tpm::MeasurementEvent& event : replay.log.events()) {
    auto& pcr = replay.pcrs[static_cast<size_t>(event.pcr_index)];
    pcr = tpm::ExtendDigest(pcr, event.measurement);
  }
  ++boot_log_cache_misses_;
  obs::Count(sim_, "keylime.boot_log_cache_miss");
  return &boot_log_cache_.emplace(key, std::move(replay)).first->second;
}

sim::Task Verifier::VerifyNodeImpl(const std::string& name,
                                   VerificationResult* result) {
  result->passed = false;
  const auto it = nodes_.find(name);
  if (it == nodes_.end()) {
    result->failure = "unknown node";
    co_return;
  }
  const uint64_t incarnation = it->second.incarnation;
  ++verifications_;

  QuoteExchange exchange;
  co_await FetchQuote(name, incarnation, &exchange);
  if (!exchange.failure.empty()) {
    result->failure = std::move(exchange.failure);
    co_return;
  }
  // 3a (signature): the single-node path verifies inline; VerifyFleet
  // replaces exactly this step with the batched multi-scalar check.
  const bool signature_ok = tpm::Tpm::VerifyQuote(*exchange.quote, *exchange.aik);
  co_await FinishVerification(name, incarnation, exchange, signature_ok, result);
}

sim::Task Verifier::FetchQuote(const std::string& name, uint64_t incarnation,
                               QuoteExchange* out) {
  // 1. Certified keys from the registrar.
  net::Message key_request;
  key_request.kind = std::string(kRpcGetKeys);
  key_request.payload = net::WireWriter().Str(name).Take();
  net::Message key_response;
  bool rpc_ok = false;
  co_await node_.CallWithRetry(registrar_, std::move(key_request), &key_response,
                               &rpc_ok, call_options_);
  if (!rpc_ok || key_response.kind == "kl.reg.error") {
    out->failure = "registrar lookup failed";
    co_return;
  }
  net::WireReader key_reader(key_response.payload);
  key_reader.Blob();  // EK (checked by the tenant against HIL metadata)
  const crypto::Bytes aik_wire = key_reader.Blob();
  const crypto::Bytes nk_wire = key_reader.Blob();
  const bool activated = key_reader.U32() == 1;
  if (!key_reader.AtEnd()) {
    out->failure = "malformed registrar response";
    co_return;
  }
  // Each check below that needs the node's state re-finds it first: the
  // node may have been removed while this flow was suspended.
  NodeState* state = Live(name, incarnation);
  if (state == nullptr) {
    out->failure = kNodeRemoved;
    co_return;
  }
  // Decode + curve-check + table build happen once per distinct wire
  // encoding; steady-state polling reuses the prepared AIK.
  if (state->aik_prepared == nullptr || state->aik_wire != aik_wire) {
    state->aik_prepared = PrepareAik(aik_wire);
    state->aik_wire = aik_wire;
    ++aik_cache_misses_;
    obs::Count(sim_, "keylime.aik_cache_miss");
  } else {
    ++aik_cache_hits_;
    obs::Count(sim_, "keylime.aik_cache_hit");
  }
  if (!state->nk_decoded.has_value() || state->nk_wire != nk_wire) {
    state->nk_decoded = crypto::EcPoint::Decode(nk_wire);
    state->nk_wire = nk_wire;
  }
  if (state->aik_prepared == nullptr || !state->nk_decoded.has_value()) {
    out->failure = "malformed registrar response";
    co_return;
  }
  // The exchange keeps the keys it was fetched with: a re-registration
  // later in the round replaces the cache entry, never these.
  out->aik = state->aik_prepared;
  out->nk = *state->nk_decoded;
  if (!activated) {
    out->failure = "AIK not activated";
    co_return;
  }

  // 2. Fresh nonce, quote request.  The request carries the incremental
  // cursor so the agent only ships new IMA measurements.
  out->nonce = drbg_.Generate(20);
  net::Message quote_request;
  quote_request.kind = std::string(kRpcQuote);
  quote_request.payload = net::WireWriter()
                              .Blob(out->nonce)
                              .U32(kQuotePcrMask)
                              .U64(state->ima_seen)
                              .Take();
  net::Message quote_response;
  co_await node_.CallWithRetry(state->config.agent, std::move(quote_request),
                               &quote_response, &rpc_ok, call_options_);
  if (!rpc_ok || quote_response.kind == "kl.agent.error") {
    out->failure = "agent unreachable";
    co_return;
  }
  net::WireReader reader(quote_response.payload);
  out->quote = ParseQuote(reader.Blob());
  out->boot = ReplayBootLog(reader.Blob());
  out->ima_total = reader.U64();
  out->ima_log = tpm::EventLog::Deserialize(reader.Blob());
  if (!reader.AtEnd() || !out->quote || out->boot == nullptr || !out->ima_log) {
    out->failure = "malformed quote response";
    co_return;
  }
  if (out->boot->log.events().empty()) {
    // A freshly power-cycled TPM has all-zero PCRs, and an empty boot log
    // replays to exactly those values — so without this check a crashed,
    // unbooted machine would sail through replay and (vacuously) through
    // the whitelist.  A measured boot always logs at least the firmware.
    out->failure = "empty boot event log";
    co_return;
  }
  state = Live(name, incarnation);
  if (state == nullptr) {
    out->failure = kNodeRemoved;
    co_return;
  }
  if (out->ima_total < state->ima_seen) {
    // The measurement list can only grow within one boot; a shrink means
    // the node rebooted out from under continuous attestation.
    out->failure = "IMA measurement list regressed (unexpected reboot?)";
    co_return;
  }
  if (out->ima_log->size() != out->ima_total - state->ima_seen) {
    out->failure = "IMA delta is inconsistent with the advertised total";
    co_return;
  }
}

sim::Task Verifier::FinishVerification(const std::string& name, uint64_t incarnation,
                                       QuoteExchange& ex, bool signature_ok,
                                       VerificationResult* result) {
  // 3a. Signature (verdict computed by the caller — inline single verify
  // or the batched multi-scalar check) and freshness.
  const tpm::Quote& quote = *ex.quote;
  if (!signature_ok) {
    result->failure = "quote signature invalid";
    co_return;
  }
  if (quote.nonce != ex.nonce) {
    result->failure = "stale quote (nonce mismatch)";
    co_return;
  }
  if (quote.pcr_mask != kQuotePcrMask) {
    result->failure = "wrong PCR selection";
    co_return;
  }

  // 3b. Log replay must reproduce the quoted PCR values exactly.  The
  // boot-log replay comes precomputed from the golden-log cache; the IMA
  // PCR continues from the validated prefix's value.
  NodeState* state = Live(name, incarnation);
  if (state == nullptr) {
    result->failure = kNodeRemoved;
    co_return;
  }
  std::array<crypto::Digest, tpm::kNumPcrs> replayed = ex.boot->pcrs;
  crypto::Digest ima_pcr = state->ima_pcr;
  for (const tpm::MeasurementEvent& event : ex.ima_log->events()) {
    if (event.pcr_index != tpm::kPcrIma) {
      result->failure = "IMA delta contains a non-IMA event";
      co_return;
    }
    ima_pcr = tpm::ExtendDigest(ima_pcr, event.measurement);
  }
  replayed[static_cast<size_t>(tpm::kPcrIma)] = ima_pcr;
  for (int pcr = 0; pcr < tpm::kNumPcrs; ++pcr) {
    const crypto::Digest* quoted = QuotedPcr(quote, pcr);
    if (quoted != nullptr && *quoted != replayed[static_cast<size_t>(pcr)]) {
      result->failure = "event log does not match quoted PCR " + std::to_string(pcr);
      co_return;
    }
  }

  // 3c. Whitelist checks.
  if (state->config.whitelist == nullptr) {
    result->failure = "no whitelist configured";
    co_return;
  }
  for (const tpm::MeasurementEvent& event : ex.boot->log.events()) {
    if (!state->config.whitelist->boot.contains(event.measurement)) {
      result->failure = "unwhitelisted boot measurement: " + event.description;
      co_return;
    }
  }
  for (const tpm::MeasurementEvent& event : ex.ima_log->events()) {
    if (!state->config.whitelist->runtime.contains(event.measurement)) {
      result->failure = "unwhitelisted runtime file: " + event.description;
      co_return;
    }
  }

  // 4. Bootstrap delivery on first success.
  if (!state->payload_delivered && !state->config.v_half.empty()) {
    bool delivered = false;
    co_await DeliverPayload(*state, ex.nk, &delivered);
    state = Live(name, incarnation);
    if (state == nullptr) {
      result->failure = kNodeRemoved;
      co_return;
    }
    if (!delivered) {
      result->failure = "payload delivery failed";
      co_return;
    }
    state->payload_delivered = true;
  }
  // Commit the incremental cursor only after full success so a failed
  // verification never advances past unvalidated measurements.
  state->ima_seen = ex.ima_total;
  state->ima_pcr = ima_pcr;
  result->passed = true;
}

// One sealed batch of a fleet round, run as one offload job: the quotes
// and keys it checks (shared with their exchanges, so a round torn down
// mid-flight leaves the batch whole) and the verdicts and stats written
// by whichever thread runs it.
struct Verifier::FleetBatch final : sim::OffloadQueue::Job {
  void Run() override {
    std::vector<tpm::Tpm::QuoteBatchEntry> entries(quotes.size());
    for (size_t i = 0; i < quotes.size(); ++i) {
      entries[i] = {quotes[i].get(), aiks[i].get()};
    }
    ok.reset(new bool[quotes.size()]);
    tpm::Tpm::VerifyQuoteBatch(entries, ok.get(), &stats);
  }

  std::vector<std::shared_ptr<const tpm::Quote>> quotes;
  std::vector<std::shared_ptr<const crypto::P256::PreparedKey>> aiks;
  std::vector<size_t> exchange_of;  // batch position -> exchange index
  std::unique_ptr<bool[]> ok;       // batch position -> signature verdict
  crypto::P256::BatchStats stats{};
};

// One fleet round's batches (DESIGN.md §11).  The simulation thread
// appends every landed quote to the open batch and submits the batch to
// the offload queue when it is full; at the join it submits the partial
// batch and waits on every batch.  Batch membership is fixed by
// landing order and batch_size alone, never by which thread verifies it.
struct Verifier::FleetRound {
  FleetRound(sim::OffloadQueue& queue, size_t batch_size)
      : queue(queue), batch_size(batch_size) {}

  void Land(size_t index, const QuoteExchange& ex) {
    if (open == nullptr) {
      open = std::make_shared<FleetBatch>();
    }
    open->quotes.push_back(ex.quote);
    open->aiks.push_back(ex.aik);
    open->exchange_of.push_back(index);
    ++landed;
    if (open->quotes.size() == batch_size) {
      Seal();
    }
  }
  void Seal() {
    queue.Submit(open);
    sealed.push_back(std::move(open));
    open = nullptr;
  }

  sim::OffloadQueue& queue;
  const size_t batch_size;
  std::shared_ptr<FleetBatch> open;
  std::vector<std::shared_ptr<FleetBatch>> sealed;  // submission order
  size_t landed = 0;
};

sim::Task Verifier::FetchIntoRound(const std::string& name, uint64_t incarnation,
                                   QuoteExchange* out, FleetRound* round,
                                   size_t index) {
  co_await FetchQuote(name, incarnation, out);
  if (out->failure.empty()) {
    round->Land(index, *out);
  }
}

void Verifier::JoinRound(FleetRound& round) {
  if (round.open != nullptr) {
    round.Seal();
  }
  // Last batch first: queue threads take batches from the front, so the
  // simulation thread runs the ones no thread has reached yet instead of
  // blocking behind them.  Which thread verifies a batch changes nothing
  // observable; the bookkeeping below stays in batch order.
  for (auto it = round.sealed.rbegin(); it != round.sealed.rend(); ++it) {
    const std::shared_ptr<FleetBatch>& batch = *it;
    const auto wait_start = std::chrono::steady_clock::now();
    if (round.queue.Wait(*batch)) {
      ++fleet_batches_drained_;
      continue;
    }
    ++fleet_batches_offloaded_;
    fleet_join_wait_ns_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wait_start)
            .count());
  }

  // Bookkeeping in batch order, on the simulation thread (obs must not be
  // touched from the queue threads).
  batched_verifications_ += round.landed;
  obs::Record(sim_, "keylime.shard_quotes", round.landed);
  uint32_t bisections = 0;
  for (const std::shared_ptr<FleetBatch>& batch : round.sealed) {
    const crypto::P256::BatchStats& stats = batch->stats;
    bisections += stats.bisections;
    batch_stats_.bisections += stats.bisections;
    batch_stats_.sqrt_recoveries += stats.sqrt_recoveries;
    batch_stats_.rejected_hints += stats.rejected_hints;
    obs::Record(sim_, "keylime.batch_size", batch->quotes.size());
  }
  if (bisections != 0) {
    obs::Count(sim_, "keylime.batch_bisections", bisections);
  }
}

sim::Task Verifier::VerifyFleet(std::span<const std::string> names,
                                VerificationResult* results) {
  const size_t n = names.size();
  const size_t batch_size =
      static_cast<size_t>(std::max(1, fleet_options_.batch_size));
  std::vector<QuoteExchange> exchanges(n);
  std::vector<uint64_t> incarnations(n, 0);
  FleetRound round(sim_.offload(), batch_size);

  sim::TaskGroup group(sim_);
  for (size_t i = 0; i < n; ++i) {
    results[i] = VerificationResult{};
    const auto it = nodes_.find(names[i]);
    if (it == nodes_.end()) {
      exchanges[i].failure = "unknown node";
      continue;
    }
    incarnations[i] = it->second.incarnation;
    ++verifications_;
    group.Spawn(FetchIntoRound(names[i], incarnations[i], &exchanges[i], &round, i));
  }
  co_await group.WaitAll();

  // Host CPU only: the join schedules no sim event, so neither the batch
  // size nor the queue's thread count can perturb the event sequence.
  JoinRound(round);
  std::vector<uint8_t> signature_ok(n, 0);
  for (const std::shared_ptr<FleetBatch>& batch : round.sealed) {
    for (size_t p = 0; p < batch->exchange_of.size(); ++p) {
      signature_ok[batch->exchange_of[p]] = batch->ok[p] ? 1 : 0;
    }
  }

  // Verdicts in submission order; each node's post-signature pipeline
  // runs exactly as the single-node path would.
  for (size_t i = 0; i < n; ++i) {
    if (!exchanges[i].failure.empty()) {
      results[i].failure = std::move(exchanges[i].failure);
      continue;
    }
    co_await FinishVerification(names[i], incarnations[i], exchanges[i],
                                signature_ok[i] != 0, &results[i]);
  }
}

void Verifier::StartContinuous(const std::string& name, sim::Duration interval) {
  const auto it = nodes_.find(name);
  if (it == nodes_.end()) {
    return;
  }
  it->second.continuous = true;
  sim_.Spawn(ContinuousLoop(name, interval, it->second.incarnation,
                            it->second.generation));
}

void Verifier::StopContinuous(const std::string& name) {
  const auto it = nodes_.find(name);
  if (it != nodes_.end()) {
    it->second.continuous = false;
    ++it->second.generation;
  }
}

sim::Task Verifier::ContinuousLoop(std::string name, sim::Duration interval,
                                   uint64_t incarnation, uint64_t generation) {
  sim::Duration wait = interval;
  for (;;) {
    co_await sim::Delay(sim_, wait);
    const NodeState* state = Live(name, incarnation);
    if (state == nullptr || !state->continuous || state->generation != generation) {
      co_return;
    }
    VerificationResult result;
    co_await VerifyNode(name, &result);
    // VerifyNode suspends, so re-check that this loop still owns the node
    // before acting on the verdict.
    NodeState* after = Live(name, incarnation);
    if (after == nullptr || !after->continuous || after->generation != generation) {
      co_return;
    }
    if (result.passed) {
      after->transient_strikes = 0;
      wait = interval;
      continue;
    }
    if (IsTransientFailure(result.failure) &&
        ++after->transient_strikes < max_transient_strikes_) {
      // Escalation ladder: a quote timeout earns a fast re-poll (the node
      // may be mid-reboot or behind a flapping link), not an instant
      // quarantine.  Strikes accumulate until a pass resets them.
      ++transient_retries_;
      obs::Count(sim_, "keylime.transient_retries");
      wait = interval.Scaled(0.25);
      continue;
    }
    ++violations_;
    obs::Count(sim_, "keylime.violations");
    obs::Instant(sim_, "keylime.violation", "keylime", "verify:" + name,
                 {{"node", name}, {"reason", result.failure}});
    co_await Revoke(name);
    if (violation_callback_) {
      violation_callback_(name, result.failure);
    }
    co_return;
  }
}

sim::Task Verifier::Revoke(const std::string& name) {
  const auto it = nodes_.find(name);
  if (it == nodes_.end()) {
    co_return;
  }
  const net::Address bad = it->second.config.agent;
  // Notify every enclave peer concurrently; each drops the bad node's SA.
  sim::TaskGroup group(sim_);
  for (const net::Address peer : it->second.config.peers) {
    if (peer != bad) {
      group.Spawn(NotifyRevocation(peer, bad));
    }
  }
  co_await group.WaitAll();
}

sim::Task Verifier::NotifyRevocation(net::Address peer, net::Address bad) {
  net::Message message;
  message.kind = std::string(kRpcRevoke);
  message.payload = net::WireWriter().U32(bad).Take();
  net::Message response;
  bool ok = false;
  co_await node_.Call(peer, std::move(message), &response, &ok,
                      sim::Duration::Seconds(5));
}

}  // namespace bolted::keylime
