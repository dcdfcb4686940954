// round_bench: full Pi_Bin rounds from wire bytes through the public API.
//
// Set-up (repeated kSetups times; setup_s is the median) generates the
// workload's client uploads from --seed, serializes them, computes the
// per-proof oracle verdict, spawns the verify_server fleet when the workload
// has one, and runs one untimed warm-up round. Then, for --seconds, a single
// caller runs closed-loop rounds -- the next round starts when the previous
// verdict is out -- each one:
//
//   ClientUploadMsg::Deserialize on every upload's bytes
//   -> PublicVerifier::ValidateClientsReport (the backend the config selects)
//   -> ClientShareConsistent + Prover::LoadClientShares
//   -> per prover: CommitCoins -> CheckCoinProofs -> RunProverMorra
//      -> ReceivePublicCoins + ComputeOutput -> CheckFinalWithProducts
//
// Every round is checked against the oracle (accepted set bit for bit,
// planted uploads rejected with the right cause, histogram bins inside
// [true count, true count + K*nb], and on the fleet workload every shard
// verified by a server with no in-process recovery and no auth failure); a
// round that misses any check, or throws, is failed.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced rounds: in a traced round a TraceCollector goes into
// VerifyOptions, every call above is wrapped in a span under one "round"
// span, and the per-layer metrics (medians over traced rounds) come from
// those rounds. The last stdout line is the result object; the line before
// it is the run header. A vdp.runlog/v1 log (rounds, metrics, spans) is
// written to --workdir at exit.
//
// Usage: round_bench --workload ingest|noise|fleet --seed N --seconds S
//                    --trace 0|1 --workdir DIR
//                    [--plant none|prover-output|drop-rejection|fleet-fault]
//
// --plant is the positive control of the correctness check: prover-output
// corrupts prover 0's y[0] after ComputeOutput; drop-rejection removes one
// planted OR-proof rejection from the expectation; fleet-fault spawns the
// fleet with every server answering tasks with garbage, so shards fall back
// to in-process verification with an unchanged verdict. Each must make
// rounds fail.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/hex.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/core/protocol.h"
#include "src/net/server_process.h"
#include "src/obs/metrics.h"
#include "src/obs/runlog.h"
#include "src/obs/trace.h"

namespace {

using vdp::Bytes;
using vdp::Stopwatch;
namespace obs = vdp::obs;

struct WorkloadSpec {
  const char* name;
  const char* group;
  size_t n;
  size_t provers;
  size_t bins;
  double epsilon;
  size_t uploads_per_shard;  // in-process sharding; 0 = remote fleet
  size_t bad_encodings;      // extra uploads whose commitment decode refuses
  size_t bad_proofs;         // uploads with a tampered OR proof
};

// ingest: a counting query at large n with little noise, so decode,
//   structure, RLC and the per-proof fallback do nearly all the work.
// noise: a high-privacy release (nb = 6225) where coin proofs, Morra and the
//   Eq. 10 check dominate; ingest changes should leave it flat.
// fleet: the deployment path -- 8-bin one-hot uploads from two provers
//   (MPC model), validated by a loopback verify_server fleet.
constexpr WorkloadSpec kWorkloads[] = {
    {"ingest", "modp-256", 16384, 1, 1, 4.0, 1024, 4, 4},
    {"noise", "modp-512", 1024, 1, 1, 0.35, 256, 0, 0},
    {"fleet", "modp-256", 2048, 2, 8, 2.0, 0, 0, 0},
};

enum class Plant { kNone, kProverOutput, kDropRejection, kFleetFault };

// Set-ups per run; setup_s is their median.
constexpr size_t kSetups = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  Plant plant = Plant::kNone;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr, "round_bench: %s\n", why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--plant") {
      if (value == "none") {
        args.plant = Plant::kNone;
      } else if (value == "prover-output") {
        args.plant = Plant::kProverOutput;
      } else if (value == "drop-rejection") {
        args.plant = Plant::kDropRejection;
      } else if (value == "fleet-fault") {
        args.plant = Plant::kFleetFault;
      } else {
        Usage("unknown --plant " + value);
      }
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.workdir.empty()) {
    Usage("--workdir is required");
  }
  return args;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

// Shortest round-trip decimal, so reported values keep all their digits.
std::string Num(double value) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

// Encoding of p - 1: in range (0, p) but of order 2, so outside the order-q
// subgroup that ModPGroup::Decode admits.
template <class G>
struct OrderTwoEncoding;
template <size_t L, const vdp::ModPParams<L>& (*Params)()>
struct OrderTwoEncoding<vdp::ModPGroup<L, Params>> {
  static Bytes Get() {
    Bytes b = Params().p.ToBytesBe();
    b.back() -= 1;  // p is odd, so no borrow
    return b;
  }
};

// Loopback verify_server fleet keyed from a file under the work directory:
// net::LoopbackFleet would put its key file in /tmp, outside the checkout
// the benchmark may write to. The servers exit and are reaped, and the key
// file removed, when this object goes.
class Fleet {
 public:
  Fleet(size_t n, const std::string& key_file, const std::string& key_hex,
        const std::string& fault)
      : key_file_(key_file), key_hex_(key_hex) {
    FILE* f = std::fopen(key_file.c_str(), "w");
    const bool written = f != nullptr && std::fprintf(f, "%s\n", key_hex.c_str()) >= 0;
    if (f == nullptr || std::fclose(f) != 0 || !written) {
      unlink(key_file.c_str());
      throw std::runtime_error("cannot write " + key_file);
    }
    for (size_t i = 0; i < n; ++i) {
      vdp::net::SpawnServerOptions options;
      options.auth_key_file = key_file;
      options.server_id = i;
      options.fault = fault;
      auto server = vdp::net::SpawnVerifyServer(options);
      if (!server.has_value()) {
        Stop();  // a throwing constructor skips the destructor
        throw std::runtime_error("could not spawn verify_server " + std::to_string(i));
      }
      servers_.push_back(std::move(*server));
    }
  }
  ~Fleet() { Stop(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  void ApplyTo(vdp::ProtocolConfig* config) const {
    config->remote_verifiers.clear();
    for (const vdp::net::ServerProcess& server : servers_) {
      config->remote_verifiers.push_back(server.endpoint);
    }
    config->remote_auth_key_hex = key_hex_;
  }

 private:
  void Stop() {
    for (vdp::net::ServerProcess& server : servers_) {
      vdp::net::DestroyServer(&server);
    }
    servers_.clear();
    unlink(key_file_.c_str());
  }

  std::vector<vdp::net::ServerProcess> servers_;
  std::string key_file_;
  std::string key_hex_;
};

// Everything set-up produces for the rounds: the wire bytes, the provers'
// private shares, and the oracle's expected outcome.
template <class G>
struct Fixture {
  vdp::ProtocolConfig config;
  vdp::Pedersen<G> ped;
  std::vector<Bytes> wire;  // arrival order, planted decode refusals included
  std::vector<size_t> expected_refused;                       // wire positions
  std::vector<std::vector<vdp::ClientShareMsg<G>>> shares;    // [decoded i][k]
  std::vector<size_t> expected_accepted;                      // decoded indices
  std::vector<std::pair<size_t, vdp::RejectCode>> expected_rejected;
  std::vector<uint64_t> true_counts;  // [bin], over expected_accepted
  std::vector<double> client_ms;      // per MakeClientBundle call
  double upload_bytes = 0;            // mean serialized size
};

std::string Label(uint64_t seed, const std::string& what) {
  return "roundbench/" + std::to_string(seed) + "/" + what;
}

template <class G>
std::unique_ptr<Fixture<G>> BuildFixture(const WorkloadSpec& spec, size_t n, uint64_t seed,
                                         const vdp::ProtocolConfig& config, Plant plant,
                                         vdp::ThreadPool* pool) {
  using S = typename G::Scalar;
  auto fx = std::make_unique<Fixture<G>>();
  fx->config = config;

  vdp::SecureRng layout_rng(Label(seed, "layout"));
  std::vector<uint32_t> choices(n);
  for (uint32_t& c : choices) {
    c = static_cast<uint32_t>(layout_rng.UniformBelow(std::max<size_t>(2, spec.bins)));
  }
  // Tampered proofs land in distinct shards, so each pays its own fallback.
  std::vector<size_t> tampered;
  const size_t shard = spec.uploads_per_shard > 0 ? spec.uploads_per_shard : n;
  while (tampered.size() < std::min(spec.bad_proofs, (n + shard - 1) / shard)) {
    const size_t i = layout_rng.UniformBelow(n);
    if (std::none_of(tampered.begin(), tampered.end(),
                     [&](size_t t) { return t / shard == i / shard; })) {
      tampered.push_back(i);
    }
  }
  std::sort(tampered.begin(), tampered.end());
  std::vector<size_t> refuse_before;  // decoded index each bad blob precedes
  while (refuse_before.size() < std::min(spec.bad_encodings, n)) {
    const size_t i = layout_rng.UniformBelow(n);
    if (std::find(refuse_before.begin(), refuse_before.end(), i) == refuse_before.end()) {
      refuse_before.push_back(i);
    }
  }
  std::sort(refuse_before.begin(), refuse_before.end());

  std::vector<Bytes> bytes(n);
  fx->shares.resize(n);
  fx->client_ms.resize(n);
  // Serial on purpose: client.upload_ms is one client device's cost.
  for (size_t i = 0; i < n; ++i) {
    vdp::SecureRng rng(Label(seed, "client/" + std::to_string(i)));
    Stopwatch timer;
    vdp::ClientBundle<G> bundle = vdp::MakeClientBundle<G>(choices[i], i, config, fx->ped, rng);
    fx->client_ms[i] = timer.ElapsedMillis();
    if (std::binary_search(tampered.begin(), tampered.end(), i)) {
      bundle.upload.bin_proofs[0].z0 += S::One();
    }
    bytes[i] = bundle.upload.Serialize();
    fx->shares[i] = std::move(bundle.shares);
  }

  double total_bytes = 0;
  for (const Bytes& b : bytes) {
    total_bytes += static_cast<double>(b.size());
  }
  fx->upload_bytes = n > 0 ? total_bytes / static_cast<double>(n) : 0;

  // Planted decode refusals: a copy of the next upload with its first
  // commitment swapped for an element outside the subgroup. They never get
  // a client index, so the honest uploads' proof contexts are unchanged.
  const Bytes order_two = OrderTwoEncoding<G>::Get();
  fx->wire.reserve(n + refuse_before.size());
  for (size_t i = 0; i < n; ++i) {
    if (std::binary_search(refuse_before.begin(), refuse_before.end(), i)) {
      auto upload = vdp::ClientUploadMsg<G>::Deserialize(bytes[i]);
      if (!upload.has_value()) {
        throw std::runtime_error("generated upload does not decode");
      }
      const Bytes encoded = G::Encode(upload->commitments[0][0]);
      Bytes bad = bytes[i];
      auto at = std::search(bad.begin(), bad.end(), encoded.begin(), encoded.end());
      if (at == bad.end() || encoded.size() != order_two.size()) {
        throw std::runtime_error("commitment encoding not found in upload bytes");
      }
      std::copy(order_two.begin(), order_two.end(), at);
      fx->expected_refused.push_back(fx->wire.size());
      fx->wire.push_back(std::move(bad));
    }
    fx->wire.push_back(std::move(bytes[i]));
  }

  // The per-proof oracle, once, over what decode admits.
  std::vector<std::optional<vdp::ClientUploadMsg<G>>> slots(fx->wire.size());
  pool->ParallelFor(slots.size(), [&](size_t i) {
    slots[i] = vdp::ClientUploadMsg<G>::Deserialize(fx->wire[i]);
  });
  std::vector<vdp::ClientUploadMsg<G>> uploads;
  std::vector<size_t> refused;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].has_value()) {
      uploads.push_back(std::move(*slots[i]));
    } else {
      refused.push_back(i);
    }
  }
  if (refused != fx->expected_refused || uploads.size() != n) {
    throw std::runtime_error("set-up decode does not refuse exactly the planted uploads");
  }
  vdp::VerifyOptions oracle_options;
  oracle_options.compute_products = false;
  oracle_options.pool = pool;
  vdp::VerifyReport<G> oracle =
      vdp::MakeVerifyBackend<G>(vdp::VerifyBackendKind::kPerProof, config, fx->ped)
          ->VerifyAll(uploads, oracle_options);
  fx->expected_accepted = oracle.accepted;
  for (const vdp::RejectionReason& r : oracle.rejections) {
    fx->expected_rejected.emplace_back(r.index, r.code);
  }
  std::vector<std::pair<size_t, vdp::RejectCode>> planted;
  for (size_t i : tampered) {
    planted.emplace_back(i, vdp::RejectCode::kProofInvalid);
  }
  if (fx->expected_rejected != planted) {
    throw std::runtime_error("oracle rejects other uploads than the planted ones");
  }
  if (plant == Plant::kDropRejection && !planted.empty()) {
    const size_t dropped = planted.front().first;
    fx->expected_rejected.erase(fx->expected_rejected.begin());
    fx->expected_accepted.insert(std::lower_bound(fx->expected_accepted.begin(),
                                                  fx->expected_accepted.end(), dropped),
                                 dropped);
  }

  fx->true_counts.assign(spec.bins, 0);
  for (size_t i : fx->expected_accepted) {
    if (spec.bins == 1) {
      fx->true_counts[0] += choices[i];
    } else {
      ++fx->true_counts[choices[i]];
    }
  }
  return fx;
}

// Registry counters whose per-round deltas are layer metrics.
constexpr std::pair<const char*, const char*> kCounterMetrics[] = {
    {obs::kMsmCalls, "msm.calls"},
    {obs::kMsmScalars, "msm.scalars"},
    {obs::kWireBytesOut, "wire.bytes_out"},
    {obs::kWireBytesIn, "wire.bytes_in"},
    {obs::kWireFramesOut, "wire.frames_out"},
    {obs::kFleetShardsRemote, "fleet.shards_remote"},
    {obs::kFleetShardsRecovered, "fleet.shards_recovered"},
    {obs::kFleetRetries, "fleet.retries"},
    {obs::kAuthFailures, "auth.failures"},
};

double HistogramSum(const obs::MetricsSnapshot& snap, const char* name) {
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    if (h.name == name) {
      return h.sum;
    }
  }
  return 0;
}

// Self time per span name, in ms: each span's duration minus the part of
// it its children cover (children clipped to the parent, overlaps merged).
std::map<std::string, double> SelfTimeMs(const std::vector<obs::SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<const obs::SpanRecord*>> children;
  for (const obs::SpanRecord& s : spans) {
    children[s.parent_span_id].push_back(&s);
  }
  std::map<std::string, double> self;
  for (const obs::SpanRecord& s : spans) {
    const uint64_t lo = s.start_us;
    const uint64_t hi = s.start_us + s.duration_us;
    std::vector<std::pair<uint64_t, uint64_t>> cover;
    for (const obs::SpanRecord* c : children[s.span_id]) {
      const uint64_t a = std::max(lo, c->start_us);
      const uint64_t b = std::min(hi, c->start_us + c->duration_us);
      if (a < b) {
        cover.emplace_back(a, b);
      }
    }
    std::sort(cover.begin(), cover.end());
    uint64_t covered = 0;
    uint64_t reach = lo;
    for (const auto& [a, b] : cover) {
      if (b > reach) {
        covered += b - std::max(a, reach);
        reach = b;
      }
    }
    self[s.name] += static_cast<double>(s.duration_us - covered) / 1000.0;
  }
  return self;
}

struct RoundResult {
  bool ok = true;
  std::string why;  // first failed check
  std::map<std::string, double> m;  // metric name -> value for this round
  std::vector<std::pair<std::string, double>> steps_ms;  // run-log stages
};

struct Context {
  uint64_t seed;
  Plant plant;
  vdp::ThreadPool* pool;
};

template <class G>
RoundResult RunRound(const Fixture<G>& fx, const Context& ctx, size_t round,
                     obs::TraceCollector* tracer) {
  using S = typename G::Scalar;
  const vdp::ProtocolConfig& config = fx.config;
  const size_t K = config.num_provers;
  const size_t bins = config.num_bins;
  const size_t nb = config.NumCoins();
  vdp::ThreadPool* pool = ctx.pool;
  RoundResult res;
  auto fail = [&](const std::string& why) {
    if (res.ok) {
      res.ok = false;
      res.why = why;
    }
  };

  // Parties are built before the clock starts; their construction is not
  // protocol work.
  const std::string round_label = "round/" + std::to_string(round);
  vdp::PublicVerifier<G> verifier(config, fx.ped);
  std::vector<std::unique_ptr<vdp::Prover<G>>> provers;
  for (size_t k = 0; k < K; ++k) {
    provers.push_back(std::make_unique<vdp::Prover<G>>(
        k, config, fx.ped,
        vdp::SecureRng(Label(ctx.seed, round_label + "/prover/" + std::to_string(k)))));
  }
  vdp::SecureRng verifier_rng(Label(ctx.seed, round_label + "/verifier"));
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();

  std::vector<vdp::ClientUploadMsg<G>> uploads;
  std::vector<size_t> refused;
  vdp::VerifyReport<G> report;
  std::vector<std::vector<S>> outputs;
  std::map<std::string, double> ms;  // per-step wall time, summed over provers

  Stopwatch round_timer;
  obs::TraceSpan round_span(tracer, "round",
                            tracer != nullptr ? tracer->RootContext() : obs::TraceContext{});
  // One benchmark-side span and stopwatch around each public call.
  auto step = [&](const char* name, auto&& fn) {
    obs::TraceSpan span(tracer, name, round_span.context());
    Stopwatch timer;
    fn(span.context());
    ms[name] += timer.ElapsedMillis();
  };
  try {
    step("decode", [&](obs::TraceContext) {
      std::vector<std::optional<vdp::ClientUploadMsg<G>>> slots(fx.wire.size());
      pool->ParallelFor(slots.size(), [&](size_t i) {
        slots[i] = vdp::ClientUploadMsg<G>::Deserialize(fx.wire[i]);
      });
      uploads.reserve(slots.size());
      for (size_t i = 0; i < slots.size(); ++i) {
        if (slots[i].has_value()) {
          uploads.push_back(std::move(*slots[i]));
        } else {
          refused.push_back(i);
        }
      }
    });
    step("validate", [&](obs::TraceContext parent) {
      if (tracer == nullptr) {
        report = verifier.ValidateClientsReport(uploads, pool);
      } else {
        // What ValidateClientsReport does, plus the tracer it has no
        // parameter for.
        vdp::VerifyOptions options;
        options.pool = pool;
        options.tracer = tracer;
        options.trace_parent = parent;
        report = vdp::MakeVerifyBackend<G>(config, fx.ped)->VerifyAll(uploads, options);
      }
    });
    step("load_shares", [&](obs::TraceContext) {
      const std::vector<size_t>& accepted = report.accepted;
      std::vector<uint8_t> consistent(accepted.size(), 1);
      pool->ParallelFor(accepted.size(), [&](size_t j) {
        for (size_t k = 0; k < K; ++k) {
          if (!vdp::ClientShareConsistent(fx.shares[accepted[j]][k],
                                          uploads[accepted[j]].commitments[k], fx.ped)) {
            consistent[j] = 0;
          }
        }
      });
      if (std::count(consistent.begin(), consistent.end(), 0) > 0) {
        fail("a validated upload's shares do not match its commitments");
      }
      for (size_t k = 0; k < K; ++k) {
        std::vector<vdp::ClientShareMsg<G>> shares;
        shares.reserve(accepted.size());
        for (size_t idx : accepted) {
          shares.push_back(fx.shares[idx][k]);
        }
        provers[k]->LoadClientShares(shares);
      }
    });
    for (size_t k = 0; k < K && res.ok; ++k) {
      vdp::ProverCoinsMsg<G> coins;
      step("commit_coins", [&](obs::TraceContext) { coins = provers[k]->CommitCoins(pool); });
      bool proofs_ok = false;
      step("check_coin_proofs",
           [&](obs::TraceContext) { proofs_ok = verifier.CheckCoinProofs(k, coins, pool); });
      if (!proofs_ok) {
        fail("coin proofs of prover " + std::to_string(k) + " rejected");
        break;
      }
      std::vector<std::vector<bool>> bits;
      step("morra", [&](obs::TraceContext) {
        bits = vdp::RunProverMorra(*provers[k], fx.ped, config, verifier_rng);
      });
      if (bits.empty()) {
        fail("Morra aborted");
        break;
      }
      vdp::ProverOutputMsg<G> output;
      step("aggregate", [&](obs::TraceContext) {
        provers[k]->ReceivePublicCoins(bits);
        output = provers[k]->ComputeOutput();
      });
      if (ctx.plant == Plant::kProverOutput && k == 0) {
        output.y[0] += S::One();
      }
      bool final_ok = false;
      step("check", [&](obs::TraceContext) {
        final_ok = report.has_products() &&
                   verifier.CheckFinalWithProducts(report.commitment_products[k], coins, bits,
                                                   output);
      });
      if (!final_ok) {
        fail("Eq. 10 check failed for prover " + std::to_string(k));
        break;
      }
      outputs.push_back(output.y);
    }
  } catch (const std::exception& e) {
    fail(std::string("threw: ") + e.what());
  }
  round_span.End();
  const double round_ms = round_timer.ElapsedMillis();

  // --- correctness, outside the clock --------------------------------------
  if (refused != fx.expected_refused) {
    fail("decode refused other uploads than the planted ones");
  }
  if (report.accepted != fx.expected_accepted) {
    fail("accepted set differs from the per-proof oracle");
  }
  std::vector<std::pair<size_t, vdp::RejectCode>> rejected;
  for (const vdp::RejectionReason& r : report.rejections) {
    rejected.emplace_back(r.index, r.code);
  }
  if (rejected != fx.expected_rejected) {
    fail("rejections differ from the planted OR-proof failures");
  }
  if (res.ok) {
    for (size_t bin = 0; bin < bins; ++bin) {
      S total = S::Zero();
      for (const std::vector<S>& y : outputs) {
        total += y[bin];
      }
      const auto raw = total.ToU64();
      const uint64_t lo = fx.true_counts[bin];
      if (!raw.has_value() || *raw < lo || *raw > lo + K * nb) {
        fail("histogram bin " + std::to_string(bin) + " outside [true, true + K*nb]");
      }
    }
  }

  // --- metrics ----------------------------------------------------------------
  auto& m = res.m;
  const double decode_ms = ms["decode"];
  const double validate_ms = ms["validate"];
  m["round_s"] = round_ms / 1000.0;
  m["verifier_s"] = (decode_ms + validate_ms + ms["check_coin_proofs"] + ms["check"]) / 1000.0;
  m["prover_s"] = (ms["load_shares"] + ms["commit_coins"] + ms["aggregate"]) / 1000.0;

  const double uploads_in = static_cast<double>(fx.wire.size());
  const double coins = static_cast<double>(K * bins * nb);
  m["decode.ms"] = decode_ms;
  m["decode.us_per_upload"] = decode_ms * 1000.0 / uploads_in;
  m["decode.rejected"] = static_cast<double>(refused.size());
  m["validate.ms"] = validate_ms;
  m["validate.ingest_ms"] = report.timings.ingest_ms;
  m["validate.verify_ms"] = report.timings.verify_ms;
  m["validate.combine_ms"] = report.timings.combine_ms;
  m["validate.shards"] = static_cast<double>(report.num_shards);
  m["validate.shards_with_fallback"] = static_cast<double>(report.shards_with_fallback);
  m["validate.fallback_ratio"] =
      report.num_shards > 0 ? static_cast<double>(report.shards_with_fallback) /
                                  static_cast<double>(report.num_shards)
                            : 0.0;
  m["validate.rejected"] = static_cast<double>(report.rejections.size());
  m["shares.ms"] = ms["load_shares"];
  m["coins.prove_ms"] = ms["commit_coins"];
  m["coins.prove_us_per_coin"] = ms["commit_coins"] * 1000.0 / coins;
  m["coins.verify_ms"] = ms["check_coin_proofs"];
  m["coins.verify_us_per_coin"] = ms["check_coin_proofs"] * 1000.0 / coins;
  m["morra.ms"] = ms["morra"];
  m["morra.us_per_coin"] = ms["morra"] * 1000.0 / coins;
  m["aggregate.ms"] = ms["aggregate"];
  m["check.ms"] = ms["check"];
  m["check.us_per_coin"] = ms["check"] * 1000.0 / coins;

  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  for (const auto& [counter, metric] : kCounterMetrics) {
    m[metric] = static_cast<double>(after.CounterValue(counter) - before.CounterValue(counter));
  }
  m["validate.backpressure_wait_ms"] = (HistogramSum(after, obs::kBackpressureWaitUs) -
                                        HistogramSum(before, obs::kBackpressureWaitUs)) /
                                       1000.0;
  m["fleet.remote_ratio"] = report.num_shards > 0 ? m["fleet.shards_remote"] /
                                                        static_cast<double>(report.num_shards)
                                                  : 0.0;
  // The fleet recovers a failed shard in-process with the same verdict, so
  // only the counters show whether the round took the remote path.
  if (!config.remote_verifiers.empty() &&
      (m["fleet.shards_remote"] != static_cast<double>(report.num_shards) ||
       m["fleet.shards_recovered"] != 0 || m["auth.failures"] != 0)) {
    fail("not every shard was verified remotely (" + Num(m["fleet.shards_remote"]) + " of " +
         std::to_string(report.num_shards) + ", " + Num(m["fleet.shards_recovered"]) +
         " recovered, " + Num(m["auth.failures"]) + " auth failures)");
  }

  for (const char* name : {"decode", "validate", "load_shares", "commit_coins",
                           "check_coin_proofs", "morra", "aggregate", "check"}) {
    res.steps_ms.emplace_back(name, ms[name]);
  }
  return res;
}

// Names the traced run reports from span self time.
constexpr std::pair<const char*, const char*> kSpanMetrics[] = {
    {"structure", "shard.structure_ms"}, {"rlc", "shard.rlc_ms"},
    {"fallback", "shard.fallback_ms"},   {"dispatch", "fleet.dispatch_ms"},
    {"combine", "stream.combine_ms"},    {"round", "round.unattributed_ms"},
};

// The per-layer metrics of a --trace 1 run, with units, in output order.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"client.upload_ms", "ms"},
    {"decode.ms", "ms"},
    {"decode.us_per_upload", "us/upload"},
    {"decode.rejected", "count"},
    {"validate.ms", "ms"},
    {"validate.ingest_ms", "ms"},
    {"validate.verify_ms", "ms"},
    {"validate.combine_ms", "ms"},
    {"validate.shards", "count"},
    {"validate.shards_with_fallback", "count"},
    {"validate.fallback_ratio", "ratio"},
    {"validate.rejected", "count"},
    {"validate.backpressure_wait_ms", "ms"},
    {"msm.calls", "count"},
    {"msm.scalars", "count"},
    {"shares.ms", "ms"},
    {"coins.prove_ms", "ms"},
    {"coins.prove_us_per_coin", "us/coin"},
    {"coins.verify_ms", "ms"},
    {"coins.verify_us_per_coin", "us/coin"},
    {"morra.ms", "ms"},
    {"morra.us_per_coin", "us/coin"},
    {"aggregate.ms", "ms"},
    {"check.ms", "ms"},
    {"check.us_per_coin", "us/coin"},
    {"wire.bytes_out", "bytes"},
    {"wire.bytes_in", "bytes"},
    {"wire.frames_out", "count"},
    {"fleet.shards_remote", "count"},
    {"fleet.shards_recovered", "count"},
    {"fleet.retries", "count"},
    {"fleet.remote_ratio", "ratio"},
    {"auth.failures", "count"},
    {"shard.structure_ms", "ms"},
    {"shard.rlc_ms", "ms"},
    {"shard.fallback_ms", "ms"},
    {"fleet.dispatch_ms", "ms"},
    {"stream.combine_ms", "ms"},
    {"round.unattributed_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
};

template <class G>
int RunWorkload(const Args& args, const WorkloadSpec& spec) {
  const size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  vdp::ThreadPool pool(hw);
  const size_t n = spec.n;
  const bool remote = spec.uploads_per_shard == 0;
  const size_t fleet_size = remote ? std::min<size_t>(hw, 4) : 0;
  Context ctx{args.seed, args.plant, &pool};

  vdp::ProtocolConfig config;
  config.epsilon = spec.epsilon;
  config.num_provers = spec.provers;
  config.num_bins = spec.bins;
  config.batch_verify = true;
  config.session_id = Label(args.seed, spec.name);
  if (!remote) {
    config.num_verify_shards =
        std::max<size_t>(2, (n + spec.uploads_per_shard - 1) / spec.uploads_per_shard);
  }

  const std::string key_file = args.workdir + "/fleet.key";
  const std::string key_hex =
      vdp::HexEncode(vdp::SecureRng(Label(args.seed, "fleet-key")).RandomBytes(32));
  const std::string fault = args.plant == Plant::kFleetFault ? "garbage:all" : "";

  // --- set-up, repeated; setup_s is the median --------------------------------
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<Fixture<G>> fx;
  std::vector<double> setup_s;
  std::vector<double> client_ms;  // every set-up's MakeClientBundle calls
  bool warmups_ok = true;
  for (size_t rep = 0; rep < kSetups; ++rep) {
    fleet.reset();
    fx.reset();
    Stopwatch timer;
    if (remote) {
      fleet = std::make_unique<Fleet>(fleet_size, key_file, key_hex, fault);
      fleet->ApplyTo(&config);
    }
    const double fleet_s = timer.ElapsedSeconds();
    fx = BuildFixture<G>(spec, n, args.seed, config, args.plant, &pool);
    const double fixture_s = timer.ElapsedSeconds() - fleet_s;
    client_ms.insert(client_ms.end(), fx->client_ms.begin(), fx->client_ms.end());
    RoundResult warm = RunRound(*fx, ctx, 0, nullptr);
    setup_s.push_back(timer.ElapsedSeconds());
    std::fprintf(stderr,
                 "round_bench: set-up %zu: fleet %.3fs, uploads+oracle %.3fs, warm-up %.3fs\n",
                 rep, fleet_s, fixture_s, setup_s.back() - fleet_s - fixture_s);
    if (!warm.ok) {
      warmups_ok = false;
      std::fprintf(stderr, "round_bench: warm-up round failed: %s\n", warm.why.c_str());
    }
  }

  // --- timed rounds -------------------------------------------------------------
  obs::TraceCollector tracer;
  std::vector<obs::SpanRecord> all_spans;
  std::vector<RoundResult> plain;
  std::vector<RoundResult> traced;
  size_t failed = 0;
  std::string first_failure;
  // With --trace 1, traced and untraced rounds alternate, so both halves see
  // the same machine and trace.overhead_ratio compares like with like.
  Stopwatch run;
  for (size_t round = 1;
       plain.empty() || (args.trace && traced.empty()) || run.ElapsedSeconds() < args.seconds;
       ++round) {
    if (!args.trace || round % 2 == 1) {
      plain.push_back(RunRound(*fx, ctx, round, nullptr));
      continue;
    }
    RoundResult r = RunRound(*fx, ctx, round, &tracer);
    std::vector<obs::SpanRecord> spans = tracer.TakeSpans();
    const std::map<std::string, double> self_ms = SelfTimeMs(spans);
    for (const auto& [span, metric] : kSpanMetrics) {
      const auto it = self_ms.find(span);
      r.m[metric] = it != self_ms.end() ? it->second : 0.0;
    }
    all_spans.insert(all_spans.end(), std::make_move_iterator(spans.begin()),
                     std::make_move_iterator(spans.end()));
    traced.push_back(std::move(r));
  }
  for (const std::vector<RoundResult>* set : {&plain, &traced}) {
    for (const RoundResult& r : *set) {
      if (!r.ok) {
        ++failed;
        if (first_failure.empty()) {
          first_failure = r.why;
        }
      }
    }
  }
  const size_t attempted = plain.size() + traced.size();

  auto median_of = [](const std::vector<RoundResult>& rounds, const std::string& metric) {
    std::vector<double> v;
    for (const RoundResult& r : rounds) {
      v.push_back(r.m.at(metric));
    }
    return Median(v);
  };

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"round_s", median_of(plain, "round_s"), "s"},
        {"verifier_s", median_of(plain, "verifier_s"), "s"},
        {"prover_s", median_of(plain, "prover_s"), "s"},
        {"upload_bytes", fx->upload_bytes, "bytes"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", static_cast<double>(obs::CurrentRssHwmKb()) / 1024.0, "MiB"},
    };
  } else {
    for (const auto& [name, unit] : kLayerMetrics) {
      const std::string metric = name;
      const double value =
          metric == "client.upload_ms"       ? Median(client_ms)
          : metric == "trace.overhead_ratio" ? median_of(traced, "round_s") /
                                                   median_of(plain, "round_s")
                                             : median_of(traced, metric);
      metrics.push_back({metric, value, unit});
    }
  }

  // --- run-log, header, result ----------------------------------------------------
  const std::string header_notes =
      std::string("workload=") + spec.name + " seed=" + std::to_string(args.seed) +
      " build=" + VDP_BUILD_TYPE + " provers=" + std::to_string(spec.provers) +
      " bins=" + std::to_string(spec.bins) + " nb=" + std::to_string(config.NumCoins()) +
      " trace=" + (args.trace ? "1" : "0");
  const std::string runlog_path = args.workdir + "/runlog-" + spec.name + "-seed" +
                                  std::to_string(args.seed) + "-trace" +
                                  (args.trace ? "1" : "0") + ".jsonl";
  if (auto log = obs::RunLogWriter::Open(runlog_path)) {
    obs::RunHeader header;
    header.tool = "round_bench";
    header.group = G::Name();
    header.n_uploads = n;
    header.num_shards = static_cast<uint64_t>(plain.front().m.at("validate.shards"));
    header.pool_threads = pool.worker_count();
    header.remote_endpoints = fleet_size;
    header.notes = header_notes;
    log->Header(header);
    for (const std::vector<RoundResult>* set : {&plain, &traced}) {
      for (const RoundResult& r : *set) {
        log->Stages(set == &plain ? "round" : "traced-round", std::string(spec.name),
                    r.steps_ms, r.m.at("round_s") * 1000.0, {{"ok", r.ok ? 1.0 : 0.0}});
      }
    }
    log->Metrics(obs::MetricsRegistry::Global().Snapshot());
    log->Spans(all_spans);
    log->Footer();
  }

  std::printf(
      "{\"header\": {\"tool\": \"round_bench\", \"workload\": \"%s\", \"group\": \"%s\", "
      "\"seed\": %llu, \"n\": %zu, \"provers\": %zu, \"bins\": %zu, \"epsilon\": %s, "
      "\"nb\": %llu, \"hardware_concurrency\": %u, \"pool_threads\": %zu, "
      "\"fleet_size\": %zu, \"backend\": \"%s\", \"build_type\": \"%s\", \"setups\": %zu, "
      "\"rounds\": %zu, \"fail_ratio\": %s, \"first_failure\": \"%s\", \"runlog\": \"%s\"}}\n",
      spec.name, G::Name().c_str(), static_cast<unsigned long long>(args.seed), n, spec.provers,
      spec.bins, Num(spec.epsilon).c_str(), static_cast<unsigned long long>(config.NumCoins()),
      std::thread::hardware_concurrency(), pool.worker_count(), fleet_size,
      vdp::VerifyBackendKindName(vdp::SelectVerifyBackend(config)), VDP_BUILD_TYPE,
      kSetups, attempted,
      Num(static_cast<double>(failed) / static_cast<double>(attempted)).c_str(),
      obs::JsonEscape(first_failure).c_str(), obs::JsonEscape(runlog_path).c_str());

  std::string out = "{\"correct\": ";
  out += (failed == 0 && warmups_ok) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) {
      spec = &w;
    }
  }
  if (spec == nullptr) {
    Usage("unknown --workload '" + args.workload + "'");
  }
  if (args.plant == Plant::kDropRejection && spec->bad_proofs == 0) {
    Usage("--plant drop-rejection needs a workload with planted rejections (ingest)");
  }
  if (args.plant == Plant::kFleetFault && spec->uploads_per_shard > 0) {
    Usage("--plant fleet-fault needs the workload with a fleet (fleet)");
  }
  try {
    if (std::string(spec->group) == vdp::ModP256::Name()) {
      return RunWorkload<vdp::ModP256>(args, *spec);
    }
    return RunWorkload<vdp::ModP512>(args, *spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "round_bench: %s\n", e.what());
    return 1;
  }
}
