// serve-mix: a closed loop of client threads, each holding one connection
// to an in-process serve::Server and drawing a seeded request mix over an
// ER and an RMAT operand uploaded once.  Every reply is checked against
// an in-process reference built in set-up.  Also the serve-layer probe the
// traced runs of the in-process workloads use.
#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "matrix/generate.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "spgemm/executor.hpp"

namespace perfbench {

namespace {

using namespace pbs;

enum Kind { kSquare, kUpdate, kBfs, kMinPlus, kPrune, kInline, kKinds };

constexpr std::array<const char*, kKinds> kKindName = {
    "square", "update", "bfs", "min_plus", "prune", "inline"};

/// Percent of requests of each kind.
constexpr std::array<int, kKinds> kShare = {40, 20, 15, 10, 10, 5};
constexpr int kShareUnit = 5;  // every share is a multiple of it

constexpr int kMatrices = 2;  // ER, RMAT

/// One request in this many squares the RMAT operand, the rest the ER
/// one.  A one-lane RMAT square takes about seven times an ER one, and
/// its slowest tenth or so take half as long again.  At an even split the
/// median sits in the gap between the ER and RMAT modes; at one in four
/// the tail (ten samples beyond it in a block of 200) sits on the edge of
/// that slow group.  Either way the statistic jumps from run to run.  At
/// one in eight the median sits among the ER requests and the tail, the
/// 95th percentile of a block, inside the RMAT group.
constexpr int kRmatOneIn = 8;
constexpr int kVariants = 4;  // value sets the update requests cycle through

/// Root span name of each (operand, kind) request, so self times and
/// the trace break latency down by request type.
constexpr std::array<std::array<const char*, kKinds>, kMatrices> kRequestSpan = {{
    {"request.er.square", "request.er.update", "request.er.bfs",
     "request.er.min_plus", "request.er.prune", "request.er.inline"},
    {"request.rmat.square", "request.rmat.update", "request.rmat.bfs",
     "request.rmat.min_plus", "request.rmat.prune", "request.rmat.inline"},
}};

/// Bit-exact replies for the semirings whose results do not depend on
/// accumulation order; 1e-9 relative for plus_times.
double tolerance(Kind k) { return k == kBfs || k == kMinPlus ? 0.0 : 1e-9; }

/// Operands, ops and reference products, fixed in set-up.
struct Mix {
  std::array<mtx::CsrMatrix, kMatrices> a;
  std::array<std::array<mtx::CsrMatrix, kVariants>, kMatrices> variant;
  std::array<double, kMatrices> prune{};
  std::array<double, kMatrices> flop{};
  std::array<std::array<mtx::CsrMatrix, kKinds>, kMatrices> ref;
  std::array<std::array<mtx::CsrMatrix, kVariants>, kMatrices> ref_update;
  /// Median in-process time of each (matrix, kind), seconds.
  std::array<std::array<double, kKinds>, kMatrices> inproc_s{};
  pb::WorkspacePool::Stats pool{};
  RunInfo square_info;  // the ER plus_times square: the model audit's input

  [[nodiscard]] const mtx::CsrMatrix& expected(Kind k, int m, int v) const {
    return k == kUpdate ? ref_update[m][v] : ref[m][k];
  }
};

SpGemmOp op_of(const Mix& mix, Kind k, int m) {
  SpGemmOp op;
  if (k == kBfs) {
    op.semiring = "bool_or_and";
    op.mask = &mix.a[m];
    op.complement = true;
  } else if (k == kMinPlus) {
    op.semiring = "min_plus";
  } else if (k == kPrune) {
    op.post_op.prune_threshold = mix.prune[m];
  }
  return op;
}

serve::MultiplyOptions options_of(const Mix& mix, Kind k, int m) {
  const SpGemmOp op = op_of(mix, k, m);
  serve::MultiplyOptions mo;
  mo.semiring = op.semiring;
  mo.mask = op.mask;
  mo.complement = op.complement;
  mo.post_op = op.post_op;
  mo.values_only = k == kUpdate;
  return mo;
}

mtx::CsrMatrix with_values(const mtx::CsrMatrix& a, std::uint64_t seed) {
  mtx::CsrMatrix v = a;
  mtx::SplitMix64 rng(seed);
  for (double& x : v.vals) x = rng.next_unit();
  return v;
}

/// References and in-process timings, at the server's one lane.
void build_references(Mix& mix) {
  ExecutorOptions eo;
  eo.validate_inputs = true;  // the server forces it on
  SpGemmExecutor exec(eo);
  for (int m = 0; m < kMatrices; ++m) {
    const SpGemmProblem p = SpGemmProblem::square(mix.a[m]);
    RunInfo info;
    mix.ref[m][kSquare] = exec.run(p, SpGemmOp{}, &info);
    mix.flop[m] = static_cast<double>(info.flop);
    if (m == 0) mix.square_info = info;
    // Prune half of the product: a threshold between the two middle
    // values keeps ties away from it.
    std::vector<double> v = mix.ref[m][kSquare].vals;
    std::sort(v.begin(), v.end());
    mix.prune[m] = v.size() >= 2 ? 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2])
                                 : 0.5;
    for (const Kind k : {kBfs, kMinPlus, kPrune}) {
      mix.ref[m][k] = exec.run(p, op_of(mix, k, m));
    }
    mix.ref[m][kInline] = mix.ref[m][kSquare];

    std::vector<SpGemmProblem> vp;
    for (int v2 = 0; v2 < kVariants; ++v2) {
      vp.push_back(SpGemmProblem::square(mix.variant[m][v2]));
      mix.ref_update[m][v2] = exec.run(vp.back(), SpGemmOp{});
    }

    for (int k = 0; k < kKinds; ++k) {
      const Kind kind = static_cast<Kind>(k);
      const SpGemmOp op = op_of(mix, kind, m);
      int r = 0;
      mix.inproc_s[m][k] = median_time(3, [&] {
        if (kind == kUpdate) {
          (void)exec.run_values_updated(vp[r++ % kVariants], op);
        } else if (kind == kInline) {
          (void)exec.run(SpGemmProblem::multiply(mix.a[m], mix.a[m]), op);
        } else {
          (void)exec.run(p, op);
        }
      });
    }
  }
  mix.pool = exec.pool_stats();
}

/// Per-client connection state: its own copies of the operands for the
/// update requests, so no other client's writes reach its reads.
struct ClientState {
  std::unique_ptr<serve::Client> cli;
  std::array<std::uint64_t, kMatrices> upd{};
};

/// One server start with its clients connected and operands uploaded.
struct Session {
  std::unique_ptr<serve::Server> server;
  std::vector<ClientState> clients;
  std::array<std::uint64_t, kMatrices> shared{};

  ~Session() {
    clients.clear();
    if (server) server->stop();
  }
};

mtx::CsrMatrix issue(ClientState& c, const Session& s, const Mix& mix, Kind k,
                     int m, int v, Tracer& t) {
  const serve::MultiplyOptions mo = options_of(mix, k, m);
  if (k == kUpdate) {
    {
      Tracer::Scope u(t, "serve.update_values");
      c.cli->update_values(c.upd[m], mix.variant[m][v]);
    }
    Tracer::Scope r(t, "serve.roundtrip");
    return c.cli->square(c.upd[m], mo);
  }
  Tracer::Scope r(t, "serve.roundtrip");
  if (k == kInline) return c.cli->multiply(mix.a[m], mix.a[m], mo);
  return c.cli->square(s.shared[m], mo);
}

/// Server start, connects, uploads and the first request of each kind.
std::unique_ptr<Session> open_session(const Mix& mix, int workers,
                                      int nclients, const std::string& path,
                                      Tracer& tracer, Result& out) {
  auto s = std::make_unique<Session>();
  serve::ServeOptions so;
  so.socket_path = path;
  so.worker_threads = workers;
  so.pin_shards = false;
  {
    Tracer::Scope t(tracer, "serve.start");
    s->server = std::make_unique<serve::Server>(std::move(so));
    s->server->start();
  }
  for (int i = 0; i < nclients; ++i) {
    ClientState c;
    {
      Tracer::Scope t(tracer, "serve.connect");
      c.cli = std::make_unique<serve::Client>(path);
    }
    Tracer::Scope t(tracer, "serve.upload");
    for (int m = 0; m < kMatrices; ++m) {
      if (i == 0) s->shared[m] = c.cli->upload(mix.a[m]);
      c.upd[m] = c.cli->upload(mix.variant[m][0]);
    }
    s->clients.push_back(std::move(c));
  }
  for (int k = 0; k < kKinds; ++k) {
    Tracer::Scope t(tracer, "serve.first_request");
    const Kind kind = static_cast<Kind>(k);
    ++out.attempted;
    const mtx::CsrMatrix c = issue(s->clients[0], *s, mix, kind, 0, 0, tracer);
    if (!same_product(c, mix.expected(kind, 0, 0), tolerance(kind))) {
      ++out.failed;
      out.fail(std::string("first ") + kKindName[k] + " reply is wrong");
    }
  }
  return s;
}

/// Cards dealt in a seeded order, reshuffled after each pass: every pass
/// holds the exact proportions, so a run's mix does not drift with the
/// draw and the spread between runs is the system's own.
class Deck {
 public:
  Deck(std::vector<int> cards, std::uint64_t seed)
      : cards_(std::move(cards)), rng_(seed) {}

  int next() {
    if (pos_ == cards_.size()) {
      for (std::size_t i = cards_.size() - 1; i > 0; --i) {
        std::swap(cards_[i], cards_[rng_.next_below(i + 1)]);
      }
      pos_ = 0;
    }
    return cards_[pos_++];
  }

 private:
  std::vector<int> cards_;
  std::size_t pos_ = cards_.size();
  mtx::SplitMix64 rng_;
};

struct Sample {
  Kind kind;
  int matrix;
  bool traced;
  bool ok;
  double latency_s;
  Clock::time_point end{};
};

void client_loop(ClientState& cs, const Session& s, const Mix& mix,
                 std::uint64_t seed, Clock::time_point deadline,
                 Tracer& tracer, std::vector<Sample>& samples,
                 std::vector<std::string>& errors) {
  std::vector<int> kinds, operands(kRmatOneIn, 0);
  for (int k = 0; k < kKinds; ++k) {
    kinds.insert(kinds.end(), kShare[k] / kShareUnit, k);
  }
  operands[0] = 1;
  Deck kind_deck(std::move(kinds), seed);
  Deck operand_deck(std::move(operands), seed + 1);
  mtx::SplitMix64 rng(seed + 2);
  Tracer off(false);
  for (std::int64_t i = 0; Clock::now() < deadline; ++i) {
    Tracer& t = tracer.enabled() && i % 2 == 1 ? tracer : off;
    const int k = kind_deck.next();
    const Kind kind = static_cast<Kind>(k);
    const int m = operand_deck.next();
    const int v = static_cast<int>(rng.next_below(kVariants));
    Sample smp{kind, m, t.enabled(), false, 0};
    try {
      Tracer::Scope req(t, kRequestSpan[m][k],
                        t.enabled() ? t.next_request() : -1);
      const mtx::CsrMatrix c = issue(cs, s, mix, kind, m, v, t);
      smp.latency_s = req.elapsed();
      Tracer::Scope chk(t, "bench.check");
      smp.ok = same_product(c, mix.expected(kind, m, v), tolerance(kind));
      if (!smp.ok && errors.size() < 5) {
        errors.push_back(std::string(kKindName[k]) + " reply is wrong");
      }
    } catch (const std::exception& e) {
      if (errors.size() < 5) errors.push_back(e.what());
    }
    smp.end = Clock::now();
    samples.push_back(smp);
  }
}

/// The wire codec's cost for one request and its reply, timed around the
/// protocol's public encode/decode functions (medians of `reps`).
struct Codec {
  double encode_request_s = 0;
  double decode_request_s = 0;
  double encode_response_s = 0;
  double decode_response_s = 0;
  double bytes = 0;  ///< request + response payload
};

Codec time_codec(const serve::MultiplyRequest& req,
                 const mtx::CsrMatrix* update, const mtx::CsrMatrix& reply,
                 int reps, Tracer& tracer) {
  Codec c;
  std::vector<std::uint8_t> wire, upd_wire, resp;
  std::vector<double> enc, dec, enc_r, dec_r;
  for (int r = 0; r < reps; ++r) {
    {
      Tracer::Scope s(tracer, "serve.encode_request");
      if (update != nullptr) upd_wire = serve::encode_update_values(1, *update);
      wire = serve::encode_multiply(req);
      enc.push_back(s.elapsed());
    }
    {
      Tracer::Scope s(tracer, "serve.decode_request");
      if (update != nullptr) {
        serve::WireReader u(upd_wire);
        (void)u.u8();
        (void)u.u64();
        (void)u.csr();
      }
      serve::WireReader rd(wire);
      (void)rd.u8();
      (void)serve::decode_multiply(rd);
      dec.push_back(s.elapsed());
    }
    {
      Tracer::Scope s(tracer, "serve.encode_response");
      resp = serve::encode_ok_csr(0, reply);
      enc_r.push_back(s.elapsed());
    }
    {
      Tracer::Scope s(tracer, "serve.decode_response");
      serve::WireReader rd(resp);
      (void)rd.u8();
      (void)rd.u8();
      (void)rd.csr();
      dec_r.push_back(s.elapsed());
    }
  }
  c.encode_request_s = median(enc);
  c.decode_request_s = median(dec);
  c.encode_response_s = median(enc_r);
  c.decode_response_s = median(dec_r);
  c.bytes = static_cast<double>(upd_wire.size() + wire.size() + resp.size());
  return c;
}

void codec_metrics(const Codec& c, Result& out) {
  out.metrics["serve.encode_request_ms"] = c.encode_request_s * 1e3;
  out.metrics["serve.decode_request_ms"] = c.decode_request_s * 1e3;
  out.metrics["serve.encode_response_ms"] = c.encode_response_s * 1e3;
  out.metrics["serve.decode_response_ms"] = c.decode_response_s * 1e3;
  out.metrics["serve.bytes_per_request"] = c.bytes;
}

serve::MultiplyRequest request_of(const Mix& mix, const Session& s, Kind k,
                                  int m) {
  const serve::MultiplyOptions mo = options_of(mix, k, m);
  serve::MultiplyRequest req;
  req.algo = mo.algo;
  req.semiring = mo.semiring;
  req.complement = mo.complement;
  req.values_only = mo.values_only;
  req.post_op = mo.post_op;
  if (mo.mask != nullptr) {
    req.has_mask = true;
    req.mask = *mo.mask;
  }
  if (k == kInline) {
    req.a = mix.a[m];
    req.b = mix.a[m];
  } else {
    req.a_handle = k == kUpdate ? s.clients[0].upd[m] : s.shared[m];
    req.b_is_a = true;
  }
  return req;
}

/// `"key":<number>` inside the object that follows `section` in the
/// server's telemetry JSON.
double telemetry_field(const std::string& json, const std::string& section,
                       const std::string& key) {
  const std::size_t at = json.find("\"" + section + "\"");
  const std::size_t k = json.find("\"" + key + "\":", at);
  if (at == std::string::npos || k == std::string::npos) {
    throw std::runtime_error("telemetry lacks " + section + "." + key);
  }
  return std::stod(json.substr(k + key.size() + 3));
}

}  // namespace

void run_serve_mix(const Args& args, Tracer& tracer, Result& out) {
  const double seconds = args.real("seconds");
  const int setups = static_cast<int>(args.num("setups"));
  const int workers = static_cast<int>(args.num("workers"));
  const int nclients = static_cast<int>(args.num("clients"));
  const int scale = static_cast<int>(args.num("scale"));
  const double ef = args.real("ef");
  const auto seed = static_cast<std::uint64_t>(args.num("seed"));
  const std::string socket = args.str("socket");

  // ---- inputs and references (the benchmark's own set-up) ----
  Mix mix;
  mix.a[0] = generate_operand("er", scale, ef, seed);
  mix.a[1] = generate_operand("rmat", scale, ef, seed + 1);
  for (int m = 0; m < kMatrices; ++m) {
    mix.variant[m][0] = mix.a[m];
    for (int v = 1; v < kVariants; ++v) {
      mix.variant[m][v] = with_values(mix.a[m], seed * 131 + m * 17 + v);
    }
  }
  build_references(mix);
  out.detail["input.er_nnz"] = std::to_string(mix.a[0].nnz());
  out.detail["input.rmat_nnz"] = std::to_string(mix.a[1].nnz());

  // ---- set-up, several times: server start .. first reply of each kind ----
  std::vector<double> setup_s;
  std::unique_ptr<Session> session;
  for (int k = 0; k < setups; ++k) {
    session.reset();
    const auto t0 = Clock::now();
    {
      Tracer::Scope s(tracer, "setup");
      session = open_session(mix, workers, nclients,
                             socket + "." + std::to_string(k), tracer, out);
    }
    setup_s.push_back(seconds_since(t0));
  }

  // ---- closed loop: every client waits for its reply before the next ----
  const serve::ServerStats before = session->server->stats();
  std::vector<std::vector<Sample>> samples(nclients);
  std::vector<std::vector<std::string>> errors(nclients);
  const auto loop0 = Clock::now();
  const auto deadline =
      loop0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < nclients; ++i) {
      threads.emplace_back([&, i] {
        client_loop(session->clients[i], *session, mix,
                    seed * 7919 + static_cast<std::uint64_t>(i), deadline,
                    tracer, samples[i], errors[i]);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double wall = seconds_since(loop0);
  const double rss = peak_rss_mb();
  const serve::ServerStats after = session->server->stats();

  // All clients' replies in completion order, as the tail's blocks want.
  std::vector<Sample> replies;
  for (int i = 0; i < nclients; ++i) {
    replies.insert(replies.end(), samples[i].begin(), samples[i].end());
    for (const std::string& e : errors[i]) out.fail(e);
  }
  std::stable_sort(replies.begin(), replies.end(),
                   [](const Sample& x, const Sample& y) { return x.end < y.end; });

  std::vector<double> lat, lat_traced;
  std::array<std::array<std::vector<double>, kKinds>, kMatrices> by_kind;
  double flop_done = 0;
  std::int64_t completed = 0;
  for (const Sample& smp : replies) {
    ++out.attempted;
    if (!smp.ok) {
      ++out.failed;
      continue;
    }
    ++completed;
    flop_done += mix.flop[smp.matrix];
    (smp.traced ? lat_traced : lat).push_back(smp.latency_s);
    if (smp.traced) by_kind[smp.matrix][smp.kind].push_back(smp.latency_s);
  }

  if (!tracer.enabled()) {
    out.metrics["mflops"] = flop_done / wall / 1e6;
    out.metrics["requests_per_s"] = static_cast<double>(completed) / wall;
    out.metrics["setup_s"] = median(setup_s);
    out.metrics["peak_rss_mb"] = rss;
    latency_metrics(lat, out);
    return;
  }

  // ---- serve layer: round trips, wire overhead per kind weighted by the
  // mix, the codec on each kind's representative request ----
  auto& m = out.metrics;
  m["serve.roundtrip_ms"] = median(tracer.durations("serve.roundtrip")) * 1e3;
  double overhead = 0, weight = 0;
  Codec codec;
  for (int k = 0; k < kKinds; ++k) {
    const Kind kind = static_cast<Kind>(k);
    for (int mi = 0; mi < kMatrices; ++mi) {
      if (by_kind[mi][k].empty()) continue;
      out.detail[std::string("serve.p50_ms.") + kKindName[k] +
                 (mi == 0 ? ".er" : ".rmat")] =
          std::to_string(median(by_kind[mi][k]) * 1e3) + " over " +
          std::to_string(by_kind[mi][k].size());
      overhead += kShare[k] * (median(by_kind[mi][k]) - mix.inproc_s[mi][k]);
      weight += kShare[k];
    }
    const Codec c = time_codec(request_of(mix, *session, kind, 0),
                               kind == kUpdate ? &mix.variant[0][1] : nullptr,
                               mix.expected(kind, 0, 0), 5, tracer);
    const double w = kShare[k] / 100.0;
    codec.encode_request_s += w * c.encode_request_s;
    codec.decode_request_s += w * c.decode_request_s;
    codec.encode_response_s += w * c.encode_response_s;
    codec.decode_response_s += w * c.decode_response_s;
    codec.bytes += w * c.bytes;
  }
  m["serve.wire_overhead_ms"] = weight > 0 ? overhead / weight * 1e3 : 0;
  codec_metrics(codec, out);
  m["serve.errors"] = static_cast<double>(after.errors - before.errors);
  m["serve.shed"] = static_cast<double>(after.shed - before.shed);

  // The server's executors: plan-cache and value-only hits over the run.
  const std::string tele = session->server->telemetry_json();
  const double executes = telemetry_field(tele, "aggregate", "executes");
  const double hits = telemetry_field(tele, "aggregate", "cache_hits");
  const double misses = telemetry_field(tele, "aggregate", "cache_misses");
  m["spgemm.cache_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  m["spgemm.value_only_ratio"] =
      executes > 0
          ? telemetry_field(tele, "aggregate", "value_only_hits") / executes
          : 0;
  m["spgemm.pool_reuse_ratio"] =
      mix.pool.leases > 0
          ? static_cast<double>(mix.pool.reused) / mix.pool.leases
          : 0;
  m["trace.overhead_frac"] = median(lat_traced) / median(lat) - 1.0;
  session.reset();

  LayerInputs in;
  in.a = &mix.a[0];
  in.threads = 1;
  in.stream_gbs = args.real("stream-gbs");
  in.run_s = mix.inproc_s[0][kSquare];
  in.chosen_algo = mix.square_info.algo;
  in.predicted_mflops = mix.square_info.predicted_mflops;
  measure_layers(in, tracer, out);
}

void measure_serve_probe(const mtx::CsrMatrix& a,
                         const std::string& socket_path, Tracer& tracer,
                         Result& out) {
  serve::ServeOptions so;
  so.socket_path = socket_path;
  so.worker_threads = 1;
  so.pin_shards = false;
  serve::Server server(std::move(so));
  server.start();
  serve::Client cli(server.socket_path());
  const std::uint64_t h = cli.upload(a);

  // A's square restricted to A's own pattern: the reply stays the size
  // of the operand, however large the full product is.
  serve::MultiplyOptions mo;
  mo.mask = &a;
  SpGemmOp op;
  op.mask = &a;
  ExecutorOptions eo;
  eo.validate_inputs = true;
  SpGemmExecutor exec(eo);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const serve::ServerStats before = server.stats();
  mtx::CsrMatrix ref = exec.run(p, op);
  (void)cli.square(h, mo);
  std::vector<double> rt, local;
  for (int r = 0; r < 3; ++r) {
    mtx::CsrMatrix c;
    {
      Tracer::Scope s(tracer, "serve.roundtrip");
      c = cli.square(h, mo);
      rt.push_back(s.elapsed());
    }
    {
      Tracer::Scope s(tracer, "serve.inproc_run");
      ref = exec.run(p, op);
      local.push_back(s.elapsed());
    }
    ++out.attempted;
    if (!same_product(c, ref, 1e-9)) {
      ++out.failed;
      out.fail("served masked square differs from the in-process one");
    }
  }
  const serve::ServerStats after = server.stats();

  serve::MultiplyRequest req;
  req.has_mask = true;
  req.mask = a;
  req.a_handle = h;
  req.b_is_a = true;
  codec_metrics(time_codec(req, nullptr, ref, 3, tracer), out);
  out.metrics["serve.roundtrip_ms"] = median(rt) * 1e3;
  out.metrics["serve.wire_overhead_ms"] = (median(rt) - median(local)) * 1e3;
  out.metrics["serve.errors"] = static_cast<double>(after.errors - before.errors);
  out.metrics["serve.shed"] = static_cast<double>(after.shed - before.shed);
  server.stop();
}

}  // namespace perfbench
