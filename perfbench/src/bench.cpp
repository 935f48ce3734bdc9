#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "matrix/convert.hpp"
#include "matrix/generate.hpp"

namespace perfbench {

// ---- arguments ------------------------------------------------------------

Args::Args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --key value, got '" + arg + "'");
    }
    kv_[arg.substr(2)] = argv[++i];
  }
}

bool Args::has(const std::string& key) const { return kv_.count(key) != 0; }

std::string Args::str(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

long long Args::num(const std::string& key) const { return std::stoll(str(key)); }

double Args::real(const std::string& key) const { return std::stod(str(key)); }

// ---- tracing ---------------------------------------------------------------

namespace {

struct Frame {
  std::int64_t id;
  std::int64_t request;
};

// One tracer exists per process; the stack links nested scopes of one
// thread to their parent.
thread_local std::vector<Frame> t_stack;

double since(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration<double>(t - origin).count();
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::int64_t request)
    : tracer_(tracer), name_(name), start_(Clock::now()) {
  if (!tracer_.enabled_) return;
  {
    const std::lock_guard<std::mutex> lock(tracer_.mu_);
    id_ = tracer_.next_id_++;
  }
  if (!t_stack.empty()) {
    parent_ = t_stack.back().id;
    if (request < 0) request = t_stack.back().request;
  }
  request_ = request;
  t_stack.push_back({id_, request_});
}

Tracer::Scope::~Scope() {
  if (!tracer_.enabled_) return;
  const auto end = Clock::now();
  t_stack.pop_back();
  Span s{name_, since(tracer_.origin_, start_), since(tracer_.origin_, end),
         id_, parent_, request_};
  const std::lock_guard<std::mutex> lock(tracer_.mu_);
  tracer_.spans_.push_back(std::move(s));
}

std::int64_t Tracer::next_request() {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_request_++;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end_s - s.start_s);
  }
  return out;
}

std::map<std::string, double> Tracer::median_self_ms() const {
  const std::lock_guard<std::mutex> lock(mu_);
  // Children of one span run on its thread, one after another, so their
  // durations add up to the part of the parent they cover.
  std::unordered_map<std::int64_t, double> child_s;
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_s[s.parent] += s.end_s - s.start_s;
  }
  std::map<std::string, std::vector<double>> by_name;
  for (const Span& s : spans_) {
    const auto it = child_s.find(s.id);
    const double children = it == child_s.end() ? 0.0 : it->second;
    by_name[s.name].push_back((s.end_s - s.start_s - children) * 1e3);
  }
  std::map<std::string, double> out;
  for (auto& [name, v] : by_name) out[name] = median(std::move(v));
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  os.precision(17);
  for (const Span& s : spans_) {
    os << "{\"name\":\"" << s.name << "\",\"start_s\":" << s.start_s
       << ",\"end_s\":" << s.end_s << ",\"id\":" << s.id
       << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}\n";
  }
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

// ---- workloads -------------------------------------------------------------

pbs::mtx::CsrMatrix generate_operand(const std::string& kind, int scale,
                                     double ef, std::uint64_t seed) {
  using namespace pbs::mtx;
  if (kind == "er") return coo_to_csr(generate_er(RandomScale{scale, ef}, seed));
  if (kind == "rmat") {
    RmatParams rp;
    rp.scale = scale;
    rp.edge_factor = ef;
    rp.seed = seed;
    return coo_to_csr(generate_rmat(rp));
  }
  throw std::invalid_argument("unknown operand kind " + kind);
}

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

/// The highest percentile of v with at least ten samples beyond it, and
/// that percentile.
std::pair<double, double> block_tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // Below 21 samples no percentile above the median has ten beyond it;
  // the median stands in rather than a "tail" under it.
  const std::size_t idx = n >= 11 ? std::max(n - 11, n / 2) : n - 1;
  return {v[idx], 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n)};
}

}  // namespace

Tail tail_percentile(const std::vector<double>& v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  const std::size_t n = v.size();
  t.blocks = std::max<std::size_t>(1, n / kTailBlock);
  std::vector<double> values, percentiles;
  for (std::size_t b = 0; b < t.blocks; ++b) {
    const auto [value, pct] =
        block_tail(std::vector<double>(v.begin() + b * n / t.blocks,
                                       v.begin() + (b + 1) * n / t.blocks));
    values.push_back(value);
    percentiles.push_back(pct);
  }
  t.value = median(std::move(values));
  t.percentile = median(std::move(percentiles));
  t.whole_run = block_tail(v).first;
  return t;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool same_product(const pbs::mtx::CsrMatrix& got,
                  const pbs::mtx::CsrMatrix& want, double rtol) {
  if (got.nrows != want.nrows || got.ncols != want.ncols ||
      got.rowptr != want.rowptr || got.colids != want.colids ||
      got.vals.size() != want.vals.size()) {
    return false;
  }
  if (rtol == 0) {
    return got.vals.empty() ||
           std::memcmp(got.vals.data(), want.vals.data(),
                       got.vals.size() * sizeof(double)) == 0;
  }
  for (std::size_t i = 0; i < got.vals.size(); ++i) {
    const double x = got.vals[i], y = want.vals[i];
    if (!(std::abs(x - y) <= rtol * std::abs(y)) && x != y) return false;
  }
  return true;
}

void latency_metrics(std::vector<double> seconds, Result& out) {
  const Tail t = tail_percentile(seconds);
  out.metrics["latency_p50_ms"] = median(std::move(seconds)) * 1e3;
  out.metrics["latency_tail_ms"] = t.value * 1e3;
  out.detail["latency_tail_percentile"] = std::to_string(t.percentile);
  out.detail["latency_tail_blocks"] = std::to_string(t.blocks);
  out.detail["latency_tail_whole_run_ms"] = std::to_string(t.whole_run * 1e3);
  out.detail["latency_samples"] = std::to_string(t.samples);
}

}  // namespace perfbench
