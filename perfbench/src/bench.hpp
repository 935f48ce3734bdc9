// Shared pieces of the repo benchmark: command-line arguments, the span
// tracer, sample statistics and the result record every workload fills.
//
// The tracer records spans around calls into the library's public
// functions from the benchmark's own code.  Spans carry a name, start,
// end, parent span and a request id shared by one request's spans; they
// are kept in memory and written out once the run ends.  With tracing
// off a Scope only reads the clock, so the untraced run pays nothing
// beyond the timings it reports anyway.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "matrix/csr.hpp"

namespace perfbench {

// ---- arguments ------------------------------------------------------------

/// `--key value` pairs; every workload parameter arrives this way from
/// run.py, which reads them from workloads.json.
class Args {
 public:
  Args(int argc, char** argv);
  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string str(const std::string& key) const;  // required
  [[nodiscard]] long long num(const std::string& key) const;     // required
  [[nodiscard]] double real(const std::string& key) const;       // required

 private:
  std::map<std::string, std::string> kv_;
};

// ---- time ----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- tracing ---------------------------------------------------------------

struct Span {
  std::string name;
  double start_s = 0;  ///< seconds since the tracer was created
  double end_s = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;   ///< -1 for a root span
  std::int64_t request = -1;  ///< shared by every span of one request
};

class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Times one call.  The duration is always measured; the span is
  /// recorded only when the tracer is enabled.  A scope opened inside
  /// another on the same thread becomes its child and inherits its
  /// request id unless one is given.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::int64_t request = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Seconds since the scope opened.
    [[nodiscard]] double elapsed() const { return seconds_since(start_); }

   private:
    Tracer& tracer_;
    const char* name_;
    Clock::time_point start_;
    std::int64_t id_ = -1;
    std::int64_t parent_ = -1;
    std::int64_t request_ = -1;
  };

  /// A fresh request id.
  std::int64_t next_request();

  /// Durations in seconds of every recorded span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  /// Median self time (span minus the time its children cover) per span
  /// name, in milliseconds.
  [[nodiscard]] std::map<std::string, double> median_self_ms() const;

  /// One JSON object per span, one per line.
  void write_jsonl(const std::string& path) const;

  [[nodiscard]] std::size_t size() const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::int64_t next_id_ = 0;       // guarded by mu_
  std::int64_t next_request_ = 0;  // guarded by mu_
};

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> v);

/// Samples per block of the tail statistic.
constexpr std::size_t kTailBlock = 200;

/// The tail of latencies given in completion order.  They are cut into
/// blocks of about kTailBlock consecutive samples (one block when there
/// are fewer than two blocks' worth); in each block, the highest
/// percentile that has at least ten samples beyond it, never below the
/// block's median (the maximum below eleven samples); the median of those
/// over the blocks.  A stall of the host inflates the slowest few samples
/// of the block it falls in, not the median over the blocks.
struct Tail {
  double value = 0;
  double percentile = 0;  ///< within one block (median over the blocks)
  std::size_t blocks = 0;
  std::size_t samples = 0;
  double whole_run = 0;  ///< the same percentile rule over all samples
};
Tail tail_percentile(const std::vector<double>& in_completion_order);

/// Median of `reps` timed calls of fn, in seconds.
template <typename Fn>
double median_time(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0));
  }
  return median(std::move(t));
}

/// Peak resident set of this process so far, MiB.
double peak_rss_mb();

// ---- output checks ---------------------------------------------------------

/// Same pattern, values within rtol relative (rtol 0: bitwise equal).
/// Written here rather than taken from mtx::equal_approx, so the check
/// does not rest on the library it checks.
bool same_product(const pbs::mtx::CsrMatrix& got,
                  const pbs::mtx::CsrMatrix& want, double rtol);

// ---- results ---------------------------------------------------------------

struct Result {
  std::map<std::string, double> metrics;
  /// Context printed beside the metrics (host, percentiles, sizes).
  std::map<std::string, std::string> detail;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool checks_passed = true;  ///< every output check of the run held
  std::vector<std::string> errors;

  void fail(const std::string& what) {
    checks_passed = false;
    if (errors.size() < 20) errors.push_back(what);
  }
};

/// Fills the end-to-end latency metrics from per-operation samples, given
/// in completion order.
void latency_metrics(std::vector<double> seconds, Result& out);

// ---- workloads -------------------------------------------------------------

/// An "er" or "rmat" (default a/b/c) operand of 2^scale rows and about
/// ef·2^scale nonzeros.
pbs::mtx::CsrMatrix generate_operand(const std::string& kind, int scale,
                                     double ef, std::uint64_t seed);

/// er-square and rmat-skew: C = A·A through one SpGemmExecutor.
void run_inproc(const Args& args, Tracer& tracer, Result& out);

/// serve-mix: a closed-loop request mix against an in-process server.
void run_serve_mix(const Args& args, Tracer& tracer, Result& out);

/// The per-layer numbers of one plus_times square that do not come from
/// the timed loop: matrix, spgemm, pb and model layers (traced runs only).
struct LayerInputs {
  const pbs::mtx::CsrMatrix* a = nullptr;
  int threads = 1;
  double stream_gbs = 0;
  /// Median wall time of the workload's own executor run, and what it
  /// reported (algorithm, prediction).
  double run_s = 0;
  std::string chosen_algo;
  double predicted_mflops = 0;
};
void measure_layers(const LayerInputs& in, Tracer& tracer, Result& out);

/// The serve layer's per-request costs for one masked square of `a`
/// through an in-process server (traced runs of the in-process
/// workloads, where no server sits on the path).
void measure_serve_probe(const pbs::mtx::CsrMatrix& a,
                         const std::string& socket_path, Tracer& tracer,
                         Result& out);

}  // namespace perfbench
