// HeapSpGEMM — row-wise Gustavson with a k-way heap merge (paper Sec. IV-A,
// after Azad et al. [22]).
//
// For each output row r, the rows B(k,:) selected by A(r,:) form nnz(A(r,:))
// sorted runs; a binary min-heap on the current column id of each run merges
// them in one pass, emitting columns in ascending order and combining
// duplicates as they surface consecutively.  Complexity O(flop · log d).
//
// The kernel is semiring-templated (heap_spgemm_semiring<S>): merging is
// pure structure, so generalizing costs exactly the two scalar ops — the
// run's scale multiply becomes S::mul and the duplicate accumulation
// S::add.  heap_spgemm is the numeric (+, ×) instantiation.  A fused
// output mask (pb::MaskSpec) drops columns as they surface from the merge.
#include <vector>

#include "spgemm/assemble.hpp"
#include "spgemm/masked.hpp"
#include "spgemm/op.hpp"
#include "spgemm/semiring.hpp"
#include "spgemm/spgemm.hpp"

namespace pbs {

namespace {

// One merge run: a cursor into B(k,:) plus the scaling value A(r,k).
struct Run {
  nnz_t cur;
  nnz_t end;
  value_t scale;
};

// Binary min-heap of run indices ordered by the run's current column.
class RunHeap {
 public:
  void reset() { heap_.clear(); }

  void push(int run, index_t col) {
    heap_.push_back({col, run});
    sift_up(heap_.size() - 1);
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] index_t top_col() const { return heap_.front().col; }
  [[nodiscard]] int top_run() const { return heap_.front().run; }

  void pop() {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }

  /// Replaces the top (cheaper than pop+push when a run advances).
  void replace_top(index_t col) {
    heap_.front().col = col;
    sift_down(0);
  }

 private:
  struct Node {
    index_t col;
    int run;
  };

  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (heap_[parent].col <= heap_[i].col) break;
      std::swap(heap_[parent], heap_[i]);
      i = parent;
    }
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t smallest = i;
      const std::size_t l = 2 * i + 1, r = 2 * i + 2;
      if (l < n && heap_[l].col < heap_[smallest].col) smallest = l;
      if (r < n && heap_[r].col < heap_[smallest].col) smallest = r;
      if (smallest == i) return;
      std::swap(heap_[i], heap_[smallest]);
      i = smallest;
    }
  }

  std::vector<Node> heap_;
};

}  // namespace

template <typename S>
mtx::CsrMatrix heap_spgemm_semiring(const SpGemmProblem& p,
                                    const pb::MaskSpec& mask) {
  const mtx::CsrMatrix& a = p.a_csr;
  const mtx::CsrMatrix& b = p.b_csr;
  mask.check_shape(a.nrows, b.ncols, "heap_spgemm_semiring");

  // Thread-private scratch reused across that thread's rows.
  struct Scratch {
    explicit Scratch(const pb::MaskSpec& m) : mask(m) {}
    std::vector<Run> runs;
    RunHeap heap;
    detail::MaskStamp mask;
  };

  return detail::dispatch_mask(mask, [&]<bool kMasked>() {
    return detail::assemble_rowwise(
        a.nrows, b.ncols, [&]() noexcept { return Scratch(mask); },
        [&](Scratch& s, index_t r, detail::BlockBuffer& buf) {
          if (kMasked && !s.mask.begin_row(r)) return;
          s.runs.clear();
          s.heap.reset();

          for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i) {
            const index_t k = a.colids[i];
            const nnz_t lo = b.rowptr[k];
            const nnz_t hi = b.rowptr[static_cast<std::size_t>(k) + 1];
            if (lo == hi) continue;
            s.heap.push(static_cast<int>(s.runs.size()), b.colids[lo]);
            s.runs.push_back(Run{lo, hi, a.vals[i]});
          }

          while (!s.heap.empty()) {
            const index_t col = s.heap.top_col();
            // Drain every run currently sitting on `col`, combining the
            // first contribution directly so S::zero() never enters the
            // accumulation (it is an identity, but this keeps the numeric
            // instantiation bit-identical to the pre-semiring kernel).  A
            // masked-out column still advances its runs (structure drives
            // the heap) but is neither accumulated nor emitted.
            const bool keep = !(kMasked && s.mask.skip(col));
            bool first = true;
            value_t acc = S::zero();
            while (!s.heap.empty() && s.heap.top_col() == col) {
              const int ri = s.heap.top_run();
              Run& run = s.runs[static_cast<std::size_t>(ri)];
              if (keep) {
                const value_t product = S::mul(run.scale, b.vals[run.cur]);
                acc = first ? product : S::add(acc, product);
                first = false;
              }
              ++run.cur;
              if (run.cur < run.end) {
                s.heap.replace_top(b.colids[run.cur]);
              } else {
                s.heap.pop();
              }
            }
            if (keep) {
              buf.cols.push_back(col);
              buf.vals.push_back(acc);
            }
          }
        });
  });
}

template mtx::CsrMatrix heap_spgemm_semiring<PlusTimes>(const SpGemmProblem&,
                                                        const pb::MaskSpec&);
template mtx::CsrMatrix heap_spgemm_semiring<MinPlus>(const SpGemmProblem&,
                                                      const pb::MaskSpec&);
template mtx::CsrMatrix heap_spgemm_semiring<MaxMin>(const SpGemmProblem&,
                                                     const pb::MaskSpec&);
template mtx::CsrMatrix heap_spgemm_semiring<BoolOrAnd>(const SpGemmProblem&,
                                                        const pb::MaskSpec&);
// The runtime-semiring bridge (spgemm/op.hpp).
template mtx::CsrMatrix heap_spgemm_semiring<DynSemiring>(const SpGemmProblem&,
                                                          const pb::MaskSpec&);

mtx::CsrMatrix heap_spgemm(const SpGemmProblem& p) {
  return heap_spgemm_semiring<PlusTimes>(p);
}

}  // namespace pbs
