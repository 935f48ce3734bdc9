// The bench harness's own utilities (arg parsing, table layout, timing
// loops) feed every bench number the README's "Reproducing the paper"
// section points to — they deserve tests too.
#include <gtest/gtest.h>

#include <sstream>

#include "bench_common.hpp"
#include "matrix/convert.hpp"
#include "matrix/generate.hpp"

namespace pbs::bench {
namespace {

Args make_args(std::vector<std::string> words) {
  static std::vector<std::string> storage;
  storage = std::move(words);
  storage.insert(storage.begin(), "prog");
  std::vector<char*> argv;
  for (auto& w : storage) argv.push_back(w.data());
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, ParsesSpaceAndEqualsForms) {
  const Args a = make_args({"--reps", "5", "--shrink=2.5", "--flag"});
  EXPECT_EQ(a.get_int("reps", 1), 5);
  EXPECT_DOUBLE_EQ(a.get_double("shrink", 1.0), 2.5);
  EXPECT_EQ(a.get_int("flag", 0), 1);  // bare flag reads as "1"
  EXPECT_EQ(a.get_int("absent", 7), 7);
}

TEST(Args, ParsesLists) {
  const Args a = make_args({"--scales", "12,14,16", "--algos=pb,hash"});
  EXPECT_EQ(a.get_int_list("scales", {}), (std::vector<int>{12, 14, 16}));
  EXPECT_EQ(a.get_string_list("algos", {}),
            (std::vector<std::string>{"pb", "hash"}));
  EXPECT_EQ(a.get_int_list("missing", {1, 2}), (std::vector<int>{1, 2}));
}

TEST(Args, ConsecutiveFlagsDoNotSwallowEachOther) {
  const Args a = make_args({"--verbose", "--reps", "3"});
  EXPECT_EQ(a.get_int("verbose", 0), 1);
  EXPECT_EQ(a.get_int("reps", 0), 3);
}

TEST(Table, AlignsColumnsToWidestCell) {
  Table t({"name", "v"});
  t.row("x", 1.5);
  t.row("longer_name", 10);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  // All three lines start their second column at the same offset.
  std::istringstream lines(out);
  std::string l1, l2, l3;
  std::getline(lines, l1);
  std::getline(lines, l2);
  std::getline(lines, l3);
  EXPECT_EQ(l1.find('v'), l2.find("1.5"));
  EXPECT_EQ(l1.find('v'), l3.find("10"));
}

TEST(Table, RowCellsAndMixedTypes) {
  Table t({"a", "b", "c"});
  t.row("s", 42, 2.25);
  t.row_cells({"x", "y", "z"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("42"), std::string::npos);
  EXPECT_NE(os.str().find("2.25"), std::string::npos);
  EXPECT_NE(os.str().find("z"), std::string::npos);
}

TEST(Measure, RunsWarmupPlusReps) {
  int calls = 0;
  const RunStats s = measure_seconds([&] { ++calls; }, /*reps=*/3, /*warmup=*/2);
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(s.n, 3);
  EXPECT_GE(s.min, 0.0);
  EXPECT_LE(s.min, s.max);
}

TEST(Measure, AlgoMflopsPositiveOnRealWork) {
  const mtx::CsrMatrix a =
      mtx::coo_to_csr(mtx::generate_er(256, 256, 4.0, 51));
  const SpGemmProblem p = SpGemmProblem::square(a);
  const nnz_t flop = mtx::count_flops(a, a);
  const double mf = algo_mflops(algorithm("hash"), p, flop, 2, 1);
  EXPECT_GT(mf, 0.0);
}

TEST(Measure, PbTelemetryBestIsConsistent) {
  const mtx::CsrMatrix a =
      mtx::coo_to_csr(mtx::generate_er(512, 512, 4.0, 52));
  const SpGemmProblem p = SpGemmProblem::square(a);
  const pb::PbTelemetry t = pb_best_telemetry(p, pb::PbConfig{}, 2, 1);
  EXPECT_EQ(t.flop, mtx::count_flops(a, a));
  EXPECT_GT(t.total_seconds(), 0.0);
  EXPECT_GT(t.mflops(), 0.0);
}

}  // namespace
}  // namespace pbs::bench
