#include "pb/pb_config.hpp"

#include <gtest/gtest.h>

namespace pbs::pb {
namespace {

TEST(PhaseStats, BandwidthComputation) {
  PhaseStats s;
  s.seconds = 2.0;
  s.bytes = 4e9;
  EXPECT_DOUBLE_EQ(s.gbs(), 2.0);
}

TEST(PhaseStats, ZeroTimeGivesZeroBandwidth) {
  PhaseStats s;
  s.bytes = 1e9;
  EXPECT_DOUBLE_EQ(s.gbs(), 0.0);
}

TEST(Telemetry, MflopsUsesTotalTime) {
  PbTelemetry t;
  t.flop = 10'000'000;
  t.expand.seconds = 0.5;
  t.sort.seconds = 0.5;
  EXPECT_DOUBLE_EQ(t.total_seconds(), 1.0);
  EXPECT_DOUBLE_EQ(t.mflops(), 10.0);
}

TEST(Telemetry, CfZeroWhenEmpty) {
  PbTelemetry t;
  EXPECT_DOUBLE_EQ(t.cf(), 0.0);
  t.flop = 30;
  t.nnz_c = 10;
  EXPECT_DOUBLE_EQ(t.cf(), 3.0);
}

TEST(Config, DefaultsMatchPaper) {
  const PbConfig cfg;
  EXPECT_EQ(cfg.local_bin_bytes, 512);  // Algorithm 2 line 3
  EXPECT_EQ(cfg.nbins, 0);              // auto = Algorithm 3 line 6
}

}  // namespace
}  // namespace pbs::pb
