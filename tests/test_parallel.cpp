// The parallel layer (common/parallel.hpp): every schedule covers its
// range exactly once at any team size, the first exception and a fired
// cancel token surface after the join with the rest of the loop skipped,
// reductions fold in thread-id order, and a team's barrier orders its
// threads.  Team sizes stay within 1..4.
#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/prefix_sum.hpp"

namespace pbs {
namespace {

constexpr int kMaxTeam = 4;

// Sizes around the team sizes (0, fewer than the team, one chunk) and a
// few larger, uneven ones.
const std::vector<std::size_t> kSizes = {0, 1, 2, 3, 5, 64, 1000, 4099};

template <typename Sched>
void expect_each_index_once(Sched sched, const char* name) {
  for (int threads = 1; threads <= kMaxTeam; ++threads) {
    ThreadCountGuard guard(threads);
    for (const std::size_t n : kSizes) {
      std::vector<std::atomic<int>> hits(n);
      parallel_for(sched, n, [&](std::size_t i) noexcept { ++hits[i]; });
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << name << " threads " << threads
                                     << " n " << n << " index " << i;

      // The same loop as a team's work-shared loop, with and without the
      // closing barrier, and through the guarded (throwing-body) path.
      std::vector<std::atomic<int>> team_hits(n);
      parallel_team([&](Team& team) {
        team.for_each(sched, n, [&](std::size_t i) { ++team_hits[i]; });
        team.for_each_nowait(sched, n,
                             [&](std::size_t i) { ++team_hits[i]; });
      });
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(team_hits[i].load(), 2) << name << " threads " << threads
                                          << " n " << n << " index " << i;
    }
  }
}

TEST(ParallelFor, StaticVisitsEveryIndexOnce) {
  expect_each_index_once(Static{}, "static");
}

TEST(ParallelFor, DynamicVisitsEveryIndexOnce) {
  expect_each_index_once(Dynamic{}, "dynamic");
  expect_each_index_once(Dynamic{7}, "dynamic,7");
}

TEST(ParallelFor, GuidedVisitsEveryIndexOnce) {
  expect_each_index_once(Guided{}, "guided");
  expect_each_index_once(Guided{4}, "guided,4");
}

TEST(ParallelFor, FirstExceptionIsRethrownAndTheRestSkipped) {
  // One thread: iterations run in order, so index 5 throws first and
  // nothing after it runs (index 7 would throw a different message).
  {
    ThreadCountGuard guard(1);
    std::atomic<int> ran{0};
    try {
      parallel_for(Dynamic{1}, 100, [&](int i) {
        ++ran;
        if (i == 5 || i == 7)
          throw std::runtime_error("at " + std::to_string(i));
      });
      FAIL() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "at 5");
    }
    EXPECT_EQ(ran.load(), 6);
  }
  // Several threads: the throw surfaces after the join and the remaining
  // (slow) iterations are skipped instead of run.
  for (int threads = 2; threads <= kMaxTeam; ++threads) {
    ThreadCountGuard guard(threads);
    constexpr int n = 2000;
    std::atomic<int> ran{0};
    EXPECT_THROW(parallel_for(Dynamic{1}, n,
                              [&](int i) {
                                ++ran;
                                if (i == 0) throw std::logic_error("first");
                                std::this_thread::sleep_for(
                                    std::chrono::milliseconds(1));
                              }),
                 std::logic_error);
    EXPECT_LT(ran.load(), n / 2) << threads << " threads";
  }
}

TEST(ParallelFor, FiredTokenRaisesCancelledErrorAfterTheJoin) {
  for (int threads = 1; threads <= kMaxTeam; ++threads) {
    ThreadCountGuard guard(threads);
    CancelToken token;
    constexpr int n = 2000;
    std::atomic<int> ran{0};
    EXPECT_THROW(parallel_for(
                     Dynamic{1}, n,
                     [&](int i) noexcept {
                       ++ran;
                       if (i == 3) token.request_cancel();
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(1));
                     },
                     &token),
                 CancelledError);
    EXPECT_LT(ran.load(), n / 2) << threads << " threads";
    if (threads == 1) EXPECT_EQ(ran.load(), 4);
  }
}

TEST(ParallelFor, ExpiredDeadlineRaisesDeadlineError) {
  ThreadCountGuard guard(2);
  CancelToken token;
  token.set_deadline(std::chrono::steady_clock::now() -
                     std::chrono::seconds(1));
  EXPECT_THROW(parallel_for(Static{}, 1000, [](int) noexcept {}, &token),
               DeadlineError);
}

TEST(ParallelFor, UnfiredTokenRunsEverything) {
  ThreadCountGuard guard(kMaxTeam);
  CancelToken token;
  std::atomic<int> ran{0};
  parallel_for(Guided{}, 500, [&](int) noexcept { ++ran; }, &token);
  EXPECT_EQ(ran.load(), 500);
}

TEST(ParallelReduce, IntegerSumEqualsSerialSum) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<nnz_t> dist(0, 1000);
  for (int threads = 1; threads <= kMaxTeam; ++threads) {
    ThreadCountGuard guard(threads);
    for (const std::size_t n : kSizes) {
      std::vector<nnz_t> v(n);
      for (nnz_t& x : v) x = dist(rng);
      const nnz_t serial = std::accumulate(v.begin(), v.end(), nnz_t{0});
      const auto sum = [&](auto sched) {
        return parallel_reduce(
            sched, n, nnz_t{0},
            [&](nnz_t& acc, std::size_t i) noexcept { acc += v[i]; },
            std::plus<>{});
      };
      EXPECT_EQ(sum(Static{}), serial) << threads << " threads, n " << n;
      EXPECT_EQ(sum(Dynamic{16}), serial) << threads << " threads, n " << n;
      EXPECT_EQ(sum(Guided{}), serial) << threads << " threads, n " << n;
    }
  }
}

TEST(ParallelReduce, PartialsCombineInThreadIdOrder) {
  // Static{} gives thread t the t-th contiguous block, so concatenating
  // the partials in thread-id order restores 0, 1, ..., n-1.
  for (int threads = 1; threads <= kMaxTeam; ++threads) {
    ThreadCountGuard guard(threads);
    const std::vector<int> got = parallel_reduce(
        Static{}, 103, std::vector<int>{},
        [](std::vector<int>& acc, int i) { acc.push_back(i); },
        [](std::vector<int> x, std::vector<int> y) {
          x.insert(x.end(), y.begin(), y.end());
          return x;
        });
    std::vector<int> want(103);
    std::iota(want.begin(), want.end(), 0);
    EXPECT_EQ(got, want) << threads << " threads";
  }
}

TEST(ParallelReduce, BodyExceptionIsRethrown) {
  ThreadCountGuard guard(3);
  EXPECT_THROW((void)parallel_reduce(
                   Static{}, 50, 0,
                   [](int& acc, int i) {
                     if (i == 20) throw std::out_of_range("20");
                     acc += i;
                   },
                   std::plus<>{}),
               std::out_of_range);
}

TEST(ParallelTeam, EveryThreadGetsItsOwnId) {
  for (int threads = 1; threads <= kMaxTeam; ++threads) {
    ThreadCountGuard guard(threads);
    std::vector<std::atomic<int>> seen(kMaxTeam);
    std::atomic<int> size{0};
    parallel_team([&](Team& team) {
      ++seen[static_cast<std::size_t>(team.id())];
      size = team.size();
    });
    EXPECT_EQ(size.load(), threads);
    for (int t = 0; t < kMaxTeam; ++t)
      EXPECT_EQ(seen[static_cast<std::size_t>(t)].load(), t < threads ? 1 : 0);
  }
}

TEST(ParallelTeam, ThrowingSetupStepStopsTheTeamsLoops) {
  for (int threads = 1; threads <= kMaxTeam; ++threads) {
    ThreadCountGuard guard(threads);
    std::atomic<int> ran{0};
    EXPECT_THROW(parallel_team([&](Team& team) {
                   const bool ok = team.run([&] {
                     if (team.id() == 0) throw std::runtime_error("setup");
                   });
                   EXPECT_EQ(ok, team.id() != 0);
                   team.barrier();  // every setup step has run
                   team.for_each(Dynamic{1}, 100, [&](int) { ++ran; });
                 }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 0) << threads << " threads";
  }
}

// A blocked two-pass scan over a team: each thread scans its own block and
// publishes the block total, the barrier orders the publication before
// every thread reads the totals of the blocks in front of it.
nnz_t team_scan(nnz_t* a, std::size_t n) {
  std::vector<nnz_t> block_total(static_cast<std::size_t>(max_threads()) + 1,
                                 0);
  parallel_team([&](Team& team) {
    const auto tid = static_cast<std::size_t>(team.id());
    const auto nt = static_cast<std::size_t>(team.size());
    const std::size_t chunk = (n + nt - 1) / nt;
    const std::size_t lo = std::min(n, chunk * tid);
    const std::size_t hi = std::min(n, lo + chunk);
    nnz_t running = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const nnz_t count = a[i];
      a[i] = running;
      running += count;
    }
    block_total[tid + 1] = running;
    team.barrier();
    nnz_t offset = 0;
    for (std::size_t t = 0; t <= tid; ++t) offset += block_total[t];
    for (std::size_t i = lo; i < hi; ++i) a[i] += offset;
  });
  const nnz_t total =
      std::accumulate(block_total.begin(), block_total.end(), nnz_t{0});
  a[n] = total;
  return total;
}

class ScanSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScanSizes, ParallelMatchesSerial) {
  const std::size_t n = GetParam();
  std::mt19937 rng(42);
  std::uniform_int_distribution<nnz_t> dist(0, 1000);
  std::vector<nnz_t> serial(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) serial[i] = dist(rng);
  const std::vector<nnz_t> counts = serial;
  const nnz_t ts = exclusive_scan_inplace(serial.data(), n);
  for (int threads = 1; threads <= kMaxTeam; ++threads) {
    ThreadCountGuard guard(threads);
    std::vector<nnz_t> parallel = counts;
    EXPECT_EQ(team_scan(parallel.data(), n), ts) << threads << " threads";
    EXPECT_EQ(parallel, serial) << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ScanSizes,
                         ::testing::Values(0, 1, 2, 5, 100, 1023, 1024,
                                           (1u << 16) - 1, 1u << 16,
                                           (1u << 16) + 1, 1u << 18));

}  // namespace
}  // namespace pbs
