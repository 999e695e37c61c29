// Unit + concurrency tests for the DPDK-style lockless ring.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "dhl/netio/ring.hpp"

namespace dhl::netio {
namespace {

TEST(Ring, RejectsNonPowerOfTwoSizes) {
  EXPECT_THROW((Ring<int>{"r", 3}), std::logic_error);
  EXPECT_THROW((Ring<int>{"r", 0}), std::logic_error);
  EXPECT_NO_THROW((Ring<int>{"r", 8}));
}

TEST(Ring, CapacityIsSizeMinusOne) {
  Ring<int> r{"r", 8};
  EXPECT_EQ(r.capacity(), 7u);
  EXPECT_TRUE(r.empty());
  EXPECT_FALSE(r.full());
}

TEST(Ring, FifoOrder) {
  Ring<int> r{"r", 16};
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(r.enqueue(i));
  for (int i = 0; i < 10; ++i) {
    int v = -1;
    EXPECT_TRUE(r.dequeue(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_TRUE(r.empty());
}

TEST(Ring, BurstTakesWhatFits) {
  Ring<int> r{"r", 8};
  std::vector<int> ten(10);
  std::iota(ten.begin(), ten.end(), 0);
  EXPECT_EQ(r.enqueue_burst(ten), 7u);  // capacity
  EXPECT_TRUE(r.full());
  EXPECT_EQ(r.enqueue_burst(ten), 0u);  // full: nothing fits
  EXPECT_EQ(r.count(), 7u);
  std::vector<int> out(10, -1);
  EXPECT_EQ(r.dequeue_burst(out), 7u);
  for (int i = 0; i < 7; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
  EXPECT_TRUE(r.empty());

  Ring<int> small{"small", 4};  // capacity 3
  std::vector<int> four(4, 9);
  EXPECT_EQ(small.enqueue_burst(four), 3u);
  EXPECT_EQ(small.enqueue_burst(four), 0u);
  EXPECT_EQ(small.count(), 3u);
}

TEST(Ring, WrapsAroundManyTimes) {
  Ring<int> r{"r", 8};
  int next_in = 0, next_out = 0;
  for (int round = 0; round < 1000; ++round) {
    const int n = 1 + round % 7;
    for (int i = 0; i < n; ++i) ASSERT_TRUE(r.enqueue(next_in++));
    for (int i = 0; i < n; ++i) {
      int v = -1;
      ASSERT_TRUE(r.dequeue(v));
      ASSERT_EQ(v, next_out++);
    }
  }
}

// --- concurrency properties ---------------------------------------------------

struct ConcurrencyCase {
  int producers;
  int consumers;
};

class RingConcurrency : public ::testing::TestWithParam<ConcurrencyCase> {};

// Property: under concurrent producers/consumers, every value is delivered
// exactly once (no loss, no duplication, no corruption).  The 8-producer
// cases oversubscribe a small box, so threads get preempted mid-operation.
TEST_P(RingConcurrency, ExactlyOnceDelivery) {
  const auto param = GetParam();
  constexpr std::uint64_t kPerProducer = 100'000;
  Ring<std::uint64_t> ring{"r", 1024};

  std::atomic<bool> done{false};
  std::vector<std::vector<std::uint64_t>> received(
      static_cast<std::size_t>(param.consumers));

  std::vector<std::thread> consumers;
  for (int c = 0; c < param.consumers; ++c) {
    consumers.emplace_back([&, c] {
      std::uint64_t buf[32];
      while (true) {
        const std::size_t n = ring.dequeue_burst({buf, 32});
        for (std::size_t i = 0; i < n; ++i) {
          received[static_cast<std::size_t>(c)].push_back(buf[i]);
        }
        if (n == 0 && done.load(std::memory_order_acquire) && ring.empty()) {
          break;
        }
      }
    });
  }

  std::vector<std::thread> producers;
  for (int p = 0; p < param.producers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t v =
            (static_cast<std::uint64_t>(p) << 32) | i;
        while (!ring.enqueue(v)) {
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : consumers) t.join();

  std::vector<std::uint64_t> all;
  for (auto& v : received) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  // The received multiset must be exactly {p<<32 | i}: catches loss,
  // duplication and substituted or corrupted values alike.
  std::vector<std::uint64_t> expected;
  for (int p = 0; p < param.producers; ++p) {
    for (std::uint64_t i = 0; i < kPerProducer; ++i) {
      expected.push_back((static_cast<std::uint64_t>(p) << 32) | i);
    }
  }
  ASSERT_EQ(all.size(), expected.size());
  EXPECT_TRUE(all == expected) << "lost, duplicated or corrupted values";
}

// Property: a single consumer observes each producer's values in order.
TEST(RingConcurrency, PerProducerOrderPreserved) {
  constexpr std::uint64_t kCount = 200'000;
  Ring<std::uint64_t> ring{"r", 512};
  std::vector<std::uint64_t> got;
  got.reserve(kCount);

  std::thread consumer([&] {
    std::uint64_t buf[64];
    while (got.size() < kCount) {
      const std::size_t n = ring.dequeue_burst({buf, 64});
      got.insert(got.end(), buf, buf + n);
    }
  });
  for (std::uint64_t i = 0; i < kCount; ++i) {
    while (!ring.enqueue(i)) {
    }
  }
  consumer.join();
  for (std::uint64_t i = 0; i < kCount; ++i) ASSERT_EQ(got[i], i);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, RingConcurrency,
    ::testing::Values(
        ConcurrencyCase{1, 1},  // OBQ shape
        ConcurrencyCase{4, 1},  // IBQ shape
        ConcurrencyCase{1, 4}, ConcurrencyCase{4, 4},
        ConcurrencyCase{8, 1}, ConcurrencyCase{8, 8}),
    [](const ::testing::TestParamInfo<ConcurrencyCase>& info) {
      const auto& p = info.param;
      return std::to_string(p.producers) + "p" + std::to_string(p.consumers) +
             "c";
    });

}  // namespace
}  // namespace dhl::netio
