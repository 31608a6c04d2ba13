// Unit, property, and stress tests for the concurrency substrate: the
// lock-free SPSC ring, the Vyukov MPMC queue, the mutex queue, and the
// chunk recycling pool.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "core/chunk.hpp"
#include "core/profiler.hpp"
#include "queue/queues.hpp"
#include "queue/wait_strategy.hpp"

namespace depprof {
namespace {

// ----------------------------------------------- common semantics (param.)

class QueueSemantics : public ::testing::TestWithParam<QueueKind> {};

TEST_P(QueueSemantics, FifoOrder) {
  auto q = make_queue<int>(GetParam(), 16);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q->try_push(i));
  int v = -1;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(q->try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q->try_pop(v));
}

TEST_P(QueueSemantics, FullRejectsPush) {
  auto q = make_queue<int>(GetParam(), 4);
  EXPECT_EQ(q->capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q->try_push(i));
  EXPECT_FALSE(q->try_push(99));
  int v;
  ASSERT_TRUE(q->try_pop(v));
  EXPECT_TRUE(q->try_push(99));  // space reappears after a pop
}

TEST_P(QueueSemantics, EmptyRejectsPop) {
  auto q = make_queue<int>(GetParam(), 4);
  int v;
  EXPECT_FALSE(q->try_pop(v));
}

TEST_P(QueueSemantics, CapacityRoundsUpToPow2) {
  auto q = make_queue<int>(GetParam(), 5);
  EXPECT_EQ(q->capacity(), 8u);
}

TEST_P(QueueSemantics, SizeApproxTracksContent) {
  auto q = make_queue<int>(GetParam(), 16);
  EXPECT_EQ(q->size_approx(), 0u);
  q->try_push(1);
  q->try_push(2);
  EXPECT_EQ(q->size_approx(), 2u);
  int v;
  q->try_pop(v);
  EXPECT_EQ(q->size_approx(), 1u);
}

TEST_P(QueueSemantics, WrapAroundManyTimes) {
  auto q = make_queue<int>(GetParam(), 8);
  int v;
  for (int round = 0; round < 1000; ++round) {
    EXPECT_TRUE(q->try_push(round));
    ASSERT_TRUE(q->try_pop(v));
    EXPECT_EQ(v, round);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, QueueSemantics,
                         ::testing::Values(QueueKind::kLockFreeSpsc,
                                           QueueKind::kLockFreeMpmc,
                                           QueueKind::kMutex),
                         [](const auto& info) {
                           return std::string(queue_kind_name(info.param))
                                      .find("spsc") != std::string::npos
                                      ? "spsc"
                                  : queue_kind_name(info.param) ==
                                          std::string("lock-free-mpmc")
                                      ? "mpmc"
                                      : "mutex";
                         });

// -------------------------------------------------- cross-thread transfer

/// SPSC stress: one producer, one consumer, every element delivered exactly
/// once in order.
TEST(SpscQueue, ProducerConsumerStressPreservesOrder) {
  SpscQueue<std::uint64_t> q(64);
  constexpr std::uint64_t kItems = 200'000;
  std::thread consumer([&] {
    std::uint64_t expected = 0, v = 0;
    while (expected < kItems) {
      if (q.try_pop(v)) {
        ASSERT_EQ(v, expected);
        ++expected;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (std::uint64_t i = 0; i < kItems; ++i)
    while (!q.try_push(i)) std::this_thread::yield();
  consumer.join();
}

/// MPMC stress: multiple producers and consumers, every element delivered
/// exactly once (multiset equality), per-producer order preserved.
TEST(MpmcQueue, MultiProducerMultiConsumerExactlyOnce) {
  MpmcQueue<std::uint64_t> q(128);
  constexpr unsigned kProducers = 4, kConsumers = 4;
  constexpr std::uint64_t kPerProducer = 20'000;

  std::atomic<std::uint64_t> consumed{0};
  std::vector<std::vector<std::uint64_t>> got(kConsumers);
  std::vector<std::thread> threads;

  for (unsigned c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      std::uint64_t v;
      while (consumed.load(std::memory_order_relaxed) <
             kProducers * kPerProducer) {
        if (q.try_pop(v)) {
          got[c].push_back(v);
          consumed.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (unsigned p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t v = (static_cast<std::uint64_t>(p) << 32) | i;
        while (!q.try_push(v)) std::this_thread::yield();
      }
    });
  }
  for (auto& t : threads) t.join();

  // Exactly-once delivery.
  std::set<std::uint64_t> all;
  std::size_t total = 0;
  for (const auto& vec : got) {
    total += vec.size();
    for (std::uint64_t v : vec) EXPECT_TRUE(all.insert(v).second);
  }
  EXPECT_EQ(total, kProducers * kPerProducer);
  // Per-producer FIFO within each consumer's stream.
  for (const auto& vec : got) {
    std::vector<std::uint64_t> prev(kProducers, 0);
    std::vector<bool> started(kProducers, false);
    for (std::uint64_t v : vec) {
      const auto p = static_cast<unsigned>(v >> 32);
      const std::uint64_t i = v & 0xFFFFFFFFull;
      if (started[p]) {
        EXPECT_GT(i, prev[p]);
      }
      prev[p] = i;
      started[p] = true;
    }
  }
}

/// The mutex queue must also survive concurrent producers/consumers.
TEST(MutexQueue, ConcurrentTransferDeliversAll) {
  MutexQueue<int> q(64);
  constexpr int kItems = 50'000;
  std::atomic<long long> sum{0};
  std::thread consumer([&] {
    int got = 0, v;
    while (got < kItems) {
      if (q.try_pop(v)) {
        sum.fetch_add(v);
        ++got;
      } else {
        std::this_thread::yield();
      }
    }
  });
  long long expect = 0;
  for (int i = 0; i < kItems; ++i) {
    expect += i;
    while (!q.try_push(i)) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_EQ(sum.load(), expect);
}

// ----------------------------------------------------------------- chunks

TEST(ChunkPool, RecyclesChunks) {
  ChunkPool pool(1, WaitKind::kSpin);
  Chunk* a = pool.acquire();
  ASSERT_NE(a, nullptr);
  a->count = 17;
  a->kind = Chunk::Kind::kStop;
  pool.release(a);
  Chunk* b = pool.acquire();
  EXPECT_EQ(b, a);  // recycled, not reallocated
  EXPECT_EQ(b->count, 0u);  // reset on acquire
  EXPECT_EQ(b->kind, Chunk::Kind::kData);
  EXPECT_EQ(pool.allocated(), 1u);
}

TEST(ChunkPool, ChargesQueueMemory) {
  MemStats::instance().reset();
  {
    ChunkPool pool(4, WaitKind::kSpin);
    EXPECT_GE(MemStats::instance().bytes(MemComponent::kQueues),
              static_cast<std::int64_t>(4 * sizeof(Chunk)));
    (void)pool.acquire();  // a chunk in flight at teardown is freed too
  }
  EXPECT_LE(MemStats::instance().bytes(MemComponent::kQueues), 0);
  MemStats::instance().reset();
}

TEST(Chunk, CapacityHoldsConfiguredEvents) {
  Chunk c;
  EXPECT_EQ(c.kind, Chunk::Kind::kData);
  static_assert(Chunk::kCapacity == EventBuffer::kCapacity,
                "a chunk holds one delivered batch");
  EXPECT_LE(ProfilerConfig{}.chunk_size, Chunk::kCapacity);
}

// -------------------------------------------------- wait strategies

TEST(WaitStrategy, NamesRoundTrip) {
  for (WaitKind k : {WaitKind::kSpin, WaitKind::kYield, WaitKind::kPark}) {
    WaitKind parsed{};
    ASSERT_TRUE(parse_wait_kind(wait_kind_name(k), parsed));
    EXPECT_EQ(parsed, k);
  }
  WaitKind parsed{};
  EXPECT_FALSE(parse_wait_kind("busyloop", parsed));
}

TEST(WaitStrategy, ImmediateConditionNeverWaits) {
  EventCount ec;
  for (WaitKind k : {WaitKind::kSpin, WaitKind::kYield, WaitKind::kPark}) {
    const WaitCounters wc = wait_until(k, ec, [] { return true; });
    EXPECT_EQ(wc.parks, 0u);
    EXPECT_EQ(wc.parked_ns, 0u);
    EXPECT_EQ(wc.yields, 0u);
  }
}

TEST(WaitStrategy, NotifyWithoutWaitersIsFree) {
  EventCount ec;
  EXPECT_EQ(ec.notify_all(), 0u);
}

// A park-strategy waiter must actually block (parks >= 1) and be released
// by the notifier — the wake hook protocol of the pipeline's three sites.
TEST(WaitStrategy, ParkedWaiterIsWokenByNotify) {
  EventCount ec;
  std::atomic<bool> ready{false};
  std::atomic<std::uint64_t> delivered{0};
  WaitCounters wc;
  std::thread waiter([&] {
    wc = wait_until(WaitKind::kPark, ec,
                    [&] { return ready.load(std::memory_order_acquire); });
  });
  // Give the waiter time to exhaust its spin/yield phases and park.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ready.store(true, std::memory_order_release);
  delivered += ec.notify_all();
  waiter.join();
  EXPECT_GE(wc.parks, 1u);
  EXPECT_GT(wc.parked_ns, 0u);
  // The notify may race with a backstop-timeout re-poll, so a delivered
  // wake is likely but not guaranteed; the waiter exiting is the contract.
}

// prepare/cancel/notify under concurrent churn: no waiter may be lost and
// no thread may hang (TSan covers the memory orders).
TEST(WaitStrategy, ManyWaitersAllReleased) {
  EventCount ec;
  std::atomic<int> released{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 4; ++i)
    waiters.emplace_back([&] {
      (void)wait_until(WaitKind::kPark, ec,
                       [&] { return go.load(std::memory_order_acquire); });
      released.fetch_add(1);
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  go.store(true, std::memory_order_release);
  (void)ec.notify_all();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(released.load(), 4);
}

}  // namespace
}  // namespace depprof
