// Concurrency tests for the open-job-list ThreadPool and the lock-free MPMC
// RequestQueue — the two scale-out substrates of DESIGN.md §14. Labeled
// substrate_serve so both sanitizer sweeps AND the tsan preset run them; the
// stress cases here are sized to give TSan real interleavings, not just a
// smoke pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/threadpool.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"

namespace cq {
namespace {

using core::ThreadPool;

/// RAII pool resize: every test restores the global pool so test order
/// cannot leak a size into unrelated suites.
class PoolSizeGuard {
 public:
  explicit PoolSizeGuard(std::size_t n)
      : old_(ThreadPool::instance().size()) {
    ThreadPool::instance().set_size(n);
  }
  ~PoolSizeGuard() { ThreadPool::instance().set_size(old_); }

 private:
  std::size_t old_;
};

TEST(ThreadPool, CoversEveryIndexExactlyOnceAtEverySize) {
  for (std::size_t threads : {1u, 2u, 3u, 8u}) {
    PoolSizeGuard guard(threads);
    for (std::int64_t total : {1, 2, 7, 64, 1000}) {
      for (std::int64_t grain : {1, 3, 64}) {
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(total));
        for (auto& h : hits) h.store(0, std::memory_order_relaxed);
        core::parallel_for(total, grain,
                           [&](std::int64_t b, std::int64_t e) {
                             for (std::int64_t i = b; i < e; ++i)
                               hits[static_cast<std::size_t>(i)].fetch_add(
                                   1, std::memory_order_relaxed);
                           });
        for (std::int64_t i = 0; i < total; ++i)
          ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
              << "threads=" << threads << " total=" << total
              << " grain=" << grain << " @" << i;
      }
    }
  }
}

TEST(ThreadPool, SizeOneRunsInlineOnTheCaller) {
  PoolSizeGuard guard(1);
  const auto caller = std::this_thread::get_id();
  int calls = 0;
  core::parallel_for(100, 1, [&](std::int64_t b, std::int64_t e) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_FALSE(ThreadPool::on_worker_thread());
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 100);
    ++calls;  // safe: single-threaded by contract
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, RangeAtMostOneGrainRunsAsOneInlineChunk) {
  PoolSizeGuard guard(4);
  const auto caller = std::this_thread::get_id();
  int calls = 0;
  core::parallel_for(64, 64, [&](std::int64_t b, std::int64_t e) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(e - b, 64);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ChunkPartitionIsThePureFunctionOfTotalAndChunks) {
  // The deterministic-partition contract: chunk boundaries depend only on
  // (total, grain, pool size), never on scheduling. Collect the actual
  // ranges and compare with the documented split — ceil-distributed
  // remainders, first `total % chunks` chunks one longer.
  for (std::size_t threads : {2u, 3u, 8u}) {
    PoolSizeGuard guard(threads);
    const std::int64_t total = 1003, grain = 5;
    std::mutex mu;
    std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<std::pair<std::int64_t, std::int64_t>> got;
      core::parallel_for(total, grain, [&](std::int64_t b, std::int64_t e) {
        std::lock_guard<std::mutex> lk(mu);
        got.emplace_back(b, e);
      });
      std::sort(got.begin(), got.end());
      const std::int64_t want_chunks = std::min<std::int64_t>(
          (total + grain - 1) / grain,
          static_cast<std::int64_t>(threads) * ThreadPool::kChunksPerThread);
      ASSERT_EQ(static_cast<std::int64_t>(got.size()), want_chunks);
      const std::int64_t base = total / want_chunks;
      const std::int64_t rem = total % want_chunks;
      std::int64_t begin = 0;
      for (std::int64_t c = 0; c < want_chunks; ++c) {
        const std::int64_t len = base + (c < rem ? 1 : 0);
        ASSERT_EQ(got[static_cast<std::size_t>(c)].first, begin);
        ASSERT_EQ(got[static_cast<std::size_t>(c)].second, begin + len);
        begin += len;
      }
      if (rep == 0)
        ranges = got;
      else
        ASSERT_EQ(got, ranges) << "partition changed between dispatches";
    }
  }
}

TEST(ThreadPool, PoolLargerThanChunkCountStillCoversRange) {
  PoolSizeGuard guard(8);  // 8 threads, only 3 chunks to hand out
  std::atomic<std::int64_t> sum{0};
  core::parallel_for(3, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i)
      sum.fetch_add(i + 1, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 6);
}

TEST(ThreadPool, NestedDispatchRunsInlineWithoutDeadlock) {
  PoolSizeGuard guard(4);
  constexpr std::int64_t kOuter = 16, kInner = 32;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  core::parallel_for(kOuter, 1, [&](std::int64_t ob, std::int64_t oe) {
    for (std::int64_t o = ob; o < oe; ++o) {
      // Inner dispatch from (possibly) a worker thread: must run inline and
      // still cover its whole range.
      core::parallel_for(kInner, 1, [&, o](std::int64_t ib, std::int64_t ie) {
        for (std::int64_t i = ib; i < ie; ++i)
          hits[static_cast<std::size_t>(o * kInner + i)].fetch_add(
              1, std::memory_order_relaxed);
      });
    }
  });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

/// `callers` EXTERNAL threads dispatching into the shared pool at once —
/// the serve engine's shape (N workers all hitting parallel GEMM). Each
/// caller must see exactly its own job completed, every time.
void concurrent_callers_cover_own_range(std::size_t pool, int callers) {
  SCOPED_TRACE("pool " + std::to_string(pool) + ", " +
               std::to_string(callers) + " callers");
  PoolSizeGuard guard(pool);
  constexpr int kReps = 50;
  constexpr std::int64_t kTotal = 512;
  std::vector<std::vector<std::atomic<int>>> hits(
      static_cast<std::size_t>(callers));
  for (auto& v : hits) {
    std::vector<std::atomic<int>> fresh(kTotal);
    for (auto& h : fresh) h.store(0, std::memory_order_relaxed);
    v.swap(fresh);
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      for (int rep = 0; rep < kReps; ++rep) {
        core::parallel_for(kTotal, 8, [&](std::int64_t b, std::int64_t e) {
          for (std::int64_t i = b; i < e; ++i)
            hits[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)]
                .fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < callers; ++c)
    for (std::int64_t i = 0; i < kTotal; ++i)
      ASSERT_EQ(hits[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)]
                    .load(),
                kReps)
          << "caller " << c << " @" << i;
}

TEST(ThreadPool, ConcurrentCallersEachCoverTheirOwnRange) {
  concurrent_callers_cover_own_range(4, 4);
  // 24 jobs of 8 chunks each: up to 192 chunks open at once, more than a
  // fixed 64-slot per-worker task buffer would hold.
  concurrent_callers_cover_own_range(2, 24);
}

TEST(ThreadPool, ConfiguredThreadsParsesAndClampsEnv) {
  const char* old = std::getenv("CQ_THREADS");
  const std::string saved = old ? old : "";
  setenv("CQ_THREADS", "3", 1);
  EXPECT_EQ(core::configured_threads(), 3u);
  setenv("CQ_THREADS", "100000", 1);
  EXPECT_EQ(core::configured_threads(), ThreadPool::kMaxThreads);
  // Invalid values fall back to hardware concurrency (>= 1), never throw.
  for (const char* bad : {"0", "-2", "abc", ""}) {
    setenv("CQ_THREADS", bad, 1);
    EXPECT_GE(core::configured_threads(), 1u) << "CQ_THREADS=" << bad;
    EXPECT_LE(core::configured_threads(), ThreadPool::kMaxThreads);
  }
  if (old)
    setenv("CQ_THREADS", saved.c_str(), 1);
  else
    unsetenv("CQ_THREADS");
}

// ---------------------------------------------------------------------------
// Lock-free MPMC RequestQueue: concurrency properties beyond the functional
// cases in test_serve.cpp.
// ---------------------------------------------------------------------------

TEST(MpmcQueue, FifoOrderAcrossManyLapsOfANonPowerOfTwoRing) {
  // capacity 3 forces the sequence-number lap arithmetic through the
  // pos % capacity (non-power-of-two) path thousands of times.
  serve::RequestQueue q(3);
  std::vector<serve::Request> reqs(3);
  std::vector<serve::Request*> out;
  int next_in = 0, next_out = 0;
  for (int lap = 0; lap < 2000; ++lap) {
    ASSERT_TRUE(q.try_push(&reqs[static_cast<std::size_t>(next_in % 3)]));
    ++next_in;
    if (lap % 3 == 2) {  // drain in bursts so the ring wraps at every phase
      q.drain(out);
      for (serve::Request* r : out) {
        ASSERT_EQ(r, &reqs[static_cast<std::size_t>(next_out % 3)]);
        ++next_out;
      }
    }
  }
  EXPECT_EQ(q.depth(), static_cast<std::size_t>(next_in - next_out));
  EXPECT_EQ(q.peak_depth(), 3u);
}

TEST(MpmcQueue, ConcurrentProducersAndConsumersDeliverEveryRequestOnce) {
  constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 2000;
  constexpr int kTotal = kProducers * kPerProducer;
  serve::RequestQueue q(8);  // small ring: constant full/empty contention
  std::vector<serve::Request> reqs(kTotal);
  std::vector<std::atomic<int>> delivered(kTotal);
  for (auto& d : delivered) d.store(0, std::memory_order_relaxed);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        serve::Request* r =
            &reqs[static_cast<std::size_t>(p * kPerProducer + i)];
        while (!q.try_push(r)) std::this_thread::yield();  // ring full
      }
    });
  }
  std::vector<std::thread> consumers;
  std::atomic<int> popped{0};
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      std::vector<serve::Request*> batch;
      for (;;) {
        const std::size_t n =
            q.pop_batch(batch, 8, std::chrono::microseconds{50});
        if (n == 0) return;  // closed and drained
        for (serve::Request* r : batch) {
          const auto idx = static_cast<std::size_t>(r - reqs.data());
          delivered[idx].fetch_add(1, std::memory_order_relaxed);
        }
        popped.fetch_add(static_cast<int>(n), std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(popped.load(), kTotal);
  for (int i = 0; i < kTotal; ++i)
    ASSERT_EQ(delivered[static_cast<std::size_t>(i)].load(), 1) << "@" << i;
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_LE(q.peak_depth(), 8u);
  EXPECT_GE(q.peak_depth(), 1u);
}

TEST(MpmcQueue, CloseWakesBlockedConsumerPromptly) {
  serve::RequestQueue q(4);
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    std::vector<serve::Request*> batch;
    EXPECT_EQ(q.pop_batch(batch, 8, std::chrono::microseconds{1000}), 0u);
    done.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds{5});
  EXPECT_FALSE(done.load(std::memory_order_acquire));
  q.close();
  consumer.join();
  EXPECT_TRUE(done.load(std::memory_order_acquire));
}

}  // namespace
}  // namespace cq
