// Storage/pool semantics: copy-on-write aliasing, buffer reuse, and
// allocation accounting — including the steady-state "zero churn" property
// of full training loops at 2 and 4 branches per iteration.
#include <gtest/gtest.h>

#include <utility>

#include "core/simclr.hpp"
#include "data/synth.hpp"
#include "tensor/ops.hpp"
#include "tensor/storage.hpp"
#include "tensor/tensor.hpp"
#include "util/check.hpp"

namespace cq {
namespace {

const float* raw(const Tensor& t) { return t.data(); }

TEST(Storage, AcquireGivesUniqueBuffer) {
  Storage s = Storage::acquire(100);
  EXPECT_TRUE(static_cast<bool>(s));
  EXPECT_TRUE(s.unique());
  EXPECT_GE(s.capacity(), 100);
  Storage t = s;
  EXPECT_EQ(s.use_count(), 2u);
  EXPECT_EQ(s.data(), t.data());
  t.reset();
  EXPECT_TRUE(s.unique());
}

TEST(Storage, MoveStealsWithoutTouchingPool) {
  tensor::reset_alloc_counters();
  Storage s = Storage::acquire(64);
  const float* p = s.data();
  Storage t = std::move(s);
  EXPECT_EQ(t.data(), p);
  EXPECT_FALSE(static_cast<bool>(s));
  const auto stats = tensor::alloc_stats();
  EXPECT_EQ(stats.pool_hits + stats.pool_misses, 1u);  // only the acquire
}

TEST(TensorCow, CopySharesUntilFirstWrite) {
  Tensor a = Tensor::from({1.0f, 2.0f, 3.0f});
  Tensor b = a;
  EXPECT_TRUE(a.shares_storage());
  EXPECT_TRUE(b.shares_storage());
  EXPECT_EQ(raw(a), raw(b));  // const reads do not detach

  b[0] = 9.0f;  // non-const access detaches b
  EXPECT_NE(raw(a), raw(b));
  EXPECT_FALSE(a.shares_storage());
  EXPECT_FLOAT_EQ(a[0], 1.0f);
  EXPECT_FLOAT_EQ(b[0], 9.0f);
  EXPECT_FLOAT_EQ(b[1], 2.0f);  // detach copied the old contents
}

TEST(TensorCow, ReshapeIsZeroCopyAndCowSafe) {
  Tensor m = Tensor::from({1.0f, 2.0f, 3.0f, 4.0f});
  Tensor r = m.reshape(Shape{2, 2});
  EXPECT_EQ(raw(m), raw(r));  // no data copied

  r.at(0, 0) = 7.0f;  // write through the view detaches it
  EXPECT_NE(raw(m), raw(r));
  EXPECT_FLOAT_EQ(m[0], 1.0f);
  EXPECT_FLOAT_EQ(r.at(0, 0), 7.0f);
  EXPECT_FLOAT_EQ(r.at(1, 1), 4.0f);
}

TEST(TensorCow, FillDetachesWithoutCopy) {
  Tensor a = Tensor::from({1.0f, 2.0f});
  Tensor b = a;
  b.fill(5.0f);
  EXPECT_FLOAT_EQ(a[0], 1.0f);
  EXPECT_FLOAT_EQ(b[0], 5.0f);
  EXPECT_FLOAT_EQ(b[1], 5.0f);
}

TEST(TensorReuse, ResizeKeepsBufferWhenUniqueAndBigEnough) {
  Tensor t = Tensor::empty(Shape{100});  // bucket capacity 128
  const float* p = raw(t);
  t.resize(Shape{60});
  EXPECT_EQ(raw(t), p);
  t.resize(Shape{10, 12});  // 120 still fits the 128-float bucket
  EXPECT_EQ(raw(t), p);
  EXPECT_EQ(t.shape(), (Shape{10, 12}));
  t.resize(Shape{300});  // outgrows the bucket
  EXPECT_NE(raw(t), p);
}

TEST(TensorReuse, ResizeDetachesWhenShared) {
  Tensor a = Tensor::empty(Shape{64});
  a.fill(3.0f);
  Tensor b = a;
  b.resize(Shape{64});  // shared storage may not be clobbered
  EXPECT_NE(raw(a), raw(b));
  EXPECT_FLOAT_EQ(a[0], 3.0f);
}

TEST(TensorReuse, LikeMatchesShapeWithFreshStorage) {
  Tensor a = Tensor::empty(Shape{3, 5});
  Tensor b = a.like();
  EXPECT_TRUE(a.same_shape(b));
  EXPECT_NE(raw(a), raw(b));
}

TEST(Pool, RecyclesReleasedBuffersBySizeBucket) {
  tensor::reset_alloc_counters();
  const float* released = nullptr;
  {
    Tensor t = Tensor::empty(Shape{1000});
    released = raw(t);
  }
  // Same power-of-two bucket (1024 floats) -> the parked block comes back.
  Tensor u = Tensor::empty(Shape{900});
  EXPECT_EQ(raw(u), released);
  EXPECT_GE(tensor::alloc_stats().pool_hits, 1u);
}

TEST(Pool, GaugesTrackLiveAndPooledBytes) {
  tensor::trim_pool();  // start from an empty pool so deltas are exact
  const auto before = tensor::alloc_stats();
  {
    Tensor t = Tensor::empty(Shape{1024});  // exactly one 4096-byte bucket
    const auto during = tensor::alloc_stats();
    EXPECT_EQ(during.live_bytes - before.live_bytes, 4096);
    EXPECT_GE(during.peak_live_bytes, during.live_bytes);
  }
  const auto after = tensor::alloc_stats();
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  EXPECT_EQ(after.pooled_bytes - before.pooled_bytes, 4096);
}

TEST(Pool, TrimReleasesParkedBlocks) {
  { Tensor t = Tensor::empty(Shape{2048}); }
  const auto freed = tensor::trim_pool();
  EXPECT_GE(freed, static_cast<std::int64_t>(2048 * sizeof(float)));
  EXPECT_EQ(tensor::alloc_stats().pooled_bytes, 0);
}

TEST(OpsInto, ElementwiseToleratesAliasedDestination) {
  Tensor a = Tensor::from({1.0f, -2.0f, 3.0f});
  Tensor b = a;  // shares storage with a
  ops::add_into(a, a, b);
  EXPECT_FLOAT_EQ(a[1], -2.0f);  // source untouched
  EXPECT_FLOAT_EQ(b[0], 2.0f);
  EXPECT_FLOAT_EQ(b[1], -4.0f);
  EXPECT_FLOAT_EQ(b[2], 6.0f);

  ops::add_into(a, a, a);  // full self-alias runs in place
  EXPECT_FLOAT_EQ(a[0], 2.0f);
  EXPECT_FLOAT_EQ(a[1], -4.0f);
  EXPECT_FLOAT_EQ(a[2], 6.0f);
}

TEST(OpsInto, ReusesDestinationStorageAcrossCalls) {
  Tensor a = Tensor::ones(Shape{8, 8});
  Tensor b = Tensor::ones(Shape{8, 8});
  Tensor out;
  ops::matmul_into(a, b, out);
  const float* p = raw(out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 8.0f);
  tensor::reset_alloc_counters();
  ops::matmul_into(a, b, out);  // same shape -> same buffer, no pool traffic
  EXPECT_EQ(raw(out), p);
  const auto stats = tensor::alloc_stats();
  EXPECT_EQ(stats.pool_hits + stats.pool_misses, 0u);
}

TEST(OpsInto, MatmulRejectsSelfAliasedOutput) {
  Tensor a = Tensor::ones(Shape{4, 4});
  Tensor b = Tensor::ones(Shape{4, 4});
  EXPECT_THROW(ops::matmul_into(a, b, a), CheckError);
  EXPECT_THROW(ops::transpose_into(a, a), CheckError);
}

TEST(TensorInPlace, AddSelfAliasDoubles) {
  Tensor t = Tensor::from({1.0f, 2.0f});
  t.add_(t);
  EXPECT_FLOAT_EQ(t[0], 2.0f);
  EXPECT_FLOAT_EQ(t[1], 4.0f);
}

// ---- steady-state allocation regression over real training loops ----------

core::PretrainConfig loop_config(core::CqVariant variant) {
  core::PretrainConfig cfg;
  cfg.variant = variant;
  cfg.precisions = quant::PrecisionSet::range(6, 16);
  cfg.epochs = 3;
  cfg.batch_size = 8;
  cfg.lr = 0.05f;
  cfg.warmup_epochs = 0;
  cfg.proj_hidden = 16;
  cfg.proj_dim = 8;
  return cfg;
}

class PoolTrainingLoop
    : public ::testing::TestWithParam<core::CqVariant> {};

// After the first epoch warms the pool, later epochs must allocate nothing:
// every per-iteration tensor comes back out of the free lists. This is the
// allocation-regression guard for both 2-branch (CQ-A) and 4-branch (CQ-C)
// pipelines.
TEST_P(PoolTrainingLoop, SteadyStateHeapAllocationsAreZero) {
  auto scfg = data::synth_cifar_config();
  Rng data_rng(scfg.seed);
  const auto ds = data::make_synth_dataset(scfg, 24, data_rng);

  Rng rng(21);
  auto enc = models::make_encoder("resnet18", rng);
  core::SimClrCqTrainer trainer(enc, loop_config(GetParam()));
  const auto stats = trainer.train(ds);

  ASSERT_FALSE(stats.diverged);
  ASSERT_EQ(stats.epoch_heap_allocs.size(), 3u);
  EXPECT_GT(stats.first_iteration_heap_allocs, 0u);  // cold pool baseline
  EXPECT_EQ(stats.epoch_heap_allocs[1], 0u);
  EXPECT_EQ(stats.epoch_heap_allocs[2], 0u);
  EXPECT_DOUBLE_EQ(stats.steady_allocs_per_iteration, 0.0);
  EXPECT_GT(stats.pool_hits, stats.pool_misses);
}

INSTANTIATE_TEST_SUITE_P(BranchCounts, PoolTrainingLoop,
                         ::testing::Values(core::CqVariant::kCqA,
                                           core::CqVariant::kCqC),
                         [](const auto& info) {
                           return core::variant_name(info.param) == "cq-a"
                                      ? std::string("two_branches")
                                      : std::string("four_branches");
                         });

}  // namespace
}  // namespace cq
