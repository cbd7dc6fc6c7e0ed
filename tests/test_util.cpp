#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>

#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/table.hpp"

namespace cq {
namespace {

TEST(Check, ThrowsWithMessage) {
  EXPECT_THROW(CQ_CHECK(1 == 2), CheckError);
  try {
    CQ_CHECK_MSG(false, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  EXPECT_NO_THROW(CQ_CHECK(true));
  EXPECT_NO_THROW(CQ_CHECK_MSG(2 > 1, "unused"));
}

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanApproxHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(10)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 60);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(17);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NormalMoments) {
  Rng rng(19);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, NormalScaleAndShift) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 0.5);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[static_cast<std::size_t>(i)] = i;
  auto sorted = v;
  rng.shuffle(v);
  EXPECT_NE(v, sorted);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(31);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Splitmix, KnownSequenceIsDeterministic) {
  std::uint64_t s1 = 42, s2 = 42;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
}

TEST(Table, RendersAlignedRows) {
  TableWriter t({"Network", "Acc"});
  t.add_row({"resnet18", "42.44"});
  t.add_row({"r34", "47.53"});
  const auto s = t.render();
  EXPECT_NE(s.find("| Network"), std::string::npos);
  EXPECT_NE(s.find("resnet18"), std::string::npos);
  EXPECT_NE(s.find("47.53"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  TableWriter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(TableWriter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TableWriter::num(2.0, 1), "2.0");
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = "test_csv_out.csv";
  {
    CsvWriter csv(path, {"x", "y"});
    csv.add_row(std::vector<std::string>{"1", "2"});
    csv.add_row(std::vector<double>{3.5, 4.5});
    csv.close();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "3.5,4.5");
  std::filesystem::remove(path);
}

TEST(Csv, RejectsArityMismatch) {
  CsvWriter csv("test_csv_bad.csv", {"a", "b"});
  EXPECT_THROW(csv.add_row(std::vector<std::string>{"1"}), CheckError);
  csv.close();
  std::filesystem::remove("test_csv_bad.csv");
}

TEST(Serialize, RoundTripsAllTypes) {
  const std::string path = "test_ser.bin";
  {
    BinaryWriter w(path);
    write_checkpoint_header(w);
    w.write_u32(7);
    w.write_u64(1ULL << 40);
    w.write_f32(2.5f);
    w.write_string("hello");
    w.write_f32_array({1.0f, -2.0f, 3.0f});
    w.close();
  }
  BinaryReader r(path);
  read_checkpoint_header(r);
  EXPECT_EQ(r.read_u32(), 7u);
  EXPECT_EQ(r.read_u64(), 1ULL << 40);
  EXPECT_FLOAT_EQ(r.read_f32(), 2.5f);
  EXPECT_EQ(r.read_string(), "hello");
  const auto arr = r.read_f32_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_FLOAT_EQ(arr[1], -2.0f);
  std::filesystem::remove(path);
}

TEST(Serialize, WriterPublishesOnlyOnClose) {
  // A loader trusts any file at a checkpoint's path, so the path must not
  // exist until the whole file is written: a writer that throws before
  // close() leaves neither the path nor its temp file behind.
  const auto dir = std::filesystem::path(testing::TempDir()) / "cq_ser_publish";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "ckpt.bin").string();
  {
    BinaryWriter w(path);
    write_checkpoint_header(w);
    w.write_u32(42);
    EXPECT_FALSE(std::filesystem::exists(path));
    w.close();
    EXPECT_TRUE(std::filesystem::exists(path));
  }
  BinaryReader r(path);
  read_checkpoint_header(r);
  EXPECT_EQ(r.read_u32(), 42u);
  EXPECT_NO_THROW(r.expect_eof());
  std::filesystem::remove(path);

  const auto interrupted_save = [&] {
    BinaryWriter w(path);
    write_checkpoint_header(w);
    throw std::runtime_error("save interrupted");
  };
  EXPECT_THROW(interrupted_save(), std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(Serialize, RejectsBadMagic) {
  const std::string path = "test_ser_bad.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTACKPT-garbage-bytes";
  }
  BinaryReader r(path);
  EXPECT_THROW(read_checkpoint_header(r), CheckError);
  std::filesystem::remove(path);
}

TEST(Serialize, ExpectEofAcceptsCleanEnd) {
  const std::string path = "test_ser_eof.bin";
  {
    BinaryWriter w(path);
    write_checkpoint_header(w);
    w.write_u32(42);
    w.close();
  }
  BinaryReader r(path);
  read_checkpoint_header(r);
  EXPECT_EQ(r.read_u32(), 42u);
  EXPECT_NO_THROW(r.expect_eof());
  std::filesystem::remove(path);
}

TEST(Serialize, ExpectEofRejectsTrailingBytes) {
  // An oversized file means the reader's idea of the format disagrees with
  // the writer's — load must fail loudly, not silently ignore the tail.
  const std::string path = "test_ser_tail.bin";
  {
    BinaryWriter w(path);
    write_checkpoint_header(w);
    w.write_u32(42);
    w.close();
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << '\0';
  }
  BinaryReader r(path);
  read_checkpoint_header(r);
  EXPECT_EQ(r.read_u32(), 42u);
  EXPECT_THROW(r.expect_eof(), CheckError);
  std::filesystem::remove(path);
}

TEST(Serialize, RejectsTruncatedFile) {
  const std::string path = "test_ser_trunc.bin";
  {
    BinaryWriter w(path);
    write_checkpoint_header(w);
    w.write_u64(1000);  // claims a long string that is not there
    w.close();
  }
  BinaryReader r(path);
  read_checkpoint_header(r);
  EXPECT_THROW(r.read_string(), CheckError);
  std::filesystem::remove(path);
}

TEST(Serialize, RejectsLengthPastFileEndBeforeAllocating) {
  // A few-byte record that claims 2^25 elements (or 2^64 - 1, whose byte
  // count overflows) must fail on its length alone, not zero-fill the
  // claimed array first and then find the file short.
  const std::string path = "test_ser_len.bin";
  for (const std::uint64_t claimed : {1ULL << 25, ~0ULL}) {
    {
      BinaryWriter w(path);
      write_checkpoint_header(w);
      w.write_u64(claimed);
      w.write_f32(1.0f);
      w.close();
    }
    const auto expect_rejected = [&](auto read) {
      BinaryReader r(path);
      read_checkpoint_header(r);
      try {
        read(r);
        ADD_FAILURE() << "length " << claimed << " accepted";
      } catch (const CheckError& e) {
        EXPECT_NE(std::string(e.what()).find("exceeds the bytes left"),
                  std::string::npos)
            << e.what();
      }
    };
    expect_rejected([](BinaryReader& r) { r.read_f32_array(); });
    expect_rejected([](BinaryReader& r) { r.read_u32_array(); });
    expect_rejected([](BinaryReader& r) { r.read_u64_array(); });
    expect_rejected([](BinaryReader& r) { r.read_string(); });
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace cq
