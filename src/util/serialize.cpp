#include "util/serialize.hpp"

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>

#include "util/check.hpp"

namespace cq {

namespace {
constexpr char kMagic[4] = {'C', 'Q', 'C', 'K'};

/// `path` plus a suffix no other writer shares: the pid keeps concurrent
/// processes apart, the counter concurrent writers within one.
std::string temp_name(const std::string& path) {
  static std::atomic<std::uint64_t> counter{0};
  return path + "." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1)) + ".tmp";
}
}  // namespace

BinaryWriter::BinaryWriter(const std::string& path)
    : path_(path),
      tmp_path_(temp_name(path)),
      out_(tmp_path_, std::ios::binary) {
  CQ_CHECK_MSG(out_.good(), "cannot open " << tmp_path_ << " for writing");
}

void BinaryWriter::write_u32(std::uint32_t v) {
  out_.write(reinterpret_cast<const char*>(&v), sizeof v);
}

void BinaryWriter::write_u64(std::uint64_t v) {
  out_.write(reinterpret_cast<const char*>(&v), sizeof v);
}

void BinaryWriter::write_f32(float v) {
  out_.write(reinterpret_cast<const char*>(&v), sizeof v);
}

void BinaryWriter::write_string(const std::string& s) {
  write_u64(s.size());
  out_.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void BinaryWriter::write_f32_array(const std::vector<float>& v) {
  write_u64(v.size());
  out_.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(float)));
}

void BinaryWriter::write_u32_array(const std::vector<std::uint32_t>& v) {
  write_u64(v.size());
  out_.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(std::uint32_t)));
}

void BinaryWriter::write_u64_array(const std::vector<std::uint64_t>& v) {
  write_u64(v.size());
  out_.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(std::uint64_t)));
}

void BinaryWriter::close() {
  if (closed_) return;
  out_.close();
  CQ_CHECK_MSG(!out_.fail(), "write failure on " << tmp_path_);
  std::error_code ec;
  std::filesystem::rename(tmp_path_, path_, ec);
  CQ_CHECK_MSG(!ec, "cannot publish " << path_ << ": " << ec.message());
  closed_ = true;
}

BinaryWriter::~BinaryWriter() {
  if (closed_) return;
  out_.close();
  std::error_code ec;
  std::filesystem::remove(tmp_path_, ec);  // best effort: nothing to report
}

BinaryReader::BinaryReader(const std::string& path)
    : in_(path, std::ios::binary | std::ios::ate), path_(path) {
  CQ_CHECK_MSG(in_.good(), "cannot open " << path << " for reading");
  size_ = static_cast<std::uint64_t>(in_.tellg());
  in_.seekg(0);
}

void BinaryReader::require(bool cond, const char* what) {
  if (!cond) {
    ok_ = false;
    CQ_CHECK_MSG(false, "corrupt checkpoint " << path_ << ": " << what);
  }
}

std::uint32_t BinaryReader::read_u32() {
  std::uint32_t v = 0;
  in_.read(reinterpret_cast<char*>(&v), sizeof v);
  require(in_.good(), "truncated u32");
  return v;
}

std::uint64_t BinaryReader::read_u64() {
  std::uint64_t v = 0;
  in_.read(reinterpret_cast<char*>(&v), sizeof v);
  require(in_.good(), "truncated u64");
  return v;
}

float BinaryReader::read_f32() {
  float v = 0;
  in_.read(reinterpret_cast<char*>(&v), sizeof v);
  require(in_.good(), "truncated f32");
  return v;
}

std::uint64_t BinaryReader::read_length(std::size_t elem_size) {
  const auto n = read_u64();
  const auto left = size_ - static_cast<std::uint64_t>(in_.tellg());
  require(n <= left / elem_size, "record length exceeds the bytes left");
  // Loaders size products from these lengths; the cap keeps them in range.
  require(n < (1ULL << 30), "implausible record length");
  return n;
}

std::string BinaryReader::read_string() {
  std::string s(read_length(1), '\0');
  in_.read(s.data(), static_cast<std::streamsize>(s.size()));
  require(in_.good(), "truncated string");
  return s;
}

std::vector<float> BinaryReader::read_f32_array() {
  std::vector<float> v(read_length(sizeof(float)));
  in_.read(reinterpret_cast<char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(float)));
  require(in_.good(), "truncated f32 array");
  return v;
}

std::vector<std::uint32_t> BinaryReader::read_u32_array() {
  std::vector<std::uint32_t> v(read_length(sizeof(std::uint32_t)));
  in_.read(reinterpret_cast<char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(std::uint32_t)));
  require(in_.good(), "truncated u32 array");
  return v;
}

std::vector<std::uint64_t> BinaryReader::read_u64_array() {
  std::vector<std::uint64_t> v(read_length(sizeof(std::uint64_t)));
  in_.read(reinterpret_cast<char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(std::uint64_t)));
  require(in_.good(), "truncated u64 array");
  return v;
}

void BinaryReader::expect_eof() {
  require(in_.peek() == std::char_traits<char>::eof(),
          "trailing bytes after final record");
}

void write_checkpoint_header(BinaryWriter& w) {
  std::uint32_t magic = 0;
  std::memcpy(&magic, kMagic, 4);
  w.write_u32(magic);
  w.write_u32(kCheckpointVersion);
}

void read_checkpoint_header(BinaryReader& r) {
  std::uint32_t magic_expect = 0;
  std::memcpy(&magic_expect, kMagic, 4);
  const auto magic = r.read_u32();
  CQ_CHECK_MSG(magic == magic_expect, "bad checkpoint magic");
  const auto version = r.read_u32();
  CQ_CHECK_MSG(version == kCheckpointVersion,
               "unsupported checkpoint version " << version);
}

}  // namespace cq
