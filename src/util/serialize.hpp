// Tiny binary (de)serialization for model checkpoints.
//
// Format: magic "CQCK", u32 version, then a sequence of records written by
// the caller. Readers validate the magic/version and every length prefix, so
// a truncated or foreign file fails loudly instead of yielding garbage
// weights.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace cq {

/// Writes to a temp file beside `path` that is unique to this writer, and
/// publishes it by renaming it onto `path` in close(). A reader of `path`
/// therefore sees either no file or a complete one: a process killed or a
/// writer that throws mid-save leaves `path` as it was.
class BinaryWriter {
 public:
  explicit BinaryWriter(const std::string& path);

  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_f32(float v);
  void write_string(const std::string& s);
  void write_f32_array(const std::vector<float>& v);
  void write_u32_array(const std::vector<std::uint32_t>& v);
  void write_u64_array(const std::vector<std::uint64_t>& v);

  /// Flushes, closes and renames the temp file onto the path; throws on I/O
  /// failure. A writer destroyed without a successful close() removes its
  /// temp file and publishes nothing.
  void close();

  ~BinaryWriter();
  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

 private:
  std::string path_;
  std::string tmp_path_;
  std::ofstream out_;
  bool closed_ = false;
};

class BinaryReader {
 public:
  explicit BinaryReader(const std::string& path);

  std::uint32_t read_u32();
  std::uint64_t read_u64();
  float read_f32();
  std::string read_string();
  std::vector<float> read_f32_array();
  std::vector<std::uint32_t> read_u32_array();
  std::vector<std::uint64_t> read_u64_array();

  /// Validates that the stream is positioned exactly at end-of-file, i.e.
  /// every byte of the file was consumed by the records read so far. Throws
  /// CheckError on trailing bytes — a checkpoint with garbage (or a second
  /// concatenated checkpoint) after the last record is corrupt, not merely
  /// over-long. Call after the final expected record.
  void expect_eof();

  /// True when the full header matched and no read has failed.
  bool ok() const { return ok_; }

 private:
  void require(bool cond, const char* what);
  /// Reads a record's element count and rejects it, before the caller
  /// allocates, when `elem_size`-byte elements would run past the file end
  /// or the count reaches 2^30.
  std::uint64_t read_length(std::size_t elem_size);

  std::ifstream in_;
  std::string path_;
  std::uint64_t size_ = 0;  // file size in bytes
  bool ok_ = true;
};

/// Checkpoint file version written by BinaryWriter's header helpers.
inline constexpr std::uint32_t kCheckpointVersion = 1;

/// Writes the "CQCK" magic + version header.
void write_checkpoint_header(BinaryWriter& w);
/// Reads and validates the header; throws CheckError on mismatch.
void read_checkpoint_header(BinaryReader& r);

}  // namespace cq
