#ifndef SCUBA_DISK_FILE_H_
#define SCUBA_DISK_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/byte_buffer.h"
#include "util/slice.h"
#include "util/status.h"

namespace scuba {

/// Append-only file with explicit fsync, used for the on-disk backups.
/// During normal operation writes are asynchronous (OS page cache); the
/// clean-shutdown path calls Sync() to finish "any pending synchronization
/// with the data on disk" (§4.1).
class AppendableFile {
 public:
  static StatusOr<AppendableFile> Open(const std::string& path);

  AppendableFile(AppendableFile&& other) noexcept;
  AppendableFile& operator=(AppendableFile&& other) noexcept;
  AppendableFile(const AppendableFile&) = delete;
  AppendableFile& operator=(const AppendableFile&) = delete;
  ~AppendableFile();

  Status Append(const void* data, size_t size);
  Status Sync();
  Status Close();

  const std::string& path() const { return path_; }
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  AppendableFile(std::string path, int fd)
      : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_ = -1;
  uint64_t bytes_written_ = 0;
};

/// Reads a whole file into `out`. When `throttle_bytes_per_sec` > 0 the
/// read is paced to that bandwidth — used to model the paper's spinning
/// disks (~85 MB/s effective for the 120 GB / 20-25 min read, §1) on a
/// machine whose local filesystem is much faster.
Status ReadFileFully(const std::string& path, ByteBuffer* out,
                     uint64_t throttle_bytes_per_sec = 0);

/// Reads a file front to back in pieces of kPieceBytes, holding only the
/// bytes not yet handed out plus one piece — so a recovery streams a backup
/// file instead of reading it whole. The length is fixed at Open: bytes
/// appended later are never read. Reads are paced like ReadFileFully's,
/// and read_micros() charges only the reads and their pacing, never the
/// caller's work between Reads, so a read/translate split stays exact.
class ChunkedFileReader {
 public:
  static constexpr size_t kPieceBytes = size_t{1} << 20;

  /// Opens `path` to read at most its first `limit` bytes.
  static StatusOr<ChunkedFileReader> Open(const std::string& path,
                                          uint64_t limit,
                                          uint64_t throttle_bytes_per_sec);

  ChunkedFileReader(ChunkedFileReader&& other) noexcept;
  ChunkedFileReader& operator=(ChunkedFileReader&& other) = delete;
  ChunkedFileReader(const ChunkedFileReader&) = delete;
  ChunkedFileReader& operator=(const ChunkedFileReader&) = delete;
  ~ChunkedFileReader();

  const std::string& path() const { return path_; }
  /// Bytes of the (limited) file not yet handed out by Read.
  uint64_t remaining() const { return size_ - position_; }

  /// Hands out the next `n` bytes (n <= remaining()) as `*out`, valid until
  /// the next Read, reading further pieces as needed.
  Status Read(size_t n, Slice* out);

  uint64_t bytes_read() const { return bytes_read_; }
  int64_t read_micros() const { return read_micros_; }

 private:
  ChunkedFileReader(std::string path, int fd, uint64_t size,
                    uint64_t throttle_bytes_per_sec)
      : path_(std::move(path)),
        fd_(fd),
        size_(size),
        throttle_(throttle_bytes_per_sec) {}

  std::string path_;
  int fd_ = -1;
  uint64_t size_ = 0;
  uint64_t throttle_ = 0;
  uint64_t position_ = 0;  // bytes handed out
  std::vector<uint8_t> buffer_;
  size_t begin_ = 0;  // buffer_[begin_, end_) is read but not handed out
  size_t end_ = 0;
  uint64_t bytes_read_ = 0;
  int64_t read_micros_ = 0;
};

/// True if `path` exists.
bool FileExists(const std::string& path);

/// Size of `path` in bytes, or 0.
uint64_t FileSize(const std::string& path);

/// Creates `dir` (single level) if missing.
Status EnsureDir(const std::string& dir);

/// Removes a file; OK if missing.
Status RemoveFile(const std::string& path);

/// Lists regular files in `dir` with the given suffix (names only).
StatusOr<std::vector<std::string>> ListFiles(const std::string& dir,
                                             const std::string& suffix);

}  // namespace scuba

#endif  // SCUBA_DISK_FILE_H_
