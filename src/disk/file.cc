#include "disk/file.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "util/clock.h"

namespace scuba {
namespace {

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

// Reads up to `n` bytes from `fd` into `dst` (*got = 0 at end of file),
// then paces: sleeps until the time charged to reads — *read_micros, which
// this call adds to — catches up with the modeled disk's transfer time for
// the *total_read bytes read so far.
Status PacedRead(int fd, const std::string& path, uint8_t* dst, size_t n,
                 uint64_t throttle_bytes_per_sec, uint64_t* total_read,
                 int64_t* read_micros, size_t* got) {
  Stopwatch watch;
  ssize_t r;
  do {
    r = ::read(fd, dst, n);
  } while (r < 0 && errno == EINTR);
  if (r < 0) return Status::IOError(ErrnoMessage("read", path));
  *got = static_cast<size_t>(r);
  *total_read += *got;
  if (throttle_bytes_per_sec > 0 && *got > 0) {
    int64_t target_micros = static_cast<int64_t>(
        *total_read * 1000000.0 / static_cast<double>(throttle_bytes_per_sec));
    int64_t ahead = target_micros - (*read_micros + watch.ElapsedMicros());
    if (ahead > 0) RealClock::Get()->SleepMicros(ahead);
  }
  *read_micros += watch.ElapsedMicros();
  return Status::OK();
}

StatusOr<int> OpenForRead(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("file not found: " + path);
    return Status::IOError(ErrnoMessage("open", path));
  }
  return fd;
}

}  // namespace

StatusOr<AppendableFile> AppendableFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) return Status::IOError(ErrnoMessage("open", path));
  return AppendableFile(path, fd);
}

AppendableFile::AppendableFile(AppendableFile&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(other.fd_),
      bytes_written_(other.bytes_written_) {
  other.fd_ = -1;
}

AppendableFile& AppendableFile::operator=(AppendableFile&& other) noexcept {
  if (this != &other) {
    Close().ok();
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    bytes_written_ = other.bytes_written_;
    other.fd_ = -1;
  }
  return *this;
}

AppendableFile::~AppendableFile() { Close().ok(); }

Status AppendableFile::Append(const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  size_t remaining = size;
  while (remaining > 0) {
    ssize_t n = ::write(fd_, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(ErrnoMessage("write", path_));
    }
    p += n;
    remaining -= static_cast<size_t>(n);
  }
  bytes_written_ += size;
  return Status::OK();
}

Status AppendableFile::Sync() {
  if (::fsync(fd_) != 0) return Status::IOError(ErrnoMessage("fsync", path_));
  return Status::OK();
}

Status AppendableFile::Close() {
  if (fd_ >= 0) {
    int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) {
      return Status::IOError(ErrnoMessage("close", path_));
    }
  }
  return Status::OK();
}

Status ReadFileFully(const std::string& path, ByteBuffer* out,
                     uint64_t throttle_bytes_per_sec) {
  SCUBA_ASSIGN_OR_RETURN(int fd, OpenForRead(path));
  out->Clear();

  constexpr size_t kChunk = ChunkedFileReader::kPieceBytes;
  std::vector<uint8_t> chunk(kChunk);
  uint64_t total_read = 0;
  int64_t read_micros = 0;
  for (;;) {
    size_t n = 0;
    Status s = PacedRead(fd, path, chunk.data(), kChunk,
                         throttle_bytes_per_sec, &total_read, &read_micros, &n);
    if (!s.ok()) {
      ::close(fd);
      return s;
    }
    if (n == 0) break;
    out->Append(chunk.data(), n);
  }
  ::close(fd);
  return Status::OK();
}

StatusOr<ChunkedFileReader> ChunkedFileReader::Open(
    const std::string& path, uint64_t limit, uint64_t throttle_bytes_per_sec) {
  SCUBA_ASSIGN_OR_RETURN(int fd, OpenForRead(path));
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status s = Status::IOError(ErrnoMessage("fstat", path));
    ::close(fd);
    return s;
  }
  const uint64_t size = std::min(limit, static_cast<uint64_t>(st.st_size));
  return ChunkedFileReader(path, fd, size, throttle_bytes_per_sec);
}

ChunkedFileReader::ChunkedFileReader(ChunkedFileReader&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(std::exchange(other.fd_, -1)),
      size_(other.size_),
      throttle_(other.throttle_),
      position_(other.position_),
      buffer_(std::move(other.buffer_)),
      begin_(other.begin_),
      end_(other.end_),
      bytes_read_(other.bytes_read_),
      read_micros_(other.read_micros_) {}

ChunkedFileReader::~ChunkedFileReader() {
  if (fd_ >= 0) ::close(fd_);
}

Status ChunkedFileReader::Read(size_t n, Slice* out) {
  if (n > remaining()) {
    return Status::InvalidArgument("read past the end of " + path_);
  }
  if (end_ - begin_ < n) {
    // Keep the bytes not yet handed out, then fill up from the file.
    if (begin_ > 0) {
      std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
    }
    if (buffer_.size() < std::max(n, kPieceBytes)) {
      buffer_.resize(std::max(n, kPieceBytes));
    }
    while (end_ < n) {
      const size_t want = static_cast<size_t>(std::min<uint64_t>(
          {buffer_.size() - end_, kPieceBytes, size_ - bytes_read_}));
      size_t got = 0;
      SCUBA_RETURN_IF_ERROR(PacedRead(fd_, path_, buffer_.data() + end_, want,
                                      throttle_, &bytes_read_, &read_micros_,
                                      &got));
      if (got == 0) {
        return Status::IOError("'" + path_ + "' shrank while being read");
      }
      end_ += got;
    }
  }
  *out = Slice(buffer_.data() + begin_, n);
  begin_ += n;
  position_ += n;
  return Status::OK();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

uint64_t FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError(ErrnoMessage("mkdir", dir));
  }
  return Status::OK();
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::IOError(ErrnoMessage("unlink", path));
  }
  return Status::OK();
}

StatusOr<std::vector<std::string>> ListFiles(const std::string& dir,
                                             const std::string& suffix) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return Status::IOError(ErrnoMessage("opendir", dir));
  std::vector<std::string> names;
  while (struct dirent* entry = ::readdir(d)) {
    std::string name(entry->d_name);
    if (name == "." || name == "..") continue;
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      names.push_back(name);
    }
  }
  ::closedir(d);
  return names;
}

}  // namespace scuba
