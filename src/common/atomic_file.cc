#include "common/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace pcx {

Status ErrnoStatus(const std::string& call, const std::string& what) {
  return Status::Internal(call + "(" + what +
                          ") failed: " + std::strerror(errno));
}

Status WriteAll(int fd, const std::string& bytes, const std::string& what) {
  for (size_t off = 0; off < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno != EINTR) return ErrnoStatus("write", what);
    if (n > 0) off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status Fsync(int fd, const std::string& what) {
  return ::fsync(fd) == 0 ? Status::OK() : ErrnoStatus("fsync", what);
}

Status AtomicWriteFile(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("open", tmp);
  Status s = WriteAll(fd, bytes, tmp);
  if (s.ok()) s = Fsync(fd, tmp);
  ::close(fd);
  if (s.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    s = ErrnoStatus("rename", tmp + " -> " + path);
  }
  if (!s.ok()) {
    ::unlink(tmp.c_str());
    return s;
  }
  // The rename is durable once the directory holding it is synced.
  const size_t slash = path.rfind('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) return ErrnoStatus("open", dir);
  s = Fsync(dir_fd, dir);
  ::close(dir_fd);
  return s;
}

}  // namespace pcx
