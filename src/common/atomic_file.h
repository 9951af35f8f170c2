#ifndef PCX_COMMON_ATOMIC_FILE_H_
#define PCX_COMMON_ATOMIC_FILE_H_

#include <string>

#include "common/status.h"

namespace pcx {

/// Status::Internal("<call>(<what>) failed: <strerror(errno)>").
Status ErrnoStatus(const std::string& call, const std::string& what);

/// Writes all of `bytes` to `fd`, retrying short writes and EINTR.
/// `what` names the file in the error.
Status WriteAll(int fd, const std::string& bytes, const std::string& what);

/// fsync(2) with a typed error naming `what`.
Status Fsync(int fd, const std::string& what);

/// Replaces `path` with `bytes` crash-safely: writes and fsyncs
/// `path`.tmp, renames it over `path`, then fsyncs the directory. A
/// crash leaves the old file or the new one, never a mix; a failed
/// write leaves the old file untouched and removes the tmp file.
Status AtomicWriteFile(const std::string& path, const std::string& bytes);

}  // namespace pcx

#endif  // PCX_COMMON_ATOMIC_FILE_H_
