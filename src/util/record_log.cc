#include "src/util/record_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "src/util/strings.h"

namespace cyrus {
namespace {

// Reads errno, so call it right after the failing system call.
Status IoError(std::string_view what, const std::string& path) {
  return UnavailableError(StrCat(what, " ", path, ": ", std::strerror(errno)));
}

bool WriteAll(int fd, ByteSpan data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    data = data.subspan(static_cast<size_t>(n));
  }
  return true;
}

// Makes the directory entry for `path` durable: without this, a crash
// after rename() can resurface the old file (or none at all) even though
// the new file's data was fsynced.
bool FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : (slash == 0 ? "/" : path.substr(0, slash));
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return false;
  }
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  return synced;
}

}  // namespace

Status ReplaceFileAtomically(const std::string& path, ByteSpan data) {
  const std::string tmp = path + ".tmp";
  const auto fail = [&tmp](std::string_view what) {
    const Status error = IoError(what, tmp);
    ::unlink(tmp.c_str());
    return error;
  };
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return IoError("cannot create", tmp);
  }
  if (!WriteAll(fd, data) || ::fsync(fd) != 0) {
    const Status error = fail("cannot write");
    ::close(fd);
    return error;
  }
  if (::close(fd) != 0) {
    return fail("cannot close");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail("cannot rename");
  }
  if (!FsyncParentDir(path)) {
    return IoError("cannot sync the directory of", path);
  }
  return OkStatus();
}

RecordLog::RecordLog(std::string path) : path_(std::move(path)) {}

RecordLog::~RecordLog() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status RecordLog::Replay(const std::function<Status(std::string_view)>& apply) const {
  const int fd = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return errno == ENOENT ? OkStatus() : IoError("cannot open", path_);
  }
  std::string text;
  char buffer[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n == 0) {
      break;
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      const Status error = IoError("cannot read", path_);
      ::close(fd);
      return error;
    }
    text.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  // Only newline-terminated records were ever acknowledged: whatever
  // follows the last '\n' is a torn append, dropped even if it parses.
  const std::string_view all(text);
  size_t begin = 0;
  for (size_t end = all.find('\n'); end != std::string_view::npos;
       begin = end + 1, end = all.find('\n', begin)) {
    if (end > begin) {
      CYRUS_RETURN_IF_ERROR(apply(all.substr(begin, end - begin)));
    }
  }
  return OkStatus();
}

Status RecordLog::Compact(const std::vector<std::string>& records) {
  std::string text;
  for (const std::string& record : records) {
    text += record;
    text += '\n';
  }
  CYRUS_RETURN_IF_ERROR(ReplaceFileAtomically(path_, AsByteSpan(text)));
  if (fd_ >= 0) {
    ::close(fd_);
  }
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ < 0) {
    return IoError("cannot append to", path_);
  }
  size_ = static_cast<off_t>(text.size());
  return OkStatus();
}

Status RecordLog::Append(std::string_view record) {
  if (fd_ < 0) {
    return FailedPreconditionError(StrCat(path_, " is not open for append"));
  }
  std::string line(record);
  line += '\n';
  if (WriteAll(fd_, AsByteSpan(line)) && ::fsync(fd_) == 0) {
    size_ += static_cast<off_t>(line.size());
    return OkStatus();
  }
  const Status error = IoError("cannot append to", path_);
  // Cut off whatever part of the record landed, so the next append starts
  // on a record boundary; if even that fails, stop appending, since a
  // later record would glue onto the torn one.
  if (::ftruncate(fd_, size_) != 0) {
    ::close(fd_);
    fd_ = -1;
  }
  return error;
}

}  // namespace cyrus
