#include "util/atomic_file.hpp"

#include <cerrno>
#include <cstdio>
#include <fcntl.h>
#include <string>
#include <unistd.h>

namespace gsph::util {

namespace {

/// fsync a directory so a rename inside it is durable.  Best-effort: some
/// filesystems refuse O_DIRECTORY fsync; the rename is still atomic.
void fsync_parent_dir(const std::string& path)
{
    const auto slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return;
    ::fsync(fd);
    ::close(fd);
}

/// Writes all of `content` to `fd` at `offset`, retrying short writes.
bool write_all_at(int fd, std::uint64_t offset, const std::string& content)
{
    const char* data = content.data();
    std::size_t remaining = content.size();
    while (remaining > 0) {
        const ssize_t n = ::pwrite(fd, data, remaining, static_cast<off_t>(offset));
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        data += n;
        offset += static_cast<std::uint64_t>(n);
        remaining -= static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

bool write_file_at(const std::string& path, std::uint64_t offset, const std::string& content)
{
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
    if (fd < 0) return false;
    const bool ok =
        write_all_at(fd, offset, content) &&
        ::ftruncate(fd, static_cast<off_t>(offset + content.size())) == 0 &&
        ::fsync(fd) == 0;
    return ::close(fd) == 0 && ok;
}

bool atomic_write_file(const std::string& path, const std::string& content)
{
    if (path.empty()) return false;
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return false;

    if (!write_all_at(fd, 0, content)) {
        ::close(fd);
        ::unlink(tmp.c_str());
        return false;
    }
    if (::fsync(fd) != 0 || ::close(fd) != 0) {
        ::unlink(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        return false;
    }
    fsync_parent_dir(path);
    return true;
}

} // namespace gsph::util
