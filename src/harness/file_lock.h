/**
 * @file
 * Advisory whole-file lock (flock) for cross-process publish discipline.
 *
 * The result cache, the trace store and the checkpoint store all follow
 * "write a temp, rename into place" — atomic against readers, but two
 * *processes* publishing concurrently could still duplicate work (both
 * capture the same workload) or lose each other's cache lines (both
 * rewrite the whole file).  Every bench binary run from one directory
 * shares rnr_results.cache, rnr_traces/ and rnr_ckpt/ by default, so
 * the stores serialise their publish sections with an advisory
 * flock(2) on a sidecar lock file.
 *
 * Properties that make flock the right tool here:
 *  - released automatically when the process dies (a killed bench
 *    can never wedge the stores);
 *  - advisory: a reader that ignores the lock still sees consistent
 *    data thanks to the atomic rename — the lock only prevents
 *    duplicated or lost *work*;
 *  - degrades to a no-op where unsupported (Windows, exotic
 *    filesystems): held() is false and callers proceed with the
 *    PR 1-era single-process guarantees.
 */
#ifndef RNR_HARNESS_FILE_LOCK_H
#define RNR_HARNESS_FILE_LOCK_H

#include <string>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#endif

namespace rnr {

/** RAII advisory lock on a sidecar file; move-only. */
class FileLock
{
  public:
    enum class Mode {
        Block, ///< wait for the lock
        Try,   ///< LOCK_NB: fail immediately if another process holds it
    };

    FileLock() = default;
    FileLock(const std::string &path, Mode mode) { acquire(path, mode); }

    FileLock(FileLock &&other) noexcept : fd_(other.fd_)
    {
        other.fd_ = -1;
    }
    FileLock &operator=(FileLock &&other) noexcept
    {
        if (this != &other) {
            release();
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }
    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

    ~FileLock() { release(); }

    /** Takes the lock; returns held().  Open/lock failures (including
     *  Mode::Try contention) leave the lock unheld, never throw. */
    bool
    acquire(const std::string &path, Mode mode)
    {
        release();
#ifndef _WIN32
        const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC,
                              0644);
        if (fd < 0)
            return false;
        const int op = LOCK_EX | (mode == Mode::Try ? LOCK_NB : 0);
        int rc;
        do {
            rc = ::flock(fd, op);
        } while (rc != 0 && errno == EINTR);
        if (rc != 0) {
            ::close(fd);
            return false;
        }
        fd_ = fd;
#else
        (void)path;
        (void)mode;
#endif
        return held();
    }

    void
    release()
    {
#ifndef _WIN32
        if (fd_ >= 0)
            ::close(fd_); // closing drops the flock
#endif
        fd_ = -1;
    }

    bool held() const { return fd_ >= 0; }

  private:
    int fd_ = -1;
};

} // namespace rnr

#endif // RNR_HARNESS_FILE_LOCK_H
