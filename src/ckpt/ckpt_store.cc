#include "ckpt/ckpt_store.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "ckpt/checkpoint.h"

namespace fs = std::filesystem;

namespace rnr {
namespace ckpt {

namespace {

/** In-flight / lock-file slot name for (key, window). */
std::string
slotName(const std::string &key, std::uint64_t window)
{
    return ckptHashName(key) + ".w" + std::to_string(window);
}

std::string
produceLockPath(const std::string &slot)
{
    return CheckpointStore::rootPath() + "/" + slot + ".lock";
}

/** The header key a snapshot is addressed by: the full key when set
 *  (files from the retired whole-machine snapshots), else the workload
 *  key (input snapshots). */
const std::string &
addressKey(const SnapshotHeader &h)
{
    return h.full_key.empty() ? h.workload_key : h.full_key;
}

} // namespace

std::string
ckptHashName(const std::string &key)
{
    const std::uint64_t h = fnv1a64(key.data(), key.size());
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

CheckpointStore &
CheckpointStore::instance()
{
    static CheckpointStore store;
    return store;
}

bool
CheckpointStore::enabled()
{
    const char *p = std::getenv("RNR_CKPT");
    return !(p && std::string(p) == "0");
}

std::string
CheckpointStore::rootPath()
{
    if (const char *p = std::getenv("RNR_CKPT_DIR"); p && *p)
        return p;
    return "rnr_ckpt";
}

std::string
CheckpointStore::snapshotPath(const std::string &key, std::uint64_t window)
{
    return rootPath() + "/" + slotName(key, window) + ".ckpt";
}

bool
CheckpointStore::openSnapshotLocked(const std::string &key,
                                    std::uint64_t window,
                                    std::vector<std::uint8_t> &blob)
{
    const std::string path = snapshotPath(key, window);
    std::error_code ec;
    if (!fs::exists(path, ec))
        return false;

    std::vector<std::uint8_t> data;
    std::string why;
    if (CkptIoResult r = readSnapshotFile(path, data); !r.ok()) {
        why = r.message();
    } else {
        SnapshotReader reader;
        if (CkptIoResult r2 = reader.parse(data); !r2.ok())
            why = r2.message();
        else if (addressKey(reader.header()) != key)
            // Hash collision: the slot belongs to another key.  Miss,
            // but do NOT quarantine — the other key's snapshot is fine.
            return false;
        else if (reader.header().window != window)
            why = "header window " +
                  std::to_string(reader.header().window) +
                  " does not match slot";
    }
    if (!why.empty()) {
        std::fprintf(stderr,
                     "rnr: warning: ckpt: dropping corrupt snapshot %s: %s\n",
                     path.c_str(), why.c_str());
        fs::remove(path, ec);
        ++quarantines_;
        return false;
    }
    blob = std::move(data);
    return true;
}

CheckpointStore::Acquire
CheckpointStore::acquire(const std::string &key, std::uint64_t window,
                         std::vector<std::uint8_t> &blob)
{
    const std::string slot = slotName(key, window);
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        if (openSnapshotLocked(key, window, blob))
            return Acquire::Hit;
        if (!inflight_.insert(slot).second) {
            // A thread of this process is already producing.
            cv_.wait(lock);
            continue;
        }
        // In-process owner; now contend with other *processes* sharing
        // this store directory for the same snapshot through a flock.
        std::error_code ec;
        fs::create_directories(rootPath(), ec);
        auto fl = std::make_unique<FileLock>(produceLockPath(slot),
                                             FileLock::Mode::Try);
        if (fl->held()) {
            locks_[slot] = std::move(fl);
            return Acquire::Owner;
        }
        // Another process holds the lock (or flock is unsupported).
        // Wait without wedging this process's other threads: drop mu_,
        // block on the lock, re-check from scratch.
        inflight_.erase(slot);
        cv_.notify_all();
        lock.unlock();
        FileLock waiter(produceLockPath(slot), FileLock::Mode::Block);
        const bool waited = waiter.held();
        waiter.release();
        lock.lock();
        if (!waited) {
            // flock unsupported (exotic fs, Windows): degrade to the
            // single-process guarantee and produce ourselves.
            if (inflight_.insert(slot).second)
                return Acquire::Owner;
            cv_.wait(lock);
        }
        // Re-loop: the other process published (-> Hit) or abandoned
        // (-> we become the owner on the next iteration).
    }
}

void
CheckpointStore::releaseOwnership(const std::string &slot)
{
    bool held_flock = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        held_flock = locks_.erase(slot) != 0; // drops the flock, if any
        inflight_.erase(slot);
    }
    if (held_flock) {
        // We held the flock, so no other process does: the lock file
        // is ours to remove.  A waiter racing on the old inode at
        // worst produces redundantly, and publish stays an atomic
        // rename either way.
        std::error_code ec;
        fs::remove(produceLockPath(slot), ec);
    }
    cv_.notify_all();
}

bool
CheckpointStore::publish(const std::string &key, std::uint64_t window,
                         const std::vector<std::uint8_t> &blob)
{
    const std::string path = snapshotPath(key, window);
    const CkptIoResult r = writeSnapshotFile(path, blob);
    if (r.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        ++saves_;
    } else {
        std::fprintf(stderr,
                     "rnr: warning: ckpt: snapshot publish failed %s: %s\n",
                     path.c_str(), r.message().c_str());
    }
    releaseOwnership(slotName(key, window));
    return r.ok();
}

void
CheckpointStore::abandon(const std::string &key, std::uint64_t window)
{
    releaseOwnership(slotName(key, window));
}

void
CheckpointStore::invalidate(const std::string &key, std::uint64_t window)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::error_code ec;
    fs::remove(snapshotPath(key, window), ec);
    ++quarantines_;
}

std::uint64_t
CheckpointStore::warmups() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return warmups_;
}

std::uint64_t
CheckpointStore::forks() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return forks_;
}

std::uint64_t
CheckpointStore::saves() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return saves_;
}

std::uint64_t
CheckpointStore::quarantines() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return quarantines_;
}

void
CheckpointStore::noteWarmup()
{
    std::lock_guard<std::mutex> lock(mu_);
    ++warmups_;
}

void
CheckpointStore::noteFork()
{
    std::lock_guard<std::mutex> lock(mu_);
    ++forks_;
}

void
CheckpointStore::resetForTest()
{
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.clear();
    locks_.clear();
    warmups_ = forks_ = saves_ = quarantines_ = 0;
}

} // namespace ckpt
} // namespace rnr
