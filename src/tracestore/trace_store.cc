#include "tracestore/trace_store.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <vector>

#include "tracestore/trace_codec.h"
#include "tracestore/trace_file.h"

#ifdef _WIN32
#include <process.h>
#define rnr_getpid _getpid
#else
#include <unistd.h>
#define rnr_getpid getpid
#endif

namespace fs = std::filesystem;

namespace rnr {

namespace {

constexpr char kManifestMagic[] = "rnr-tracestore-v1";

std::string
entryTracePath(const std::string &dir, unsigned iter, unsigned core)
{
    return dir + "/it" + std::to_string(iter) + ".c" +
           std::to_string(core) + ".rnrt";
}

std::string
manifestPath(const std::string &dir)
{
    return dir + "/manifest";
}

/** Parses an entry manifest; false on any malformation. */
bool
parseManifest(const std::string &dir, TraceStore::Entry &out)
{
    std::ifstream in(manifestPath(dir));
    if (!in)
        return false;
    std::string line;
    if (!std::getline(in, line) || line != kManifestMagic)
        return false;
    TraceStore::Entry e;
    e.dir = dir;
    bool have_key = false;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string field;
        if (!(ls >> field))
            continue;
        if (field == "key") {
            // The key is everything after "key " (keys contain ':').
            const auto sp = line.find(' ');
            if (sp == std::string::npos)
                return false;
            e.key = line.substr(sp + 1);
            have_key = true;
        } else if (field == "iterations") {
            if (!(ls >> e.iterations))
                return false;
        } else if (field == "cores") {
            if (!(ls >> e.cores))
                return false;
        } else if (field == "records") {
            if (!(ls >> e.records))
                return false;
        } else if (field == "raw_bytes") {
            if (!(ls >> e.raw_bytes))
                return false;
        } else if (field == "stored_bytes") {
            if (!(ls >> e.stored_bytes))
                return false;
        } else if (field == "input_bytes") {
            if (!(ls >> e.input_bytes))
                return false;
        } else if (field == "target_bytes") {
            if (!(ls >> e.target_bytes))
                return false;
        } // unknown fields: forward-compatible skip
    }
    if (!have_key || e.iterations == 0 || e.cores == 0)
        return false;
    out = e;
    return true;
}

std::uint64_t
entryStoredBytes(const std::string &dir)
{
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto &f : fs::directory_iterator(dir, ec)) {
        std::error_code fec;
        const std::uintmax_t n = fs::file_size(f.path(), fec);
        if (!fec)
            total += static_cast<std::uint64_t>(n);
    }
    return total;
}

} // namespace

std::string
traceStoreHashName(const std::string &wkey)
{
    // FNV-1a 64: stable across platforms, collision-checked via the
    // manifest's full key, so it only has to spread, not be perfect.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : wkey) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

TraceStore &
TraceStore::instance()
{
    static TraceStore store;
    return store;
}

bool
TraceStore::enabled()
{
    const char *p = std::getenv("RNR_TRACE_STORE");
    return !(p && std::string(p) == "0");
}

std::string
TraceStore::rootPath()
{
    if (const char *p = std::getenv("RNR_TRACE_DIR"); p && *p)
        return p;
    return "rnr_traces";
}

std::uint64_t
TraceStore::capBytes()
{
    const char *p = std::getenv("RNR_TRACE_CAP_MB");
    if (!p || !*p)
        return 0;
    return std::strtoull(p, nullptr, 10) * 1024ull * 1024ull;
}

std::string
TraceStore::Entry::tracePath(unsigned iter, unsigned core) const
{
    return entryTracePath(dir, iter, core);
}

bool
TraceStore::openEntry(const std::string &wkey, Entry &out)
{
    const std::string dir = rootPath() + "/" + traceStoreHashName(wkey);
    std::error_code ec;
    if (!fs::exists(dir, ec))
        return false;

    Entry e;
    std::string why;
    if (!parseManifest(dir, e)) {
        why = "unreadable manifest";
    } else if (e.key != wkey) {
        // Hash collision: the slot belongs to another key.  Miss, but
        // do NOT quarantine — the other key's entry is intact.
        return false;
    } else {
        std::uint64_t records = 0;
        for (unsigned it = 0; it < e.iterations && why.empty(); ++it) {
            for (unsigned c = 0; c < e.cores && why.empty(); ++c) {
                TraceFileStats stats;
                const std::string path = e.tracePath(it, c);
                if (TraceIoResult r = readAnyTraceFileStats(path, stats);
                    !r)
                    why = path + ": " + r.message();
                else
                    records += stats.records;
            }
        }
        if (why.empty() && records != e.records)
            why = "manifest claims " + std::to_string(e.records) +
                  " records, files carry " + std::to_string(records);
    }
    if (!why.empty()) {
        // Corrupt entry: quarantine and recapture instead of failing.
        std::fprintf(stderr,
                     "rnr: warning: tracestore: dropping corrupt entry %s: "
                     "%s\n",
                     dir.c_str(), why.c_str());
        fs::remove_all(dir, ec);
        ++corrupt_;
        return false;
    }
    out = e;
    return true;
}

namespace {

std::string
captureLockPath(const std::string &wkey)
{
    return TraceStore::rootPath() + "/" + traceStoreHashName(wkey) +
           ".lock";
}

} // namespace

TraceStore::Acquire
TraceStore::acquire(const std::string &wkey, Entry &out)
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        if (openEntry(wkey, out)) {
            ++hits_;
            return Acquire::Hit;
        }
        if (!inflight_.insert(wkey).second) {
            // A thread of this process is already capturing.
            cv_.wait(lock);
            continue;
        }
        // In-process owner; now contend with other *processes* sharing
        // this corpus directory for the same entry through a flock.
        std::error_code ec;
        fs::create_directories(rootPath(), ec);
        auto fl = std::make_unique<FileLock>(captureLockPath(wkey),
                                             FileLock::Mode::Try);
        if (fl->held()) {
            locks_[wkey] = std::move(fl);
            return Acquire::Owner;
        }
        // Another process holds the lock (or flock is unsupported
        // here).  Wait for it without wedging this process's other
        // threads: drop mu_, block on the lock, re-check from scratch.
        inflight_.erase(wkey);
        cv_.notify_all();
        lock.unlock();
        FileLock waiter(captureLockPath(wkey), FileLock::Mode::Block);
        const bool waited = waiter.held();
        waiter.release();
        lock.lock();
        if (!waited) {
            // flock unsupported (exotic fs, Windows): degrade to the
            // single-process guarantee and capture ourselves.
            if (inflight_.insert(wkey).second)
                return Acquire::Owner;
            cv_.wait(lock);
        }
        // Re-loop: the other process published (-> Hit) or aborted
        // (-> we become the owner on the next iteration).
    }
}

void
TraceStore::releaseOwnership(const std::string &wkey)
{
    bool held_flock = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        held_flock = locks_.erase(wkey) != 0; // drops the flock, if any
        inflight_.erase(wkey);
    }
    if (held_flock) {
        // We held the flock, so no other process does: the lock file is
        // ours to remove.  A waiter racing on the old inode at worst
        // captures redundantly — the same degradation as a no-flock
        // filesystem — and publish stays an atomic rename either way.
        std::error_code ec;
        fs::remove(captureLockPath(wkey), ec);
    }
    cv_.notify_all();
}

// ---- Capture ----

TraceStore::Capture::Capture(TraceStore *store, std::string wkey,
                             unsigned iterations, unsigned cores)
    : store_(store), wkey_(std::move(wkey)), iterations_(iterations),
      cores_(cores)
{
    tmp_dir_ = rootPath() + "/.tmp." + traceStoreHashName(wkey_) + "." +
               std::to_string(rnr_getpid());
    std::error_code ec;
    fs::remove_all(tmp_dir_, ec); // stale leftover from a crashed run
    fs::create_directories(tmp_dir_, ec);
    open_ = !ec;
}

TraceStore::Capture::Capture(Capture &&other) noexcept
    : store_(other.store_), wkey_(std::move(other.wkey_)),
      tmp_dir_(std::move(other.tmp_dir_)), iterations_(other.iterations_),
      cores_(other.cores_), records_(other.records_),
      raw_bytes_(other.raw_bytes_), open_(other.open_), done_(other.done_)
{
    other.done_ = true;
    other.store_ = nullptr;
}

TraceStore::Capture::~Capture()
{
    if (done_ || !store_)
        return;
    // Abort: drop the partial capture and let a waiter take over.
    std::error_code ec;
    fs::remove_all(tmp_dir_, ec);
    store_->releaseOwnership(wkey_);
}

std::string
TraceStore::Capture::tracePath(unsigned iter, unsigned core) const
{
    return entryTracePath(tmp_dir_, iter, core);
}

TraceIoResult
TraceStore::Capture::open(unsigned iter, unsigned core, TraceFileWriter &w)
{
    if (!open_)
        return TraceIoResult::fail(TraceIoStatus::OpenFailed, tmp_dir_);
    return w.open(tracePath(iter, core));
}

TraceIoResult
TraceStore::Capture::close(TraceFileWriter &w)
{
    TraceIoResult r = w.close();
    records_ += w.stats().records;
    raw_bytes_ += w.stats().raw_bytes;
    return r;
}

TraceIoResult
TraceStore::Capture::add(unsigned iter, unsigned core,
                         const TraceBuffer &buf)
{
    TraceFileWriter w;
    if (TraceIoResult r = open(iter, core, w); !r)
        return r;
    if (!buf.empty())
        w.write(buf.records().data(), buf.size());
    return close(w);
}

bool
TraceStore::Capture::publish(std::uint64_t input_bytes,
                             std::uint64_t target_bytes)
{
    done_ = true;
    std::error_code ec;
    bool ok = open_;
    if (ok) {
        const std::uint64_t stored = entryStoredBytes(tmp_dir_);
        std::ofstream mf(manifestPath(tmp_dir_), std::ios::trunc);
        mf << kManifestMagic << "\n"
           << "key " << wkey_ << "\n"
           << "iterations " << iterations_ << "\n"
           << "cores " << cores_ << "\n"
           << "records " << records_ << "\n"
           << "raw_bytes " << raw_bytes_ << "\n"
           << "stored_bytes " << stored << "\n"
           << "input_bytes " << input_bytes << "\n"
           << "target_bytes " << target_bytes << "\n";
        mf.flush();
        ok = static_cast<bool>(mf);
    }

    const std::string final_dir =
        rootPath() + "/" + traceStoreHashName(wkey_);
    if (ok) {
        std::lock_guard<std::mutex> lock(store_->mu_);
        if (fs::exists(final_dir, ec)) {
            // Another process published first.  Keep theirs if it is
            // the same key; replace it on a hash collision (ours is
            // the one being asked for right now).
            Entry theirs;
            if (parseManifest(final_dir, theirs) && theirs.key == wkey_)
                fs::remove_all(tmp_dir_, ec);
            else {
                fs::remove_all(final_dir, ec);
                fs::rename(tmp_dir_, final_dir, ec);
                ok = !ec;
            }
        } else {
            fs::rename(tmp_dir_, final_dir, ec);
            ok = !ec;
        }
        if (ok) {
            ++store_->captures_;
            store_->applyCapLocked(final_dir);
        }
    }
    if (!ok)
        fs::remove_all(tmp_dir_, ec);
    store_->releaseOwnership(wkey_);
    return ok;
}

TraceStore::Capture
TraceStore::beginCapture(const std::string &wkey, unsigned iterations,
                         unsigned cores)
{
    return Capture(this, wkey, iterations, cores);
}

void
TraceStore::invalidate(const std::string &wkey)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::error_code ec;
    fs::remove_all(rootPath() + "/" + traceStoreHashName(wkey), ec);
    ++corrupt_;
}

void
TraceStore::applyCapLocked(const std::string &keep_dir)
{
    const std::uint64_t cap = capBytes();
    if (cap == 0)
        return;
    struct Candidate {
        fs::file_time_type mtime;
        std::string dir;
        std::uint64_t bytes;
    };
    std::vector<Candidate> entries;
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto &d : fs::directory_iterator(rootPath(), ec)) {
        if (!d.is_directory())
            continue;
        const std::string dir = d.path().string();
        if (d.path().filename().string().rfind(".tmp.", 0) == 0)
            continue;
        const std::uint64_t bytes = entryStoredBytes(dir);
        total += bytes;
        std::error_code mec;
        const auto mtime = fs::last_write_time(
            manifestPath(dir), mec);
        if (dir != keep_dir)
            entries.push_back({mec ? fs::file_time_type::min() : mtime,
                               dir, bytes});
    }
    std::sort(entries.begin(), entries.end(),
              [](const Candidate &a, const Candidate &b) {
                  return a.mtime < b.mtime;
              });
    for (const Candidate &c : entries) {
        if (total <= cap)
            break;
        fs::remove_all(c.dir, ec);
        total -= c.bytes;
        ++evictions_;
    }
}

std::vector<TraceStore::Entry>
TraceStore::listEntries()
{
    std::vector<Entry> out;
    std::error_code ec;
    for (const auto &d : fs::directory_iterator(rootPath(), ec)) {
        if (!d.is_directory())
            continue;
        if (d.path().filename().string().rfind(".tmp.", 0) == 0)
            continue;
        Entry e;
        if (parseManifest(d.path().string(), e))
            out.push_back(std::move(e));
    }
    std::sort(out.begin(), out.end(),
              [](const Entry &a, const Entry &b) { return a.key < b.key; });
    return out;
}

std::uint64_t
TraceStore::captures() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return captures_;
}

std::uint64_t
TraceStore::hits() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
}

std::uint64_t
TraceStore::corruptEntries() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return corrupt_;
}

std::uint64_t
TraceStore::evictions() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
}

void
TraceStore::resetForTest()
{
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.clear();
    locks_.clear();
    captures_ = hits_ = corrupt_ = evictions_ = 0;
}

} // namespace rnr
