#include "harness/blob_store.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <tuple>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "model_epoch.h"

namespace fs = std::filesystem;

namespace rnr {

namespace {

constexpr char kMagic[8] = {'R', 'N', 'R', 'B', 'L', 'O', 'B', '1'};
constexpr std::size_t kSumAt = 8;   ///< The checksum field.
constexpr std::size_t kSummed = 16; ///< First byte the checksum covers.

std::mutex g_epoch_mu;
std::string g_epoch = kModelEpoch;

void
putU64(std::vector<std::uint8_t> &b, std::size_t at, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/** An exclusive flock on @p path, or -1: held by another process (when
 *  @p block is false), or not available here. */
int
lockFile(const std::string &path, bool block)
{
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0)
        return -1;
    int rc;
    do {
        rc = ::flock(fd, LOCK_EX | (block ? 0 : LOCK_NB));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Writes @p blob to @p path and fsyncs it; the error, or empty. */
std::string
writeSynced(const std::string &path, const std::vector<std::uint8_t> &blob)
{
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0)
        return path + ": " + std::strerror(errno);
    std::string why;
    for (std::size_t off = 0; off < blob.size() && why.empty();) {
        const ssize_t n = ::write(fd, blob.data() + off, blob.size() - off);
        if (n >= 0)
            off += static_cast<std::size_t>(n);
        else if (errno != EINTR)
            why = path + ": " + std::strerror(errno);
    }
    if (why.empty() && ::fsync(fd) != 0)
        why = path + ": fsync: " + std::strerror(errno);
    ::close(fd);
    return why;
}

/** Creates @p root.  A file there (the single-file result cache of
 *  older builds) is removed first: nothing can read it any more. */
void
makeRoot(const std::string &root)
{
    std::error_code ec;
    if (fs::exists(root, ec) && !fs::is_directory(root, ec)) {
        std::fprintf(stderr,
                     "rnr: warning: store: replacing file %s with a store "
                     "directory\n",
                     root.c_str());
        fs::remove(root, ec);
    }
    fs::create_directories(root, ec);
}

} // namespace

BlobStore::BlobStore(const char *component, std::string (*root)(),
                     bool (*enabled)(), const char *suffix)
    : component_(component), root_(root), enabled_(enabled),
      suffix_(suffix)
{
}

// ---- blob encoding ----

std::string
BlobStore::epoch()
{
    std::lock_guard<std::mutex> lock(g_epoch_mu);
    return g_epoch;
}

void
BlobStore::setEpochForTest(const std::string &e)
{
    std::lock_guard<std::mutex> lock(g_epoch_mu);
    g_epoch = e;
}

std::string
BlobStore::epochKey(const std::string &key)
{
    return epoch() + "|" + key;
}

std::string
BlobStore::hashName(const std::string &key)
{
    const std::string k = epochKey(key);
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64,
                  ckpt::fnv1a64(k.data(), k.size()));
    return buf;
}

std::vector<std::uint8_t>
BlobStore::begin(const std::string &key)
{
    const std::string k = epochKey(key);
    std::vector<std::uint8_t> b(kSummed + 8 + k.size() + 8);
    std::memcpy(b.data(), kMagic, sizeof kMagic);
    putU64(b, kSummed, k.size());
    std::memcpy(b.data() + kSummed + 8, k.data(), k.size());
    return b;
}

void
BlobStore::seal(std::vector<std::uint8_t> &blob)
{
    const std::size_t len_at = kSummed + 8 + getU64(blob.data() + kSummed);
    putU64(blob, len_at, blob.size() - len_at - 8);
    putU64(blob, kSumAt,
           ckpt::fnv1a64(blob.data() + kSummed, blob.size() - kSummed));
}

std::vector<std::uint8_t>
BlobStore::encode(const std::string &key, const void *payload,
                  std::size_t len)
{
    std::vector<std::uint8_t> b = begin(key);
    const auto *p = static_cast<const std::uint8_t *>(payload);
    b.insert(b.end(), p, p + len);
    seal(b);
    return b;
}

ckpt::CkptIoResult
BlobStore::parse(const std::uint8_t *data, std::size_t len, Header &out)
{
    using ckpt::CkptIoResult;
    using ckpt::CkptIoStatus;
    if (len < kSummed)
        return CkptIoResult::fail(CkptIoStatus::Truncated,
                                  std::to_string(len) +
                                      " bytes is shorter than a header");
    if (std::memcmp(data, kMagic, sizeof kMagic) != 0)
        return CkptIoResult::fail(CkptIoStatus::BadMagic, "not an rnr blob");
    const std::uint64_t sum = getU64(data + kSumAt);
    if (ckpt::fnv1a64(data + kSummed, len - kSummed) != sum)
        return CkptIoResult::fail(CkptIoStatus::BadChecksum,
                                  "bytes do not match the checksum");
    ckpt::Deser d(data + kSummed, len - kSummed);
    d.str(out.key);
    std::uint64_t payload_len = 0;
    d.scalar(payload_len);
    if (!d.ok())
        return d.result();
    if (payload_len != d.remaining())
        return CkptIoResult::fail(
            CkptIoStatus::Truncated,
            "payload of " + std::to_string(payload_len) + " bytes, " +
                std::to_string(d.remaining()) + " present");
    out.checksum = sum;
    out.payload_at = kSummed + d.pos();
    out.payload_len = d.remaining();
    return {};
}

ckpt::CkptIoResult
BlobStore::readFile(const std::string &path, std::vector<std::uint8_t> &blob,
                    Header &out)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        return ckpt::CkptIoResult::fail(ckpt::CkptIoStatus::OpenFail, path);
    blob.resize(static_cast<std::size_t>(std::max<std::streamoff>(
        in.tellg(), 0)));
    in.seekg(0);
    in.read(reinterpret_cast<char *>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
    if (!in)
        return ckpt::CkptIoResult::fail(ckpt::CkptIoStatus::Truncated,
                                        path + ": short read");
    return parse(blob.data(), blob.size(), out);
}

// ---- paths ----

std::string
BlobStore::entryPath(const std::string &key) const
{
    return root() + "/" + hashName(key) + suffix_;
}

std::string
BlobStore::blobPath(const std::string &key) const
{
    return suffix_.empty() ? entryPath(key) + "/manifest" : entryPath(key);
}

std::string
BlobStore::lockPath(const std::string &key) const
{
    return root() + "/" + hashName(key) + ".lock";
}

std::string
BlobStore::tempPath(const std::string &key) const
{
    return root() + "/.tmp." + hashName(key) + "." +
           std::to_string(::getpid());
}

// ---- reading ----

void
BlobStore::quarantine(const std::string &entry, const std::string &why)
{
    std::fprintf(stderr, "rnr: warning: %s: dropping corrupt entry %s: %s\n",
                 component_, entry.c_str(), why.c_str());
    std::error_code ec;
    fs::remove_all(entry, ec);
    ++quarantines_;
}

bool
BlobStore::read(const std::string &key, std::vector<std::uint8_t> &blob,
                Header &header, const Validate &validate)
{
    const std::string entry = entryPath(key);
    std::error_code ec;
    if (!fs::exists(entry, ec))
        return false;
    const ckpt::CkptIoResult r = readFile(blobPath(key), blob, header);
    if (r.status == ckpt::CkptIoStatus::OpenFail && !fs::exists(entry, ec))
        return false; // removed since we looked
    std::string why = r.message();
    if (r.ok()) {
        // Another key hashing here: a miss that leaves its entry alone.
        if (header.key != epochKey(key))
            return false;
        why = validate ? validate(blob.data() + header.payload_at,
                                  header.payload_len)
                       : "";
        if (why.empty())
            return true;
    }
    quarantine(entry, why);
    return false;
}

// ---- single-flight ----

BlobStore::Acquire
BlobStore::acquire(const std::string &key, const std::function<bool()> &hit)
{
    const std::string name = hashName(key);
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        if (hit())
            return Acquire::Hit;
        if (owned_.count(name)) {
            // A thread of this process is producing it.
            cv_.wait(lock);
            continue;
        }
        if (!enabled_()) {
            owned_.emplace(name, -1);
            return Acquire::Owner;
        }
        // Contend with other processes sharing root() through a flock.
        makeRoot(root());
        if (const int fd = lockFile(lockPath(key), false); fd >= 0) {
            owned_.emplace(name, fd);
            return Acquire::Owner;
        }
        // Another process holds it (or flock does not work here).  Wait
        // for it without holding up this process's other threads.
        lock.unlock();
        const int waited = lockFile(lockPath(key), true);
        if (waited >= 0)
            ::close(waited);
        lock.lock();
        if (waited < 0 && !owned_.count(name)) {
            // No flock here: produce it ourselves.
            owned_.emplace(name, -1);
            return Acquire::Owner;
        }
        // Re-check: the other process published (Hit) or gave up.
    }
}

void
BlobStore::release(const std::string &key)
{
    const std::string name = hashName(key);
    int fd = -1;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = owned_.find(name);
        if (it != owned_.end()) {
            fd = it->second;
            owned_.erase(it);
        }
    }
    if (fd >= 0) {
        // Our flock: no other process holds the file, so it is ours to
        // remove.  A waiter racing on the old inode at worst produces
        // the entry again, and publish stays an atomic rename.
        std::error_code ec;
        fs::remove(lockPath(key), ec);
        ::close(fd);
    }
    cv_.notify_all();
}

void
BlobStore::abandon(const std::string &key)
{
    release(key);
}

// ---- publishing ----

bool
BlobStore::publish(const std::string &key,
                   const std::vector<std::uint8_t> &blob)
{
    makeRoot(root());
    const std::string path = entryPath(key);
    const std::string tmp = tempPath(key);
    std::string why = writeSynced(tmp, blob);
    if (why.empty() && std::rename(tmp.c_str(), path.c_str()) != 0)
        why = path + ": rename: " + std::strerror(errno);
    if (!why.empty()) {
        std::remove(tmp.c_str());
        std::fprintf(stderr, "rnr: warning: %s: publish failed %s: %s\n",
                     component_, path.c_str(), why.c_str());
    }
    release(key);
    return why.empty();
}

bool
BlobStore::publishDir(const std::string &key, const std::string &payload)
{
    const std::string tmp = tempPath(key);
    const std::string dir = entryPath(key);
    const std::vector<std::uint8_t> manifest =
        encode(key, payload.data(), payload.size());
    std::error_code ec;
    bool ok;
    {
        std::ofstream out(tmp + "/manifest", std::ios::binary);
        out.write(reinterpret_cast<const char *>(manifest.data()),
                  static_cast<std::streamsize>(manifest.size()));
        out.flush();
        ok = static_cast<bool>(out);
    }
    if (ok) {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<std::uint8_t> theirs;
        Header h;
        if (fs::exists(dir, ec) &&
            readFile(dir + "/manifest", theirs, h).ok() &&
            h.key == epochKey(key)) {
            // Another process published it first; keep theirs.
            fs::remove_all(tmp, ec);
        } else {
            // Absent, or another key's or corrupt: ours replaces it.
            fs::remove_all(dir, ec);
            fs::rename(tmp, dir, ec);
            ok = !ec;
        }
    }
    if (!ok)
        fs::remove_all(tmp, ec);
    release(key);
    return ok;
}

void
BlobStore::remove(const std::string &key)
{
    // Under the lock, so no acquire() of this process reads it half gone.
    std::lock_guard<std::mutex> lock(mu_);
    std::error_code ec;
    fs::remove_all(entryPath(key), ec);
    ++quarantines_;
}

std::uint64_t
BlobStore::entryBytes(const std::string &entry)
{
    std::error_code ec;
    if (!fs::is_directory(entry, ec))
        return fs::file_size(entry, ec);
    std::uint64_t total = 0;
    for (const auto &f : fs::directory_iterator(entry, ec)) {
        std::error_code fec;
        const std::uintmax_t n = fs::file_size(f.path(), fec);
        if (!fec)
            total += n;
    }
    return total;
}

// ---- maintenance ----

std::vector<std::string>
BlobStore::entryPaths() const
{
    std::vector<std::string> out;
    std::error_code ec;
    for (const auto &d : fs::directory_iterator(root(), ec)) {
        const std::string name = d.path().filename().string();
        if (name.find(".tmp.") != std::string::npos)
            continue;
        const bool entry =
            suffix_.empty()
                ? d.is_directory()
                : d.is_regular_file() && name.size() > suffix_.size() &&
                      name.compare(name.size() - suffix_.size(),
                                   suffix_.size(), suffix_) == 0;
        if (entry)
            out.push_back(d.path().string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

BlobStore::GcResult
BlobStore::gc(std::uint64_t max_bytes)
{
    GcResult r;
    std::error_code ec;
    // Temp leftovers: an owner that died before its rename.
    for (const auto &d : fs::directory_iterator(root(), ec))
        if (d.path().filename().string().find(".tmp.") !=
            std::string::npos) {
            std::error_code rec;
            fs::remove_all(d.path(), rec);
            ++r.stale;
        }

    const std::string current = epoch() + "|";
    std::vector<std::tuple<fs::file_time_type, std::uint64_t, std::string>>
        healthy;
    for (const std::string &entry : entryPaths()) {
        const std::string file =
            suffix_.empty() ? entry + "/manifest" : entry;
        std::vector<std::uint8_t> blob;
        Header h;
        if (!readFile(file, blob, h).ok()) {
            fs::remove_all(entry, ec);
            ++r.corrupt;
        } else if (h.key.rfind(current, 0) != 0) {
            fs::remove_all(entry, ec); // written by another model
            ++r.stale;
        } else {
            const std::uint64_t bytes = entryBytes(entry);
            r.kept_bytes += bytes;
            healthy.emplace_back(fs::last_write_time(file, ec), bytes,
                                 entry);
        }
    }
    if (max_bytes == 0)
        return r;
    std::sort(healthy.begin(), healthy.end());
    for (const auto &[mtime, bytes, entry] : healthy) {
        if (r.kept_bytes <= max_bytes)
            break;
        fs::remove_all(entry, ec);
        r.kept_bytes -= bytes;
        ++r.evicted;
    }
    return r;
}

void
BlobStore::resetForTest()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &[name, fd] : owned_)
        if (fd >= 0)
            ::close(fd);
    owned_.clear();
    quarantines_ = 0;
}

} // namespace rnr
