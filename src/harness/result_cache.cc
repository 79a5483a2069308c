#include "harness/result_cache.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>

#include "harness/file_lock.h"

#ifdef _WIN32
#include <process.h>
#define rnr_getpid _getpid
#else
#include <unistd.h>
#define rnr_getpid getpid
#endif

namespace rnr {

namespace {

/** What `istream >>` skips between fields (the C locale's isspace). */
constexpr std::string_view kSpace = " \t\n\v\f\r";

/**
 * Reads the whitespace-separated token at @p pos of @p s as a decimal
 * unsigned integer and moves @p pos past it.  Unlike `istream >>`, a
 * sign is no number: "-1" would otherwise load as 2^64-1.
 */
template <typename T>
bool
readUnsigned(std::string_view s, std::size_t &pos, T &v)
{
    pos = std::min(s.find_first_not_of(kSpace, pos), s.size());
    const char *end = s.data() + s.size();
    const auto [p, ec] = std::from_chars(s.data() + pos, end, v);
    if (ec != std::errc() || (p != end && kSpace.find(*p) == kSpace.npos))
        return false;
    pos = static_cast<std::size_t>(p - s.data());
    return true;
}

} // namespace

ResultCache &
ResultCache::instance()
{
    static ResultCache cache;
    return cache;
}

std::string
ResultCache::serialize(const ExperimentResult &r)
{
    std::ostringstream os;
    os << r.input_bytes << " " << r.target_bytes << " "
       << r.seq_table_bytes << " " << r.div_table_bytes << " "
       << r.iterations.size();
    // Field order comes from the X-macro: the single source of truth
    // shared with IterStats itself, so codec and struct cannot drift.
    for (const IterStats &it : r.iterations) {
#define RNR_WRITE_FIELD(type, name) os << " " << it.name;
        RNR_ITER_STAT_FIELDS(RNR_WRITE_FIELD)
#undef RNR_WRITE_FIELD
    }
    return os.str();
}

bool
ResultCache::deserialize(const std::string &value, ExperimentResult &r)
{
    std::size_t pos = 0;
    std::size_t n = 0;
    if (!(readUnsigned(value, pos, r.input_bytes) &&
          readUnsigned(value, pos, r.target_bytes) &&
          readUnsigned(value, pos, r.seq_table_bytes) &&
          readUnsigned(value, pos, r.div_table_bytes) &&
          readUnsigned(value, pos, n)))
        return false;
    r.iterations.clear();
    for (std::size_t i = 0; i < n; ++i) {
        IterStats it;
        bool ok = true;
#define RNR_READ_FIELD(type, name)                                          \
        ok = ok && readUnsigned(value, pos, it.name);
        RNR_ITER_STAT_FIELDS(RNR_READ_FIELD)
#undef RNR_READ_FIELD
        if (!ok)
            return false;
        r.iterations.push_back(it);
    }
    // A token after the last declared field means the count lied (e.g.
    // a flipped digit declaring fewer iterations than the line holds).
    return !r.iterations.empty() &&
           value.find_first_not_of(kSpace, pos) == std::string::npos;
}

std::string
ResultCache::filePath()
{
    if (const char *p = std::getenv("RNR_CACHE_FILE"))
        return p;
    return "rnr_results.cache";
}

bool
ResultCache::persistenceEnabled()
{
    const char *p = std::getenv("RNR_CACHE");
    return !(p && std::string(p) == "0");
}

void
ResultCache::ensureLoadedLocked()
{
    const std::string path = persistenceEnabled() ? filePath() : "";
    if (loaded_ && path == loaded_path_)
        return;
    lines_.clear();
    corrupt_lines_ = 0;
    loaded_path_ = path;
    loaded_ = true;
    if (path.empty())
        return;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const auto bar = line.find('|');
        if (bar == std::string::npos) {
            ++corrupt_lines_;
            continue;
        }
        // Validate now so a truncated write never poisons a lookup.
        ExperimentResult probe;
        if (!deserialize(line.substr(bar + 1), probe)) {
            ++corrupt_lines_;
            continue;
        }
        lines_[line.substr(0, bar)] = line.substr(bar + 1);
    }
}

void
ResultCache::mergeFromDiskLocked()
{
    std::ifstream in(loaded_path_);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const auto bar = line.find('|');
        if (bar == std::string::npos)
            continue;
        std::string key = line.substr(0, bar);
        if (lines_.count(key))
            continue; // ours wins (results are deterministic anyway)
        ExperimentResult probe;
        std::string value = line.substr(bar + 1);
        if (deserialize(value, probe))
            lines_.emplace(std::move(key), std::move(value));
    }
}

void
ResultCache::rewriteFileLocked()
{
    if (loaded_path_.empty())
        return;
    // Serialise concurrent *processes* sharing this file (two bench
    // binaries run from one directory) through a sidecar flock, and
    // fold in whatever they published since we loaded, so a whole-file
    // rewrite never drops their lines.
    // The lock degrades to a no-op where unsupported — then we are back
    // to the single-process guarantee, which the rename still provides.
    FileLock lock(loaded_path_ + ".lock", FileLock::Mode::Block);
    if (lock.held())
        mergeFromDiskLocked();

    const std::string tmp =
        loaded_path_ + ".tmp." + std::to_string(rnr_getpid());
    std::FILE *out = std::fopen(tmp.c_str(), "w");
    if (!out)
        return; // unwritable location: keep going without persistence
    bool ok = true;
    for (const auto &[key, value] : lines_) {
        if (std::fprintf(out, "%s|%s\n", key.c_str(), value.c_str()) < 0) {
            ok = false;
            break;
        }
    }
    // fsync BEFORE the rename: once the new name is visible it must
    // carry every byte, or a crash between rename and writeback could
    // leave a torn final line for the next loader (tolerated, but each
    // tolerated line is a lost result).
    ok = ok && std::fflush(out) == 0;
#ifndef _WIN32
    ok = ok && ::fsync(fileno(out)) == 0;
#endif
    ok = std::fclose(out) == 0 && ok;
    if (!ok || std::rename(tmp.c_str(), loaded_path_.c_str()) != 0)
        std::remove(tmp.c_str());
}

bool
ResultCache::lookup(const ExperimentConfig &cfg, ExperimentResult &out)
{
    const std::string key = cfg.key();
    std::lock_guard<std::mutex> lock(mu_);
    auto mit = memo_.find(key);
    if (mit != memo_.end()) {
        out = mit->second;
        return true;
    }
    ensureLoadedLocked();
    auto fit = lines_.find(key);
    if (fit == lines_.end())
        return false;
    ExperimentResult r;
    r.config = cfg;
    // A well-formed line whose iteration count is not the key's is a
    // miss: the cell reruns and store() rewrites the line.
    if (!deserialize(fit->second, r) ||
        r.iterations.size() != cfg.iterations)
        return false;
    memo_[key] = r;
    out = r;
    return true;
}

void
ResultCache::store(const std::string &key, const ExperimentResult &r)
{
    std::lock_guard<std::mutex> lock(mu_);
    memo_[key] = r;
    ensureLoadedLocked();
    if (loaded_path_.empty())
        return;
    lines_[key] = serialize(r);
    rewriteFileLocked();
}

std::size_t
ResultCache::corruptLinesSkipped() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return corrupt_lines_;
}

void
ResultCache::clearForTest()
{
    std::lock_guard<std::mutex> lock(mu_);
    memo_.clear();
    lines_.clear();
    loaded_path_.clear();
    loaded_ = false;
    corrupt_lines_ = 0;
}

} // namespace rnr
