#include "harness/result_cache.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <sstream>
#include <string_view>

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

ResultCache::ResultCache()
    : blobs_("cache", &ResultCache::filePath,
             &ResultCache::persistenceEnabled, ".result")
{
}

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

bool
ResultCache::lookup(const ExperimentConfig &cfg, ExperimentResult &out)
{
    const std::string key = cfg.key();
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = memo_.find(key);
        if (it != memo_.end()) {
            out = it->second;
            return true;
        }
    }
    if (!persistenceEnabled())
        return false;
    ExperimentResult r;
    r.config = cfg;
    // A value that does not parse, or whose iteration count is not the
    // key's, is quarantined: the cell reruns and store() replaces it.
    const auto parses = [&](const std::uint8_t *p,
                            std::size_t len) -> std::string {
        if (!deserialize(std::string(reinterpret_cast<const char *>(p), len),
                         r))
            return "unparsable value";
        if (r.iterations.size() != cfg.iterations)
            return std::to_string(r.iterations.size()) +
                   " iterations under an i" +
                   std::to_string(cfg.iterations) + " key";
        return {};
    };
    std::vector<std::uint8_t> blob;
    BlobStore::Header header;
    if (!blobs_.read(key, blob, header, parses))
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    out = memo_.emplace(key, std::move(r)).first->second;
    return true;
}

BlobStore::Acquire
ResultCache::acquire(const ExperimentConfig &cfg, ExperimentResult &out)
{
    return blobs_.acquire(cfg.key(), [&] { return lookup(cfg, out); });
}

void
ResultCache::store(const std::string &key, const ExperimentResult &r)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        memo_[key] = r;
    }
    if (!persistenceEnabled()) {
        blobs_.abandon(key); // nothing to write; just release the key
        return;
    }
    const std::string value = serialize(r);
    blobs_.publish(key, BlobStore::encode(key, value.data(), value.size()));
}

void
ResultCache::clearForTest()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        memo_.clear();
    }
    // Not under mu_: acquire() takes the store lock first, then mu_.
    blobs_.resetForTest();
}

} // namespace rnr
