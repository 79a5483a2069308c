#include "tracestore/trace_store.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <system_error>

#include "tracestore/trace_file.h"

namespace fs = std::filesystem;

namespace rnr {

namespace {

/** The manifest payload's first line; then one "<field> <value>" line
 *  each for iterations, cores, records, raw_bytes, stored_bytes,
 *  input_bytes and target_bytes. */
constexpr char kManifestMagic[] = "rnr-tracestore-v2";

std::string
entryTracePath(const std::string &dir, unsigned iter, unsigned core)
{
    return dir + "/it" + std::to_string(iter) + ".c" +
           std::to_string(core) + ".rnrt";
}

/** Parses a manifest payload; false on any malformation. */
bool
parseManifest(const std::string &text, TraceStore::Entry &e)
{
    std::istringstream in(text);
    std::string line;
    if (!std::getline(in, line) || line != kManifestMagic)
        return false;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string field;
        ls >> field;
        std::uint64_t v = 0;
        if (!(ls >> v))
            return false;
        if (field == "iterations")
            e.iterations = static_cast<unsigned>(v);
        else if (field == "cores")
            e.cores = static_cast<unsigned>(v);
        else if (field == "records")
            e.records = v;
        else if (field == "raw_bytes")
            e.raw_bytes = v;
        else if (field == "stored_bytes")
            e.stored_bytes = v;
        else if (field == "input_bytes")
            e.input_bytes = v;
        else if (field == "target_bytes")
            e.target_bytes = v;
    }
    return e.iterations != 0 && e.cores != 0;
}

/** The entry a manifest blob describes; false when it does not parse. */
bool
entryOf(const std::string &dir, const BlobStore::Header &h,
        const std::vector<std::uint8_t> &blob, TraceStore::Entry &e)
{
    e.dir = dir;
    e.key = h.key.substr(h.key.find('|') + 1);
    return parseManifest(
        std::string(reinterpret_cast<const char *>(blob.data()) +
                        h.payload_at,
                    h.payload_len),
        e);
}

} // namespace

TraceStore::TraceStore()
    : blobs_("tracestore", &TraceStore::rootPath, &TraceStore::enabled, "")
{
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

std::string
TraceStore::Entry::tracePath(unsigned iter, unsigned core) const
{
    return entryTracePath(dir, iter, core);
}

bool
TraceStore::openEntry(const std::string &wkey, Entry &out)
{
    // Every trace file's footer must read, and its records must add up
    // to the manifest's count.
    Entry e;
    BlobStore::Header h;
    std::vector<std::uint8_t> blob;
    const auto sound = [&](const std::uint8_t *, std::size_t) -> std::string {
        if (!entryOf(blobs_.entryPath(wkey), h, blob, e))
            return "unreadable manifest";
        std::uint64_t records = 0;
        for (unsigned it = 0; it < e.iterations; ++it)
            for (unsigned c = 0; c < e.cores; ++c) {
                TraceFileStats stats;
                const std::string path = e.tracePath(it, c);
                if (TraceIoResult r = readAnyTraceFileStats(path, stats); !r)
                    return path + ": " + r.message();
                records += stats.records;
            }
        if (records != e.records)
            return "manifest claims " + std::to_string(e.records) +
                   " records, files carry " + std::to_string(records);
        return {};
    };
    if (!blobs_.read(wkey, blob, h, sound))
        return false;
    out = e;
    return true;
}

TraceStore::Acquire
TraceStore::acquire(const std::string &wkey, Entry &out)
{
    const Acquire got =
        blobs_.acquire(wkey, [&] { return openEntry(wkey, out); });
    if (got == Acquire::Hit)
        ++hits_;
    return got;
}

// ---- Capture ----

TraceStore::Capture::Capture(TraceStore *store, std::string wkey,
                             unsigned iterations, unsigned cores)
    : store_(store), wkey_(std::move(wkey)), iterations_(iterations),
      cores_(cores)
{
    tmp_dir_ = store_->blobs_.tempPath(wkey_);
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
    store_->blobs_.abandon(wkey_);
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
    // A temp directory that never opened fails the manifest write, so
    // publishDir() cleans up and releases the key.
    done_ = true;
    std::ostringstream mf;
    mf << kManifestMagic << "\n"
       << "iterations " << iterations_ << "\n"
       << "cores " << cores_ << "\n"
       << "records " << records_ << "\n"
       << "raw_bytes " << raw_bytes_ << "\n"
       << "stored_bytes " << BlobStore::entryBytes(tmp_dir_) << "\n"
       << "input_bytes " << input_bytes << "\n"
       << "target_bytes " << target_bytes << "\n";
    const bool ok = store_->blobs_.publishDir(wkey_, mf.str());
    if (ok)
        ++store_->captures_;
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
    blobs_.remove(wkey);
}

std::vector<TraceStore::Entry>
TraceStore::listEntries()
{
    std::vector<Entry> out;
    for (const std::string &dir : blobs_.entryPaths()) {
        std::vector<std::uint8_t> blob;
        BlobStore::Header h;
        Entry e;
        if (BlobStore::readFile(dir + "/manifest", blob, h).ok() &&
            entryOf(dir, h, blob, e))
            out.push_back(std::move(e));
    }
    std::sort(out.begin(), out.end(),
              [](const Entry &a, const Entry &b) { return a.key < b.key; });
    return out;
}

void
TraceStore::resetForTest()
{
    blobs_.resetForTest();
    captures_ = 0;
    hits_ = 0;
}

} // namespace rnr
