/**
 * @file
 * Exact-u64 binary archive pair: the RnR context-switch state, the
 * StatGroup counters and the BlobStore header.
 *
 * `Ser` appends fields to a byte buffer; `Deser` reads them back with
 * bounds checking.  Every scalar — integer of any width, enum, bool,
 * double — travels as exactly 8 little-endian bytes, so u64 counters
 * round-trip exactly (never through a double or text) and a field list
 * has one unambiguous wire size.  Bulk data (`pod()`) is a u64 count
 * followed by the raw little-endian element bytes.
 *
 * The two classes expose the *same member names and shapes*, so a
 * component serialises and deserialises through one shared visitor:
 *
 *     template <class Ar> void visitState(Ar &ar) {
 *         ar.scalar(clock_);
 *         ar.pod(table_);
 *         stats_.visitState(ar);
 *     }
 *
 * One field list drives both directions — save and load cannot drift
 * apart, which is the whole point (the same trick as the
 * RNR_ITER_STAT_FIELDS X-macro, applied to binary state).  The RnR
 * prefetcher's context-switch state (Fig 15) is the visitor in use.
 *
 * A failed read (truncated input) latches an error: every subsequent
 * scalar yields zero and the caller checks `deser.ok()` once at the
 * end, so visitors stay free of per-field error plumbing.
 */
#ifndef RNR_SERDE_H
#define RNR_SERDE_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace rnr {
namespace ckpt {

/** Why an archive or a blob could not be read back. */
enum class CkptIoStatus : std::uint8_t {
    Ok,
    OpenFail,    ///< file could not be opened (the path in detail)
    BadMagic,    ///< not an rnr blob
    Truncated,   ///< ran out of bytes mid-field
    BadChecksum, ///< bytes do not match the blob's FNV-1a checksum
};

const char *toString(CkptIoStatus s);

/** Typed outcome of a read. */
struct CkptIoResult {
    CkptIoStatus status = CkptIoStatus::Ok;
    std::string detail;

    bool ok() const { return status == CkptIoStatus::Ok; }
    /** "bad-checksum: <detail>" (or "ok"). */
    std::string message() const;

    static CkptIoResult
    fail(CkptIoStatus s, std::string d = {})
    {
        return CkptIoResult{s, std::move(d)};
    }
};

/** FNV-1a 64-bit, the repo's standard content hash (store entry names
 *  use the same function); doubles as the blob checksum. */
inline std::uint64_t
fnv1a64(const void *data, std::size_t n,
        std::uint64_t h = 1469598103934665603ull)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** Saving archive: appends exact-u64 fields to an in-memory buffer. */
class Ser
{
  public:
    static constexpr bool kLoading = false;

    /** Arithmetic / enum / bool / double field, written as 8 LE bytes.
     *  Takes a mutable reference only so the signature matches Deser's
     *  inside a shared visitState; the value is not modified. */
    template <typename T>
    void
    scalar(T &v)
    {
        putU64(encode(v));
    }

    /** Rvalue-friendly overload for computed values (sizes, flags). */
    template <typename T>
    void
    scalar(const T &v)
    {
        putU64(encode(const_cast<T &>(v)));
    }

    /** Raw bytes, verbatim. */
    void
    raw(const void *p, std::size_t n)
    {
        const std::uint8_t *b = static_cast<const std::uint8_t *>(p);
        buf_.insert(buf_.end(), b, b + n);
    }

    /** Trivially-copyable vector: u64 count + raw element bytes.  The
     *  elements are stored in host (little-endian) layout — the bulk
     *  path for the RnR sequence and division tables. */
    template <typename T>
    void
    pod(std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::uint64_t n = v.size();
        scalar(n);
        raw(v.data(), v.size() * sizeof(T));
    }

    /** Length-prefixed string. */
    void
    str(std::string &s)
    {
        std::uint64_t n = s.size();
        scalar(n);
        raw(s.data(), s.size());
    }

    const std::vector<std::uint8_t> &buffer() const { return buf_; }
    std::size_t size() const { return buf_.size(); }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    template <typename T>
    static std::uint64_t
    encode(T &v)
    {
        if constexpr (std::is_same_v<T, double>) {
            std::uint64_t u;
            std::memcpy(&u, &v, sizeof u);
            return u;
        } else if constexpr (std::is_enum_v<T>) {
            return static_cast<std::uint64_t>(
                static_cast<std::underlying_type_t<T>>(v));
        } else if constexpr (std::is_signed_v<T>) {
            // Sign-extend through i64 so negatives round-trip exactly.
            return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
        } else {
            return static_cast<std::uint64_t>(v);
        }
    }

    void
    putU64(std::uint64_t u)
    {
        std::uint8_t b[8];
        for (int i = 0; i < 8; ++i)
            b[i] = static_cast<std::uint8_t>(u >> (8 * i));
        raw(b, 8);
    }

    std::vector<std::uint8_t> buf_;
};

/** Loading archive: bounds-checked reads over a byte span.  The first
 *  short read latches `Truncated`; later reads return zeroes so a
 *  visitor never indexes garbage, and the caller checks ok() once. */
class Deser
{
  public:
    static constexpr bool kLoading = true;

    Deser(const std::uint8_t *data, std::size_t n) : p_(data), n_(n) {}
    explicit Deser(const std::vector<std::uint8_t> &buf)
        : Deser(buf.data(), buf.size())
    {
    }

    template <typename T>
    void
    scalar(T &v)
    {
        const std::uint64_t u = takeU64();
        if constexpr (std::is_same_v<T, double>) {
            std::memcpy(&v, &u, sizeof v);
        } else if constexpr (std::is_enum_v<T>) {
            v = static_cast<T>(
                static_cast<std::underlying_type_t<T>>(u));
        } else if constexpr (std::is_signed_v<T>) {
            v = static_cast<T>(static_cast<std::int64_t>(u));
        } else {
            v = static_cast<T>(u);
        }
    }

    void
    raw(void *out, std::size_t n)
    {
        if (!take(out, n))
            std::memset(out, 0, n);
    }

    template <typename T>
    void
    pod(std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::uint64_t n = 0;
        scalar(n);
        if (n > remaining() / sizeof(T)) {
            fail("pod count " + std::to_string(n) + " exceeds " +
                 std::to_string(remaining()) + " remaining bytes");
            v.clear();
            return;
        }
        v.resize(static_cast<std::size_t>(n));
        take(v.data(), v.size() * sizeof(T));
    }

    void
    str(std::string &s)
    {
        std::uint64_t n = 0;
        scalar(n);
        if (n > remaining()) {
            fail("string length " + std::to_string(n) + " exceeds " +
                 std::to_string(remaining()) + " remaining bytes");
            s.clear();
            return;
        }
        s.resize(static_cast<std::size_t>(n));
        take(s.data(), s.size());
    }

    bool ok() const { return !failed_; }
    std::size_t remaining() const { return n_ - pos_; }
    std::size_t pos() const { return pos_; }
    const std::string &error() const { return error_; }

    /** Marks the archive failed (also used by codec-level validation). */
    void
    fail(std::string why)
    {
        if (!failed_) {
            failed_ = true;
            error_ = std::move(why);
        }
    }

    /** Ok, or Truncated carrying the first failure's detail. */
    CkptIoResult
    result() const
    {
        if (!failed_)
            return CkptIoResult{};
        return CkptIoResult::fail(CkptIoStatus::Truncated, error_);
    }

  private:
    /** True when @p n more bytes are left; latches the failure if not. */
    bool
    fits(std::size_t n)
    {
        if (failed_ || n > remaining()) {
            fail("read of " + std::to_string(n) + " bytes at offset " +
                 std::to_string(pos_) + " of " + std::to_string(n_));
            return false;
        }
        return true;
    }

    bool
    take(void *out, std::size_t n)
    {
        if (!fits(n))
            return false;
        // A zero-length read may come with the null data() of an empty
        // vector or string, which memcpy must not see.
        if (n != 0)
            std::memcpy(out, p_ + pos_, n);
        pos_ += n;
        return true;
    }

    std::uint64_t
    takeU64()
    {
        std::uint8_t b[8];
        if (!take(b, 8))
            return 0;
        std::uint64_t u = 0;
        for (int i = 0; i < 8; ++i)
            u |= static_cast<std::uint64_t>(b[i]) << (8 * i);
        return u;
    }

    const std::uint8_t *p_;
    std::size_t n_;
    std::size_t pos_ = 0;
    bool failed_ = false;
    std::string error_;
};

/**
 * Validates a just-read element count against the bytes actually left
 * in the archive (each element costs at least @p min_bytes_per_elem),
 * so a corrupt count can neither over-allocate nor spin a fill loop.
 * Always true on the saving side.
 */
template <class Ar>
bool
checkCount(Ar &ar, std::uint64_t n, std::size_t min_bytes_per_elem)
{
    if constexpr (Ar::kLoading) {
        const std::size_t per =
            min_bytes_per_elem ? min_bytes_per_elem : 1;
        if (n > ar.remaining() / per) {
            ar.fail("element count " + std::to_string(n) +
                    " exceeds remaining bytes");
            return false;
        }
    }
    (void)ar;
    (void)n;
    return true;
}

} // namespace ckpt
} // namespace rnr

#endif // RNR_SERDE_H
