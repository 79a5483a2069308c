/**
 * @file
 * LEB128 varint and zigzag primitives for the v2 trace codec.
 *
 * Trace fields are overwhelmingly small once delta-encoded (instruction
 * gaps of a few, per-site address strides of one element), so a
 * byte-oriented varint beats fixed-width fields by 4-6x.  Kept
 * header-only and allocation-free: the encoder writes through a cursor
 * into a buffer the caller sized for the worst case, the decoder walks a
 * [begin, end) range and reports overruns instead of reading past the
 * block.
 */
#ifndef RNR_TRACESTORE_VARINT_H
#define RNR_TRACESTORE_VARINT_H

#include <cstdint>

namespace rnr {

/** Writes @p v at @p p as a little-endian base-128 varint (at most 10
 *  bytes); returns one past its last byte. */
inline std::uint8_t *
putVarint(std::uint8_t *p, std::uint64_t v)
{
    while (v >= 0x80) {
        *p++ = static_cast<std::uint8_t>(v) | 0x80;
        v >>= 7;
    }
    *p++ = static_cast<std::uint8_t>(v);
    return p;
}

/**
 * Decodes a varint from [@p p, @p end); advances @p p past it.
 * @return false on overrun (ran off the block) or overlong encoding
 *         (more than 10 bytes), leaving @p v unspecified.
 */
inline bool
getVarint(const std::uint8_t *&p, const std::uint8_t *end,
          std::uint64_t &v)
{
    if (p != end && *p < 0x80) { // one byte: most gaps, pcs and deltas
        v = *p++;
        return true;
    }
    v = 0;
    for (unsigned shift = 0; shift < 70; shift += 7) {
        if (p == end)
            return false;
        const std::uint8_t byte = *p++;
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return true;
    }
    return false;
}

/** Maps a signed delta to an unsigned varint-friendly value. */
inline std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

/** Inverse of zigzag(). */
inline std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

} // namespace rnr

#endif // RNR_TRACESTORE_VARINT_H
