/**
 * @file
 * Minimal JSON writing helpers shared by every hand-rolled emitter.
 *
 * The repository writes its JSON by hand so each format's field order
 * stays documented at the call site (sweep exports, run reports, Chrome
 * traces, metrics).  What must NOT be hand-rolled per
 * site is string escaping: three emitters grew three disagreeing
 * escapers (one complete, one partial, one absent), which is exactly
 * the kind of drift that corrupts a file the first time a path with a
 * backslash lands in a label.  This header is the one escaper — and the
 * one place that guarantees u64 counters round-trip exactly (decimal
 * text, never through a double) to match json_parse.h's raw-token
 * numbers on the way back in.
 */
#ifndef RNR_HARNESS_JSON_WRITE_H
#define RNR_HARNESS_JSON_WRITE_H

#include <cstdint>
#include <string>

namespace rnr {

/**
 * The contents of a JSON string literal for @p s: ", \ and control
 * characters escaped (\n, \t, \uXXXX), everything else byte-preserved.
 * Returns the escaped text WITHOUT the surrounding quotes.
 */
std::string jsonEscape(const std::string &s);

/** @p s as a complete JSON string literal, quotes included. */
std::string jsonQuote(const std::string &s);

/** Exact decimal rendering of @p v (never routed through a double). */
std::string jsonU64(std::uint64_t v);

/**
 * @p v as a JSON number token: finite values with enough digits to
 * round-trip ("%.17g" trimmed), non-finite values as 0 (JSON has no
 * NaN/Infinity).
 */
std::string jsonDouble(double v);

/** "true" / "false". */
const char *jsonBool(bool v);

/**
 * Writes @p content to @p path atomically: a temp file beside it, then
 * rename(), so a reader never sees half a file and concurrent writers
 * of one path leave the last one's whole.  False on any I/O failure
 * (the temp file is removed).
 */
bool writeFileAtomic(const std::string &path, const std::string &content);

} // namespace rnr

#endif // RNR_HARNESS_JSON_WRITE_H
