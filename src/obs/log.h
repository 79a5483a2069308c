/**
 * @file
 * Leveled structured (JSONL) logger shared by the harness layers.
 *
 * Every record is one JSON object on one line, so stderr — several
 * threads, or several processes sharing one log file, interleaved —
 * stays machine-parseable:
 *
 *   {"ts_us": 1723190400123456, "level": "warn", "comp": "ckpt",
 *    "pid": 4242, "msg": "dropping corrupt snapshot",
 *    "path": "rnr_ckpt/...", "why": "checksum mismatch"}
 *
 * Environment:
 *   RNR_LOG        unset = stderr, "0" = off, any other value = append
 *                  to that file path (child processes inherit it; lines
 *                  are written atomically under a mutex per process and
 *                  O_APPEND across them).
 *   RNR_LOG_LEVEL  debug | info | warn | error | off (default "info");
 *                  records below the threshold are dropped before any
 *                  formatting happens.
 *
 * Usage (the level check is one relaxed atomic load; everything after
 * it only runs when the record will actually be written):
 *
 *   obs::LogLine(obs::LogLevel::Warn, "ckpt")
 *       .msg("dropping corrupt snapshot")
 *       .kv("path", path).kv("why", why);
 *
 * The progress reporter (docs/HARNESS.md §5) intentionally stays on its
 * own RNR_PROGRESS channel: progress is a human-facing live display,
 * not a log record.
 */
#ifndef RNR_OBS_LOG_H
#define RNR_OBS_LOG_H

#include <atomic>
#include <cstdint>
#include <string>

namespace rnr {
namespace obs {

enum class LogLevel : int {
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
    Off = 4,
};

namespace detail {
/** Cached RNR_LOG_LEVEL threshold (numeric LogLevel). */
std::atomic<int> &logThresholdRef();
} // namespace detail

/** True when a record at @p level would be written. */
inline bool
logEnabled(LogLevel level)
{
    return static_cast<int>(level) >=
           detail::logThresholdRef().load(std::memory_order_relaxed);
}

/** The parsed RNR_LOG_LEVEL threshold. */
LogLevel logThreshold();

/**
 * One log record, emitted by the destructor.  When the level is below
 * the threshold (or the sink is off) construction is a single atomic
 * load and every builder call is a no-op.
 */
class LogLine
{
  public:
    LogLine(LogLevel level, const char *component);
    ~LogLine();

    LogLine(const LogLine &) = delete;
    LogLine &operator=(const LogLine &) = delete;

    LogLine &msg(const std::string &text);
    LogLine &kv(const char *key, const std::string &value);
    LogLine &kv(const char *key, const char *value);
    LogLine &kv(const char *key, std::uint64_t value);
    LogLine &kv(const char *key, std::int64_t value);
    LogLine &kv(const char *key, int value);
    LogLine &kv(const char *key, unsigned value);
    LogLine &kv(const char *key, double value);
    LogLine &kvBool(const char *key, bool value);

  private:
    bool active_;
    std::string buf_;
};

/**
 * Process-unique id (monotonic from 1) for correlating the log lines
 * of one multi-step operation.
 */
std::uint64_t nextSpanId();

/** The calling thread's ambient span id, 0 when none is active. */
std::uint64_t currentSpanId();

/**
 * RAII ambient span: while alive, every LogLine the calling thread
 * emits automatically carries "span": <id>, so records written by
 * lower layers (e.g. the checkpoint store dropping a corrupt snapshot)
 * correlate with the operation that triggered them (the runner's
 * quarantine-and-rerun) without threading ids through every signature.
 * Scopes nest; the enclosing span is restored on destruction.
 */
class SpanScope
{
  public:
    SpanScope();
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    std::uint64_t id_;
    std::uint64_t prev_;
};

/**
 * Drops the cached RNR_LOG / RNR_LOG_LEVEL state so the next record
 * re-reads the environment.  Tests that setenv() mid-process must call
 * this; production code never needs to.
 */
void logReconfigureForTest();

/** Wall-clock microseconds since the epoch (the "ts_us" field). */
std::uint64_t logWallClockUs();

} // namespace obs
} // namespace rnr

#endif // RNR_OBS_LOG_H
