// Log records for the fixdd daemon's flight recorder.
//
// jobd appends its own lifecycle events (submit, cancel, journal recovery,
// lease expiry, fenced writes, failure, completion) straight to a LogRing,
// and the `tail-log` RPC reads the most recent records back out. Nothing else consumes the ring: it is not wired
// into the Scroll, and the library itself has no leveled logger.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace fixd {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

const char* log_level_name(LogLevel level);

/// A captured record, in arrival order. `seq` is a global monotonically
/// increasing sequence number (records dropped by ring overwrite leave
/// visible gaps).
struct LogRecord {
  std::uint64_t seq = 0;
  LogLevel level = LogLevel::kInfo;
  std::string msg;
};

/// Bounded thread-safe ring of recent log records — the daemon's flight
/// recorder. Overwrites the oldest record when full; total() keeps
/// counting so overwrites are detectable.
class LogRing {
 public:
  explicit LogRing(std::size_t capacity);

  void append(LogLevel level, const std::string& msg);

  /// Up to `n` most recent records, oldest first.
  std::vector<LogRecord> tail(std::size_t n) const;

  /// Records ever appended (>= what tail() can still return).
  std::uint64_t total() const;

 private:
  mutable std::mutex mu_;
  std::vector<LogRecord> ring_;
  std::size_t capacity_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace fixd
