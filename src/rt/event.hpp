// Event descriptors: the unit of scheduling, recording, and exploration.
//
// A run of the distributed world is a sequence of events; the *only*
// nondeterminism in the system is which enabled event executes next. That
// makes an EventDesc simultaneously:
//   - the scheduler's choice (rt/scheduler.hpp),
//   - the Scroll's schedule record (scroll/record.hpp), and
//   - the Investigator's transition label (mc/sysmodel.hpp).
#pragma once

#include <charconv>
#include <string>

#include "common/serialize.hpp"
#include "common/types.hpp"

namespace fixd::rt {

/// Append `v` in decimal to `out`: std::to_string without the temporary
/// (trail renderings are hashed for every violation of a job).
inline void append_decimal(std::string& out, std::uint64_t v) {
  char buf[20];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

enum class EventKind : std::uint8_t {
  kStart = 0,    ///< process bootstrap (on_start)
  kDeliver = 1,  ///< message delivery (on_message)
  kTimer = 2,    ///< timer expiry (on_timer)
};

struct EventDesc {
  EventKind kind = EventKind::kStart;
  ProcessId pid = kNoProcess;  ///< the process that executes the handler
  MsgId msg = 0;               ///< for kDeliver
  TimerId timer = 0;           ///< for kTimer
  VirtualTime at = 0;          ///< time the event becomes ready

  /// Identity comparison ignoring readiness time: replay matches events by
  /// identity because ready-times can shift when the environment is modeled.
  bool same_identity(const EventDesc& o) const {
    return kind == o.kind && pid == o.pid && msg == o.msg && timer == o.timer;
  }

  bool operator==(const EventDesc& o) const = default;

  void save(BinaryWriter& w) const {
    w.write_u8(static_cast<std::uint8_t>(kind));
    w.write_u32(pid);
    w.write_u64(msg);
    w.write_u64(timer);
    w.write_u64(at);
  }

  void load(BinaryReader& r) {
    const std::uint8_t k = r.read_u8();
    if (k > static_cast<std::uint8_t>(EventKind::kTimer)) {
      throw SerializationError("event kind " + std::to_string(k) +
                               " out of range");
    }
    kind = static_cast<EventKind>(k);
    pid = r.read_u32();
    msg = r.read_u64();
    timer = r.read_u64();
    at = r.read_u64();
  }

  std::string to_string() const {
    std::string s;
    append_to(s);
    return s;
  }

  /// Append to_string()'s text to `out` without building temporaries.
  void append_to(std::string& out) const {
    switch (kind) {
      case EventKind::kStart:
        out += "start(p";
        append_decimal(out, pid);
        out += ')';
        return;
      case EventKind::kDeliver:
        out += "deliver(p";
        append_decimal(out, pid);
        out += ", msg#";
        append_decimal(out, msg);
        out += ')';
        return;
      case EventKind::kTimer:
        out += "timer(p";
        append_decimal(out, pid);
        out += ", t";
        append_decimal(out, timer);
        out += ')';
        return;
    }
    out += '?';
  }
};

}  // namespace fixd::rt
