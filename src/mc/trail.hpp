// Trails and bug reports: the Investigator's output.
//
// §3.3: the Investigator "returns a set of trails that lead to invariant
// violations". A Trail is the exact action sequence from the investigated
// state to the violation; it re-executes deterministically (tested), which
// is what makes it a *bug report* rather than a guess.
#pragma once

#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "rt/event.hpp"
#include "rt/invariant.hpp"

namespace fixd::mc {

/// One transition label in a system-level trail.
struct SysAction {
  enum class Kind : std::uint8_t {
    kRuntime = 0,         ///< a runtime event (start / deliver / timer)
    kDropMessage = 1,     ///< environment model: the network loses a message
    kDupMessage = 2,      ///< environment model: the network duplicates a
                          ///< message
    kDelayMessage = 3,    ///< environment model: a delivery is deferred
                          ///< (timed)
    // Tag 4 is retired (a timer-cancel model action); load() rejects it.
    kPartitionLinks = 5,  ///< environment model: cut one directed link
                          ///< (traffic on it is deferred, never lost)
    kHealLinks = 6,       ///< environment model: re-open one cut link
    kRestartProcess = 7,  ///< environment model: durable restart of a
                          ///< crashed process (resumes with crash-time state)
  };

  Kind kind = Kind::kRuntime;
  rt::EventDesc event;      ///< kRuntime / kRestartProcess
  MsgId msg = 0;            ///< kDropMessage / kDupMessage / kDelayMessage
  VirtualTime delay = 0;    ///< kDelayMessage: extra virtual time
  ProcessId src = kNoProcess;  ///< kPartitionLinks / kHealLinks
  ProcessId dst = kNoProcess;  ///< kPartitionLinks / kHealLinks

  bool operator==(const SysAction&) const = default;

  std::string describe() const {
    std::string s;
    append_describe(s);
    return s;
  }

  /// Append describe()'s text to `out` without building temporaries.
  void append_describe(std::string& out) const {
    switch (kind) {
      case Kind::kRuntime:
        event.append_to(out);
        return;
      case Kind::kDropMessage:
        out += "env:drop(msg#";
        rt::append_decimal(out, msg);
        out += ')';
        return;
      case Kind::kDupMessage:
        out += "env:dup(msg#";
        rt::append_decimal(out, msg);
        out += ')';
        return;
      case Kind::kDelayMessage:
        out += "env:delay(msg#";
        rt::append_decimal(out, msg);
        out += ",+";
        rt::append_decimal(out, delay);
        out += ')';
        return;
      case Kind::kPartitionLinks:
      case Kind::kHealLinks:
        out += kind == Kind::kPartitionLinks ? "env:cut(p" : "env:heal(p";
        rt::append_decimal(out, src);
        out += "->p";
        rt::append_decimal(out, dst);
        out += ')';
        return;
      case Kind::kRestartProcess:
        out += "env:restart(p";
        rt::append_decimal(out, event.pid);
        out += ')';
        return;
    }
    out += '?';
  }

  void save(BinaryWriter& w) const {
    w.write_u8(static_cast<std::uint8_t>(kind));
    event.save(w);
    w.write_varint(msg);
    w.write_varint(delay);
    w.write_u32(src);
    w.write_u32(dst);
  }

  void load(BinaryReader& r) {
    const std::uint8_t k = r.read_u8();
    if (k == 4 /* retired */ ||
        k > static_cast<std::uint8_t>(Kind::kRestartProcess)) {
      throw SerializationError("SysAction: bad kind tag " + std::to_string(k));
    }
    kind = static_cast<Kind>(k);
    event.load(r);
    msg = r.read_varint();
    delay = r.read_varint();
    src = r.read_u32();
    dst = r.read_u32();
  }
};

struct Trail {
  std::vector<SysAction> steps;

  std::size_t length() const { return steps.size(); }

  std::string render() const {
    std::string out;
    render_to(out);
    return out;
  }

  /// Append render()'s line for step `i` to `out`.
  void render_step(std::string& out, std::size_t i) const {
    out += "  ";
    rt::append_decimal(out, i + 1);
    out += ". ";
    steps[i].append_describe(out);
    out += '\n';
  }

  /// Append render()'s text to `out` without building temporaries.
  void render_to(std::string& out) const {
    for (std::size_t i = 0; i < steps.size(); ++i) render_step(out, i);
  }

  void save(BinaryWriter& w) const {
    w.write_vector(steps,
                   [](BinaryWriter& ww, const SysAction& a) { a.save(ww); });
  }

  void load(BinaryReader& r) {
    steps = r.read_vector<SysAction>([](BinaryReader& rr) {
      SysAction a;
      a.load(rr);
      return a;
    });
  }
};

/// A violation found by the system explorer, with its trail.
struct SysViolation {
  rt::Violation violation;
  Trail trail;
  std::size_t depth = 0;

  std::string render() const {
    return violation.to_string() + "\n" + trail.render();
  }

  void save(BinaryWriter& w) const {
    violation.save(w);
    trail.save(w);
    w.write_varint(depth);
  }

  void load(BinaryReader& r) {
    violation.load(r);
    trail.load(r);
    depth = static_cast<std::size_t>(r.read_varint());
  }
};

}  // namespace fixd::mc
