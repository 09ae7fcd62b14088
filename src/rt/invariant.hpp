// Invariants and violations: fault detection as data.
//
// FixD treats an application fault as a first-class value (a Violation), not
// an exception: the whole point of the pipeline is to catch it, roll back,
// and investigate. Local invariants run against one process after each of
// its events; global invariants run against the whole world after every
// event (the simulator's omniscient view — used by tests and by the
// Investigator; the distributed control protocol in core/ relies only on
// local detection, as a real deployment must).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "common/types.hpp"
#include "rt/event.hpp"

namespace fixd::rt {

class World;
class Process;

struct Violation {
  std::string invariant;  ///< registered name, or "local:<reason>"
  ProcessId pid = kNoProcess;  ///< detecting process (kNoProcess for global)
  std::string detail;
  VirtualTime at = 0;
  LamportTime lamport = 0;
  std::uint64_t step = 0;  ///< world step index at detection

  std::string to_string() const {
    std::string s;
    append_to(s);
    return s;
  }

  /// Append to_string()'s text to `out` without building temporaries.
  void append_to(std::string& out) const {
    out += '[';
    out += invariant;
    out += "] ";
    if (pid == kNoProcess) {
      out += "global";
    } else {
      out += 'p';
      append_decimal(out, pid);
    }
    out += " step=";
    append_decimal(out, step);
    out += " t=";
    append_decimal(out, at);
    if (!detail.empty()) {
      out += ": ";
      out += detail;
    }
  }

  void save(BinaryWriter& w) const {
    w.write_string(invariant);
    w.write_u32(pid);
    w.write_string(detail);
    w.write_varint(at);
    w.write_varint(lamport);
    w.write_varint(step);
  }

  void load(BinaryReader& r) {
    invariant = r.read_string();
    pid = r.read_u32();
    detail = r.read_string();
    at = r.read_varint();
    lamport = r.read_varint();
    step = r.read_varint();
  }
};

/// A check returns nullopt when the invariant holds, else a description.
using LocalCheck = std::function<std::optional<std::string>(const Process&)>;
using GlobalCheck = std::function<std::optional<std::string>(const World&)>;

class InvariantRegistry {
 public:
  /// Check `fn` against process `pid` after each of its events.
  void add_local(std::string name, ProcessId pid, LocalCheck fn) {
    locals_.push_back({std::move(name), pid, std::move(fn)});
  }

  /// Check against the whole world after every event.
  void add_global(std::string name, GlobalCheck fn) {
    globals_.push_back({std::move(name), std::move(fn)});
  }

  struct Local {
    std::string name;
    ProcessId pid;
    LocalCheck fn;
  };
  struct Global {
    std::string name;
    GlobalCheck fn;
  };

  const std::vector<Local>& locals() const { return locals_; }
  const std::vector<Global>& globals() const { return globals_; }
  std::size_t size() const { return locals_.size() + globals_.size(); }

 private:
  std::vector<Local> locals_;
  std::vector<Global> globals_;
};

}  // namespace fixd::rt
