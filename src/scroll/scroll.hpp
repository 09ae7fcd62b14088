// The Scroll: "a common place where all or most of the components of our
// distributed application can record their actions and that may be used for
// playback or execution path investigation" (§3.1, Fig. 1).
//
// Implemented as a RuntimeObserver: attach it to a world and it records
// according to its LoggingPreset. Three presets matter:
//
//   nondet_only()  the paper's Scroll — schedule choices + nondeterministic
//                  outcomes (rng/time/env). Minimal bytes; sufficient for
//                  deterministic replay.
//   digests()      adds send/deliver content digests — enables divergence
//                  *detection* (not just replay) at small extra cost.
//   full()         liblog-style baseline: everything, including full message
//                  payloads. What you pay when you log at the libc boundary
//                  without knowing what is deterministic.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "rt/hooks.hpp"
#include "rt/world.hpp"
#include "scroll/record.hpp"

namespace fixd::scroll {

struct LoggingPreset {
  bool schedule = true;   ///< kEvent records (required for replay)
  bool rng = true;        ///< RNG outcomes
  bool time_reads = true; ///< ctx.now() outcomes
  bool env_reads = true;  ///< environment outcomes
  bool sends = false;     ///< send records (digest)
  bool delivers = false;  ///< deliver records (digest)
  bool payloads = false;  ///< store full payload bytes in send/deliver
  bool annotations = true;
  bool spec_events = true;

  /// The paper's Scroll: nondeterministic actions and their outcomes only.
  static LoggingPreset nondet_only() { return {}; }

  /// Scroll plus interaction digests (divergence checking).
  static LoggingPreset digests() {
    LoggingPreset p;
    p.sends = true;
    p.delivers = true;
    return p;
  }

  /// liblog-style: record every interaction with full payloads.
  static LoggingPreset full() {
    LoggingPreset p;
    p.sends = true;
    p.delivers = true;
    p.payloads = true;
    return p;
  }
};

struct ScrollStats {
  std::uint64_t records = 0;
  /// Serialized size of all records (the bytes save() would write),
  /// computed by ScrollRecord::encoded_size() without serializing.
  std::uint64_t bytes = 0;
  std::array<std::uint64_t, 8> by_kind{};
};

class Scroll final : public rt::RuntimeObserver {
 public:
  explicit Scroll(LoggingPreset preset = LoggingPreset::nondet_only())
      : preset_(preset) {}

  const LoggingPreset& preset() const { return preset_; }

  // --- RuntimeObserver taps ------------------------------------------------
  void on_event(const rt::World& w, const rt::EventDesc& ev) override;
  void on_send(const rt::World& w, const net::Message& msg) override;
  void on_deliver(const rt::World& w, const net::Message& msg) override;
  void on_rng(const rt::World& w, ProcessId pid, std::uint64_t value) override;
  void on_time_read(const rt::World& w, ProcessId pid,
                    VirtualTime t) override;
  void on_env_read(const rt::World& w, ProcessId pid, const std::string& key,
                   std::uint64_t value) override;
  void on_annotation(const rt::World& w, ProcessId pid,
                     const std::string& note) override;
  void on_spec(const rt::World& w, ProcessId pid, SpecId spec,
               SpecOp op) override;

  // --- access ---------------------------------------------------------------
  const std::vector<ScrollRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  void clear();

  /// Records of one process, in capture order.
  std::vector<const ScrollRecord*> for_process(ProcessId pid) const;

  /// The executed schedule: EventDescs of all kEvent records.
  std::vector<rt::EventDesc> schedule() const;

  /// Records sorted into the global total order (lamport, pid, seq): the
  /// "globally consistent run" reconstruction of §2.2.
  std::vector<const ScrollRecord*> total_order() const;

  /// Retained/serialized sizes (the Fig. 1 cost metric).
  ScrollStats stats() const { return stats_; }

  /// Human-readable trace (bug-report appendix).
  std::string render(std::size_t max_records = 200) const;

  void save(BinaryWriter& w) const;
  void load(BinaryReader& r);

  /// Truncate to the first `n` records (used to cut a scroll at a
  /// checkpoint when assembling an investigation context).
  void truncate(std::size_t n);

 private:
  void push(ScrollRecord rec);
  /// Add one kept record to stats_.
  void account(const ScrollRecord& rec);

  LoggingPreset preset_;
  std::vector<ScrollRecord> records_;
  ScrollStats stats_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace fixd::scroll
