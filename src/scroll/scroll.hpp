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
//
// Kept records are not stored as ScrollRecords: each is one fixed entry of
// at most 64 bytes in a chunk that never moves, with text and payload bytes
// in one byte arena. Readers get ScrollRecord values decoded on access.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <utility>
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
  /// computed by ScrollRecord::encoded_size() arithmetic without
  /// serializing.
  std::uint64_t bytes = 0;
  std::array<std::uint64_t, 8> by_kind{};
};

class Scroll final : public rt::RuntimeObserver {
 public:
  /// Records are stored in chunks that double from 2^6 entries up to
  /// this cap, so a short run maps little and appending never moves a kept
  /// entry.
  static constexpr unsigned kMaxChunkLog2 = 14;
  static constexpr std::size_t kMaxChunkRecords = std::size_t{1}
                                                  << kMaxChunkLog2;

  explicit Scroll(LoggingPreset preset = LoggingPreset::nondet_only())
      : preset_(preset) {}
  Scroll(const Scroll& o);
  Scroll& operator=(const Scroll& o);

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
  /// Record `i` in capture order, decoded from its stored entry.
  ScrollRecord record(std::size_t i) const;

  /// Random-access read view of all records in capture order. Records are
  /// not stored as ScrollRecords: each element is decoded on access and
  /// yielded by value.
  auto records() const {
    return std::views::iota(std::size_t{0}, size_) |
           std::views::transform(
               [this](std::size_t i) { return record(i); });
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear();

  /// Records of one process, in capture order.
  std::vector<ScrollRecord> for_process(ProcessId pid) const;

  /// The executed schedule: EventDescs of all kEvent records.
  std::vector<rt::EventDesc> schedule() const;

  /// Records sorted into the global total order (lamport, pid, seq): the
  /// "globally consistent run" reconstruction of §2.2.
  std::vector<ScrollRecord> total_order() const;

  /// Retained/serialized sizes (the Fig. 1 cost metric).
  ScrollStats stats() const { return stats_; }

  /// Bytes the record store holds allocated: every chunk's full capacity
  /// plus the byte arena's capacity.
  std::size_t resident_bytes() const;

  /// Human-readable trace (bug-report appendix).
  std::string render(std::size_t max_records = 200) const;

  void save(BinaryWriter& w) const;
  void load(BinaryReader& r);

  /// Truncate to the first `n` records (used to cut a scroll at a
  /// checkpoint when assembling an investigation context).
  void truncate(std::size_t n);

 private:
  /// `len` bytes at offset `off` of arena_.
  struct Blob {
    std::uint64_t off;
    std::uint64_t len;
  };

  /// One kept record. The header is common to every kind; the body holds
  /// the fields the kind's tap sets, with text and payload bytes in
  /// arena_. A loaded record that sets a field its kind does not own is
  /// kept `wide`: its whole save() encoding goes into arena_, so load()
  /// round-trips any stream.
  struct Entry {
    RecordKind kind;
    std::uint8_t spec_op;
    bool wide;
    ProcessId pid;
    std::uint64_t seq;
    LamportTime lamport;
    union Body {
      Body() {}
      rt::EventDesc event;  ///< kEvent
      struct {
        MsgId msg;
        ProcessId peer;
        std::uint32_t tag;
        std::uint64_t digest;
        Blob payload;
      } io;  ///< kSend / kDeliver
      struct {
        std::uint64_t value;  ///< the outcome, or the spec id of a kSpec
        Blob text;
      } scalar;   ///< every other kind
      Blob wide;  ///< save() bytes of a wide record
    } body;
  };
  static_assert(sizeof(Entry) <= 64, "a Scroll entry must fit 64 bytes");

  /// Chunk k holds 2^min(kFirstChunkLog2 + k, kMaxChunkLog2) entries.
  static constexpr unsigned kFirstChunkLog2 = 6;
  static std::size_t chunk_records(std::size_t k);
  /// Chunk index and offset in it of entry `i`.
  static std::pair<std::size_t, std::size_t> locate(std::size_t i);

  const Entry& entry(std::size_t i) const;
  static Entry head(RecordKind kind, ProcessId pid, LamportTime lamport);
  Blob store(std::span<const std::byte> bytes);
  Blob store(std::string_view text);
  std::span<const std::byte> bytes_of(Blob b) const;
  /// The arena bytes a non-event entry owns: a wide record's encoding, a
  /// send or deliver's payload, or the text of the other kinds.
  static Blob blob_of(const Entry& e);
  /// Stamp the next seq on a tap's entry and keep it.
  void push(Entry e);
  void push_io(RecordKind kind, ProcessId pid, ProcessId peer,
               const rt::World& w, const net::Message& msg);
  /// Append `e` and add it to stats_.
  void keep(const Entry& e);
  /// Keep a loaded record, compact when its kind's body holds it all.
  void keep(const ScrollRecord& rec);
  /// Add one kept entry to stats_.
  void account(const Entry& e);

  LoggingPreset preset_;
  std::vector<std::unique_ptr<Entry[]>> chunks_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  std::vector<std::byte> arena_;
  ScrollStats stats_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace fixd::scroll
