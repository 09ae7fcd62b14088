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
// Kept records live in one RecordLog (common/record_log.hpp), each in a
// compact encoding that is also the save() stream's: a header byte, then
// varints, with seq stored only when it is not the last one + 1, lamport
// and message ids as deltas, and digests as 8 raw bytes (see scroll.cpp).
// Readers walk the records forward with a Cursor, decoding each from the
// front base: the codec state before the oldest record held.
//
// Trimming. A Scroll kept for a whole run grows with it; one kept beside a
// Time Machine (FixdController's) only needs the records after its
// horizon. For every chunk of the log the Scroll opens, it notes the front
// base the chunk would start from and where the world stood: its capture
// serial and each process's own vector-clock entry. trim() frees whole
// leading chunks opened behind a cut (before a capture, and before each
// sender's clock reached a bound), reading none of their records, and the
// next chunk's base becomes the front base. clear() drops every record.
// Nothing trims a standalone Scroll: it keeps the whole run, and replays
// from the initial state (replay.hpp).
//
// The save() stream (version 3) carries the trimmed count and the front
// base before the records; load() refuses any other version.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/record_log.hpp"
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
  std::uint64_t records = 0;  ///< held
  std::uint64_t trimmed = 0;  ///< recorded, then dropped by trim()/clear()
  /// Bytes of the held records, length prefixes included: what save()
  /// writes after its header.
  std::uint64_t bytes = 0;
  /// Records kept of each kind, trimmed ones included (a loaded scroll
  /// counts from its load).
  std::array<std::uint64_t, 8> by_kind{};
};

class Scroll final : public rt::RuntimeObserver {
  /// What the encoder and a decoder carry from one record to the next
  /// (the deltas' bases), starting from a default Codec.
  struct Codec {
    std::uint64_t seq = 0;  ///< the seq a record has unless it stores one
    LamportTime lamport = 0;
    MsgId msg = 0;
    VirtualTime at = 0;

    /// Appends `r`, with `text` and `payload` for r.text and r.payload.
    void put(RecordLog& log, const ScrollRecord& r, std::string_view text,
             std::span<const std::byte> payload);
    /// Decodes one record; throws SerializationError on a malformed one.
    void get(std::span<const std::byte> rec, ScrollRecord& out);
    /// The fields after header byte `h`, but for text and payload bytes,
    /// in either direction.
    template <typename IO, typename Record>
    void fields(IO& io, Record& r, std::uint8_t h, std::uint32_t& f);
  };

 public:
  /// Version of the save() stream; load() refuses any other.
  static constexpr std::uint64_t kStreamVersion = 3;

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
  /// Decodes the records in capture order. A change to the scroll
  /// invalidates it.
  class Cursor {
   public:
    /// Decodes the next record into `out`; false past the last.
    bool next(ScrollRecord& out);

   private:
    friend class Scroll;
    Cursor(RecordLog::Cursor records, const Codec& base)
        : records_(records), codec_(base) {}
    RecordLog::Cursor records_;
    Codec codec_;
  };
  Cursor cursor() const { return Cursor(log_.cursor(), front_base()); }

  /// Keep `r` as given, seq included (the taps stamp their own). trim()
  /// keeps the chunks such records open.
  void append(const ScrollRecord& r) { keep(nullptr, r, r.text, r.payload); }

  /// Frees every leading chunk of records that a later chunk shows were
  /// all recorded before the world's capture `capture_serial`, and while
  /// each process p's own vector-clock entry was below `send_stamps[p]`.
  /// Costs O(chunks dropped) and reads none of their records.
  void trim(std::uint64_t capture_serial,
            std::span<const std::uint64_t> send_stamps);
  /// Drops every record held.
  void clear();

  std::size_t size() const { return log_.size(); }

  /// Records of one process, in capture order.
  std::vector<ScrollRecord> for_process(ProcessId pid) const;

  /// The executed schedule: EventDescs of all kEvent records.
  std::vector<rt::EventDesc> schedule() const;

  /// Records sorted into the global total order (lamport, pid, seq): the
  /// "globally consistent run" reconstruction of §2.2.
  std::vector<ScrollRecord> total_order() const;

  /// Held/serialized sizes (the Fig. 1 cost metric).
  ScrollStats stats() const {
    return {log_.size(), trimmed_, log_.record_bytes(), by_kind_};
  }

  /// Bytes the record log holds allocated: every chunk's full capacity.
  std::size_t resident_bytes() const { return log_.resident_bytes(); }
  /// The most resident_bytes() has been (it grows only as a chunk opens).
  std::size_t peak_resident_bytes() const { return peak_resident_; }

  /// Human-readable trace of the newest `max_records` held, newest last
  /// (bug-report appendix), after a line counting the earlier ones.
  std::string render(std::size_t max_records = 200) const;

  /// Version, preset, next seq, trimmed count, front base, record count,
  /// then the log's records.
  void save(BinaryWriter& w) const;
  /// Decodes and checks every record; on a malformed stream, throws
  /// SerializationError and keeps what the scroll held.
  void load(BinaryReader& r);

 private:
  /// A tap's record: the next seq, `pid` and its lamport.
  ScrollRecord stamp(RecordKind kind, ProcessId pid, const rt::World& w);
  void push_io(RecordKind kind, ProcessId pid, ProcessId peer,
               const rt::World& w, const net::Message& msg);
  /// Encodes `r` into the log; marks the chunk it opens, if any, with
  /// where `w` stands (a world-less chunk is never trimmed).
  void keep(const rt::World* w, const ScrollRecord& r,
            std::string_view text = {},
            std::span<const std::byte> payload = {});
  void keep_value(RecordKind kind, ProcessId pid, const rt::World& w,
                  std::uint64_t value, std::string_view text = {});
  /// The codec state before the oldest record held (the encoder's, when
  /// none is).
  const Codec& front_base() const {
    return marks_.empty() ? encoder_ : marks_.front().base;
  }

  /// What one chunk of the log was recorded after, read by trim() in
  /// place of the chunk's records.
  struct Mark {
    Codec base;  ///< the encoder's state before the chunk's first record
    std::uint64_t capture_serial;  ///< the world's then (all ones: none)
    std::vector<std::uint64_t> clocks;  ///< each own vclock entry then
  };

  LoggingPreset preset_;
  RecordLog log_;
  Codec encoder_;
  std::deque<Mark> marks_;  ///< one per chunk of log_, oldest first
  std::array<std::uint64_t, 8> by_kind_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t trimmed_ = 0;
  std::size_t peak_resident_ = 0;
};

}  // namespace fixd::scroll
