// Scroll records: one entry per observed action.
//
// "It is important to notice that only nondeterministic actions (involving
// other components) and their outcome need to be recorded by the Scroll"
// (§3.1). In this runtime the nondeterministic actions are: the schedule
// choice (which event ran), RNG draws, time reads, and environment reads.
// Everything else (sends, delivered payloads) is a deterministic consequence
// and is recorded only in the richer logging presets — that difference is
// exactly what bench/fig1_scroll measures against the liblog-style
// full-payload baseline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "rt/event.hpp"

namespace fixd::scroll {

enum class RecordKind : std::uint8_t {
  kEvent = 0,      ///< schedule choice: the event that executed
  kSend = 1,       ///< message submitted (id 0 = dropped by loss policy)
  kDeliver = 2,    ///< message handed to a process
  kRng = 3,        ///< random_u64 outcome
  kTimeRead = 4,   ///< ctx.now() outcome
  kEnvRead = 5,    ///< environment read outcome
  kAnnotation = 6, ///< user note
  kSpec = 7,       ///< speculation begin/commit/abort/absorb
};

struct ScrollRecord {
  RecordKind kind = RecordKind::kEvent;
  std::uint64_t seq = 0;      ///< global capture order
  ProcessId pid = kNoProcess; ///< acting process
  LamportTime lamport = 0;    ///< acting process's Lamport clock at capture

  rt::EventDesc event;                ///< kEvent
  MsgId msg = 0;                      ///< kSend / kDeliver
  ProcessId peer = kNoProcess;        ///< other endpoint (send/deliver)
  std::uint32_t tag = 0;              ///< message tag (send/deliver)
  std::uint64_t digest = 0;           ///< content digest (send/deliver)
  std::uint64_t value = 0;            ///< rng / time / env outcome
  std::string text;                   ///< env key / annotation / assumption
  std::vector<std::byte> payload;     ///< full payload (liblog preset only)
  SpecId spec = kNoSpec;              ///< kSpec
  std::uint8_t spec_op = 0;           ///< rt::RuntimeObserver::SpecOp

  bool operator==(const ScrollRecord& o) const = default;

  /// Identity comparison used by the divergence detector: two runs agree at
  /// a record if kind, pid and outcome match (seq/lamport are derived).
  bool matches(const ScrollRecord& o) const {
    if (kind != o.kind || pid != o.pid) return false;
    switch (kind) {
      case RecordKind::kEvent:
        return event.same_identity(o.event);
      case RecordKind::kSend:
      case RecordKind::kDeliver:
        return digest == o.digest;
      case RecordKind::kRng:
      case RecordKind::kTimeRead:
        return value == o.value;
      case RecordKind::kEnvRead:
        return value == o.value && text == o.text;
      case RecordKind::kAnnotation:
        return text == o.text;
      case RecordKind::kSpec:
        return spec_op == o.spec_op;
    }
    return false;
  }

  std::string to_string() const;
};

}  // namespace fixd::scroll
