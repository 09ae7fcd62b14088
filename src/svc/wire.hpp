// fixdd wire codec: typed, CRC-framed RPC messages.
//
// Every message crosses the transport as one CRC frame
// (common/serialize.hpp): [u32 magic][u32 len][u32 crc32(payload)][payload],
// payload = the BinaryWriter encoding of Request or Response. The framing
// gives the daemon the two properties the robustness ladder needs:
//
//   * a severed/garbled connection reads as a clean SerializationError,
//     never as a half-parsed message, and
//   * the identical frame bytes double as journal records (the job journal
//     reuses write_crc_frame with its own magic), so "what went over the
//     wire" and "what is durable" share one encoder.
//
// Contract (docs/SERVICE.md): every Request carries a client-chosen
// idempotency `request_id` and a per-attempt `deadline_ms` budget hint.
// Responses echo the request_id so a client can reject stale replies after
// a retry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "mc/engine.hpp"
#include "mc/trail.hpp"

namespace fixd::svc {

inline constexpr std::uint32_t kWireMagic = 0x50525846;    // "FXRP"
inline constexpr std::uint32_t kJournalMagic = 0x4c4a5846;  // "FXJL"
/// Codec version prefixed to every RPC payload and journal record. Bumped
/// whenever a serialized layout or the meaning of a serialized value
/// changes, so an older peer or journal is refused, never misparsed or
/// resumed against a visited set hashed another way.
///   2: ExploreStats lost sleep_reexpansions.
///   3: state digests use the block hasher.
///   4: checkpoints carry only the slice's new digests and violations; the
///      frontier is a prefix tree.
inline constexpr std::uint32_t kWireVersion = 4;
/// Upper bound on one frame's payload; a corrupt header cannot force a
/// larger allocation.
inline constexpr std::size_t kMaxFramePayload = 64u << 20;

enum class RpcKind : std::uint8_t {
  kPing = 0,
  kSubmit,    ///< enqueue an investigation job (idempotent by request_id)
  kStatus,    ///< job phase + live progress counters
  kCancel,    ///< request cancellation at the next checkpoint boundary
  kResult,    ///< final result (kNotFound until the job is terminal)
  kTailLog,   ///< recent daemon log records from the ring sink
  kShutdown,  ///< graceful stop: park running jobs at their next checkpoint
};

enum class RpcStatus : std::uint8_t {
  kOk = 0,
  kNotFound,      ///< unknown job id, or result not available yet
  kBadRequest,    ///< spec validation failed (detail in `error`)
  kRetryLater,    ///< transient; client should back off and retry
  kShuttingDown,  ///< daemon is draining; submits are refused
  kError,         ///< server-side failure (detail in `error`)
};

enum class JobPhase : std::uint8_t {
  kQueued = 0,
  kRunning,
  kDone,
  kFailed,
  kCancelled,
};

const char* to_string(RpcKind k);
const char* to_string(RpcStatus s);
const char* to_string(JobPhase p);

/// What to investigate, scenario-addressed: the daemon rebuilds the world
/// deterministically from the registered family + (n, version), so a job
/// spec — not a serialized world — is the durable unit. Restricted to the
/// sliceable explorer configuration (kBfs/kDfs, dedup on, por off); see
/// SysExploreOptions' pause/resume contract.
struct JobSpec {
  std::string scenario = "two-pc";
  std::uint32_t n = 3;           ///< world size (processes/replicas)
  std::int32_t version = 1;      ///< family version (1 = buggy, 2 = fixed)
  mc::SearchOrder order = mc::SearchOrder::kBfs;
  bool trail_frontier = false;
  std::uint32_t workers = 1;
  std::uint64_t max_states = 200000;
  std::uint32_t max_depth = 80;
  std::uint64_t max_violations = 64;
  std::uint64_t seed = 42;
  bool model_message_loss = false;
  bool model_message_duplication = false;
  /// Durable-checkpoint cadence: pause and journal roughly every N new
  /// states per slice. The crash-restart identity proof relies on slice
  /// boundaries being deterministic, which this is (sequential orders).
  std::uint64_t checkpoint_states = 512;

  void save(BinaryWriter& w) const;
  void load(BinaryReader& r);
};

/// Live progress for kStatus.
struct JobStatusMsg {
  std::uint64_t job_id = 0;
  JobPhase phase = JobPhase::kQueued;
  std::uint32_t attempts = 0;   ///< lease generations started
  std::uint64_t states = 0;     ///< accumulated across slices
  std::uint64_t transitions = 0;
  std::uint64_t violations = 0;
  std::uint64_t checkpoints = 0;  ///< durable checkpoints journaled
  bool resumed = false;           ///< recovered from the journal on restart
  std::string error;              ///< kFailed detail

  void save(BinaryWriter& w) const;
  void load(BinaryReader& r);
};

/// Final result for kResult — also what the in-process degradation path
/// produces, byte-compatible by construction (same JobRunner code).
struct JobResultMsg {
  std::uint64_t job_id = 0;
  bool complete = false;
  bool degraded = false;  ///< produced by the in-process fallback
  bool resumed = false;   ///< at least one slice ran after a journal recovery
  std::uint32_t attempts = 1;
  mc::ExploreStats stats;
  std::vector<mc::SysViolation> violations;
  std::uint64_t visited_count = 0;
  /// Hash over the sorted visited canonical digests (jobd::visited_digest).
  std::uint64_t visited_digest = 0;
  /// Canonical violation digest (jobd::trail_digest): ordered trails for
  /// workers == 1, order-insensitive violation records for workers > 1.
  std::uint64_t trail_digest = 0;

  void save(BinaryWriter& w) const;
  void load(BinaryReader& r);
};

struct Request {
  std::uint64_t request_id = 0;   ///< idempotency token, client-chosen
  std::uint64_t deadline_ms = 0;  ///< per-attempt budget hint (0 = none)
  RpcKind kind = RpcKind::kPing;
  std::uint64_t job_id = 0;  ///< kStatus / kCancel / kResult
  std::uint64_t arg = 0;     ///< kTailLog: max records
  JobSpec spec;              ///< kSubmit

  void save(BinaryWriter& w) const;
  void load(BinaryReader& r);
};

struct Response {
  std::uint64_t request_id = 0;  ///< echoes the request
  RpcStatus status = RpcStatus::kOk;
  std::string error;
  std::uint64_t job_id = 0;  ///< kSubmit: assigned (or deduped) job id
  bool duplicate = false;    ///< kSubmit: request_id had already executed
  JobStatusMsg status_msg;   ///< kStatus
  JobResultMsg result;       ///< kResult
  std::vector<std::string> log_lines;  ///< kTailLog

  void save(BinaryWriter& w) const;
  void load(BinaryReader& r);
};

/// One whole frame (header + payload) for a message with save().
template <typename Msg>
std::vector<std::byte> encode_frame(const Msg& m) {
  BinaryWriter payload;
  payload.write_u32(kWireVersion);
  m.save(payload);
  BinaryWriter frame;
  write_crc_frame(frame, kWireMagic, payload.bytes());
  return frame.take();
}

/// Decode a payload previously framed by encode_frame (the transport has
/// already stripped and validated the frame header/CRC).
template <typename Msg>
Msg decode_payload(std::span<const std::byte> payload) {
  BinaryReader r(payload);
  const std::uint32_t version = r.read_u32();
  if (version != kWireVersion) {
    throw SerializationError("wire: unsupported version " +
                             std::to_string(version));
  }
  Msg m;
  m.load(r);
  return m;
}

}  // namespace fixd::svc
