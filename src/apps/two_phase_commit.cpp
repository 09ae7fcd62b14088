#include "apps/two_phase_commit.hpp"

namespace fixd::apps {

namespace {
struct TxnBody {
  std::uint64_t txn = 0;
  void save(BinaryWriter& w) const { w.write_u64(txn); }
  void load(BinaryReader& r) { txn = r.read_u64(); }
};
}  // namespace

namespace detail {

void TwoPcBase::on_start(rt::Context& ctx) {
  if (is_coordinator(ctx)) {
    if (cfg_.total_txns == 0) {
      for (ProcessId p = 1; p < ctx.world_size(); ++p)
        ctx.send(p, kTpcStopTag, {});
      ctx.halt();
      return;
    }
    begin_txn(ctx);
  }
}

void TwoPcBase::begin_txn(rt::Context& ctx) {
  voting_ = true;
  yes_votes_ = 0;
  votes_received_ = 0;
  acks_ = 0;
  TxnBody body{current_txn_};
  for (ProcessId p = 1; p < ctx.world_size(); ++p) {
    ctx.send_body(p, kPrepareTag, body);
  }
  ctx.set_timer(cfg_.vote_timeout, kVoteTimeoutKind);
}

void TwoPcBase::decide(rt::Context& ctx, TxnDecision d) {
  voting_ = false;
  ctx.cancel_timers(kVoteTimeoutKind);
  record(current_txn_, d);
  TxnBody body{current_txn_};
  net::Tag tag = (d == TxnDecision::kCommit) ? kCommitTag : kAbortTag;
  for (ProcessId p = 1; p < ctx.world_size(); ++p) {
    ctx.send_body(p, tag, body);
  }
}

void TwoPcBase::on_timer(rt::Context& ctx, const rt::Timer& timer) {
  if (timer.kind != kVoteTimeoutKind) return;
  if (!is_coordinator(ctx) || !voting_) return;
  ctx.annotate("vote timeout for txn " + std::to_string(current_txn_));
  decide(ctx, timeout_decision());
}

void TwoPcBase::on_message(rt::Context& ctx, const net::Message& msg) {
  switch (msg.tag) {
    case kPrepareTag: {
      TxnBody body = msg.decode<TxnBody>();
      if (two_pc_votes_yes(body.txn, ctx.self())) {
        ctx.send_body(msg.src, kVoteYesTag, body);
      } else {
        // A NO vote is a unilateral abort: record it immediately.
        record(body.txn, TxnDecision::kAbort);
        ctx.send_body(msg.src, kVoteNoTag, body);
      }
      break;
    }
    case kVoteYesTag:
    case kVoteNoTag: {
      if (!is_coordinator(ctx) || !voting_) break;  // stale vote
      TxnBody body = msg.decode<TxnBody>();
      if (body.txn != current_txn_) break;
      ++votes_received_;
      if (msg.tag == kVoteYesTag) ++yes_votes_;
      if (msg.tag == kVoteNoTag) {
        decide(ctx, TxnDecision::kAbort);
      } else if (votes_received_ == participant_count(ctx)) {
        decide(ctx, yes_votes_ == participant_count(ctx)
                        ? TxnDecision::kCommit
                        : TxnDecision::kAbort);
      }
      break;
    }
    case kCommitTag:
    case kAbortTag: {
      TxnBody body = msg.decode<TxnBody>();
      TxnDecision d = (msg.tag == kCommitTag) ? TxnDecision::kCommit
                                              : TxnDecision::kAbort;
      // A participant that already aborted unilaterally keeps its abort:
      // overwriting would *mask* the atomicity violation rather than cause
      // it — the conflicting records are exactly what the invariant checks.
      if (decision_of(body.txn) == TxnDecision::kNone) record(body.txn, d);
      ctx.send_body(msg.src, kAckTag, body);
      break;
    }
    case kAckTag: {
      if (!is_coordinator(ctx)) break;
      TxnBody body = msg.decode<TxnBody>();
      if (body.txn != current_txn_) break;
      ++acks_;
      if (acks_ == participant_count(ctx)) {
        ++completed_;
        ++current_txn_;
        if (current_txn_ >= cfg_.total_txns) {
          for (ProcessId p = 1; p < ctx.world_size(); ++p)
            ctx.send(p, kTpcStopTag, {});
          ctx.halt();
        } else {
          begin_txn(ctx);
        }
      }
      break;
    }
    case kTpcStopTag:
      ctx.halt();
      break;
    default:
      ctx.report_fault("2pc: unknown tag " + std::to_string(msg.tag));
  }
}

void TwoPcBase::save_root(BinaryWriter& w) const {
  w.write_u64(cfg_.total_txns);
  w.write_u64(cfg_.vote_timeout);
  w.write_varint(decisions_.size());
  for (TxnDecision d : decisions_) w.write_u8(static_cast<std::uint8_t>(d));
  w.write_u64(current_txn_);
  w.write_bool(voting_);
  w.write_u32(yes_votes_);
  w.write_u32(votes_received_);
  w.write_u32(acks_);
  w.write_u64(completed_);
}

void TwoPcBase::load_root(BinaryReader& r) {
  cfg_.total_txns = r.read_u64();
  cfg_.vote_timeout = r.read_u64();
  std::size_t n = static_cast<std::size_t>(r.read_varint());
  decisions_.assign(n, TxnDecision::kNone);
  for (std::size_t i = 0; i < n; ++i) {
    decisions_[i] = static_cast<TxnDecision>(r.read_u8());
  }
  current_txn_ = r.read_u64();
  voting_ = r.read_bool();
  yes_votes_ = r.read_u32();
  votes_received_ = r.read_u32();
  acks_ = r.read_u32();
  completed_ = r.read_u64();
}

}  // namespace detail

std::unique_ptr<rt::World> make_two_pc_world(std::size_t n, int version,
                                             TwoPcConfig cfg,
                                             rt::WorldOptions base) {
  FIXD_CHECK_MSG(n >= 2, "2pc needs a coordinator and a participant");
  auto w = std::make_unique<rt::World>(base);
  for (std::size_t i = 0; i < n; ++i) {
    if (version == 1) {
      w->add_process(std::make_unique<TwoPcV1>(cfg));
    } else {
      w->add_process(std::make_unique<TwoPcV2>(cfg));
    }
  }
  w->seal();
  install_two_pc_invariants(*w);
  return w;
}

void install_two_pc_invariants(rt::World& w) {
  w.invariants().add_global(
      "2pc/atomicity",
      [](const rt::World& world) -> std::optional<std::string> {
        // facet() caches each process's view, so the per-transaction
        // loop below reads a slot instead of re-running a cross-cast.
        const auto* first = world.facet<ITwoPcParty>(0);
        if (!first) return std::nullopt;
        for (std::uint64_t txn = 0; txn < first->txn_count(); ++txn) {
          bool commit = false, abort = false;
          for (ProcessId p = 0; p < world.size(); ++p) {
            const auto* party = world.facet<ITwoPcParty>(p);
            if (!party) continue;
            switch (party->decision_of(txn)) {
              case TxnDecision::kCommit: commit = true; break;
              case TxnDecision::kAbort: abort = true; break;
              case TxnDecision::kNone: break;
            }
          }
          if (commit && abort) {
            return "txn " + std::to_string(txn) +
                   " has conflicting commit/abort records";
          }
        }
        return std::nullopt;
      });
}

heal::UpdatePatch two_pc_fix_patch(TwoPcConfig cfg) {
  heal::UpdatePatch p;
  p.target_type = "two-phase-commit";
  p.from_version = 1;
  p.to_version = 2;
  p.factory = [cfg]() { return std::make_unique<TwoPcV2>(cfg); };
  p.description = "2pc v2: vote timeout presumes abort, not commit";
  return p;
}

}  // namespace fixd::apps
