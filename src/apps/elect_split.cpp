#include "apps/elect_split.hpp"

#include <optional>

namespace fixd::apps {

namespace detail {

void ElectSplitBase::on_start(rt::Context& ctx) {
  if (ctx.self() == 0) {
    leading_ = true;
    send_beat_round(ctx);
  } else {
    ctx.set_timer(cfg_.watchdog, kWatchKind);
  }
}

void ElectSplitBase::send_beat_round(rt::Context& ctx) {
  ++beats_sent_;
  for (ProcessId p = 0; p < ctx.world_size(); ++p) {
    if (p != ctx.self()) ctx.send(p, kBeatTag, {});
  }
  if (beats_sent_ < cfg_.max_beats) {
    ctx.set_timer(cfg_.beat_period, kBeatKind);
  }
}

void ElectSplitBase::on_timer(rt::Context& ctx, const rt::Timer& timer) {
  switch (timer.kind) {
    case kBeatKind: {
      if (leading_ && beats_sent_ < cfg_.max_beats) send_beat_round(ctx);
      break;
    }
    case kWatchKind: {
      if (leading_) break;  // already failed over
      if (beats_seen_ > beats_at_arm_) {
        // The leader showed signs of life inside the window; keep watching
        // until its bounded beat stream is complete, then go quiet.
        beats_at_arm_ = beats_seen_;
        if (beats_seen_ < cfg_.max_beats) {
          ctx.set_timer(cfg_.watchdog, kWatchKind);
        }
        break;
      }
      suspicious_ = true;
      ctx.annotate("watchdog starved after " + std::to_string(beats_seen_) +
                   " beats");
      on_suspect(ctx);
      break;
    }
    default:
      break;
  }
}

void ElectSplitBase::on_message(rt::Context& ctx, const net::Message& msg) {
  switch (msg.tag) {
    case kBeatTag: {
      ++beats_seen_;
      suspicious_ = false;  // fresh leader evidence
      break;
    }
    case kVoteReqTag: {
      // Grant a vote only while our own watchdog is starving too — the v2
      // quorum rule. (v1 never asks, but the grant side is version-free.)
      if (suspicious_ && !leading_) ctx.send(msg.src, kVoteAckTag, {});
      break;
    }
    case kVoteAckTag: {
      ++acks_;
      if (!leading_ && 2 * (acks_ + 1) > ctx.world_size()) {
        leading_ = true;  // majority behind the failover
      }
      break;
    }
    default:
      ctx.report_fault("elect-split: unknown tag " + std::to_string(msg.tag));
  }
}

void ElectSplitBase::save_root(BinaryWriter& w) const {
  w.write_u64(cfg_.beat_period);
  w.write_u64(cfg_.watchdog);
  w.write_u32(cfg_.max_beats);
  w.write_bool(leading_);
  w.write_bool(suspicious_);
  w.write_u32(beats_sent_);
  w.write_u32(beats_seen_);
  w.write_u32(beats_at_arm_);
  w.write_u32(acks_);
}

void ElectSplitBase::load_root(BinaryReader& r) {
  cfg_.beat_period = r.read_u64();
  cfg_.watchdog = r.read_u64();
  cfg_.max_beats = r.read_u32();
  leading_ = r.read_bool();
  suspicious_ = r.read_bool();
  beats_sent_ = r.read_u32();
  beats_seen_ = r.read_u32();
  beats_at_arm_ = r.read_u32();
  acks_ = r.read_u32();
}

}  // namespace detail

// --- v1: unilateral failover (split brain under a partition) ----------------

void ElectSplitV1::on_suspect(rt::Context& ctx) {
  (void)ctx;
  // BUG: "no beats means the leader is dead". Under an asymmetric cut the
  // leader is alive and still leading — it just can't reach us.
  leading_ = true;
}

// --- v2: majority-vote failover ---------------------------------------------

void ElectSplitV2::on_suspect(rt::Context& ctx) {
  for (ProcessId p = 0; p < ctx.world_size(); ++p) {
    if (p != ctx.self()) ctx.send(p, kVoteReqTag, {});
  }
}

// --- helpers ----------------------------------------------------------------

std::unique_ptr<rt::World> make_elect_split_world(std::size_t n, int version,
                                                  ElectSplitConfig cfg,
                                                  rt::WorldOptions base) {
  FIXD_CHECK_MSG(n >= 3, "elect-split needs a leader and a quorum");
  auto w = std::make_unique<rt::World>(base);
  for (std::size_t i = 0; i < n; ++i) {
    if (version == 1) {
      w->add_process(std::make_unique<ElectSplitV1>(cfg));
    } else {
      w->add_process(std::make_unique<ElectSplitV2>(cfg));
    }
  }
  w->seal();
  install_elect_split_invariants(*w);
  return w;
}

void install_elect_split_invariants(rt::World& w) {
  w.invariants().add_global(
      "elect-split/single-leader",
      [](const rt::World& world) -> std::optional<std::string> {
        std::size_t leaders = 0;
        for (ProcessId p = 0; p < world.size(); ++p) {
          const auto* e = world.facet<IElectSplit>(p);
          if (e && e->leading()) ++leaders;
        }
        if (leaders > 1) {
          return std::to_string(leaders) + " processes leading";
        }
        return std::nullopt;
      });
}

heal::UpdatePatch elect_split_fix_patch(ElectSplitConfig cfg) {
  heal::UpdatePatch p;
  p.target_type = "elect-split";
  p.from_version = 1;
  p.to_version = 2;
  p.factory = [cfg]() { return std::make_unique<ElectSplitV2>(cfg); };
  p.description = "elect-split v2: failover requires a majority vote";
  return p;
}

}  // namespace fixd::apps
