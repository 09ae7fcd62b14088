#include "apps/kv_lag.hpp"

#include "common/hash.hpp"

namespace fixd::apps {

namespace {
struct LagOpBody {
  std::uint64_t seq = 0;
  std::uint64_t key = 0;
  std::uint64_t delta = 0;
  void save(BinaryWriter& w) const {
    w.write_u64(seq);
    w.write_u64(key);
    w.write_u64(delta);
  }
  void load(BinaryReader& r) {
    seq = r.read_u64();
    key = r.read_u64();
    delta = r.read_u64();
  }
};

struct LagAckBody {
  std::uint64_t seq = 0;
  void save(BinaryWriter& w) const { w.write_u64(seq); }
  void load(BinaryReader& r) { seq = r.read_u64(); }
};
}  // namespace

std::uint64_t KvLagReplica::content_digest() const {
  Hasher h;
  for (std::uint64_t s : slots_) h.update_u64(s);
  return h.digest();
}

void KvLagReplica::on_start(rt::Context& ctx) {
  if (!is_primary(ctx)) return;
  acked_.assign(ctx.world_size(), false);
  if (cfg_.total_ops == 0) {
    finished_ = true;
    for (ProcessId p = 1; p < ctx.world_size(); ++p)
      ctx.send(p, kLagStopTag, {});
    ctx.halt();
    return;
  }
  send_op(ctx, /*first_send=*/true);
}

void KvLagReplica::send_op(rt::Context& ctx, bool first_send) {
  const std::uint64_t key = op_key(seq_, cfg_.key_space);
  const std::uint64_t delta = op_delta(seq_);
  if (first_send) {
    apply(key, delta);  // the primary's own copy, exactly once
  } else {
    ++retransmits_;
  }
  LagOpBody body{seq_, key, delta};
  for (ProcessId p = 1; p < ctx.world_size(); ++p) {
    if (!acked_[p]) ctx.send_body(p, kLagOpTag, body);
  }
  ctx.set_timer(cfg_.retransmit_timeout, kRetransmitKind);
}

void KvLagReplica::advance(rt::Context& ctx) {
  ctx.cancel_timers(kRetransmitKind);
  ++seq_;
  acked_.assign(ctx.world_size(), false);
  if (seq_ >= cfg_.total_ops) {
    finished_ = true;
    for (ProcessId p = 1; p < ctx.world_size(); ++p)
      ctx.send(p, kLagStopTag, {});
    ctx.halt();
  } else {
    send_op(ctx, /*first_send=*/true);
  }
}

void KvLagReplica::on_timer(rt::Context& ctx, const rt::Timer& timer) {
  if (timer.kind != kRetransmitKind || !is_primary(ctx) || finished_) return;
  // The acks are late. If the timeout is conservative this never happens;
  // if it undercuts the real round trip, this resend is the duplicate that
  // diverges the replicas.
  ctx.annotate("retransmit timeout for op " + std::to_string(seq_));
  send_op(ctx, /*first_send=*/false);
}

void KvLagReplica::on_message(rt::Context& ctx, const net::Message& msg) {
  switch (msg.tag) {
    case kLagOpTag: {
      LagOpBody body = msg.decode<LagOpBody>();
      // At-least-once delivery applied non-idempotently: a second copy of
      // the same op lands here as a second += .
      apply(body.key, body.delta);
      ctx.send_body(msg.src, kLagAckTag, LagAckBody{body.seq});
      break;
    }
    case kLagAckTag: {
      if (!is_primary(ctx) || finished_) break;
      LagAckBody body = msg.decode<LagAckBody>();
      if (body.seq != seq_) break;              // stale ack
      if (msg.src >= acked_.size() || acked_[msg.src]) break;
      acked_[msg.src] = true;
      bool all = true;
      for (ProcessId p = 1; p < ctx.world_size(); ++p) {
        if (!acked_[p]) all = false;
      }
      if (all) advance(ctx);
      break;
    }
    case kLagStopTag:
      finished_ = true;
      ctx.halt();
      break;
    default:
      ctx.report_fault("kv-lag: unknown tag " + std::to_string(msg.tag));
  }
}

void KvLagReplica::save_root(BinaryWriter& w) const {
  // The tunable leads the layout (after the fixed config pair) so the
  // tuner's StateTransform can rewrite it and raw-copy the rest.
  w.write_u64(cfg_.total_ops);
  w.write_u64(cfg_.key_space);
  w.write_u64(cfg_.retransmit_timeout);
  for (std::uint64_t s : slots_) w.write_u64(s);
  w.write_u64(seq_);
  w.write_u64(applied_);
  w.write_u64(retransmits_);
  w.write_bool(finished_);
  w.write_varint(acked_.size());
  for (bool b : acked_) w.write_bool(b);
}

void KvLagReplica::load_root(BinaryReader& r) {
  cfg_.total_ops = r.read_u64();
  cfg_.key_space = r.read_u64();
  cfg_.retransmit_timeout = r.read_u64();
  for (std::uint64_t& s : slots_) s = r.read_u64();
  seq_ = r.read_u64();
  applied_ = r.read_u64();
  retransmits_ = r.read_u64();
  finished_ = r.read_bool();
  std::size_t n = static_cast<std::size_t>(r.read_varint());
  acked_.assign(n, false);
  for (std::size_t i = 0; i < n; ++i) acked_[i] = r.read_bool();
}

std::unique_ptr<rt::World> make_kv_lag_world(std::size_t n, KvLagConfig cfg,
                                             rt::WorldOptions base) {
  FIXD_CHECK_MSG(n >= 2, "kv-lag needs a primary and a backup");
  auto w = std::make_unique<rt::World>(base);
  for (std::size_t i = 0; i < n; ++i) {
    w->add_process(std::make_unique<KvLagReplica>(cfg));
  }
  w->seal();
  install_kv_lag_invariants(*w);
  return w;
}

void install_kv_lag_invariants(rt::World& w) {
  w.invariants().add_global(
      "kv-lag/exactly-once",
      [](const rt::World& world) -> std::optional<std::string> {
        // Only decidable at quiescence of the replication stream.
        const auto* primary = world.facet<ILagReplica>(0);
        if (!primary || !primary->finished()) return std::nullopt;
        for (const net::Message* m : world.network().pending()) {
          if (m->tag == kLagOpTag || m->tag == kLagAckTag ||
              m->tag == kLagStopTag) {
            return std::nullopt;
          }
        }
        std::uint64_t want = primary->content_digest();
        for (ProcessId p = 1; p < world.size(); ++p) {
          const auto* rep = world.facet<ILagReplica>(p);
          if (!rep) continue;
          if (rep->content_digest() != want) {
            return "replica p" + std::to_string(p) +
                   " diverged from the primary (duplicate apply)";
          }
        }
        return std::nullopt;
      });
}

heal::UpdatePatch kv_lag_timeout_patch(KvLagConfig cfg,
                                       VirtualTime new_timeout,
                                       std::uint32_t from_version) {
  heal::UpdatePatch p;
  p.target_type = "kv-lag-replica";
  p.from_version = from_version;
  p.to_version = from_version + 1;
  KvLagConfig fixed = cfg;
  fixed.retransmit_timeout = new_timeout;
  std::uint32_t to = from_version + 1;
  p.factory = [fixed, to]() {
    return std::make_unique<KvLagReplica>(fixed, to);
  };
  // Same behaviour, new configuration: rewrite the stored timeout, carry
  // everything else verbatim.
  p.transform = [new_timeout](BinaryReader& in, BinaryWriter& out) {
    out.write_u64(in.read_u64());  // total_ops
    out.write_u64(in.read_u64());  // key_space
    in.read_u64();                 // old retransmit_timeout, replaced:
    out.write_u64(new_timeout);
    out.write_raw(in.read_raw(in.remaining()));
    return true;
  };
  p.description = "kv-lag: retransmit timeout -> " +
                  std::to_string(new_timeout);
  return p;
}

heal::TimeoutSite kv_lag_timeout_site(KvLagConfig cfg,
                                      std::uint32_t from_version) {
  heal::TimeoutSite site;
  site.name = "kv-lag/retransmit-timeout";
  site.target_type = "kv-lag-replica";
  site.from_version = from_version;
  site.timer_kind = KvLagReplica::kRetransmitKind;
  site.current = cfg.retransmit_timeout;
  site.make_patch = [cfg, from_version](VirtualTime v) {
    return kv_lag_timeout_patch(cfg, v, from_version);
  };
  return site;
}

}  // namespace fixd::apps
