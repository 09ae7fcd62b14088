#include "apps/token_ring.hpp"

namespace fixd::apps {

namespace {

struct TokenBody {
  std::uint64_t seq = 0;
  void save(BinaryWriter& w) const { w.write_u64(seq); }
  void load(BinaryReader& r) { seq = r.read_u64(); }
};

struct ProbeBody {
  std::uint32_t initiator = 0;
  bool token_seen = false;
  void save(BinaryWriter& w) const {
    w.write_u32(initiator);
    w.write_bool(token_seen);
  }
  void load(BinaryReader& r) {
    initiator = r.read_u32();
    token_seen = r.read_bool();
  }
};

}  // namespace

namespace detail {

void TokenRingBase::on_start(rt::Context& ctx) {
  rearm_timeout(ctx);
  if (ctx.self() == 0) {
    token_seq_ = 1;
    acquire_token(ctx);
    pass_token(ctx);
  }
}

void TokenRingBase::acquire_token(rt::Context& ctx) {
  has_token_ = true;
  token_seen_since_probe_ = true;
  ++work_;  // the critical section
  if (ctx.self() == 0) ++rounds_;
}

void TokenRingBase::pass_token(rt::Context& ctx) {
  if (!has_token_) return;
  has_token_ = false;
  TokenBody body{token_seq_};
  ctx.send_body(next_of(ctx), kTokenTag, body);
}

void TokenRingBase::regenerate_token(rt::Context& ctx) {
  ++token_seq_;
  ctx.annotate("regenerating token (seq " + std::to_string(token_seq_) + ")");
  acquire_token(ctx);
  pass_token(ctx);
}

void TokenRingBase::rearm_timeout(rt::Context& ctx) {
  ctx.cancel_timers(kTimeoutKind);
  ctx.set_timer(cfg_.timeout, kTimeoutKind);
}

void TokenRingBase::on_message(rt::Context& ctx, const net::Message& msg) {
  switch (msg.tag) {
    case kTokenTag: {
      TokenBody body = msg.decode<TokenBody>();
      if (done_) {
        // The ring has shut down; absorb stray tokens instead of keeping
        // them circulating through halted processes forever.
        break;
      }
      token_seq_ = std::max(token_seq_, body.seq);
      acquire_token(ctx);
      rearm_timeout(ctx);
      if (ctx.self() == 0 && rounds_ >= cfg_.target_rounds) {
        // Shut the ring down: absorb the token, stop everyone.
        has_token_ = false;
        done_ = true;
        for (ProcessId p = 0; p < ctx.world_size(); ++p) {
          if (p != ctx.self()) ctx.send(p, kStopTag, {});
        }
        ctx.halt();
        return;
      }
      pass_token(ctx);
      break;
    }
    case kProbeTag:
      on_probe(ctx, msg);
      break;
    case kStopTag:
      done_ = true;
      ctx.halt();
      break;
    default:
      ctx.report_fault("token-ring: unknown tag " + std::to_string(msg.tag));
  }
}

void TokenRingBase::on_timer(rt::Context& ctx, const rt::Timer& timer) {
  if (timer.kind != kTimeoutKind) return;
  on_timeout(ctx);
  rearm_timeout(ctx);
}

void TokenRingBase::on_probe(rt::Context& ctx, const net::Message& msg) {
  (void)ctx;
  (void)msg;
  // v1 never sends probes; ignore stray ones.
}

void TokenRingBase::save_root(BinaryWriter& w) const {
  w.write_u64(cfg_.target_rounds);
  w.write_u64(cfg_.timeout);
  w.write_bool(has_token_);
  w.write_bool(done_);
  w.write_u64(work_);
  w.write_u64(rounds_);
  w.write_u64(token_seq_);
  w.write_bool(token_seen_since_probe_);
  w.write_bool(probing_);
}

void TokenRingBase::load_root(BinaryReader& r) {
  cfg_.target_rounds = r.read_u64();
  cfg_.timeout = r.read_u64();
  has_token_ = r.read_bool();
  done_ = r.read_bool();
  work_ = r.read_u64();
  rounds_ = r.read_u64();
  token_seq_ = r.read_u64();
  token_seen_since_probe_ = r.read_bool();
  probing_ = r.read_bool();
}

}  // namespace detail

// --- v1: the bug ------------------------------------------------------------

void TokenRingV1::on_timeout(rt::Context& ctx) {
  // BUG: assumes timeout implies token loss. A slow hop (or an exploring
  // scheduler) fires this while the token is alive => two tokens.
  if (!has_token_) regenerate_token(ctx);
}

// --- v2: the fix ------------------------------------------------------------

void TokenRingV2::on_timeout(rt::Context& ctx) {
  // Only the ring monitor (pid 0) probes: concurrent probes from several
  // processes could each conclude "token lost" and each regenerate.
  if (ctx.self() != 0) return;
  if (has_token_ || probing_ || done_) return;
  probing_ = true;
  ProbeBody body{static_cast<std::uint32_t>(ctx.self()), false};
  ctx.send_body(next_of(ctx), kProbeTag, body);
}

void TokenRingV2::on_probe(rt::Context& ctx, const net::Message& msg) {
  ProbeBody body = msg.decode<ProbeBody>();
  if (body.initiator == ctx.self()) {
    probing_ = false;
    if (!body.token_seen && !has_token_ && !done_) {
      // FIFO ring: a live token would have been observed by some hop since
      // the probe epoch started. A clean probe means real loss.
      regenerate_token(ctx);
    }
    return;
  }
  if (has_token_ || token_seen_since_probe_) body.token_seen = true;
  token_seen_since_probe_ = false;  // reset this hop's probe epoch
  ctx.send_body(next_of(ctx), kProbeTag, body);
}

// --- helpers ---------------------------------------------------------------

std::unique_ptr<rt::World> make_token_ring_world(std::size_t n, int version,
                                                 TokenRingConfig cfg,
                                                 rt::WorldOptions base) {
  auto w = std::make_unique<rt::World>(base);
  for (std::size_t i = 0; i < n; ++i) {
    if (version == 1) {
      w->add_process(std::make_unique<TokenRingV1>(cfg));
    } else {
      w->add_process(std::make_unique<TokenRingV2>(cfg));
    }
  }
  w->seal();
  install_token_ring_invariants(*w);
  return w;
}

void install_token_ring_invariants(rt::World& w) {
  w.invariants().add_global(
      "token-ring/mutual-exclusion",
      [](const rt::World& world) -> std::optional<std::string> {
        std::size_t tokens = 0;
        for (ProcessId p = 0; p < world.size(); ++p) {
          const auto* holder = world.facet<ITokenHolder>(p);
          if (holder && holder->holds_token()) ++tokens;
        }
        for (const net::Message* m : world.network().pending()) {
          if (m->tag == kTokenTag) ++tokens;
        }
        if (tokens > 1) {
          return std::to_string(tokens) +
                 " tokens in the system (holders + in flight)";
        }
        return std::nullopt;
      });
}

heal::UpdatePatch token_ring_fix_patch(TokenRingConfig cfg) {
  heal::UpdatePatch p;
  p.target_type = "token-ring";
  p.from_version = 1;
  p.to_version = 2;
  p.factory = [cfg]() { return std::make_unique<TokenRingV2>(cfg); };
  // v1 and v2 share the root layout: identity transform.
  p.description =
      "token-ring v2: timeout launches a ring probe instead of blind "
      "regeneration";
  return p;
}

std::uint64_t token_ring_total_work(const rt::World& w) {
  std::uint64_t total = 0;
  for (ProcessId p = 0; p < w.size(); ++p) {
    const auto* holder = w.facet<ITokenHolder>(p);
    if (holder) total += holder->work_done();
  }
  return total;
}

}  // namespace fixd::apps
