#include "apps/leader_election.hpp"

namespace fixd::apps {

namespace {
struct ElectBody {
  std::uint64_t uid = 0;
  std::uint32_t origin = 0;
  void save(BinaryWriter& w) const {
    w.write_u64(uid);
    w.write_u32(origin);
  }
  void load(BinaryReader& r) {
    uid = r.read_u64();
    origin = r.read_u32();
  }
};

struct LeaderBody {
  std::uint32_t leader = 0;
  void save(BinaryWriter& w) const { w.write_u32(leader); }
  void load(BinaryReader& r) { leader = r.read_u32(); }
};
}  // namespace

namespace detail {

void ElectorBase::on_start(rt::Context& ctx) {
  uid_ = ctx.env_read("uid") % cfg_.uid_space;
  ElectBody body{uid_, static_cast<std::uint32_t>(ctx.self())};
  ctx.send_body(next_of(ctx), kElectTag, body);
}

void ElectorBase::declare(rt::Context& ctx) {
  is_leader_ = true;
  leader_ = ctx.self();
  LeaderBody body{static_cast<std::uint32_t>(ctx.self())};
  for (ProcessId p = 0; p < ctx.world_size(); ++p) {
    if (p != ctx.self()) ctx.send_body(p, kLeaderTag, body);
  }
  ctx.halt();
}

void ElectorBase::on_message(rt::Context& ctx, const net::Message& msg) {
  switch (msg.tag) {
    case kElectTag: {
      ElectBody body = msg.decode<ElectBody>();
      on_candidate(ctx, body.uid, body.origin);
      break;
    }
    case kLeaderTag: {
      LeaderBody body = msg.decode<LeaderBody>();
      leader_ = body.leader;
      ctx.halt();
      break;
    }
    default:
      ctx.report_fault("election: unknown tag " + std::to_string(msg.tag));
  }
}

void ElectorBase::save_root(BinaryWriter& w) const {
  w.write_u64(cfg_.uid_space);
  w.write_u64(uid_);
  w.write_bool(is_leader_);
  w.write_u32(leader_);
}

void ElectorBase::load_root(BinaryReader& r) {
  cfg_.uid_space = r.read_u64();
  uid_ = r.read_u64();
  is_leader_ = r.read_bool();
  leader_ = r.read_u32();
}

}  // namespace detail

// --- v1: compares bare uid values (split brain on collision) ---------------

void ElectorV1::on_candidate(rt::Context& ctx, std::uint64_t uid,
                             ProcessId origin) {
  (void)origin;
  if (uid > uid_) {
    ElectBody body{uid, origin};
    ctx.send_body(next_of(ctx), kElectTag, body);
  } else if (uid == uid_) {
    // BUG: "my value came back, I must be the maximum". With a shared
    // maximum value, every sharer's candidacy survives the full loop and
    // every sharer reaches this branch.
    declare(ctx);
  }
  // uid < uid_: swallow the weaker candidacy (our own is already out).
}

// --- v2: compares (uid, pid) — unique total order ---------------------------

void ElectorV2::on_candidate(rt::Context& ctx, std::uint64_t uid,
                             ProcessId origin) {
  if (uid == uid_ && origin == ctx.self()) {
    declare(ctx);  // provably our own candidacy: unique (uid, pid)
    return;
  }
  bool stronger = (uid > uid_) ||
                  (uid == uid_ && origin > ctx.self());
  if (stronger) {
    ElectBody body{uid, origin};
    ctx.send_body(next_of(ctx), kElectTag, body);
  }
}

// --- helpers -----------------------------------------------------------------

std::unique_ptr<rt::World> make_election_world(std::size_t n, int version,
                                               ElectionConfig cfg,
                                               rt::WorldOptions base) {
  FIXD_CHECK_MSG(n >= 2, "election needs at least two processes");
  auto w = std::make_unique<rt::World>(base);
  for (std::size_t i = 0; i < n; ++i) {
    if (version == 1) {
      w->add_process(std::make_unique<ElectorV1>(cfg));
    } else {
      w->add_process(std::make_unique<ElectorV2>(cfg));
    }
  }
  w->seal();
  install_election_invariants(*w);
  return w;
}

void install_election_invariants(rt::World& w) {
  w.invariants().add_global(
      "election/single-leader",
      [](const rt::World& world) -> std::optional<std::string> {
        std::size_t leaders = 0;
        for (ProcessId p = 0; p < world.size(); ++p) {
          const auto* e = world.facet<IElector>(p);
          if (e && e->declared_leader()) ++leaders;
        }
        if (leaders > 1) {
          return std::to_string(leaders) + " processes declared leadership";
        }
        return std::nullopt;
      });
}

heal::UpdatePatch election_fix_patch(ElectionConfig cfg) {
  heal::UpdatePatch p;
  p.target_type = "leader-election";
  p.from_version = 1;
  p.to_version = 2;
  p.factory = [cfg]() { return std::make_unique<ElectorV2>(cfg); };
  p.description = "election v2: candidates ordered by (uid, pid), not uid";
  return p;
}

std::uint64_t find_colliding_env_seed(std::size_t n, ElectionConfig cfg,
                                      std::uint64_t from) {
  for (std::uint64_t seed = from; seed < from + 100000; ++seed) {
    std::uint64_t max_uid = 0;
    std::size_t holders = 0;
    for (ProcessId p = 0; p < n; ++p) {
      std::uint64_t uid =
          rt::default_env_value(seed, p, "uid", 0) % cfg.uid_space;
      if (uid > max_uid) {
        max_uid = uid;
        holders = 1;
      } else if (uid == max_uid) {
        ++holders;
      }
    }
    if (holders >= 2) return seed;
  }
  throw ConfigError("no colliding env seed found in scan range");
}

}  // namespace fixd::apps
