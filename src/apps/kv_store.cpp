#include "apps/kv_store.hpp"

#include <algorithm>

#include "common/hash.hpp"

namespace fixd::apps {

namespace {
struct RepOpBody {
  std::uint64_t seq = 0;
  std::uint64_t key = 0;
  std::uint64_t value = 0;
  void save(BinaryWriter& w) const {
    w.write_u64(seq);
    w.write_u64(key);
    w.write_u64(value);
  }
  void load(BinaryReader& r) {
    seq = r.read_u64();
    key = r.read_u64();
    value = r.read_u64();
  }
};
}  // namespace

namespace detail {

KvReplicaBase::KvReplicaBase(KvConfig cfg) : cfg_(cfg) {
  mem::HeapAlloc alloc = mem::HeapAlloc::format(heap_);
  auto m = mem::PagedMap<std::uint64_t, KvValue>::create(alloc, 64);
  map_off_ = m.header_offset();
}

void KvReplicaBase::apply_put(std::uint64_t key, std::uint64_t value) {
  map().put(key, KvValue::of(value));
  ++applied_;
}

std::optional<std::uint64_t> KvReplicaBase::get(std::uint64_t key) const {
  auto v = map().get(key);
  if (!v) return std::nullopt;
  return v->val;
}

std::uint64_t KvReplicaBase::content_digest() const {
  // Order-insensitive: the same logical content must digest equally even if
  // insertion order (and thus heap layout) differed between replicas.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> kvs;
  map().for_each([&](const std::uint64_t& k, const KvValue& v) {
    kvs.emplace_back(k, v.val);
  });
  std::sort(kvs.begin(), kvs.end());
  Hasher h;
  for (const auto& [k, v] : kvs) {
    h.update_u64(k);
    h.update_u64(v);
  }
  return h.digest();
}

std::uint64_t KvReplicaBase::keys_stored() const { return map().size(); }

void KvReplicaBase::on_start(rt::Context& ctx) {
  if (is_primary(ctx)) {
    if (cfg_.total_ops == 0) {
      finished_ = true;
      for (ProcessId p = 1; p < ctx.world_size(); ++p)
        ctx.send(p, kKvStopTag, {});
      ctx.halt();
      return;
    }
    ctx.set_timer(1, kOpTimerKind);
  }
}

void KvReplicaBase::primary_step(rt::Context& ctx) {
  std::uint64_t key = ctx.random_u64() % cfg_.key_space;
  std::uint64_t value = ctx.random_u64();
  apply_put(key, value);
  RepOpBody body{next_seq_++, key, value};
  for (ProcessId p = 1; p < ctx.world_size(); ++p) {
    ctx.send_body(p, kReplicateTag, body);
  }
  if (next_seq_ >= cfg_.total_ops) {
    finished_ = true;
    for (ProcessId p = 1; p < ctx.world_size(); ++p)
      ctx.send(p, kKvStopTag, {});
    ctx.halt();
  } else {
    ctx.set_timer(1, kOpTimerKind);
  }
}

void KvReplicaBase::on_timer(rt::Context& ctx, const rt::Timer& timer) {
  if (timer.kind != kOpTimerKind || !is_primary(ctx)) return;
  primary_step(ctx);
}

void KvReplicaBase::on_message(rt::Context& ctx, const net::Message& msg) {
  switch (msg.tag) {
    case kReplicateTag: {
      RepOpBody body = msg.decode<RepOpBody>();
      on_replicate(ctx, body.seq, body.key, body.value);
      break;
    }
    case kKvStopTag:
      finished_ = true;
      ctx.halt();
      break;
    default:
      ctx.report_fault("kv: unknown tag " + std::to_string(msg.tag));
  }
}

void KvReplicaBase::save_root(BinaryWriter& w) const {
  w.write_u64(cfg_.total_ops);
  w.write_u64(cfg_.key_space);
  w.write_u64(map_off_);
  w.write_u64(next_seq_);
  w.write_u64(applied_);
  w.write_bool(finished_);
  w.write_varint(pending_.size());
  for (const auto& [seq, kv] : pending_) {
    w.write_u64(seq);
    w.write_u64(kv.first);
    w.write_u64(kv.second);
  }
}

void KvReplicaBase::load_root(BinaryReader& r) {
  cfg_.total_ops = r.read_u64();
  cfg_.key_space = r.read_u64();
  map_off_ = r.read_u64();
  next_seq_ = r.read_u64();
  applied_ = r.read_u64();
  finished_ = r.read_bool();
  pending_.clear();
  std::size_t n = static_cast<std::size_t>(r.read_varint());
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t seq = r.read_u64();
    std::uint64_t k = r.read_u64();
    std::uint64_t v = r.read_u64();
    pending_[seq] = {k, v};
  }
}

}  // namespace detail

// --- v1: apply in arrival order (diverges under reordering) -----------------

std::unique_ptr<rt::Process> KvReplicaV1::clone_behavior() const {
  return std::make_unique<KvReplicaV1>(*this);
}

void KvReplicaV1::on_replicate(rt::Context& ctx, std::uint64_t seq,
                               std::uint64_t key, std::uint64_t value) {
  (void)ctx;
  (void)seq;  // BUG: ordering metadata ignored
  apply_put(key, value);
}

// --- v2: strict sequence order ----------------------------------------------

std::unique_ptr<rt::Process> KvReplicaV2::clone_behavior() const {
  return std::make_unique<KvReplicaV2>(*this);
}

void KvReplicaV2::on_replicate(rt::Context& ctx, std::uint64_t seq,
                               std::uint64_t key, std::uint64_t value) {
  (void)ctx;
  pending_[seq] = {key, value};
  while (!pending_.empty() && pending_.begin()->first == next_seq_) {
    auto [k, v] = pending_.begin()->second;
    apply_put(k, v);
    pending_.erase(pending_.begin());
    ++next_seq_;
  }
}

// --- helpers -----------------------------------------------------------------

std::unique_ptr<rt::World> make_kv_world(std::size_t n, int version,
                                         KvConfig cfg,
                                         rt::WorldOptions base) {
  FIXD_CHECK_MSG(n >= 2, "kv needs a primary and a backup");
  auto w = std::make_unique<rt::World>(base);
  for (std::size_t i = 0; i < n; ++i) {
    if (version == 1) {
      w->add_process(std::make_unique<KvReplicaV1>(cfg));
    } else {
      w->add_process(std::make_unique<KvReplicaV2>(cfg));
    }
  }
  w->seal();
  install_kv_invariants(*w);
  return w;
}

void install_kv_invariants(rt::World& w) {
  w.invariants().add_global(
      "kv/replica-consistency",
      [](const rt::World& world) -> std::optional<std::string> {
        // Only decidable at quiescence of the replication stream.
        const auto* primary = world.facet<IKvReplica>(0);
        if (!primary || !primary->finished()) return std::nullopt;
        for (const net::Message* m : world.network().pending()) {
          if (m->tag == kReplicateTag || m->tag == kKvStopTag)
            return std::nullopt;
        }
        std::uint64_t want = primary->content_digest();
        for (ProcessId p = 1; p < world.size(); ++p) {
          const auto* rep = world.facet<IKvReplica>(p);
          if (!rep) continue;
          if (rep->content_digest() != want) {
            return "replica p" + std::to_string(p) +
                   " diverged from the primary";
          }
        }
        return std::nullopt;
      });
}

heal::UpdatePatch kv_fix_patch(KvConfig cfg) {
  heal::UpdatePatch p;
  p.target_type = "kv-replica";
  p.from_version = 1;
  p.to_version = 2;
  p.factory = [cfg]() { return std::make_unique<KvReplicaV2>(cfg); };
  // v1 never tracked next_seq_ on backups; the transform must set the v2
  // cursor to the number of ops already applied — the best equivalent state.
  p.transform = [](BinaryReader& in, BinaryWriter& out) {
    std::uint64_t total_ops = in.read_u64();
    std::uint64_t key_space = in.read_u64();
    std::uint64_t map_off = in.read_u64();
    std::uint64_t next_seq = in.read_u64();
    std::uint64_t applied = in.read_u64();
    bool finished = in.read_bool();
    // pending_ is empty in v1 (never populated); drop the remainder.
    out.write_u64(total_ops);
    out.write_u64(key_space);
    out.write_u64(map_off);
    out.write_u64(next_seq == 0 ? applied : next_seq);
    out.write_u64(applied);
    out.write_bool(finished);
    out.write_varint(0);
    return true;
  };
  p.description = "kv v2: backups apply replicated ops in sequence order";
  return p;
}

}  // namespace fixd::apps
