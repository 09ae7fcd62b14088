#include "apps/kv_partition.hpp"

#include <optional>

namespace fixd::apps {

namespace {
struct VerBody {
  std::uint64_t ver = 0;
  void save(BinaryWriter& w) const { w.write_u64(ver); }
  void load(BinaryReader& r) { ver = r.read_u64(); }
};
}  // namespace

namespace detail {

void KvPartReplicaBase::on_start(rt::Context& ctx) {
  if (ctx.self() != 0) return;  // backups are passive until replication
  // The primary applies its whole write stream up front; each increment is
  // replicated separately so a partition can strand any prefix in flight.
  const ProcessId client = static_cast<ProcessId>(ctx.world_size() - 1);
  for (std::uint64_t v = 1; v <= cfg_.writes; ++v) {
    ver_ = v;
    for (ProcessId p = 1; p < client; ++p) {
      ctx.send_body(p, kReplTag, VerBody{v});
    }
  }
}

void KvPartReplicaBase::on_message(rt::Context& ctx,
                                   const net::Message& msg) {
  switch (msg.tag) {
    case kReplTag: {
      VerBody body = msg.decode<VerBody>();
      if (body.ver > ver_) ver_ = body.ver;
      break;
    }
    case kReadTag: {
      VerBody body = msg.decode<VerBody>();
      on_read(ctx, msg.src, body.ver);
      break;
    }
    default:
      ctx.report_fault("kv-part: unknown tag " + std::to_string(msg.tag));
  }
}

void KvPartReplicaBase::save_root(BinaryWriter& w) const {
  w.write_u32(cfg_.writes);
  w.write_u32(cfg_.reads);
  w.write_u64(ver_);
}

void KvPartReplicaBase::load_root(BinaryReader& r) {
  cfg_.writes = r.read_u32();
  cfg_.reads = r.read_u32();
  ver_ = r.read_u64();
}

}  // namespace detail

// --- v1: serve the local copy unconditionally -------------------------------

void KvPartReplicaV1::on_read(rt::Context& ctx, ProcessId client,
                              std::uint64_t floor) {
  (void)floor;
  // BUG: no freshness check — a lagging backup happily serves a version
  // the client has already moved past.
  ctx.send_body(client, kReadReplyTag, VerBody{ver_});
}

// --- v2: refuse reads below the client's floor ------------------------------

void KvPartReplicaV2::on_read(rt::Context& ctx, ProcessId client,
                              std::uint64_t floor) {
  if (ver_ >= floor) {
    ctx.send_body(client, kReadReplyTag, VerBody{ver_});
  } else {
    ctx.send_body(client, kStaleTag, VerBody{ver_});
  }
}

// --- client -----------------------------------------------------------------

void KvPartClient::send_read(rt::Context& ctx, ProcessId target) {
  ctx.send_body(target, kReadTag, VerBody{last_seen_});
}

void KvPartClient::on_start(rt::Context& ctx) {
  if (cfg_.reads == 0) {
    ctx.halt();
    return;
  }
  send_read(ctx, 0);  // first read goes to the primary
}

void KvPartClient::on_message(rt::Context& ctx, const net::Message& msg) {
  const std::size_t replicas = ctx.world_size() - 1;
  switch (msg.tag) {
    case kReadReplyTag: {
      VerBody body = msg.decode<VerBody>();
      if (body.ver < last_seen_) {
        monotonic_ok_ = false;  // time flowed backwards
      } else {
        last_seen_ = body.ver;
      }
      ++reads_done_;
      if (reads_done_ < cfg_.reads) {
        send_read(ctx, static_cast<ProcessId>(reads_done_ % replicas));
      } else {
        ctx.halt();
      }
      break;
    }
    case kStaleTag: {
      // v2 refusal: retry at the primary, which is authoritative.
      send_read(ctx, 0);
      break;
    }
    default:
      ctx.report_fault("kv-part client: unknown tag " +
                       std::to_string(msg.tag));
  }
}

void KvPartClient::save_root(BinaryWriter& w) const {
  w.write_u32(cfg_.writes);
  w.write_u32(cfg_.reads);
  w.write_u64(last_seen_);
  w.write_u32(reads_done_);
  w.write_bool(monotonic_ok_);
}

void KvPartClient::load_root(BinaryReader& r) {
  cfg_.writes = r.read_u32();
  cfg_.reads = r.read_u32();
  last_seen_ = r.read_u64();
  reads_done_ = r.read_u32();
  monotonic_ok_ = r.read_bool();
}

// --- helpers ----------------------------------------------------------------

std::unique_ptr<rt::World> make_kv_partition_world(std::size_t replicas,
                                                   int version,
                                                   KvPartitionConfig cfg,
                                                   rt::WorldOptions base) {
  FIXD_CHECK_MSG(replicas >= 2, "kv-partition needs a primary and a backup");
  auto w = std::make_unique<rt::World>(base);
  for (std::size_t i = 0; i < replicas; ++i) {
    if (version == 1) {
      w->add_process(std::make_unique<KvPartReplicaV1>(cfg));
    } else {
      w->add_process(std::make_unique<KvPartReplicaV2>(cfg));
    }
  }
  w->add_process(std::make_unique<KvPartClient>(cfg));
  w->seal();
  install_kv_partition_invariants(*w);
  return w;
}

void install_kv_partition_invariants(rt::World& w) {
  w.invariants().add_global(
      "kv-part/monotonic-reads",
      [](const rt::World& world) -> std::optional<std::string> {
        for (ProcessId p = 0; p < world.size(); ++p) {
          const auto* c = world.facet<IKvPartClient>(p);
          if (c && !c->monotonic_ok()) {
            return "client p" + std::to_string(p) +
                   " observed a read below its floor (" +
                   std::to_string(c->last_seen()) + ")";
          }
        }
        return std::nullopt;
      });
}

heal::UpdatePatch kv_partition_fix_patch(KvPartitionConfig cfg) {
  heal::UpdatePatch p;
  p.target_type = "kv-part-replica";
  p.from_version = 1;
  p.to_version = 2;
  p.factory = [cfg]() { return std::make_unique<KvPartReplicaV2>(cfg); };
  p.description = "kv-part v2: reads below the client's floor are refused";
  return p;
}

}  // namespace fixd::apps
