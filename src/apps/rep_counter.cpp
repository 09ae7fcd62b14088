#include "apps/rep_counter.hpp"

namespace fixd::apps {

namespace {
struct IncBody {
  std::uint64_t value = 0;
  void save(BinaryWriter& w) const { w.write_u64(value); }
  void load(BinaryReader& r) { value = r.read_u64(); }
};
}  // namespace

std::uint64_t counter_expected_sum(std::size_t n, CounterConfig cfg) {
  std::uint64_t sum = 0;
  for (ProcessId p = 0; p < n; ++p) {
    for (std::uint64_t i = 0; i < cfg.incs_per_proc; ++i) {
      sum += counter_inc_value(p, i);
    }
  }
  return sum;
}

namespace detail {

void CounterBase::on_start(rt::Context& ctx) {
  for (std::uint64_t i = 0; i < cfg_.incs_per_proc; ++i) {
    IncBody body{counter_inc_value(ctx.self(), i)};
    for (ProcessId p = 0; p < ctx.world_size(); ++p) {
      ctx.send_body(p, kIncTag, body);
    }
  }
  for (ProcessId p = 0; p < ctx.world_size(); ++p) {
    ctx.send(p, kDoneTag, {});
  }
}

void CounterBase::maybe_finish(rt::Context& ctx) {
  const std::uint64_t expected_applies =
      ctx.world_size() * cfg_.incs_per_proc;
  if (done_marks_ == ctx.world_size() && applied_ == expected_applies &&
      !done_) {
    done_ = true;
    std::uint64_t expected = 0;
    for (ProcessId p = 0; p < ctx.world_size(); ++p) {
      for (std::uint64_t i = 0; i < cfg_.incs_per_proc; ++i) {
        expected += counter_inc_value(p, i);
      }
    }
    if (sum_ != expected) {
      ctx.report_fault("counter sum " + std::to_string(sum_) +
                       " != expected " + std::to_string(expected));
    }
    ctx.halt();
  }
}

void CounterBase::on_message(rt::Context& ctx, const net::Message& msg) {
  switch (msg.tag) {
    case kIncTag: {
      BinaryReader r(msg.payload);
      std::uint64_t value = r.read_u64();
      apply_inc(value);
      maybe_finish(ctx);
      break;
    }
    case kDoneTag:
      ++done_marks_;
      maybe_finish(ctx);
      break;
    default:
      ctx.report_fault("counter: unknown tag " + std::to_string(msg.tag));
  }
}

void CounterBase::save_root(BinaryWriter& w) const {
  w.write_u64(cfg_.incs_per_proc);
  w.write_u64(sum_);
  w.write_u64(applied_);
  w.write_u32(done_marks_);
  w.write_bool(done_);
}

void CounterBase::load_root(BinaryReader& r) {
  cfg_.incs_per_proc = r.read_u64();
  sum_ = r.read_u64();
  applied_ = r.read_u64();
  done_marks_ = r.read_u32();
  done_ = r.read_bool();
}

}  // namespace detail

std::unique_ptr<rt::World> make_counter_world(std::size_t n, int version,
                                              CounterConfig cfg,
                                              rt::WorldOptions base) {
  auto w = std::make_unique<rt::World>(base);
  for (std::size_t i = 0; i < n; ++i) {
    if (version == 1) {
      w->add_process(std::make_unique<CounterV1>(cfg));
    } else {
      w->add_process(std::make_unique<CounterV2>(cfg));
    }
  }
  w->seal();
  install_counter_invariants(*w);
  return w;
}

void install_counter_invariants(rt::World& w) {
  const std::size_t n = w.size();
  w.invariants().add_global(
      "counter/agreement",
      [n](const rt::World& world) -> std::optional<std::string> {
        // Finished processes must agree on the total.
        std::uint64_t seen = 0;
        bool have = false;
        for (ProcessId p = 0; p < n; ++p) {
          const auto* c = world.facet<ICounter>(p);
          if (!c || !c->done()) continue;
          if (!have) {
            seen = c->total();
            have = true;
          } else if (c->total() != seen) {
            return "finished processes disagree on the total";
          }
        }
        return std::nullopt;
      });
}

heal::UpdatePatch counter_fix_patch(CounterConfig cfg) {
  heal::UpdatePatch p;
  p.target_type = "rep-counter";
  p.from_version = 1;
  p.to_version = 2;
  p.factory = [cfg]() { return std::make_unique<CounterV2>(cfg); };
  p.description = "rep-counter v2: apply each increment exactly once";
  return p;
}

}  // namespace fixd::apps
