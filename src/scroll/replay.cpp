#include "scroll/replay.hpp"

#include <memory>

namespace fixd::scroll {

std::optional<std::uint64_t> RecordedEnvSource::next_env(
    ProcessId pid, std::string_view key) {
  ScrollRecord r;
  do {
    if (!cursor_.next(r)) {
      throw ReplayDivergence("env read beyond recorded scroll (p" +
                             std::to_string(pid) + ", key=" +
                             std::string(key) + ")");
    }
  } while (r.kind != RecordKind::kEnvRead);
  if (r.pid != pid || r.text != key) {
    throw ReplayDivergence("env read mismatch: recorded p" +
                           std::to_string(r.pid) + "/" + r.text + ", replay p" +
                           std::to_string(pid) + "/" + std::string(key));
  }
  return r.value;
}

std::optional<std::pair<std::size_t, std::string>> ReplayEngine::compare(
    const Scroll& a, const Scroll& b) {
  std::size_t n = std::min(a.size(), b.size());
  Scroll::Cursor ca = a.cursor();
  Scroll::Cursor cb = b.cursor();
  ScrollRecord ra;
  ScrollRecord rb;
  for (std::size_t i = 0; i < n; ++i) {
    ca.next(ra);
    cb.next(rb);
    if (!ra.matches(rb)) {
      return std::make_pair(i, "recorded: " + ra.to_string() +
                                   " | replayed: " + rb.to_string());
    }
  }
  if (a.size() != b.size()) {
    return std::make_pair(n, "length mismatch: recorded " +
                                 std::to_string(a.size()) + ", replayed " +
                                 std::to_string(b.size()));
  }
  return std::nullopt;
}

ReplayReport ReplayEngine::replay(rt::World& fresh, const Scroll& recorded,
                                  bool use_recorded_env) {
  ReplayReport rep;

  auto schedule = recorded.schedule();
  const std::uint64_t schedule_len = schedule.size();
  fresh.set_scheduler(
      std::make_unique<rt::ReplayScheduler>(std::move(schedule)));

  Scroll verify(recorded.preset());
  fresh.add_observer(&verify);

  std::unique_ptr<RecordedEnvSource> env;
  if (use_recorded_env) {
    env = std::make_unique<RecordedEnvSource>(recorded);
    fresh.set_env_source(env.get());
  }

  try {
    // Execute exactly as many events as were recorded; stop early if the
    // world quiesces (which would itself be a divergence, caught below).
    for (std::uint64_t i = 0; i < schedule_len; ++i) {
      if (!fresh.step()) break;
      ++rep.steps;
    }
  } catch (const ReplayDivergence& e) {
    fresh.remove_observer(&verify);
    fresh.set_env_source(nullptr);
    rep.ok = false;
    rep.divergence = e.what();
    rep.divergence_index = verify.size();
    return rep;
  }

  fresh.remove_observer(&verify);
  fresh.set_env_source(nullptr);

  auto diff = compare(recorded, verify);
  if (diff) {
    rep.ok = false;
    rep.divergence_index = diff->first;
    rep.divergence = diff->second;
  } else {
    rep.ok = true;
    rep.final_digest = fresh.digest();
  }
  return rep;
}

}  // namespace fixd::scroll
