// The Scroll: recording presets, replay, divergence detection, black boxes.
#include <gtest/gtest.h>

#include "apps/kv_store.hpp"
#include "apps/leader_election.hpp"
#include "apps/rep_counter.hpp"
#include "scroll/blackbox.hpp"
#include "scroll/replay.hpp"
#include "scroll/scroll.hpp"

namespace fixd::scroll {
namespace {

using apps::CounterConfig;
using apps::make_counter_world;

TEST(Scroll, NondetPresetRecordsScheduleOnly) {
  auto w = make_counter_world(3, 2, CounterConfig{2});
  Scroll s(LoggingPreset::nondet_only());
  w->add_observer(&s);
  w->run();
  EXPECT_GT(s.size(), 0u);
  for (const auto& r : s.records()) {
    EXPECT_NE(r.kind, RecordKind::kSend);
    EXPECT_NE(r.kind, RecordKind::kDeliver);
    EXPECT_TRUE(r.payload.empty());
  }
  EXPECT_EQ(s.schedule().size(),
            s.stats().by_kind[static_cast<std::size_t>(RecordKind::kEvent)]);
}

TEST(Scroll, FullPresetCostsStrictlyMore) {
  auto run_with = [](LoggingPreset preset) {
    auto w = make_counter_world(3, 2, CounterConfig{3});
    Scroll s(preset);
    w->add_observer(&s);
    w->run();
    return s.stats();
  };
  auto minimal = run_with(LoggingPreset::nondet_only());
  auto digests = run_with(LoggingPreset::digests());
  auto full = run_with(LoggingPreset::full());
  EXPECT_LT(minimal.bytes, digests.bytes);
  EXPECT_LT(digests.bytes, full.bytes);
  EXPECT_LT(minimal.records, digests.records);
}

TEST(Scroll, ReplayReproducesRunExactly) {
  auto w1 = make_counter_world(3, 2, CounterConfig{3});
  Scroll rec(LoggingPreset::digests());
  w1->add_observer(&rec);
  w1->run();
  w1->remove_observer(&rec);
  std::uint64_t want = w1->digest();

  auto w2 = make_counter_world(3, 2, CounterConfig{3});
  ReplayReport rep = ReplayEngine::replay(*w2, rec);
  EXPECT_TRUE(rep.ok) << rep.to_string();
  EXPECT_EQ(rep.final_digest, want);
}

TEST(Scroll, ReplayDetectsChangedBehaviour) {
  // Record with v1 (buggy counter), replay against v2: the sums differ so
  // the local fault report disappears — the schedule replays but outcome
  // digests (we check state digests directly) differ.
  auto w1 = make_counter_world(3, 1, CounterConfig{4});
  Scroll rec(LoggingPreset::digests());
  w1->add_observer(&rec);
  w1->set_stop_on_violation(false);
  w1->run();
  w1->remove_observer(&rec);

  auto w2 = make_counter_world(3, 2, CounterConfig{4});
  w2->set_stop_on_violation(false);
  ReplayReport rep = ReplayEngine::replay(*w2, rec);
  // Schedule is identical (same event identities), so replay may complete;
  // but the final state cannot match the recorded run's.
  if (rep.ok) {
    EXPECT_NE(rep.final_digest, w1->digest());
  } else {
    EXPECT_FALSE(rep.divergence.empty());
  }
}

TEST(Scroll, DivergenceDetectedOnMutatedScroll) {
  auto w1 = make_counter_world(3, 2, CounterConfig{2});
  Scroll rec(LoggingPreset::digests());
  w1->add_observer(&rec);
  w1->run();
  w1->remove_observer(&rec);

  // The first send or deliver record past the middle of the run.
  std::size_t victim = rec.size() / 2;
  while (victim < rec.size() && rec.record(victim).kind != RecordKind::kSend &&
         rec.record(victim).kind != RecordKind::kDeliver) {
    ++victim;
  }
  ASSERT_LT(victim, rec.size());

  // Flip one bit of its digest in the saved bytes. Records follow the
  // stream header back to back; inside a record the digest comes after
  // kind, seq, pid, lamport, event, msg, peer and tag.
  BinaryWriter bw;
  rec.save(bw);
  std::vector<std::byte> bytes = bw.bytes();
  std::size_t off = bytes.size() - rec.stats().bytes;
  for (std::size_t i = 0; i < victim; ++i) {
    off += rec.record(i).encoded_size();
  }
  const ScrollRecord target = rec.record(victim);
  off += 1 + varint_size(target.seq) + 4 + varint_size(target.lamport) +
         rt::EventDesc::kEncodedSize + varint_size(target.msg) + 4 + 4;
  bytes[off] ^= std::byte{0x01};

  Scroll tampered;
  BinaryReader br(bytes);
  tampered.load(br);
  ASSERT_EQ(tampered.size(), rec.size());
  EXPECT_EQ(tampered.record(victim).digest, target.digest ^ 1);

  auto diff = ReplayEngine::compare(rec, tampered);
  ASSERT_TRUE(diff.has_value());
  EXPECT_EQ(diff->first, victim) << diff->second;
}

TEST(Scroll, LoadRejectsCountTheStreamCannotHold) {
  for (std::uint64_t count :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 58}) {
    BinaryWriter bw;
    for (int i = 0; i < 9; ++i) bw.write_bool(true);
    bw.write_varint(0);      // next seq
    bw.write_varint(count);  // records that never follow
    Scroll s;
    BinaryReader br(bw.bytes());
    EXPECT_THROW(s.load(br), SerializationError) << count;
  }
}

TEST(Scroll, SaveLoadRoundTrip) {
  auto w = make_counter_world(3, 2, CounterConfig{2});
  Scroll s(LoggingPreset::full());
  w->add_observer(&s);
  w->run();
  BinaryWriter bw;
  s.save(bw);
  Scroll s2;
  BinaryReader br(bw.bytes());
  s2.load(br);
  ASSERT_EQ(s2.size(), s.size());
  EXPECT_EQ(s2.stats().bytes, s.stats().bytes);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_TRUE(s.records()[i].matches(s2.records()[i])) << i;
  }
}

// Sum of the bytes save() writes for every kept record. stats().bytes must
// equal it: the Scroll sizes records arithmetically, without serializing.
std::uint64_t saved_bytes(const Scroll& s) {
  std::uint64_t n = 0;
  for (const auto& r : s.records()) n += to_bytes(r).size();
  return n;
}

// 0, both sides of every varint width step (2^7k - 1, 2^7k), 2^63 and the
// largest value.
std::vector<std::uint64_t> varint_edges() {
  std::vector<std::uint64_t> out{0};
  for (int k = 1; k <= 9; ++k) {
    const std::uint64_t step = std::uint64_t{1} << (7 * k);
    out.push_back(step - 1);
    out.push_back(step);
  }
  out.push_back(std::uint64_t{1} << 63);
  out.push_back(~std::uint64_t{0});
  return out;
}

// Every RecordKind with seq, lamport and msg at the varint width edges, and
// with empty, short and long (two-byte length prefix) text and payload. Each
// combination comes twice: once setting only the fields the record's kind
// carries, at the same edge values, and once setting every field.
std::vector<ScrollRecord> edge_records() {
  std::vector<ScrollRecord> out;
  for (std::uint8_t k = 0; k < 8; ++k) {
    const auto kind = static_cast<RecordKind>(k);
    for (std::uint64_t v : varint_edges()) {
      for (std::size_t len : {std::size_t{0}, std::size_t{3},
                              std::size_t{300}}) {
        const auto v32 = static_cast<std::uint32_t>(v);
        ScrollRecord own;
        own.kind = kind;
        own.seq = v;
        own.lamport = v;
        own.pid = v32;
        own.spec_op = static_cast<std::uint8_t>(v);
        switch (kind) {
          case RecordKind::kEvent:
            own.event = {rt::EventKind::kTimer, v32, v, v, v};
            break;
          case RecordKind::kSend:
          case RecordKind::kDeliver:
            own.msg = v;
            own.peer = v32;
            own.tag = v32;
            own.digest = v;
            own.payload.assign(len, std::byte{0x5a});
            break;
          case RecordKind::kSpec:
            own.spec = v;
            own.text = std::string(len, 's');
            break;
          default:
            own.value = v;
            own.text = std::string(len, 't');
            break;
        }
        out.push_back(own);

        ScrollRecord r;
        r.kind = kind;
        r.seq = v;
        r.lamport = v;
        r.msg = v;
        r.pid = k;
        r.event.msg = v;
        r.text = std::string(len, 't');
        r.payload.assign(len, std::byte{0x5a});
        r.spec = v;
        out.push_back(std::move(r));
      }
    }
  }
  return out;
}

// A stream in Scroll::save's layout (preset flags, next seq, count,
// records) carrying `recs`.
std::vector<std::byte> scroll_stream(const LoggingPreset& preset,
                                     std::uint64_t next_seq,
                                     std::span<const ScrollRecord> recs) {
  BinaryWriter bw;
  for (bool b : {preset.schedule, preset.rng, preset.time_reads,
                 preset.env_reads, preset.sends, preset.delivers,
                 preset.payloads, preset.annotations, preset.spec_events}) {
    bw.write_bool(b);
  }
  bw.write_varint(next_seq);
  bw.write_varint(recs.size());
  for (const auto& r : recs) r.save(bw);
  return bw.take();
}

Scroll load_stream(const std::vector<std::byte>& bytes) {
  Scroll s;
  BinaryReader br(bytes);
  s.load(br);
  return s;
}

void expect_same_stats(const ScrollStats& a, const ScrollStats& b) {
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.by_kind, b.by_kind);
}

TEST(Scroll, StatsBytesEqualSerializedSize) {
  for (const LoggingPreset& preset :
       {LoggingPreset::nondet_only(), LoggingPreset::digests(),
        LoggingPreset::full()}) {
    // Loaded records: a stream carrying the hand-built edge records.
    const std::vector<ScrollRecord> recs = edge_records();
    for (const auto& r : recs) {
      EXPECT_EQ(r.encoded_size(), to_bytes(r).size()) << r.to_string();
    }
    Scroll loaded = load_stream(scroll_stream(preset, recs.size(), recs));
    ASSERT_EQ(loaded.size(), recs.size());
    EXPECT_EQ(loaded.stats().bytes, saved_bytes(loaded));

    // Live records: every tap, with message ids at the varint edges.
    auto w = make_counter_world(3, 2, CounterConfig{2});
    Scroll live(preset);
    w->add_observer(&live);
    w->run();
    for (std::uint64_t v : varint_edges()) {
      net::Message m;
      m.id = v;
      m.src = 0;
      m.dst = 1;
      m.tag = 7;
      m.payload.assign(static_cast<std::size_t>(v % 200), std::byte{1});
      live.on_send(*w, m);
      live.on_deliver(*w, m);
      rt::EventDesc ev;
      ev.kind = rt::EventKind::kDeliver;
      ev.pid = 1;
      ev.msg = v;
      live.on_event(*w, ev);
      live.on_rng(*w, 2, v);
      live.on_time_read(*w, 2, v);
      live.on_env_read(*w, 1, std::string(static_cast<std::size_t>(v % 150),
                                          'e'),
                       v);
      live.on_annotation(*w, 0, "note");
      live.on_spec(*w, 0, v, rt::RuntimeObserver::SpecOp::kAbort);
    }
    for (std::size_t k = 0; k < 8; ++k) {
      const bool kept = (k != static_cast<std::size_t>(RecordKind::kSend) &&
                         k != static_cast<std::size_t>(RecordKind::kDeliver)) ||
                        preset.sends;
      EXPECT_EQ(live.stats().by_kind[k] > 0, kept) << "kind " << k;
    }
    EXPECT_EQ(live.stats().bytes, saved_bytes(live));

    for (Scroll* s : {&loaded, &live}) {
      // Round trip: the reloaded scroll re-derives the same figure.
      BinaryWriter sw;
      s->save(sw);
      Scroll again;
      BinaryReader sr(sw.bytes());
      again.load(sr);
      EXPECT_EQ(again.stats().bytes, s->stats().bytes);
      EXPECT_EQ(again.stats().bytes, saved_bytes(again));

      s->truncate(s->size() / 2 + 1);
      EXPECT_EQ(s->stats().records, s->size());
      EXPECT_EQ(s->stats().bytes, saved_bytes(*s));
    }
  }
}

// Property: the record store keeps every field of every record it loads.
// For every cut, truncate() is the same scroll as loading only the records
// before the cut, a truncated copy leaves its source alone, and appending
// after a truncate records as after a load.
TEST(Scroll, StoreRoundTripsAndTruncatesLikeALoad) {
  const LoggingPreset preset = LoggingPreset::full();
  const std::vector<ScrollRecord> edges = edge_records();
  // Twenty copies of the edge set: more than 20k records, spanning the
  // growing chunks of 64 .. 8192 records and the first capped one.
  std::vector<ScrollRecord> many;
  for (int rep = 0; rep < 20; ++rep) {
    many.insert(many.end(), edges.begin(), edges.end());
  }
  ASSERT_GT(many.size(), 16320u + 64);

  auto w = make_counter_world(2, 2, CounterConfig{1});
  auto append = [&w](Scroll& s) {
    net::Message m;
    m.id = 9;
    m.src = 0;
    m.dst = 1;
    m.tag = 3;
    m.payload.assign(5, std::byte{7});
    s.on_send(*w, m);
    s.on_annotation(*w, 1, "after the cut");
    s.on_rng(*w, 0, 42);
  };

  const std::vector<ScrollRecord>* sets[] = {&edges, &many};
  for (const auto* recs : sets) {
    const std::uint64_t next_seq = 1000;
    const std::vector<std::byte> stream =
        scroll_stream(preset, next_seq, *recs);
    const Scroll loaded = load_stream(stream);
    ASSERT_EQ(loaded.size(), recs->size());
    EXPECT_EQ(to_bytes(loaded), stream);
    for (std::size_t i = 0; i < recs->size(); ++i) {
      ASSERT_EQ(loaded.record(i), (*recs)[i]) << i;
    }

    // Every cut of the edge set; around each chunk boundary of the large
    // set.
    std::vector<std::size_t> cuts;
    if (recs == &edges) {
      for (std::size_t k = 0; k <= recs->size(); ++k) cuts.push_back(k);
    } else {
      for (std::size_t b = 64; b < recs->size(); b = 2 * b + 64) {
        cuts.insert(cuts.end(), {b - 1, b, b + 1});
      }
      cuts.push_back(recs->size());
    }
    for (std::size_t k : cuts) {
      const Scroll want = load_stream(scroll_stream(
          preset, next_seq, std::span(recs->data(), k)));
      Scroll cut = loaded;
      cut.truncate(k);
      ASSERT_EQ(cut.size(), k);
      expect_same_stats(cut.stats(), want.stats());
      ASSERT_EQ(to_bytes(cut), to_bytes(want)) << "cut " << k;

      Scroll want_more = want;
      append(cut);
      append(want_more);
      ASSERT_EQ(to_bytes(cut), to_bytes(want_more)) << "cut " << k;
    }
    EXPECT_EQ(loaded.size(), recs->size());
    EXPECT_EQ(to_bytes(loaded), stream);
  }
}

TEST(Scroll, CopyAndAssignAreIndependent) {
  auto w = make_counter_world(3, 2, CounterConfig{3});
  Scroll s(LoggingPreset::full());
  w->add_observer(&s);
  w->run();
  w->remove_observer(&s);
  const std::vector<std::byte> before = to_bytes(s);

  Scroll copy = s;
  EXPECT_EQ(to_bytes(copy), before);
  copy.truncate(copy.size() / 3);
  copy.on_annotation(*w, 0, "copy only");
  Scroll assigned;
  assigned = copy;
  EXPECT_EQ(to_bytes(assigned), to_bytes(copy));
  expect_same_stats(assigned.stats(), copy.stats());
  EXPECT_EQ(to_bytes(s), before);
}

// The store's resident bytes: 64 per record, the arena, and at most one
// partly filled chunk. The run spans several capped chunks and still
// replays exactly.
TEST(Scroll, ResidentBytesStayNearOneEntryPerRecord) {
  apps::KvConfig cfg;
  cfg.total_ops = 9000;
  cfg.key_space = 64;
  auto w = apps::make_kv_world(4, 2, cfg);
  Scroll s(LoggingPreset::digests());
  w->add_observer(&s);
  w->run();
  w->remove_observer(&s);
  ASSERT_GE(s.size(), 100000u);
  std::size_t arena = 0;
  for (const auto& r : s.records()) arena += r.text.size() + r.payload.size();
  EXPECT_LE(s.resident_bytes(),
            64 * s.size() + arena + 64 * Scroll::kMaxChunkRecords);

  auto fresh = apps::make_kv_world(4, 2, cfg);
  ReplayReport rep = ReplayEngine::replay(*fresh, s);
  EXPECT_TRUE(rep.ok) << rep.to_string();
  EXPECT_EQ(rep.final_digest, w->digest());
}

TEST(Scroll, TotalOrderIsLamportMonotone) {
  auto w = make_counter_world(4, 2, CounterConfig{3});
  Scroll s(LoggingPreset::digests());
  w->add_observer(&s);
  w->run();
  auto order = s.total_order();
  ASSERT_EQ(order.size(), s.size());
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(order[i - 1].lamport, order[i].lamport);
  }
}

TEST(Scroll, PerProcessViewAndTruncate) {
  auto w = make_counter_world(3, 2, CounterConfig{2});
  Scroll s(LoggingPreset::digests());
  w->add_observer(&s);
  w->run();
  auto p1 = s.for_process(1);
  for (const auto& r : p1) EXPECT_EQ(r.pid, 1u);
  EXPECT_GT(p1.size(), 0u);

  std::size_t cut = s.size() / 2;
  s.truncate(cut);
  EXPECT_EQ(s.size(), cut);
  EXPECT_EQ(s.stats().records, cut);
}

TEST(Scroll, RenderProducesReadableTrace) {
  auto w = make_counter_world(2, 2, CounterConfig{1});
  Scroll s(LoggingPreset::digests());
  w->add_observer(&s);
  w->run();
  std::string text = s.render(10);
  EXPECT_NE(text.find("EVENT"), std::string::npos);
  EXPECT_NE(text.find("more)"), std::string::npos);  // truncation marker
}

class ReplaySeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

// Property: any recorded random-schedule run replays bit-identically.
TEST_P(ReplaySeedSweep, RandomScheduleRunsReplayExactly) {
  auto w1 = make_counter_world(3, 2, CounterConfig{2});
  w1->set_scheduler(std::make_unique<rt::RandomScheduler>(GetParam()));
  Scroll rec(LoggingPreset::digests());
  w1->add_observer(&rec);
  w1->run();
  w1->remove_observer(&rec);

  auto w2 = make_counter_world(3, 2, CounterConfig{2});
  ReplayReport rep = ReplayEngine::replay(*w2, rec);
  EXPECT_TRUE(rep.ok) << rep.to_string();
  EXPECT_EQ(rep.final_digest, w1->digest());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplaySeedSweep,
                         ::testing::Range<std::uint64_t>(100, 112));

TEST(Scroll, EnvReadsRecordedAndReplayable) {
  // Leader election reads env ids; replay must feed them back.
  apps::ElectionConfig cfg;
  std::uint64_t seed = apps::find_colliding_env_seed(4, cfg);
  rt::WorldOptions opts;
  opts.env_seed = seed;
  auto w1 = apps::make_election_world(4, 2, cfg, opts);
  Scroll rec(LoggingPreset::digests());
  w1->add_observer(&rec);
  w1->run();
  w1->remove_observer(&rec);
  EXPECT_GT(rec.stats().by_kind[static_cast<std::size_t>(
                RecordKind::kEnvRead)],
            0u);

  // Replay into a world with a DIFFERENT env seed: recorded env wins.
  rt::WorldOptions other;
  other.env_seed = seed + 12345;
  auto w2 = apps::make_election_world(4, 2, cfg, other);
  ReplayReport rep = ReplayEngine::replay(*w2, rec, /*use_recorded_env=*/true);
  EXPECT_TRUE(rep.ok) << rep.to_string();
  EXPECT_EQ(rep.final_digest, w1->digest());
}

TEST(BlackBox, TranscriptExtractsRemoteInteractions) {
  auto w = make_counter_world(3, 2, CounterConfig{2});
  Scroll s(LoggingPreset::full());
  w->add_observer(&s);
  w->run();
  BlackBoxTranscript t = BlackBoxTranscript::extract(s, 1);
  EXPECT_GT(t.interactions().size(), 0u);
  EXPECT_TRUE(t.has_payloads());
  std::size_t outbound = 0;
  for (const auto& i : t.interactions()) {
    if (i.outbound) ++outbound;
  }
  // p1 broadcast 2 incs to 3 peers + 3 done markers = 9 sends.
  EXPECT_EQ(outbound, 9u);
}

TEST(BlackBox, TranscriptSerializationRoundTrip) {
  auto w = make_counter_world(2, 2, CounterConfig{1});
  Scroll s(LoggingPreset::full());
  w->add_observer(&s);
  w->run();
  BlackBoxTranscript t = BlackBoxTranscript::extract(s, 0);
  BinaryWriter bw;
  t.save(bw);
  BlackBoxTranscript t2;
  BinaryReader br(bw.bytes());
  t2.load(br);
  EXPECT_EQ(t2.interactions().size(), t.interactions().size());
  EXPECT_EQ(t2.remote(), t.remote());
}

}  // namespace
}  // namespace fixd::scroll
