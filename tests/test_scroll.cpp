// The Scroll: recording presets, replay, divergence detection, black boxes,
// and its record encoding (round trips, malformed streams, footprint).
// This binary replaces the global operator new with a counting one (test
// binaries are per file, so the replacement is scoped to this file) to
// check that the taps allocate only when the record log fills a chunk.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "apps/kv_store.hpp"
#include "apps/leader_election.hpp"
#include "apps/rep_counter.hpp"
#include "scroll/blackbox.hpp"
#include "scroll/replay.hpp"
#include "scroll/scroll.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Out of line, so GCC does not pair an inlined malloc() or free() with
// the standard operator delete or new and warn of a mismatch.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// std::stable_sort's buffer comes from here: it must pair with the free()
// below too.
[[gnu::noinline]] void* operator new(std::size_t n,
                                     const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace fixd::scroll {
namespace {

using apps::CounterConfig;
using apps::make_counter_world;

/// Every record of `s`, in capture order.
std::vector<ScrollRecord> records_of(const Scroll& s) {
  std::vector<ScrollRecord> out;
  Scroll::Cursor c = s.cursor();
  ScrollRecord r;
  while (c.next(r)) out.push_back(r);
  return out;
}

TEST(Scroll, NondetPresetRecordsScheduleOnly) {
  auto w = make_counter_world(3, 2, CounterConfig{2});
  Scroll s(LoggingPreset::nondet_only());
  w->add_observer(&s);
  w->run();
  EXPECT_GT(s.size(), 0u);
  for (const auto& r : records_of(s)) {
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
  const std::vector<ScrollRecord> recs = records_of(rec);
  std::size_t victim = recs.size() / 2;
  while (victim < recs.size() && recs[victim].kind != RecordKind::kSend &&
         recs[victim].kind != RecordKind::kDeliver) {
    ++victim;
  }
  ASSERT_LT(victim, recs.size());

  // Flip one bit of its digest in the saved bytes. Records follow the
  // stream header back to back, each behind its length; a send or deliver
  // of the digests preset ends with its 8 digest bytes.
  BinaryWriter bw;
  rec.save(bw);
  std::vector<std::byte> bytes = bw.bytes();
  std::size_t off = bytes.size() - rec.stats().bytes;
  for (std::size_t i = 0;; ++i) {
    BinaryReader frame(std::span<const std::byte>(bytes).subspan(off));
    const std::uint64_t len = frame.read_varint();
    off += frame.position() + len;
    if (i == victim) break;
  }
  bytes[off - 8] ^= std::byte{0x01};

  Scroll tampered;
  BinaryReader br(bytes);
  tampered.load(br);
  ASSERT_EQ(tampered.size(), rec.size());
  EXPECT_EQ(records_of(tampered)[victim].digest, recs[victim].digest ^ 1);

  auto diff = ReplayEngine::compare(rec, tampered);
  ASSERT_TRUE(diff.has_value());
  EXPECT_EQ(diff->first, victim) << diff->second;
}

TEST(Scroll, LoadRejectsCountTheStreamCannotHold) {
  for (std::uint64_t count :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 58}) {
    BinaryWriter bw;
    bw.write_varint(Scroll::kStreamVersion);
    for (int i = 0; i < 9; ++i) bw.write_bool(true);
    bw.write_varint(0);      // next seq
    for (int i = 0; i < 5; ++i) bw.write_varint(0);  // trimmed, front base
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
  const std::vector<ScrollRecord> a = records_of(s);
  const std::vector<ScrollRecord> b = records_of(s2);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << i;
  }
}

// Bytes of a save() stream before its first record: version, the nine
// preset flags, next seq, trimmed count, the four front base fields and
// record count.
std::size_t header_bytes(const std::vector<std::byte>& stream) {
  BinaryReader r(stream);
  r.read_varint();
  for (int i = 0; i < 9; ++i) r.read_bool();
  for (int i = 0; i < 7; ++i) r.read_varint();
  return r.position();
}

// stats().bytes is the log's record bytes: what save() writes after its
// header.
void expect_stats_match_stream(const Scroll& s) {
  const std::vector<std::byte> stream = to_bytes(s);
  EXPECT_EQ(s.stats().bytes, stream.size() - header_bytes(stream));
  EXPECT_EQ(s.stats().records, s.size());
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
// carries, at the same edge values, and once setting every field. spec_op
// takes each of the four SpecOp values.
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
        own.spec_op = static_cast<std::uint8_t>(v % 4);
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

// A scroll keeping `recs` as given.
Scroll scroll_of(const LoggingPreset& preset,
                 std::span<const ScrollRecord> recs) {
  Scroll s(preset);
  for (const auto& r : recs) s.append(r);
  return s;
}

Scroll load_stream(const std::vector<std::byte>& bytes) {
  Scroll s;
  BinaryReader br(bytes);
  s.load(br);
  return s;
}

void expect_same_record(const ScrollRecord& got, const ScrollRecord& want) {
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.seq, want.seq);
  EXPECT_EQ(got.pid, want.pid);
  EXPECT_EQ(got.lamport, want.lamport);
  EXPECT_EQ(got.event.kind, want.event.kind);
  EXPECT_EQ(got.event.pid, want.event.pid);
  EXPECT_EQ(got.event.msg, want.event.msg);
  EXPECT_EQ(got.event.timer, want.event.timer);
  EXPECT_EQ(got.event.at, want.event.at);
  EXPECT_EQ(got.msg, want.msg);
  EXPECT_EQ(got.peer, want.peer);
  EXPECT_EQ(got.tag, want.tag);
  EXPECT_EQ(got.digest, want.digest);
  EXPECT_EQ(got.value, want.value);
  EXPECT_EQ(got.text, want.text);
  EXPECT_EQ(got.payload, want.payload);
  EXPECT_EQ(got.spec, want.spec);
  EXPECT_EQ(got.spec_op, want.spec_op);
}

TEST(Scroll, StatsBytesEqualSerializedSize) {
  for (const LoggingPreset& preset :
       {LoggingPreset::nondet_only(), LoggingPreset::digests(),
        LoggingPreset::full()}) {
    // Kept as given, and loaded: the hand-built edge records.
    const std::vector<ScrollRecord> recs = edge_records();
    Scroll appended = scroll_of(preset, recs);
    Scroll loaded = load_stream(to_bytes(appended));
    ASSERT_EQ(loaded.size(), recs.size());

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

    for (Scroll* s : {&appended, &loaded, &live}) {
      expect_stats_match_stream(*s);
      // Round trip: the reloaded scroll holds the same bytes and figures.
      const Scroll again = load_stream(to_bytes(*s));
      EXPECT_EQ(to_bytes(again), to_bytes(*s));
      EXPECT_EQ(again.stats().bytes, s->stats().bytes);
      EXPECT_EQ(again.stats().by_kind, s->stats().by_kind);
    }
  }
}

// Property: the encoding keeps every field of every record. The edge set
// and twenty copies of it (more than 20k records over many chunks) round
// trip through save() and load() field by field, the reload saves the same
// bytes, and appending after a load records as after keeping the records.
TEST(Scroll, EdgeRecordsRoundTripFieldByField) {
  const LoggingPreset preset = LoggingPreset::full();
  const std::vector<ScrollRecord> edges = edge_records();
  std::vector<ScrollRecord> many;
  for (int rep = 0; rep < 20; ++rep) {
    many.insert(many.end(), edges.begin(), edges.end());
  }
  ASSERT_GT(many.size(), 20000u);

  auto w = make_counter_world(2, 2, CounterConfig{1});
  auto append = [&w](Scroll& s) {
    net::Message m;
    m.id = 9;
    m.src = 0;
    m.dst = 1;
    m.tag = 3;
    m.payload.assign(5, std::byte{7});
    s.on_send(*w, m);
    s.on_annotation(*w, 1, "after the load");
    s.on_rng(*w, 0, 42);
  };

  const std::vector<ScrollRecord>* sets[] = {&edges, &many};
  for (const auto* recs : sets) {
    const Scroll kept = scroll_of(preset, *recs);
    const std::vector<std::byte> stream = to_bytes(kept);
    Scroll loaded = load_stream(stream);
    ASSERT_EQ(loaded.size(), recs->size());
    EXPECT_EQ(to_bytes(loaded), stream);
    EXPECT_GT(loaded.resident_bytes(), 0u);
    const std::vector<ScrollRecord> got = records_of(loaded);
    ASSERT_EQ(got.size(), recs->size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE(i);
      expect_same_record(got[i], (*recs)[i]);
      ASSERT_EQ(got[i], (*recs)[i]) << got[i].to_string();
    }

    Scroll kept_more = kept;
    append(loaded);
    append(kept_more);
    EXPECT_EQ(to_bytes(loaded), to_bytes(kept_more));
  }
}

// load() decodes and checks every record: a stream of another version, a
// truncated stream or record, an out-of-range record kind, event kind or
// spec op, and trailing bytes in a record all throw SerializationError,
// and the scroll loaded into keeps what it held.
TEST(Scroll, LoadRejectsMalformedStreams) {
  Scroll good(LoggingPreset::digests());
  ScrollRecord ev;
  ev.kind = RecordKind::kEvent;
  ev.pid = 1;
  ev.lamport = 1;
  ev.event = {rt::EventKind::kStart, 1, 0, 0, 7};
  good.append(ev);
  ScrollRecord spec;
  spec.kind = RecordKind::kSpec;
  spec.seq = 1;
  spec.pid = 1;
  spec.lamport = 2;
  spec.spec = 3;
  spec.spec_op = 2;
  good.append(spec);
  const std::vector<std::byte> stream = to_bytes(good);
  ASSERT_EQ(load_stream(stream).size(), 2u);

  // The first record's length is one byte; its header byte follows: the
  // record kind in bits 0-3, the event kind in bits 6-7 (a start event
  // stores the same fields as any other event kind would). The spec
  // record comes last and ends with its spec op.
  const std::size_t header = header_bytes(stream);
  ASSERT_LT(static_cast<std::uint8_t>(stream[header]), 0x80);
  const std::size_t first = header + 1;

  struct Bad {
    std::vector<std::byte> bytes;
    const char* why;  ///< in the error message
  };
  std::vector<Bad> bad;
  for (std::uint64_t version : {std::uint64_t{1}, Scroll::kStreamVersion + 1}) {
    std::vector<std::byte> b = stream;
    b[0] = static_cast<std::byte>(version);
    bad.push_back({b, "version"});
  }
  for (std::size_t n = 0; n < stream.size(); ++n) {
    bad.push_back({{stream.begin(), stream.begin() + n}, ""});
  }
  for (std::uint8_t kind : {8, 9, 15}) {
    std::vector<std::byte> b = stream;
    b[first] = (b[first] & std::byte{0xf0}) | static_cast<std::byte>(kind);
    bad.push_back({b, "kind"});
  }
  {
    std::vector<std::byte> b = stream;
    b[first] |= std::byte{0xc0};  // event kind 3
    bad.push_back({b, "event kind 3"});
  }
  for (std::uint8_t op : {4, 255}) {
    std::vector<std::byte> b = stream;
    b.back() = static_cast<std::byte>(op);
    bad.push_back({b, "spec op"});
  }
  {
    // The first record one byte longer than its fields: its length grows
    // by one, and a byte is inserted at its end.
    std::vector<std::byte> b = stream;
    const auto len = static_cast<std::uint8_t>(b[header]);
    b[header] = static_cast<std::byte>(len + 1);
    b.insert(b.begin() + static_cast<std::ptrdiff_t>(first + len),
             std::byte{0});
    bad.push_back({b, "trailing"});
  }

  for (std::size_t i = 0; i < bad.size(); ++i) {
    Scroll s = good;
    BinaryReader br(bad[i].bytes);
    try {
      s.load(br);
      ADD_FAILURE() << "stream " << i << " loaded";
    } catch (const SerializationError& e) {
      EXPECT_NE(std::string(e.what()).find(bad[i].why), std::string::npos)
          << "stream " << i << ": " << e.what();
    }
    EXPECT_EQ(to_bytes(s), stream) << "stream " << i;
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
  copy.on_annotation(*w, 0, "copy only");
  Scroll assigned;
  assigned = copy;
  EXPECT_EQ(to_bytes(assigned), to_bytes(copy));
  EXPECT_EQ(assigned.stats().bytes, copy.stats().bytes);
  EXPECT_EQ(assigned.stats().by_kind, copy.stats().by_kind);
  EXPECT_EQ(to_bytes(s), before);

  s.on_rng(*w, 1, 7);
  EXPECT_EQ(to_bytes(assigned), to_bytes(copy));
  EXPECT_EQ(records_of(s).back().value, 7u);
  EXPECT_EQ(records_of(copy).back().text, "copy only");
}

// The record log's resident bytes: at most 16 per record plus one chunk.
// The run spans many chunks and still replays exactly.
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
  EXPECT_LE(s.resident_bytes(), 16 * s.size() + RecordLog::kMaxChunkBytes);

  auto fresh = apps::make_kv_world(4, 2, cfg);
  ReplayReport rep = ReplayEngine::replay(*fresh, s);
  EXPECT_TRUE(rep.ok) << rep.to_string();
  EXPECT_EQ(rep.final_digest, w->digest());
}

// Every tap writes its record straight into the log: it allocates only in
// a call that adds a chunk, under the digests and the full preset alike.
TEST(Scroll, TapsAllocateOnlyWhenAChunkFills) {
  auto w = make_counter_world(3, 2, CounterConfig{1});
  const std::string key = "an environment key longer than a short string";
  const std::string note = "an annotation longer than a short string";
  for (const LoggingPreset& preset :
       {LoggingPreset::digests(), LoggingPreset::full()}) {
    Scroll s(preset);
    net::Message m;
    m.src = 0;
    m.dst = 1;
    m.tag = 3;
    m.payload.assign(24, std::byte{7});
    rt::EventDesc ev{rt::EventKind::kDeliver, 1, 0, 0, 5};
    auto tap_all = [&](std::uint64_t i) {
      m.id = i;
      ev.msg = i;
      ev.at = 5 + i;
      s.on_event(*w, ev);
      s.on_send(*w, m);
      s.on_deliver(*w, m);
      s.on_rng(*w, 0, i * 0x9e3779b97f4a7c15ull);
      s.on_time_read(*w, 0, i);
      s.on_env_read(*w, 1, key, i);
      s.on_annotation(*w, 2, note);
      s.on_spec(*w, 0, i, rt::RuntimeObserver::SpecOp::kCommit);
    };
    for (std::uint64_t i = 0; i < 100; ++i) tap_all(i);  // warm-up

    std::uint64_t chunk_calls = 0;
    std::uint64_t stray = 0;
    for (std::uint64_t i = 100; i < 20000; ++i) {
      const std::size_t resident = s.resident_bytes();
      const std::uint64_t before =
          g_allocations.load(std::memory_order_relaxed);
      tap_all(i);
      if (s.resident_bytes() != resident) {
        ++chunk_calls;
      } else {
        stray += g_allocations.load(std::memory_order_relaxed) - before;
      }
    }
    EXPECT_EQ(stray, 0u);
    EXPECT_GT(chunk_calls, 0u);
  }
}

/// A digests-preset Scroll of a kv run long enough to span many chunks.
Scroll kv_scroll(std::uint64_t ops) {
  apps::KvConfig cfg;
  cfg.total_ops = ops;
  cfg.key_space = 64;
  auto w = apps::make_kv_world(4, 2, cfg);
  Scroll s(LoggingPreset::digests());
  w->add_observer(&s);
  w->run();
  w->remove_observer(&s);
  return s;
}

constexpr std::uint64_t kNone = ~std::uint64_t{0};

// trim() frees the leading chunks that a later chunk opened behind the
// cut: the rest is the untrimmed scroll's tail, record for record, and
// reads on from the next chunk's base. A cut before every chunk, a send
// bound no chunk opened below, or a bound for another world trims nothing.
TEST(Scroll, TrimFreesLeadingChunksOpenedBehindTheCut) {
  const Scroll whole = kv_scroll(1500);
  const std::vector<ScrollRecord> all = records_of(whole);
  const std::vector<std::uint64_t> none(4, kNone);

  Scroll s = whole;
  s.trim(0, none);                             // before every capture
  s.trim(kNone, std::vector<std::uint64_t>(4, 0));  // below every clock
  s.trim(kNone, std::vector<std::uint64_t>(3, kNone));
  EXPECT_EQ(to_bytes(s), to_bytes(whole));
  EXPECT_EQ(s.stats().trimmed, 0u);

  s.trim(kNone, none);  // every chunk but the last
  const std::vector<ScrollRecord> held = records_of(s);
  ASSERT_GT(held.size(), 0u);
  ASSERT_LT(held.size(), all.size() / 4);
  const std::size_t cut = all.size() - held.size();
  EXPECT_EQ(s.stats().trimmed, cut);
  EXPECT_EQ(s.stats().records, held.size());
  for (std::size_t i = 0; i < held.size(); ++i) {
    ASSERT_EQ(held[i], all[cut + i]) << i;
  }
  EXPECT_EQ(s.stats().by_kind, whole.stats().by_kind);  // trimmed included
  expect_stats_match_stream(s);
  EXPECT_LT(s.resident_bytes(), whole.resident_bytes() / 4);
  EXPECT_EQ(s.peak_resident_bytes(), whole.peak_resident_bytes());

  // Kept records open chunks no cut passes.
  Scroll appended = scroll_of(LoggingPreset::digests(), all);
  appended.trim(kNone, none);
  EXPECT_EQ(appended.size(), all.size());

  // clear() drops the rest; the taps record on, and render counts what
  // came before.
  auto w = make_counter_world(2, 2, CounterConfig{1});
  s.clear();
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.stats().trimmed, all.size());
  EXPECT_EQ(s.stats().bytes, 0u);
  s.on_rng(*w, 0, 5);
  ASSERT_EQ(records_of(s).size(), 1u);
  EXPECT_EQ(records_of(s)[0].seq, all.back().seq + 1);
  EXPECT_EQ(s.render(10).rfind("... (" + std::to_string(all.size()) +
                                   " earlier)\n",
                               0),
            0u);
}

// render() decodes only from the chunk where its newest records start,
// yet shows what a walk from the front would: the newest n, newest last,
// after a line counting the earlier ones, trimmed ones included.
TEST(Scroll, RenderShowsTheNewestRecordsFromAnyChunk) {
  Scroll s = kv_scroll(1500);
  for (bool trimmed : {false, true}) {
    if (trimmed) s.trim(kNone, std::vector<std::uint64_t>(4, kNone));
    const std::vector<ScrollRecord> held = records_of(s);
    const std::uint64_t before = s.stats().trimmed;
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{40},
                          std::size_t{700}, std::size_t{5000}, held.size(),
                          held.size() + 10}) {
      const std::size_t shown = std::min(n, held.size());
      std::string want;
      if (before + held.size() - shown > 0) {
        want = "... (" + std::to_string(before + held.size() - shown) +
               " earlier)\n";
      }
      for (std::size_t i = held.size() - shown; i < held.size(); ++i) {
        want += held[i].to_string() + "\n";
      }
      EXPECT_EQ(s.render(n), want) << n << (trimmed ? " trimmed" : "");
    }
  }
}

// A trimmed scroll round-trips through save() and load(): the stream
// carries its trimmed count and front base, the reload holds the same
// records, bytes and figures, and records on as the original does.
TEST(Scroll, TrimmedScrollRoundTripsThroughSaveAndLoad) {
  Scroll s = kv_scroll(1500);
  s.trim(kNone, std::vector<std::uint64_t>(4, kNone));
  ASSERT_GT(s.stats().trimmed, 0u);
  const std::vector<std::byte> stream = to_bytes(s);
  Scroll loaded = load_stream(stream);
  EXPECT_EQ(to_bytes(loaded), stream);
  EXPECT_EQ(records_of(loaded), records_of(s));
  EXPECT_EQ(loaded.stats().records, s.stats().records);
  EXPECT_EQ(loaded.stats().trimmed, s.stats().trimmed);
  EXPECT_EQ(loaded.stats().bytes, s.stats().bytes);
  std::uint64_t kinds = 0;  // the reload counts what it loaded
  for (std::uint64_t k : loaded.stats().by_kind) kinds += k;
  EXPECT_EQ(kinds, s.stats().records);

  auto w = make_counter_world(2, 2, CounterConfig{1});
  for (Scroll* t : {&s, &loaded}) {
    t->on_annotation(*w, 1, "after the load");
    t->on_rng(*w, 0, 42);
  }
  EXPECT_EQ(to_bytes(loaded), to_bytes(s));

  // Emptied by clear(), it still saves where its next record starts.
  s.clear();
  Scroll empty = load_stream(to_bytes(s));
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.stats().trimmed, s.stats().trimmed);
  s.on_rng(*w, 0, 7);
  empty.on_rng(*w, 0, 7);
  EXPECT_EQ(to_bytes(empty), to_bytes(s));
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

TEST(Scroll, PerProcessViewKeepsCaptureOrder) {
  auto w = make_counter_world(3, 2, CounterConfig{2});
  Scroll s(LoggingPreset::digests());
  w->add_observer(&s);
  w->run();
  auto p1 = s.for_process(1);
  EXPECT_GT(p1.size(), 0u);
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i].pid, 1u);
    if (i > 0) {
      EXPECT_LT(p1[i - 1].seq, p1[i].seq);
    }
  }
  std::size_t want = 0;
  for (const auto& r : records_of(s)) want += r.pid == 1 ? 1 : 0;
  EXPECT_EQ(p1.size(), want);
}

TEST(Scroll, RenderProducesReadableTrace) {
  auto w = make_counter_world(2, 2, CounterConfig{1});
  Scroll s(LoggingPreset::digests());
  w->add_observer(&s);
  w->run();
  std::string text = s.render(10);
  EXPECT_NE(text.find("EVENT"), std::string::npos);
  // The newest ten, newest last, after a line counting the earlier ones.
  EXPECT_EQ(text.rfind("... (" + std::to_string(s.size() - 10) +
                           " earlier)\n",
                       0),
            0u);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 11);
  const std::string newest = records_of(s).back().to_string() + "\n";
  EXPECT_EQ(text.substr(text.size() - newest.size()), newest);
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
