// Serialization and framing properties for the service layer:
//   * CRC-32 known-answer + chaining
//   * CRC frame round-trip, torn-tail and corruption detection
//   * encode(decode(x)) == x property round-trips for every wire type and
//     the explorer types they embed (ExploreStats, Trail, SysViolation)
//   * IO fault injection surfaces as typed IoError (the ScratchDir /
//     SortedRunWriter hardening regression)
//   * fault-shim and retry-backoff determinism
#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "common/hash.hpp"
#include "common/io.hpp"
#include "common/serialize.hpp"
#include "svc/client.hpp"
#include "svc/transport.hpp"
#include "svc/wire.hpp"

namespace fixd {
namespace {

using svc::JobResultMsg;
using svc::JobSpec;
using svc::JobStatusMsg;
using svc::Request;
using svc::Response;

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

TEST(Crc32, KnownAnswer) {
  // The IEEE 802.3 check value for "123456789".
  const char* s = "123456789";
  const auto bytes = std::as_bytes(std::span(s, 9));
  EXPECT_EQ(crc32(bytes), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32({}), 0u); }

TEST(Crc32, ChainingMatchesOneShot) {
  std::vector<std::byte> data(1000);
  std::mt19937_64 rng(7);
  for (auto& b : data) b = static_cast<std::byte>(rng() & 0xff);
  const std::uint32_t oneshot = crc32(data);
  const std::span<const std::byte> all(data);
  std::uint32_t chained = crc32(all.subspan(0, 137));
  chained = crc32(all.subspan(137), chained);
  EXPECT_EQ(chained, oneshot);
}

// ---------------------------------------------------------------------------
// CRC frames
// ---------------------------------------------------------------------------

TEST(CrcFrame, RoundTrip) {
  BinaryWriter payload;
  payload.write_string("hello frames");
  payload.write_u64(0xdeadbeefull);

  BinaryWriter framed;
  write_crc_frame(framed, svc::kWireMagic, payload.bytes());

  BinaryReader r(framed.bytes());
  const std::vector<std::byte> out =
      read_crc_frame(r, svc::kWireMagic, svc::kMaxFramePayload);
  BinaryReader pr(out);
  EXPECT_EQ(pr.read_string(), "hello frames");
  EXPECT_EQ(pr.read_u64(), 0xdeadbeefull);
}

TEST(CrcFrame, WrongMagicRejected) {
  BinaryWriter payload;
  payload.write_u32(1);
  BinaryWriter framed;
  write_crc_frame(framed, svc::kWireMagic, payload.bytes());
  BinaryReader r(framed.bytes());
  EXPECT_THROW(read_crc_frame(r, svc::kJournalMagic, svc::kMaxFramePayload),
               SerializationError);
}

TEST(CrcFrame, FlippedPayloadByteRejected) {
  BinaryWriter payload;
  payload.write_string("integrity matters");
  BinaryWriter framed;
  write_crc_frame(framed, svc::kWireMagic, payload.bytes());
  std::vector<std::byte> bytes = framed.take();
  bytes[kCrcFrameHeaderBytes + 3] ^= std::byte{0x40};
  BinaryReader r(bytes);
  EXPECT_THROW(read_crc_frame(r, svc::kWireMagic, svc::kMaxFramePayload),
               SerializationError);
}

TEST(CrcFrame, OversizedLengthRejected) {
  BinaryWriter payload;
  payload.write_u32(1);
  BinaryWriter framed;
  write_crc_frame(framed, svc::kWireMagic, payload.bytes());
  BinaryReader r(framed.bytes());
  EXPECT_THROW(read_crc_frame(r, svc::kWireMagic, /*max_payload=*/2),
               SerializationError);
}

TEST(CrcFrame, TornTailDetected) {
  BinaryWriter payload;
  payload.write_string("this frame will be cut short");
  BinaryWriter framed;
  write_crc_frame(framed, svc::kWireMagic, payload.bytes());
  std::vector<std::byte> bytes = framed.take();
  bytes.resize(bytes.size() - 5);  // simulate a crash mid-append
  BinaryReader r(bytes);
  EXPECT_THROW(read_crc_frame(r, svc::kWireMagic, svc::kMaxFramePayload),
               SerializationError);
}

// ---------------------------------------------------------------------------
// Wire type round-trips
// ---------------------------------------------------------------------------

mc::ExploreStats sample_stats(std::uint64_t salt) {
  mc::ExploreStats s;
  s.states = 100 + salt;
  s.transitions = 500 + salt;
  s.duplicates = 40 + salt;
  s.max_depth = 17;
  s.truncated = (salt % 2) == 1;
  s.wall_ms = 12.5;
  s.digest_ms = 3.25;
  s.snapshot_ms = 1.75;
  s.peak_frontier_bytes = 1 << 20;
  s.peak_frontier_bytes_max_worker = 1 << 18;
  s.visited_resident_bytes = 4096;
  s.visited_peak_resident_bytes = 8192;
  s.visited_spilled_bytes = 123;
  s.spilled_bytes = 456;
  s.bloom_fp_rate = 0.01;
  s.anchor_evictions = 2;
  s.anchor_recomputes = 3;
  s.replayed_actions = 99;
  s.workers = 4;
  s.steals = 17;
  s.por_deferred = 5;
  s.por_backtracks = 2;
  return s;
}

void expect_stats_eq(const mc::ExploreStats& a, const mc::ExploreStats& b) {
  // Byte-compare through re-encoding: one assertion covers all fields and
  // cannot drift when fields are added (save() must be extended anyway).
  EXPECT_EQ(to_bytes(a), to_bytes(b));
}

mc::Trail sample_trail() {
  mc::Trail t;
  mc::SysAction a;
  a.kind = mc::SysAction::Kind::kRuntime;
  a.event.pid = 2;
  a.event.msg = 77;
  t.steps.push_back(a);
  mc::SysAction b;
  b.kind = mc::SysAction::Kind::kDropMessage;
  b.msg = 123;
  t.steps.push_back(b);
  mc::SysAction c;
  c.kind = mc::SysAction::Kind::kPartitionLinks;
  c.src = 0;
  c.dst = 3;
  t.steps.push_back(c);
  return t;
}

TEST(WireRoundTrip, ExploreStats) {
  const mc::ExploreStats s = sample_stats(3);
  const mc::ExploreStats back = from_bytes<mc::ExploreStats>(to_bytes(s));
  expect_stats_eq(back, s);
}

TEST(WireRoundTrip, TrailAndViolation) {
  mc::SysViolation v;
  v.violation.invariant = "two-pc-agreement";
  v.violation.pid = 1;
  v.violation.detail = "conflicting decisions";
  v.violation.at = 42;
  v.violation.lamport = 9;
  v.violation.step = 33;
  v.trail = sample_trail();
  v.depth = 3;

  const mc::SysViolation back = from_bytes<mc::SysViolation>(to_bytes(v));
  EXPECT_EQ(back.violation.invariant, v.violation.invariant);
  EXPECT_EQ(back.violation.detail, v.violation.detail);
  EXPECT_EQ(back.depth, v.depth);
  ASSERT_EQ(back.trail.steps.size(), v.trail.steps.size());
  EXPECT_EQ(back.trail.render(), v.trail.render());
  EXPECT_EQ(to_bytes(back), to_bytes(v));
}

TEST(WireRoundTrip, TrailBadKindRejected) {
  mc::Trail t = sample_trail();
  std::vector<std::byte> bytes = to_bytes(t);
  // First element's kind tag sits right after the vector length varint.
  bytes[1] = std::byte{0xee};
  EXPECT_THROW(from_bytes<mc::Trail>(bytes), SerializationError);
}

TEST(WireRoundTrip, JobSpec) {
  JobSpec spec;
  spec.scenario = "token-ring";
  spec.n = 5;
  spec.version = 2;
  spec.order = mc::SearchOrder::kDfs;
  spec.trail_frontier = true;
  spec.workers = 4;
  spec.max_states = 123456;
  spec.max_depth = 64;
  spec.max_violations = 7;
  spec.seed = 99;
  spec.model_message_loss = true;
  spec.checkpoint_states = 256;
  const JobSpec back = from_bytes<JobSpec>(to_bytes(spec));
  EXPECT_EQ(to_bytes(back), to_bytes(spec));
  EXPECT_EQ(back.scenario, "token-ring");
  EXPECT_EQ(back.order, mc::SearchOrder::kDfs);
}

TEST(WireRoundTrip, RequestResponseThroughFrames) {
  Request req;
  req.request_id = 0x1122334455667788ull;
  req.deadline_ms = 250;
  req.kind = svc::RpcKind::kSubmit;
  req.spec.scenario = "election";
  req.spec.n = 4;

  const std::vector<std::byte> frame = svc::encode_frame(req);
  BinaryReader r(frame);
  const std::vector<std::byte> payload =
      read_crc_frame(r, svc::kWireMagic, svc::kMaxFramePayload);
  const Request back = svc::decode_payload<Request>(payload);
  EXPECT_EQ(to_bytes(back), to_bytes(req));

  Response rsp;
  rsp.request_id = req.request_id;
  rsp.status = svc::RpcStatus::kOk;
  rsp.job_id = 17;
  rsp.duplicate = true;
  rsp.result.job_id = 17;
  rsp.result.complete = true;
  rsp.result.stats = sample_stats(1);
  rsp.result.visited_count = 1234;
  rsp.result.visited_digest = 0xabcdef;
  rsp.result.trail_digest = 0x123456;
  rsp.log_lines = {"a", "b"};
  const std::vector<std::byte> rframe = svc::encode_frame(rsp);
  BinaryReader rr(rframe);
  const Response rback = svc::decode_payload<Response>(
      read_crc_frame(rr, svc::kWireMagic, svc::kMaxFramePayload));
  EXPECT_EQ(to_bytes(rback), to_bytes(rsp));
}

TEST(WireRoundTrip, BadEnumTagsRejected) {
  Request req;
  req.kind = svc::RpcKind::kPing;
  std::vector<std::byte> payload;
  {
    BinaryWriter w;
    w.write_u32(svc::kWireVersion);
    req.save(w);
    payload = w.take();
  }
  // Corrupt the kind tag (offset: 4B version + 8B request_id + 8B deadline).
  payload[4 + 8 + 8] = std::byte{0xff};
  EXPECT_THROW(svc::decode_payload<Request>(payload), SerializationError);
}

TEST(WireRoundTrip, VersionMismatchRejected) {
  Request req;
  BinaryWriter w;
  w.write_u32(svc::kWireVersion + 7);
  req.save(w);
  EXPECT_THROW(svc::decode_payload<Request>(w.bytes()), SerializationError);
}

// Fuzz-ish: random truncations of a valid payload must throw, never crash
// or return garbage silently.
TEST(WireRoundTrip, TruncationsAlwaysThrow) {
  Response rsp;
  rsp.result.stats = sample_stats(5);
  rsp.result.violations.push_back(
      {{"inv", 1, "d", 2, 3, 4}, sample_trail(), 3});
  rsp.log_lines = {"x", "yy", "zzz"};
  BinaryWriter w;
  w.write_u32(svc::kWireVersion);
  rsp.save(w);
  const std::vector<std::byte> full = w.take();
  std::mt19937_64 rng(11);
  for (int i = 0; i < 64; ++i) {
    const std::size_t cut = rng() % full.size();
    std::vector<std::byte> trunc(full.begin(),
                                 full.begin() + static_cast<long>(cut));
    EXPECT_THROW(svc::decode_payload<Response>(trunc), SerializationError)
        << "cut at " << cut;
  }
}

// ---------------------------------------------------------------------------
// IO fault injection (satellite: ScratchDir / SortedRunWriter hardening)
// ---------------------------------------------------------------------------

TEST(IoFaults, InjectedWriteFailureIsTypedIoError) {
  ScratchDir dir = ScratchDir::create("", "fixd-iofault");
  const auto path = dir.path() / "run.bin";
  std::vector<std::uint64_t> keys(2048);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i * 3 + 1;

  // Countdown semantics: 2 more writes succeed (header + key payload),
  // then the third — finish()'s header patch — fails as ENOSPC.
  io_testing::fail_after_writes(2);
  try {
    SortedRunWriter w(path);
    w.append(keys.data(), keys.size());
    w.finish();
    FAIL() << "expected IoError from injected write fault";
  } catch (const IoError& e) {
    EXPECT_EQ(e.error_code(), ENOSPC);
    EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos);
  }
  io_testing::fail_after_writes(-1);
  // The failed writer must not leave a finished file behind.
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(IoFaults, DisarmedInjectorWritesFine) {
  io_testing::fail_after_writes(-1);
  ScratchDir dir = ScratchDir::create("", "fixd-iook");
  const auto path = dir.path() / "run.bin";
  std::vector<std::uint64_t> keys = {1, 5, 9, 12};
  SortedRunWriter w(path);
  w.append(keys.data(), keys.size());
  const SortedRunWriter::Finished fin = w.finish();
  EXPECT_EQ(fin.count, 4u);
  SortedRunReader r(path, fin.fence);
  EXPECT_EQ(r.read_all(), keys);
}

// ---------------------------------------------------------------------------
// Fault shim + backoff determinism
// ---------------------------------------------------------------------------

TEST(FaultShim, ParseAndValidate) {
  const auto spec =
      svc::FaultShimSpec::parse("drop=0.25,sever=0.1,delay=0.2:15,seed=9");
  EXPECT_DOUBLE_EQ(spec.drop, 0.25);
  EXPECT_DOUBLE_EQ(spec.sever, 0.1);
  EXPECT_DOUBLE_EQ(spec.delay, 0.2);
  EXPECT_EQ(spec.delay_ms, 15u);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_TRUE(spec.enabled());
  EXPECT_FALSE(svc::FaultShimSpec::parse("").enabled());
  EXPECT_THROW(svc::FaultShimSpec::parse("drop=2"), ConfigError);
  EXPECT_THROW(svc::FaultShimSpec::parse("drop=0.6,sever=0.6"), ConfigError);
  EXPECT_THROW(svc::FaultShimSpec::parse("nonsense"), ConfigError);
}

TEST(FaultShim, DeterministicPerSeed) {
  auto spec = svc::FaultShimSpec::parse("drop=0.3,sever=0.2,delay=0.2:5,seed=4");
  svc::FaultShim a(spec), b(spec);
  std::vector<svc::FaultVerdict> va, vb;
  for (int i = 0; i < 200; ++i) {
    va.push_back(a.next());
    vb.push_back(b.next());
  }
  EXPECT_EQ(va, vb);
  // All verdict kinds should actually occur at these rates over 200 draws.
  EXPECT_NE(std::count(va.begin(), va.end(), svc::FaultVerdict::kDrop), 0);
  EXPECT_NE(std::count(va.begin(), va.end(), svc::FaultVerdict::kSever), 0);
  EXPECT_NE(std::count(va.begin(), va.end(), svc::FaultVerdict::kDelay), 0);
  EXPECT_NE(std::count(va.begin(), va.end(), svc::FaultVerdict::kNone), 0);

  spec.seed = 5;
  svc::FaultShim c(spec);
  std::vector<svc::FaultVerdict> vc;
  for (int i = 0; i < 200; ++i) vc.push_back(c.next());
  EXPECT_NE(vc, va) << "different seeds should give different schedules";
}

TEST(Backoff, DeterministicJitteredExponential) {
  svc::RetryPolicy p;
  p.base_backoff_ms = 10;
  p.max_backoff_ms = 100;
  p.jitter_seed = 3;
  EXPECT_EQ(svc::backoff_ms(p, 1), 0u) << "first attempt is immediate";
  for (std::uint32_t attempt = 2; attempt <= 6; ++attempt) {
    const std::uint64_t w1 = svc::backoff_ms(p, attempt);
    const std::uint64_t w2 = svc::backoff_ms(p, attempt);
    EXPECT_EQ(w1, w2) << "same (seed, attempt) must give the same wait";
    // Jitter keeps the wait within [0.5, 1.5) of the capped exponential.
    const std::uint64_t base =
        std::min<std::uint64_t>(100, 10ull << (attempt - 2));
    EXPECT_GE(w1, base / 2);
    EXPECT_LT(w1, base + base / 2 + 1);
  }
  svc::RetryPolicy q = p;
  q.jitter_seed = 4;
  bool any_diff = false;
  for (std::uint32_t attempt = 2; attempt <= 6; ++attempt) {
    any_diff = any_diff || svc::backoff_ms(q, attempt) != svc::backoff_ms(p, attempt);
  }
  EXPECT_TRUE(any_diff) << "different seeds should decorrelate";
}

TEST(Endpoint, ParseForms) {
  const auto u = svc::Endpoint::parse("unix:/tmp/x.sock");
  EXPECT_EQ(u.kind, svc::Endpoint::Kind::kUnix);
  EXPECT_EQ(u.path, "/tmp/x.sock");
  EXPECT_EQ(u.to_string(), "unix:/tmp/x.sock");
  const auto t = svc::Endpoint::parse("tcp:127.0.0.1:8091");
  EXPECT_EQ(t.kind, svc::Endpoint::Kind::kTcp);
  EXPECT_EQ(t.port, 8091);
  EXPECT_THROW(svc::Endpoint::parse("carrier-pigeon:coop"), ConfigError);
  EXPECT_THROW(svc::Endpoint::parse("tcp:nope"), ConfigError);
  EXPECT_THROW(svc::Endpoint::parse("unix:"), ConfigError);
}

// ---------------------------------------------------------------------------
// LogRing (satellite: ring-buffered daemon log sink)
// ---------------------------------------------------------------------------

TEST(LogRing, KeepsTailInOrder) {
  LogRing ring(4);
  for (int i = 0; i < 10; ++i) {
    ring.append(LogLevel::kInfo, "msg" + std::to_string(i));
  }
  EXPECT_EQ(ring.total(), 10u);
  const auto tail = ring.tail(4);
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail.front().msg, "msg6");
  EXPECT_EQ(tail.back().msg, "msg9");
  const auto two = ring.tail(2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two.front().msg, "msg8");
}

}  // namespace
}  // namespace fixd
