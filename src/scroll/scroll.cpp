#include "scroll/scroll.hpp"

#include <algorithm>
#include <limits>

namespace fixd::scroll {

std::string ScrollRecord::to_string() const {
  std::string head = "#" + std::to_string(seq) + " p" + std::to_string(pid) +
                     " L" + std::to_string(lamport) + " ";
  switch (kind) {
    case RecordKind::kEvent:
      return head + "EVENT " + event.to_string();
    case RecordKind::kSend:
      return head + "SEND msg#" + std::to_string(msg) + " digest=" +
             std::to_string(digest) +
             (msg == 0 ? " (dropped by loss policy)" : "");
    case RecordKind::kDeliver:
      return head + "DELIVER msg#" + std::to_string(msg) +
             " digest=" + std::to_string(digest);
    case RecordKind::kRng:
      return head + "RNG " + std::to_string(value);
    case RecordKind::kTimeRead:
      return head + "TIME " + std::to_string(value);
    case RecordKind::kEnvRead:
      return head + "ENV " + text + "=" + std::to_string(value);
    case RecordKind::kAnnotation:
      return head + "NOTE " + text;
    case RecordKind::kSpec: {
      static const char* ops[] = {"BEGIN", "COMMIT", "ABORT", "ABSORB"};
      return head + "SPEC " + ops[spec_op % 4] + " s" + std::to_string(spec) +
             (text.empty() ? "" : " [" + text + "]");
    }
  }
  return head + "?";
}

// A record's encoding: a header byte (record kind in bits 0-3, two flags,
// event kind in bits 6-7), then varints:
//
//   header  [seq]  pid  lamport  [field set]  fields...  text  payload
//
// seq is stored only when it is not the last record's + 1; lamport, msg
// ids and event times are zigzag deltas from the last ones written (a
// per-process lamport base saved 1 byte in protect's 2.9 MB). A record
// stores its kind's usual fields, or, when it sets any other, a field set
// naming the fields that differ from their defaults. Text and payload
// bytes go last.
namespace {

constexpr std::uint8_t kKindBits = 0x0f;
constexpr std::uint8_t kSeqStored = 0x10;
constexpr std::uint8_t kFieldsStored = 0x20;
constexpr unsigned kEventKindShift = 6;

// The field set, one bit per field in stored order.
namespace field {
constexpr std::uint32_t kEvPid = 1u << 0;  ///< default: pid for an event
constexpr std::uint32_t kEvMsg = 1u << 1;
constexpr std::uint32_t kEvTimer = 1u << 2;
constexpr std::uint32_t kEvAt = 1u << 3;
constexpr std::uint32_t kMsg = 1u << 4;
constexpr std::uint32_t kPeer = 1u << 5;
constexpr std::uint32_t kTag = 1u << 6;
constexpr std::uint32_t kDigest = 1u << 7;  ///< 8 raw bytes
constexpr std::uint32_t kValue = 1u << 8;   ///< 8 raw bytes for kRng
constexpr std::uint32_t kSpec = 1u << 9;
constexpr std::uint32_t kSpecOp = 1u << 10;  ///< one byte
constexpr std::uint32_t kText = 1u << 11;
constexpr std::uint32_t kPayload = 1u << 12;
constexpr std::uint32_t kAll = (1u << 13) - 1;
}  // namespace field

/// The fields a kind's tap sets.
std::uint32_t usual_fields(RecordKind kind, rt::EventKind ev) {
  using namespace field;
  constexpr std::uint32_t kIo = kMsg | kPeer | kTag | kDigest;
  constexpr std::uint32_t kByKind[] = {
      0, kIo, kIo, kValue, kValue, kValue | kText, kText, kSpec | kSpecOp};
  if (kind != RecordKind::kEvent) {
    return kByKind[static_cast<std::size_t>(kind)];
  }
  return kEvAt | (ev == rt::EventKind::kDeliver ? kEvMsg
                  : ev == rt::EventKind::kTimer ? kEvTimer
                                                : 0);
}

ProcessId default_event_pid(RecordKind kind, ProcessId pid) {
  return kind == RecordKind::kEvent ? pid : kNoProcess;
}

/// The fields of `r` that differ from their defaults.
std::uint32_t set_fields(const ScrollRecord& r, std::string_view text,
                         std::span<const std::byte> payload) {
  using namespace field;
  const auto bit = [](bool set, std::uint32_t f) { return set ? f : 0u; };
  return bit(r.event.pid != default_event_pid(r.kind, r.pid), kEvPid) |
         bit(r.event.msg != 0, kEvMsg) | bit(r.event.timer != 0, kEvTimer) |
         bit(r.event.at != 0, kEvAt) | bit(r.msg != 0, kMsg) |
         bit(r.peer != kNoProcess, kPeer) | bit(r.tag != 0, kTag) |
         bit(r.digest != 0, kDigest) | bit(r.value != 0, kValue) |
         bit(r.spec != kNoSpec, kSpec) | bit(r.spec_op != 0, kSpecOp) |
         bit(!text.empty(), kText) | bit(!payload.empty(), kPayload);
}

std::uint64_t zigzag(std::uint64_t d) { return (d << 1) ^ (0 - (d >> 63)); }
std::uint64_t unzigzag(std::uint64_t z) { return (z >> 1) ^ (0 - (z & 1)); }

/// Encodes fields into memory the caller sized.
struct Writer {
  std::byte* p;
  void varint(std::uint64_t v) { p = put_varint(p, v); }
  void delta(std::uint64_t v, std::uint64_t& last) {
    varint(zigzag(v - last));
    last = v;
  }
  void raw(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) *p++ = static_cast<std::byte>(v >> (8 * i));
  }
  void byte(std::uint8_t v) { *p++ = static_cast<std::byte>(v); }
};

/// Decodes fields, bounds- and range-checked.
struct Reader {
  BinaryReader in;
  template <typename T>
  void varint(T& v) {
    const std::uint64_t x = in.read_varint();
    if constexpr (sizeof(T) < sizeof(x)) {
      if (x > std::numeric_limits<T>::max()) {
        throw SerializationError("scroll record field " + std::to_string(x) +
                                 " out of range");
      }
    }
    v = static_cast<T>(x);
  }
  void delta(std::uint64_t& v, std::uint64_t& last) {
    v = last += unzigzag(in.read_varint());
  }
  void raw(std::uint64_t& v) { v = in.read_u64(); }
  void byte(std::uint8_t& v) {
    v = in.read_u8();
    if (v > static_cast<std::uint8_t>(rt::RuntimeObserver::SpecOp::kAbsorb)) {
      throw SerializationError("scroll spec op " + std::to_string(v) +
                               " out of range");
    }
  }
};

}  // namespace

template <typename IO, typename Record>
void Scroll::Codec::fields(IO& io, Record& r, std::uint8_t h,
                           std::uint32_t& f) {
  if (h & kSeqStored) io.varint(r.seq);
  io.varint(r.pid);
  io.delta(r.lamport, lamport);
  if (h & kFieldsStored) io.varint(f);
  if (f & ~field::kAll) throw SerializationError("scroll field set");
  if (f & field::kEvPid) io.varint(r.event.pid);
  if (f & field::kEvMsg) io.delta(r.event.msg, msg);
  if (f & field::kEvTimer) io.varint(r.event.timer);
  if (f & field::kEvAt) io.delta(r.event.at, at);
  if (f & field::kMsg) io.delta(r.msg, msg);
  if (f & field::kPeer) io.varint(r.peer);
  if (f & field::kTag) io.varint(r.tag);
  if (f & field::kDigest) io.raw(r.digest);
  if (f & field::kValue) {
    r.kind == RecordKind::kRng ? io.raw(r.value) : io.varint(r.value);
  }
  if (f & field::kSpec) io.varint(r.spec);
  if (f & field::kSpecOp) io.byte(r.spec_op);
}

void Scroll::Codec::put(RecordLog& log, const ScrollRecord& r,
                        std::string_view text,
                        std::span<const std::byte> payload) {
  const std::uint32_t usual = usual_fields(r.kind, r.event.kind);
  const std::uint32_t set = set_fields(r, text, payload);
  std::uint32_t f = (set & ~usual) != 0 ? set : usual;
  const auto h = static_cast<std::uint8_t>(
      static_cast<unsigned>(r.kind) | (r.seq != seq ? kSeqStored : 0) |
      (f != usual ? kFieldsStored : 0) |
      (static_cast<unsigned>(r.event.kind) << kEventKindShift));

  std::byte head[160];  // every field but the text and payload bytes
  Writer io{head};
  io.byte(h);
  fields(io, r, h, f);
  if (f & field::kText) io.varint(text.size());
  if (f & field::kPayload) io.varint(payload.size());

  const auto n = static_cast<std::size_t>(io.p - head);
  std::byte* out = log.append(n + text.size() + payload.size());
  out = std::copy_n(head, n, out);
  out = std::ranges::copy(std::as_bytes(std::span(text)), out).out;
  std::ranges::copy(payload, out);
  seq = r.seq + 1;
}

void Scroll::Codec::get(std::span<const std::byte> rec, ScrollRecord& out) {
  Reader io{BinaryReader(rec)};
  const std::uint8_t h = io.in.read_u8();
  const unsigned kind = h & kKindBits;
  const unsigned ev_kind = h >> kEventKindShift;
  if (kind > static_cast<unsigned>(RecordKind::kSpec) ||
      ev_kind > static_cast<unsigned>(rt::EventKind::kTimer)) {
    throw SerializationError("scroll record kind " + std::to_string(kind) +
                             ", event kind " + std::to_string(ev_kind) +
                             ": out of range");
  }
  out = ScrollRecord{};
  out.kind = static_cast<RecordKind>(kind);
  out.event.kind = static_cast<rt::EventKind>(ev_kind);
  out.seq = seq;
  std::uint32_t f = usual_fields(out.kind, out.event.kind);
  fields(io, out, h, f);
  if (!(f & field::kEvPid)) {
    out.event.pid = default_event_pid(out.kind, out.pid);
  }
  std::size_t text = 0;
  std::size_t payload = 0;
  if (f & field::kText) io.varint(text);
  if (f & field::kPayload) io.varint(payload);
  const auto t = io.in.read_raw(text);
  out.text.assign(reinterpret_cast<const char*>(t.data()), t.size());
  const auto p = io.in.read_raw(payload);
  out.payload.assign(p.begin(), p.end());
  if (!io.in.at_end()) {
    throw SerializationError("scroll record has " +
                             std::to_string(io.in.remaining()) +
                             " trailing bytes");
  }
  seq = out.seq + 1;
}

bool Scroll::Cursor::next(ScrollRecord& out) {
  std::span<const std::byte> rec;
  if (!records_.next(rec)) return false;
  codec_.get(rec, out);
  return true;
}

ScrollRecord Scroll::stamp(RecordKind kind, ProcessId pid,
                           const rt::World& w) {
  ScrollRecord r;
  r.kind = kind;
  r.seq = next_seq_++;
  r.pid = pid;
  r.lamport = w.lamport_of(pid);
  return r;
}

void Scroll::keep(const rt::World* w, const ScrollRecord& r,
                  std::string_view text, std::span<const std::byte> payload) {
  const Codec base = encoder_;
  const std::size_t chunks = log_.chunk_count();
  encoder_.put(log_, r, text, payload);
  if (log_.chunk_count() != chunks) {
    peak_resident_ = std::max(peak_resident_, log_.resident_bytes());
    Mark& m = marks_.emplace_back(Mark{base, ~std::uint64_t{0}, {}});
    if (w != nullptr) {
      m.capture_serial = w->capture_serial();
      for (ProcessId p = 0; p < w->size(); ++p) {
        const VectorClock& vc = w->vclock_of(p);
        m.clocks.push_back(p < vc.size() ? vc[p] : 0);
      }
    }
  }
  ++by_kind_[static_cast<std::size_t>(r.kind)];
}

void Scroll::trim(std::uint64_t capture_serial,
                  std::span<const std::uint64_t> send_stamps) {
  // Chunk k opened after every record before it, so when it opened behind
  // the cut, so were they all. Capture serials never rewind, so the marks
  // before the capture are a prefix; a sender's clock stays at or above a
  // crossing message's stamp from its send on, so the chunk holding the
  // send and every later one opened at or above it.
  std::size_t k = 0;
  for (std::size_t i = 1;
       i < marks_.size() && marks_[i].capture_serial < capture_serial; ++i) {
    const std::vector<std::uint64_t>& clocks = marks_[i].clocks;
    if (clocks.size() != send_stamps.size()) break;
    bool before_sends = true;
    for (std::size_t p = 0; p < clocks.size(); ++p) {
      before_sends &= clocks[p] < send_stamps[p];
    }
    if (before_sends) k = i;
  }
  if (k == 0) return;
  const std::size_t held = log_.size();
  log_.drop_front_chunks(k);
  marks_.erase(marks_.begin(), marks_.begin() + static_cast<std::ptrdiff_t>(k));
  trimmed_ += held - log_.size();
}

void Scroll::clear() {
  trimmed_ += log_.size();
  log_.clear();
  marks_.clear();
}

void Scroll::keep_value(RecordKind kind, ProcessId pid, const rt::World& w,
                        std::uint64_t value, std::string_view text) {
  ScrollRecord r = stamp(kind, pid, w);
  r.value = value;
  keep(&w, r, text);
}

void Scroll::on_event(const rt::World& w, const rt::EventDesc& ev) {
  if (!preset_.schedule) return;
  ScrollRecord r = stamp(RecordKind::kEvent, ev.pid, w);
  r.event = ev;
  keep(&w, r);
}

void Scroll::push_io(RecordKind kind, ProcessId pid, ProcessId peer,
                     const rt::World& w, const net::Message& msg) {
  ScrollRecord r = stamp(kind, pid, w);
  r.msg = msg.id;
  r.peer = peer;
  r.tag = msg.tag;
  r.digest = msg.content_digest();
  keep(&w, r, {},
       preset_.payloads ? std::span(msg.payload)
                        : std::span<const std::byte>());
}

void Scroll::on_send(const rt::World& w, const net::Message& msg) {
  if (preset_.sends) push_io(RecordKind::kSend, msg.src, msg.dst, w, msg);
}

void Scroll::on_deliver(const rt::World& w, const net::Message& msg) {
  if (preset_.delivers) {
    push_io(RecordKind::kDeliver, msg.dst, msg.src, w, msg);
  }
}

void Scroll::on_rng(const rt::World& w, ProcessId pid, std::uint64_t value) {
  if (preset_.rng) keep_value(RecordKind::kRng, pid, w, value);
}

void Scroll::on_time_read(const rt::World& w, ProcessId pid, VirtualTime t) {
  if (preset_.time_reads) keep_value(RecordKind::kTimeRead, pid, w, t);
}

void Scroll::on_env_read(const rt::World& w, ProcessId pid,
                         const std::string& key, std::uint64_t value) {
  if (preset_.env_reads) keep_value(RecordKind::kEnvRead, pid, w, value, key);
}

void Scroll::on_annotation(const rt::World& w, ProcessId pid,
                           const std::string& note) {
  if (preset_.annotations) keep_value(RecordKind::kAnnotation, pid, w, 0, note);
}

void Scroll::on_spec(const rt::World& w, ProcessId pid, SpecId spec,
                     SpecOp op) {
  if (!preset_.spec_events) return;
  ScrollRecord r = stamp(RecordKind::kSpec, pid, w);
  r.spec = spec;
  r.spec_op = static_cast<std::uint8_t>(op);
  keep(&w, r);
}

std::vector<ScrollRecord> Scroll::for_process(ProcessId pid) const {
  std::vector<ScrollRecord> out;
  Cursor c = cursor();
  ScrollRecord r;
  while (c.next(r)) {
    if (r.pid == pid) out.push_back(r);
  }
  return out;
}

std::vector<rt::EventDesc> Scroll::schedule() const {
  std::vector<rt::EventDesc> out;
  Cursor c = cursor();
  ScrollRecord r;
  while (c.next(r)) {
    if (r.kind == RecordKind::kEvent) out.push_back(r.event);
  }
  return out;
}

std::vector<ScrollRecord> Scroll::total_order() const {
  std::vector<ScrollRecord> out;
  out.reserve(size());
  Cursor c = cursor();
  ScrollRecord r;
  while (c.next(r)) out.push_back(r);
  std::stable_sort(out.begin(), out.end(),
                   [](const ScrollRecord& a, const ScrollRecord& b) {
                     if (a.lamport != b.lamport) return a.lamport < b.lamport;
                     if (a.pid != b.pid) return a.pid < b.pid;
                     return a.seq < b.seq;
                   });
  return out;
}

std::string Scroll::render(std::size_t max_records) const {
  // Decode from the latest chunk that leaves max_records to show: its mark
  // holds the codec state it starts from.
  std::size_t chunk = log_.chunk_count();
  std::size_t tail = 0;  ///< records held in chunks from `chunk` on
  while (chunk > 0 && tail < max_records) tail += log_.chunk_records(--chunk);
  const std::size_t skip = tail > max_records ? tail - max_records : 0;
  const std::uint64_t earlier = trimmed_ + (size() - tail) + skip;
  std::string out;
  if (earlier > 0) out += "... (" + std::to_string(earlier) + " earlier)\n";
  if (tail == 0) return out;
  Cursor c(log_.cursor(chunk), marks_[chunk].base);
  ScrollRecord r;
  for (std::size_t i = 0; c.next(r); ++i) {
    if (i < skip) continue;
    out += r.to_string();
    out += "\n";
  }
  return out;
}

namespace {

/// The preset's flags in stream order.
constexpr bool LoggingPreset::*kPresetFlags[] = {
    &LoggingPreset::schedule,  &LoggingPreset::rng,
    &LoggingPreset::time_reads, &LoggingPreset::env_reads,
    &LoggingPreset::sends,     &LoggingPreset::delivers,
    &LoggingPreset::payloads,  &LoggingPreset::annotations,
    &LoggingPreset::spec_events};

}  // namespace

void Scroll::save(BinaryWriter& w) const {
  w.write_varint(kStreamVersion);
  for (bool LoggingPreset::*flag : kPresetFlags) w.write_bool(preset_.*flag);
  w.write_varint(next_seq_);
  w.write_varint(trimmed_);
  const Codec& front = front_base();
  for (std::uint64_t v : {front.seq, front.lamport, front.msg, front.at}) {
    w.write_varint(v);
  }
  w.write_varint(log_.size());
  RecordLog::Cursor c = log_.cursor();
  std::span<const std::byte> rec;
  while (c.next(rec)) w.write_bytes(rec);
}

void Scroll::load(BinaryReader& r) {
  const std::uint64_t version = r.read_varint();
  if (version != kStreamVersion) {
    throw SerializationError("scroll stream version " +
                             std::to_string(version) + ", expected " +
                             std::to_string(kStreamVersion));
  }
  LoggingPreset preset;
  for (bool LoggingPreset::*flag : kPresetFlags) preset.*flag = r.read_bool();
  const std::uint64_t next_seq = r.read_varint();
  Scroll loaded(preset);
  loaded.trimmed_ = r.read_varint();
  for (std::uint64_t* v : {&loaded.encoder_.seq, &loaded.encoder_.lamport,
                           &loaded.encoder_.msg, &loaded.encoder_.at}) {
    *v = r.read_varint();
  }
  const std::uint64_t n = r.read_varint();
  // The log grows as records decode: a count the stream cannot back runs
  // out of bytes (SerializationError) before it can allocate. Each record
  // is decoded, checked and encoded afresh from the front base, which
  // gives back its bytes.
  Codec decoder = loaded.encoder_;
  ScrollRecord rec;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t len = r.read_varint();
    if (len > r.remaining()) {
      throw SerializationError("scroll record of " + std::to_string(len) +
                               " bytes overruns the stream");
    }
    decoder.get(r.read_raw(static_cast<std::size_t>(len)), rec);
    loaded.append(rec);
  }
  loaded.next_seq_ = next_seq;
  *this = std::move(loaded);
}

}  // namespace fixd::scroll
