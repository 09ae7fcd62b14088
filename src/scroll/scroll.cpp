#include "scroll/scroll.hpp"

#include <algorithm>
#include <bit>

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

namespace {

bool is_io(RecordKind k) {
  return k == RecordKind::kSend || k == RecordKind::kDeliver;
}

// True when every field `r`'s kind does not own is at its default, so the
// kind's compact entry body holds the whole record. Events own the event;
// sends and delivers msg, peer, tag, digest and payload; kSpec the spec id
// and text; the other kinds value and text.
bool fits_entry(const ScrollRecord& r) {
  const ScrollRecord d;
  const bool io = is_io(r.kind);
  const bool event = r.kind == RecordKind::kEvent;
  const bool spec = r.kind == RecordKind::kSpec;
  const bool scalar = !io && !event;
  return (event || r.event == d.event) &&
         (io || (r.msg == d.msg && r.peer == d.peer && r.tag == d.tag &&
                 r.digest == d.digest && r.payload.empty())) &&
         (scalar || r.text.empty()) &&
         ((scalar && !spec) || r.value == d.value) &&
         (spec || r.spec == d.spec);
}

}  // namespace

Scroll::Scroll(const Scroll& o) : rt::RuntimeObserver(o) { *this = o; }

Scroll& Scroll::operator=(const Scroll& o) {
  if (this == &o) return *this;
  clear();
  preset_ = o.preset_;
  arena_ = o.arena_;
  next_seq_ = o.next_seq_;
  for (std::size_t i = 0; i < o.size_; ++i) keep(o.entry(i));
  return *this;
}

std::size_t Scroll::chunk_records(std::size_t k) {
  return std::size_t{1}
         << std::min<std::size_t>(kFirstChunkLog2 + k, kMaxChunkLog2);
}

std::pair<std::size_t, std::size_t> Scroll::locate(std::size_t i) {
  constexpr std::size_t first = std::size_t{1} << kFirstChunkLog2;
  // Entries held by the chunks that are smaller than the cap.
  constexpr std::size_t growing = kMaxChunkRecords - first;
  if (i < growing) {
    const std::size_t j = i + first;
    const std::size_t log2 = std::bit_width(j) - 1;
    return {log2 - kFirstChunkLog2, j - (std::size_t{1} << log2)};
  }
  const std::size_t d = i - growing;
  return {(kMaxChunkLog2 - kFirstChunkLog2) + (d >> kMaxChunkLog2),
          d & (kMaxChunkRecords - 1)};
}

const Scroll::Entry& Scroll::entry(std::size_t i) const {
  const auto [k, off] = locate(i);
  return chunks_[k][off];
}

Scroll::Entry Scroll::head(RecordKind kind, ProcessId pid,
                           LamportTime lamport) {
  Entry e{.kind = kind,
          .spec_op = 0,
          .wide = false,
          .pid = pid,
          .seq = 0,
          .lamport = lamport,
          .body = {}};
  e.body.io = {};  // io spans the whole body: zero it before a tap fills it
  return e;
}

Scroll::Blob Scroll::store(std::span<const std::byte> bytes) {
  const Blob b{arena_.size(), bytes.size()};
  arena_.insert(arena_.end(), bytes.begin(), bytes.end());
  return b;
}

Scroll::Blob Scroll::store(std::string_view text) {
  return store(std::as_bytes(std::span(text.data(), text.size())));
}

std::span<const std::byte> Scroll::bytes_of(Blob b) const {
  return {arena_.data() + b.off, static_cast<std::size_t>(b.len)};
}

Scroll::Blob Scroll::blob_of(const Entry& e) {
  if (e.wide) return e.body.wide;
  return is_io(e.kind) ? e.body.io.payload : e.body.scalar.text;
}

void Scroll::account(const Entry& e) {
  const bool io = is_io(e.kind);
  const std::uint64_t blob =
      e.kind == RecordKind::kEvent && !e.wide ? 0 : blob_of(e).len;
  stats_.bytes += e.wide ? blob
                         : ScrollRecord::encoded_size(
                               e.seq, e.lamport, io ? e.body.io.msg : 0,
                               io ? 0 : blob, io ? blob : 0);
  ++stats_.records;
  ++stats_.by_kind[static_cast<std::size_t>(e.kind)];
}

void Scroll::keep(const Entry& e) {
  if (size_ == capacity_) {
    const std::size_t n = chunk_records(chunks_.size());
    chunks_.push_back(std::make_unique_for_overwrite<Entry[]>(n));
    capacity_ += n;
  }
  const auto [k, off] = locate(size_);
  chunks_[k][off] = e;
  ++size_;
  account(e);
}

void Scroll::push(Entry e) {
  e.seq = next_seq_++;
  keep(e);
}

void Scroll::keep(const ScrollRecord& rec) {
  Entry e = head(rec.kind, rec.pid, rec.lamport);
  e.seq = rec.seq;
  e.spec_op = rec.spec_op;
  if (!fits_entry(rec)) {
    e.wide = true;
    e.body.wide = store(to_bytes(rec));
  } else if (rec.kind == RecordKind::kEvent) {
    e.body.event = rec.event;
  } else if (is_io(rec.kind)) {
    e.body.io = {rec.msg, rec.peer, rec.tag, rec.digest, store(rec.payload)};
  } else {
    e.body.scalar = {rec.kind == RecordKind::kSpec ? rec.spec : rec.value,
                     store(rec.text)};
  }
  keep(e);
}

ScrollRecord Scroll::record(std::size_t i) const {
  const Entry& e = entry(i);
  if (e.wide) return from_bytes<ScrollRecord>(bytes_of(e.body.wide));
  ScrollRecord r;
  r.kind = e.kind;
  r.spec_op = e.spec_op;
  r.pid = e.pid;
  r.seq = e.seq;
  r.lamport = e.lamport;
  if (e.kind == RecordKind::kEvent) {
    r.event = e.body.event;
  } else if (is_io(e.kind)) {
    r.msg = e.body.io.msg;
    r.peer = e.body.io.peer;
    r.tag = e.body.io.tag;
    r.digest = e.body.io.digest;
    const auto p = bytes_of(e.body.io.payload);
    r.payload.assign(p.begin(), p.end());
  } else {
    if (e.kind == RecordKind::kSpec) {
      r.spec = e.body.scalar.value;
    } else {
      r.value = e.body.scalar.value;
    }
    const auto t = bytes_of(e.body.scalar.text);
    r.text.assign(reinterpret_cast<const char*>(t.data()), t.size());
  }
  return r;
}

void Scroll::on_event(const rt::World& w, const rt::EventDesc& ev) {
  if (!preset_.schedule) return;
  Entry e = head(RecordKind::kEvent, ev.pid, w.lamport_of(ev.pid));
  e.body.event = ev;
  push(e);
}

void Scroll::push_io(RecordKind kind, ProcessId pid, ProcessId peer,
                     const rt::World& w, const net::Message& msg) {
  Entry e = head(kind, pid, w.lamport_of(pid));
  e.body.io = {msg.id, peer, msg.tag, msg.content_digest(),
               store(preset_.payloads ? std::span(msg.payload)
                                      : std::span<const std::byte>())};
  push(e);
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
  if (!preset_.rng) return;
  Entry e = head(RecordKind::kRng, pid, w.lamport_of(pid));
  e.body.scalar = {value, store(std::string_view())};
  push(e);
}

void Scroll::on_time_read(const rt::World& w, ProcessId pid, VirtualTime t) {
  if (!preset_.time_reads) return;
  Entry e = head(RecordKind::kTimeRead, pid, w.lamport_of(pid));
  e.body.scalar = {t, store(std::string_view())};
  push(e);
}

void Scroll::on_env_read(const rt::World& w, ProcessId pid,
                         const std::string& key, std::uint64_t value) {
  if (!preset_.env_reads) return;
  Entry e = head(RecordKind::kEnvRead, pid, w.lamport_of(pid));
  e.body.scalar = {value, store(key)};
  push(e);
}

void Scroll::on_annotation(const rt::World& w, ProcessId pid,
                           const std::string& note) {
  if (!preset_.annotations) return;
  Entry e = head(RecordKind::kAnnotation, pid, w.lamport_of(pid));
  e.body.scalar = {0, store(note)};
  push(e);
}

void Scroll::on_spec(const rt::World& w, ProcessId pid, SpecId spec,
                     SpecOp op) {
  if (!preset_.spec_events) return;
  Entry e = head(RecordKind::kSpec, pid, w.lamport_of(pid));
  e.spec_op = static_cast<std::uint8_t>(op);
  e.body.scalar = {spec, store(std::string_view())};
  push(e);
}

void Scroll::clear() {
  chunks_.clear();
  size_ = 0;
  capacity_ = 0;
  arena_.clear();
  stats_ = {};
  next_seq_ = 0;
}

std::size_t Scroll::resident_bytes() const {
  return capacity_ * sizeof(Entry) + arena_.capacity();
}

std::vector<ScrollRecord> Scroll::for_process(ProcessId pid) const {
  std::vector<ScrollRecord> out;
  for (std::size_t i = 0; i < size_; ++i) {
    if (entry(i).pid == pid) out.push_back(record(i));
  }
  return out;
}

std::vector<rt::EventDesc> Scroll::schedule() const {
  std::vector<rt::EventDesc> out;
  for (std::size_t i = 0; i < size_; ++i) {
    if (entry(i).kind == RecordKind::kEvent) out.push_back(record(i).event);
  }
  return out;
}

std::vector<ScrollRecord> Scroll::total_order() const {
  std::vector<std::size_t> order(size_);
  for (std::size_t i = 0; i < size_; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t i, std::size_t j) {
                     const Entry& a = entry(i);
                     const Entry& b = entry(j);
                     if (a.lamport != b.lamport) return a.lamport < b.lamport;
                     if (a.pid != b.pid) return a.pid < b.pid;
                     return a.seq < b.seq;
                   });
  std::vector<ScrollRecord> out;
  out.reserve(size_);
  for (std::size_t i : order) out.push_back(record(i));
  return out;
}

std::string Scroll::render(std::size_t max_records) const {
  std::string out;
  std::size_t n = std::min(max_records, size_);
  for (std::size_t i = 0; i < n; ++i) {
    out += record(i).to_string();
    out += "\n";
  }
  if (n < size_) {
    out += "... (" + std::to_string(size_ - n) + " more)\n";
  }
  return out;
}

void Scroll::save(BinaryWriter& w) const {
  w.write_bool(preset_.schedule);
  w.write_bool(preset_.rng);
  w.write_bool(preset_.time_reads);
  w.write_bool(preset_.env_reads);
  w.write_bool(preset_.sends);
  w.write_bool(preset_.delivers);
  w.write_bool(preset_.payloads);
  w.write_bool(preset_.annotations);
  w.write_bool(preset_.spec_events);
  w.write_varint(next_seq_);
  w.write_varint(size_);
  for (std::size_t i = 0; i < size_; ++i) record(i).save(w);
}

void Scroll::load(BinaryReader& r) {
  preset_.schedule = r.read_bool();
  preset_.rng = r.read_bool();
  preset_.time_reads = r.read_bool();
  preset_.env_reads = r.read_bool();
  preset_.sends = r.read_bool();
  preset_.delivers = r.read_bool();
  preset_.payloads = r.read_bool();
  preset_.annotations = r.read_bool();
  preset_.spec_events = r.read_bool();
  const std::uint64_t seq = r.read_varint();
  const std::uint64_t n = r.read_varint();
  clear();
  next_seq_ = seq;
  // The store grows as records decode: a count the stream cannot back
  // runs out of bytes (SerializationError) before it can allocate.
  for (std::uint64_t i = 0; i < n; ++i) {
    ScrollRecord rec;
    rec.load(r);
    if (static_cast<std::size_t>(rec.kind) >= stats_.by_kind.size()) {
      throw SerializationError("scroll record kind " +
                               std::to_string(static_cast<int>(rec.kind)) +
                               " out of range");
    }
    keep(rec);
  }
}

void Scroll::truncate(std::size_t n) {
  if (n >= size_) return;
  // Blobs are appended in capture order: the first dropped record that
  // owns one marks where the kept records' bytes end.
  for (std::size_t i = n; i < size_; ++i) {
    const Entry& e = entry(i);
    if (e.wide || e.kind != RecordKind::kEvent) {
      arena_.resize(blob_of(e).off);
      break;
    }
  }
  chunks_.resize(n == 0 ? 0 : locate(n - 1).first + 1);
  capacity_ = 0;
  for (std::size_t k = 0; k < chunks_.size(); ++k) {
    capacity_ += chunk_records(k);
  }
  size_ = n;
  stats_ = {};
  for (std::size_t i = 0; i < n; ++i) account(entry(i));
}

}  // namespace fixd::scroll
