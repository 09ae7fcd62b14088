#include "scroll/scroll.hpp"

#include <algorithm>

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

void Scroll::account(const ScrollRecord& rec) {
  stats_.bytes += rec.encoded_size();
  ++stats_.records;
  ++stats_.by_kind[static_cast<std::size_t>(rec.kind)];
}

void Scroll::push(ScrollRecord rec) {
  rec.seq = next_seq_++;
  account(rec);
  records_.push_back(std::move(rec));
}

void Scroll::on_event(const rt::World& w, const rt::EventDesc& ev) {
  if (!preset_.schedule) return;
  ScrollRecord r;
  r.kind = RecordKind::kEvent;
  r.pid = ev.pid;
  r.lamport = w.lamport_of(ev.pid);
  r.event = ev;
  push(std::move(r));
}

void Scroll::on_send(const rt::World& w, const net::Message& msg) {
  if (!preset_.sends) return;
  ScrollRecord r;
  r.kind = RecordKind::kSend;
  r.pid = msg.src;
  r.lamport = w.lamport_of(msg.src);
  r.msg = msg.id;
  r.peer = msg.dst;
  r.tag = msg.tag;
  r.digest = msg.content_digest();
  if (preset_.payloads) r.payload = msg.payload;
  push(std::move(r));
}

void Scroll::on_deliver(const rt::World& w, const net::Message& msg) {
  if (!preset_.delivers) return;
  ScrollRecord r;
  r.kind = RecordKind::kDeliver;
  r.pid = msg.dst;
  r.lamport = w.lamport_of(msg.dst);
  r.msg = msg.id;
  r.peer = msg.src;
  r.tag = msg.tag;
  r.digest = msg.content_digest();
  if (preset_.payloads) r.payload = msg.payload;
  push(std::move(r));
}

void Scroll::on_rng(const rt::World& w, ProcessId pid, std::uint64_t value) {
  if (!preset_.rng) return;
  ScrollRecord r;
  r.kind = RecordKind::kRng;
  r.pid = pid;
  r.lamport = w.lamport_of(pid);
  r.value = value;
  push(std::move(r));
}

void Scroll::on_time_read(const rt::World& w, ProcessId pid, VirtualTime t) {
  if (!preset_.time_reads) return;
  ScrollRecord r;
  r.kind = RecordKind::kTimeRead;
  r.pid = pid;
  r.lamport = w.lamport_of(pid);
  r.value = t;
  push(std::move(r));
}

void Scroll::on_env_read(const rt::World& w, ProcessId pid,
                         const std::string& key, std::uint64_t value) {
  if (!preset_.env_reads) return;
  ScrollRecord r;
  r.kind = RecordKind::kEnvRead;
  r.pid = pid;
  r.lamport = w.lamport_of(pid);
  r.text = key;
  r.value = value;
  push(std::move(r));
}

void Scroll::on_annotation(const rt::World& w, ProcessId pid,
                           const std::string& note) {
  if (!preset_.annotations) return;
  ScrollRecord r;
  r.kind = RecordKind::kAnnotation;
  r.pid = pid;
  r.lamport = w.lamport_of(pid);
  r.text = note;
  push(std::move(r));
}

void Scroll::on_spec(const rt::World& w, ProcessId pid, SpecId spec,
                     SpecOp op) {
  if (!preset_.spec_events) return;
  ScrollRecord r;
  r.kind = RecordKind::kSpec;
  r.pid = pid;
  r.lamport = w.lamport_of(pid);
  r.spec = spec;
  r.spec_op = static_cast<std::uint8_t>(op);
  push(std::move(r));
}

void Scroll::clear() {
  records_.clear();
  stats_ = {};
  next_seq_ = 0;
}

std::vector<const ScrollRecord*> Scroll::for_process(ProcessId pid) const {
  std::vector<const ScrollRecord*> out;
  for (const auto& r : records_) {
    if (r.pid == pid) out.push_back(&r);
  }
  return out;
}

std::vector<rt::EventDesc> Scroll::schedule() const {
  std::vector<rt::EventDesc> out;
  for (const auto& r : records_) {
    if (r.kind == RecordKind::kEvent) out.push_back(r.event);
  }
  return out;
}

std::vector<const ScrollRecord*> Scroll::total_order() const {
  std::vector<const ScrollRecord*> out;
  out.reserve(records_.size());
  for (const auto& r : records_) out.push_back(&r);
  std::stable_sort(out.begin(), out.end(),
                   [](const ScrollRecord* a, const ScrollRecord* b) {
                     if (a->lamport != b->lamport)
                       return a->lamport < b->lamport;
                     if (a->pid != b->pid) return a->pid < b->pid;
                     return a->seq < b->seq;
                   });
  return out;
}

std::string Scroll::render(std::size_t max_records) const {
  std::string out;
  std::size_t n = std::min(max_records, records_.size());
  for (std::size_t i = 0; i < n; ++i) {
    out += records_[i].to_string();
    out += "\n";
  }
  if (n < records_.size()) {
    out += "... (" + std::to_string(records_.size() - n) + " more)\n";
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
  w.write_varint(records_.size());
  for (const auto& r : records_) r.save(w);
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
  next_seq_ = r.read_varint();
  std::size_t n = static_cast<std::size_t>(r.read_varint());
  records_.clear();
  records_.reserve(n);
  stats_ = {};
  for (std::size_t i = 0; i < n; ++i) {
    ScrollRecord rec;
    rec.load(r);
    account(rec);
    records_.push_back(std::move(rec));
  }
}

void Scroll::truncate(std::size_t n) {
  if (n >= records_.size()) return;
  records_.resize(n);
  stats_ = {};
  for (const auto& rec : records_) account(rec);
}

}  // namespace fixd::scroll
