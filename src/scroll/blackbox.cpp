#include "scroll/blackbox.hpp"

namespace fixd::scroll {

BlackBoxTranscript BlackBoxTranscript::extract(const Scroll& scroll,
                                               ProcessId remote) {
  BlackBoxTranscript t;
  t.remote_ = remote;
  // The remote's sends appear as kSend records with pid == remote; the
  // remote's receives appear as kDeliver records with pid == remote.
  for (ScrollRecord& r : scroll.for_process(remote)) {
    if (r.kind != RecordKind::kSend && r.kind != RecordKind::kDeliver) {
      continue;
    }
    Interaction i;
    i.outbound = r.kind == RecordKind::kSend;
    i.peer = r.peer;
    i.tag = r.tag;
    i.payload = std::move(r.payload);
    i.digest = r.digest;
    t.log_.push_back(std::move(i));
  }
  return t;
}

bool BlackBoxTranscript::has_payloads() const {
  for (const auto& i : log_) {
    if (!i.payload.empty()) return true;
  }
  return log_.empty();
}

void BlackBoxTranscript::save(BinaryWriter& w) const {
  w.write_u32(remote_);
  w.write_varint(log_.size());
  for (const auto& i : log_) i.save(w);
}

void BlackBoxTranscript::load(BinaryReader& r) {
  remote_ = r.read_u32();
  std::size_t n = static_cast<std::size_t>(r.read_varint());
  log_.clear();
  log_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Interaction it;
    it.load(r);
    log_.push_back(std::move(it));
  }
}

ScriptedProcess::ScriptedProcess(BlackBoxTranscript transcript)
    : transcript_(std::move(transcript)) {}

void ScriptedProcess::on_start(rt::Context& ctx) { pump(ctx); }

void ScriptedProcess::on_message(rt::Context& ctx, const net::Message& msg) {
  const auto& log = transcript_.interactions();
  if (cursor_ < log.size() && !log[cursor_].outbound) {
    if (log[cursor_].digest == msg.content_digest()) {
      ++cursor_;
    } else {
      // The live run deviated from the transcript; note it and move on so
      // the investigation is not wedged (the model is best-effort).
      ++mismatches_;
      ++cursor_;
    }
  }
  pump(ctx);
}

void ScriptedProcess::pump(rt::Context& ctx) {
  const auto& log = transcript_.interactions();
  while (cursor_ < log.size() && log[cursor_].outbound) {
    const Interaction& i = log[cursor_];
    // Peer/tag travel inside the recorded payload when the scroll kept
    // payloads; digest-only transcripts cannot be replayed outbound.
    if (!i.payload.empty() || i.peer != kNoProcess) {
      ProcessId dst = i.peer;
      if (dst == kNoProcess) break;  // insufficient recording; stop pumping
      ctx.send(dst, i.tag, i.payload);
    }
    ++cursor_;
  }
}

void ScriptedProcess::save_root(BinaryWriter& w) const {
  transcript_.save(w);
  w.write_varint(cursor_);
  w.write_u64(mismatches_);
}

void ScriptedProcess::load_root(BinaryReader& r) {
  transcript_.load(r);
  cursor_ = static_cast<std::size_t>(r.read_varint());
  mismatches_ = r.read_u64();
}

}  // namespace fixd::scroll
