#include "svc/journal.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <set>
#include <unordered_map>

#include "common/hash.hpp"

namespace fixd::svc {

namespace {

std::filesystem::path wal_path(const std::filesystem::path& dir,
                               std::uint64_t job_id) {
  return dir / ("job-" + std::to_string(job_id) + ".wal");
}

std::filesystem::path run_path(const std::filesystem::path& dir,
                               std::uint64_t job_id, std::uint64_t seq) {
  return dir / ("job-" + std::to_string(job_id) + "-ckpt-" +
                std::to_string(seq) + ".run");
}

/// Leads a trail that shares a prefix with earlier ones; every action
/// starts with its kind byte, and no kind is this large.
constexpr std::uint8_t kSharedPrefix = 0xff;
static_assert(static_cast<std::uint8_t>(mc::SysAction::Kind::kRestartProcess) <
              kSharedPrefix);

/// A frontier tree edge while encoding: (parent node, action), with the
/// action borrowed from the trail being encoded.
struct Edge {
  std::size_t parent;
  const mc::SysAction* action;
  bool operator==(const Edge& o) const {
    return parent == o.parent && *action == *o.action;
  }
};

struct EdgeHash {
  std::size_t operator()(const Edge& e) const {
    const mc::SysAction& a = *e.action;
    std::uint64_t h = hash_combine(e.parent, static_cast<std::uint64_t>(a.kind));
    h = hash_combine(h, static_cast<std::uint64_t>(a.event.kind));
    h = hash_combine(h, a.event.pid);
    h = hash_combine(h, a.event.msg);
    h = hash_combine(h, a.event.timer);
    h = hash_combine(h, a.event.at);
    h = hash_combine(h, a.msg);
    h = hash_combine(h, a.delay);
    h = hash_combine(h, hash_combine(a.src, a.dst));
    return static_cast<std::size_t>(h);
  }
};

}  // namespace

void encode_frontier(BinaryWriter& w, const std::vector<mc::Trail>& frontier) {
  // Node 0 is the root; node i > 0 is the i-th action written.
  std::unordered_map<Edge, std::size_t, EdgeHash> nodes;
  std::size_t next = 1;
  // The node at each depth of the previous trail: frontier neighbours are
  // mostly siblings, so the prefix they share is found by comparing
  // actions, and the tree is searched only below it.
  const mc::Trail* prev = nullptr;
  std::vector<std::size_t> path;
  w.write_varint(frontier.size());
  for (const mc::Trail& t : frontier) {
    w.write_varint(t.steps.size());
    std::size_t k = 0;
    if (prev != nullptr) {
      const std::size_t m = std::min(prev->steps.size(), t.steps.size());
      while (k < m && prev->steps[k] == t.steps[k]) ++k;
    }
    path.resize(k);
    std::size_t at = k > 0 ? path[k - 1] : 0;
    for (; k < t.steps.size(); ++k) {
      const auto it = nodes.find({at, &t.steps[k]});
      if (it == nodes.end()) break;
      at = it->second;
      path.push_back(at);
    }
    if (k > 0) {
      w.write_u8(kSharedPrefix);
      w.write_varint(at);
    }
    for (; k < t.steps.size(); ++k) {
      t.steps[k].save(w);
      nodes.emplace(Edge{at, &t.steps[k]}, next);
      at = next++;
      path.push_back(at);
    }
    prev = &t;
  }
}

std::vector<mc::Trail> decode_frontier(BinaryReader& r) {
  struct Node {
    std::size_t parent;
    std::size_t depth;
    mc::SysAction action;
  };
  std::vector<Node> nodes(1, Node{0, 0, {}});
  // Every trail takes at least its length byte.
  const std::uint64_t n = r.read_varint();
  if (n > r.remaining()) {
    throw SerializationError("frontier: trail count exceeds the record");
  }
  std::vector<mc::Trail> out(static_cast<std::size_t>(n));
  for (mc::Trail& t : out) {
    const std::uint64_t len = r.read_varint();
    std::size_t at = 0;
    if (len > 0 && r.peek_u8() == kSharedPrefix) {
      r.read_u8();
      const std::uint64_t idx = r.read_varint();
      if (idx == 0 || idx >= nodes.size() || nodes[idx].depth > len) {
        throw SerializationError("frontier: bad shared-prefix node");
      }
      at = static_cast<std::size_t>(idx);
    }
    // Every new action takes at least its kind byte.
    if (len - nodes[at].depth > r.remaining()) {
      throw SerializationError("frontier: trail length exceeds the record");
    }
    t.steps.resize(static_cast<std::size_t>(len));
    for (std::size_t d = nodes[at].depth; d < t.steps.size(); ++d) {
      Node nd{at, d + 1, {}};
      nd.action.load(r);
      nodes.push_back(nd);
      at = nodes.size() - 1;
    }
    for (std::size_t i = t.steps.size(); i-- > 0;) {
      t.steps[i] = nodes[at].action;
      at = nodes[at].parent;
    }
  }
  return out;
}

void RunManifest::save(BinaryWriter& w) const {
  w.write_string(file);
  w.write_u64(count);
  w.write_pod_vector(fence);
}

void RunManifest::load(BinaryReader& r) {
  file = r.read_string();
  count = r.read_u64();
  fence = r.read_pod_vector<std::uint64_t>();
}

void JournalRecord::save(BinaryWriter& w) const {
  w.write_u8(static_cast<std::uint8_t>(type));
  switch (type) {
    case JournalRecordType::kSubmitted:
      w.write_u64(request_id);
      w.write_u64(job_id);
      spec.save(w);
      break;
    case JournalRecordType::kAttemptStarted:
      w.write_u32(generation);
      break;
    case JournalRecordType::kCheckpoint:
      w.write_u64(checkpoint_seq);
      visited.save(w);
      encode_frontier(w, frontier);
      stats.save(w);
      w.write_vector(violations,
                     [](BinaryWriter& ww, const mc::SysViolation& v) {
                       v.save(ww);
                     });
      break;
    case JournalRecordType::kCompleted:
      result.save(w);
      break;
    case JournalRecordType::kCancelled:
      break;
  }
}

void JournalRecord::load(BinaryReader& r) {
  const std::uint8_t t = r.read_u8();
  if (t > static_cast<std::uint8_t>(JournalRecordType::kCancelled)) {
    throw SerializationError("journal: bad record type " + std::to_string(t));
  }
  type = static_cast<JournalRecordType>(t);
  switch (type) {
    case JournalRecordType::kSubmitted:
      request_id = r.read_u64();
      job_id = r.read_u64();
      spec.load(r);
      break;
    case JournalRecordType::kAttemptStarted:
      generation = r.read_u32();
      break;
    case JournalRecordType::kCheckpoint:
      checkpoint_seq = r.read_u64();
      visited.load(r);
      frontier = decode_frontier(r);
      stats.load(r);
      violations = r.read_vector<mc::SysViolation>([](BinaryReader& rr) {
        mc::SysViolation v;
        v.load(rr);
        return v;
      });
      break;
    case JournalRecordType::kCompleted:
      result.load(r);
      break;
    case JournalRecordType::kCancelled:
      break;
  }
}

JobJournal::JobJournal(std::filesystem::path dir, std::uint64_t job_id)
    : dir_(std::move(dir)), path_(wal_path(dir_, job_id)), job_id_(job_id) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    throw IoError("journal: create_directories " + dir_.string(), ec.value());
  }
  errno = 0;
  f_ = std::fopen(path_.c_str(), "ab");
  if (f_ == nullptr) {
    throw IoError("journal: open " + path_.string(), errno);
  }
}

JobJournal::~JobJournal() {
  if (f_ != nullptr) std::fclose(f_);
}

void JobJournal::append(const JournalRecord& rec) {
  BinaryWriter payload;
  payload.write_u32(kWireVersion);
  rec.save(payload);
  BinaryWriter frame;
  write_crc_frame(frame, kJournalMagic, payload.bytes());
  const auto bytes = frame.bytes();
  io_detail::checked_fwrite(bytes.data(), bytes.size(), f_, path_,
                            "journal append");
  io_detail::flush_and_sync(f_, path_);
}

RunManifest JobJournal::write_visited_run(
    std::uint64_t checkpoint_seq, const std::vector<std::uint64_t>& keys) {
  const std::filesystem::path p = run_path(dir_, job_id_, checkpoint_seq);
  SortedRunWriter writer(p);
  if (!keys.empty()) writer.append(keys.data(), keys.size());
  SortedRunWriter::Finished fin = writer.finish();
  RunManifest m;
  m.file = p.filename().string();
  m.count = fin.count;
  m.fence = std::move(fin.fence);
  return m;
}

void JobJournal::remove_files(const std::filesystem::path& dir,
                              std::uint64_t job_id) {
  std::error_code ec;
  const std::string stem = "job-" + std::to_string(job_id);
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name == stem + ".wal" ||
        (name.rfind(stem + "-ckpt-", 0) == 0 &&
         name.size() > 4 && name.substr(name.size() - 4) == ".run")) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
}

std::optional<RecoveredJob> recover_job(const std::filesystem::path& dir,
                                        std::uint64_t job_id) {
  const std::filesystem::path p = wal_path(dir, job_id);
  errno = 0;
  std::FILE* f = std::fopen(p.c_str(), "rb");
  if (f == nullptr) return std::nullopt;

  RecoveredJob out;
  out.job_id = job_id;
  bool saw_submitted = false;
  std::set<std::uint64_t> submitted_ids;
  std::vector<RunManifest> runs;

  for (;;) {
    std::array<std::byte, kCrcFrameHeaderBytes> header;
    const std::size_t got = std::fread(header.data(), 1, header.size(), f);
    if (got != header.size()) break;  // clean end or torn header: stop
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    try {
      const auto parsed =
          parse_crc_frame_header(header, kJournalMagic, kMaxFramePayload);
      len = parsed.first;
      crc = parsed.second;
    } catch (const SerializationError&) {
      break;  // garbled header: treat as torn tail
    }
    std::vector<std::byte> payload(len);
    if (len > 0 && std::fread(payload.data(), 1, len, f) != len) {
      break;  // payload torn mid-frame
    }
    JournalRecord rec;
    std::uint32_t version = 0;
    try {
      check_crc_payload(payload, crc);
      BinaryReader r(payload);
      version = r.read_u32();
      if (version == kWireVersion) rec.load(r);
    } catch (const SerializationError&) {
      break;  // CRC mismatch or truncated encoding: torn tail
    }
    if (version != kWireVersion) {
      std::fclose(f);
      throw SerializationError(
          "journal: job " + std::to_string(job_id) + " has a version " +
          std::to_string(version) + " record; this build reads version " +
          std::to_string(kWireVersion));
    }

    switch (rec.type) {
      case JournalRecordType::kSubmitted:
        if (!submitted_ids.insert(rec.request_id).second || saw_submitted) {
          std::fclose(f);
          throw SerializationError(
              "journal: duplicate kSubmitted for request " +
              std::to_string(rec.request_id) + " in job " +
              std::to_string(job_id) + " — idempotency ledger violated");
        }
        saw_submitted = true;
        out.request_id = rec.request_id;
        out.spec = rec.spec;
        break;
      case JournalRecordType::kAttemptStarted:
        ++out.attempts;
        break;
      case JournalRecordType::kCheckpoint:
        // Fold: the last record's frontier, stats and sequence number,
        // every record's violations and visited run.
        if (out.checkpoint) {
          std::vector<mc::SysViolation>& all = out.checkpoint->violations;
          for (mc::SysViolation& v : rec.violations) {
            all.push_back(std::move(v));
          }
          rec.violations = std::move(all);
        }
        runs.push_back(rec.visited);
        out.checkpoint = std::move(rec);
        ++out.checkpoints;
        break;
      case JournalRecordType::kCompleted:
        out.result = std::move(rec.result);
        break;
      case JournalRecordType::kCancelled:
        out.cancelled = true;
        break;
    }
  }
  std::fclose(f);
  if (!saw_submitted) return std::nullopt;
  if (!out.result && !out.cancelled) {
    for (const RunManifest& m : runs) {
      std::vector<std::uint64_t> keys =
          SortedRunReader(dir / m.file, m.fence).read_all();
      out.visited.insert(out.visited.end(), keys.begin(), keys.end());
    }
    std::sort(out.visited.begin(), out.visited.end());
  }
  return out;
}

std::vector<std::uint64_t> list_journaled_jobs(
    const std::filesystem::path& dir) {
  std::vector<std::uint64_t> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("job-", 0) == 0 &&
        name.size() > 8 && name.substr(name.size() - 4) == ".wal") {
      try {
        out.push_back(std::stoull(name.substr(4, name.size() - 8)));
      } catch (const std::exception&) {
        // not ours; skip
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace fixd::svc
