#include "common/log.hpp"

#include <algorithm>

namespace fixd {

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}

LogRing::LogRing(std::size_t capacity) : capacity_(capacity ? capacity : 1) {}

void LogRing::append(LogLevel level, const std::string& msg) {
  std::lock_guard<std::mutex> lock(mu_);
  LogRecord rec{next_seq_++, level, msg};
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(rec));
  } else {
    ring_[static_cast<std::size_t>(rec.seq % capacity_)] = std::move(rec);
  }
}

std::vector<LogRecord> LogRing::tail(std::size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LogRecord> out(ring_.begin(), ring_.end());
  std::sort(out.begin(), out.end(),
            [](const LogRecord& a, const LogRecord& b) { return a.seq < b.seq; });
  if (out.size() > n) out.erase(out.begin(), out.end() - n);
  return out;
}

std::uint64_t LogRing::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

}  // namespace fixd
