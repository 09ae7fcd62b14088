// Logical clocks: Lamport scalar clocks and vector clocks.
//
// The Scroll stamps every record with both; the Time Machine uses vector
// clocks to decide checkpoint consistency (a recovery line is consistent iff
// no checkpoint's vector clock "sees" an event after another member's cut);
// the global log merge orders records by (lamport, pid).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.hpp"
#include "common/types.hpp"

namespace fixd {

/// Scalar Lamport clock.
class LamportClock {
 public:
  /// Local event: advance and return the new timestamp.
  LamportTime tick() { return ++time_; }

  /// Merge a received timestamp (on message receipt) and tick.
  LamportTime merge(LamportTime received) {
    time_ = (received > time_ ? received : time_);
    return ++time_;
  }

  LamportTime now() const { return time_; }

  void save(BinaryWriter& w) const { w.write_u64(time_); }
  void load(BinaryReader& r) { time_ = r.read_u64(); }

 private:
  LamportTime time_ = 0;
};

/// Ordering relation between two vector clocks.
enum class CausalOrder {
  kEqual,       ///< identical
  kBefore,      ///< lhs happens-before rhs
  kAfter,       ///< rhs happens-before lhs
  kConcurrent,  ///< neither precedes the other
};

/// Fixed-width vector clock over a world of `size()` processes.
class VectorClock {
 public:
  VectorClock() = default;
  explicit VectorClock(std::size_t n) : v_(n, 0) {}
  /// A clock with the given components (decoders).
  explicit VectorClock(std::vector<std::uint64_t> components)
      : v_(std::move(components)) {}

  std::size_t size() const { return v_.size(); }
  std::uint64_t operator[](std::size_t i) const { return v_.at(i); }

  /// Local event at process `pid`.
  void tick(ProcessId pid) { ++v_.at(pid); }

  /// Component-wise max with a received clock, then tick(pid).
  void merge(const VectorClock& other, ProcessId pid) {
    if (other.size() != size())
      throw SerializationError("vector clock size mismatch in merge");
    for (std::size_t i = 0; i < v_.size(); ++i)
      if (other.v_[i] > v_[i]) v_[i] = other.v_[i];
    tick(pid);
  }

  /// Compare causally.
  CausalOrder compare(const VectorClock& other) const;

  /// True iff *this happens-before other (strictly).
  bool happens_before(const VectorClock& other) const {
    return compare(other) == CausalOrder::kBefore;
  }

  bool concurrent_with(const VectorClock& other) const {
    return compare(other) == CausalOrder::kConcurrent;
  }

  bool operator==(const VectorClock& other) const = default;

  void save(BinaryWriter& w) const { w.write_pod_vector(v_); }
  void load(BinaryReader& r) { v_ = r.read_pod_vector<std::uint64_t>(); }

  std::string to_string() const;

 private:
  std::vector<std::uint64_t> v_;
};

}  // namespace fixd
