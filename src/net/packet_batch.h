// Staging storage for net::Packet on the batched hot path.
//
// The per-flow datapath materialises packets as short-lived stack
// temporaries; the batched pipeline instead assembles whole batches in
// stable, reusable storage: a PacketBatch is the contiguous staging
// buffer for one batch of packets flowing through EdgeSwitch::decide_batch
// (this is what core::Network's batched replay uses). clear() keeps the
// capacity, so after warm-up refilling a batch is a plain overwrite.
#pragma once

#include <cstddef>
#include <vector>

#include "net/packet.h"

namespace lazyctrl::net {

/// A reusable contiguous batch of packets: the unit of work of the batched
/// forwarding pipeline. Unlike a plain std::vector, the intended idiom is
/// explicit — fill, process, clear — and clear() never releases capacity.
class PacketBatch {
 public:
  PacketBatch() = default;
  explicit PacketBatch(std::size_t reserve_packets) {
    packets_.reserve(reserve_packets);
  }

  Packet& emplace_back(const Packet& p) {
    packets_.push_back(p);
    return packets_.back();
  }

  void clear() noexcept { packets_.clear(); }

  [[nodiscard]] std::size_t size() const noexcept { return packets_.size(); }
  [[nodiscard]] bool empty() const noexcept { return packets_.empty(); }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return packets_.capacity();
  }

  [[nodiscard]] const Packet* data() const noexcept { return packets_.data(); }
  [[nodiscard]] Packet* data() noexcept { return packets_.data(); }
  [[nodiscard]] const Packet& operator[](std::size_t i) const noexcept {
    return packets_[i];
  }
  [[nodiscard]] Packet& operator[](std::size_t i) noexcept {
    return packets_[i];
  }

  [[nodiscard]] const Packet* begin() const noexcept {
    return packets_.data();
  }
  [[nodiscard]] const Packet* end() const noexcept {
    return packets_.data() + packets_.size();
  }

 private:
  std::vector<Packet> packets_;
};

}  // namespace lazyctrl::net
