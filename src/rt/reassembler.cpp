#include "rt/reassembler.hpp"

namespace mflow::rt {

RtReassembler::RtReassembler(std::size_t workers,
                             std::size_t ring_capacity_pow2)
    : epoch_ring_(kMaxPendingEpochs),
      current_{1, static_cast<std::uint32_t>(workers)} {
  for (std::size_t i = 0; i < workers; ++i)
    rings_.push_back(
        std::make_unique<SpscRing<RtPacket>>(ring_capacity_pow2));
}

bool RtReassembler::announce_epoch(Epoch e) {
  if (e.workers == 0 || e.workers > rings_.size()) return false;
  return epoch_ring_.try_push(std::move(e));
}

std::size_t RtReassembler::merge_owner() {
  // Epochs arrive in ascending first_batch order and the merge counter
  // never moves back, so an epoch the counter has reached governs every
  // batch still to merge until the next one takes over: retire it from
  // the queue, which frees its slot for a later announcement.
  while (const Epoch* next = epoch_ring_.peek()) {
    if (next->first_batch > merge_counter_) break;
    current_ = *next;
    (void)epoch_ring_.try_pop();
  }
  return static_cast<std::size_t>((merge_counter_ - current_.first_batch) %
                                  current_.workers);
}

std::size_t RtReassembler::deposit_batch(std::size_t w, RtPacket* pkts,
                                         std::size_t count) {
  return rings_[w]->try_push_batch(pkts, count);
}

std::size_t RtReassembler::pop_ready_batch(RtPacket* out, std::size_t max) {
  // Locate the buffer queue holding the micro-flow under merge; keep
  // consuming it until a packet with a different ID shows up, then advance
  // the merging counter (paper §III-B). The owner lookup puts any epoch
  // the counter reaches in force first, so the counter can never cross a
  // rescale boundary on a stale worker mapping.
  std::size_t got = 0;
  while (got < max) {
    auto& ring = *rings_[merge_owner()];
    got += ring.try_pop_batch_while(
        out + got, max - got, [this](const RtPacket& p) {
          return p.batch == merge_counter_ && !p.marker;
        });
    const RtPacket* head = ring.peek();
    if (head == nullptr) break;  // merge head dry — caller yields/advances
    if (head->batch == merge_counter_ && !head->marker)
      continue;  // more of this micro-flow arrived — keep draining
    if (head->batch > merge_counter_) {
      // A later batch (or its epoch-flush marker) at the head: this
      // micro-flow is complete (FIFO per worker), advance and keep
      // draining into the same output chunk.
      ++merge_counter_;
      ++batches_merged_;
      continue;
    }
    // Spent epoch-flush marker: discard and re-examine the head.
    (void)ring.try_pop();
  }
  return got;
}

void RtReassembler::force_advance() {
  ++merge_counter_;
  ++batches_merged_;
}

std::size_t RtReassembler::occupancy() const {
  std::size_t total = 0;
  for (const auto& ring : rings_) total += ring->size();
  return total;
}

}  // namespace mflow::rt
