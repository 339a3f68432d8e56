#include "stack/socket.hpp"

#include "stack/machine.hpp"
#include "trace/trace.hpp"

namespace mflow::stack {

/// The packet-delivery pollable: models the kernel thread that wakes in
/// recvmsg, (optionally) merges micro-flows and runs deferred TCP
/// processing, then copies payload to the application buffer.
class Socket::Reader : public sim::Pollable {
 public:
  explicit Reader(Socket& sock) : sock_(sock) {}

  bool poll(sim::Core& core, int budget) override {
    Socket& s = sock_;
    const CostModel& costs = s.machine_.costs();
    core.charge(sim::Tag::kCopy, costs.recv_wakeup);
    int n = 0;
    trace::Tracer* tr = trace::active();
    while (n < budget) {
      net::PacketPtr pkt;
      const bool merged = s.merge_ != nullptr;
      if (merged) {
        pkt = s.merge_->pop_ready();
        const sim::Time merge_ns = s.merge_->take_pending_charge();
        if (merge_ns > 0) core.charge(sim::Tag::kMerge, merge_ns);
        if (!pkt) break;  // in-order head not arrived yet; a later deposit
                          // re-raises us
      } else {
        if (s.rx_queue_.empty()) break;
        pkt = std::move(s.rx_queue_.front());
        s.rx_queue_.pop_front();
      }
      if (tr != nullptr)
        tr->packet(merged ? trace::EventKind::kReasmRelease
                          : trace::EventKind::kReaderPop,
                   core.vnow(), core.id(), pkt->flow_id, pkt->wire_seq,
                   pkt->microflow_id);

      if (s.config_.tcp_in_reader &&
          pkt->flow.protocol == net::Ipv4Header::kProtoTcp) {
        // MFLOW full-path mode: stateful TCP runs here, after the merge,
        // in recvmsg context (paper §IV "Flow reassembling").
        core.charge(sim::Tag::kTcpRx,
                    costs.tcp_rx_per_skb + costs.tcp_rx_per_seg *
                                               static_cast<sim::Time>(
                                                   pkt->gro_segs));
        s.tcp_rx_.on_segment(
            std::move(pkt),
            [&s, &core](net::PacketPtr p) {
              s.deliver_to_app(std::move(p), core);
            },
            [&core](sim::Time ns) { core.charge(sim::Tag::kTcpRx, ns); });
      } else {
        s.deliver_to_app(std::move(pkt), core);
      }
      ++n;
    }
    if (s.merge_ != nullptr) return s.merge_->pop_ready_available();
    return !s.rx_queue_.empty();
  }

  std::string_view poll_name() const override { return "recvmsg"; }

 private:
  Socket& sock_;
};

Socket::Socket(Machine& machine, SocketConfig config)
    : machine_(machine), config_(config), tcp_rx_(machine.costs()) {
  reader_cores_.push_back(config_.app_core);
  for (int c : config_.extra_reader_cores)
    if (c != config_.app_core) reader_cores_.push_back(c);
  for (std::size_t i = 0; i < reader_cores_.size(); ++i)
    readers_.push_back(std::make_unique<Reader>(*this));
}

Socket::~Socket() = default;

int Socket::next_reader_core() {
  const std::size_t idx = reader_rr_ % reader_cores_.size();
  reader_rr_ = (reader_rr_ + 1) % reader_cores_.size();
  return reader_cores_[idx];
}

void Socket::ingest(net::PacketPtr pkt, int from_core) {
  if (trace::Tracer* tr = trace::active())
    tr->packet(merge_ != nullptr ? trace::EventKind::kReasmHold
                                 : trace::EventKind::kSocketEnqueue,
               machine_.core(from_core).vnow(), from_core, pkt->flow_id,
               pkt->wire_seq, pkt->microflow_id);
  if (merge_ != nullptr) {
    merge_->deposit(std::move(pkt), from_core);
  } else {
    rx_queue_.push_back(std::move(pkt));
  }
  const std::size_t idx = reader_rr_ % reader_cores_.size();
  const int reader_core = next_reader_core();
  const bool remote = from_core != reader_core;
  if (machine_.core(reader_core).raise(*readers_[idx], remote) && remote)
    machine_.core(from_core).charge(sim::Tag::kSteer,
                                    machine_.costs().ipi_cost);
}

void Socket::notify_merge_ready() {
  const std::size_t idx = reader_rr_ % reader_cores_.size();
  const int reader_core = next_reader_core();
  machine_.core(reader_core).raise(*readers_[idx], /*remote=*/false);
}

void Socket::deliver_to_app(net::PacketPtr pkt, sim::Core& core) {
  const CostModel& costs = machine_.costs();
  stats_.skbs += 1;
  stats_.segments += pkt->gro_segs;
  trace::Tracer* tr = trace::active();
  if (tr != nullptr)
    tr->packet(trace::EventKind::kCopyStart, core.vnow(), core.id(),
               pkt->flow_id, pkt->wire_seq, pkt->microflow_id);
  const auto copy_ns = static_cast<sim::Time>(
      costs.copy_per_byte * static_cast<double>(pkt->payload_len));
  core.charge(sim::Tag::kCopy, copy_ns);
  if (tr != nullptr)
    tr->packet(trace::EventKind::kCopyDone, core.vnow(), core.id(),
               pkt->flow_id, pkt->wire_seq, pkt->microflow_id, 0, copy_ns);
  stats_.payload_bytes += pkt->payload_len;
  account_message_bytes(*pkt, machine_.simulator().now());
  // skb freed here: payload handed to the application.
}

void Socket::account_message_bytes(const net::Packet& pkt, sim::Time now) {
  const CostModel& costs = machine_.costs();
  auto& core0 = machine_.core(config_.app_core);

  if (pkt.flow.protocol == net::Ipv4Header::kProtoTcp &&
      !config_.per_message_accounting) {
    if (config_.message_size == 0) return;  // pure stream, no framing
    if (stream_msg_bytes_ == 0) stream_msg_start_ = pkt.t_wire;
    stream_msg_bytes_ += pkt.payload_len;
    while (stream_msg_bytes_ >= config_.message_size) {
      stream_msg_bytes_ -= config_.message_size;
      ++stats_.messages;
      const auto lat = static_cast<std::uint64_t>(
          std::max<sim::Time>(0, now - stream_msg_start_));
      stats_.latency.record(lat);
      if (listener_)
        listener_(pkt.flow_id, pkt.message_id, static_cast<sim::Time>(lat));
      core0.charge(sim::Tag::kCopy, costs.copy_per_msg);
      // The next message began inside this skb.
      stream_msg_start_ = pkt.t_wire;
    }
    return;
  }

  // Per-message-id accounting (UDP datagrams and variable-size TCP
  // request/response messages): bytes accumulate until message_bytes arrive.
  const std::uint64_t id = pkt.message_id;
  newest_msg_id_ = std::max(newest_msg_id_, id);
  UdpMsg& msg = udp_msgs_[id];
  if (msg.bytes == 0) msg.start = pkt.t_wire;
  msg.bytes += pkt.payload_len;
  if (msg.bytes >= pkt.message_bytes) {
    ++stats_.messages;
    const auto lat = static_cast<std::uint64_t>(
        std::max<sim::Time>(0, now - msg.start));
    stats_.latency.record(lat);
    if (listener_)
      listener_(pkt.flow_id, id, static_cast<sim::Time>(lat));
    core0.charge(sim::Tag::kCopy, costs.copy_per_msg);
    udp_msgs_.erase(id);
  } else if (udp_msgs_.size() > 8192) {
    // Lost fragments leave stale entries; prune far-behind message ids.
    const std::uint64_t horizon =
        newest_msg_id_ > 4096 ? newest_msg_id_ - 4096 : 0;
    for (auto it = udp_msgs_.begin(); it != udp_msgs_.end();) {
      it = it->first < horizon ? udp_msgs_.erase(it) : std::next(it);
    }
  }
}

}  // namespace mflow::stack
