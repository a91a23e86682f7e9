#include "osnt/graph/block.hpp"

#include "osnt/sim/link.hpp"
#include "osnt/telemetry/registry.hpp"

namespace osnt::graph {

Block::Block(sim::Engine& eng, std::string name, std::size_t num_inputs,
             std::size_t num_outputs)
    : eng_(&eng),
      name_(std::move(name)),
      num_in_(num_inputs),
      outs_(num_outputs, nullptr) {
  if (name_.empty()) throw GraphError("graph: block name must not be empty");
  if (telemetry::TraceRecorder* tr = eng_->trace()) {
    track_ = tr->track("graph/" + name_);
    traced_ = true;
  }
}

Block::~Block() {
  if (telemetry::enabled() && frames_in_ + frames_out_ + drops_ > 0) {
    auto& reg = telemetry::registry();
    const std::string prefix = "graph." + name_ + ".";
    reg.counter(prefix + "frames_in").add(frames_in_);
    reg.counter(prefix + "frames_out").add(frames_out_);
    reg.counter(prefix + "drops").add(drops_);
    reg.counter(prefix + "frame_bytes").add(bytes_in_);
  }
}

Picos Block::now() const noexcept { return eng_->now(); }

void Block::emit(std::size_t out_port, net::Packet&& pkt, Picos tx_start,
                 Picos tx_end) {
  if (out_port >= outs_.size() || outs_[out_port] == nullptr) {
    ++drops_;  // dark fiber stub: counted, not fatal
    return;
  }
  ++frames_out_;
  outs_[out_port]->carry(std::move(pkt), tx_start, tx_end);
}

void Block::deliver(std::size_t in_port, net::Packet&& pkt, Picos first_bit,
                    Picos last_bit) {
  ++frames_in_;
  bytes_in_ += pkt.wire_len();
  if (traced_) {
    eng_->trace()->complete(track_, "frame", first_bit, last_bit - first_bit);
  }
  const sim::Engine::CategoryScope cat(*eng_, sim::EventCategory::kDut);
  on_frame(in_port, std::move(pkt), first_bit, last_bit);
}

}  // namespace osnt::graph
