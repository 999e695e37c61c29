#include "dhl/nf/dhl_nf.hpp"

#include "dhl/common/check.hpp"

namespace dhl::nf {

using netio::Mbuf;

DhlOffloadNf::DhlOffloadNf(sim::Simulator& simulator, DhlNfConfig config,
                           std::vector<netio::NicPort*> ports,
                           runtime::DhlRuntime& runtime, PacketFn prep,
                           CostFn prep_cost, PacketFn post, CostFn post_cost)
    : sim_{simulator},
      config_{std::move(config)},
      ports_{std::move(ports)},
      runtime_{runtime},
      prep_{std::move(prep)},
      prep_cost_{std::move(prep_cost)},
      post_{std::move(post)},
      post_cost_{std::move(post_cost)} {
  DHL_CHECK(!ports_.empty());
  burst_.resize(config_.io_burst);

  // --- the Listing 2 sequence ---
  nf_id_ = DHL_register(runtime_, config_.name, config_.socket,
                        config_.tenant);
  handle_ = DHL_search_by_name(runtime_, config_.hf_name, config_.socket);
  DHL_CHECK_MSG(handle_.valid(),
                "hardware function '" << config_.hf_name << "' unavailable");
  DHL_acc_configure(runtime_, handle_, config_.acc_config);
  ibq_ = DHL_get_shared_IBQ(runtime_, nf_id_);
  obq_ = DHL_get_private_OBQ(runtime_, nf_id_);

  const Frequency clock = config_.timing.cpu.core_clock;
  const std::size_t num_ingress =
      config_.split_ingress_egress ? 1 : ports_.size();
  for (std::size_t i = 0; i < num_ingress; ++i) {
    auto core = std::make_unique<sim::Lcore>(
        sim_, config_.name + ".in" + std::to_string(i), clock, config_.socket);
    core->set_idle_poll_cycles(config_.timing.cpu.idle_poll_cycles);
    cores_.push_back(std::move(core));
  }
  if (config_.split_ingress_egress) {
    auto core = std::make_unique<sim::Lcore>(sim_, config_.name + ".out",
                                             clock, config_.socket);
    core->set_idle_poll_cycles(config_.timing.cpu.idle_poll_cycles);
    cores_.push_back(std::move(core));
  }

  // Wire poll functions.  In per-port mode, core 0 runs ingress for port 0
  // *and* egress (the OBQ is single-consumer).
  for (std::size_t i = 0; i < num_ingress; ++i) {
    sim::Lcore* core = cores_[i].get();
    const bool also_egress = !config_.split_ingress_egress && i == 0;
    core->set_poll([this, i, also_egress](sim::Lcore&) {
      sim::PollResult r = ingress_poll(i);
      if (also_egress) {
        const sim::PollResult e = egress_poll();
        r.cycles += e.cycles;
        r.park = r.park && e.park;
      }
      return r;
    });
  }
  if (config_.split_ingress_egress) {
    cores_.back()->set_poll([this](sim::Lcore&) { return egress_poll(); });
  }
}

void DhlOffloadNf::start() {
  for (auto& c : cores_) c->start();
}
void DhlOffloadNf::stop() {
  for (auto& c : cores_) c->stop();
}

std::vector<sim::Lcore*> DhlOffloadNf::cores() {
  std::vector<sim::Lcore*> out;
  for (auto& c : cores_) out.push_back(c.get());
  return out;
}

netio::NicPort* DhlOffloadNf::port_by_id(std::uint16_t port_id) {
  for (netio::NicPort* p : ports_) {
    if (p->port_id() == port_id) return p;
  }
  return nullptr;
}

sim::PollResult DhlOffloadNf::ingress_poll(std::size_t core_index) {
  const auto& cpu = config_.timing.cpu;
  double cycles = 0;
  std::vector<Mbuf*>& pkts = burst_;

  // Split mode: the single ingress core serves every port; per-port mode:
  // this core serves its own port.
  const std::size_t first = config_.split_ingress_egress ? 0 : core_index;
  const std::size_t count = config_.split_ingress_egress ? ports_.size() : 1;

  bool idle = true;
  for (std::size_t p = first; p < first + count; ++p) {
    netio::NicPort* port = ports_[p];
    const std::size_t n = port->rx_burst(pkts.data(), pkts.size());
    if (n == 0) continue;
    idle = false;
    stats_.rx_pkts += n;
    cycles += cpu.nic_rxtx_fixed_cycles +
              cpu.nic_rxtx_per_pkt_cycles * static_cast<double>(n);

    std::size_t out = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Mbuf* m = pkts[i];
      cycles += prep_cost_(*m);
      switch (prep_(*m)) {
        case Verdict::kForward:
          // Tag with the (nf_id, acc_id) pair (Listing 2 lines 5-8).
          m->set_nf_id(nf_id_);
          m->set_acc_id(handle_.acc_id);
          pkts[out++] = m;
          break;
        case Verdict::kBypass: {
          // No deep processing needed: transmit in the clear.
          netio::NicPort* tx = port_by_id(m->port());
          if (tx == nullptr) {
            ++stats_.bad_port_drops;
            m->release();
            break;
          }
          cycles += cpu.nic_rxtx_per_pkt_cycles;
          tx->tx_burst(&m, 1);
          ++stats_.tx_pkts;
          break;
        }
        case Verdict::kDrop:
          ++stats_.prep_drops;
          m->release();
          break;
      }
    }
    if (out > 0) {
      cycles += cpu.ring_op_fixed_cycles +
                cpu.ring_op_per_pkt_cycles * static_cast<double>(out);
      // Packets reach the shared IBQ once this iteration's cycles have
      // elapsed (prep time is part of their latency).
      std::vector<Mbuf*> batch(pkts.begin(),
                               pkts.begin() + static_cast<std::ptrdiff_t>(out));
      sim_.schedule_after(config_.timing.cpu.core_clock.cycles(cycles),
                          [this, batch = std::move(batch)]() mutable {
                            const std::size_t sent = DHL_send_packets(
                                runtime_, nf_id_, batch.data(), batch.size());
                            stats_.sent_to_fpga += sent;
                            for (std::size_t i = sent; i < batch.size(); ++i) {
                              ++stats_.ibq_drops;
                              batch[i]->release();
                            }
                          });
    }
  }
  if (idle) {
    for (std::size_t p = first; p < first + count; ++p) {
      sim_.arm(ports_[p]->rx_doorbell());
    }
    return sim::PollResult::parked();
  }
  return {cycles, false};
}

sim::PollResult DhlOffloadNf::egress_poll() {
  const auto& cpu = config_.timing.cpu;
  double cycles = 0;
  std::vector<Mbuf*>& pkts = burst_;
  const std::size_t n = DHL_receive_packets(*obq_, pkts.data(), pkts.size());
  if (n == 0) {
    sim_.arm(obq_->doorbell());
    return sim::PollResult::parked();
  }
  stats_.received += n;
  cycles += cpu.ring_op_fixed_cycles +
            cpu.ring_op_per_pkt_cycles * static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    Mbuf* m = pkts[i];
    cycles += post_cost_(*m);
    if (post_(*m) != Verdict::kDrop) {
      netio::NicPort* port = port_by_id(m->port());
      if (port == nullptr) {
        ++stats_.bad_port_drops;
        m->release();
        continue;
      }
      cycles += cpu.nic_rxtx_per_pkt_cycles;
      sim_.schedule_after(config_.timing.cpu.core_clock.cycles(cycles),
                          [this, port, m] {
                            Mbuf* pkt = m;
                            port->tx_burst(&pkt, 1);
                            ++stats_.tx_pkts;
                          });
    } else {
      ++stats_.post_drops;
      m->release();
    }
  }
  cycles += cpu.nic_rxtx_fixed_cycles;
  return {cycles, false};
}

}  // namespace dhl::nf
