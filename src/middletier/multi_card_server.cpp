#include "middletier/multi_card_server.h"

#include <string>
#include <utility>

#include "common/check.h"
#include "common/logging.h"

namespace smartds::middletier {

MultiCardSmartDsServer::MultiCardSmartDsServer(net::Fabric &fabric,
                                               mem::MemorySystem &memory,
                                               ServerConfig config,
                                               MultiCardConfig multi)
    : multi_(multi)
{
    SMARTDS_CHECK(multi.cards >= 1, "need at least one card");
    SMARTDS_CHECK(multi.cardsPerSwitch >= 1, "cards per switch >= 1");

    const unsigned n_switches =
        (multi.cards + multi.cardsPerSwitch - 1) / multi.cardsPerSwitch;
    for (unsigned s = 0; s < n_switches; ++s) {
        switches_.push_back(std::make_unique<pcie::PcieSwitch>(
            fabric.simulator(), "pcie-switch" + std::to_string(s)));
    }

    for (unsigned c = 0; c < multi.cards; ++c) {
        auto card_config = multi.card;
        auto &pcie_switch = *switches_[c / multi.cardsPerSwitch];
        // Each card's header DMA additionally crosses its switch's
        // shared root port.
        card_config.device.h2dTail = {&pcie_switch.root().h2d()};
        card_config.device.d2hTail = {&pcie_switch.root().d2h()};
        cards_.push_back(std::make_unique<SmartDsServer>(
            fabric, memory, config, card_config));
    }
}

unsigned
MultiCardSmartDsServer::frontPorts() const
{
    return static_cast<unsigned>(cards_.size()) * multi_.card.ports;
}

net::NodeId
MultiCardSmartDsServer::frontNode(unsigned port) const
{
    SMARTDS_CHECK(port < frontPorts(), "port index out of range");
    return cards_[port / multi_.card.ports]->frontNode(
        port % multi_.card.ports);
}

net::QpId
MultiCardSmartDsServer::frontQp(unsigned port) const
{
    SMARTDS_CHECK(port < frontPorts(), "port index out of range");
    return cards_[port / multi_.card.ports]->frontQp(
        port % multi_.card.ports);
}

void
MultiCardSmartDsServer::addUsageProbes(UsageProbes &probes)
{
    // The host's counters are its cards' counters, summed by name.
    std::vector<UsageProbes> per_card(cards_.size());
    for (std::size_t c = 0; c < cards_.size(); ++c)
        cards_[c]->addUsageProbes(per_card[c]);
    for (std::size_t i = 0; i < per_card.front().probes.size(); ++i) {
        probes.add(per_card.front().probes[i].name, [per_card, i]() {
            double bytes = 0.0;
            for (const UsageProbes &card : per_card)
                bytes += card.probes[i].cumulativeBytes();
            return bytes;
        });
    }
    for (std::size_t s = 0; s < switches_.size(); ++s) {
        auto *sw = switches_[s].get();
        probes.add("pcie.switch" + std::to_string(s) + ".root",
                   [sw]() {
                       return static_cast<double>(
                           sw->root().h2d().totalBytes() +
                           sw->root().d2h().totalBytes());
                   });
    }
}

std::uint64_t
MultiCardSmartDsServer::totalRequestsCompleted() const
{
    std::uint64_t n = 0;
    for (const auto &card : cards_)
        n += card->requestsCompleted();
    return n;
}

Bytes
MultiCardSmartDsServer::totalPayloadBytesServed() const
{
    Bytes n = 0;
    for (const auto &card : cards_)
        n += card->payloadBytesServed();
    return n;
}

FailoverStats
MultiCardSmartDsServer::failoverStats() const
{
    FailoverStats total;
    for (const auto &card : cards_)
        total += card->failoverStats();
    return total;
}

HotBlockCache::Stats
MultiCardSmartDsServer::readCacheStats() const
{
    HotBlockCache::Stats total;
    for (const auto &card : cards_)
        total += card->readCacheStats();
    return total;
}

void
MultiCardSmartDsServer::setMaintenanceService(MaintenanceService *m)
{
    MiddleTierServer::setMaintenanceService(m);
    for (auto &card : cards_)
        card->setMaintenanceService(m);
}

} // namespace smartds::middletier
