#include "obs/metrics.h"

#include <cstdlib>
#include <cstring>
#include <sstream>

#include "harness/json_write.h"

namespace rnr {
namespace obs {

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry registry;
    return registry;
}

bool
MetricsRegistry::enabled()
{
    static const bool on = [] {
        const char *p = std::getenv("RNR_METRICS");
        return !(p && std::strcmp(p, "0") == 0);
    }();
    return on;
}

Counter *
MetricsRegistry::counter(const std::string &name)
{
    if (!enabled())
        return nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return slot.get();
}

Gauge *
MetricsRegistry::gauge(const std::string &name)
{
    if (!enabled())
        return nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return slot.get();
}

Histogram *
MetricsRegistry::histogram(const std::string &name)
{
    if (!enabled())
        return nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return slot.get();
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> lock(mu_);
    snap.counters.reserve(counters_.size());
    for (const auto &[name, c] : counters_)
        snap.counters.emplace_back(name, c->value());
    snap.gauges.reserve(gauges_.size());
    for (const auto &[name, g] : gauges_)
        snap.gauges.emplace_back(name, g->value());
    snap.histograms.reserve(histograms_.size());
    for (const auto &[name, h] : histograms_) {
        MetricsSnapshot::Hist hs;
        hs.name = name;
        hs.count = h->count();
        hs.sum = h->sum();
        unsigned last = 0;
        std::array<std::uint64_t, Histogram::kBuckets> counts{};
        for (unsigned i = 0; i < Histogram::kBuckets; ++i) {
            counts[i] = h->bucketCount(i);
            if (counts[i] != 0)
                last = i;
        }
        for (unsigned i = 0; i <= last; ++i)
            hs.buckets.emplace_back(Histogram::bucketUpperBound(i),
                                    counts[i]);
        snap.histograms.push_back(std::move(hs));
    }
    return snap;
}

void
MetricsRegistry::resetForTest()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &[name, c] : counters_)
        c->v_.store(0, std::memory_order_relaxed);
    for (auto &[name, g] : gauges_)
        g->v_.store(0, std::memory_order_relaxed);
    for (auto &[name, h] : histograms_)
        h->resetForTest();
}

std::string
metricsJson()
{
    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    std::ostringstream os;
    os << "{\"schema\": \"rnr-metrics-v1\", \"counters\": {";
    for (std::size_t i = 0; i < snap.counters.size(); ++i) {
        if (i > 0)
            os << ", ";
        os << jsonQuote(snap.counters[i].first) << ": "
           << jsonU64(snap.counters[i].second);
    }
    os << "}, \"gauges\": {";
    for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
        if (i > 0)
            os << ", ";
        os << jsonQuote(snap.gauges[i].first) << ": "
           << snap.gauges[i].second;
    }
    os << "}, \"histograms\": {";
    for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
        const MetricsSnapshot::Hist &h = snap.histograms[i];
        if (i > 0)
            os << ", ";
        os << jsonQuote(h.name) << ": {\"count\": " << jsonU64(h.count)
           << ", \"sum\": " << jsonU64(h.sum) << ", \"buckets\": [";
        for (std::size_t b = 0; b < h.buckets.size(); ++b) {
            if (b > 0)
                os << ", ";
            os << "[" << jsonU64(h.buckets[b].first) << ", "
               << jsonU64(h.buckets[b].second) << "]";
        }
        os << "]}";
    }
    os << "}}";
    return os.str();
}

} // namespace obs
} // namespace rnr
