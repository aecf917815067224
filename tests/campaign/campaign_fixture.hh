/**
 * @file
 * Shared scenario and fingerprint for the annual-campaign tests (the
 * runner suite and the serially-run speedup check).
 */

#ifndef BPSIM_TESTS_CAMPAIGN_FIXTURE_HH
#define BPSIM_TESTS_CAMPAIGN_FIXTURE_HH

#include <vector>

#include "campaign/annual_campaign.hh"
#include "core/backup_config.hh"
#include "workload/profile.hh"

namespace bpsim
{

/** Cheap standing scenario for the real-simulation campaigns. */
inline AnnualCampaignSpec
testSpec()
{
    AnnualCampaignSpec spec;
    spec.profile = specJbbProfile();
    spec.nServers = 4;
    spec.technique = {TechniqueKind::Throttle, 5, 0, 0, false};
    spec.config = noDgConfig();
    return spec;
}

/** All deterministic aggregate state, for bitwise comparison. */
inline std::vector<double>
fingerprint(const AnnualCampaignSummary &s)
{
    std::vector<double> v;
    const auto metric = [&v](const MergingMetric &m) {
        v.push_back(static_cast<double>(m.count()));
        v.push_back(m.mean());
        v.push_back(m.variance());
        v.push_back(m.min());
        v.push_back(m.max());
        v.push_back(m.sum().value());
        v.push_back(m.p50());
        v.push_back(m.p95());
        v.push_back(m.p99());
    };
    metric(s.downtimeMin);
    metric(s.lossesPerYear);
    metric(s.meanPerf);
    metric(s.batteryKwh);
    metric(s.worstGapMin);
    v.push_back(static_cast<double>(s.trials));
    v.push_back(static_cast<double>(s.lossFreeTrials));
    v.push_back(s.lossFree.fraction);
    v.push_back(s.lossFree.lo);
    v.push_back(s.lossFree.hi);
    return v;
}

} // namespace bpsim

#endif // BPSIM_TESTS_CAMPAIGN_FIXTURE_HH
