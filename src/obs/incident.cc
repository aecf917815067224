#include "obs/incident.hh"

#include <algorithm>

#include "campaign/json.hh"
#include "sim/logging.hh"

namespace bpsim
{
namespace obs
{

namespace
{

/**
 * Replay state for one trial. The engine walks the trial's events in
 * seq order (sim time is non-decreasing within a trial) integrating
 * (1 - availability) between consecutive timestamps and bucketing
 * each interval by the prevailing cause.
 */
struct TrialReplay
{
    std::vector<Incident> incidents;
    TrialForensics trial;

    /** Step-function state. */
    Time lastT = 0;
    double avail = 1.0;
    bool dark = false;
    RootCause darkCause = RootCause::CapacityShortfall;
    /** Index of the incident whose window is open; -1 when none. */
    std::ptrdiff_t open = -1;

    Incident *
    openIncident()
    {
        return open < 0 ? nullptr : &incidents[static_cast<std::size_t>(
                                        open)];
    }

    /** Integrate [lastT, t) into the prevailing cause bucket. */
    void
    advanceTo(Time t)
    {
        if (t <= lastT)
            return;
        const Time dt = t - lastT;
        lastT = t;
        Incident *inc = openIncident();
        if (dark && inc)
            inc->darkTime += dt;
        if (avail >= 1.0)
            return;
        const double min = (1.0 - avail) * toMinutes(dt);
        charge(min);
    }

    /** Add @p min of unavailability to the prevailing cause. */
    void
    charge(double min)
    {
        RootCause cause = RootCause::Unattributed;
        Incident *inc = openIncident();
        if (dark)
            cause = darkCause;
        else if (inc)
            cause = RootCause::TechniqueTransitionGap;
        const auto c = static_cast<std::size_t>(cause);
        if (inc)
            inc->attributedMin[c] += min;
        trial.attributedMin[c] += min;
    }

    /** Why is the floor dark, given what this incident saw so far? */
    RootCause
    classifyDark() const
    {
        const Incident *inc =
            open < 0 ? nullptr
                     : &incidents[static_cast<std::size_t>(open)];
        if (inc && inc->dgStartFailures > 0)
            return RootCause::DgStartFailure;
        if (inc && inc->dgStarts > 0 && !inc->dgCarried)
            return RootCause::UpsExhaustedBeforeDg;
        return RootCause::CapacityShortfall;
    }

    /** Close the open incident's attribution window at @p t. */
    void
    closeWindow(Time t)
    {
        Incident *inc = openIncident();
        if (!inc)
            return;
        inc->windowEnd = t;
        if (inc->outageEnd == kTimeNever)
            inc->truncated = true;
        open = -1;
    }

    void
    consume(const TraceEvent &ev)
    {
        advanceTo(ev.simTime);
        switch (ev.kind) {
          case EventKind::OutageStart: {
            // A new episode: the previous one's recovery tail (if any
            // window is still open) ends here.
            closeWindow(ev.simTime);
            Incident inc;
            inc.trial = ev.trial;
            inc.id = ev.incident != 0
                         ? ev.incident
                         : static_cast<std::uint32_t>(
                               incidents.size() + 1);
            inc.outageStart = ev.simTime;
            inc.loadW = ev.a;
            incidents.push_back(inc);
            open = static_cast<std::ptrdiff_t>(incidents.size()) - 1;
            break;
          }
          case EventKind::OutageEnd:
            if (Incident *inc = openIncident())
                inc->outageEnd = ev.simTime;
            dark = false; // restoration re-powers the floor
            break;
          case EventKind::UpsDischarge:
            if (Incident *inc = openIncident())
                inc->upsDischarged = true;
            break;
          case EventKind::BackupDepleted:
            if (Incident *inc = openIncident())
                inc->backupDepleted = true;
            break;
          case EventKind::DgStart:
            if (Incident *inc = openIncident())
                ++inc->dgStarts;
            break;
          case EventKind::DgStartFailed:
            if (Incident *inc = openIncident())
                ++inc->dgStartFailures;
            break;
          case EventKind::DgCarrying:
            if (Incident *inc = openIncident())
                inc->dgCarried = true;
            dark = false; // the DG re-energizes a dead floor
            break;
          case EventKind::PowerLost: {
            if (open < 0) {
                // Defensive: a loss outside any outage (malformed or
                // hand-built stream). Synthesize an episode so the
                // time still lands in a window; the health engine
                // flags the pairing violation separately.
                Incident inc;
                inc.trial = ev.trial;
                inc.id = ev.incident != 0
                             ? ev.incident
                             : static_cast<std::uint32_t>(
                                   incidents.size() + 1);
                inc.outageStart = ev.simTime;
                inc.loadW = ev.a;
                incidents.push_back(inc);
                open =
                    static_cast<std::ptrdiff_t>(incidents.size()) - 1;
            }
            Incident *inc = openIncident();
            ++inc->powerLosses;
            inc->firstPowerLostAt =
                std::min(inc->firstPowerLostAt, ev.simTime);
            darkCause = classifyDark();
            dark = true;
            break;
          }
          case EventKind::Availability:
            avail = ev.a;
            break;
          case EventKind::Recompute:
            // Recompute debt is charged the instant work is lost and
            // lands in the bucket that caused the loss.
            charge(ev.a / 60.0);
            break;
          case EventKind::TrialEnd:
            trial.reportedDowntimeMin = ev.a;
            trial.hasTrialEnd = true;
            closeWindow(ev.simTime);
            break;
          default:
            break; // phases/SoC/etc. shape nothing directly
        }
    }

    /** Finish the trial: close any window at the last seen time. */
    void
    finish()
    {
        closeWindow(lastT);
        trial.incidents =
            static_cast<std::uint32_t>(incidents.size());
    }
};

} // namespace

const char *
rootCauseName(RootCause cause)
{
    switch (cause) {
      case RootCause::UpsExhaustedBeforeDg:
        return "ups-exhausted-before-dg";
      case RootCause::DgStartFailure:
        return "dg-start-failure";
      case RootCause::TechniqueTransitionGap:
        return "technique-transition-gap";
      case RootCause::CapacityShortfall:
        return "capacity-shortfall";
      case RootCause::Unattributed:
        return "unattributed";
    }
    return "unknown";
}

double
Incident::downtimeMin() const
{
    double total = 0.0;
    for (const double m : attributedMin)
        total += m;
    return total;
}

RootCause
Incident::primaryCause() const
{
    std::size_t best = static_cast<std::size_t>(RootCause::Unattributed);
    double best_min = 0.0;
    for (std::size_t c = 0; c < kRootCauseCount; ++c)
        if (attributedMin[c] > best_min) {
            best = c;
            best_min = attributedMin[c];
        }
    return static_cast<RootCause>(best);
}

double
TrialForensics::attributedTotalMin() const
{
    double total = 0.0;
    for (const double m : attributedMin)
        total += m;
    return total;
}

double
TrialForensics::residualMin() const
{
    return reportedDowntimeMin - attributedTotalMin();
}

void
IncidentAggregate::addIncident(const Incident &inc)
{
    ++incidents_;
    if (inc.truncated)
        ++truncated_;
    if (inc.powerLosses > 0)
        ++lossIncidents_;
    ++byPrimary_[static_cast<std::size_t>(inc.primaryCause())];
}

void
IncidentAggregate::addTrial(const TrialForensics &t)
{
    ++trials_;
    for (std::size_t c = 0; c < kRootCauseCount; ++c)
        minutes_[c].add(t.attributedMin[c]);
    reported_.add(t.reportedDowntimeMin);
}

void
IncidentAggregate::merge(const IncidentAggregate &other)
{
    trials_ += other.trials_;
    incidents_ += other.incidents_;
    truncated_ += other.truncated_;
    lossIncidents_ += other.lossIncidents_;
    for (std::size_t c = 0; c < kRootCauseCount; ++c) {
        byPrimary_[c] += other.byPrimary_[c];
        minutes_[c].merge(other.minutes_[c]);
    }
    reported_.merge(other.reported_);
}

bool
IncidentAggregate::empty() const
{
    return trials_ == 0 && incidents_ == 0;
}

std::uint64_t
IncidentAggregate::incidentsByPrimaryCause(RootCause cause) const
{
    return byPrimary_[static_cast<std::size_t>(cause)];
}

double
IncidentAggregate::attributedMin(RootCause cause) const
{
    return minutes_[static_cast<std::size_t>(cause)].value();
}

double
IncidentAggregate::attributedTotalMin() const
{
    ExactSum total;
    for (const ExactSum &m : minutes_)
        total.merge(m);
    return total.value();
}

void
IncidentAggregate::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.field("trials", trials_);
    w.field("incidents", incidents_);
    w.field("truncated", truncated_);
    w.field("loss_incidents", lossIncidents_);
    w.key("reported_min");
    reported_.writeJson(w);
    w.key("by_cause").beginObject();
    for (std::size_t c = 0; c < kRootCauseCount; ++c) {
        w.key(rootCauseName(static_cast<RootCause>(c))).beginObject();
        w.field("primary", byPrimary_[c]);
        w.key("min");
        minutes_[c].writeJson(w);
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

std::optional<IncidentAggregate>
IncidentAggregate::fromJson(const JsonValue &v)
{
    IncidentAggregate a;
    const JsonValue *reported = v.find("reported_min");
    const JsonValue *causes = v.find("by_cause");
    if (!jsonUint(v, "trials", a.trials_) ||
        !jsonUint(v, "incidents", a.incidents_) ||
        !jsonUint(v, "truncated", a.truncated_) ||
        !jsonUint(v, "loss_incidents", a.lossIncidents_) || !reported ||
        !causes)
        return std::nullopt;
    auto reported_min = ExactSum::fromJson(*reported);
    if (!reported_min)
        return std::nullopt;
    a.reported_ = *reported_min;
    for (std::size_t c = 0; c < kRootCauseCount; ++c) {
        const JsonValue *e =
            causes->find(rootCauseName(static_cast<RootCause>(c)));
        const JsonValue *min = e ? e->find("min") : nullptr;
        auto minutes = min ? ExactSum::fromJson(*min) : std::nullopt;
        if (!minutes || !jsonUint(*e, "primary", a.byPrimary_[c]))
            return std::nullopt;
        a.minutes_[c] = *minutes;
    }
    return a;
}

IncidentReport
buildIncidentReport(const std::vector<TraceEvent> &events)
{
    IncidentReport report;
    std::size_t i = 0;
    while (i < events.size()) {
        const std::uint64_t trial = events[i].trial;
        TrialReplay replay;
        replay.trial.trial = trial;
        for (; i < events.size() && events[i].trial == trial; ++i)
            replay.consume(events[i]);
        replay.finish();
        report.aggregate.addTrial(replay.trial);
        for (const Incident &inc : replay.incidents)
            report.aggregate.addIncident(inc);
        report.trials.push_back(replay.trial);
        report.incidents.insert(report.incidents.end(),
                                replay.incidents.begin(),
                                replay.incidents.end());
    }
    return report;
}

} // namespace obs
} // namespace bpsim
