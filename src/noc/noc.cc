#include "noc/noc.h"

#include <algorithm>
#include <cstdio>

#include "support/hostprof.h"
#include "support/logging.h"

namespace sara::noc {

NocModel::NocModel(sim::Scheduler &sched, const NocSpec &spec)
    : sched_(&sched), spec_(spec)
{
    SARA_ASSERT(spec_.linkBuffer >= 1, "NoC link buffer must hold >= 1 flit");
    SARA_ASSERT(spec_.hopLatency >= 1, "NoC hop latency must be >= 1");
}

void
NocModel::registerStream(const dfg::Stream &s)
{
    size_t idx = s.id.index();
    if (streams_.size() <= idx)
        streams_.resize(idx + 1);
    numStreams_ = std::max(numStreams_, static_cast<int>(idx) + 1);
    StreamState &ss = streams_[idx];
    SARA_ASSERT(!ss.registered, "stream registered twice: ", s.name);
    ss.registered = true;
    if (s.route.empty())
        return;
    ss.participates =
        s.kind == dfg::StreamKind::Data || spec_.routeTokens;
    ss.path.reserve(s.route.size());
    for (const auto &rl : s.route) {
        auto [it, inserted] =
            linkIndex_.try_emplace(rl, static_cast<int>(links_.size()));
        if (inserted) {
            links_.emplace_back();
            links_.back().model = this;
            links_.back().where = rl;
            links_.back().idx = it->second;
            char buf[32];
            std::snprintf(buf, sizeof buf, "(%d,%d)%s", rl.x, rl.y,
                          dfg::linkDirName(rl.dir));
            links_.back().site = buf;
        }
        Link &link = links_[it->second];
        link.spaceCv.bind(*sched_);
        ++link.streams;
        ss.path.push_back(it->second);
    }
    // Feeder edges: when a slot frees in link i+1, link i may have a
    // flit that just became eligible and must be re-polled.
    for (size_t i = 0; i + 1 < ss.path.size(); ++i) {
        auto &feeders = links_[ss.path[i + 1]].feeders;
        if (std::find(feeders.begin(), feeders.end(), ss.path[i]) ==
            feeders.end())
            feeders.push_back(ss.path[i]);
    }
}

bool
NocModel::participates(dfg::StreamId id) const
{
    size_t idx = id.index();
    return idx < streams_.size() && streams_[idx].participates;
}

NocModel::Link &
NocModel::firstLink(dfg::StreamId id)
{
    const StreamState &ss = streams_[id.index()];
    SARA_ASSERT(ss.participates, "stream does not ride the NoC");
    return links_[ss.path.front()];
}

const NocModel::Link &
NocModel::firstLink(dfg::StreamId id) const
{
    return const_cast<NocModel *>(this)->firstLink(id);
}

int
NocModel::freeSlots(const Link &link) const
{
    int buf = spec_.linkBuffer;
    if (inj_)
        buf -= std::min(buf,
                        inj_->stuckCredits(link.site, sched_->now()));
    return buf - static_cast<int>(link.q.size()) - link.reserved;
}

bool
NocModel::canAccept(dfg::StreamId id) const
{
    if (!participates(id))
        return true; // Fixed-latency streams are never admission-gated.
    return freeSlots(firstLink(id)) > 0;
}

std::string
NocModel::firstLinkSite(dfg::StreamId id) const
{
    if (!participates(id))
        return "";
    return firstLink(id).site;
}

sim::CondVar &
NocModel::acceptCv(dfg::StreamId id)
{
    return firstLink(id).spaceCv;
}

void
NocModel::inject(dfg::StreamId id, DeliverFn deliver, void *ctx)
{
    injectAt(id, sched_->now(), deliver, ctx);
}

void
NocModel::injectAt(dfg::StreamId id, uint64_t at, DeliverFn deliver,
                   void *ctx)
{
    StreamState &ss = streams_[id.index()];
    SARA_ASSERT(ss.participates, "inject on a stream without a route");
    // Per-stream injection order must match call order even when DRAM
    // response delays differ (in-order streams).
    at = std::max(at, ss.lastInjectAt);
    ss.lastInjectAt = at;
    Flit flit{this, static_cast<int>(id.index()), 0, at, at, deliver, ctx};
    Flit *f;
    if (freeFlits_.empty()) {
        f = &flits_.emplace_back(flit);
    } else {
        f = freeFlits_.back();
        freeFlits_.pop_back();
        *f = flit;
    }
    ++flitsInjected_;
    ++inflight_;
    peakInflight_ = std::max(peakInflight_, inflight_);
    if (at == sched_->now()) {
        sampleLoad();
        enqueue(f, ss.path.front());
    } else {
        sched_->scheduleFnAt(
            [](void *p) {
                Flit *flit = static_cast<Flit *>(p);
                NocModel *m = flit->model;
                m->sampleLoad();
                m->enqueue(
                    flit,
                    m->streams_[flit->stream].path[flit->hop]);
            },
            f, at);
    }
}

void
NocModel::enqueue(Flit *f, int linkIdx)
{
    Link &link = links_[linkIdx];
    f->arrivedAt = sched_->now();
    if (link.q.empty())
        ++busyLinks_;
    link.q.push_back(f);
    link.qHighWater =
        std::max(link.qHighWater, static_cast<uint64_t>(link.q.size()));
    schedulePoll(link, std::max(sched_->now(), link.freeAt));
}

void
NocModel::schedulePoll(Link &link, uint64_t at)
{
    if (link.pollScheduled)
        return;
    link.pollScheduled = true;
    sched_->scheduleFnAt(
        [](void *p) {
            Link *l = static_cast<Link *>(p);
            l->model->poll(*l);
        },
        &link, at);
}

const std::string &
NocModel::linkSite(int idx) const
{
    static const std::string kUnknown = "?";
    if (idx < 0 || static_cast<size_t>(idx) >= links_.size())
        return kUnknown;
    return links_[idx].site;
}

void
NocModel::poll(Link &link)
{
    telemetry::ScopedPhase phase(telemetry::HostPhase::NocArb);
    link.pollScheduled = false;
    uint64_t now = sched_->now();
    if (now < link.freeAt) {
        schedulePoll(link, link.freeAt);
        return;
    }
    if (link.q.empty())
        return;
    // Deterministic round-robin: among queued flits whose next hop has
    // buffer space (the destination FIFO always does), grant the one
    // whose stream id follows the cursor closest in cyclic order; for
    // several flits of that stream, the earliest-queued wins.
    int bestDist = -1;
    size_t bestPos = 0;
    for (size_t i = 0; i < link.q.size(); ++i) {
        const Flit *f = link.q[i];
        const StreamState &ss = streams_[f->stream];
        if (static_cast<size_t>(f->hop) + 1 < ss.path.size()) {
            const Link &next = links_[ss.path[f->hop + 1]];
            if (freeSlots(next) <= 0)
                continue; // Downstream buffer full (or credits stuck).
        }
        int dist = (f->stream - link.rrCursor - 1 + 2 * numStreams_) %
                   numStreams_;
        if (bestDist < 0 || dist < bestDist) {
            bestDist = dist;
            bestPos = i;
        }
    }
    if (bestDist < 0)
        return; // All blocked downstream; feeder re-poll will retry.
    grant(link, bestPos);
    if (!link.q.empty())
        schedulePoll(link, link.freeAt);
}

void
NocModel::grant(Link &link, size_t qPos)
{
    uint64_t now = sched_->now();
    Flit *f = link.q[qPos];
    link.q.erase(link.q.begin() + static_cast<ptrdiff_t>(qPos));
    if (link.q.empty())
        --busyLinks_;
    link.freeAt = now + 1;
    link.rrCursor = f->stream;
    ++link.traversals;
    ++totalHops_;
    if (flight_)
        flight_->record(telemetry::FlightKind::LinkGrant, now, f->stream,
                        link.idx);
    link.waitCycles += now - f->arrivedAt;
    totalQueueCycles_ += now - f->arrivedAt;

    // The vacated slot unblocks producers injecting here and feeder
    // links with flits destined here. One grant frees one slot, so it
    // wakes only the longest-parked producer; the rest would lose the
    // re-check race anyway (thundering herd). Guarded behind
    // hasWaiters so uncontended grants skip scheduler traffic.
    if (link.spaceCv.hasWaiters())
        link.spaceCv.notifyOne();
    for (int fi : link.feeders)
        schedulePoll(links_[fi], now);

    // Injected faults on the granted traversal: extra wire delay,
    // and/or a duplicated crossing (the flit lands back in its own
    // input buffer and must re-arbitrate; it still delivers exactly
    // once, so payload accounting is untouched).
    uint64_t faultDelay = inj_ ? inj_->flitDelay(link.site, now) : 0;
    if (inj_ && !f->duped && inj_->duplicateFlit(link.site, now)) {
        f->duped = true;
        sched_->scheduleFnAt(
            [](void *p) {
                Flit *flit = static_cast<Flit *>(p);
                NocModel *m = flit->model;
                m->enqueue(flit,
                           m->streams_[flit->stream].path[flit->hop]);
            },
            f,
            now + static_cast<uint64_t>(spec_.hopLatency) + faultDelay);
        return;
    }

    const StreamState &ss = streams_[f->stream];
    if (static_cast<size_t>(f->hop) + 1 < ss.path.size()) {
        // Reserve the downstream slot for the duration of the flight.
        Link &next = links_[ss.path[f->hop + 1]];
        ++next.reserved;
        ++f->hop;
        sched_->scheduleFnAt(
            [](void *p) {
                Flit *flit = static_cast<Flit *>(p);
                NocModel *m = flit->model;
                Link &l =
                    m->links_[m->streams_[flit->stream].path[flit->hop]];
                --l.reserved;
                m->enqueue(flit, m->streams_[flit->stream].path[flit->hop]);
            },
            f, now + static_cast<uint64_t>(spec_.hopLatency) + faultDelay);
    } else {
        // Eject: never blocks. The minLatency floor models switch
        // entry/exit, matching the router's scalar estimate on an
        // uncongested path.
        uint64_t at = std::max(
            now + static_cast<uint64_t>(spec_.ejectLatency) + faultDelay,
            f->injectedAt + static_cast<uint64_t>(spec_.minLatency));
        sched_->scheduleFnAt(
            [](void *p) {
                Flit *flit = static_cast<Flit *>(p);
                flit->model->deliverFlit(flit);
            },
            f, at);
    }
}

void
NocModel::deliverFlit(Flit *f)
{
    SARA_ASSERT(inflight_ > 0, "delivery with nothing in flight");
    --inflight_;
    sampleLoad();
    DeliverFn deliver = f->deliver;
    void *ctx = f->ctx;
    freeFlits_.push_back(f);
    deliver(ctx);
}

void
NocModel::sampleLoad()
{
    uint64_t now = sched_->now();
    loadSeries_.sample(now, static_cast<double>(inflight_));
    busySeries_.sample(now, static_cast<double>(busyLinks_));
}

int
NocModel::peakStreamLoad() const
{
    int peak = 0;
    for (const auto &link : links_)
        peak = std::max(peak, link.streams);
    return peak;
}

NocStats
NocModel::stats() const
{
    NocStats s;
    s.enabled = true;
    s.links = static_cast<int>(links_.size());
    s.peakStreamLoad = peakStreamLoad();
    s.flits = flitsInjected_;
    s.hops = totalHops_;
    s.queueCycles = totalQueueCycles_;
    s.peakInflight = peakInflight_;
    s.linkUse.reserve(links_.size());
    // linkIndex_ iterates in (x, y, dir) order — deterministic output.
    for (const auto &[where, idx] : linkIndex_) {
        const Link &link = links_[idx];
        s.linkUse.push_back({where, link.streams, link.traversals,
                             link.waitCycles, link.qHighWater});
    }
    return s;
}

} // namespace sara::noc
