#include "noc/noc.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "support/hostprof.h"
#include "support/logging.h"

namespace sara::noc {

NocModel::NocModel(sim::Scheduler &sched, const NocSpec &spec)
    : sched_(&sched), spec_(spec)
{
    SARA_ASSERT(spec_.hopLatency >= 1, "NoC hop latency must be >= 1");
    // An admitted flit's element is pushed later in its admission
    // cycle, so the flit may eject no earlier than the next cycle.
    SARA_ASSERT(spec_.minLatency >= 1, "NoC min latency must be >= 1");
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
    SARA_ASSERT(rankOf_.empty(), "stream registered after the first flit");
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
            links_.back().where = rl;
            links_.back().idx = it->second;
            char buf[32];
            std::snprintf(buf, sizeof buf, "(%d,%d)%s", rl.x, rl.y,
                          dfg::linkDirName(rl.dir));
            links_.back().site = buf;
        }
        ++links_[it->second].streams;
        ss.path.push_back(it->second);
    }
    for (size_t i = 0; i + 1 < ss.path.size(); ++i) {
        auto &up = links_[ss.path[i + 1]].upstream;
        if (std::find(up.begin(), up.end(), ss.path[i]) == up.end())
            up.push_back(ss.path[i]);
    }
}

bool
NocModel::participates(dfg::StreamId id) const
{
    size_t idx = id.index();
    return idx < streams_.size() && streams_[idx].participates;
}

int
NocModel::freeSlots(const Link &link) const
{
    int buf = kLinkBuffer;
    if (inj_)
        buf -= std::min(buf,
                        inj_->stuckCredits(link.site, sched_->now()));
    return buf - static_cast<int>(link.q.size()) - link.reserved;
}

std::string
NocModel::firstLinkSite(dfg::StreamId id) const
{
    if (!participates(id))
        return "";
    return links_[streams_[id.index()].path.front()].site;
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
NocModel::rankLinks()
{
    // Depth-first post-order over the upstream edges emits every link
    // after all links upstream of it; reversed, downstream comes first.
    // Turn-free X-Y routes admit no cycle; a grey link reached again
    // would be one.
    enum : uint8_t { White, Grey, Black };
    std::vector<uint8_t> color(links_.size(), White);
    byRank_.clear();
    auto visit = [&](auto &self, int li) -> void {
        color[li] = Grey;
        for (int u : links_[li].upstream) {
            SARA_ASSERT(color[u] != Grey, "NoC routes form a cycle at ",
                        links_[u].site);
            if (color[u] == White)
                self(self, u);
        }
        color[li] = Black;
        byRank_.push_back(li);
    };
    for (size_t li = 0; li < links_.size(); ++li)
        if (color[li] == White)
            visit(visit, static_cast<int>(li));
    std::reverse(byRank_.begin(), byRank_.end());
    rankOf_.assign(links_.size(), 0);
    for (size_t r = 0; r < byRank_.size(); ++r)
        rankOf_[byRank_[r]] = static_cast<int>(r);
    active_.assign((links_.size() + 63) / 64, 0);
}

void
NocModel::setActive(const Link &link)
{
    if (rankOf_.size() != links_.size())
        rankLinks();
    const int r = rankOf_[link.idx];
    active_[r / 64] |= uint64_t{1} << (r % 64);
}

NocModel::Flit *
NocModel::newFlit(int stream, uint64_t at, DeliverFn deliver, void *ctx)
{
    Flit flit{this, stream, 0, at, at, deliver, ctx};
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
    return f;
}

void
NocModel::stage(dfg::StreamId id, DeliverFn deliver, void *ctx,
                sim::Scheduler::EventFn wake, void *wakeArg)
{
    StreamState &ss = streams_[id.index()];
    SARA_ASSERT(ss.participates, "stage on a stream without a route");
    SARA_ASSERT(!ss.wake, "second staged request on one stream");
    // A staged flit enters now, so it must not overtake a delayed
    // injection of its own stream.
    SARA_ASSERT(ss.lastInjectAt <= sched_->now(),
                "staged flit would overtake a delayed injection");
    ss.deliver = deliver;
    ss.ctx = ctx;
    ss.wake = wake;
    ss.wakeArg = wakeArg;
    Link &link = links_[ss.path.front()];
    link.staged.push_back(static_cast<int>(id.index()));
    ++stagedCount_;
    setActive(link);
    arm();
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
    Flit *f = newFlit(static_cast<int>(id.index()), at, deliver, ctx);
    if (at == sched_->now()) {
        arrive(f);
        return;
    }
    sched_->scheduleFnAt(
        [](void *p) {
            Flit *flit = static_cast<Flit *>(p);
            flit->model->arrive(flit);
        },
        f, at);
}

void
NocModel::enqueue(Flit *f)
{
    const std::vector<int> &path = streams_[f->stream].path;
    Link &link = links_[path[f->hop]];
    if (static_cast<size_t>(f->hop) + 1 < path.size()) {
        Link &next = links_[path[f->hop + 1]];
        ++next.incoming;
        setActive(next);
    }
    f->arrivedAt = sched_->now();
    if (link.q.empty())
        ++busyLinks_;
    link.q.push_back(f);
    link.qHighWater =
        std::max(link.qHighWater, static_cast<uint64_t>(link.q.size()));
    setActive(link);
}

void
NocModel::arrive(Flit *f)
{
    sampleLoad();
    enqueue(f);
    arm();
}

void
NocModel::arm()
{
    if (!armed_) {
        armed_ = true;
        sched_->atCycleEnd(&NocModel::passTrampoline, this);
    }
}

void
NocModel::passTrampoline(void *arg)
{
    static_cast<NocModel *>(arg)->pass();
}

void
NocModel::pass()
{
    telemetry::ScopedPhase phase(telemetry::HostPhase::NocArb);
    armed_ = false;
    ++passNo_;
    const uint64_t now = sched_->now();
    bool moved = false;
    for (size_t w = 0; w < active_.size(); ++w) {
        for (uint64_t bits = active_[w]; bits; bits &= bits - 1) {
            const int r = static_cast<int>(w * 64) + std::countr_zero(bits);
            Link &link = links_[byRank_[r]];
            moved |= tryGrant(link);
            // An admitted flit may still cross the link this cycle when
            // the link has not granted yet.
            if (receive(link)) {
                moved = true;
                tryGrant(link);
            }
            if (link.q.empty() && link.staged.empty() && !link.incoming)
                active_[w] &= ~(uint64_t{1} << (r % 64));
        }
    }
    // One tick per busy cycle. A pass that moved nothing leaves the
    // network as it found it, so it stays frozen until an arrival or a
    // staged request arms the pass again.
    if (moved && (busyLinks_ > 0 || stagedCount_ > 0) &&
        tickAt_ != now + 1) {
        tickAt_ = now + 1;
        sched_->scheduleFnAt(
            [](void *p) { static_cast<NocModel *>(p)->arm(); }, this,
            now + 1);
    }
}

bool
NocModel::receive(Link &link)
{
    if (link.staged.empty() && !link.incoming)
        return false; // Nothing waits to enter.
    const uint64_t now = sched_->now();
    link.accepted.clear();
    link.acceptedIn = passNo_;
    int free = freeSlots(link);
    if (free <= 0)
        return false;
    // Candidates: staged requests here and, once per stream, the flits
    // queued at upstream links that may grant this cycle.
    entrants_.assign(link.staged.begin(), link.staged.end());
    for (int ui : link.upstream) {
        const Link &up = links_[ui];
        if (up.freeAt > now)
            continue;
        for (const Flit *f : up.q) {
            const std::vector<int> &path = streams_[f->stream].path;
            if (static_cast<size_t>(f->hop) + 1 < path.size() &&
                path[f->hop + 1] == link.idx &&
                std::find(entrants_.begin(), entrants_.end(), f->stream) ==
                    entrants_.end())
                entrants_.push_back(f->stream);
        }
    }
    bool admitted = false;
    while (free > 0 && !entrants_.empty()) {
        // Round-robin: the stream id following the cursor closest in
        // cyclic order enters next.
        size_t best = 0;
        int bestDist = numStreams_;
        for (size_t i = 0; i < entrants_.size(); ++i) {
            const int dist = rrDistance(entrants_[i], link.inCursor);
            if (dist < bestDist) {
                bestDist = dist;
                best = i;
            }
        }
        const int sid = entrants_[best];
        entrants_[best] = entrants_.back();
        entrants_.pop_back();
        link.inCursor = sid;
        --free;
        StreamState &ss = streams_[sid];
        if (ss.path.front() != link.idx) {
            link.accepted.push_back(sid); // Holds the slot for upstream.
            continue;
        }
        link.staged.erase(
            std::find(link.staged.begin(), link.staged.end(), sid));
        --stagedCount_;
        ss.lastInjectAt = now;
        sampleLoad();
        enqueue(newFlit(sid, now, ss.deliver, ss.ctx));
        sched_->scheduleFnAt(ss.wake, ss.wakeArg, now);
        ss.wake = nullptr;
        admitted = true;
    }
    return admitted;
}

bool
NocModel::takes(const Link &next, int s) const
{
    if (next.acceptedIn != passNo_)
        return freeSlots(next) > 0;
    return std::find(next.accepted.begin(), next.accepted.end(), s) !=
               next.accepted.end() ||
           freeSlots(next) > static_cast<int>(next.accepted.size());
}

bool
NocModel::tryGrant(Link &link)
{
    if (link.q.empty() || link.freeAt > sched_->now())
        return false;
    // Deterministic round-robin: among queued flits that eject or that
    // their next link takes in, grant the one whose stream id follows
    // the cursor closest in cyclic order; for several flits of that
    // stream, the earliest-queued wins.
    int bestDist = -1;
    size_t bestPos = 0;
    for (size_t i = 0; i < link.q.size(); ++i) {
        const Flit *f = link.q[i];
        const int dist = rrDistance(f->stream, link.rrCursor);
        if (bestDist >= 0 && dist >= bestDist)
            continue;
        const StreamState &ss = streams_[f->stream];
        if (static_cast<size_t>(f->hop) + 1 < ss.path.size() &&
            !takes(links_[ss.path[f->hop + 1]], f->stream))
            continue; // Its next link has no slot for it.
        bestDist = dist;
        bestPos = i;
    }
    if (bestDist < 0)
        return false;
    grant(link, bestPos);
    return true;
}

void
NocModel::grant(Link &link, size_t qPos)
{
    uint64_t now = sched_->now();
    Flit *f = link.q[qPos];
    link.q.erase(link.q.begin() + static_cast<ptrdiff_t>(qPos));
    const StreamState &ss = streams_[f->stream];
    Link *next = static_cast<size_t>(f->hop) + 1 < ss.path.size()
                     ? &links_[ss.path[f->hop + 1]]
                     : nullptr;
    if (next) {
        --next->incoming;
        // A slot the next link held for this stream is used now.
        auto it = std::find(next->accepted.begin(), next->accepted.end(),
                            f->stream);
        if (next->acceptedIn == passNo_ && it != next->accepted.end())
            next->accepted.erase(it);
    }
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
                m->enqueue(flit);
                m->arm();
            },
            f,
            now + static_cast<uint64_t>(spec_.hopLatency) + faultDelay);
        return;
    }

    if (next) {
        // Reserve the downstream slot for the duration of the flight.
        ++next->reserved;
        ++f->hop;
        sched_->scheduleFnAt(
            [](void *p) {
                Flit *flit = static_cast<Flit *>(p);
                NocModel *m = flit->model;
                --m->links_[m->streams_[flit->stream].path[flit->hop]]
                      .reserved;
                m->enqueue(flit);
                m->arm();
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
    if (!traceLoad_)
        return; // Only the trace reads these series.
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
