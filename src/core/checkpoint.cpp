#include "core/checkpoint.hpp"

#include <cstddef>
#include <cstdio>
#include <vector>

#include "common/ckpt_stream.hpp"
#include "core/spec.hpp"
#include "sim/network.hpp"
#include "verify/invariant_auditor.hpp"

namespace ofar {

namespace {

// "OFARCKP1" as a little-endian u64: a human can spot the header in a hex
// dump.
constexpr u64 kMagic = 0x31504B435241464FULL;
/// File format version, checked before anything else is read.
/// v2: the version itself and the checksum trailer (v1 ended in a fixed
/// marker); the series' retired slot and Piggyback's h_ are gone.
/// v3: a router's active-transfer count is gone (the popcount of its
/// active-output mask).
/// v4: the Network's RNG (nothing drew from it) and the per-traffic-
/// component latency of Stats are gone; a Packet's and an Offer's tag
/// bytes are zero padding.
/// v5: packet-granular links. A FIFO entry stamps its head's arrival and a
/// FIFO its head's send end (no phit counts, no stored_); each output VC
/// has a credit ramp end; a router's buffered phit count is gone; the
/// wheels hold one phit event per packet per hop and one credit event per
/// ramp.
/// v6: primary state only; every index restore can rebuild is gone (router
/// flags, counts and masks, pool live bits, worklists, packet sizes).
constexpr u32 kFormatVersion = 6;

void set_error(std::string* error, const char* what) {
  if (error != nullptr) *error = what;
}

/// A pool slot is restored as raw bytes, so each bool member must hold 0
/// or 1 before anything reads it as a bool.
bool flags_are_bools(const Packet& p) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(&p);
  for (const std::size_t at :
       {offsetof(Packet, valiant_done), offsetof(Packet, global_misrouted),
        offsetof(Packet, local_misrouted), offsetof(Packet, in_ring),
        offsetof(Packet, ring_entered), offsetof(Packet, traced)})
    if (bytes[at] > 1) return false;
  return true;
}

}  // namespace

// The double-carrying types the archive copies whole: their sizes prove
// they have no padding.
static_assert(sizeof(LatencyAccum) == 3 * sizeof(u64) + 2 * sizeof(double));
template <>
inline constexpr bool kRawCheckpointable<LatencyAccum> = true;
static_assert(sizeof(TimeSeries::Bucket) == sizeof(double) + sizeof(u64));
template <>
inline constexpr bool kRawCheckpointable<TimeSeries::Bucket> = true;

void CheckpointIO::io(CkptArchive& ar, VcFifo& f, u32 packet_size,
                      u32 cycle) {
  ar.io(f.head_, f.tail_, f.send_end_);
  const u32 count = f.tail_ - f.head_;  // wrap-safe, bounded by ring size
  if (!ar.check(count <= f.mask_ + 1, "corrupt FIFO state")) return;
  if (ar.loading()) f.size_ = static_cast<u16>(packet_size);
  for (u32 i = 0; i < count; ++i) {
    VcFifo::Entry& e = f.entries_[(f.head_ + i) & f.mask_];
    ar.io(e);
    // A head cannot have arrived after the cycle the state reflects.
    if (!ar.check(static_cast<i32>(e.arrive - cycle) <= 0,
                  "FIFO entry arrives after the saved cycle"))
      return;
  }
}

// A restored run keeps the series its measurement protocol installed:
// the saved one must have its shape, and its buckets overwrite the
// installed ones.
void CheckpointIO::io(CkptArchive& ar, TimeSeries& ts) {
  Cycle start = ts.start_;
  u32 width = ts.bucket_width_;
  u64 buckets = ts.buckets_.size();
  ar.io(start, width, buckets);
  if (ar.check(start == ts.start_ && width == ts.bucket_width_ &&
                   buckets == ts.buckets_.size(),
               "series shape differs from the installed series"))
    ar.fixed(ts.buckets_);
}

void CheckpointIO::io(CkptArchive& ar, Stats& s) {
  ar.io(s.window_start_, s.generated_packets_, s.generated_phits_,
        s.injected_packets_, s.delivered_packets_, s.delivered_phits_,
        s.local_misroutes_, s.global_misroutes_, s.ring_entries_,
        s.ring_exits_, s.ring_packets_, s.ring_reentries_,
        s.stalled_packets_, s.worst_stall_, s.max_hops_, s.hops_sum_,
        s.latency_, s.histogram_.total_, s.histogram_.overflow_,
        s.histogram_.buckets_);
  bool has_series = s.series_ != nullptr;
  ar.io(has_series);
  if (ar.check(has_series == (s.series_ != nullptr), "corrupt stats") &&
      has_series)
    io(ar, *s.series_);
}

// Loading replays the kernel's bookkeeping over what it read, which
// rebuilds the router's indices and lists it: every queued entry is
// enqueued again in order, then every transfer granted again, bar one
// whose source does not exist (the auditor rejects it).
void CheckpointIO::io(CkptArchive& ar, Network& net, Router& r, u32 cycle) {
  const u32 packet_size = net.cfg_.packet_size;
  for (PortId p = 0; p < r.inputs.size(); ++p) {
    for (VcId v = 0; v < r.inputs[p].vcs.size(); ++v) {
      VcFifo& f = r.inputs[p].vcs[v];
      io(ar, f, packet_size, cycle);
      if (!ar.ok()) return;
      for (u32 i = 0; ar.loading() && i < f.num_packets(); ++i)
        net.note_enqueued(r, p, v, i == 0);
    }
  }
  for (PortId port = 0; port < r.outputs.size(); ++port) {
    OutputPort& out = r.outputs[port];
    ar.fixed(out.ramp_end);
    ar.fixed(out.credits);
    // A ramp whose first credit landed by `cycle` ends within a packet of
    // it, and the credits it has yet to land were counted in credits[].
    for (u32 v = 0; v < out.credits.size(); ++v) {
      const u32 ahead = out.ramp_end[v] - cycle;
      if (!ar.check((ahead < packet_size || ahead > 0xFFFFu) &&
                        out.pending(v, cycle) <= out.credits[v],
                    "credit ramp ends more than a ramp past the saved "
                    "cycle"))
        return;
    }
    ar.io(out.active, out.active_vc, out.src_port, out.src_vc,
          out.phits_left);
    if (ar.loading() && out.busy() && out.src_port < r.inputs.size() &&
        out.src_vc < r.inputs[out.src_port].vcs.size())
      net.note_granted(r, port, out.src_port, out.src_vc);
  }
  for (LrsArbiter& a : r.input_arb) ar.fixed(a.last_grant_);
  for (LrsArbiter& a : r.output_arb) ar.fixed(a.last_grant_);
  ar.io(r.throttled);
}

// The whole file: header, state, checksum. Sections whose stored form is
// sparse (offer queues, built routers, link loads) pick their next entry
// from the network when saving and from the file when loading; the wheels
// route each loaded event to its owner. Everything else is one field list
// for both directions. A failed check returns at once: no value read after
// it is used.
void CheckpointIO::io(CkptArchive& ar, Network& net) {
  u64 magic = kMagic;
  u32 version = kFormatVersion;
  const std::string expected = config_signature(net.config());
  std::string signature = expected;
  ar.io(magic);
  ar.check(magic == kMagic, "bad checkpoint magic");
  ar.io(version);
  ar.check(version == kFormatVersion, "unsupported checkpoint format version");
  ar.sized(signature);
  ar.check(signature == expected, "checkpoint config signature mismatch");
  if (!ar.check(!ar.loading() || (net.now_ == 0 && net.drained()),
                "restore target is not a fresh network"))
    return;

  ar.io(net.now_, net.injected_total_, net.delivered_total_,
        net.pending_total_);
  // Saved between steps: the state is that of the cycle before now_.
  const u32 cycle = static_cast<u32>(net.state_cycle());

  // ---- packet pool, verbatim (ids and future id reuse order); a slot is
  // live unless the free list names it (in range, once) ----
  PacketPool& pool = net.pool_;
  ar.sized(pool.slots_);
  for (const Packet& p : pool.slots_)
    if (!ar.check(flags_are_bools(p), "corrupt packet flags")) return;
  ar.sized(pool.free_list_);
  if (ar.loading()) {
    pool.live_bits_.assign(pool.slots_.size(), true);
    for (const PacketId id : pool.free_list_) {
      if (!ar.check(id < pool.slots_.size() && pool.live_bits_[id],
                    "corrupt packet free list"))
        return;
      pool.live_bits_[id] = false;
    }
    pool.live_ = pool.slots_.size() - pool.free_list_.size();
  }

  // ---- per-node offer queues (sparse: almost all are empty), by node.
  // Loading lists and probes each node: a failed probe changes nothing ----
  const u32 nodes = static_cast<u32>(net.pending_.size());
  u64 queues = 0;
  for (const auto& q : net.pending_) queues += q.empty() ? 0 : 1;
  ar.io(queues);
  if (!ar.check(queues <= nodes, "corrupt offer queue header")) return;
  std::vector<Network::Offer> offers;
  for (NodeId node = 0, i = 0; i < queues; ++node, ++i) {
    const NodeId first = node;  // ascending: past the previous queue
    if (!ar.loading()) {
      while (net.pending_[node].empty()) ++node;
      const auto items = net.pending_[node].items();
      offers.assign(items.data(), items.data() + items.size());
    }
    ar.io(node);
    ar.sized(offers);
    if (!ar.check(node >= first && node < nodes && !offers.empty(),
                  "corrupt offer queue"))
      return;
    for (const Network::Offer& o : offers) {
      if (!ar.check(o.dst < nodes && o.dst != node,
                    "corrupt offer destination"))
        return;
      if (ar.loading()) net.pending_[node].push_back(o);
    }
    if (ar.loading()) {
      net.active_nodes_.push_back(node);
      net.node_ready_[node] = 1;
    }
  }

  // ---- built routers (unbuilt ones are all-empty shells by invariant);
  // loading builds exactly the saved set, then overwrites its state ----
  u64 built = net.built_router_count();
  ar.io(built);
  if (!ar.check(built <= net.routers_.size(), "corrupt router header"))
    return;
  for (RouterId rid = 0, i = 0; i < built; ++rid, ++i) {
    if (!ar.loading())
      while (net.built_[rid] == 0) ++rid;
    ar.io(rid);
    if (!ar.check(rid < net.routers_.size(), "corrupt router id")) return;
    if (ar.loading()) net.ensure_router_built(rid);
    io(ar, net, net.routers_[rid], cycle);
    if (!ar.ok()) return;
  }

  // ---- event wheels, slot-verbatim (slot index = cycle % wheel size,
  // preserved because now_ is saved). A slot is stored as one list: the
  // shards' events for that slot, in shard order, each shard's in
  // owner-bucket order. Loading puts a slot's events all into shard 0's
  // wheel, each into the bucket of the shard that applies it. Every owner
  // then meets its events in file order, which keeps its ejections in
  // generation order; nothing else in delivery depends on the order or
  // on the wheel an event sits in ----
  u32 wheel_size = net.wheel_size_;
  ar.io(wheel_size);
  if (!ar.check(wheel_size == net.wheel_size_, "wheel size mismatch")) return;
  const std::size_t k = net.shards_.size();
  const auto wheel_io = [&ar, &net, k](auto wheel, const auto& owner_of,
                                       const char* what) {
    using Event = typename std::decay_t<
        decltype(net.shards_[0].*wheel)>::value_type::value_type;
    std::vector<Event> events;
    for (std::size_t first = 0; first < std::size_t{net.wheel_size_} * k;
         first += k) {
      u64 n = 0;
      for (const auto& sh : net.shards_)
        for (std::size_t b = first; b < first + k; ++b)
          n += (sh.*wheel)[b].size();
      ar.length(n, sizeof(Event));
      if (!ar.loading()) {
        for (const auto& sh : net.shards_)
          for (std::size_t b = first; b < first + k; ++b)
            ar.fixed((sh.*wheel)[b]);
        continue;
      }
      if (!ar.ok()) return;
      events.resize(static_cast<std::size_t>(n));
      ar.fixed(events);
      for (const Event& e : events) {
        u32 owner = 0;
        if (!ar.check(owner_of(e, owner), what)) return;
        (net.shards_[0].*wheel)[first + owner].push_back(e);
      }
    }
  };
  // Every field that indexes live state is checked before use: the
  // channel (in range and wired), the VC (below the channel's VC count),
  // the packet of a phit event (live), the router that sent it or that a
  // credit ramp returns to (built, so it holds the channel's credits). The
  // owner shard of a valid event then follows from its channel.
  const auto phit_owner = [&net](const Network::PhitEvent& e, u32& owner) {
    if (!net.channel_wired(e.ch) || !net.pool_.is_live(e.pkt)) return false;
    const Channel ch = net.channel(e.ch);
    if (!net.router_built(ch.src_router)) return false;
    u32 vcs = 1, cap = 0;  // an ejection channel has one lane
    if (!ch.is_ejection())
      net.input_shape(ch.dst_router, ch.dst_port, vcs, cap);
    owner = net.shard_of_router_[ch.is_ejection() ? ch.src_router
                                                  : ch.dst_router];
    return e.vc < vcs;
  };
  const auto credit_owner = [&net](const Network::CreditEvent& e,
                                   u32& owner) {
    if (!net.channel_wired(e.ch)) return false;
    const Channel ch = net.channel(e.ch);
    if (ch.is_ejection() || !net.router_built(ch.src_router)) return false;
    u32 vcs = 0, cap = 0;
    net.input_shape(ch.dst_router, ch.dst_port, vcs, cap);
    owner = net.shard_of_router_[ch.src_router];
    return e.vc < vcs;
  };
  wheel_io(&Network::ShardState::phit_wheel, phit_owner,
           "corrupt phit wheel");
  wheel_io(&Network::ShardState::credit_wheel, credit_owner,
           "corrupt credit wheel");
  if (!ar.ok()) return;

  // ---- lifetime link loads (sparse at scale) ----
  u64 loaded = 0;
  for (const u64 v : net.channel_phits_) loaded += v != 0 ? 1 : 0;
  ar.io(loaded);
  if (!ar.check(loaded <= net.channel_phits_.size(), "corrupt link loads"))
    return;
  for (u64 c = 0, i = 0; i < loaded; ++c, ++i) {
    if (!ar.loading())
      while (net.channel_phits_[c] == 0) ++c;
    ar.io(c);
    if (!ar.check(c < net.channel_phits_.size(), "corrupt link load entry"))
      return;
    ar.io(net.channel_phits_[c]);
  }

  io(ar, net.stats_);
  net.policy_->io(ar, net);
  bool has_traffic = net.traffic_ != nullptr;
  ar.io(has_traffic);
  if (ar.check(has_traffic == (net.traffic_ != nullptr),
               "checkpoint traffic state does not match the installed "
               "source") &&
      has_traffic)
    net.traffic_->io(ar, net);
  ar.seal();
}

bool CheckpointIO::save(const Network& net, const std::string& path,
                        std::string* error) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    set_error(error, "cannot open checkpoint tmp file");
    return false;
  }
  CkptArchive ar(f, CkptArchive::Mode::kSave);
  // A saving archive only reads the state io visits.
  io(ar, const_cast<Network&>(net));
  const bool ok = ar.ok() && std::fflush(f) == 0;
  std::fclose(f);
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    set_error(error, "checkpoint write failed");
    return false;
  }
  return true;
}

bool CheckpointIO::restore(Network& net, const std::string& path,
                           std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    set_error(error, "no checkpoint file");
    return false;
  }
  CkptArchive ar(f, CkptArchive::Mode::kLoad);
  io(ar, net);
  std::fclose(f);
  if (!ar.ok()) {
    set_error(error, ar.error());
    return false;
  }
  // The checksum matches and every id is in range; whether the state is
  // one the kernel can run is the invariant auditor's call, as it is
  // mid-run.
  const verify::AuditReport report = verify::InvariantAuditor(net).run_all();
  if (!report.ok() && error != nullptr) {
    const verify::Violation& v = report.violations.front();
    *error =
        std::string("[") + verify::to_string(v.invariant) + "] " + v.detail;
  }
  // A failed restore can leave `net` partially written; callers must treat
  // it as unusable and rebuild (run_steady constructs a fresh Network).
  return report.ok();
}

}  // namespace ofar
