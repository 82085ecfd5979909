#include "core/checkpoint.hpp"

#include <cstdio>

#include "common/ckpt_stream.hpp"
#include "core/spec.hpp"
#include "sim/network.hpp"

namespace ofar {

namespace {

// "OFARCKP1" / "OFARCKND" as little-endian u64s: a human can spot the
// header and trailer in a hex dump.
constexpr u64 kMagic = 0x31504B435241464FULL;
constexpr u64 kTrailer = 0x444E4B435241464FULL;

void set_error(std::string* error, const char* what) {
  if (error != nullptr) *error = what;
}

}  // namespace

void CheckpointIO::write_fifo(CkptWriter& w, const VcFifo& f) {
  w.put_u32(f.head_);
  w.put_u32(f.tail_);
  w.put_u32(f.stored_);
  const u32 count = f.tail_ - f.head_;  // wrap-safe, bounded by ring size
  for (u32 i = 0; i < count; ++i)
    w.put_pod_span(&f.entries_[(f.head_ + i) & f.mask_], 1);
}

bool CheckpointIO::read_fifo(CkptReader& r, VcFifo& f) {
  f.head_ = r.get_u32();
  f.tail_ = r.get_u32();
  f.stored_ = r.get_u32();
  const u32 count = f.tail_ - f.head_;
  if (!r.ok() || count > f.mask_ + 1) {
    r.fail();
    return false;
  }
  for (u32 i = 0; i < count; ++i)
    r.get_pod_span(&f.entries_[(f.head_ + i) & f.mask_], 1);
  return r.ok();
}

void CheckpointIO::write_series(CkptWriter& w, const TimeSeries& ts) {
  w.put_u64(ts.start_);
  w.put_u32(ts.bucket_width_);
  w.put_u64(ts.base_);
  w.put_u64(ts.buckets_.size());
  w.put_pod_span(ts.buckets_.data(), ts.buckets_.size());
}

bool CheckpointIO::read_series(CkptReader& r, TimeSeries& ts) {
  ts.start_ = r.get_u64();
  ts.bucket_width_ = r.get_u32();
  ts.base_ = r.get_u64();
  const u64 n = r.get_u64();
  if (!r.ok() || n > (u64{1} << 32)) {
    r.fail();
    return false;
  }
  ts.buckets_.assign(static_cast<std::size_t>(n), TimeSeries::Bucket{});
  r.get_pod_span(ts.buckets_.data(), ts.buckets_.size());
  return r.ok();
}

void CheckpointIO::write_stats(CkptWriter& w, const Stats& s) {
  w.put_u64(s.window_start_);
  w.put_u64(s.generated_packets_);
  w.put_u64(s.generated_phits_);
  w.put_u64(s.injected_packets_);
  w.put_u64(s.delivered_packets_);
  w.put_u64(s.delivered_phits_);
  w.put_u64(s.local_misroutes_);
  w.put_u64(s.global_misroutes_);
  w.put_u64(s.ring_entries_);
  w.put_u64(s.ring_exits_);
  w.put_u64(s.ring_packets_);
  w.put_u64(s.ring_reentries_);
  w.put_u64(s.stalled_packets_);
  w.put_u64(s.worst_stall_);
  w.put_u64(s.max_hops_);
  w.put_f64(s.hops_sum_);
  w.put_pod_span(&s.latency_, 1);
  w.put_u64(s.histogram_.total_);
  w.put_u64(s.histogram_.overflow_);
  w.put_pod_span(s.histogram_.buckets_.data(), s.histogram_.buckets_.size());
  w.put_u64(s.by_tag_.size());
  w.put_pod_span(s.by_tag_.data(), s.by_tag_.size());
  w.put_bool(s.series_ != nullptr);
  if (s.series_) write_series(w, *s.series_);
}

bool CheckpointIO::read_stats(CkptReader& r, Stats& s) {
  s.window_start_ = r.get_u64();
  s.generated_packets_ = r.get_u64();
  s.generated_phits_ = r.get_u64();
  s.injected_packets_ = r.get_u64();
  s.delivered_packets_ = r.get_u64();
  s.delivered_phits_ = r.get_u64();
  s.local_misroutes_ = r.get_u64();
  s.global_misroutes_ = r.get_u64();
  s.ring_entries_ = r.get_u64();
  s.ring_exits_ = r.get_u64();
  s.ring_packets_ = r.get_u64();
  s.ring_reentries_ = r.get_u64();
  s.stalled_packets_ = r.get_u64();
  s.worst_stall_ = r.get_u64();
  s.max_hops_ = r.get_u64();
  s.hops_sum_ = r.get_f64();
  r.get_pod_span(&s.latency_, 1);
  s.histogram_.total_ = r.get_u64();
  s.histogram_.overflow_ = r.get_u64();
  r.get_pod_span(s.histogram_.buckets_.data(),
                 s.histogram_.buckets_.size());
  const u64 tags = r.get_u64();
  if (!r.ok() || tags > (u64{1} << 20)) {
    r.fail();
    return false;
  }
  s.by_tag_.assign(static_cast<std::size_t>(tags), LatencyAccum{});
  r.get_pod_span(s.by_tag_.data(), s.by_tag_.size());
  // A restored run keeps the series the driver installed (same protocol,
  // same parameters) and overwrites its contents with the saved buckets.
  if (r.get_bool()) {
    if (s.series_ == nullptr) {
      r.fail();
      return false;
    }
    if (!read_series(r, *s.series_)) return false;
  }
  return r.ok();
}

void CheckpointIO::write_state(CkptWriter& w, const Network& net) {
  w.put_u64(net.now_);
  w.put_rng(net.rng_);
  w.put_u64(net.injected_total_);
  w.put_u64(net.delivered_total_);
  w.put_u64(net.pending_total_);

  // ---- packet pool, verbatim (ids and future id reuse order) ----
  const PacketPool& pool = net.pool_;
  w.put_u64(pool.slots_.size());
  w.put_pod_span(pool.slots_.data(), pool.slots_.size());
  for (std::size_t i = 0; i < pool.live_bits_.size(); ++i)
    w.put_u8(pool.live_bits_[i] ? 1 : 0);
  w.put_u64(pool.free_list_.size());
  w.put_pod_span(pool.free_list_.data(), pool.free_list_.size());
  w.put_u64(pool.live_);

  // ---- per-node offer queues (sparse: almost all are empty) ----
  u64 non_empty = 0;
  for (const auto& q : net.pending_)
    if (!q.empty()) ++non_empty;
  w.put_u64(non_empty);
  for (NodeId n = 0; n < net.pending_.size(); ++n) {
    const auto items = net.pending_[n].items();
    if (items.size() == 0) continue;
    w.put_u32(n);
    w.put_u64(items.size());
    w.put_pod_span(items.data(), items.size());
  }

  // ---- built routers (unbuilt ones are all-empty shells by invariant) ----
  w.put_u64(net.built_router_count());
  for (RouterId rid = 0; rid < net.routers_.size(); ++rid) {
    if (net.built_[rid] == 0) continue;
    const Router& r = net.routers_[rid];
    w.put_u32(rid);
    for (const InputPort& in : r.inputs) {
      for (const VcFifo& f : in.vcs) write_fifo(w, f);
      w.put_pod_span(in.head_busy.data(), in.head_busy.size());
    }
    for (const OutputPort& out : r.outputs) {
      w.put_pod_span(out.credits.data(), out.credits.size());
      w.put_u32(out.active);
      w.put_u8(out.active_vc);
      w.put_u16(out.src_port);
      w.put_u8(out.src_vc);
      w.put_u32(out.phits_left);
      w.put_u16(out.active_size);
    }
    for (const LrsArbiter& a : r.input_arb)
      w.put_pod_span(a.last_grant_.data(), a.last_grant_.size());
    for (const LrsArbiter& a : r.output_arb)
      w.put_pod_span(a.last_grant_.data(), a.last_grant_.size());
    w.put_u32(r.buffered_packets);
    w.put_u32(r.buffered_phits);
    w.put_u32(r.routable_heads);
    w.put_u32(r.active_transfers);
    w.put_bool(r.throttled);
    w.put_u64(r.active_out_mask);
    w.put_pod_span(r.input_mask.data(), r.input_mask.size());
  }

  // ---- activity worklists, verbatim (stale idle entries included: they
  // drain through the next prune pass exactly as in the original run) ----
  w.put_u32(static_cast<u32>(net.shards_.size()));
  for (const auto& sh : net.shards_) {
    w.put_u64(sh.active_routers.size());
    w.put_pod_span(sh.active_routers.data(), sh.active_routers.size());
    w.put_bool(sh.sorted);
  }
  w.put_u64(net.active_nodes_.size());
  w.put_pod_span(net.active_nodes_.data(), net.active_nodes_.size());
  w.put_bool(net.active_nodes_sorted_);

  // ---- event wheels, slot-verbatim (slot index = cycle % wheel size,
  // preserved because now_ is saved). Each slot is written as one list:
  // the shards' events for that slot, in shard order ----
  w.put_u32(net.wheel_size_);
  const auto write_wheel = [&w, &net](auto wheel) {
    for (u32 slot = 0; slot < net.wheel_size_; ++slot) {
      u64 n = 0;
      for (const auto& sh : net.shards_) n += (sh.*wheel)[slot].size();
      w.put_u64(n);
      for (const auto& sh : net.shards_)
        w.put_pod_span((sh.*wheel)[slot].data(), (sh.*wheel)[slot].size());
    }
  };
  write_wheel(&Network::ShardState::phit_wheel);
  write_wheel(&Network::ShardState::credit_wheel);

  // ---- lifetime link loads (sparse at scale) ----
  u64 loaded = 0;
  for (const u64 v : net.channel_phits_)
    if (v != 0) ++loaded;
  w.put_u64(loaded);
  for (std::size_t c = 0; c < net.channel_phits_.size(); ++c) {
    if (net.channel_phits_[c] == 0) continue;
    w.put_u64(c);
    w.put_u64(net.channel_phits_[c]);
  }

  write_stats(w, net.stats_);
  net.policy_->save_state(w);
  w.put_bool(net.traffic_ != nullptr);
  if (net.traffic_) net.traffic_->save_state(w);
}

bool CheckpointIO::read_state(CkptReader& r, Network& net,
                              std::string* error) {
  net.now_ = r.get_u64();
  r.get_rng(net.rng_);
  net.injected_total_ = r.get_u64();
  net.delivered_total_ = r.get_u64();
  net.pending_total_ = r.get_u64();

  // ---- packet pool ----
  PacketPool& pool = net.pool_;
  const u64 pool_slots = r.get_u64();
  if (!r.ok() || pool_slots > (u64{1} << 32)) {
    set_error(error, "corrupt packet pool header");
    return false;
  }
  pool.slots_.assign(static_cast<std::size_t>(pool_slots), Packet{});
  r.get_pod_span(pool.slots_.data(), pool.slots_.size());
  pool.live_bits_.assign(pool.slots_.size(), false);
  for (std::size_t i = 0; i < pool.live_bits_.size(); ++i)
    pool.live_bits_[i] = r.get_u8() != 0;
  const u64 free_count = r.get_u64();
  if (!r.ok() || free_count > pool_slots) {
    set_error(error, "corrupt packet free list");
    return false;
  }
  pool.free_list_.assign(static_cast<std::size_t>(free_count), 0);
  r.get_pod_span(pool.free_list_.data(), pool.free_list_.size());
  pool.live_ = static_cast<std::size_t>(r.get_u64());

  // ---- offer queues ----
  const u64 queues = r.get_u64();
  if (!r.ok() || queues > net.pending_.size()) {
    set_error(error, "corrupt offer queue header");
    return false;
  }
  for (u64 q = 0; q < queues; ++q) {
    const u32 node = r.get_u32();
    const u64 count = r.get_u64();
    if (!r.ok() || node >= net.pending_.size() ||
        count > (u64{1} << 40)) {
      set_error(error, "corrupt offer queue");
      return false;
    }
    auto& queue = net.pending_[node];
    for (u64 i = 0; i < count; ++i) {
      Network::Offer o{};
      r.get_pod_span(&o, 1);
      queue.push_back(o);
    }
  }

  // ---- routers: build exactly the saved set, then overwrite state ----
  const u64 built = r.get_u64();
  if (!r.ok() || built > net.routers_.size()) {
    set_error(error, "corrupt router header");
    return false;
  }
  for (u64 i = 0; i < built; ++i) {
    const u32 rid = r.get_u32();
    if (!r.ok() || rid >= net.routers_.size()) {
      set_error(error, "corrupt router id");
      return false;
    }
    net.ensure_router_built(rid);
    Router& router = net.routers_[rid];
    for (InputPort& in : router.inputs) {
      for (VcFifo& f : in.vcs)
        if (!read_fifo(r, f)) {
          set_error(error, "corrupt FIFO state");
          return false;
        }
      r.get_pod_span(in.head_busy.data(), in.head_busy.size());
    }
    for (OutputPort& out : router.outputs) {
      r.get_pod_span(out.credits.data(), out.credits.size());
      out.active = r.get_u32();
      out.active_vc = r.get_u8();
      out.src_port = r.get_u16();
      out.src_vc = r.get_u8();
      out.phits_left = r.get_u32();
      out.active_size = r.get_u16();
    }
    for (LrsArbiter& a : router.input_arb)
      r.get_pod_span(a.last_grant_.data(), a.last_grant_.size());
    for (LrsArbiter& a : router.output_arb)
      r.get_pod_span(a.last_grant_.data(), a.last_grant_.size());
    router.buffered_packets = r.get_u32();
    router.buffered_phits = r.get_u32();
    router.routable_heads = r.get_u32();
    router.active_transfers = r.get_u32();
    router.throttled = r.get_bool();
    router.active_out_mask = r.get_u64();
    r.get_pod_span(router.input_mask.data(), router.input_mask.size());
  }

  // ---- worklists ----
  const u32 shard_count = r.get_u32();
  if (!r.ok() || shard_count != net.shards_.size()) {
    set_error(error, "shard count mismatch");
    return false;
  }
  for (auto& sh : net.shards_) {
    const u64 n = r.get_u64();
    if (!r.ok() || n > net.routers_.size()) {
      set_error(error, "corrupt shard worklist");
      return false;
    }
    sh.active_routers.assign(static_cast<std::size_t>(n), 0);
    r.get_pod_span(sh.active_routers.data(), sh.active_routers.size());
    sh.sorted = r.get_bool();
    for (const RouterId rid : sh.active_routers) {
      if (rid >= net.router_in_worklist_.size()) {
        set_error(error, "corrupt shard worklist entry");
        return false;
      }
      net.router_in_worklist_[rid] = 1;
    }
  }
  const u64 nodes = r.get_u64();
  if (!r.ok() || nodes > net.node_in_worklist_.size()) {
    set_error(error, "corrupt node worklist");
    return false;
  }
  net.active_nodes_.assign(static_cast<std::size_t>(nodes), 0);
  r.get_pod_span(net.active_nodes_.data(), net.active_nodes_.size());
  net.active_nodes_sorted_ = r.get_bool();
  for (const NodeId n : net.active_nodes_) {
    if (n >= net.node_in_worklist_.size()) {
      set_error(error, "corrupt node worklist entry");
      return false;
    }
    net.node_in_worklist_[n] = 1;
  }

  // ---- event wheels ----
  const u32 wheel = r.get_u32();
  if (!r.ok() || wheel != net.wheel_size_) {
    set_error(error, "wheel size mismatch");
    return false;
  }
  // A slot's events may sit in any one shard's wheel: delivery scans every
  // shard's slot and each event is applied by the shard that owns it.
  const auto read_wheel = [&r](auto& wheel) {
    for (auto& slot : wheel) {
      const u64 n = r.get_u64();
      if (!r.ok() || n > (u64{1} << 40)) return false;
      slot.assign(static_cast<std::size_t>(n), {});
      r.get_pod_span(slot.data(), slot.size());
    }
    return true;
  };
  if (!read_wheel(net.shards_[0].phit_wheel)) {
    set_error(error, "corrupt phit wheel");
    return false;
  }
  if (!read_wheel(net.shards_[0].credit_wheel)) {
    set_error(error, "corrupt credit wheel");
    return false;
  }

  // ---- link loads ----
  const u64 loaded = r.get_u64();
  if (!r.ok() || loaded > net.channel_phits_.size()) {
    set_error(error, "corrupt link loads");
    return false;
  }
  for (u64 i = 0; i < loaded; ++i) {
    const u64 c = r.get_u64();
    const u64 v = r.get_u64();
    if (!r.ok() || c >= net.channel_phits_.size()) {
      set_error(error, "corrupt link load entry");
      return false;
    }
    net.channel_phits_[c] = v;
  }

  if (!read_stats(r, net.stats_)) {
    set_error(error, "corrupt stats");
    return false;
  }
  net.policy_->load_state(r);
  const bool has_traffic = r.get_bool();
  if (has_traffic) {
    if (net.traffic_ == nullptr) {
      set_error(error, "checkpoint has traffic state but none installed");
      return false;
    }
    net.traffic_->load_state(r);
  }
  if (!r.ok()) {
    set_error(error, "truncated checkpoint");
    return false;
  }
  return true;
}

bool CheckpointIO::save(const Network& net, const std::string& path,
                        std::string* error) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    set_error(error, "cannot open checkpoint tmp file");
    return false;
  }
  CkptWriter w(f);
  w.put_u64(kMagic);
  w.put_str(config_signature(net.config()));
  write_state(w, net);
  w.put_u64(kTrailer);
  const bool ok = w.ok() && std::fflush(f) == 0;
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
  CkptReader r(f);
  bool ok = false;
  if (r.get_u64() != kMagic) {
    set_error(error, "bad checkpoint magic");
  } else if (r.get_str() != config_signature(net.config())) {
    set_error(error, "checkpoint config signature mismatch");
  } else if (net.now_ != 0 || !net.drained()) {
    set_error(error, "restore target is not a fresh network");
  } else if (read_state(r, net, error)) {
    if (r.get_u64() == kTrailer && r.ok()) {
      ok = true;
    } else {
      set_error(error, "truncated checkpoint");
    }
  }
  std::fclose(f);
  // A failed restore can leave `net` partially written; callers must treat
  // it as unusable and rebuild (the drivers construct a fresh Network).
  return ok;
}

}  // namespace ofar
