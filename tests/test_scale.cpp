// Scale-path regression suite (DESIGN.md §"Scale").
//
// The million-endpoint work is only admissible if it changes *nothing*
// observable at paper scale:
//
//  1. Implicit arithmetic wiring must be indistinguishable from a
//     materialized reference table derived here, per link class: every
//     descriptor, and every built router's port wiring, across every
//     routing mechanism, every ring kind, trimmed topologies and a ring
//     stride other than 1.
//  2. Checkpoint/restart must resume bit-identically: save mid-run,
//     restore into a fresh network, find every index restore rebuilt equal
//     to the saved network's, and the continuation's stats equal an
//     uninterrupted run's — at several shard counts and sim_threads
//     splits.
//  3. Lazy router construction must build only touched routers, and a
//     router built on demand mid-run must be wired exactly like the
//     reference (covered by 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/ckpt_stream.hpp"
#include "core/checkpoint.hpp"
#include "core/experiment.hpp"
#include "sim/network.hpp"
#include "stats/timeseries.hpp"
#include "traffic/generator.hpp"
#include "traffic/pattern.hpp"

namespace ofar {
namespace {

SimConfig scale_config(RoutingKind routing) {
  SimConfig cfg;
  cfg.h = 4;
  cfg.seed = 12345;
  cfg.routing = routing;
  cfg.ring = cfg.vc_ordered() ? RingKind::kNone : RingKind::kPhysical;
  if (routing == RoutingKind::kPar) cfg.vcs_local = 4;
  return cfg;
}

/// Flattened stat digest (same idiom as test_determinism.cpp): every field
/// compared exactly, doubles included.
struct Digest {
  u64 generated, injected, delivered, delivered_phits;
  double lat_sum, lat_sum_sq;
  u64 local_mis, global_mis, ring_in, ring_out;
  double mean_hops;
  u64 max_hops;
  Cycle now;
};

Digest digest(const Network& net) {
  const Stats& s = net.stats();
  return {s.generated_packets(), s.injected_packets(), s.delivered_packets(),
          s.delivered_phits(),   s.latency().sum,      s.latency().sum_sq,
          s.local_misroutes(),   s.global_misroutes(), s.ring_entries(),
          s.ring_exits(),        s.mean_hops(),        s.max_hops(),
          net.now()};
}

void expect_digest_eq(const Digest& a, const Digest& b) {
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.delivered_phits, b.delivered_phits);
  // Bit-identical, not approximately equal: accumulation order is part of
  // the contract.
  EXPECT_EQ(a.lat_sum, b.lat_sum);
  EXPECT_EQ(a.lat_sum_sq, b.lat_sum_sq);
  EXPECT_EQ(a.local_mis, b.local_mis);
  EXPECT_EQ(a.global_mis, b.global_mis);
  EXPECT_EQ(a.ring_in, b.ring_in);
  EXPECT_EQ(a.ring_out, b.ring_out);
  EXPECT_EQ(a.mean_hops, b.mean_hops);
  EXPECT_EQ(a.max_hops, b.max_hops);
  EXPECT_EQ(a.now, b.now);
}

// ---------------------------------------------------------------------------
// 1. Implicit wiring == a materialized reference table.
// ---------------------------------------------------------------------------

/// Reference wiring table: every link derived per port class and stored
/// under its dense id (src_router * ports + src_port). Unwired
/// global slots of trimmed topologies have no entry. Written separately
/// from Network::channel() so that the two derivations check each other.
std::vector<std::optional<Channel>> reference_wiring(const Network& net) {
  const SimConfig& cfg = net.config();
  const Dragonfly& topo = net.topo();
  const HamiltonianRing* ring = net.ring();
  const u32 ports = topo.ports_per_router();
  std::vector<std::optional<Channel>> table(net.num_channels());
  for (RouterId r = 0; r < topo.routers(); ++r) {
    for (PortId port = 0; port < ports; ++port) {
      Channel ch;
      ch.src_router = r;
      ch.src_port = port;
      switch (topo.port_class(port)) {
        case PortClass::kNode:
          ch.cls = ChannelClass::kEjection;
          ch.dst_node = topo.node_at(r, port);
          ch.latency = 1;
          break;
        case PortClass::kLocal: {
          const u32 peer = topo.local_peer(topo.local_of(r), port);
          ch.cls = ChannelClass::kLocal;
          ch.dst_router = topo.router_at(topo.group_of(r), peer);
          ch.dst_port = topo.local_port(peer, topo.local_of(r));
          ch.latency = cfg.local_latency;
          break;
        }
        case PortClass::kGlobal: {
          if (!topo.global_port_wired(r, port)) continue;
          const auto far = topo.global_peer(r, port);
          ch.cls = ChannelClass::kGlobal;
          ch.dst_router = far.router;
          ch.dst_port = far.port;
          ch.latency = cfg.global_latency;
          break;
        }
        case PortClass::kRing: {
          const bool crosses = ring->step_crosses_group(r);
          ch.cls =
              crosses ? ChannelClass::kRingGlobal : ChannelClass::kRingLocal;
          ch.dst_router = ring->successor(r);
          ch.dst_port = topo.ring_port();
          ch.latency = crosses ? cfg.global_latency : cfg.local_latency;
          break;
        }
      }
      table[std::size_t{r} * ports + port] = ch;
    }
  }
  return table;
}

/// Every dense id resolves to its reference descriptor (or is unwired
/// exactly where the table has no entry), and every router built so far is
/// wired like the table says: its output channel ids, the channel feeding
/// each input port, and credit counters shaped like the downstream FIFOs.
void expect_wiring_matches_reference(Network& net) {
  const auto table = reference_wiring(net);
  const u32 ports = net.topo().ports_per_router();
  std::vector<ChannelId> feeding(net.num_channels(), kInvalidChannel);
  for (ChannelId c = 0; c < table.size(); ++c) {
    ASSERT_EQ(net.channel_wired(c), table[c].has_value()) << "channel " << c;
    if (!table[c]) continue;
    const Channel want = *table[c];
    const Channel got = net.channel(c);
    EXPECT_EQ(got.cls, want.cls) << "channel " << c;
    EXPECT_EQ(got.src_router, want.src_router) << "channel " << c;
    EXPECT_EQ(got.src_port, want.src_port) << "channel " << c;
    EXPECT_EQ(got.latency, want.latency) << "channel " << c;
    if (want.is_ejection()) {
      EXPECT_EQ(got.dst_node, want.dst_node) << "channel " << c;
      continue;
    }
    EXPECT_EQ(got.dst_router, want.dst_router) << "channel " << c;
    EXPECT_EQ(got.dst_port, want.dst_port) << "channel " << c;
    feeding[std::size_t{want.dst_router} * ports + want.dst_port] = c;
  }
  for (RouterId r = 0; r < net.topo().routers(); ++r) {
    if (!net.router_built(r)) continue;
    const Router& router = std::as_const(net).router(r);
    for (PortId port = 0; port < ports; ++port) {
      const ChannelId id = static_cast<ChannelId>(r * ports + port);
      const OutputPort& out = router.outputs[port];
      EXPECT_EQ(out.channel, table[id] ? id : kInvalidChannel)
          << "router " << r << " output " << port;
      EXPECT_EQ(router.inputs[port].in_channel, feeding[id])
          << "router " << r << " input " << port;
      if (!table[id] || table[id]->is_ejection()) continue;
      const Channel& ch = *table[id];
      u32 vcs = 0, cap = 0;
      net.input_shape(ch.dst_router, ch.dst_port, vcs, cap);
      ASSERT_EQ(out.credit_cap.size(), vcs)
          << "router " << r << " output " << port;
      for (u32 v = 0; v < vcs; ++v) EXPECT_EQ(out.credit_cap[v], cap);
    }
  }
}

/// Builds every router (the mutating accessor builds on first touch).
void build_all_routers(Network& net) {
  for (RouterId r = 0; r < net.topo().routers(); ++r) net.router(r);
}

class WiringEquivalence : public ::testing::TestWithParam<RoutingKind> {};

TEST_P(WiringEquivalence, ImplicitMatchesTable) {
  // Routers built on demand inside a run (by the delivery phase that
  // first fills them) and routers built afterwards both match the table.
  const SimConfig cfg = scale_config(GetParam());
  Network net(cfg);
  net.set_traffic(std::make_unique<BernoulliSource>(
      TrafficPattern::adversarial(1), 0.5, cfg.seed));
  net.run(2000);
  ASSERT_GT(net.built_router_count(), 0u);
  expect_wiring_matches_reference(net);
  build_all_routers(net);
  expect_wiring_matches_reference(net);
}

TEST(WiringEquivalence, EveryRingKindTrimAndStride) {
  // No ring, the physical ring and the embedded ring, on full and trimmed
  // (groups < max) topologies, with the paper's ring stride and stride 2.
  for (const u32 h : {2u, 3u}) {
    for (const u32 groups : {0u, 2 * h + 1}) {
      for (const RingKind ring :
           {RingKind::kNone, RingKind::kPhysical, RingKind::kEmbedded}) {
        for (const u32 stride : {1u, 2u}) {
          if (ring == RingKind::kNone && stride != 1) continue;
          SimConfig cfg;
          cfg.h = h;
          cfg.groups = groups;
          cfg.routing = ring == RingKind::kNone ? RoutingKind::kMin
                                                : RoutingKind::kOfar;
          cfg.ring = ring;
          cfg.ring_stride = stride;
          SCOPED_TRACE(cfg.summary());
          Network net(cfg);
          build_all_routers(net);
          expect_wiring_matches_reference(net);
          if (groups != 0) {
            u64 unwired = 0;
            for (ChannelId c = 0; c < net.num_channels(); ++c)
              unwired += net.channel_wired(c) ? 0 : 1;
            EXPECT_GT(unwired, 0u);  // the trim leaves global slots empty
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mechanisms, WiringEquivalence,
    ::testing::Values(RoutingKind::kMin, RoutingKind::kVal, RoutingKind::kPb,
                      RoutingKind::kUgal, RoutingKind::kPar,
                      RoutingKind::kOfar, RoutingKind::kOfarL),
    [](const ::testing::TestParamInfo<RoutingKind>& info) {
      switch (info.param) {
        case RoutingKind::kMin: return "MIN";
        case RoutingKind::kVal: return "VAL";
        case RoutingKind::kPb: return "PB";
        case RoutingKind::kUgal: return "UGAL";
        case RoutingKind::kPar: return "PAR";
        case RoutingKind::kOfar: return "OFAR";
        case RoutingKind::kOfarL: return "OFAR_L";
      }
      return "unknown";
    });

// ---------------------------------------------------------------------------
// 2. Checkpoint/restart resumes bit-identically.
// ---------------------------------------------------------------------------

std::string ckpt_path(const char* tag) {
  return ::testing::TempDir() + "ofar_ckpt_" + tag + ".bin";
}

std::unique_ptr<TrafficSource> saturating_traffic(const SimConfig& cfg) {
  return std::make_unique<BernoulliSource>(TrafficPattern::uniform(), 0.9,
                                           cfg.seed);
}

/// A checkpoint holds no index: restore rebuilds them. Expects every built
/// router's (head-busy flags, packet and head counts, port masks) and the
/// pool's live count in `restored` equal to those of `saved`, the network
/// the checkpoint was taken from.
void expect_same_indices(const Network& saved, const Network& restored) {
  EXPECT_EQ(restored.packets().live_count(), saved.packets().live_count());
  for (RouterId r = 0; r < saved.topo().routers(); ++r) {
    ASSERT_EQ(restored.router_built(r), saved.router_built(r)) << "r" << r;
    if (!saved.router_built(r)) continue;
    const Router& want = saved.router(r);
    const Router& got = restored.router(r);
    EXPECT_EQ(got.buffered_packets, want.buffered_packets) << "r" << r;
    EXPECT_EQ(got.routable_heads, want.routable_heads) << "r" << r;
    EXPECT_EQ(got.active_out_mask, want.active_out_mask) << "r" << r;
    EXPECT_EQ(got.input_mask, want.input_mask) << "r" << r;
    for (PortId p = 0; p < want.inputs.size(); ++p)
      for (u32 v = 0; v < want.inputs[p].vcs.size(); ++v)
        EXPECT_EQ(got.inputs[p].head_busy[v], want.inputs[p].head_busy[v])
            << "r" << r << ".p" << p << "v" << v;
  }
}

/// The resume matrix, (K, threads): the test instance at `threads` runs
/// the pairs with that thread count.
constexpr std::pair<u32, unsigned> kResumeMatrix[] = {
    {1, 1}, {4, 1}, {4, 4}, {8, 2}, {8, 4}};

class CheckpointRestart : public ::testing::TestWithParam<unsigned> {};

TEST_P(CheckpointRestart, MidRunSaveResumesBitIdentically) {
  for (const auto& [shards, sim_threads] : kResumeMatrix) {
    if (sim_threads != GetParam()) continue;
    SCOPED_TRACE("K=" + std::to_string(shards) +
                 " threads=" + std::to_string(sim_threads));
    const std::string path =
        ckpt_path(("resume_" + std::to_string(shards) + "_" +
                   std::to_string(sim_threads))
                      .c_str());
    SimConfig cfg = scale_config(RoutingKind::kOfar);
    cfg.sim_shards = shards;

    // Reference: uninterrupted run to 800 with a mid-flight save at 400.
    Network a(cfg);
    a.set_traffic(saturating_traffic(cfg));
    a.set_sim_threads(sim_threads);
    ASSERT_EQ(a.sim_threads(), sim_threads);
    a.run(400);
    std::string err;
    ASSERT_TRUE(CheckpointIO::save(a, path, &err)) << err;

    // Resume: fresh same-config network picks up at cycle 400.
    Network b(cfg);
    b.set_traffic(saturating_traffic(cfg));
    b.set_sim_threads(sim_threads);
    ASSERT_TRUE(CheckpointIO::restore(b, path, &err)) << err;
    EXPECT_EQ(b.now(), Cycle{400});
    expect_same_indices(a, b);
    a.run(400);
    b.run(400);
    expect_digest_eq(digest(b), digest(a));

    EXPECT_TRUE(b.check_worklists());
    std::remove(path.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(SimThreads, CheckpointRestart,
                         ::testing::Values(1u, 2u, 4u));

TEST(CheckpointRestart, EveryMechanismRoundTrips) {
  // The policy/traffic save_state hooks differ per mechanism (Valiant lane
  // RNGs, Piggyback broadcast state, OFAR lanes); round-trip each one, on
  // one shard and on four.
  for (const u32 shards : {1u, 4u}) {
    for (const RoutingKind rk :
         {RoutingKind::kMin, RoutingKind::kVal, RoutingKind::kPb,
          RoutingKind::kUgal, RoutingKind::kPar, RoutingKind::kOfar,
          RoutingKind::kOfarL}) {
      SCOPED_TRACE("K=" + std::to_string(shards) + " " + to_string(rk));
      const std::string path = ckpt_path("mech");
      SimConfig cfg = scale_config(rk);
      cfg.sim_shards = shards;
      Network a(cfg);
      a.set_traffic(saturating_traffic(cfg));
      a.run(300);
      std::string err;
      ASSERT_TRUE(CheckpointIO::save(a, path, &err)) << err;

      Network b(cfg);
      b.set_traffic(saturating_traffic(cfg));
      ASSERT_TRUE(CheckpointIO::restore(b, path, &err)) << err;
      expect_same_indices(a, b);
      a.run(300);
      b.run(300);
      expect_digest_eq(digest(b), digest(a));
      std::remove(path.c_str());
    }
  }
}

TEST(CheckpointRestart, RejectsConfigMismatch) {
  const std::string path = ckpt_path("mismatch");
  const SimConfig cfg = scale_config(RoutingKind::kOfar);
  Network a(cfg);
  a.set_traffic(saturating_traffic(cfg));
  a.run(100);
  ASSERT_TRUE(CheckpointIO::save(a, path));

  // Different seed -> different signature -> refused.
  SimConfig other = cfg;
  other.seed = 999;
  Network b(other);
  b.set_traffic(saturating_traffic(other));
  std::string err;
  EXPECT_FALSE(CheckpointIO::restore(b, path, &err));
  EXPECT_FALSE(err.empty());
  std::remove(path.c_str());
}

// ---- corrupt checkpoints: restore checks every id, then audits the rest ----

/// A run under uniform traffic (saturated by default) on a trimmed topology
/// (5 of 9 groups at h=2, so unwired channel ids exist) at four shards,
/// saved mid-flight. Node 0 also holds a backlog of offers to kOfferDst
/// made at cycle kOfferCycle, so the file has offers whose bytes can be
/// found.
struct SavedRun {
  static constexpr NodeId kOfferDst = 17;
  static constexpr Cycle kOfferCycle = 123;

  SimConfig cfg;
  double load = 0.9;
  std::unique_ptr<Network> net;  ///< the saved network, for its state
  std::vector<char> bytes;       ///< the checkpoint file

  std::unique_ptr<TrafficSource> traffic() const {
    return std::make_unique<BernoulliSource>(TrafficPattern::uniform(), load,
                                             cfg.seed);
  }
};

/// A file tag unique to the running test: ctest runs tests in parallel
/// processes that share the temp directory.
std::string test_tag(const char* what) {
  return std::string(
             ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
         "_" + what;
}

std::vector<char> read_bytes(const std::string& path) {
  std::vector<char> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  char buf[4096];
  for (std::size_t n;
       f != nullptr && (n = std::fread(buf, 1, sizeof buf, f)) > 0;)
    bytes.insert(bytes.end(), buf, buf + n);
  if (f != nullptr) std::fclose(f);
  return bytes;
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

SavedRun saved_run(double load = 0.9) {
  SavedRun run;
  run.load = load;
  run.cfg.h = 2;
  run.cfg.groups = 5;
  run.cfg.seed = 12345;
  run.cfg.routing = RoutingKind::kOfar;
  run.cfg.ring = RingKind::kPhysical;
  run.cfg.sim_shards = 4;
  run.net = std::make_unique<Network>(run.cfg);
  Network& net = *run.net;
  net.set_traffic(run.traffic());
  net.run(SavedRun::kOfferCycle);
  for (int i = 0; i < 64; ++i)
    net.offer(0, SavedRun::kOfferDst);
  net.run(300 - SavedRun::kOfferCycle);
  const std::string path = ckpt_path(test_tag("src").c_str());
  EXPECT_TRUE(CheckpointIO::save(net, path));
  run.bytes = read_bytes(path);
  std::remove(path.c_str());
  return run;
}

/// Allocates and frees blocks of many sizes filled with `dirt`, so the
/// allocations that follow reuse memory whose stale bytes differ per call.
void dirty_heap(unsigned char dirt) {
  std::vector<std::unique_ptr<unsigned char[]>> blocks;
  for (std::size_t size = 16; size <= (std::size_t{1} << 16); size *= 2) {
    for (int i = 0; i < 64; ++i) {
      blocks.emplace_back(new unsigned char[size]);
      std::memset(blocks.back().get(), dirt, size);
    }
  }
}

TEST(CheckpointRestart, TwoSavesOfOneStateAreByteIdentical) {
  // The archive copies only types without padding bytes (checked at
  // compile time), so no stale memory reaches a file. Each run starts on a
  // heap dirtied with its own byte: a padding byte would differ.
  dirty_heap(0x00);
  const std::vector<char> a = saved_run().bytes;
  dirty_heap(0xA5);
  const std::vector<char> b = saved_run().bytes;
  ASSERT_EQ(a.size(), b.size());
  const auto diff = std::mismatch(a.begin(), a.end(), b.begin());
  EXPECT_TRUE(diff.first == a.end())
      << "first differing byte at offset " << (diff.first - a.begin());
}

/// Rewrites the checksum that ends a checkpoint file to match the bytes
/// before it, so a deliberate patch reaches the check it targets instead
/// of failing the checksum.
void reseal(std::vector<char>& bytes) {
  CkptChecksum sum;
  sum.add(bytes.data(), bytes.size() - sizeof(u64));
  const u64 value = sum.value();
  std::memcpy(bytes.data() + bytes.size() - sizeof value, &value,
              sizeof value);
}

/// A replacement of the saved file's bytes at `offset`.
struct Patch {
  std::size_t offset;
  std::string bytes;
};

/// Restores the saved file with every patch applied, and the file
/// resealed, into a fresh network; returns the error, "" on success.
std::string restore_patched(const SavedRun& run,
                            const std::vector<Patch>& patches) {
  std::vector<char> bad = run.bytes;
  for (const Patch& p : patches)
    std::memcpy(bad.data() + p.offset, p.bytes.data(), p.bytes.size());
  reseal(bad);
  const std::string path = ckpt_path(test_tag("bad").c_str());
  write_bytes(path, bad);
  Network net(run.cfg);
  net.set_traffic(run.traffic());
  std::string err;
  const bool ok = CheckpointIO::restore(net, path, &err);
  std::remove(path.c_str());
  return ok ? std::string() : err;
}

/// Restores the saved file with `size` bytes at `offset` replaced by
/// `value`, resealed, into a fresh network; returns the error, "" on
/// success.
std::string restore_patched(const SavedRun& run, std::size_t offset,
                            const void* value, std::size_t size) {
  return restore_patched(
      run, {{offset, std::string(static_cast<const char*>(value), size)}});
}

/// Passes when `err` is a restore error from the invariant auditor's
/// `invariant` check ("[vct-atomicity] ...") whose detail contains `what`.
::testing::AssertionResult Rejected(const std::string& err,
                                    const char* invariant,
                                    const std::string& what) {
  const std::string tag = std::string("[") + invariant + "] ";
  if (err.rfind(tag, 0) == 0 && err.find(what) != std::string::npos)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "restore error \"" << err << "\" is not " << tag << "... "
         << what << " ...";
}

/// The raw bytes of `values`, in order, as CkptWriter writes them.
template <typename... T>
std::string bytes_of(const T&... values) {
  std::string out;
  (out.append(reinterpret_cast<const char*>(&values), sizeof values), ...);
  return out;
}

/// Offset of the only occurrence of `pattern` in `bytes`; npos when it is
/// absent or occurs more than once.
std::size_t find_unique(const std::vector<char>& bytes,
                        const std::string& pattern) {
  const auto first = std::search(bytes.begin(), bytes.end(), pattern.begin(),
                                 pattern.end());
  if (first == bytes.end()) return std::string::npos;
  if (std::search(first + 1, bytes.end(), pattern.begin(), pattern.end()) !=
      bytes.end())
    return std::string::npos;
  return static_cast<std::size_t>(first - bytes.begin());
}

/// The serialized transfer fields (active .. phits_left) of an output port.
std::string transfer_bytes(const OutputPort& out) {
  return bytes_of(u32{out.active}, u8{out.active_vc}, u16{out.src_port},
                  u8{out.src_vc}, u32{out.phits_left});
}

/// File offset of the transfer fields of some busy output port (unique in
/// the file; on request one that feeds a router, not a node), and that
/// port.
struct TransferAt {
  std::size_t offset = std::string::npos;
  const OutputPort* out = nullptr;
  RouterId router = 0;
};
TransferAt find_transfer(const SavedRun& run, bool to_router = false) {
  const Network& net = *run.net;
  for (RouterId r = 0; r < net.topo().routers(); ++r) {
    if (!net.router_built(r)) continue;
    for (const OutputPort& out : net.router(r).outputs) {
      if (!out.busy()) continue;
      if (to_router && net.channel(out.channel).is_ejection()) continue;
      const std::size_t at = find_unique(run.bytes, transfer_bytes(out));
      if (at != std::string::npos) return {at, &out, r};
    }
  }
  return {};
}

TEST(CheckpointRestart, RejectsCorruptWheelEvents) {
  const SavedRun run = saved_run();
  const Network& a = *run.net;

  // A transfer that already sent a phit over a router-to-router channel
  // has that phit's event on the wheel: (channel, packet, VC) are its
  // first nine bytes. Nothing else in the file spells that sequence.
  struct Target {
    ChannelId ch;
    PacketId pkt;
    VcId vc;
  };
  std::vector<Target> targets;
  for (RouterId r = 0; r < a.topo().routers(); ++r) {
    if (!a.router_built(r)) continue;
    for (const OutputPort& out : a.router(r).outputs)
      if (out.busy() && out.phits_left < run.cfg.packet_size &&
          !a.channel(out.channel).is_ejection())
        targets.push_back({out.channel, out.active, out.active_vc});
  }
  ASSERT_FALSE(targets.empty());
  ChannelId unwired = kInvalidChannel;
  for (ChannelId c = 0; c < a.num_channels() && unwired == kInvalidChannel;
       ++c)
    if (!a.channel_wired(c)) unwired = c;
  ASSERT_NE(unwired, kInvalidChannel);

  const Target& t = targets.front();
  const std::string pattern = bytes_of(t.ch, t.pkt, t.vc);
  const auto hit = std::search(run.bytes.begin(), run.bytes.end(),
                               pattern.begin(), pattern.end());
  ASSERT_NE(hit, run.bytes.end());
  const std::size_t at = static_cast<std::size_t>(hit - run.bytes.begin());

  // The untouched bytes restore; each corrupted field fails cleanly.
  const u32 same = t.ch;
  EXPECT_EQ(restore_patched(run, at, &same, 4), "");
  const ChannelId past_end = static_cast<ChannelId>(a.num_channels());
  EXPECT_EQ(restore_patched(run, at, &past_end, 4), "corrupt phit wheel");
  EXPECT_EQ(restore_patched(run, at, &unwired, 4), "corrupt phit wheel");
  const VcId bad_vc = 7;  // no port of this config has 8 VCs
  EXPECT_EQ(restore_patched(run, at + 8, &bad_vc, 1), "corrupt phit wheel");
  const PacketId dead = ~PacketId{0} - 1;
  EXPECT_EQ(restore_patched(run, at + 4, &dead, 4), "corrupt phit wheel");
}

TEST(CheckpointRestart, RejectsActiveTransferWithoutLivePacket) {
  const SavedRun run = saved_run();
  const TransferAt t = find_transfer(run);
  ASSERT_NE(t.offset, std::string::npos);
  EXPECT_EQ(restore_patched(run, t.offset, &t.out->active, 4), "");
  // An idle port: its source head's send end still says it streams.
  EXPECT_TRUE(Rejected(restore_patched(run, t.offset, &kInvalidPacket, 4),
                       "vct-atomicity",
                       "says it streams, but 0 outputs stream its head"));
  // A busy port must stream a live packet.
  const PacketId dead = ~PacketId{0} - 1;
  EXPECT_TRUE(Rejected(restore_patched(run, t.offset, &dead, 4),
                       "vct-atomicity",
                       "streams packet " + std::to_string(dead)));
}

TEST(CheckpointRestart, RejectsTransferSourcePortOutOfRange) {
  const SavedRun run = saved_run();
  const TransferAt t = find_transfer(run);
  ASSERT_NE(t.offset, std::string::npos);
  const PortId ports =
      static_cast<PortId>(run.net->topo().ports_per_router());
  EXPECT_TRUE(Rejected(restore_patched(run, t.offset + 5, &ports, 2),
                       "vct-atomicity", "from p" + std::to_string(ports)));
}

TEST(CheckpointRestart, RejectsTransferSourceVcOutOfRange) {
  const SavedRun run = saved_run();
  const TransferAt t = find_transfer(run);
  ASSERT_NE(t.offset, std::string::npos);
  const VcId vcs = static_cast<VcId>(
      run.net->router(t.router).inputs[t.out->src_port].vcs.size());
  EXPECT_TRUE(Rejected(restore_patched(run, t.offset + 7, &vcs, 1),
                       "vct-atomicity",
                       "from p" + std::to_string(t.out->src_port) + "v" +
                           std::to_string(vcs)));
}

TEST(CheckpointRestart, RejectsTransferLengthOtherThanPacket) {
  const SavedRun run = saved_run();
  const TransferAt t = find_transfer(run);
  ASSERT_NE(t.offset, std::string::npos);
  const u32 too_long = run.cfg.packet_size + 1;
  EXPECT_TRUE(Rejected(restore_patched(run, t.offset + 8, &too_long, 4),
                       "vct-atomicity",
                       "and " + std::to_string(too_long) + " left"));
  const u32 none_left = 0;
  EXPECT_TRUE(Rejected(restore_patched(run, t.offset + 8, &none_left, 4),
                       "vct-atomicity", "and 0 left"));
}

TEST(CheckpointRestart, RejectsFifoEntryOfDeadPacket) {
  const SavedRun run = saved_run();
  const Network& net = *run.net;
  for (RouterId r = 0; r < net.topo().routers(); ++r) {
    if (!net.router_built(r)) continue;
    for (const InputPort& in : net.router(r).inputs) {
      for (u32 v = 0; v < in.vcs.size(); ++v) {
        // A waiting head: no transfer names it, so only the FIFO check can
        // catch a dead id there.
        const VcFifo& f = in.vcs[v];
        if (f.empty() || in.head_busy[v] != 0) continue;
        const std::size_t at = find_unique(
            run.bytes, bytes_of(u32{f.head()}, u32{f.entry(0).arrive}));
        if (at == std::string::npos) continue;
        const PacketId live = f.head();
        EXPECT_EQ(restore_patched(run, at, &live, 4), "");
        const PacketId dead = ~PacketId{0} - 1;
        EXPECT_TRUE(Rejected(restore_patched(run, at, &dead, 4),
                             "packet-conservation", "which is not live"));
        return;
      }
    }
  }
  FAIL() << "no FIFO entry with a unique byte pattern";
}

/// The serialized head entry (packet, arrival stamp) of a non-empty FIFO.
std::string head_entry_bytes(const VcFifo& f) {
  return bytes_of(u32{f.head()}, u32{f.entry(0).arrive});
}

/// File offset of the head entry of a non-empty FIFO for which
/// `pick(input port, vc)` holds and whose head entry bytes are unique in
/// the file, and where that FIFO lives.
struct FifoAt {
  std::size_t offset = std::string::npos;
  RouterId router = 0;
  PortId port = 0;
  VcId vc = 0;
};
template <typename Pick>
FifoAt find_fifo(const SavedRun& run, Pick pick) {
  const Network& net = *run.net;
  for (RouterId r = 0; r < net.topo().routers(); ++r) {
    if (!net.router_built(r)) continue;
    const Router& router = net.router(r);
    for (PortId p = 0; p < router.inputs.size(); ++p) {
      const InputPort& in = router.inputs[p];
      for (u32 v = 0; v < in.vcs.size(); ++v) {
        const VcFifo& f = in.vcs[v];
        if (f.empty() || !pick(in, v)) continue;
        const std::size_t at = find_unique(run.bytes, head_entry_bytes(f));
        if (at != std::string::npos) return {at, r, p, static_cast<VcId>(v)};
      }
    }
  }
  return {};
}

TEST(CheckpointRestart, RejectsArrivalStampAfterTheSavedCycle) {
  const SavedRun run = saved_run();
  // A waiting head's stamp is pinned by the auditor; one past the saved
  // cycle is caught while the FIFO is read, before any phit is derived
  // from it.
  const FifoAt fifo = find_fifo(
      run, [](const InputPort& in, u32 v) { return in.head_busy[v] == 0; });
  ASSERT_NE(fifo.offset, std::string::npos);
  const VcFifo& f =
      run.net->router(fifo.router).inputs[fifo.port].vcs[fifo.vc];
  const std::size_t stamp_at = fifo.offset + sizeof(u32);
  const u32 stamp = f.entry(0).arrive;
  EXPECT_EQ(restore_patched(run, stamp_at, &stamp, 4), "");
  const u32 cycle = static_cast<u32>(run.net->state_cycle());
  for (const u32 after : {cycle + 1, cycle + 1000}) {
    EXPECT_EQ(restore_patched(run, stamp_at, &after, 4),
              "FIFO entry arrives after the saved cycle");
  }
  // One cycle early is a stamp a head event could not have left.
  const u32 early = stamp - 1;
  EXPECT_TRUE(Rejected(restore_patched(run, stamp_at, &early, 4),
                       "vct-atomicity", "stamps its arrival"));
}

TEST(CheckpointRestart, RejectsRampEndMoreThanARampPastTheSavedCycle) {
  const SavedRun run = saved_run();
  const Network& net = *run.net;
  const u32 cycle = static_cast<u32>(net.state_cycle());
  const u32 size = run.cfg.packet_size;
  // A port's ramp ends precede its credit counters, which precede its
  // transfer fields. Take a VC whose ramp is still landing.
  for (RouterId r = 0; r < net.topo().routers(); ++r) {
    if (!net.router_built(r)) continue;
    for (const OutputPort& out : net.router(r).outputs) {
      if (!out.busy()) continue;
      const std::size_t transfer = find_unique(run.bytes, transfer_bytes(out));
      if (transfer == std::string::npos) continue;
      const u32 vcs = out.credits.size();
      for (u32 v = 0; v < vcs; ++v) {
        if (out.pending(v, cycle) == 0) continue;
        const std::size_t at = transfer - sizeof(u32) * (2 * vcs - v);
        EXPECT_EQ(restore_patched(run, at, &out.ramp_end[v], 4), "");
        // The last credit of a ramp that started landing by the saved
        // cycle lands within packet_size - 1 cycles of it.
        for (const u32 past : {cycle + size, cycle + 0xFFFFu}) {
          EXPECT_EQ(restore_patched(run, at, &past, 4),
                    "credit ramp ends more than a ramp past the saved cycle");
        }
        return;
      }
    }
  }
  FAIL() << "no busy output beside a landing ramp with unique bytes";
}

TEST(CheckpointRestart, RejectsTwoTransfersOfOneHead) {
  // Two outputs streaming one head: re-point transfer b at transfer a's
  // head. Taking a as the one whose head comes first in (port, VC) order
  // makes the audit meet that head before b's old one, whose send end
  // still says it streams.
  const SavedRun run = saved_run();
  const Network& net = *run.net;
  for (RouterId r = 0; r < net.topo().routers(); ++r) {
    if (!net.router_built(r)) continue;
    std::vector<std::pair<std::size_t, const OutputPort*>> busy;
    for (const OutputPort& out : net.router(r).outputs) {
      const std::size_t at =
          out.busy() ? find_unique(run.bytes, transfer_bytes(out))
                     : std::string::npos;
      if (at != std::string::npos) busy.emplace_back(at, &out);
    }
    if (busy.size() < 2) continue;
    const auto source = [](const OutputPort* out) {
      return std::pair(out->src_port, out->src_vc);
    };
    if (source(busy[1].second) < source(busy[0].second))
      std::swap(busy[0], busy[1]);
    const OutputPort& a = *busy[0].second;
    const OutputPort& b = *busy[1].second;
    EXPECT_TRUE(Rejected(
        restore_patched(run, {{busy[1].first,
                               bytes_of(u32{a.active}, u8{b.active_vc},
                                        u16{a.src_port}, u8{a.src_vc})}}),
        "vct-atomicity", "2 outputs stream"));
    return;
  }
  FAIL() << "no router with two transfers whose bytes are unique";
}

TEST(CheckpointRestart, RejectsCreditCountOtherThanConserved) {
  const SavedRun run = saved_run();
  // A port's credit counters precede its transfer fields.
  const TransferAt t = find_transfer(run, /*to_router=*/true);
  ASSERT_NE(t.offset, std::string::npos);
  const std::size_t at = t.offset - sizeof(u32) * t.out->credits.size();
  EXPECT_EQ(restore_patched(run, at, &t.out->credits[0], 4), "");
  const u32 forged = 0x7fffffff;
  EXPECT_TRUE(Rejected(restore_patched(run, at, &forged, 4),
                       "credit-conservation", "expected capacity"));
}

TEST(CheckpointRestart, RejectsTransferVcPastItsChannel) {
  const SavedRun run = saved_run();
  const TransferAt t = find_transfer(run, /*to_router=*/true);
  ASSERT_NE(t.offset, std::string::npos);
  EXPECT_EQ(restore_patched(run, t.offset + 4, &t.out->active_vc, 1), "");
  // The packet of credits reserved at grant leaves the VC it was granted.
  const VcId past = 200;
  EXPECT_TRUE(Rejected(restore_patched(run, t.offset + 4, &past, 1),
                       "credit-conservation", "expected capacity"));
}

/// File offsets of the packet pool's records. The pool follows the magic,
/// the u32 format version, the config signature (u64 length + bytes), the
/// cycle and three lifetime totals.
struct PoolAt {
  u64 slots = 0;
  std::size_t packets = 0;    ///< slot 0's Packet
  u64 free = 0;               ///< free-list length
  std::size_t free_list = 0;  ///< the first free id
};
PoolAt find_pool(const SavedRun& run) {
  const auto u64_at = [&run](std::size_t at) {
    u64 v = 0;
    std::memcpy(&v, run.bytes.data() + at, sizeof v);
    return v;
  };
  const std::size_t pool = 20 + u64_at(12) + 8 + 3 * 8;
  PoolAt at;
  at.slots = u64_at(pool);
  at.packets = pool + 8;
  at.free = u64_at(at.packets + at.slots * sizeof(Packet));
  at.free_list = at.packets + at.slots * sizeof(Packet) + 8;
  return at;
}

/// The first live slot of the saved pool.
PacketId first_live(const SavedRun& run) {
  PacketId id = 0;
  while (!run.net->packets().is_live(id)) ++id;
  return id;
}

TEST(CheckpointRestart, RejectsFreeListOtherThanDeadSlotsOnce) {
  // Below saturation deliveries outpace injection at times, so the pool
  // has free slots when it is saved.
  const SavedRun run = saved_run(/*load=*/0.3);
  const PoolAt pool = find_pool(run);
  ASSERT_GE(pool.free, 2u);
  PacketId freed = 0;
  std::memcpy(&freed, run.bytes.data() + pool.free_list, sizeof freed);
  EXPECT_EQ(restore_patched(run, pool.free_list, &freed, 4), "");
  // create() pops the free list: an id past the pool would be written out
  // of bounds, a repeated one handed out twice. Restore rejects both before
  // it marks a slot; a live id marks its packet dead while a FIFO queues it.
  const PacketId past = 0x7fffffff;
  EXPECT_EQ(restore_patched(run, pool.free_list, &past, 4),
            "corrupt packet free list");
  EXPECT_EQ(restore_patched(run, pool.free_list + 4, &freed, 4),
            "corrupt packet free list");
  const PacketId live = first_live(run);
  EXPECT_TRUE(Rejected(restore_patched(run, pool.free_list, &live, 4),
                       "packet-conservation", "which is not live"));
}

TEST(CheckpointRestart, RejectsMalformedPacketHeader) {
  const SavedRun run = saved_run();
  const PoolAt pool = find_pool(run);
  const PacketId id = first_live(run);
  const std::size_t at = pool.packets + std::size_t{id} * sizeof(Packet);
  const Dragonfly& topo = run.net->topo();
  const Packet& pkt = run.net->packets().get(id);
  const auto patched = [&](std::size_t field, auto value) {
    return restore_patched(run, at + field, &value, sizeof value);
  };
  EXPECT_EQ(patched(offsetof(Packet, dst_router), pkt.dst_router), "");
  const u32 no_router = topo.routers();
  const u32 no_group = topo.groups();
  for (const std::string& err :
       {patched(offsetof(Packet, src), topo.nodes()),
        patched(offsetof(Packet, dst), topo.nodes()),
        patched(offsetof(Packet, dst_router), no_router),
        patched(offsetof(Packet, dst_router), (pkt.dst_router + 1) % no_router),
        patched(offsetof(Packet, inter_group), no_group),
        patched(offsetof(Packet, inter_router), no_router),
        patched(offsetof(Packet, flag_group), no_group)})
    EXPECT_TRUE(Rejected(err, "packet-conservation", "malformed header"));
}

TEST(CheckpointRestart, RejectedCheckpointRestartsThePoint) {
  SimConfig cfg;
  cfg.h = 2;
  cfg.seed = 5;
  cfg.routing = RoutingKind::kOfar;
  cfg.ring = RingKind::kPhysical;
  const TrafficPattern uniform = TrafficPattern::uniform();
  const RunParams params = RunParams::windows(300, 600);
  const SteadyResult clean = run_steady(cfg, uniform, 0.5, params);
  RunContext ctx;

  // The same point saved at cycle 150, then truncated to half, or resealed
  // as format version 5.
  Network net(cfg);
  net.set_traffic(std::make_unique<BernoulliSource>(uniform, 0.5, cfg.seed));
  net.run(150);
  ctx.checkpoint_path = ckpt_path(test_tag("point").c_str());
  ASSERT_TRUE(CheckpointIO::save(net, ctx.checkpoint_path));
  const std::vector<char> saved = read_bytes(ctx.checkpoint_path);
  std::vector<char> truncated(saved.begin(),
                              saved.begin() + saved.size() / 2);
  std::vector<char> old_version = saved;
  const u32 v5 = 5;
  std::memcpy(old_version.data() + 8, &v5, sizeof v5);
  reseal(old_version);

  for (const std::vector<char>* bytes : {&truncated, &old_version}) {
    write_bytes(ctx.checkpoint_path, *bytes);
    ::testing::internal::CaptureStderr();
    const SteadyResult got = run_steady(cfg, uniform, 0.5, params, ctx);
    const std::string warning = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(warning.find(ctx.checkpoint_path), std::string::npos)
        << warning;
    EXPECT_EQ(got.offered_load, clean.offered_load);
    EXPECT_EQ(got.accepted_load, clean.accepted_load);
    EXPECT_EQ(got.avg_latency, clean.avg_latency);
    EXPECT_EQ(got.stddev_latency, clean.stddev_latency);
    EXPECT_EQ(got.delivered_packets, clean.delivered_packets);
    EXPECT_EQ(got.local_misroutes, clean.local_misroutes);
    EXPECT_EQ(got.global_misroutes, clean.global_misroutes);
    EXPECT_EQ(got.ring_entries, clean.ring_entries);
    EXPECT_EQ(got.stalled_packets, clean.stalled_packets);
    EXPECT_EQ(got.worst_stall, clean.worst_stall);
    EXPECT_EQ(got.mean_hops, clean.mean_hops);
  }
  std::remove(ctx.checkpoint_path.c_str());
}

TEST(CheckpointRestart, RejectsOfferToItsOwnSourceOrNoNode) {
  const SavedRun run = saved_run();
  // An offer is {dst u32, zero u32, birth u64}.
  const std::string head = bytes_of(u32{SavedRun::kOfferDst}, u32{0});
  const std::string birth = bytes_of(u64{SavedRun::kOfferCycle});
  std::size_t at = std::string::npos;
  for (std::size_t i = 0; i + 16 <= run.bytes.size(); ++i) {
    if (std::memcmp(run.bytes.data() + i, head.data(), head.size()) == 0 &&
        std::memcmp(run.bytes.data() + i + 8, birth.data(), 8) == 0) {
      at = i;
      break;
    }
  }
  ASSERT_NE(at, std::string::npos) << "node 0 has no queued offer left";
  const NodeId other = 1;
  EXPECT_EQ(restore_patched(run, at, &other, 4), "");
  const NodeId self = 0;
  EXPECT_EQ(restore_patched(run, at, &self, 4), "corrupt offer destination");
  const NodeId no_node = static_cast<NodeId>(run.net->topo().nodes());
  EXPECT_EQ(restore_patched(run, at, &no_node, 4),
            "corrupt offer destination");
}

TEST(CheckpointRestart, SeriesResumesAndRejectsAnotherShape) {
  // A transient run's latency series rides in the checkpoint, stored with
  // its shape (start, bucket width, bucket count), which must be the shape
  // of the series the restoring protocol installed.
  const std::string path = ckpt_path(test_tag("series").c_str());
  const SimConfig cfg = scale_config(RoutingKind::kOfar);
  const auto fresh = [&cfg] {
    auto net = std::make_unique<Network>(cfg);
    net->set_traffic(saturating_traffic(cfg));
    net->stats().enable_timeseries(64, 800, 100);
    return net;
  };
  const auto a = fresh();
  a->run(300);
  ASSERT_TRUE(CheckpointIO::save(*a, path));
  a->run(300);
  const auto b = fresh();
  std::string err;
  ASSERT_TRUE(CheckpointIO::restore(*b, path, &err)) << err;
  b->run(300);
  const TimeSeries& want = *a->stats().series();
  const TimeSeries& got = *b->stats().series();
  ASSERT_EQ(got.num_buckets(), want.num_buckets());
  for (std::size_t i = 0; i < want.num_buckets(); ++i) {
    EXPECT_EQ(got.bucket(i).sum, want.bucket(i).sum);
    EXPECT_EQ(got.bucket(i).count, want.bucket(i).count);
  }

  // A bucket width of 0 used to be restored and then divide by zero in
  // the next record().
  const std::vector<char> saved = read_bytes(path);
  const std::size_t at =
      find_unique(saved, bytes_of(u64{64}, u32{100}, u64{8}));
  ASSERT_NE(at, std::string::npos);
  for (const std::string& shape :
       {bytes_of(u64{65}, u32{100}, u64{8}), bytes_of(u64{64}, u32{0}, u64{8}),
        bytes_of(u64{64}, u32{100}, u64{9})}) {
    std::vector<char> bytes = saved;
    std::memcpy(bytes.data() + at, shape.data(), shape.size());
    reseal(bytes);
    write_bytes(path, bytes);
    EXPECT_FALSE(CheckpointIO::restore(*fresh(), path, &err));
    EXPECT_EQ(err, "series shape differs from the installed series");
  }
  std::remove(path.c_str());
}

/// A small checkpoint: h=1 OFAR under uniform traffic at 0.1, saved at
/// cycle 200, and a restore of (a variant of) it into a fresh network.
struct SmallRun {
  SimConfig cfg;
  std::vector<char> bytes;

  SmallRun() {
    cfg.h = 1;
    cfg.seed = 7;
    cfg.routing = RoutingKind::kOfar;
    cfg.ring = RingKind::kPhysical;
    Network net(cfg);
    net.set_traffic(traffic());
    net.run(200);
    const std::string path = ckpt_path(test_tag("small").c_str());
    EXPECT_TRUE(CheckpointIO::save(net, path));
    bytes = read_bytes(path);
    std::remove(path.c_str());
  }
  std::unique_ptr<TrafficSource> traffic() const {
    return std::make_unique<BernoulliSource>(TrafficPattern::uniform(), 0.1,
                                             cfg.seed);
  }
  /// Restores `file`; returns the error, "" on success.
  std::string restore(const std::vector<char>& file) const {
    const std::string path = ckpt_path(test_tag("small_bad").c_str());
    write_bytes(path, file);
    Network net(cfg);
    net.set_traffic(traffic());
    std::string err;
    const bool ok = CheckpointIO::restore(net, path, &err);
    std::remove(path.c_str());
    return ok ? std::string() : err;
  }
};

TEST(CheckpointRestart, RejectsEveryByteFlip) {
  // Struct padding, counters no invariant constrains and the checksum
  // itself included: the checksum catches every single-byte change.
  const SmallRun run;
  ASSERT_GT(run.bytes.size(), 4000u);
  ASSERT_EQ(run.restore(run.bytes), "");
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < run.bytes.size(); ++i) {
    std::vector<char> bad = run.bytes;
    bad[i] = static_cast<char>(~bad[i]);
    if (run.restore(bad).empty()) {
      ++accepted;
      ADD_FAILURE() << "flipping byte " << i << " of " << run.bytes.size()
                    << " restored";
    }
    if (accepted > 5) break;
  }
  // Appended or dropped bytes fail too.
  std::vector<char> longer = run.bytes;
  longer.push_back(0);
  EXPECT_EQ(run.restore(longer), "bytes after the checkpoint checksum");
  std::vector<char> shorter(run.bytes.begin(), run.bytes.end() - 1);
  EXPECT_EQ(run.restore(shorter), "truncated checkpoint");
  std::vector<char> flipped = run.bytes;
  flipped[run.bytes.size() / 2] ^= 1;
  EXPECT_EQ(run.restore(flipped), "checkpoint checksum mismatch");
}

TEST(CheckpointRestart, RejectsOtherFormatVersionAndHugeLengths) {
  const SmallRun run;
  const auto patched = [&run](std::size_t at, auto value) {
    std::vector<char> bad = run.bytes;
    std::memcpy(bad.data() + at, &value, sizeof value);
    reseal(bad);
    return run.restore(bad);
  };
  EXPECT_EQ(patched(8, u32{6}), "");
  // v5 files stored the indices restore now rebuilds, v4 files counted
  // phits per FIFO entry and carried one event per phit, v3 files also the
  // Network's RNG and per-tag latency, v2 files each router's
  // active-transfer count.
  EXPECT_EQ(patched(8, u32{5}), "unsupported checkpoint format version");
  EXPECT_EQ(patched(8, u32{4}), "unsupported checkpoint format version");
  EXPECT_EQ(patched(8, u32{3}), "unsupported checkpoint format version");
  EXPECT_EQ(patched(8, u32{2}), "unsupported checkpoint format version");
  EXPECT_EQ(patched(8, u32{1}), "unsupported checkpoint format version");
  // A length prefix is never trusted past the bytes left in the file:
  // neither the signature's nor the pool's (which once could ask for
  // 2^40 packets before reading one).
  EXPECT_EQ(patched(12, u64{1} << 40),
            "length prefix past the end of the checkpoint");
  u64 signature = 0;
  std::memcpy(&signature, run.bytes.data() + 12, sizeof signature);
  const std::size_t pool = 20 + signature + 8 + 3 * 8;
  EXPECT_EQ(patched(pool, u64{1} << 40),
            "length prefix past the end of the checkpoint");
}

TEST(CheckpointRestart, RejectsPiggybackTablesOfAnotherShape) {
  // PB's saturation tables hold one flag per global port. Tables of
  // another size (the file once carried their width h, and 64 passed)
  // overflowed the heap on the next tick.
  SimConfig cfg = scale_config(RoutingKind::kPb);
  cfg.h = 2;
  const auto traffic = [&cfg] { return saturating_traffic(cfg); };
  Network a(cfg);
  a.set_traffic(traffic());
  a.run(100);
  const std::string path = ckpt_path(test_tag("pb").c_str());
  ASSERT_TRUE(CheckpointIO::save(a, path));
  const std::vector<char> saved = read_bytes(path);
  // The file ends with PB's table length, its two tables, the traffic
  // flag and RNG, and the checksum.
  const std::size_t flags = std::size_t{a.topo().routers()} * cfg.h;
  const std::size_t at = saved.size() - 8 - 32 - 1 - 2 * flags - 8;
  u64 stored = 0;
  std::memcpy(&stored, saved.data() + at, sizeof stored);
  ASSERT_EQ(stored, flags);
  for (const u64 length : {u64{a.topo().routers()} * 64, u64{flags - 1}}) {
    std::vector<char> bad = saved;
    std::memcpy(bad.data() + at, &length, sizeof length);
    reseal(bad);
    write_bytes(path, bad);
    Network b(cfg);
    b.set_traffic(traffic());
    std::string err;
    EXPECT_FALSE(CheckpointIO::restore(b, path, &err));
    EXPECT_EQ(err, "corrupt Piggyback state");
  }
  std::remove(path.c_str());
}

TEST(CheckpointRestart, RejectsBurstBudgetsOtherThanOnePerNode) {
  // One budget for 40 nodes once restored, and the next tick read past it.
  SimConfig cfg = scale_config(RoutingKind::kOfar);
  cfg.h = 2;
  cfg.groups = 5;
  const auto burst = [&cfg] {
    return std::make_unique<BurstSource>(TrafficPattern::uniform(), 50,
                                         cfg.seed);
  };
  Network a(cfg);
  ASSERT_EQ(a.topo().nodes(), 40u);
  a.set_traffic(burst());
  a.run(50);
  const std::string path = ckpt_path(test_tag("burst").c_str());
  ASSERT_TRUE(CheckpointIO::save(a, path));
  const std::vector<char> saved = read_bytes(path);
  const auto restore = [&](const std::vector<char>& bytes) {
    write_bytes(path, bytes);
    Network b(cfg);
    b.set_traffic(burst());
    std::string err;
    return CheckpointIO::restore(b, path, &err) ? std::string() : err;
  };
  ASSERT_EQ(restore(saved), "");
  // The file ends with the budget count, 40 budgets and the checksum;
  // remaining_total_ precedes the count.
  const std::size_t count_at = saved.size() - 8 - 40 * 4 - 8;
  u64 count = 0;
  std::memcpy(&count, saved.data() + count_at, sizeof count);
  ASSERT_EQ(count, 40u);

  std::vector<char> one_budget(saved.begin(),
                               saved.begin() + count_at + 8 + 4);
  const u64 one = 1;
  std::memcpy(one_budget.data() + count_at, &one, sizeof one);
  one_budget.resize(one_budget.size() + 8);  // room for the checksum
  reseal(one_budget);
  EXPECT_EQ(restore(one_budget), "corrupt burst budgets");

  std::vector<char> off_by_one = saved;
  ++off_by_one[count_at + 8];  // node 0's budget no longer sums up
  reseal(off_by_one);
  EXPECT_EQ(restore(off_by_one), "corrupt burst budgets");
  std::remove(path.c_str());
}

TEST(CheckpointRestart, MissingFileIsNotAnError) {
  const SimConfig cfg = scale_config(RoutingKind::kOfar);
  Network net(cfg);
  net.set_traffic(saturating_traffic(cfg));
  std::string err;
  EXPECT_FALSE(CheckpointIO::restore(
      net, ::testing::TempDir() + "ofar_no_such_ckpt.bin", &err));
  // The network is untouched: a cold start proceeds normally.
  EXPECT_EQ(net.now(), Cycle{0});
  net.run(64);
  EXPECT_EQ(net.now(), Cycle{64});
}

// ---------------------------------------------------------------------------
// 3. Lazy construction: only touched routers exist.
// ---------------------------------------------------------------------------

TEST(LazyConstruction, IdleNetworkBuildsNoRouters) {
  Network net(scale_config(RoutingKind::kOfar));
  EXPECT_EQ(net.built_router_count(), 0u);
  net.run(128);  // no traffic installed: nothing to build
  EXPECT_EQ(net.built_router_count(), 0u);
}

/// A handful of packets between two fixed nodes: minimal routing touches
/// only the l-g-l path, a few routers out of hundreds.
class SingleFlowSource : public TrafficSource {
 public:
  void tick(Network& net) override {
    if (sent_ < 8) {
      net.offer(/*src=*/0, /*dst=*/200);
      ++sent_;
    }
  }

 private:
  u32 sent_ = 0;
};

TEST(LazyConstruction, SparseTrafficBuildsSparseRouters) {
  const SimConfig cfg = scale_config(RoutingKind::kMin);
  Network net(cfg);
  net.set_traffic(std::make_unique<SingleFlowSource>());
  net.run(2000);
  EXPECT_GT(net.built_router_count(), 0u);
  EXPECT_LT(net.built_router_count(), net.topo().routers() / 4);
  EXPECT_TRUE(net.drained());
}

}  // namespace
}  // namespace ofar
