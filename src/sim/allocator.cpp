#include "sim/allocator.hpp"

#include <bit>

#include "common/check.hpp"

namespace ofar {

// ---------------------------------------------------------------------------
// SeparableAllocator — packed bitmask kernel
// ---------------------------------------------------------------------------

SeparableAllocator::SeparableAllocator(u32 max_ports)
    : max_ports_(max_ports),
      req_at_(static_cast<std::size_t>(max_ports) * kMaxVcs, 0),
      vc_req_(max_ports, 0),
      fwd_mask_(max_ports, 0),
      fwd_req_(static_cast<std::size_t>(max_ports) * max_ports, 0) {
  OFAR_DCHECK(max_ports <= 64);
}

void SeparableAllocator::run(Router& router, std::vector<AllocRequest>& reqs,
                             u32 iterations, Cycle now) {
  if (reqs.empty()) return;
  OFAR_DCHECK(reqs.size() <= 0xFFFF);  // req_at_/fwd_req_ hold u16 indices

  // Build the packed request matrix. At most one request exists per
  // (in_port, in_vc) — each pair has a single head packet — so req_at_ is a
  // perfect map. vc_req_ is cleared lazily via in_mask.
  u64 in_mask = 0;  // inputs with at least one request
  for (u32 i = 0; i < reqs.size(); ++i) {
    OFAR_DCHECK(reqs[i].choice.valid);
    const u32 in = reqs[i].in_port;
    const u32 vc = reqs[i].in_vc;
    OFAR_DCHECK(in < max_ports_);
    OFAR_DCHECK(vc < kMaxVcs);
    if ((in_mask >> in & 1u) == 0) {
      in_mask |= u64{1} << in;
      vc_req_[in] = 0;
    }
    OFAR_DCHECK((vc_req_[in] >> vc & 1u) == 0);
    vc_req_[in] |= static_cast<u8>(1u << vc);
    req_at_[in * kMaxVcs + vc] = static_cast<u16>(i);
  }

  u64 unmatched_in = in_mask;
  u64 matched_out = 0;

  for (u32 it = 0; it < iterations; ++it) {
    // ---- stage 1: per-input VC arbitration (LRS over VC index) ----
    // Each unmatched input forwards at most one request — the LRS pick
    // among its VCs whose chosen output is still unmatched.
    u64 fwd_any = 0;  // outputs forwarded to this iteration
    for (u64 scan = unmatched_in; scan != 0; scan &= scan - 1) {
      const u32 in = static_cast<u32>(std::countr_zero(scan));
      u64 eligible = 0;
      for (u32 vcs = vc_req_[in]; vcs != 0; vcs &= vcs - 1) {
        const u32 vc = static_cast<u32>(std::countr_zero(vcs));
        const AllocRequest& rq = reqs[req_at_[in * kMaxVcs + vc]];
        if ((matched_out >> rq.choice.out_port & 1u) == 0)
          eligible |= u64{1} << vc;
      }
      if (eligible == 0) continue;
      const u32 vc = router.input_arb[in].pick_mask(eligible);
      const u32 ri = req_at_[in * kMaxVcs + vc];
      const u32 out = reqs[ri].choice.out_port;
      if ((fwd_any >> out & 1u) == 0) {
        fwd_any |= u64{1} << out;
        fwd_mask_[out] = 0;
      }
      fwd_mask_[out] |= u64{1} << in;
      fwd_req_[out * max_ports_ + in] = static_cast<u16>(ri);
    }
    if (fwd_any == 0) break;

    // ---- stage 2: per-output input arbitration (LRS over input port) ----
    // Outputs are independent within an iteration (each input forwarded to
    // at most one output), so ascending-bit order is equivalent to the
    // reference's insertion order.
    for (u64 outs = fwd_any; outs != 0; outs &= outs - 1) {
      const u32 out = static_cast<u32>(std::countr_zero(outs));
      const u32 winner_in = router.output_arb[out].pick_mask(fwd_mask_[out]);
      AllocRequest& rq = reqs[fwd_req_[out * max_ports_ + winner_in]];
      rq.granted = true;
      unmatched_in &= ~(u64{1} << winner_in);
      matched_out |= u64{1} << out;
      router.input_arb[winner_in].grant(rq.in_vc, now);
      router.output_arb[out].grant(winner_in, now);
    }
  }
}

}  // namespace ofar
