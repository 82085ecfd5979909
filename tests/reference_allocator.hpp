// ReferenceAllocator: the original per-port-vector implementation of the
// iterative separable batch allocator (paper §V), kept verbatim as the
// executable specification of SeparableAllocator (sim/allocator.hpp).
// Only tests/test_alloc_equiv.cpp uses it: it pits the packed kernel
// against this one over randomized and exhaustive-small request matrices.
#pragma once

#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "sim/allocator.hpp"
#include "sim/router.hpp"

namespace ofar {

class ReferenceAllocator {
 public:
  explicit ReferenceAllocator(u32 max_ports)
      : by_input_(max_ports),
        by_output_(max_ports),
        matched_in_(max_ports, 0),
        matched_out_(max_ports, 0) {
    for (auto& lane : by_input_) lane.reserve(8);
    for (auto& lane : by_output_) lane.reserve(8);
    touched_inputs_.reserve(max_ports);
    touched_outputs_.reserve(max_ports);
    vc_candidates_.reserve(8);
    in_candidates_.reserve(max_ports);
  }

  /// Same contract as SeparableAllocator::run.
  void run(Router& router, std::vector<AllocRequest>& reqs, u32 iterations,
           Cycle now) {
    if (reqs.empty()) return;

    touched_inputs_.clear();
    for (u32 i = 0; i < reqs.size(); ++i) {
      OFAR_DCHECK(reqs[i].choice.valid);
      const PortId in = reqs[i].in_port;
      if (by_input_[in].empty()) touched_inputs_.push_back(in);
      by_input_[in].push_back(i);
      matched_in_[in] = 0;
      matched_out_[reqs[i].choice.out_port] = 0;
    }

    for (u32 it = 0; it < iterations; ++it) {
      // ---- stage 1: per-input VC arbitration (LRS over VC index) ----
      touched_outputs_.clear();
      bool any = false;
      for (const u32 in : touched_inputs_) {
        if (matched_in_[in]) continue;
        vc_candidates_.clear();
        for (const u32 ri : by_input_[in]) {
          const AllocRequest& rq = reqs[ri];
          if (!matched_out_[rq.choice.out_port])
            vc_candidates_.push_back(rq.in_vc);
        }
        if (vc_candidates_.empty()) continue;
        const u32 vc = router.input_arb[in].pick(vc_candidates_);
        for (const u32 ri : by_input_[in]) {
          if (reqs[ri].in_vc == vc &&
              !matched_out_[reqs[ri].choice.out_port]) {
            const PortId out = reqs[ri].choice.out_port;
            if (by_output_[out].empty()) touched_outputs_.push_back(out);
            by_output_[out].push_back(ri);
            any = true;
            break;
          }
        }
      }
      if (!any) break;

      // ---- stage 2: per-output input arbitration (LRS over input port) ----
      for (const u32 out : touched_outputs_) {
        if (by_output_[out].empty()) continue;
        if (!matched_out_[out]) {
          in_candidates_.clear();
          for (const u32 ri : by_output_[out])
            in_candidates_.push_back(reqs[ri].in_port);
          const u32 winner_in = router.output_arb[out].pick(in_candidates_);
          for (const u32 ri : by_output_[out]) {
            AllocRequest& rq = reqs[ri];
            if (rq.in_port != winner_in) continue;
            rq.granted = true;
            matched_in_[winner_in] = 1;
            matched_out_[out] = 1;
            router.input_arb[winner_in].grant(rq.in_vc, now);
            router.output_arb[out].grant(winner_in, now);
            break;
          }
        }
        by_output_[out].clear();
      }
    }

    // Leave scratch clean for the next router.
    for (const u32 in : touched_inputs_) by_input_[in].clear();
    for (const u32 out : touched_outputs_) by_output_[out].clear();
  }

 private:
  std::vector<std::vector<u32>> by_input_;   // request idx per input port
  std::vector<std::vector<u32>> by_output_;  // request idx per output port
  std::vector<u8> matched_in_;
  std::vector<u8> matched_out_;
  std::vector<u32> touched_inputs_;   // input ports with requests this cycle
  std::vector<u32> touched_outputs_;  // output ports forwarded to, stage 2
  std::vector<u32> vc_candidates_;
  std::vector<u32> in_candidates_;
};

}  // namespace ofar
