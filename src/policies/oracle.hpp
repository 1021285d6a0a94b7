// Oracle policy: FlexFetch given a *perfect* profile — the burst structure
// of the very trace about to be replayed. A reference for the ablation
// study (how much does a one-run-old profile change against the run's own
// profile?), not a bound: it still decides per stage with FlexFetch's
// estimates, and FlexFetch can beat it (Ablation D: 0.882x the Oracle's
// energy on thunderbird).
#pragma once

#include "core/flexfetch.hpp"
#include "trace/trace.hpp"

namespace flexfetch::policies {

class OraclePolicy : public core::FlexFetchPolicy {
 public:
  /// `burst_threshold` <= 0 uses the disk access time, as FlexFetch does.
  explicit OraclePolicy(const trace::Trace& future,
                        double loss_rate = 0.25,
                        Seconds burst_threshold = Seconds{0.020});

  std::string name() const override { return "Oracle"; }
};

}  // namespace flexfetch::policies
