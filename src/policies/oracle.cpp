#include "policies/oracle.hpp"

namespace flexfetch::policies {

namespace {

core::FlexFetchConfig oracle_config(double loss_rate) {
  // A perfect profile needs no run-time correction; keep the cache filter
  // (it reflects genuine system state, not profile error).
  core::FlexFetchConfig c;
  c.loss_curve = std::make_shared<const energy::ConstantCurve>(loss_rate);
  c.adapt_splice = false;
  c.adapt_stage_audit = false;
  c.adapt_free_rider = true;
  c.adapt_cache_filter = true;
  return c;
}

}  // namespace

OraclePolicy::OraclePolicy(const trace::Trace& future, double loss_rate,
                           Seconds burst_threshold)
    : core::FlexFetchPolicy(oracle_config(loss_rate),
                            core::Profile::from_trace(future, burst_threshold)) {}

}  // namespace flexfetch::policies
