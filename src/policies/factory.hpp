// Construction of the standard policy set compared in the paper's
// evaluation, used by the benchmark harness and examples.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/flexfetch.hpp"
#include "policies/bluefs.hpp"
#include "policies/fixed.hpp"
#include "policies/oracle.hpp"

namespace flexfetch::policies {

/// Builds one of: "disk-only", "wnic-only", "bluefs", "flexfetch",
/// "flexfetch-static", "flexfetch-adaptive:<curve>", "oracle". FlexFetch
/// variants need `profiles` (the recorded prior-run profiles); Oracle
/// needs `future` (the trace to be replayed). Every FlexFetch variant and
/// Oracle samples a loss-rate curve: "flexfetch", "flexfetch-static" and
/// "oracle" the constant `loss_rate`, the adaptive form the curve parsed by
/// energy::make_loss_curve (e.g. "flexfetch-adaptive:linear",
/// "flexfetch-adaptive:horizon-ratio@1800:0.05:0.5"), with `loss_rate` as
/// the fallback rate for a bare "constant". "flexfetch-adaptive:constant@R"
/// is therefore "flexfetch" at rate R, and both are named "FlexFetch".
/// Throws ConfigError for unknown names, malformed curve specs, negative
/// rates, or missing inputs.
std::unique_ptr<sim::Policy> make_policy(
    const std::string& name,
    const std::vector<core::Profile>& profiles = {},
    const trace::Trace* future = nullptr,
    double loss_rate = 0.25);

/// The four policies of Figures 1-3 in paper order.
std::vector<std::string> standard_policy_names();

}  // namespace flexfetch::policies
