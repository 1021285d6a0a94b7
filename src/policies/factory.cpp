#include "policies/factory.hpp"

#include <string_view>

#include "common/error.hpp"
#include "energy/loss_curve.hpp"

namespace flexfetch::policies {

std::unique_ptr<sim::Policy> make_policy(const std::string& name,
                                         const std::vector<core::Profile>& profiles,
                                         const trace::Trace* future,
                                         double loss_rate) {
  if (name == "disk-only") return std::make_unique<DiskOnlyPolicy>();
  if (name == "wnic-only") return std::make_unique<WnicOnlyPolicy>();
  if (name == "bluefs") return std::make_unique<BlueFSPolicy>();
  // FlexFetch samples a loss-rate curve on every decision. The plain names
  // use the constant `loss_rate`; "flexfetch-adaptive:<curve-spec>" takes
  // anything energy::make_loss_curve accepts ("linear", "constant@0.25",
  // "horizon-ratio@1800:0.05:0.5", ...), with `loss_rate` as the fallback
  // rate for a bare "constant".
  constexpr std::string_view kAdaptivePrefix = "flexfetch-adaptive:";
  const bool adaptive = name.rfind(kAdaptivePrefix, 0) == 0;
  if (adaptive || name == "flexfetch" || name == "flexfetch-static") {
    FF_REQUIRE(!profiles.empty(), "make_policy: FlexFetch needs profiles");
    core::FlexFetchConfig config = name == "flexfetch-static"
                                       ? core::FlexFetchConfig::static_variant()
                                       : core::FlexFetchConfig{};
    config.loss_curve =
        adaptive ? energy::make_loss_curve(
                       name.substr(kAdaptivePrefix.size()), loss_rate)
                 : std::make_unique<energy::ConstantCurve>(loss_rate);
    return std::make_unique<core::FlexFetchPolicy>(config, profiles);
  }
  if (name == "oracle") {
    FF_REQUIRE(future != nullptr, "make_policy: Oracle needs the future trace");
    return std::make_unique<OraclePolicy>(*future, loss_rate);
  }
  throw ConfigError("unknown policy '" + name + "'");
}

std::vector<std::string> standard_policy_names() {
  return {"flexfetch", "bluefs", "disk-only", "wnic-only"};
}

}  // namespace flexfetch::policies
