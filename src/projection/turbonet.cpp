#include "projection/turbonet.hpp"

#include "common/strings.hpp"
#include "projection/link_projector.hpp"

namespace sdt::projection {

Result<TurboNetResult> TurboNetProjector::project(const topo::Topology& topo,
                                                  const PhysicalSwitchSpec& spec,
                                                  int numSwitches,
                                                  const TurboNetOptions& options) {
  if (spec.kind != SwitchKind::kP4) {
    return makeError("TurboNet requires P4 switches");
  }
  // Build the loopback-constrained plant: inter-switch cables and host ports
  // come from the external half; the remaining ports form loopback pairs.
  PlantConfig config;
  config.numSwitches = numSwitches;
  config.spec = spec;
  config.hostPortsPerSwitch = options.hostPortsPerSwitch;
  config.interLinksPerPair = numSwitches > 1 ? options.interLinksPerPair : 0;
  auto plant = buildPlant(config);
  if (!plant) return plant.error();

  // Loopback reservation: only half of the self-link pairs are usable as
  // emulated links (the twin of each pair carries the recirculated copy).
  Plant constrained = std::move(plant).value();
  const std::size_t usable = constrained.selfLinks.size() / 2;
  constrained.selfLinks.resize(usable);

  auto proj = LinkProjector::project(topo, constrained);
  if (!proj) {
    return makeError(strFormat("TurboNet cannot emulate '%s': %s", topo.name().c_str(),
                               proj.error().message.c_str()));
  }
  TurboNetResult result{std::move(proj).value(), std::move(constrained),
                        spec.portSpeed / 2.0};
  return result;
}

}  // namespace sdt::projection
