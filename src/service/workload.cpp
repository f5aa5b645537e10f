#include "service/workload.hpp"

#include "bench_circuits/factory.hpp"
#include "circuit/qasm.hpp"
#include "common/error.hpp"
#include "transpile/decompose.hpp"
#include "transpile/transpiler.hpp"

namespace rqsim {

Circuit workload_circuit(const WorkloadSpec& spec) {
  if (!spec.qasm.empty()) {
    return from_qasm(spec.qasm);
  }
  if (!spec.circuit_spec.empty()) {
    return make_named_circuit(spec.circuit_spec);
  }
  throw Error("workload: one of circuit_spec or qasm is required");
}

std::optional<DeviceModel> named_device(const WorkloadSpec& spec,
                                        unsigned circuit_qubits) {
  const unsigned qubits = spec.device_qubits > 0 ? spec.device_qubits : circuit_qubits;
  if (spec.device == "yorktown") {
    return yorktown_device();
  }
  if (spec.device == "yorktown-directed") {
    DeviceModel dev = yorktown_device();
    dev.coupling = CouplingMap::yorktown_directed();
    return dev;
  }
  if (spec.device == "ideal") {
    return ideal_device(qubits);
  }
  if (spec.device == "artificial") {
    return artificial_device(qubits, spec.device_rate);
  }
  return std::nullopt;
}

bool fits_device(const Circuit& logical, const DeviceModel& device,
                 const WorkloadSpec& spec) {
  return spec.no_transpile || logical.num_qubits() <= device.coupling.num_qubits();
}

Workload prepare_workload(const Circuit& logical, DeviceModel device,
                          const WorkloadSpec& spec) {
  Workload out;
  out.device_name = device.name;
  out.noise = spec.noise_scale != 1.0 ? device.noise.scaled(spec.noise_scale)
                                      : std::move(device.noise);
  if (spec.no_transpile) {
    out.circuit = decompose_to_cx_basis(logical);
  } else {
    TranspileResult compiled = transpile(logical, device.coupling);
    out.swaps_inserted = compiled.swaps_inserted;
    out.circuit = std::move(compiled.circuit);
  }
  return out;
}

Workload build_workload(const WorkloadSpec& spec) {
  const Circuit logical = workload_circuit(spec);
  std::optional<DeviceModel> device = named_device(spec, logical.num_qubits());
  if (!device) {
    throw Error("workload: unknown device '" + spec.device + "' (" + kDeviceNames + ")");
  }
  RQSIM_CHECK(fits_device(logical, *device, spec),
              "workload: circuit has more qubits than the device; set "
              "device_qubits or no_transpile");
  return prepare_workload(logical, std::move(*device), spec);
}

}  // namespace rqsim
