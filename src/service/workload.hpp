// Declarative workload description: everything a remote client must send
// for the server to reconstruct a runnable (circuit, noise model) pair.
//
// The wire protocol cannot ship C++ objects, so submissions carry either a
// named-circuit spec (bench_circuits/factory.hpp) or inline OpenQASM text,
// plus a device selector — the same vocabulary the CLI `run` command uses.
// `build_workload` resolves the description into a transpiled/decomposed
// circuit and its device noise model. The CLI and the JSONL server share
// this one resolution path, step by step, so a submitted job equals the
// local run; the CLI only adds what stays local to it (reading a --qasm
// file into `qasm`, a --device-csv calibration in place of a named device)
// and its own error messages.
#pragma once

#include <optional>
#include <string>

#include "circuit/circuit.hpp"
#include "noise/devices.hpp"

namespace rqsim {

struct WorkloadSpec {
  std::string circuit_spec;  // named circuit, e.g. "ghz5", "qv:5:5"
  std::string qasm;          // inline OpenQASM 2.0 (wins over circuit_spec)

  std::string device = "yorktown";  // yorktown | yorktown-directed | artificial | ideal
  unsigned device_qubits = 0;       // artificial/ideal size (0 = circuit size)
  double device_rate = 1e-3;        // artificial single-qubit error rate
  double noise_scale = 1.0;         // multiply every rate
  bool no_transpile = false;        // skip routing, only decompose
};

struct Workload {
  Circuit circuit;  // prepared: transpiled (unless no_transpile) + decomposed
  NoiseModel noise;
  std::string device_name;
  std::size_t swaps_inserted = 0;
};

/// The device names named_device knows, as error messages list them.
inline constexpr const char* kDeviceNames =
    "yorktown | yorktown-directed | artificial | ideal";

/// The logical circuit of `spec`: its inline QASM, else its named circuit.
/// Throws rqsim::Error on malformed input or when both are empty.
Circuit workload_circuit(const WorkloadSpec& spec);

/// The device `spec.device` names, with unscaled rates; an artificial or
/// ideal device with device_qubits 0 gets `circuit_qubits` qubits. Nullopt
/// for an unknown name.
std::optional<DeviceModel> named_device(const WorkloadSpec& spec,
                                        unsigned circuit_qubits);

/// Whether `logical` fits `device` as `spec` prepares it: always when
/// no_transpile is set, else when the device has enough qubits.
bool fits_device(const Circuit& logical, const DeviceModel& device,
                 const WorkloadSpec& spec);

/// `logical` prepared on `device`, which it must fit: every noise rate
/// scaled by noise_scale, and the circuit transpiled onto the coupling map
/// (or only decomposed, with no_transpile).
Workload prepare_workload(const Circuit& logical, DeviceModel device,
                          const WorkloadSpec& spec);

/// Resolve a workload description through the steps above. Throws
/// rqsim::Error on unknown names, malformed QASM, or a circuit larger than
/// the device.
Workload build_workload(const WorkloadSpec& spec);

}  // namespace rqsim
