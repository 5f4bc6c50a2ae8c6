//! The port-level simulation-model abstraction.
//!
//! A black-box applet exposes *only* this interface: drive inputs,
//! cycle, read outputs. Local circuits, remote applets and behavioral
//! stand-ins all implement it, so a system simulation can mix them
//! freely (the paper's Figure 4).

use ipd_hdl::{Circuit, LogicVec, PortDir};
use ipd_sim::{Simulator, VectorSweep};

use crate::error::CosimError;

/// A port-level simulation model.
pub trait SimModel {
    /// The model's port interface: `(name, dir, width)`.
    fn interface(&mut self) -> Result<Vec<(String, PortDir, u32)>, CosimError>;

    /// Drives an input port.
    ///
    /// # Errors
    ///
    /// Fails for unknown ports or transport failures.
    fn set(&mut self, port: &str, value: LogicVec) -> Result<(), CosimError>;

    /// Advances the model by `n` clock cycles.
    ///
    /// # Errors
    ///
    /// Propagates simulation or transport failures.
    fn cycle(&mut self, n: u32) -> Result<(), CosimError>;

    /// Resets the model to power-on state.
    ///
    /// # Errors
    ///
    /// Propagates simulation or transport failures.
    fn reset(&mut self) -> Result<(), CosimError>;

    /// Reads a port's current value.
    ///
    /// # Errors
    ///
    /// Fails for unknown ports or transport failures.
    fn get(&mut self, port: &str) -> Result<LogicVec, CosimError>;

    /// Runs a batch of independent stimulus vectors and returns every
    /// output port's value per vector.
    ///
    /// Each vector is simulated from power-on: reset, inputs applied,
    /// `cycles` clock edges, outputs sampled. `inputs` holds one value
    /// per vector for each driven input port (all the same length).
    ///
    /// The default implementation replays the vectors one at a time
    /// through [`SimModel::set`]/[`SimModel::cycle`]/[`SimModel::get`];
    /// implementations with a faster path (lane-parallel simulation, a
    /// single network round trip) override it.
    ///
    /// # Errors
    ///
    /// Fails on mismatched vector counts, unknown ports, or
    /// simulation/transport failures.
    fn run_batch(
        &mut self,
        cycles: u32,
        inputs: &[(String, Vec<LogicVec>)],
    ) -> Result<Vec<(String, Vec<LogicVec>)>, CosimError> {
        run_batch_serial(self, cycles, inputs)
    }
}

/// The portable batched-run fallback: one vector at a time through the
/// scalar [`SimModel`] interface. Exposed so overriding models can
/// delegate to it.
///
/// # Errors
///
/// As for [`SimModel::run_batch`].
pub fn run_batch_serial<M: SimModel + ?Sized>(
    model: &mut M,
    cycles: u32,
    inputs: &[(String, Vec<LogicVec>)],
) -> Result<Vec<(String, Vec<LogicVec>)>, CosimError> {
    let vectors = batch_vector_count(inputs)?;
    let out_ports: Vec<String> = model
        .interface()?
        .into_iter()
        .filter(|(_, dir, _)| *dir == PortDir::Output)
        .map(|(name, _, _)| name)
        .collect();
    let mut outputs: Vec<(String, Vec<LogicVec>)> = out_ports
        .iter()
        .map(|p| (p.clone(), Vec::with_capacity(vectors)))
        .collect();
    for k in 0..vectors {
        model.reset()?;
        for (port, values) in inputs {
            model.set(port, values[k].clone())?;
        }
        model.cycle(cycles)?;
        for (slot, port) in outputs.iter_mut().zip(&out_ports) {
            slot.1.push(model.get(port)?);
        }
    }
    Ok(outputs)
}

/// Validates that every port in a batch carries the same number of
/// vectors and returns that count.
///
/// # Errors
///
/// Returns [`CosimError::Wiring`] on a length mismatch.
pub fn batch_vector_count(inputs: &[(String, Vec<LogicVec>)]) -> Result<usize, CosimError> {
    let count = inputs.first().map_or(0, |(_, v)| v.len());
    for (port, values) in inputs {
        if values.len() != count {
            return Err(CosimError::Wiring {
                reason: format!(
                    "batch input {port} carries {} vectors, expected {count}",
                    values.len()
                ),
            });
        }
    }
    Ok(count)
}

impl std::fmt::Debug for dyn SimModel + Send {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("<sim model>")
    }
}

/// A model backed by a local [`Simulator`] — the applet-local case the
/// paper advocates (no network between events).
#[derive(Debug, Clone)]
pub struct LocalSimModel {
    simulator: Simulator,
    sweep: VectorSweep,
}

impl LocalSimModel {
    /// Compiles a circuit into a local model. The circuit is also
    /// lowered for the compiled lane-parallel engine, which
    /// [`SimModel::run_batch`] runs on.
    ///
    /// # Errors
    ///
    /// Propagates simulator compile errors.
    pub fn new(circuit: &Circuit) -> Result<Self, CosimError> {
        Ok(LocalSimModel {
            simulator: Simulator::new(circuit)?,
            sweep: VectorSweep::new(circuit)?,
        })
    }

    /// Access to the underlying simulator (e.g. for waveforms).
    #[must_use]
    pub fn simulator_mut(&mut self) -> &mut Simulator {
        &mut self.simulator
    }
}

impl SimModel for LocalSimModel {
    fn interface(&mut self) -> Result<Vec<(String, PortDir, u32)>, CosimError> {
        Ok(self.simulator.ports())
    }

    fn set(&mut self, port: &str, value: LogicVec) -> Result<(), CosimError> {
        self.simulator.set(port, value)?;
        Ok(())
    }

    fn cycle(&mut self, n: u32) -> Result<(), CosimError> {
        self.simulator.cycle(u64::from(n))?;
        Ok(())
    }

    fn reset(&mut self) -> Result<(), CosimError> {
        self.simulator.reset();
        Ok(())
    }

    fn get(&mut self, port: &str) -> Result<LogicVec, CosimError> {
        Ok(self.simulator.peek(port)?)
    }

    fn run_batch(
        &mut self,
        cycles: u32,
        inputs: &[(String, Vec<LogicVec>)],
    ) -> Result<Vec<(String, Vec<LogicVec>)>, CosimError> {
        let vectors = batch_vector_count(inputs)?;
        let stimuli: Vec<Vec<(String, LogicVec)>> = (0..vectors)
            .map(|k| {
                inputs
                    .iter()
                    .map(|(port, values)| (port.clone(), values[k].clone()))
                    .collect()
            })
            .collect();
        let report = self.sweep.clone().cycles(u64::from(cycles)).run(&stimuli)?;
        // Transpose per-vector output rows into per-port columns.
        let mut outputs: Vec<(String, Vec<LogicVec>)> = self
            .simulator
            .ports()
            .into_iter()
            .filter(|(_, dir, _)| *dir == PortDir::Output)
            .map(|(name, _, _)| (name, Vec::with_capacity(vectors)))
            .collect();
        for row in report.outputs {
            for (port, value) in row {
                if let Some(slot) = outputs.iter_mut().find(|(name, _)| *name == port) {
                    slot.1.push(value);
                }
            }
        }
        Ok(outputs)
    }
}

/// A behavioral stand-in defined by a closure over its input history —
/// the "behavioral models of non-FPGA circuitry" JHDL supports (§2.3).
pub struct BehavioralModel<F>
where
    F: FnMut(&[(String, LogicVec)]) -> Vec<(String, LogicVec)>,
{
    ports: Vec<(String, PortDir, u32)>,
    inputs: Vec<(String, LogicVec)>,
    outputs: Vec<(String, LogicVec)>,
    step: F,
}

impl<F> std::fmt::Debug for BehavioralModel<F>
where
    F: FnMut(&[(String, LogicVec)]) -> Vec<(String, LogicVec)>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BehavioralModel")
            .field("ports", &self.ports.len())
            .finish()
    }
}

impl<F> BehavioralModel<F>
where
    F: FnMut(&[(String, LogicVec)]) -> Vec<(String, LogicVec)>,
{
    /// A behavioral model with the given interface; `step` maps the
    /// current inputs to the next outputs, called once per cycle.
    #[must_use]
    pub fn new(ports: Vec<(String, PortDir, u32)>, step: F) -> Self {
        let inputs = ports
            .iter()
            .filter(|(_, d, _)| *d == PortDir::Input)
            .map(|(n, _, w)| (n.clone(), LogicVec::unknown(*w as usize)))
            .collect();
        let outputs = ports
            .iter()
            .filter(|(_, d, _)| *d == PortDir::Output)
            .map(|(n, _, w)| (n.clone(), LogicVec::unknown(*w as usize)))
            .collect();
        BehavioralModel {
            ports,
            inputs,
            outputs,
            step,
        }
    }
}

impl<F> SimModel for BehavioralModel<F>
where
    F: FnMut(&[(String, LogicVec)]) -> Vec<(String, LogicVec)>,
{
    fn interface(&mut self) -> Result<Vec<(String, PortDir, u32)>, CosimError> {
        Ok(self.ports.clone())
    }

    fn set(&mut self, port: &str, value: LogicVec) -> Result<(), CosimError> {
        match self.inputs.iter_mut().find(|(n, _)| n == port) {
            Some(slot) => {
                slot.1 = value;
                Ok(())
            }
            None => Err(CosimError::UnknownPort {
                port: port.to_owned(),
            }),
        }
    }

    fn cycle(&mut self, n: u32) -> Result<(), CosimError> {
        for _ in 0..n {
            let next = (self.step)(&self.inputs);
            for (name, value) in next {
                if let Some(slot) = self.outputs.iter_mut().find(|(n, _)| *n == name) {
                    slot.1 = value;
                }
            }
        }
        Ok(())
    }

    fn reset(&mut self) -> Result<(), CosimError> {
        for (_, v) in &mut self.outputs {
            *v = LogicVec::unknown(v.width());
        }
        Ok(())
    }

    fn get(&mut self, port: &str) -> Result<LogicVec, CosimError> {
        if let Some((_, v)) = self.outputs.iter().find(|(n, _)| n == port) {
            return Ok(v.clone());
        }
        if let Some((_, v)) = self.inputs.iter().find(|(n, _)| n == port) {
            return Ok(v.clone());
        }
        Err(CosimError::UnknownPort {
            port: port.to_owned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipd_hdl::PortSpec;
    use ipd_techlib::LogicCtx;

    #[test]
    fn local_model_wraps_simulator() {
        let mut c = Circuit::new("inv");
        let mut ctx = c.root_ctx();
        let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
        ctx.inv(a, y).unwrap();
        let mut model = LocalSimModel::new(&c).unwrap();
        assert_eq!(model.interface().unwrap().len(), 2);
        model.set("a", LogicVec::from_u64(1, 1)).unwrap();
        assert_eq!(model.get("y").unwrap().to_u64(), Some(0));
    }

    fn xor_adder() -> Circuit {
        let mut c = Circuit::new("xa");
        let mut ctx = c.root_ctx();
        let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
        let b = ctx.add_port(PortSpec::input("b", 1)).unwrap();
        let s = ctx.add_port(PortSpec::output("s", 1)).unwrap();
        let co = ctx.add_port(PortSpec::output("co", 1)).unwrap();
        ctx.xor2(a, b, s).unwrap();
        ctx.and2(a, b, co).unwrap();
        c
    }

    #[test]
    fn batched_run_matches_serial_fallback() {
        let circuit = xor_adder();
        let inputs: Vec<(String, Vec<LogicVec>)> = vec![
            (
                "a".into(),
                (0..70u64).map(|k| LogicVec::from_u64(k & 1, 1)).collect(),
            ),
            (
                "b".into(),
                (0..70u64)
                    .map(|k| LogicVec::from_u64((k >> 1) & 1, 1))
                    .collect(),
            ),
        ];
        // Lane-parallel path (LocalSimModel::new).
        let mut fast = LocalSimModel::new(&circuit).unwrap();
        let fast_out = fast.run_batch(0, &inputs).unwrap();
        // The serial default path every other SimModel uses.
        let mut slow = LocalSimModel::new(&circuit).unwrap();
        let slow_out = run_batch_serial(&mut slow, 0, &inputs).unwrap();
        assert_eq!(fast_out, slow_out);
        assert_eq!(fast_out.len(), 2);
        for (port, values) in &fast_out {
            assert_eq!(values.len(), 70, "port {port}");
        }
        let s = &fast_out.iter().find(|(p, _)| p == "s").unwrap().1;
        assert_eq!(s[1].to_u64(), Some(1)); // 1 xor 0
        assert_eq!(s[3].to_u64(), Some(0)); // 1 xor 1
    }

    #[test]
    fn batched_run_rejects_ragged_inputs() {
        let mut model = LocalSimModel::new(&xor_adder()).unwrap();
        let ragged = vec![
            ("a".into(), vec![LogicVec::zeros(1); 3]),
            ("b".into(), vec![LogicVec::zeros(1); 2]),
        ];
        assert!(matches!(
            model.run_batch(0, &ragged),
            Err(CosimError::Wiring { .. })
        ));
        // Empty batches are fine: per-port empty columns.
        let out = model.run_batch(0, &[]).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|(_, v)| v.is_empty()));
    }

    #[test]
    fn behavioral_model_steps() {
        let mut counter = 0u64;
        let mut model = BehavioralModel::new(
            vec![
                ("en".into(), PortDir::Input, 1),
                ("count".into(), PortDir::Output, 8),
            ],
            move |inputs| {
                let en = inputs[0].1.to_u64().unwrap_or(0);
                counter += en;
                vec![("count".into(), LogicVec::from_u64(counter, 8))]
            },
        );
        model.set("en", LogicVec::from_u64(1, 1)).unwrap();
        model.cycle(3).unwrap();
        assert_eq!(model.get("count").unwrap().to_u64(), Some(3));
        assert!(model.set("nope", LogicVec::zeros(1)).is_err());
        assert!(model.get("nope").is_err());
    }
}
