//! Sharded stimulus sweeps over the compiled engine.
//!
//! A [`VectorSweep`] runs an arbitrary number of stimulus vectors
//! through a circuit by packing them into 256-lane
//! [`CompiledSimulator`](crate::CompiledSimulator) shards, optionally
//! spreading shards across OS threads with a work-stealing scheduler
//! (the default `threads` cargo feature; sequential otherwise), and
//! reporting per-shard and overall throughput.
//!
//! The circuit is compiled and lowered to bytecode exactly once;
//! every shard shares the program and pays only a plane-arena
//! allocation. A shard holds exactly as many lanes as it has vectors,
//! so a stimulus count that is not a multiple of the lane width never
//! pads with X lanes — partial planes are masked and the throughput
//! stats count real vectors only.
//!
//! Every vector is simulated from power-on: inputs applied, `cycles`
//! clock edges, outputs sampled — the natural shape for exhaustive
//! verification sweeps against a golden model.
//!
//! # Example
//!
//! ```
//! use ipd_hdl::{Circuit, LogicVec, PortSpec};
//! use ipd_sim::VectorSweep;
//! use ipd_techlib::LogicCtx;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut circuit = Circuit::new("xor_gate");
//! let mut ctx = circuit.root_ctx();
//! let a = ctx.add_port(PortSpec::input("a", 1))?;
//! let b = ctx.add_port(PortSpec::input("b", 1))?;
//! let y = ctx.add_port(PortSpec::output("y", 1))?;
//! ctx.xor2(a, b, y)?;
//!
//! let stimuli: Vec<Vec<(String, LogicVec)>> = (0..4u64)
//!     .map(|k| vec![
//!         ("a".to_owned(), LogicVec::from_u64(k & 1, 1)),
//!         ("b".to_owned(), LogicVec::from_u64(k >> 1, 1)),
//!     ])
//!     .collect();
//! let report = VectorSweep::new(&circuit)?.run(&stimuli)?;
//! assert_eq!(report.outputs.len(), 4);
//! let y1 = &report.outputs[1][0];
//! assert_eq!((y1.0.as_str(), y1.1.to_u64()), ("y", Some(1)));
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use ipd_hdl::{Circuit, FlatNetlist, LogicVec, PortDir};

use crate::error::SimError;
use crate::exec::{CompiledSimulator, COMPILED_MAX_LANES};
use crate::graph::NetlistGraph;
use crate::program::Program;

/// One stimulus vector: `(input port, value)` assignments.
pub type Stimulus = Vec<(String, LogicVec)>;

/// Per-vector output rows produced by one shard.
type ShardOutputs = Vec<Vec<(String, LogicVec)>>;

/// Timing for one lane-parallel shard of a sweep.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index in submission order.
    pub shard: usize,
    /// Stimulus vectors simulated by this shard (equals its lane
    /// count: partial final shards are never padded).
    pub vectors: usize,
    /// Wall-clock time the shard spent simulating.
    pub elapsed: Duration,
}

impl ShardStats {
    /// Vectors per second achieved by this shard.
    #[must_use]
    pub fn vectors_per_sec(&self) -> f64 {
        self.vectors as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }
}

/// The result of a sweep: per-vector outputs plus throughput counters.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// For each stimulus vector (in submission order), the value of
    /// every output port after the run.
    pub outputs: Vec<Vec<(String, LogicVec)>>,
    /// Per-shard timing, in shard order.
    pub shards: Vec<ShardStats>,
    /// Total wall-clock time for the whole sweep.
    pub elapsed: Duration,
    /// Shard ranges migrated between workers by the work-stealing
    /// scheduler (0 for sequential or single-worker runs).
    pub steals: u64,
}

impl SweepReport {
    /// Total stimulus vectors simulated.
    #[must_use]
    pub fn total_vectors(&self) -> usize {
        self.outputs.len()
    }

    /// Overall vectors per second (wall clock, across all shards).
    #[must_use]
    pub fn vectors_per_sec(&self) -> f64 {
        self.total_vectors() as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }
}

/// A reusable sweep runner: compile (and lower) once, shard stimulus
/// into lane-parallel batches, run shards across worker threads with
/// work stealing.
#[derive(Debug, Clone)]
pub struct VectorSweep {
    /// Lowered bytecode shared by every shard.
    program: Arc<Program>,
    cycles: u64,
    threads: usize,
}

impl VectorSweep {
    /// Compiles a circuit for sweeping, auto-detecting the clock.
    ///
    /// # Errors
    ///
    /// As for [`CompiledSimulator::new`](crate::CompiledSimulator::new).
    pub fn new(circuit: &Circuit) -> Result<Self, SimError> {
        let flat = FlatNetlist::build(circuit)?;
        Self::from_flat(&flat, None)
    }

    /// Compiles a circuit with an explicit clock port.
    ///
    /// # Errors
    ///
    /// As for [`CompiledSimulator::new`](crate::CompiledSimulator::new).
    pub fn with_clock(circuit: &Circuit, clock_port: &str) -> Result<Self, SimError> {
        let flat = FlatNetlist::build(circuit)?;
        Self::from_flat(&flat, Some(clock_port))
    }

    /// Compiles an already-flattened design.
    ///
    /// # Errors
    ///
    /// As for [`CompiledSimulator::new`](crate::CompiledSimulator::new).
    pub fn from_flat(flat: &FlatNetlist, clock_port: Option<&str>) -> Result<Self, SimError> {
        Ok(VectorSweep {
            program: Program::lower(&NetlistGraph::build(flat, clock_port)?),
            cycles: 0,
            threads: default_threads(),
        })
    }

    /// Clock cycles to run after applying each vector's inputs
    /// (0 = combinational settle only; pipelined circuits need their
    /// latency here).
    #[must_use]
    pub fn cycles(mut self, n: u64) -> Self {
        self.cycles = n;
        self
    }

    /// Caps the number of worker threads (ignored without the
    /// `threads` feature; at least 1).
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Runs every stimulus vector and collects outputs plus
    /// throughput counters.
    ///
    /// # Errors
    ///
    /// Propagates the first set/cycle/peek error from any shard.
    pub fn run(&self, stimuli: &[Stimulus]) -> Result<SweepReport, SimError> {
        let start = Instant::now();
        let jobs: Vec<&[Stimulus]> = stimuli.chunks(COMPILED_MAX_LANES).collect();

        #[cfg(feature = "threads")]
        let (results, steals) = {
            let workers = self.threads.min(jobs.len()).max(1);
            let grain = (jobs.len() / (workers * 4)).clamp(1, 64);
            let (results, stats) = crate::steal::run_steal(jobs.len(), workers, grain, |k| {
                self.run_shard(k, jobs[k])
            })?;
            (results, stats.steals)
        };

        #[cfg(not(feature = "threads"))]
        let (results, steals) = {
            let mut results = Vec::with_capacity(jobs.len());
            for (k, chunk) in jobs.iter().enumerate() {
                results.push(self.run_shard(k, chunk)?);
            }
            (results, 0)
        };

        let mut outputs = Vec::with_capacity(stimuli.len());
        let mut shards = Vec::with_capacity(results.len());
        for (mut shard_outputs, stats) in results {
            outputs.append(&mut shard_outputs);
            shards.push(stats);
        }
        Ok(SweepReport {
            outputs,
            shards,
            elapsed: start.elapsed(),
            steals,
        })
    }

    /// Runs one shard with exactly `chunk.len()` lanes.
    fn run_shard(
        &self,
        shard: usize,
        chunk: &[Stimulus],
    ) -> Result<(ShardOutputs, ShardStats), SimError> {
        let t0 = Instant::now();
        let mut sim = CompiledSimulator::from_program(Arc::clone(&self.program), chunk.len())?;
        for (lane, stim) in chunk.iter().enumerate() {
            for (port, value) in stim {
                sim.set_lane(port, lane, value)?;
            }
        }
        sim.cycle(self.cycles)?;
        let out_ports = output_ports(&sim.ports());
        let mut per_port = Vec::with_capacity(out_ports.len());
        for port in &out_ports {
            per_port.push(sim.peek_lanes(port)?);
        }
        let outputs: Vec<Vec<(String, LogicVec)>> = (0..chunk.len())
            .map(|lane| {
                out_ports
                    .iter()
                    .zip(&per_port)
                    .map(|(name, values)| (name.clone(), values[lane].clone()))
                    .collect()
            })
            .collect();
        Ok((
            outputs,
            ShardStats {
                shard,
                vectors: chunk.len(),
                elapsed: t0.elapsed(),
            },
        ))
    }
}

/// Names of the output ports, in port order.
fn output_ports(ports: &[(String, PortDir, u32)]) -> Vec<String> {
    ports
        .iter()
        .filter(|(_, dir, _)| *dir == PortDir::Output)
        .map(|(name, _, _)| name.clone())
        .collect()
}

/// Worker count: one per available core, at least 1.
fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
