//! Counterexample honesty: differential replay through both
//! simulation engines.
//!
//! A SAT counterexample is a claim about a design's behaviour, and
//! the claim is only as good as the lowering that produced it. Before
//! any counterexample leaves this crate, it is replayed — inputs set,
//! register cut forced through the state back doors, outputs peeked
//! (or one clock edge stepped for next-state functions) — through the
//! scalar [`Simulator`] *and* the bytecode [`CompiledSimulator`], on
//! both designs. The two engines share only the netlist compiler, so
//! a kernel bug in either one surfaces here. Any disagreement between
//! the SAT model and either engine is reported as a loud
//! [`VerifyError::OracleDisagreement`] internal error rather than a
//! bogus verdict.

use ipd_hdl::{FlatNetlist, Logic, LogicVec};
use ipd_sim::{CompiledSimulator, SimError, Simulator};

use crate::equiv::{Counterexample, EquivConfig, StateAssign};
use crate::error::VerifyError;
use crate::lower::OutId;
use crate::oracle::{Witness, WitnessCheck};

/// The one-vector simulator surface replay needs, so both engines run
/// the exact same script: the scalar engine natively, the compiled
/// engine on lane 0 of a one-lane instance.
trait ReplaySim {
    fn set(&mut self, port: &str, value: &LogicVec) -> Result<(), SimError>;
    fn peek(&mut self, port: &str) -> Result<LogicVec, SimError>;
    fn cycle(&mut self, n: u64) -> Result<(), SimError>;
    fn ff_state(&self, path: &str) -> Option<Logic>;
    fn memory(&self, path: &str) -> Option<LogicVec>;
    fn set_ff(&mut self, path: &str, value: Logic) -> bool;
    fn set_memory(&mut self, path: &str, value: &LogicVec) -> bool;
    fn peek_net(&mut self, net: &str) -> Result<Logic, SimError>;
}

impl ReplaySim for Simulator {
    fn set(&mut self, port: &str, value: &LogicVec) -> Result<(), SimError> {
        Simulator::set(self, port, value.clone())
    }
    fn peek(&mut self, port: &str) -> Result<LogicVec, SimError> {
        Simulator::peek(self, port)
    }
    fn cycle(&mut self, n: u64) -> Result<(), SimError> {
        Simulator::cycle(self, n)
    }
    fn ff_state(&self, path: &str) -> Option<Logic> {
        Simulator::ff_state(self, path)
    }
    fn memory(&self, path: &str) -> Option<LogicVec> {
        Simulator::memory(self, path)
    }
    fn set_ff(&mut self, path: &str, value: Logic) -> bool {
        Simulator::set_ff(self, path, value)
    }
    fn set_memory(&mut self, path: &str, value: &LogicVec) -> bool {
        Simulator::set_memory(self, path, value)
    }
    fn peek_net(&mut self, net: &str) -> Result<Logic, SimError> {
        Simulator::peek_net(self, net)
    }
}

impl ReplaySim for CompiledSimulator {
    fn set(&mut self, port: &str, value: &LogicVec) -> Result<(), SimError> {
        self.set_lane(port, 0, value)
    }
    fn peek(&mut self, port: &str) -> Result<LogicVec, SimError> {
        self.peek_lane(port, 0)
    }
    fn cycle(&mut self, n: u64) -> Result<(), SimError> {
        CompiledSimulator::cycle(self, n)
    }
    fn ff_state(&self, path: &str) -> Option<Logic> {
        self.ff_state_lane(path, 0)
    }
    fn memory(&self, path: &str) -> Option<LogicVec> {
        self.memory_lane(path, 0)
    }
    fn set_ff(&mut self, path: &str, value: Logic) -> bool {
        self.set_ff_lane(path, 0, value)
    }
    fn set_memory(&mut self, path: &str, value: &LogicVec) -> bool {
        self.set_memory_lane(path, 0, value)
    }
    fn peek_net(&mut self, net: &str) -> Result<Logic, SimError> {
        self.peek_net_lane(net, 0)
    }
}

/// Confirms a counterexample against both engines on both designs.
///
/// # Errors
///
/// [`VerifyError::OracleDisagreement`] when any engine observes a
/// value other than the SAT model's prediction; [`VerifyError::Sim`]
/// when replay itself cannot run.
pub fn confirm(
    golden: &FlatNetlist,
    revised: &FlatNetlist,
    cfg: &EquivConfig,
    cex: &Counterexample,
    id: &OutId,
) -> Result<(), VerifyError> {
    // The revised design addresses its own state paths.
    let revised_id = match id {
        OutId::Port { .. } => id.clone(),
        OutId::NextState { path, bit } => {
            let sa = cex
                .state
                .iter()
                .find(|s| &s.golden_path == path)
                .expect("counterexample covers the matched cut");
            OutId::NextState {
                path: sa.revised_path.clone(),
                bit: *bit,
            }
        }
    };
    for (flat, target, expected, side, by_golden_path) in [
        (golden, id, cex.golden_value, "golden", true),
        (revised, &revised_id, cex.revised_value, "revised", false),
    ] {
        let clock = cfg.clock.as_deref();
        let mut scalar = Simulator::from_flat(flat, clock)?;
        replay_one(
            &mut scalar,
            "scalar",
            cex,
            target,
            expected,
            side,
            by_golden_path,
        )?;
        let mut compiled = CompiledSimulator::from_flat(flat, clock, 1)?;
        replay_one(
            &mut compiled,
            "compiled",
            cex,
            target,
            expected,
            side,
            by_golden_path,
        )?;
    }
    Ok(())
}

fn state_path(sa: &StateAssign, by_golden_path: bool) -> &str {
    if by_golden_path {
        &sa.golden_path
    } else {
        &sa.revised_path
    }
}

fn replay_one(
    sim: &mut dyn ReplaySim,
    oracle: &str,
    cex: &Counterexample,
    target: &OutId,
    expected: bool,
    side: &str,
    by_golden_path: bool,
) -> Result<(), VerifyError> {
    let function = format!("{side}:{}", target.display());
    let disagree = |observed: String| VerifyError::OracleDisagreement {
        oracle: oracle.to_owned(),
        function: function.clone(),
        expected: if expected { "1".into() } else { "0".into() },
        observed,
    };
    for (port, value) in &cex.inputs {
        sim.set(port, value)?;
    }
    for sa in &cex.state {
        let path = state_path(sa, by_golden_path);
        let forced = if sa.value.width() == 1 {
            sim.set_ff(path, sa.value.bit(0))
        } else {
            sim.set_memory(path, &sa.value)
        };
        if !forced {
            return Err(disagree(format!("state back door refused '{path}'")));
        }
    }
    let observed = match target {
        OutId::Port { port, bit } => sim.peek(port)?.bit(*bit),
        OutId::NextState { path, bit } => {
            sim.cycle(1)?;
            if *bit == 0 {
                if let Some(v) = sim.ff_state(path) {
                    v
                } else if let Some(word) = sim.memory(path) {
                    word.bit(*bit)
                } else {
                    return Err(disagree(format!("state element '{path}' not found")));
                }
            } else if let Some(word) = sim.memory(path) {
                word.bit(*bit)
            } else {
                return Err(disagree(format!("state element '{path}' not found")));
            }
        }
    };
    if observed != Logic::from_bool(expected) {
        return Err(disagree(format!("{observed:?}")));
    }
    Ok(())
}

/// Confirms an [`Oracle`](crate::Oracle) witness against both engines
/// on the same design: inputs set, state forced, the claimed net (and
/// its partner, for equality refutations) peeked.
///
/// # Errors
///
/// [`VerifyError::OracleDisagreement`] when either engine observes a
/// value other than the witness's prediction; [`VerifyError::Sim`]
/// when replay itself cannot run.
pub(crate) fn confirm_witness(
    flat: &FlatNetlist,
    clock: Option<&str>,
    w: &Witness,
) -> Result<(), VerifyError> {
    let mut scalar = Simulator::from_flat(flat, clock)?;
    replay_witness(&mut scalar, "scalar", w)?;
    let mut compiled = CompiledSimulator::from_flat(flat, clock, 1)?;
    replay_witness(&mut compiled, "compiled", w)?;
    Ok(())
}

/// Two observations agree when equal — or when an expected `X`
/// meets any undriven value (the engines distinguish `X`/`Z`, the
/// dual-rail encoding only tracks known/unknown).
fn witness_agrees(expected: Logic, observed: Logic) -> bool {
    if expected.is_driven() {
        observed == expected
    } else {
        !observed.is_driven()
    }
}

fn apply_witness(sim: &mut dyn ReplaySim, w: &Witness) -> Result<(), VerifyError> {
    for (port, value) in &w.inputs {
        sim.set(port, value)?;
    }
    for (path, value) in &w.state {
        let forced = if value.width() == 1 {
            sim.set_ff(path, value.bit(0))
        } else {
            sim.set_memory(path, value)
        };
        if !forced {
            return Err(VerifyError::OracleDisagreement {
                oracle: "replay".into(),
                function: w.net.clone(),
                expected: "forcible state".into(),
                observed: format!("state back door refused '{path}'"),
            });
        }
    }
    Ok(())
}

fn replay_witness(sim: &mut dyn ReplaySim, oracle: &str, w: &Witness) -> Result<(), VerifyError> {
    let disagree = |expected: String, observed: String| VerifyError::OracleDisagreement {
        oracle: oracle.to_owned(),
        function: w.net.clone(),
        expected,
        observed,
    };
    match &w.check {
        WitnessCheck::NetEquals { value } => {
            apply_witness(sim, w)?;
            let observed = sim.peek_net(&w.net)?;
            if !witness_agrees(*value, observed) {
                return Err(disagree(format!("{value:?}"), format!("{observed:?}")));
            }
        }
        WitnessCheck::NetToggles {
            port,
            bit,
            low,
            high,
        } => {
            for (phase, expected) in [(Logic::Zero, *low), (Logic::One, *high)] {
                apply_witness(sim, w)?;
                let mut v = w
                    .inputs
                    .iter()
                    .find(|(p, _)| p == port)
                    .map(|(_, v)| v.clone())
                    .ok_or_else(|| {
                        disagree(
                            format!("input port '{port}'"),
                            "missing from witness".into(),
                        )
                    })?;
                v.set_bit(*bit, phase);
                sim.set(port, &v)?;
                let observed = sim.peek_net(&w.net)?;
                if !witness_agrees(expected, observed) {
                    return Err(disagree(
                        format!("{expected:?} with {port}[{bit}]={phase:?}"),
                        format!("{observed:?}"),
                    ));
                }
            }
        }
        WitnessCheck::NetsDiffer {
            other,
            value,
            other_value,
        } => {
            apply_witness(sim, w)?;
            let observed = sim.peek_net(&w.net)?;
            if !witness_agrees(*value, observed) {
                return Err(disagree(format!("{value:?}"), format!("{observed:?}")));
            }
            let observed_other = sim.peek_net(other)?;
            if !witness_agrees(*other_value, observed_other) {
                return Err(disagree(
                    format!("{other_value:?} on '{other}'"),
                    format!("{observed_other:?}"),
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::WitnessCheck;
    use ipd_hdl::{Circuit, PortSpec};
    use ipd_techlib::LogicCtx;

    /// `y = a & q` (or `a | q`) with `q` a register on `d`, so replay
    /// must force state through the back door to reach `y`.
    fn gated(or: bool) -> FlatNetlist {
        let mut c = Circuit::new("dut");
        let mut ctx = c.root_ctx();
        let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
        let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
        let d = ctx.add_port(PortSpec::input("d", 1)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
        let q = ctx.wire("q", 1);
        ctx.fd(clk, d, q).unwrap();
        if or {
            ctx.or2(a, q, y).unwrap();
        } else {
            ctx.and2(a, q, y).unwrap();
        }
        FlatNetlist::build(&c).unwrap()
    }

    fn ff_path(flat: &FlatNetlist) -> String {
        Simulator::from_flat(flat, None).unwrap().state_elements()[0].clone()
    }

    fn bit(v: u64) -> LogicVec {
        LogicVec::from_u64(v, 1)
    }

    /// Asserts that `replay` reports a disagreement on each engine
    /// built from `flat`, not only on the first one `confirm*` tries.
    fn rejected_by_each_engine(
        flat: &FlatNetlist,
        replay: impl Fn(&mut dyn ReplaySim, &str) -> Result<(), VerifyError>,
    ) {
        let mut scalar = Simulator::from_flat(flat, None).unwrap();
        let mut compiled = CompiledSimulator::from_flat(flat, None, 1).unwrap();
        for (sim, engine) in [
            (&mut scalar as &mut dyn ReplaySim, "scalar"),
            (&mut compiled, "compiled"),
        ] {
            let r = replay(sim, engine);
            assert!(
                matches!(&r, Err(VerifyError::OracleDisagreement { oracle, .. }) if oracle == engine),
                "{engine}: {r:?}"
            );
        }
    }

    #[test]
    fn counterexample_with_a_flipped_bit_is_rejected() {
        let (golden, revised) = (gated(false), gated(true));
        let cfg = EquivConfig::default();
        let id = OutId::Port {
            port: "y".into(),
            bit: 0,
        };
        // a = 1, q forced to 0: the AND reads 0, the OR reads 1.
        let path = ff_path(&golden);
        let mut cex = Counterexample {
            function: "y[0]".into(),
            inputs: vec![("a".into(), bit(1)), ("d".into(), bit(1))],
            state: vec![StateAssign {
                golden_path: path.clone(),
                revised_path: path,
                value: bit(0),
            }],
            golden_value: false,
            revised_value: true,
        };
        confirm(&golden, &revised, &cfg, &cex, &id).expect("honest counterexample replays");
        cex.revised_value = false;
        assert!(matches!(
            confirm(&golden, &revised, &cfg, &cex, &id),
            Err(VerifyError::OracleDisagreement { .. })
        ));
        rejected_by_each_engine(&revised, |sim, engine| {
            replay_one(sim, engine, &cex, &id, false, "revised", false)
        });
    }

    #[test]
    fn witness_with_a_flipped_bit_is_rejected() {
        let flat = gated(true);
        // a = 0, q forced to 1: the OR reads 1.
        let mut witness = Witness {
            net: "dut/y".into(),
            inputs: vec![("a".into(), bit(0)), ("d".into(), bit(0))],
            state: vec![(ff_path(&flat), bit(1))],
            check: WitnessCheck::NetEquals { value: Logic::One },
        };
        confirm_witness(&flat, None, &witness).expect("honest witness replays");
        witness.check = WitnessCheck::NetEquals { value: Logic::Zero };
        assert!(matches!(
            confirm_witness(&flat, None, &witness),
            Err(VerifyError::OracleDisagreement { .. })
        ));
        rejected_by_each_engine(&flat, |sim, engine| replay_witness(sim, engine, &witness));
    }
}
