//! The levelized structural model of a flattened netlist.
//!
//! [`NetlistGraph::build`] does the structural work every
//! netlist-level engine needs: clock-net discovery through buffer
//! trees, single-driver checking, separation of combinational
//! evaluation nodes from sequential updates, and Kahn levelization of
//! the combinational network. It is the one model of a design in this
//! crate: the scalar [`Simulator`](crate::Simulator) executes it
//! directly, the lane-parallel engine lowers it to bytecode, and the
//! `ipd-verify` formal checker reads it, so all of them share the
//! exact same structural interpretation of a design.

use std::collections::HashMap;
use std::sync::Arc;

use ipd_hdl::{FlatKind, FlatNetlist, Logic, NetId, PortDir};
use ipd_techlib::{FfControl, PrimClass, PrimKind};

use crate::error::SimError;

/// How one combinational node computes its output net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CombKind {
    /// A combinational primitive (inputs in port-declaration order).
    Prim(PrimKind),
    /// Asynchronous tap read of shift register `seq` (inputs are the
    /// four address nets, LSB first).
    SrlRead {
        /// Index into [`NetlistGraph::seq`], which is also the
        /// element's state index in both simulators.
        seq: usize,
    },
    /// Asynchronous word read of RAM `seq` (inputs are the four
    /// address nets, LSB first).
    RamRead {
        /// Index into [`NetlistGraph::seq`].
        seq: usize,
    },
}

/// One node of the combinational evaluation network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombEval {
    /// What the node computes.
    pub kind: CombKind,
    /// Input nets in evaluation order.
    pub inputs: Vec<NetId>,
    /// The single driven output net.
    pub output: NetId,
}

/// The clock-edge behaviour of one sequential element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeqKind {
    /// Edge-triggered flip-flop.
    Ff {
        /// Data input net.
        d: NetId,
        /// Clock-enable net, when the primitive has one.
        ce: Option<NetId>,
        /// Clear/reset control. At cycle granularity async clear and
        /// sync reset behave identically: control high forces 0.
        control: Option<(FfControl, NetId)>,
        /// Power-on value.
        init: Logic,
        /// The output net the state drives.
        q: NetId,
    },
    /// 16-bit shift register (tap reads appear as [`CombKind::SrlRead`]
    /// nodes).
    Srl16 {
        /// Data input net.
        d: NetId,
        /// Clock-enable net.
        ce: NetId,
        /// Power-on contents.
        init: u16,
    },
    /// 16×1 RAM with synchronous write (reads appear as
    /// [`CombKind::RamRead`] nodes).
    Ram16 {
        /// Data input net.
        d: NetId,
        /// Write-enable net.
        we: NetId,
        /// Write address nets, LSB first.
        addr: [NetId; 4],
        /// Power-on contents.
        init: u16,
    },
}

impl SeqKind {
    /// Number of state bits this element holds (1 for a flip-flop,
    /// 16 for shift registers and RAMs).
    #[must_use]
    pub fn state_bits(&self) -> usize {
        match self {
            SeqKind::Ff { .. } => 1,
            SeqKind::Srl16 { .. } | SeqKind::Ram16 { .. } => 16,
        }
    }
}

/// One sequential element with its hierarchical instance path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqElem {
    /// Full hierarchical instance path (stable across engines; the
    /// same string the simulators' `state_elements` report).
    pub path: String,
    /// Edge behaviour.
    pub kind: SeqKind,
}

/// A primary port with its resolved bit nets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortNets {
    /// Port name.
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// Net per bit, LSB first.
    pub nets: Vec<NetId>,
}

/// The levelized structural model of a flattened design: the graph
/// both simulation engines execute, exposed for static analyses that
/// must agree with them.
#[derive(Debug, Clone)]
pub struct NetlistGraph {
    /// Number of single-bit nets.
    pub net_count: usize,
    /// Net names, indexed by [`NetId::index`].
    pub net_names: Vec<String>,
    /// Combinational nodes. The first [`NetlistGraph::acyclic_prefix`]
    /// entries are in topological (levelized) order; any remainder
    /// belongs to combinational cycles.
    pub eval_order: Vec<CombEval>,
    /// Length of the topologically sorted acyclic prefix of
    /// `eval_order`; equal to `eval_order.len()` iff the design is
    /// loop-free.
    pub acyclic_prefix: usize,
    /// Sequential elements in leaf order.
    pub seq: Vec<SeqElem>,
    /// Constant-driven nets (GND/VCC rails).
    pub const_drives: Vec<(NetId, Logic)>,
    /// Nets driven by protected black boxes (simulate as `X`).
    pub black_box_outputs: Vec<NetId>,
    /// Primary ports with resolved bit nets.
    pub ports: Vec<PortNets>,
    /// Nets carrying the global clock (the clock port plus everything
    /// reached through clock buffers).
    pub clock_nets: Vec<NetId>,
    /// Net lookup by name, shared with every engine built from the
    /// graph.
    pub(crate) name_to_net: Arc<HashMap<String, NetId>>,
}

impl NetlistGraph {
    /// Builds the graph for a flattened design. `clock_port` selects
    /// the global clock input; when `None` an input named `clk`, `c`
    /// or `clock` is auto-detected (sequential-free designs need no
    /// clock at all).
    ///
    /// # Errors
    ///
    /// As for simulator construction: inout ports, unknown
    /// primitives, multiple drivers and gated clocks are rejected.
    pub fn build(flat: &FlatNetlist, clock_port: Option<&str>) -> Result<Self, SimError> {
        let net_count = flat.net_count();
        let net_names: Vec<String> = flat.nets().iter().map(|n| n.name.clone()).collect();
        let name_to_net = net_names
            .iter()
            .enumerate()
            .map(|(i, name)| (name.clone(), NetId::from_index(i)))
            .collect();

        let mut ports = Vec::new();
        for p in flat.ports() {
            if p.dir == PortDir::Inout {
                return Err(SimError::InoutUnsupported {
                    port: p.name.clone(),
                });
            }
            ports.push(PortNets {
                name: p.name.clone(),
                dir: p.dir,
                nets: p.nets.clone(),
            });
        }

        // Clock nets: the nets of the designated clock port plus
        // anything reached through clock buffers, to a fixpoint.
        let clock_name = clock_port.map(str::to_owned).or_else(|| {
            ports
                .iter()
                .find(|p| {
                    p.dir == PortDir::Input
                        && (p.name == "clk" || p.name == "c" || p.name == "clock")
                })
                .map(|p| p.name.clone())
        });
        let mut is_clock = vec![false; net_count];
        let mut clock_nets = Vec::new();
        if let Some(p) = clock_name.and_then(|name| ports.iter().find(|p| p.name == name)) {
            for &n in &p.nets {
                if !is_clock[n.index()] {
                    is_clock[n.index()] = true;
                    clock_nets.push(n);
                }
            }
        }
        loop {
            let mut changed = false;
            for leaf in flat.leaves() {
                let FlatKind::Primitive(prim) = &leaf.kind else {
                    continue;
                };
                if prim.name == "buf" || prim.name == "bufg" {
                    let (Some(i), Some(o)) = (leaf.conn("i"), leaf.conn("o")) else {
                        continue;
                    };
                    let (i, o) = (i.nets[0], o.nets[0]);
                    if is_clock[i.index()] && !is_clock[o.index()] {
                        is_clock[o.index()] = true;
                        clock_nets.push(o);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        let mut eval_nodes = Vec::new();
        let mut seq = Vec::new();
        let mut const_drives = Vec::new();
        let mut black_box_outputs = Vec::new();
        let mut driver_count = vec![0u8; net_count];
        let mut note_driver = |net: NetId| {
            driver_count[net.index()] = driver_count[net.index()].saturating_add(1);
        };
        for p in &ports {
            if p.dir == PortDir::Input {
                p.nets.iter().copied().for_each(&mut note_driver);
            }
        }

        for leaf in flat.leaves() {
            let prim = match &leaf.kind {
                FlatKind::BlackBox(_) => {
                    for conn in leaf.conns.iter().filter(|c| c.dir != PortDir::Input) {
                        for &n in &conn.nets {
                            black_box_outputs.push(n);
                            note_driver(n);
                        }
                    }
                    continue;
                }
                FlatKind::Primitive(prim) => prim,
            };
            let kind = PrimKind::from_primitive(prim)?;
            let conn1 = |name: &str| -> NetId { leaf.conn(name).expect("port exists").nets[0] };
            let class = kind.class();
            if matches!(
                class,
                PrimClass::Ff { .. } | PrimClass::Srl16 | PrimClass::Ram16
            ) && !is_clock[conn1("c").index()]
            {
                return Err(SimError::UnsupportedClock {
                    instance: leaf.path.clone(),
                });
            }
            // Sequential elements are numbered in `seq` order; memory
            // read nodes name their element by that index.
            let mut push_seq = |kind: SeqKind| {
                seq.push(SeqElem {
                    path: leaf.path.clone(),
                    kind,
                });
                seq.len() - 1
            };
            match class {
                PrimClass::Const(v) => {
                    let o = conn1("o");
                    const_drives.push((o, v));
                    note_driver(o);
                }
                PrimClass::Comb | PrimClass::Rom16 => {
                    // Inputs in port-declaration order.
                    let mut inputs = Vec::new();
                    let mut output = None;
                    for spec in kind.ports() {
                        let conn = leaf.conn(&spec.name).expect("port exists");
                        match spec.dir {
                            PortDir::Input => inputs.extend(conn.nets.iter().copied()),
                            _ => output = Some(conn.nets[0]),
                        }
                    }
                    let output = output.expect("comb prim has output");
                    note_driver(output);
                    eval_nodes.push(CombEval {
                        kind: CombKind::Prim(kind),
                        inputs,
                        output,
                    });
                }
                PrimClass::Ff { has_ce, control } => {
                    let q = conn1("q");
                    note_driver(q);
                    push_seq(SeqKind::Ff {
                        d: conn1("d"),
                        ce: has_ce.then(|| conn1("ce")),
                        control: match control {
                            FfControl::None => None,
                            FfControl::AsyncClear => Some((FfControl::AsyncClear, conn1("clr"))),
                            FfControl::SyncReset => Some((FfControl::SyncReset, conn1("r"))),
                        },
                        init: match kind {
                            PrimKind::Ff { init, .. } => init,
                            _ => Logic::Zero,
                        },
                        q,
                    });
                }
                PrimClass::Srl16 => {
                    let q = conn1("q");
                    note_driver(q);
                    let elem = push_seq(SeqKind::Srl16 {
                        d: conn1("d"),
                        ce: conn1("ce"),
                        init: match kind {
                            PrimKind::Srl16 { init } => init,
                            _ => 0,
                        },
                    });
                    eval_nodes.push(CombEval {
                        kind: CombKind::SrlRead { seq: elem },
                        inputs: leaf.conn("a").expect("srl addr").nets.clone(),
                        output: q,
                    });
                }
                PrimClass::Ram16 => {
                    let o = conn1("o");
                    note_driver(o);
                    let addr = leaf.conn("a").expect("ram addr").nets.clone();
                    let elem = push_seq(SeqKind::Ram16 {
                        d: conn1("d"),
                        we: conn1("we"),
                        addr: [addr[0], addr[1], addr[2], addr[3]],
                        init: match kind {
                            PrimKind::Ram16x1 { init } => init,
                            _ => 0,
                        },
                    });
                    eval_nodes.push(CombEval {
                        kind: CombKind::RamRead { seq: elem },
                        inputs: addr,
                        output: o,
                    });
                }
            }
        }

        if let Some(i) = driver_count.iter().position(|&count| count > 1) {
            return Err(SimError::MultipleDrivers {
                net: net_names[i].clone(),
            });
        }

        let (eval_order, acyclic_prefix) = levelize(eval_nodes, net_count);
        Ok(NetlistGraph {
            net_count,
            net_names,
            eval_order,
            acyclic_prefix,
            seq,
            const_drives,
            black_box_outputs,
            ports,
            clock_nets,
            name_to_net: Arc::new(name_to_net),
        })
    }

    /// `true` when the combinational network is loop-free (every node
    /// sits in the topologically sorted prefix).
    #[must_use]
    pub fn levelized(&self) -> bool {
        self.acyclic_prefix == self.eval_order.len()
    }

    /// `true` when `net` carries the global clock.
    #[must_use]
    pub fn is_clock_net(&self, net: NetId) -> bool {
        self.clock_nets.contains(&net)
    }
}

/// Topologically sorts evaluation nodes (Kahn's algorithm; nodes whose
/// inputs are only primary inputs, constants or state outputs are
/// sources). Returns the reordered nodes plus the length of the sorted
/// acyclic prefix; when the prefix covers every node the network is
/// fully levelized, otherwise the cyclic remainder is appended in
/// original order (relaxation required for those nodes only).
fn levelize(nodes: Vec<CombEval>, net_count: usize) -> (Vec<CombEval>, usize) {
    let mut producer: Vec<Option<usize>> = vec![None; net_count];
    for (i, n) in nodes.iter().enumerate() {
        producer[n.output.index()] = Some(i);
    }
    // In-degree per node = number of inputs produced by other nodes.
    let mut indeg = vec![0usize; nodes.len()];
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (i, n) in nodes.iter().enumerate() {
        for input in &n.inputs {
            if let Some(p) = producer[input.index()] {
                if p != i {
                    indeg[i] += 1;
                    consumers[p].push(i);
                }
            }
        }
    }
    let mut queue: Vec<usize> = indeg
        .iter()
        .enumerate()
        .filter(|(_, &d)| d == 0)
        .map(|(i, _)| i)
        .collect();
    let mut order = Vec::with_capacity(nodes.len());
    let mut emitted = vec![false; nodes.len()];
    while let Some(i) = queue.pop() {
        order.push(i);
        emitted[i] = true;
        for &c in &consumers[i] {
            indeg[c] -= 1;
            if indeg[c] == 0 {
                queue.push(c);
            }
        }
    }
    let acyclic_prefix = order.len();
    order.extend((0..nodes.len()).filter(|&i| !emitted[i]));
    let mut by_index: Vec<Option<CombEval>> = nodes.into_iter().map(Some).collect();
    let ordered = order
        .into_iter()
        .map(|i| by_index[i].take().expect("each node emitted once"))
        .collect();
    (ordered, acyclic_prefix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipd_hdl::{Circuit, PortSpec, Signal};
    use ipd_techlib::LogicCtx;

    fn pipeline() -> Circuit {
        let mut c = Circuit::new("pipe");
        let mut ctx = c.root_ctx();
        let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
        let a = ctx.add_port(PortSpec::input("a", 2)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
        let w = ctx.wire("w", 1);
        ctx.xor2(Signal::bit_of(a, 0), Signal::bit_of(a, 1), w)
            .unwrap();
        ctx.fd(clk, w, y).unwrap();
        c
    }

    #[test]
    fn graph_is_levelized_and_names_state() {
        let flat = FlatNetlist::build(&pipeline()).unwrap();
        let g = NetlistGraph::build(&flat, None).unwrap();
        assert!(g.levelized());
        assert_eq!(g.eval_order.len(), 1, "one xor node");
        assert_eq!(g.seq.len(), 1);
        assert!(matches!(g.seq[0].kind, SeqKind::Ff { .. }));
        assert_eq!(g.seq[0].kind.state_bits(), 1);
        assert_eq!(g.ports.len(), 3);
        assert_eq!(g.clock_nets.len(), 1);
        assert!(g.is_clock_net(g.clock_nets[0]));
    }

    #[test]
    fn srl_read_joins_to_its_element() {
        let mut c = Circuit::new("srl");
        let mut ctx = c.root_ctx();
        let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
        let ce = ctx.add_port(PortSpec::input("ce", 1)).unwrap();
        let d = ctx.add_port(PortSpec::input("d", 1)).unwrap();
        let a = ctx.add_port(PortSpec::input("a", 4)).unwrap();
        let q = ctx.add_port(PortSpec::output("q", 1)).unwrap();
        ctx.srl16(0x5a5a, clk, ce, d, a, q).unwrap();
        let flat = FlatNetlist::build(&c).unwrap();
        let g = NetlistGraph::build(&flat, None).unwrap();
        let read = g
            .eval_order
            .iter()
            .find(|n| matches!(n.kind, CombKind::SrlRead { .. }))
            .expect("tap read node");
        let CombKind::SrlRead { seq } = read.kind else {
            unreachable!()
        };
        assert!(matches!(
            g.seq[seq].kind,
            SeqKind::Srl16 { init: 0x5a5a, .. }
        ));
        assert_eq!(read.inputs.len(), 4, "address nets");
    }
}
