//! Lazy Tseitin encoding of an [`Aig`] into one incremental solver,
//! shared by the equivalence sweep and the semantic oracle.

use crate::aig::{Aig, Lit, Node};
use crate::sat::{SatLit, Solver, Var};

/// One AIG's cones encoded on demand into one incremental solver.
/// Queries use assumptions only, so learnt clauses stay sound across
/// queries. (Reachability, which adds non-tautological blocking
/// clauses, builds its own private `Enc`.)
pub(crate) struct Enc {
    pub solver: Solver,
    /// AIG node → solver var, `None` until the node's cone is encoded.
    sat_var: Vec<Option<Var>>,
}

impl Enc {
    pub fn new() -> Self {
        Enc {
            solver: Solver::new(),
            sat_var: vec![None],
        }
    }

    /// Tseitin-encodes `root`'s cone into the solver, reusing every
    /// node already encoded. `aig` must be the same (append-only)
    /// graph on every call.
    pub fn encode(&mut self, aig: &Aig, root: Lit) -> Var {
        if self.sat_var.len() < aig.len() {
            self.sat_var.resize(aig.len(), None);
        }
        let mut stack = vec![root.node()];
        while let Some(n) = stack.pop() {
            if self.sat_var[n].is_some() {
                continue;
            }
            match aig.node(Lit::new(n, false)) {
                Node::Const => {
                    let v = self.solver.new_var();
                    self.sat_var[n] = Some(v);
                    self.solver.add_clause(&[SatLit::neg(v)]);
                }
                Node::Input(_) => {
                    self.sat_var[n] = Some(self.solver.new_var());
                }
                Node::And(a, b) => {
                    let (na, nb) = (a.node(), b.node());
                    if self.sat_var[na].is_none() || self.sat_var[nb].is_none() {
                        stack.push(n);
                        if self.sat_var[na].is_none() {
                            stack.push(na);
                        }
                        if self.sat_var[nb].is_none() {
                            stack.push(nb);
                        }
                        continue;
                    }
                    let v = self.solver.new_var();
                    self.sat_var[n] = Some(v);
                    let o = SatLit::pos(v);
                    let sa = self.lit_of(a);
                    let sb = self.lit_of(b);
                    // o ↔ a ∧ b.
                    self.solver.add_clause(&[!o, sa]);
                    self.solver.add_clause(&[!o, sb]);
                    self.solver.add_clause(&[o, !sa, !sb]);
                }
            }
        }
        self.sat_var[root.node()].expect("encoded")
    }

    /// The solver literal of an encoded AIG literal.
    pub fn lit_of(&self, l: Lit) -> SatLit {
        let v = self.sat_var[l.node()].expect("fanin encoded");
        if l.negated() {
            SatLit::neg(v)
        } else {
            SatLit::pos(v)
        }
    }

    /// A literal's value in the current model; cones outside the
    /// encoding default to input-false.
    pub fn model_lit(&self, l: Lit) -> bool {
        let base = self
            .sat_var
            .get(l.node())
            .copied()
            .flatten()
            .map(|v| self.solver.model_value(SatLit::pos(v)))
            .unwrap_or(false);
        base ^ l.negated()
    }
}

/// The xorshift64 generator behind every random signature pattern.
pub(crate) struct XorShift(pub u64);

impl XorShift {
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}
