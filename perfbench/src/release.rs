//! `release_gate`: closed loop, in-process, no wire. One op is one
//! vendor release of one design: `seal_design_semantic`, then
//! `seal_design_verified` against its golden netlist. The designs are
//! the ten example-zoo designs (goldens read from
//! `tests/fixtures/golden/`) plus kcm_w16 (golden: its own EDIF read
//! back), released in seeded order, whole rounds at a time.

use std::time::Instant;

use ipd_core::{
    bundle_key, seal_design_semantic, seal_design_verified, unseal, AppletServer, CapabilitySet,
};
use ipd_hdl::Circuit;
use ipd_lint::{LintConfig, OracleOptions};
use ipd_netlist::{read_edif, NetlistFormat};
use ipd_verify::EquivConfig;

use crate::common::{check, kcm_w16, ms, Phase, Rng, Window, PRODUCT, VENDOR, VENDOR_KEY};
use crate::metrics::Values;
use crate::replay::{self, call, Layers};
use crate::trace::{self, Tracer};

/// Where the zoo's golden netlists live, relative to the checkout root.
const GOLDEN_DIR: &str = "tests/fixtures/golden";

struct ReleaseDesign {
    name: String,
    circuit: Circuit,
    golden: Circuit,
    /// The EDIF a certificate binds on the golden side.
    golden_edif: String,
    /// The EDIF every sealed payload must unseal to.
    edif: String,
}

/// The `release_gate` fixture.
pub struct Release {
    designs: Vec<ReleaseDesign>,
    key: [u8; 32],
    order: Rng,
    nonce: u64,
    read_edif_ms: f64,
    /// Counters of the traced phase.
    pub layers: Layers,
}

impl Release {
    /// Set-up: elaborate the designs and read their golden netlists.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let mut designs = Vec::new();
        let mut read_edif_ms = 0.0;
        let mut zoo = ipd_modgen::example_zoo();
        let kcm = kcm_w16();
        let kcm_edif = NetlistFormat::Edif
            .generate(&kcm)
            .map_err(|e| format!("kcm_w16: {e}"))?;
        zoo.push(("kcm_w16".to_owned(), kcm));
        for (name, circuit) in zoo {
            let start = Instant::now();
            let text = if name == "kcm_w16" {
                kcm_edif.clone()
            } else {
                let path = format!("{GOLDEN_DIR}/{name}.edif");
                std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?
            };
            let golden = read_edif(&text).map_err(|e| format!("{name} golden: {e}"))?;
            read_edif_ms += ms(start, Instant::now());
            let generate = |c: &Circuit| {
                NetlistFormat::Edif
                    .generate(c)
                    .map_err(|e| format!("{name}: {e}"))
            };
            designs.push(ReleaseDesign {
                golden_edif: generate(&golden)?,
                edif: generate(&circuit)?,
                name,
                circuit,
                golden,
            });
        }
        let license = AppletServer::new(VENDOR, VENDOR_KEY.to_vec()).enroll(
            "integrator",
            PRODUCT,
            CapabilitySet::licensed(),
            0,
            365,
        );
        Ok(Release {
            designs,
            key: bundle_key(VENDOR_KEY, &license),
            order: Rng::new(seed, 4),
            nonce: 0,
            read_edif_ms,
            layers: Layers::default(),
        })
    }

    /// Runs whole release rounds until the window closes.
    pub fn run(&mut self, window: Window, tr: &mut Tracer) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        while !window.done(start, phase.attempted) {
            for i in self.order.permutation(self.designs.len()) {
                self.op(i, tr, &mut phase);
            }
        }
        phase
    }

    fn op(&mut self, i: usize, tr: &mut Tracer, phase: &mut Phase) {
        self.nonce += 1;
        let (nonce, key) = (self.nonce, self.key);
        let d = &self.designs[i];
        let layers = &mut self.layers;
        let t0 = Instant::now();
        let op = tr.begin(None, "op");
        let semantic = call(tr, layers, op, "core.seal_design_semantic", &d.name, || {
            seal_design_semantic(
                &d.circuit,
                &LintConfig::new(),
                OracleOptions::default(),
                &key,
                nonce,
            )
        });
        let verified = semantic.and_then(|s| {
            let v = call(tr, layers, op, "core.seal_design_verified", &d.name, || {
                seal_design_verified(
                    &d.circuit,
                    &d.golden,
                    &LintConfig::new(),
                    &EquivConfig::default(),
                    &key,
                    nonce,
                )
            })?;
            Ok((s, v))
        });
        tr.end(op);
        let latency = ms(t0, Instant::now());
        phase.busy_s += latency / 1e3;
        let result = verified.and_then(|((sem, sem_span, _), (ver, ver_span, ver_ms))| {
            let edif = d.edif.as_bytes();
            let opened = unseal(sem.bytes(), &key).map_err(|e| format!("{}: {e}", d.name))?;
            check(opened == edif && sem.report().is_clean(), || {
                format!("{}: semantic release is not its clean EDIF", d.name)
            })?;
            let opened =
                unseal(ver.sealed().bytes(), &key).map_err(|e| format!("{}: {e}", d.name))?;
            check(opened == edif && ver.sealed().report().is_clean(), || {
                format!("{}: verified release is not its clean EDIF", d.name)
            })?;
            check(
                ver.certificate().verify(d.golden_edif.as_bytes(), &opened),
                || format!("{}: equivalence certificate does not verify", d.name),
            )?;
            if tr.enabled() {
                replay::seal_semantic(tr, layers, sem_span, &d.name, &d.circuit, &key, nonce);
                replay::seal_verified(
                    tr, layers, ver_span, &d.name, &d.circuit, &d.golden, &key, nonce,
                );
            }
            phase.bg_ms.push(ver_ms);
            Ok(())
        });
        if result.is_ok() {
            phase.op_ms.push(latency);
            phase.completed += 1;
        }
        phase.outcome(result);
    }

    /// The per-layer metrics this workload is home to.
    ///
    /// # Errors
    ///
    /// When the traced phase recorded no release.
    pub fn layer_metrics(&self, tr: &Tracer, out: &mut Values) -> Result<(), String> {
        let l = &self.layers;
        let got = |name: &str| l.per_design_ms(name).ok_or(format!("no {name} spans"));
        out.insert("lint.semantic_ms".into(), got("lint.semantic")?);
        out.insert("verify.equiv_ms".into(), got("verify.equiv")?);
        let per_op = |name: &str| {
            trace::count_per(tr.spans(), name, "op").ok_or_else(|| "no releases traced".to_owned())
        };
        out.insert("netlist.edif_per_op".into(), per_op("netlist.edif")?);
        out.insert("hdl.flatten_per_op".into(), per_op("hdl.flatten")?);
        out.insert("netlist.read_edif_ms".into(), self.read_edif_ms);
        let sum = |f: fn(&ipd_verify::CecStats) -> u64| l.cec.values().map(f).sum::<u64>();
        out.insert("verify.sat_queries".into(), sum(|s| s.sat_queries) as f64);
        out.insert(
            "verify.sat_conflicts".into(),
            sum(|s| s.sat_conflicts) as f64,
        );
        out.insert(
            "verify.outputs_by_hash_ratio".into(),
            sum(|s| s.outputs_by_hash as u64) as f64
                / sum(|s| s.outputs_checked as u64).max(1) as f64,
        );
        Ok(())
    }
}
