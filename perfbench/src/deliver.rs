//! `deliver_cold`: closed loop, one connection at a time. One op is
//! one customer session — connect and handshake, `manifest`, `fetch`
//! holding nothing, `sealed_design` for kcm_w16 and for fir_t16,
//! `lint_report`, `sta_summary`, close. Each session is a distinct
//! enrolled customer, so no sealed bytes are ever reused.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use ipd_core::{
    bundle_digest, bundle_key, unseal, AppletServer, BundleDelivery, CapabilitySet, DeliveryClient,
    DeliveryManifest, DeliveryResponse, DeliveryService, Digest, RemoteLintReport,
    RemoteSealedDesign, RunningDelivery,
};
use ipd_estimate::{SlackSummary, TimingConstraints};
use ipd_hdl::Circuit;
use ipd_lint::{LintConfig, Linter};
use ipd_netlist::NetlistFormat;
use ipd_pack::{Archive, Bundle};
use ipd_wire::WireConfig;

use crate::common::{
    check, clock_constraints, fir_t16, kcm_w16, ms, Phase, Rng, Window, WireTally, PRODUCT, TODAY,
    VENDOR, VENDOR_KEY,
};
use crate::metrics::Values;
use crate::replay::{self, call, timed, Layers};
use crate::trace::{SpanId, Tracer};

/// A delivery design and the outputs the server must produce for it,
/// computed in-process at set-up.
pub struct Design {
    /// Registered name.
    pub name: &'static str,
    /// The elaborated circuit.
    pub circuit: Circuit,
    /// `NetlistFormat::Edif` text: what a sealed payload must unseal to.
    pub edif: String,
    /// The timed lint report a sealed design ships with.
    pub sealed_report: String,
    /// The structural lint report.
    pub lint_report: String,
    /// The STA slack summary under the clock constraints.
    pub sta: SlackSummary,
}

impl Design {
    /// Derives the outputs the server must produce for `circuit`.
    ///
    /// # Errors
    ///
    /// When the design does not pass the timed lint gate.
    pub fn new(
        name: &'static str,
        circuit: Circuit,
        constraints: &TimingConstraints,
    ) -> Result<Self, String> {
        let sealed = Linter::with_timing(LintConfig::new(), constraints.clone())
            .run(&circuit)
            .map_err(|e| format!("{name}: {e}"))?;
        if !sealed.is_clean() {
            return Err(format!("{name} fails the delivery gate: {sealed}"));
        }
        Ok(Design {
            name,
            edif: NetlistFormat::Edif
                .generate(&circuit)
                .map_err(|e| format!("{name}: {e}"))?,
            sealed_report: sealed.to_json(),
            lint_report: Linter::with_config(LintConfig::new())
                .run(&circuit)
                .map_err(|e| format!("{name}: {e}"))?
                .to_json(),
            sta: ipd_estimate::analyze_timing(&circuit, constraints)
                .map_err(|e| format!("{name}: {e}"))?
                .slack_summary(),
            circuit,
        })
    }
}

/// Starts a delivery service for `server` with `designs` registered
/// timed under `constraints`.
pub fn serve(
    server: AppletServer,
    designs: &[&Design],
    constraints: &TimingConstraints,
) -> Result<RunningDelivery, String> {
    let service = Arc::new(DeliveryService::new(server, VENDOR_KEY.to_vec()));
    for d in designs {
        service.register_design_timed(
            d.name,
            d.circuit.clone(),
            LintConfig::new(),
            constraints.clone(),
        );
    }
    service
        .serve(WireConfig::default())
        .map_err(|e| format!("bind delivery server: {e}"))
}

/// An in-process applet server for replays, with `customer` enrolled
/// and the bundle store primed, as the served one is.
pub fn shadow_server(customer: &str) -> AppletServer {
    let mut shadow = AppletServer::new(VENDOR, VENDOR_KEY.to_vec());
    shadow.enroll(customer, PRODUCT, CapabilitySet::licensed(), 0, 365);
    shadow
        .manifest(customer, TODAY)
        .expect("a fresh license is valid today");
    shadow
}

/// Checks that every payload of a fetch answers its manifest entry and
/// unpacks to a bundle with the manifest's digest. Payload bytes that
/// already passed are remembered, so a repeat needs one comparison.
pub fn check_fetch(
    manifest: &DeliveryManifest,
    response: &DeliveryResponse,
    verified: &mut HashMap<Digest, Arc<[u8]>>,
) -> Result<(), String> {
    check(response.items().len() == manifest.entries().len(), || {
        format!(
            "fetch returned {} items for {} manifest entries",
            response.items().len(),
            manifest.entries().len()
        )
    })?;
    for (item, entry) in response.items().iter().zip(manifest.entries()) {
        check(
            item.name() == entry.name && *item.digest() == entry.digest,
            || {
                format!(
                    "fetch item {} does not answer manifest entry {}",
                    item.name(),
                    entry.name
                )
            },
        )?;
        let BundleDelivery::Payload { bytes, .. } = item else {
            return Err(format!(
                "{} came back not-modified to a cold fetch",
                entry.name
            ));
        };
        if let Some(known) = verified.get(&entry.digest) {
            check(known == bytes, || format!("{} payload changed", entry.name))?;
            continue;
        }
        let archive = Archive::from_bytes(bytes).map_err(|e| format!("{}: {e}", entry.name))?;
        let texts: Vec<(&str, &str)> = archive
            .entries()
            .iter()
            .map(|e| {
                Ok((
                    e.name(),
                    std::str::from_utf8(e.data()).map_err(|e| e.to_string())?,
                ))
            })
            .collect::<Result<_, String>>()?;
        let bundle = Bundle::from_entries(entry.name.as_str(), "", &texts)
            .map_err(|e| format!("{}: {e}", entry.name))?;
        check(bundle_digest(&bundle) == entry.digest, || {
            format!(
                "{} payload does not hash to its manifest digest",
                entry.name
            )
        })?;
        verified.insert(entry.digest, Arc::clone(bytes));
    }
    Ok(())
}

/// Checks a sealed design: it unseals under the customer's key to the
/// in-process EDIF and ships the expected gate report.
pub fn check_sealed(sealed: &RemoteSealedDesign, key: &[u8; 32], d: &Design) -> Result<(), String> {
    let plain = unseal(&sealed.bytes, key).map_err(|e| format!("{}: {e}", d.name))?;
    check(plain == d.edif.as_bytes(), || {
        format!("{} unsealed to bytes other than its EDIF", d.name)
    })?;
    check(sealed.report_json == d.sealed_report, || {
        format!("{} shipped an unexpected lint report", d.name)
    })
}

struct Session {
    manifest: DeliveryManifest,
    fetched: DeliveryResponse,
    sealed: [RemoteSealedDesign; 2],
    lint: RemoteLintReport,
    sta: SlackSummary,
    /// Spans of manifest, fetch, both sealed designs, lint, STA.
    spans: [Option<SpanId>; 6],
    seal_ms: f64,
}

/// The `deliver_cold` fixture.
pub struct Deliver {
    running: Option<RunningDelivery>,
    designs: [Design; 2],
    constraints: TimingConstraints,
    customers: Vec<(String, [u8; 32])>,
    next: usize,
    tally: WireTally,
    verified: HashMap<Digest, Arc<[u8]>>,
    not_modified: u64,
    prime_ms: f64,
    packed_bytes: usize,
    shadow: Option<AppletServer>,
    /// Counters of the traced phase.
    pub layers: Layers,
}

impl Deliver {
    /// Set-up: elaborate and register both designs, enroll
    /// `customers` customers (served in seeded order), prime the
    /// bundle store, bind the server.
    pub fn setup(seed: u64, customers: usize) -> Result<Self, String> {
        let constraints = clock_constraints();
        let designs = [
            Design::new("kcm_w16", kcm_w16(), &constraints)?,
            Design::new("fir_t16", fir_t16(), &constraints)?,
        ];
        let mut server = AppletServer::new(VENDOR, VENDOR_KEY.to_vec());
        let mut enrolled = Vec::with_capacity(customers);
        for i in 0..customers {
            let name = format!("c{i:06}");
            let license = server.enroll(&name, PRODUCT, CapabilitySet::licensed(), 0, 365);
            enrolled.push((name, bundle_key(VENDOR_KEY, &license)));
        }
        let prime = Instant::now();
        let manifest = server
            .manifest(&enrolled[0].0, TODAY)
            .map_err(|e| format!("prime the bundle store: {e}"))?;
        let prime_ms = ms(prime, Instant::now());
        let running = serve(server, &[&designs[0], &designs[1]], &constraints)?;
        let order = Rng::new(seed, 1).permutation(customers);
        Ok(Deliver {
            running: Some(running),
            designs,
            constraints,
            customers: order.into_iter().map(|i| enrolled[i].clone()).collect(),
            next: 0,
            tally: WireTally::default(),
            verified: HashMap::new(),
            not_modified: 0,
            prime_ms,
            packed_bytes: manifest.total_packed(),
            shadow: None,
            layers: Layers::default(),
        })
    }

    fn running(&self) -> &RunningDelivery {
        self.running.as_ref().expect("server runs until finish")
    }

    /// Runs sessions until the window closes.
    pub fn run(&mut self, window: Window, tr: &mut Tracer) -> Phase {
        if tr.enabled() && self.shadow.is_none() {
            self.shadow = Some(shadow_server("primer"));
        }
        let mut phase = Phase::default();
        let start = Instant::now();
        while !window.done(start, phase.attempted) {
            if self.next == self.customers.len() {
                eprintln!("perfbench: deliver_cold ran out of enrolled customers");
                break;
            }
            self.session(tr, &mut phase);
        }
        phase
    }

    fn session(&mut self, tr: &mut Tracer, phase: &mut Phase) {
        let (customer, key) = self.customers[self.next].clone();
        self.next += 1;
        let mut layers = std::mem::take(&mut self.layers);
        let t0 = Instant::now();
        let op = tr.begin(None, "op");
        let connected = timed(tr, &mut layers, op, "wire.connect", "", || {
            DeliveryClient::connect(self.running().addr(), &customer)
        })
        .0;
        let mut client = match connected {
            Ok(c) => c,
            Err(e) => {
                tr.end(op);
                self.layers = layers;
                phase.outcome(Err(format!("connect: {e}")));
                return;
            }
        };
        let outcome = self.issue(&mut client, tr, &mut layers, op);
        timed(tr, &mut layers, op, "wire.close", "", || client.close());
        tr.end(op);
        let latency = ms(t0, Instant::now());
        phase.busy_s += latency / 1e3;
        self.tally.add(&client.stats());
        let result = outcome.and_then(|s| {
            self.check_session(&s, &key)?;
            if tr.enabled() {
                self.replay(tr, &mut layers, &customer, &key, &s);
            }
            phase.bg_ms.push(s.seal_ms);
            Ok(())
        });
        if result.is_ok() {
            phase.op_ms.push(latency);
            phase.completed += 1;
        }
        phase.outcome(result);
        self.layers = layers;
    }

    fn issue(
        &self,
        client: &mut DeliveryClient,
        tr: &mut Tracer,
        layers: &mut Layers,
        op: Option<SpanId>,
    ) -> Result<Session, String> {
        let (manifest, s0, _) = call(tr, layers, op, "core.endpoint.manifest", "", || {
            client.manifest(TODAY)
        })?;
        let (fetched, s1, _) = call(tr, layers, op, "core.endpoint.fetch", "", || {
            client.fetch(TODAY, &[])
        })?;
        let [kcm, fir] = &self.designs;
        let (sealed_kcm, s2, t2) = call(
            tr,
            layers,
            op,
            "core.endpoint.sealed_design",
            kcm.name,
            || client.sealed_design(TODAY, kcm.name),
        )?;
        let (sealed_fir, s3, t3) = call(
            tr,
            layers,
            op,
            "core.endpoint.sealed_design",
            fir.name,
            || client.sealed_design(TODAY, fir.name),
        )?;
        let (lint, s4, _) = call(
            tr,
            layers,
            op,
            "core.endpoint.lint_report",
            kcm.name,
            || client.lint_report(TODAY, kcm.name),
        )?;
        let (sta, s5, _) = call(tr, layers, op, "core.endpoint.sta_report", fir.name, || {
            client.sta_summary(TODAY, fir.name)
        })?;
        Ok(Session {
            manifest,
            fetched,
            sealed: [sealed_kcm, sealed_fir],
            lint,
            sta,
            spans: [s0, s1, s2, s3, s4, s5],
            seal_ms: t2 + t3,
        })
    }

    fn check_session(&mut self, s: &Session, key: &[u8; 32]) -> Result<(), String> {
        let [kcm, fir] = &self.designs;
        check_fetch(&s.manifest, &s.fetched, &mut self.verified)?;
        self.not_modified += s.fetched.not_modified() as u64;
        check_sealed(&s.sealed[0], key, kcm)?;
        check_sealed(&s.sealed[1], key, fir)?;
        check(
            s.lint.errors == 0 && s.lint.report_json == kcm.lint_report,
            || "lint_report differs from the in-process report".to_owned(),
        )?;
        check(s.sta == fir.sta, || {
            "sta_summary differs from the in-process analysis".to_owned()
        })
    }

    fn replay(
        &mut self,
        tr: &mut Tracer,
        layers: &mut Layers,
        customer: &str,
        key: &[u8; 32],
        s: &Session,
    ) {
        let shadow = self
            .shadow
            .as_mut()
            .expect("traced phases have a shadow server");
        shadow.enroll(customer, PRODUCT, CapabilitySet::licensed(), 0, 365);
        timed(tr, layers, s.spans[0], "core.manifest", "", || {
            shadow.manifest(customer, TODAY)
        })
        .0
        .expect("in-process replay serves");
        timed(tr, layers, s.spans[1], "core.fetch", "", || {
            shadow.fetch(customer, TODAY, &[])
        })
        .0
        .expect("in-process replay serves");
        for (d, span) in self.designs.iter().zip(&s.spans[2..4]) {
            replay::sealed_design(
                tr,
                layers,
                *span,
                d.name,
                &d.circuit,
                &self.constraints,
                key,
                u64::from(TODAY),
            );
        }
        let [kcm, fir] = &self.designs;
        replay::lint_report(tr, layers, s.spans[4], kcm.name, &kcm.circuit);
        replay::sta_report(
            tr,
            layers,
            s.spans[5],
            fir.name,
            &fir.circuit,
            &self.constraints,
        );
    }

    /// Reconciles the server's counters with the clients' and stops
    /// the server.
    ///
    /// # Errors
    ///
    /// Any counter that differs.
    pub fn finish(&mut self, out: &mut Values) -> Result<(), String> {
        let running = self.running.take().expect("finish runs once");
        let store = running.service().store_stats();
        let reconciled = self.tally.reconcile(&running.stats()).and_then(|()| {
            check(store.not_modified == self.not_modified, || {
                format!(
                    "store counted {} not-modified items, clients {}",
                    store.not_modified, self.not_modified
                )
            })
        });
        running
            .shutdown()
            .map_err(|e| format!("shut down delivery server: {e}"))?;
        let (requests, bytes) = self.tally.totals();
        let sessions = self.next.max(1) as f64;
        out.insert("wire.requests_per_op".into(), requests as f64 / sessions);
        out.insert("wire.bytes_per_op".into(), bytes as f64 / sessions);
        out.insert(
            "core.store_hit_ratio".into(),
            store.hits as f64 / (store.hits + store.misses).max(1) as f64,
        );
        out.insert("pack.cold_pack_ms".into(), self.prime_ms);
        out.insert("pack.packed_bytes".into(), self.packed_bytes as f64);
        reconciled
    }

    /// The per-layer metrics this workload is home to, from its traced
    /// phase.
    pub fn layer_metrics(&self, out: &mut Values) {
        let l = &self.layers;
        let us = |name: &str| l.per_design_ms(name).map(|v| v * 1e3);
        for (metric, span) in [
            ("wire.connect_us", "wire.connect"),
            (
                "core.endpoint.sealed_design_us",
                "core.endpoint.sealed_design",
            ),
            ("core.endpoint.lint_report_us", "core.endpoint.lint_report"),
            ("core.endpoint.sta_report_us", "core.endpoint.sta_report"),
        ] {
            if let Some(v) = us(span) {
                out.insert(metric.into(), v);
            }
        }
        for (metric, span) in [
            ("core.seal_ms", "core.seal"),
            ("lint.structural_timed_ms", "lint.structural_timed"),
            ("estimate.sta_ms", "estimate.sta"),
            ("netlist.edif_ms", "netlist.edif"),
            ("hdl.flatten_ms", "hdl.flatten"),
        ] {
            if let Some(v) = l.per_design_ms(span) {
                out.insert(metric.into(), v);
            }
        }
        let mb_s = |bytes: u64, ns: u64| bytes as f64 / 1e6 / (ns.max(1) as f64 / 1e9);
        out.insert("core.seal_mb_s".into(), mb_s(l.seal_bytes, l.seal_ns));
        out.insert("netlist.edif_mb_s".into(), mb_s(l.edif_bytes, l.edif_ns));
        out.insert(
            "lint.verdict_reuse_ratio".into(),
            l.verdicts.reused as f64 / l.verdicts.runs.max(1) as f64,
        );
    }
}
