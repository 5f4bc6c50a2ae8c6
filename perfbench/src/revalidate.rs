//! `revalidate_under_seal`: open loop on two connections. The op class
//! revalidates at ~1000 req/s, rotating through `manifest`, a `fetch`
//! holding every digest (all not-modified) and `fetch_segment`. The
//! background class is one licensee sending `sealed_design` for
//! fir_t16 at ~8 req/s with the same (customer, design, day) each time.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ipd_core::{
    bundle_key, AppletServer, BundleDelivery, CapabilitySet, DeliveryClient, DeliveryManifest,
    Digest, RunningDelivery,
};
use ipd_estimate::TimingConstraints;

use crate::common::{
    check, clock_constraints, fir_t16, Phase, Rng, Window, WireTally, PRODUCT, TODAY, VENDOR,
    VENDOR_KEY,
};
use crate::deliver::{check_fetch, check_sealed, serve, shadow_server, Design};
use crate::metrics::Values;
use crate::pace::open_loop;
use crate::replay::{self, call, timed, Layers};
use crate::stats::percentile;
use crate::trace::Tracer;

/// Op-class schedule: one revalidation request per millisecond.
const OP_PERIOD: Duration = Duration::from_millis(1);
/// Background schedule: one sealed design per 125 ms.
const BG_PERIOD: Duration = Duration::from_millis(125);
/// How long after the seal class pauses before revalidation counts as
/// unloaded (a seal in flight may still hold the service lock).
const DRAIN: Duration = Duration::from_millis(100);

/// The `revalidate_under_seal` fixture.
pub struct Reval {
    running: Option<RunningDelivery>,
    fir: Design,
    constraints: TimingConstraints,
    op_client: Option<DeliveryClient>,
    bg_client: Option<DeliveryClient>,
    bg_key: [u8; 32],
    manifest: DeliveryManifest,
    held: Vec<Digest>,
    payloads: HashMap<Digest, Arc<[u8]>>,
    rotation: Rng,
    tally: WireTally,
    not_modified: u64,
    shadow: Option<AppletServer>,
    /// Counters of the traced phase.
    pub layers: Layers,
    /// Op-class latencies (ms) while the seal class ran, and after it
    /// paused, in untraced phases that paused it.
    split: (Vec<f64>, Vec<f64>),
}

impl Reval {
    /// Set-up: elaborate and register fir_t16, enroll both customers,
    /// prime the bundle store, bind the server, connect both clients
    /// and make the op-class client's first (cold, checked) fetch.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let constraints = clock_constraints();
        let fir = Design::new("fir_t16", fir_t16(), &constraints)?;
        let mut server = AppletServer::new(VENDOR, VENDOR_KEY.to_vec());
        server.enroll("reval", PRODUCT, CapabilitySet::licensed(), 0, 365);
        let license = server.enroll("licensee", PRODUCT, CapabilitySet::licensed(), 0, 365);
        server
            .manifest("reval", TODAY)
            .map_err(|e| format!("prime the bundle store: {e}"))?;
        let running = serve(server, &[&fir], &constraints)?;
        let connect = |customer: &str| {
            DeliveryClient::connect(running.addr(), customer)
                .map_err(|e| format!("connect {customer}: {e}"))
        };
        let mut op_client = connect("reval")?;
        let bg_client = connect("licensee")?;
        let manifest = op_client
            .manifest(TODAY)
            .map_err(|e| format!("manifest: {e}"))?;
        let cold = op_client
            .fetch(TODAY, &[])
            .map_err(|e| format!("cold fetch: {e}"))?;
        let mut payloads = HashMap::new();
        check_fetch(&manifest, &cold, &mut payloads)?;
        Ok(Reval {
            running: Some(running),
            fir,
            constraints,
            op_client: Some(op_client),
            bg_client: Some(bg_client),
            bg_key: bundle_key(VENDOR_KEY, &license),
            held: manifest.entries().iter().map(|e| e.digest).collect(),
            manifest,
            payloads,
            rotation: Rng::new(seed, 2),
            tally: WireTally::default(),
            not_modified: 0,
            shadow: None,
            layers: Layers::default(),
            split: (Vec::new(), Vec::new()),
        })
    }

    /// Runs both classes for the window; the seal class stops after
    /// `seal_for` (the whole window when equal).
    pub fn run(&mut self, window: Window, seal_for: Duration, tr: &mut Tracer) -> Phase {
        if tr.enabled() && self.shadow.is_none() {
            self.shadow = Some(shadow_server("reval"));
        }
        let Reval {
            fir,
            constraints,
            op_client,
            bg_client,
            bg_key,
            manifest,
            held,
            payloads,
            rotation,
            not_modified,
            shadow,
            layers,
            ..
        } = self;
        let op_client = op_client.as_mut().expect("clients live until finish");
        let bg_client = bg_client.as_mut().expect("clients live until finish");
        let (fir, constraints, bg_key) = (&*fir, &*constraints, &*bg_key);
        let mut bg_tr = tr.fork();
        let mut bg_layers = Layers::default();
        let mut phase = Phase::default();
        let mut bg_phase = Phase::default();
        let start = Instant::now() + Duration::from_millis(10);
        let (op_samples, bg_samples) = thread::scope(|s| {
            let bg = s.spawn(|| {
                open_loop(start, BG_PERIOD, seal_for, |_| {
                    let root = bg_tr.begin(None, "bg");
                    let sealed = call(
                        &mut bg_tr,
                        &mut bg_layers,
                        root,
                        "core.endpoint.sealed_design",
                        fir.name,
                        || bg_client.sealed_design(TODAY, fir.name),
                    );
                    bg_tr.end(root);
                    let done = Instant::now();
                    let result = sealed.and_then(|(sealed, span, _)| {
                        check_sealed(&sealed, bg_key, fir)?;
                        if bg_tr.enabled() {
                            replay::sealed_design(
                                &mut bg_tr,
                                &mut bg_layers,
                                span,
                                fir.name,
                                &fir.circuit,
                                constraints,
                                bg_key,
                                u64::from(TODAY),
                            );
                        }
                        Ok(())
                    });
                    let ok = result.is_ok();
                    bg_phase.outcome(result);
                    (done, ok)
                })
            });
            let ops = open_loop(start, OP_PERIOD, window.length, |k| {
                let root = tr.begin(None, "op");
                let (done, result) = match k % 3 {
                    0 => {
                        let r = call(tr, layers, root, "core.endpoint.manifest", "", || {
                            op_client.manifest(TODAY)
                        });
                        let done = Instant::now();
                        tr.end(root);
                        (
                            done,
                            r.and_then(|(m, span, _)| {
                                check(m.entries() == manifest.entries(), || {
                                    "manifest changed between requests".to_owned()
                                })?;
                                if let Some(shadow) = shadow.as_mut() {
                                    timed(tr, layers, span, "core.manifest", "", || {
                                        shadow.manifest("reval", TODAY)
                                    })
                                    .0
                                    .expect("in-process replay serves");
                                }
                                Ok(())
                            }),
                        )
                    }
                    1 => {
                        let r = call(tr, layers, root, "core.endpoint.fetch", "", || {
                            op_client.fetch(TODAY, held)
                        });
                        let done = Instant::now();
                        tr.end(root);
                        (
                            done,
                            r.and_then(|(response, span, _)| {
                                let fresh = response.items().len() == held.len()
                                    && response.items().iter().zip(held.iter()).all(|(i, d)| {
                                        matches!(i, BundleDelivery::NotModified { digest, .. } if digest == d)
                                    });
                                check(fresh, || {
                                    "a held digest did not come back not-modified".to_owned()
                                })?;
                                *not_modified += response.not_modified() as u64;
                                if let Some(shadow) = shadow.as_mut() {
                                    timed(tr, layers, span, "core.fetch_304", "", || {
                                        shadow.fetch("reval", TODAY, held)
                                    })
            .0
            .expect("in-process replay serves");
                                }
                                Ok(())
                            }),
                        )
                    }
                    _ => {
                        let digest = held[rotation.below(held.len() as u64) as usize];
                        let r = call(tr, layers, root, "core.endpoint.fetch_segment", "", || {
                            op_client.fetch_segment(TODAY, &digest)
                        });
                        let done = Instant::now();
                        tr.end(root);
                        (
                            done,
                            r.and_then(|(bytes, span, _)| {
                                check(
                                    payloads.get(&digest).is_some_and(|p| **p == bytes[..]),
                                    || {
                                        "fetch_segment bytes differ from the fetch payload"
                                            .to_owned()
                                    },
                                )?;
                                if let Some(shadow) = shadow.as_mut() {
                                    timed(tr, layers, span, "core.fetch_segment", "", || {
                                        shadow.fetch_segment("reval", TODAY, &digest)
                                    })
                                    .0
                                    .expect("in-process replay serves");
                                }
                                Ok(())
                            }),
                        )
                    }
                };
                let ok = result.is_ok();
                phase.outcome(result);
                (done, ok)
            });
            (ops, bg.join().expect("seal-class thread"))
        });
        phase.busy_s = start.elapsed().as_secs_f64();
        tr.absorb(bg_tr);
        for (name, v) in bg_layers.samples {
            layers.samples.entry(name).or_default().extend(v);
        }
        for s in op_samples.iter().filter(|s| s.ok) {
            phase.op_ms.push(s.latency_ms);
            phase.late_ms.push(s.late_ms);
            phase.completed += 1;
        }
        phase
            .bg_ms
            .extend(bg_samples.iter().filter(|s| s.ok).map(|s| s.latency_ms));
        phase.absorb(bg_phase);
        if seal_for < window.length && !tr.enabled() {
            let pause = seal_for.as_secs_f64();
            let drained = (seal_for + DRAIN).as_secs_f64();
            let (active, paused) = &mut self.split;
            for s in op_samples.iter().filter(|s| s.ok) {
                if s.due_s < pause {
                    active.push(s.latency_ms);
                } else if s.due_s >= drained {
                    paused.push(s.latency_ms);
                }
            }
        }
        phase
    }

    /// Closes both clients, reconciles the server's counters with
    /// theirs and stops the server.
    ///
    /// # Errors
    ///
    /// Any counter that differs.
    pub fn finish(&mut self, out: &mut Values) -> Result<(), String> {
        for client in [self.op_client.take(), self.bg_client.take()]
            .into_iter()
            .flatten()
        {
            let mut client = client;
            client.close();
            self.tally.add(&client.stats());
        }
        let running = self.running.take().expect("finish runs once");
        let store = running.service().store_stats();
        out.insert(
            "core.audit_records".into(),
            running.service().audit_log().len() as f64,
        );
        let reconciled = self.tally.reconcile(&running.stats()).and_then(|()| {
            check(store.not_modified == self.not_modified, || {
                format!(
                    "store counted {} not-modified items, the client {}",
                    store.not_modified, self.not_modified
                )
            })
        });
        running
            .shutdown()
            .map_err(|e| format!("shut down delivery server: {e}"))?;
        reconciled
    }

    /// The per-layer metrics this workload is home to. `untraced` is
    /// the phase that paused the seal class half-way.
    pub fn layer_metrics(&self, untraced: &Phase, out: &mut Values) -> Result<(), String> {
        for (metric, span) in [
            ("core.endpoint.manifest_us", "core.endpoint.manifest"),
            ("core.endpoint.fetch_us", "core.endpoint.fetch"),
            (
                "core.endpoint.fetch_segment_us",
                "core.endpoint.fetch_segment",
            ),
            ("core.manifest_us", "core.manifest"),
            ("core.fetch_304_us", "core.fetch_304"),
            ("core.fetch_segment_us", "core.fetch_segment"),
        ] {
            if let Some(v) = self.layers.per_design_ms(span) {
                out.insert(metric.into(), v * 1e3);
            }
        }
        let (active, paused) = &self.split;
        out.insert(
            "core.service_wait_p90_ms".into(),
            percentile(active, 0.9)? - percentile(paused, 0.9)?,
        );
        out.insert(
            "loadgen.late_p90_ms".into(),
            percentile(&untraced.late_ms, 0.9)?,
        );
        Ok(())
    }
}
