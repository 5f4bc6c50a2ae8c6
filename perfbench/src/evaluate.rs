//! `evaluate_cosim`: closed loop, one connection. One op is the
//! paper's applet evaluation plus its Figure 4 black-box
//! co-simulation: an `AppletSession` builds the paper KCM (-56, 8→12,
//! signed, pipelined), estimates area and timing, renders the
//! schematic, layout and hierarchy views, runs 1000 local cycles and
//! writes EDIF; then a `BlackBoxClient` over loopback runs 200
//! set/cycle/get steps and one `run_batch` of 4096 vectors.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use ipd_core::{AppletHost, AppletServer, AppletSession, CapabilitySet, IpExecutable};
use ipd_cosim::{
    BlackBoxClient, BlackBoxServer, InProcTransport, LocalSimModel, Message, RunningBlackBox,
    SimModel,
};
use ipd_hdl::{Circuit, LogicVec};
use ipd_modgen::KcmMultiplier;
use ipd_netlist::NetlistFormat;
use ipd_sim::Simulator;
use ipd_wire::{
    ClientConfig, Reply, WireClient, WireConfig, WireError, WireServer, WireService, WireSession,
};

use crate::common::{check, ms, Phase, Rng, Window, WireTally, PRODUCT, TODAY, VENDOR, VENDOR_KEY};
use crate::metrics::Values;
use crate::replay::{call, timed, Layers};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};

const LOCAL_CYCLES: usize = 1000;
const STEPS: usize = 200;
const VECTORS: usize = 4096;
const INPUT: &str = "multiplicand";
const OUTPUT: &str = "product";

/// The `evaluate_cosim` fixture.
pub struct Evaluate {
    server: Option<RunningBlackBox>,
    host: AppletHost,
    executable: IpExecutable,
    kcm: KcmMultiplier,
    circuit: Circuit,
    latency: u32,
    prototype: LocalSimModel,
    /// Product for each multiplicand (index `x + 128`) after `latency`
    /// cycles from reset, from a local `Simulator`.
    table: Vec<LogicVec>,
    stimulus: Rng,
    tally: WireTally,
    round_trips: Vec<f64>,
    /// Counters of the traced phase.
    pub layers: Layers,
}

struct Stimulus {
    local: Vec<i64>,
    steps: Vec<i64>,
    batch: Vec<i64>,
}

struct Outputs {
    edif: String,
    steps: Vec<LogicVec>,
    batch: Vec<(String, Vec<LogicVec>)>,
    round_trips: u64,
    events_ms: f64,
    spans: [Option<SpanId>; 2],
}

impl Evaluate {
    /// Set-up: serve the customer's executable, elaborate the paper
    /// KCM, tabulate its products, bind the black-box server.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let mut host = AppletHost::new();
        host.grant_network_permission();
        let mut vendor = AppletServer::new(VENDOR, VENDOR_KEY.to_vec());
        vendor.enroll("evaluator", PRODUCT, CapabilitySet::licensed(), 0, 365);
        let executable = vendor
            .serve("evaluator", TODAY)
            .map_err(|e| format!("serve executable: {e}"))?;
        let kcm = KcmMultiplier::new(-56, 8, 12).signed(true).pipelined(true);
        let circuit = Circuit::from_generator(&kcm).map_err(|e| format!("paper KCM: {e}"))?;
        let latency = kcm.latency().max(1);
        let mut sim = Simulator::new(&circuit).map_err(|e| format!("simulator: {e}"))?;
        let mut table = Vec::with_capacity(256);
        for x in -128..128 {
            sim.reset();
            sim.set(INPUT, LogicVec::from_i64(x, 8))
                .map_err(|e| format!("tabulate: {e}"))?;
            sim.cycle(u64::from(latency))
                .map_err(|e| format!("tabulate: {e}"))?;
            table.push(sim.peek(OUTPUT).map_err(|e| format!("tabulate: {e}"))?);
        }
        let prototype = LocalSimModel::new(&circuit).map_err(|e| format!("model: {e}"))?;
        let server = BlackBoxServer::bind(&host)
            .map_err(|e| format!("bind black-box server: {e}"))?
            .start_cloning(prototype.clone());
        Ok(Evaluate {
            server: Some(server),
            host,
            executable,
            kcm,
            circuit,
            latency,
            prototype,
            table,
            stimulus: Rng::new(seed, 3),
            tally: WireTally::default(),
            round_trips: Vec::new(),
            layers: Layers::default(),
        })
    }

    fn addr(&self) -> SocketAddr {
        self.server
            .as_ref()
            .expect("server runs until finish")
            .addr()
    }

    /// Runs ops until the window closes.
    pub fn run(&mut self, window: Window, tr: &mut Tracer) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        while !window.done(start, phase.attempted) {
            self.op(tr, &mut phase);
        }
        phase
    }

    fn draw(&mut self, n: usize) -> Vec<i64> {
        (0..n)
            .map(|_| self.stimulus.below(256) as i64 - 128)
            .collect()
    }

    fn op(&mut self, tr: &mut Tracer, phase: &mut Phase) {
        let stimulus = Stimulus {
            local: self.draw(LOCAL_CYCLES),
            steps: self.draw(STEPS),
            batch: self.draw(VECTORS),
        };
        let batch_in = vec![(
            INPUT.to_owned(),
            stimulus
                .batch
                .iter()
                .map(|&x| LogicVec::from_i64(x, 8))
                .collect::<Vec<_>>(),
        )];
        let mut layers = std::mem::take(&mut self.layers);
        let t0 = Instant::now();
        let op = tr.begin(None, "op");
        let mut client = None;
        let outcome = self.issue(tr, &mut layers, op, &stimulus, &batch_in, &mut client);
        tr.end(op);
        let latency = ms(t0, Instant::now());
        phase.busy_s += latency / 1e3;
        if let Some(c) = &client {
            self.tally.add(&c.transport().stats());
        }
        let result = outcome.and_then(|out| {
            self.check(&stimulus, &out)?;
            if tr.enabled() {
                self.replay(tr, &mut layers, &stimulus, &batch_in, &out);
            }
            self.round_trips.push(out.round_trips as f64);
            phase.bg_ms.push(out.events_ms);
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
        tr: &mut Tracer,
        layers: &mut Layers,
        op: Option<SpanId>,
        stimulus: &Stimulus,
        batch_in: &[(String, Vec<LogicVec>)],
        slot: &mut Option<BlackBoxClient<ipd_cosim::TcpTransport>>,
    ) -> Result<Outputs, String> {
        let mut session =
            AppletSession::new(&self.executable, &self.host, Box::new(self.kcm.clone()));
        call(tr, layers, op, "hdl.elaborate", "", || session.build())?;
        call(tr, layers, op, "estimate.area_timing", "", || {
            session.estimate_area()?;
            session.estimate_timing()
        })?;
        call(tr, layers, op, "viewer.render", "", || {
            session.schematic()?;
            session.layout()?;
            session.hierarchy()
        })?;
        call(tr, layers, op, "sim.local", "", || {
            for &x in &stimulus.local {
                session.set_i64(INPUT, x)?;
                session.cycle(1)?;
            }
            session.peek(OUTPUT)
        })?;
        let (edif, _, _) = call(tr, layers, op, "netlist.edif", "", || {
            session.netlist(NetlistFormat::Edif)
        })?;
        let (connected, _, _) = call(tr, layers, op, "wire.connect", "", || {
            BlackBoxClient::connect(self.addr())
        })?;
        let client = slot.insert(connected);
        let mut steps = Vec::with_capacity(STEPS);
        let (_, events, events_ms) = call(tr, layers, op, "cosim.events", "", || {
            for &x in &stimulus.steps {
                client.set(INPUT, LogicVec::from_i64(x, 8))?;
                client.cycle(1)?;
                steps.push(client.get(OUTPUT)?);
            }
            Ok::<(), ipd_cosim::CosimError>(())
        })?;
        let (batch, batch_span, _) = call(tr, layers, op, "cosim.batch", "", || {
            client.run_batch(self.latency, batch_in)
        })?;
        let round_trips = client.round_trips();
        call(tr, layers, op, "wire.close", "", || client.close())?;
        Ok(Outputs {
            edif,
            steps,
            batch,
            round_trips,
            events_ms,
            spans: [events, batch_span],
        })
    }

    fn check(&mut self, stimulus: &Stimulus, out: &Outputs) -> Result<(), String> {
        check(out.edif.starts_with("(edif"), || {
            "netlist is not EDIF".to_owned()
        })?;
        let mut local = Simulator::new(&self.circuit).map_err(|e| e.to_string())?;
        for (i, (&x, remote)) in stimulus.steps.iter().zip(&out.steps).enumerate() {
            local
                .set(INPUT, LogicVec::from_i64(x, 8))
                .and_then(|()| local.cycle(1))
                .map_err(|e| e.to_string())?;
            let expected = local.peek(OUTPUT).map_err(|e| e.to_string())?;
            check(*remote == expected, || {
                format!("black-box step {i}: {remote:?}, local simulator {expected:?}")
            })?;
        }
        check(out.steps.len() == STEPS, || {
            "black-box steps missing".to_owned()
        })?;
        let products = out
            .batch
            .iter()
            .find(|(port, _)| port == OUTPUT)
            .map(|(_, v)| v)
            .ok_or("batch result has no product column")?;
        check(products.len() == VECTORS, || {
            format!("batch returned {} of {VECTORS} vectors", products.len())
        })?;
        for (k, (&x, got)) in stimulus.batch.iter().zip(products).enumerate() {
            let expected = &self.table[(x + 128) as usize];
            check(got == expected, || {
                format!("batch vector {k}: {got:?}, local simulator {expected:?}")
            })?;
        }
        Ok(())
    }

    fn replay(
        &mut self,
        tr: &mut Tracer,
        layers: &mut Layers,
        stimulus: &Stimulus,
        batch_in: &[(String, Vec<LogicVec>)],
        out: &Outputs,
    ) {
        let mut inproc = BlackBoxClient::over(InProcTransport::new(self.prototype.clone()));
        timed(tr, layers, out.spans[0], "cosim.inproc_events", "", || {
            for &x in &stimulus.steps {
                inproc.set(INPUT, LogicVec::from_i64(x, 8))?;
                inproc.cycle(1)?;
                inproc.get(OUTPUT)?;
            }
            Ok::<(), ipd_cosim::CosimError>(())
        })
        .0
        .expect("in-process black box runs");
        let mut model = self.prototype.clone();
        timed(tr, layers, out.spans[1], "sim.batch", "", || {
            model.run_batch(self.latency, batch_in)
        })
        .0
        .expect("in-process batch runs");
    }
}

impl Evaluate {
    /// Reconciles the black-box server's counters with the clients'
    /// and stops it.
    ///
    /// # Errors
    ///
    /// Any counter that differs.
    pub fn finish(&mut self) -> Result<(), String> {
        let server = self.server.take().expect("finish runs once");
        let reconciled = self.tally.reconcile(&server.stats());
        server
            .shutdown()
            .map_err(|e| format!("shut down black-box server: {e}"))?;
        reconciled
    }

    /// The per-layer metrics this workload is home to.
    ///
    /// # Errors
    ///
    /// When the echo server cannot be bound or answers wrongly.
    pub fn layer_metrics(&self, out: &mut Values) -> Result<(), String> {
        let l = &self.layers;
        let got = |name: &str| l.per_design_ms(name).ok_or(format!("no {name} spans"));
        out.insert("hdl.elaborate_ms".into(), got("hdl.elaborate")?);
        out.insert(
            "estimate.area_timing_ms".into(),
            got("estimate.area_timing")?,
        );
        out.insert("viewer.render_ms".into(), got("viewer.render")?);
        out.insert(
            "sim.local_cycles_per_s".into(),
            LOCAL_CYCLES as f64 / (got("sim.local")? / 1e3),
        );
        out.insert(
            "sim.batch_vectors_per_s".into(),
            VECTORS as f64 / (got("sim.batch")? / 1e3),
        );
        let round_trips = (STEPS * 3) as f64;
        out.insert(
            "cosim.event_us".into(),
            got("cosim.events")? * 1e3 / round_trips,
        );
        out.insert(
            "cosim.inproc_event_us".into(),
            got("cosim.inproc_events")? * 1e3 / round_trips,
        );
        out.insert(
            "cosim.round_trips_per_op".into(),
            median(&self.round_trips).ok_or("no black-box sessions")?,
        );
        // The echo frame is the median size of one step's three requests.
        let mut sizes = [
            Message::SetInput {
                port: INPUT.to_owned(),
                value: LogicVec::from_i64(0, 8),
            },
            Message::Cycle { n: 1 },
            Message::GetOutput {
                port: OUTPUT.to_owned(),
            },
        ]
        .map(|m| m.encode().len());
        sizes.sort_unstable();
        out.insert("wire.echo_rtt_us".into(), echo_rtt_us(sizes[1])?);
        Ok(())
    }
}

/// A bench-owned wire service that answers every request with its own
/// body.
struct Echo;

struct EchoSession;

impl WireService for Echo {
    fn open_session(
        &self,
        _peer: SocketAddr,
        _token: Option<&str>,
    ) -> Result<Box<dyn WireSession>, WireError> {
        Ok(Box::new(EchoSession))
    }
}

impl WireSession for EchoSession {
    fn handle(&mut self, _endpoint: u16, body: &[u8]) -> Result<Reply, WireError> {
        Ok(Reply::body(body.to_vec()))
    }
}

/// Median round trip (µs) of `frame`-byte requests over loopback to an
/// echo service on the default wire configuration.
fn echo_rtt_us(frame: usize) -> Result<f64, String> {
    const ROUND_TRIPS: usize = 1000;
    let server = WireServer::bind(WireConfig::default())
        .map_err(|e| format!("bind echo server: {e}"))?
        .start(Arc::new(Echo));
    let body = vec![0x5a; frame];
    let mut rtts = Vec::with_capacity(ROUND_TRIPS);
    let measured = (|| {
        let mut client = WireClient::connect(server.addr(), &ClientConfig::default())
            .map_err(|e| format!("connect echo server: {e}"))?;
        for _ in 0..ROUND_TRIPS {
            let start = Instant::now();
            let reply = client.call(1, &body).map_err(|e| format!("echo: {e}"))?;
            rtts.push(ms(start, Instant::now()) * 1e3);
            check(reply == body, || "echo changed the frame".to_owned())?;
        }
        client.close();
        Ok::<(), String>(())
    })();
    server
        .shutdown()
        .map_err(|e| format!("shut down echo server: {e}"))?;
    measured?;
    median(&rtts).ok_or_else(|| "no echo round trips".to_owned())
}
