//! The four workloads: their set-up, one closed-loop op each, and the
//! output checks that decide whether an op failed.

use crate::calib::Scale;
use crate::deploy::{self, ADMIT_ON_ARRIVAL, HYBRID_BATCH, PS_BATCH, STREAM};
use crate::spans::Spans;
use rodenet::Network;
use std::time::Instant;
use tensor::conv::set_force_reference;
use tensor::Tensor;
use zynq_sim::cluster::pipelined_schedule_released;
use zynq_sim::engine::{Engine, EngineBuilder, RunReport};
use zynq_sim::serve::{Dispatch, MicroBatcher, ServeReport, ServeRequest};

/// The workload names, in the order `BENCHMARK.json` lists them.
const NAMES: [&str; 4] = [
    "infer_ps",
    "infer_hybrid",
    "serve_deadline",
    "failover_auto6",
];

/// What one op produced, for the measurement loop.
pub struct OpOut {
    /// Images the op completed.
    pub images: usize,
    /// Host seconds of the library calls, checks excluded.
    pub op_s: f64,
    /// Host seconds of the op's own single-image call, when it has one.
    pub single_s: Option<f64>,
    /// Virtual-time outputs, compared against the recorded fingerprint.
    pub virtuals: Vec<(&'static str, f64)>,
    /// The output checks' verdict.
    pub check: Result<(), String>,
}

pub trait Workload {
    /// Run one op (`op` is its id in spans) and check its outputs. An
    /// `Err` is a library error, so the op has no timing either.
    fn op(&mut self, spans: &mut Spans, op: u64) -> Result<OpOut, String>;
    /// One checked single-image call.
    fn single(&mut self) -> Result<(), String>;
}

/// Build with `builder` until `budget_s` is spent (at least `MIN_BUILDS`,
/// at most `MAX_BUILDS` times): the seconds of every build at reference
/// speed, and the last engine.
fn timed_builds<'n>(
    builder: impl Fn() -> EngineBuilder<'n>,
    budget_s: f64,
) -> Result<(Engine<'n>, Vec<f64>), String> {
    const MIN_BUILDS: usize = 5;
    const MAX_BUILDS: usize = 101;
    let mut samples = Vec::new();
    let mut scale = Scale::start();
    let started = Instant::now();
    loop {
        let t = Instant::now();
        let engine = builder()
            .build()
            .map_err(|e| format!("engine build: {e}"))?;
        samples.push(t.elapsed().as_secs_f64());
        let spent = started.elapsed().as_secs_f64();
        if samples.len() >= MAX_BUILDS || (samples.len() >= MIN_BUILDS && spent >= budget_s) {
            let factor = scale.next();
            return Ok((engine, samples.iter().map(|s| s * factor).collect()));
        }
    }
}

/// Host seconds spent on repeated builds during set-up.
const SETUP_BUDGET_S: f64 = 0.5;

fn bits(t: &Tensor<f32>) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Resets the process-global reference-kernel flag when dropped, so an
/// early return cannot leave the slow path pinned.
struct ForceReference;

impl ForceReference {
    fn on() -> Self {
        set_force_reference(true);
        ForceReference
    }
}

impl Drop for ForceReference {
    fn drop(&mut self) {
        set_force_reference(false);
    }
}

/// `infer_ps` / `infer_hybrid`: one `infer_batch` (of `PS_BATCH` or
/// `HYBRID_BATCH` images) plus one single-image `infer` per op.
pub struct Infer<'n> {
    engine: Engine<'n>,
    batch: Vec<Tensor<f32>>,
    single: Tensor<f32>,
    /// Scalar-oracle logits of the sampled batch images, by index.
    oracle: Vec<(usize, Vec<u32>)>,
    single_oracle: Vec<u32>,
    /// Logits of the first op, which every later op must repeat.
    first: Option<Vec<Vec<u32>>>,
    /// Table 5 "total w/ PL" of the deployment.
    modelled: f64,
}

/// Batch images whose logits are checked against the scalar oracle: the
/// first and the last.
fn oracle_sample(batch: usize) -> [usize; 2] {
    [0, batch - 1]
}

impl<'n> Infer<'n> {
    pub fn setup(net: &'n Network, hybrid: bool, seed: u64) -> Result<(Self, Vec<f64>), String> {
        let builder = || {
            if hybrid {
                deploy::hybrid_engine(net)
            } else {
                deploy::ps_engine(net)
            }
        };
        let (engine, setup) = timed_builds(builder, SETUP_BUDGET_S)?;
        let modelled = engine
            .latency_report()
            .ok_or("single-board engines carry a Table 5 row")?
            .total_w_pl;
        let size = if hybrid { HYBRID_BATCH } else { PS_BATCH };
        let mut batch = deploy::images(seed, size + 1);
        let single = batch.pop().expect("a batch and one more image");
        let (oracle, single_oracle) = {
            let _reference = ForceReference::on();
            let logits = |x: &Tensor<f32>| {
                engine
                    .infer(x)
                    .map(|r| bits(&r.logits))
                    .map_err(|e| format!("oracle infer: {e}"))
            };
            let oracle = oracle_sample(size)
                .iter()
                .map(|&i| Ok((i, logits(&batch[i])?)))
                .collect::<Result<Vec<_>, String>>()?;
            (oracle, logits(&single)?)
        };
        Ok((
            Infer {
                engine,
                batch,
                single,
                oracle,
                single_oracle,
                first: None,
                modelled,
            },
            setup,
        ))
    }

    fn check_report(&self, r: &RunReport, what: &str) -> Result<(), String> {
        if r.total_seconds().to_bits() != self.modelled.to_bits() {
            return Err(format!(
                "{what}: modelled {} s/img, Table 5 row says {}",
                r.total_seconds(),
                self.modelled
            ));
        }
        Ok(())
    }
}

impl Workload for Infer<'_> {
    fn op(&mut self, spans: &mut Spans, op: u64) -> Result<OpOut, String> {
        let span = spans.begin("op", op);
        let t = Instant::now();
        let runs = spans.leaf("op.engine.infer_batch", op, || {
            self.engine.infer_batch(&self.batch)
        });
        let t_single = Instant::now();
        let one = spans.leaf("op.engine.infer", op, || self.engine.infer(&self.single));
        let single_s = t_single.elapsed().as_secs_f64();
        let op_s = t.elapsed().as_secs_f64();
        spans.end(span);

        let runs = runs.map_err(|e| format!("infer_batch: {e}"))?;
        let one = one.map_err(|e| format!("infer: {e}"))?;
        Ok(OpOut {
            images: self.batch.len() + 1,
            op_s,
            single_s: Some(single_s),
            virtuals: vec![("modelled_s_per_img", one.total_seconds())],
            check: self.check(&runs, &one),
        })
    }

    fn single(&mut self) -> Result<(), String> {
        let one = self
            .engine
            .infer(&self.single)
            .map_err(|e| format!("infer: {e}"))?;
        self.check_report(&one, "single image")?;
        if bits(&one.logits) != self.single_oracle {
            return Err("single image: logits differ from the scalar oracle".to_string());
        }
        Ok(())
    }
}

impl Infer<'_> {
    fn check(&mut self, runs: &[RunReport], one: &RunReport) -> Result<(), String> {
        if runs.len() != self.batch.len() {
            return Err(format!("infer_batch returned {} reports", runs.len()));
        }
        for (i, r) in runs.iter().enumerate() {
            self.check_report(r, &format!("batch image {i}"))?;
        }
        self.check_report(one, "single image")?;
        let logits: Vec<Vec<u32>> = runs.iter().map(|r| bits(&r.logits)).collect();
        for (i, want) in &self.oracle {
            if &logits[*i] != want {
                return Err(format!(
                    "batch image {i}: logits differ from the scalar oracle"
                ));
            }
        }
        if bits(&one.logits) != self.single_oracle {
            return Err("single image: logits differ from the scalar oracle".to_string());
        }
        match &self.first {
            Some(first) if *first != logits => {
                return Err("batch logits differ from the first op's".to_string())
            }
            Some(_) => {}
            None => self.first = Some(logits),
        }
        Ok(())
    }
}

/// What the serve pipeline gives when replayed step by step through its
/// public pieces.
pub struct Replay {
    pub horizon: f64,
    pub batches: usize,
    pub queue_peak: usize,
}

/// `arrivals → release_plan → schedule`, each in its own span.
pub fn serve_replay(engine: &Engine<'_>, req: &ServeRequest, spans: &mut Spans, op: u64) -> Replay {
    let plan = engine.cluster_plan().expect("serving engines are clusters");
    let arrivals = spans.leaf("serve.arrivals", op, || {
        req.arrivals.arrivals(req.images, req.seed)
    });
    let rel = spans.leaf("serve.release_plan", op, || {
        MicroBatcher::new(req.dispatch).release_plan(plan.timeline(), &arrivals)
    });
    let run = spans.leaf("cluster.schedule", op, || {
        pipelined_schedule_released(plan.timeline(), &rel.releases)
    });
    Replay {
        horizon: run.makespan,
        batches: rel.batches,
        queue_peak: rel.queue_peak,
    }
}

/// `serve_deadline` / `failover_auto6`: one `Engine::serve` of the
/// stream per op; the single-image call is a one-image serve.
pub struct Serve<'n> {
    engine: Engine<'n>,
    req: ServeRequest,
    single_req: ServeRequest,
    /// The deadline stream's step-by-step replay (fault-free only).
    replay: Option<Replay>,
    bottleneck: f64,
    first: Option<ServeReport>,
}

impl<'n> Serve<'n> {
    /// The two-board rack under deadline micro-batching.
    pub fn deadline(net: &'n Network, seed: u64) -> Result<(Self, Vec<f64>), String> {
        let (engine, setup) = timed_builds(|| deploy::serve_engine(net), SETUP_BUDGET_S)?;
        let plan = engine.cluster_plan().ok_or("cluster engines keep a plan")?;
        let req = deploy::stream(plan, STREAM, Dispatch::default(), seed);
        let single_req = deploy::stream(plan, 1, Dispatch::default(), seed);
        let replay = serve_replay(&engine, &req, &mut Spans::new(false), 0);
        let bottleneck = plan.bottleneck_seconds();
        Ok((
            Serve {
                engine,
                req,
                single_req,
                replay: Some(replay),
                bottleneck,
                first: None,
            },
            setup,
        ))
    }

    /// The six-board rack, admitting on arrival, with the fault plan.
    pub fn failover(net: &'n Network, seed: u64) -> Result<(Self, Vec<f64>), String> {
        let plan = deploy::rack_engine(net, deploy::RACK)
            .plan_cluster()
            .map_err(|e| format!("rack plan: {e}"))?;
        let faults = deploy::fault_plan(&plan);
        let (engine, setup) = timed_builds(
            || deploy::rack_engine(net, deploy::RACK).faults(faults.clone()),
            SETUP_BUDGET_S,
        )?;
        let plan = engine.cluster_plan().ok_or("cluster engines keep a plan")?;
        let req = deploy::stream(plan, STREAM, ADMIT_ON_ARRIVAL, seed);
        let single_req = deploy::stream(plan, 1, ADMIT_ON_ARRIVAL, seed);
        let bottleneck = plan.bottleneck_seconds();
        Ok((
            Serve {
                engine,
                req,
                single_req,
                replay: None,
                bottleneck,
                first: None,
            },
            setup,
        ))
    }

    fn check(&self, r: &ServeReport) -> Result<(), String> {
        if let Some(replay) = &self.replay {
            if r.images != self.req.images {
                return Err(format!("served {} of {} images", r.images, self.req.images));
            }
            if !(r.latency_p50 <= r.latency_p99
                && r.latency_p99 <= r.latency_p999
                && r.latency_p999 <= r.latency_max)
            {
                return Err(format!(
                    "latency percentiles out of order: p50 {} p99 {} p999 {} max {}",
                    r.latency_p50, r.latency_p99, r.latency_p999, r.latency_max
                ));
            }
            if r.goodput > 1.0 / self.bottleneck {
                return Err(format!(
                    "goodput {} img/s above the pipelined ceiling {}",
                    r.goodput,
                    1.0 / self.bottleneck
                ));
            }
            if r.horizon.to_bits() != replay.horizon.to_bits() || r.batches != replay.batches {
                return Err(format!(
                    "report (horizon {}, {} batches) differs from the replay (horizon {}, {} batches)",
                    r.horizon, r.batches, replay.horizon, replay.batches
                ));
            }
        } else {
            let a = r
                .availability
                .as_ref()
                .ok_or("a faulted serve reports availability")?;
            if a.completed + a.dropped != self.req.images {
                return Err(format!(
                    "{} completed + {} dropped != {} images",
                    a.completed, a.dropped, self.req.images
                ));
            }
            if !(0.0..=1.0).contains(&a.availability) {
                return Err(format!("availability {} outside [0, 1]", a.availability));
            }
            if a.failovers.len() != 1 {
                return Err(format!(
                    "{} failovers, expected exactly 1",
                    a.failovers.len()
                ));
            }
        }
        Ok(())
    }
}

impl Workload for Serve<'_> {
    fn op(&mut self, spans: &mut Spans, op: u64) -> Result<OpOut, String> {
        let span = spans.begin("op", op);
        let t = Instant::now();
        let report = spans.leaf("op.engine.serve", op, || self.engine.serve(&self.req));
        let op_s = t.elapsed().as_secs_f64();
        spans.end(span);

        let report = report.map_err(|e| format!("serve: {e}"))?;
        let mut virtuals = vec![
            ("latency_p50_s", report.latency_p50),
            ("latency_p99_s", report.latency_p99),
            ("goodput_img_per_s", report.goodput),
            ("queue_peak", report.queue_peak as f64),
        ];
        if let Some(a) = &report.availability {
            virtuals.push(("availability", a.availability));
        }
        let check = self.check(&report).and_then(|()| match &self.first {
            Some(first) if *first != report => {
                Err("serve report differs from the first op's".to_string())
            }
            Some(_) => Ok(()),
            None => {
                self.first = Some(report);
                Ok(())
            }
        });
        Ok(OpOut {
            images: self.req.images,
            op_s,
            single_s: None,
            virtuals,
            check,
        })
    }

    fn single(&mut self) -> Result<(), String> {
        let r = self
            .engine
            .serve(&self.single_req)
            .map_err(|e| format!("one-image serve: {e}"))?;
        let served = match &r.availability {
            Some(a) => a.completed + a.dropped,
            None => r.images,
        };
        if served != 1 {
            return Err(format!("one-image serve accounted for {served} images"));
        }
        Ok(())
    }
}

/// Set up workload `name` and hand it, with its set-up samples, to `f`.
pub fn with_workload<R>(
    name: &str,
    seed: u64,
    f: impl FnOnce(&mut dyn Workload, Vec<f64>) -> Result<R, String>,
) -> Result<R, String> {
    match name {
        "infer_ps" | "infer_hybrid" => {
            let net = deploy::odenet(56);
            let (mut w, setup) = Infer::setup(&net, name == "infer_hybrid", seed)?;
            f(&mut w, setup)
        }
        "serve_deadline" => {
            let net = deploy::odenet(56);
            let (mut w, setup) = Serve::deadline(&net, seed)?;
            f(&mut w, setup)
        }
        "failover_auto6" => {
            let net = deploy::odenet(20);
            let (mut w, setup) = Serve::failover(&net, seed)?;
            f(&mut w, setup)
        }
        other => Err(format!(
            "unknown workload {other:?} (known: {})",
            NAMES.join(", ")
        )),
    }
}
