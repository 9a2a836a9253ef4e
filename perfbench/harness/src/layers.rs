//! The traced run's layer probes. Each layer is called, inside a span,
//! in the deployment of the workload that loads it (`layers` in
//! `perfbench/workloads.json`), so every traced run reports the same
//! per-layer metrics whichever workload it traces.

use crate::deploy::{self, ADMIT_ON_ARRIVAL, STREAM};
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::serve_replay;
use qfixed::Q20;
use rodenet::{BnMode, LayerName, Network, QuantBlock};
use std::collections::BTreeMap;
use tensor::bn::bn_onthefly;
use tensor::conv::{conv2d, conv2d_out_shape};
use tensor::{Shape4, Tensor};
use zynq_sim::datapath::{stage_cycles_at, OdeBlockAccel};
use zynq_sim::engine::Engine;
use zynq_sim::fault::{faulted_schedule_released, FaultPlan};
use zynq_sim::replica::Replication;
use zynq_sim::serve::{Dispatch, ServeReport, ServeRequest};
use zynq_sim::timing::PsModel;
use zynq_sim::{check_chrome_json, ClusterPlan};

const STAGES: [LayerName; 5] = [
    LayerName::Layer1,
    LayerName::Layer2_1,
    LayerName::Layer2_2,
    LayerName::Layer3_1,
    LayerName::Layer3_2,
];
const ODES: [LayerName; 3] = [LayerName::Layer1, LayerName::Layer2_2, LayerName::Layer3_2];

/// One conv geometry: the stage's first convolution on a seeded input.
struct ConvCase {
    layer: LayerName,
    x: Tensor<f32>,
    macs: u64,
    bytes: u64,
}

/// Every deployment the probes call into, built once.
pub struct Probes<'n> {
    net56: &'n Network,
    net20: &'n Network,
    image: Tensor<f32>,
    ps_logits: Vec<u32>,
    hybrid_logits: Vec<u32>,
    accels: Vec<(LayerName, OdeBlockAccel<Q20>, usize)>,
    quant: Vec<(LayerName, QuantBlock<Q20>)>,
    convs: Vec<ConvCase>,
    bn: BnMode,
    ps_model: PsModel,
    board: zynq_sim::board::Board,
    serve: Engine<'n>,
    serve_traced: Engine<'n>,
    serve_req: ServeRequest,
    rack_plan: ClusterPlan,
    rack_releases: Vec<f64>,
    faults: FaultPlan,
    /// The faulted serve's report (virtual-time counts).
    rack_report: ServeReport,
    /// `(batches, queue_peak)` of the last serve replay.
    serve_counts: (usize, usize),
    /// The last modelled-time Chrome trace, exported beside the host one.
    pub modelled_json: String,
}

fn bits(t: &Tensor<f32>) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn seeded(shape: Shape4, seed: u64) -> Tensor<f32> {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    Tensor::from_fn(shape, |_, _, _, _| {
        rand::Rng::random::<f32>(&mut rng) * 2.0 - 1.0
    })
}

impl<'n> Probes<'n> {
    pub fn setup(net56: &'n Network, net20: &'n Network, seed: u64) -> Result<Self, String> {
        fn err(what: &'static str) -> impl Fn(zynq_sim::EngineError) -> String {
            move |e| format!("{what}: {e}")
        }
        let image = deploy::images(seed, 1).pop().expect("one image");
        let ps = deploy::ps_engine(net56).build().map_err(err("ps engine"))?;
        let ps_logits = bits(&ps.infer(&image).map_err(err("ps infer"))?.logits);
        let hybrid = deploy::hybrid_engine(net56)
            .build()
            .map_err(err("hybrid engine"))?;
        let hybrid_logits = bits(&hybrid.infer(&image).map_err(err("hybrid infer"))?.logits);
        let plan = hybrid.plan().ok_or("single-board engines keep a plan")?;
        let parallelism = plan.pl_model().parallelism;
        let accels = hybrid
            .offloaded()
            .iter()
            .map(|&layer| {
                let stage = net56.stage(layer).expect("offloaded stages exist");
                let accel = OdeBlockAccel::new(&stage.blocks[0], parallelism, plan.board());
                (layer, accel, stage.plan.execs)
            })
            .collect();
        let quant = ODES
            .iter()
            .map(|&l| (l, net56.stage(l).expect("ODE stage").blocks[0].quantize()))
            .collect();

        // Each stage's first conv sees its input activation's extent.
        let mut convs = Vec::new();
        let mut z = net56.pre_forward(&image);
        for (i, &layer) in STAGES.iter().enumerate() {
            let block = &net56.stage(layer).expect("ODENet keeps every stage").blocks[0];
            let ws = block.conv1.w.shape();
            let zs = z.shape();
            let x = seeded(Shape4::new(1, ws.c, zs.h, zs.w), seed ^ (i as u64 + 1));
            let out = conv2d_out_shape(x.shape(), ws, block.conv1.cfg);
            convs.push(ConvCase {
                layer,
                macs: (out.len() * ws.c * ws.h * ws.w) as u64,
                bytes: 4 * (x.len() + block.conv1.w.len() + out.len()) as u64,
                x,
            });
            z = net56
                .stage_forward(layer, &z, plan.bn_mode())
                .expect("stage exists");
        }

        let serve = deploy::serve_engine(net56)
            .build()
            .map_err(err("serve engine"))?;
        let serve_traced = deploy::serve_engine(net56)
            .trace(true)
            .build()
            .map_err(err("traced serve engine"))?;
        let serve_plan = serve.cluster_plan().ok_or("cluster engines keep a plan")?;
        let serve_req = deploy::stream(serve_plan, STREAM, Dispatch::default(), seed);

        let rack_plan = deploy::rack_engine(net20, deploy::RACK)
            .plan_cluster()
            .map_err(err("rack plan"))?;
        let faults = deploy::fault_plan(&rack_plan);
        let rack = deploy::rack_engine(net20, deploy::RACK)
            .faults(faults.clone())
            .build()
            .map_err(err("rack engine"))?;
        let rack_req = deploy::stream(&rack_plan, STREAM, ADMIT_ON_ARRIVAL, seed);
        // Admitted on arrival, the release instants are the arrivals.
        let rack_releases = rack_req.arrivals.arrivals(STREAM, seed);
        let rack_report = rack.serve(&rack_req).map_err(err("rack serve"))?;

        Ok(Probes {
            net56,
            net20,
            image,
            ps_logits,
            bn: plan.bn_mode(),
            ps_model: *plan.ps_model(),
            board: *plan.board(),
            hybrid_logits,
            accels,
            quant,
            convs,
            serve,
            serve_traced,
            serve_req,
            rack_plan,
            rack_releases,
            faults,
            rack_report,
            serve_counts: (0, 0),
            modelled_json: String::new(),
        })
    }

    /// One round of every probe, recorded as spans under op id `op`;
    /// an `Err` is a failed output check.
    pub fn round(&mut self, spans: &mut Spans, op: u64) -> Result<(), String> {
        self.f32_stages(spans, op)?;
        self.q20_stages(spans, op)?;
        self.kernels(spans, op);
        self.serving(spans, op)?;
        self.placement(spans, op);
        Ok(())
    }

    /// The f32 walk `pre_forward → stage_forward × 5 → fc_forward`.
    fn f32_stages(&self, spans: &mut Spans, op: u64) -> Result<(), String> {
        let net = self.net56;
        let walk = spans.begin("rodenet.walk", op);
        let mut z = spans.leaf("rodenet.pre_forward", op, || net.pre_forward(&self.image));
        for layer in STAGES {
            let name = format!("rodenet.stage_forward.{}", layer.name());
            z = spans.leaf(&name, op, || {
                net.stage_forward(layer, &z, self.bn).expect("stage")
            });
        }
        let logits = spans.leaf("rodenet.fc_forward", op, || net.fc_forward(&z));
        spans.end(walk);
        if bits(&logits) != self.ps_logits {
            return Err("f32 stage walk: logits differ from Engine::infer".to_string());
        }
        Ok(())
    }

    /// The hybrid walk: offloaded stages through `OdeBlockAccel::run_stage`
    /// at the engine's DMA boundary, the rest in f32.
    fn q20_stages(&self, spans: &mut Spans, op: u64) -> Result<(), String> {
        let net = self.net56;
        let walk = spans.begin("datapath.walk", op);
        let mut z = spans.leaf("rodenet.pre_forward", op, || net.pre_forward(&self.image));
        for layer in STAGES {
            if let Some((_, accel, execs)) = self.accels.iter().find(|(l, _, _)| *l == layer) {
                let zq: Tensor<Q20> = Tensor::from_f32_tensor(&z);
                let name = format!("datapath.run_stage.{}", layer.name());
                let run = spans.leaf(&name, op, || accel.run_stage(&zq, *execs));
                let cycles = stage_cycles_at(layer, accel.parallelism, *execs, 4);
                if run.cycles != cycles {
                    return Err(format!(
                        "{layer}: run_stage reports {} cycles, the cycle model {cycles}",
                        run.cycles
                    ));
                }
                z = run.output.to_f32();
            } else {
                let name = format!("rodenet.stage_forward.{}", layer.name());
                z = spans.leaf(&name, op, || {
                    net.stage_forward(layer, &z, self.bn).expect("stage")
                });
            }
        }
        let logits = spans.leaf("rodenet.fc_forward", op, || net.fc_forward(&z));
        spans.end(walk);
        if bits(&logits) != self.hybrid_logits {
            return Err("hybrid walk: logits differ from Engine::infer".to_string());
        }
        Ok(())
    }

    /// One conv and one on-the-fly batch norm per geometry, in f32 and,
    /// for the ODE stages, in Q20.
    fn kernels(&self, spans: &mut Spans, op: u64) {
        for case in &self.convs {
            let block = &self.net56.stage(case.layer).expect("stage").blocks[0];
            let stage = case.layer.name();
            let c = spans.leaf(&format!("tensor.conv2d.f32.{stage}"), op, || {
                conv2d(&case.x, &block.conv1.w, block.conv1.cfg)
            });
            let bn = &block.bn1;
            std::hint::black_box(spans.leaf(
                &format!("tensor.bn_onthefly.f32.{stage}"),
                op,
                || bn_onthefly(&c, &bn.gamma, &bn.beta, bn.eps),
            ));
            if let Some((_, q)) = self.quant.iter().find(|(l, _)| *l == case.layer) {
                let xq: Tensor<Q20> = Tensor::from_f32_tensor(&case.x);
                let c = spans.leaf(&format!("tensor.conv2d.q20.{stage}"), op, || {
                    conv2d(&xq, &q.w1, q.cfg1)
                });
                std::hint::black_box(spans.leaf(
                    &format!("tensor.bn_onthefly.q20.{stage}"),
                    op,
                    || bn_onthefly(&c, &q.gamma1, &q.beta1, q.eps),
                ));
            }
        }
    }

    /// The deadline serve, step by step and whole, and its traced twin.
    fn serving(&mut self, spans: &mut Spans, op: u64) -> Result<(), String> {
        let replay = serve_replay(&self.serve, &self.serve_req, spans, op);
        let report = spans
            .leaf("engine.serve", op, || self.serve.serve(&self.serve_req))
            .map_err(|e| format!("serve: {e}"))?;
        if report.horizon.to_bits() != replay.horizon.to_bits() || report.batches != replay.batches
        {
            return Err(format!(
                "serve report (horizon {}, {} batches) differs from the traced replay \
                 (horizon {}, {} batches)",
                report.horizon, report.batches, replay.horizon, replay.batches
            ));
        }
        let traced = spans
            .leaf("trace.serve_traced", op, || {
                self.serve_traced.serve(&self.serve_req)
            })
            .map_err(|e| format!("traced serve: {e}"))?;
        let trace = traced.trace().ok_or("a traced serve carries its trace")?;
        let json = spans.leaf("trace.to_chrome_json", op, || trace.to_chrome_json());
        std::hint::black_box(spans.leaf("trace.metrics", op, || trace.metrics()));
        check_chrome_json(&json).map_err(|e| format!("modelled Chrome trace: {e}"))?;
        if traced.horizon.to_bits() != report.horizon.to_bits() {
            return Err("tracing moved the serve horizon".to_string());
        }
        self.serve_counts = (replay.batches, replay.queue_peak);
        self.modelled_json = json;
        Ok(())
    }

    /// The rack's placement searches and its fault-aware schedule.
    fn placement(&self, spans: &mut Spans, op: u64) {
        let net = self.net20;
        let plan = |boards: usize, r: Replication| {
            deploy::rack_engine(net, boards)
                .replication(r)
                .plan_cluster()
                .expect("the rack plans")
        };
        std::hint::black_box(spans.leaf("cluster.plan_cluster.setup", op, || {
            plan(deploy::RACK, Replication::Auto)
        }));
        std::hint::black_box(spans.leaf("partition.search.setup", op, || {
            plan(deploy::RACK, Replication::None)
        }));
        std::hint::black_box(spans.leaf("cluster.plan_cluster.replan", op, || {
            plan(deploy::RACK - 1, Replication::Auto)
        }));
        std::hint::black_box(spans.leaf("fault.faulted_schedule", op, || {
            faulted_schedule_released(self.rack_plan.timeline(), &self.rack_releases, &self.faults)
        }));
    }

    /// The per-layer metrics, from the recorded spans: `(name, value, unit)`.
    pub fn metrics(&self, spans: &Spans) -> Vec<(String, f64, &'static str)> {
        // Host seconds per span name and probe round; a name called more
        // than once in a round (a PS stage in both walks) takes the mean.
        let mut calls: BTreeMap<&str, BTreeMap<u64, (f64, f64)>> = BTreeMap::new();
        for s in spans.spans() {
            let e = calls.entry(&s.name).or_default().entry(s.op).or_default();
            *e = (e.0 + s.seconds(), e.1 + 1.0);
        }
        let by_name: BTreeMap<&str, BTreeMap<u64, f64>> = calls
            .into_iter()
            .map(|(name, r)| {
                (
                    name,
                    r.into_iter().map(|(op, (t, n))| (op, t / n)).collect(),
                )
            })
            .collect();
        let rounds = |name: &str| -> &BTreeMap<u64, f64> { &by_name[name] };
        let t = |name: &str| -> f64 { median(&rounds(name).values().copied().collect::<Vec<_>>()) };
        // Median over rounds of `whole - sum(parts)`.
        let rest = |whole: &str, parts: &[&str]| -> f64 {
            let per_round: Vec<f64> = rounds(whole)
                .iter()
                .map(|(op, w)| w - parts.iter().map(|p| rounds(p)[op]).sum::<f64>())
                .collect();
            median(&per_round)
        };
        let mut out: Vec<(String, f64, &'static str)> = Vec::new();
        let mut secs = |name: String, v: f64| out.push((format!("{name}.s"), v, "s"));

        secs("rodenet.pre_forward".into(), t("rodenet.pre_forward"));
        for l in STAGES {
            let n = format!("rodenet.stage_forward.{}", l.name());
            secs(n.clone(), t(&n));
        }
        secs("rodenet.fc_forward".into(), t("rodenet.fc_forward"));
        for l in STAGES {
            for k in ["conv2d.f32", "bn_onthefly.f32"] {
                let n = format!("tensor.{k}.{}", l.name());
                secs(n.clone(), t(&n));
            }
        }
        for (l, _, _) in &self.accels {
            let n = format!("datapath.run_stage.{}", l.name());
            secs(n.clone(), t(&n));
        }
        for l in ODES {
            for k in ["conv2d.q20", "bn_onthefly.q20"] {
                let n = format!("tensor.{k}.{}", l.name());
                secs(n.clone(), t(&n));
            }
        }
        for n in [
            "serve.arrivals",
            "serve.release_plan",
            "cluster.schedule",
            "trace.serve_traced",
            "trace.to_chrome_json",
            "trace.metrics",
            "cluster.plan_cluster.setup",
            "partition.search.setup",
            "cluster.plan_cluster.replan",
            "fault.faulted_schedule",
        ] {
            secs(n.into(), t(n));
        }
        secs(
            "serve.fold".into(),
            rest(
                "engine.serve",
                &["serve.arrivals", "serve.release_plan", "cluster.schedule"],
            ),
        );
        secs(
            "replica.search.setup".into(),
            rest("cluster.plan_cluster.setup", &["partition.search.setup"]),
        );

        // Modelled seconds of each stage where the hybrid deployment
        // runs it, against the host seconds of the same call.
        for l in STAGES {
            let (host, modelled) = match self.accels.iter().find(|(a, _, _)| *a == l) {
                Some((_, accel, execs)) => (
                    t(&format!("datapath.run_stage.{}", l.name())),
                    stage_cycles_at(l, accel.parallelism, *execs, 4) as f64 / accel.clock_hz as f64,
                ),
                None => {
                    let p = self.net56.spec.plan(l);
                    (
                        t(&format!("rodenet.stage_forward.{}", l.name())),
                        self.ps_model
                            .stage_seconds(l, p.is_ode, p.total_execs(), &self.board),
                    )
                }
            };
            out.push((format!("timing.modelled.{}.s", l.name()), modelled, "s"));
            out.push((
                format!("host_per_modelled.{}", l.name()),
                host / modelled,
                "ratio",
            ));
        }

        for case in &self.convs {
            let l = case.layer.name();
            out.push((format!("tensor.conv2d.{l}.macs"), case.macs as f64, "count"));
            out.push((
                format!("tensor.conv2d.{l}.bytes"),
                case.bytes as f64,
                "count",
            ));
        }
        for l in ODES {
            let (parallelism, execs) = match self.accels.iter().find(|(a, _, _)| *a == l) {
                Some((_, accel, execs)) => (accel.parallelism, *execs),
                None => (self.accels[0].1.parallelism, self.net56.spec.plan(l).execs),
            };
            out.push((
                format!("datapath.{}.cycles", l.name()),
                stage_cycles_at(l, parallelism, execs, 4) as f64,
                "count",
            ));
        }

        let (batches, queue_peak) = self.serve_counts;
        out.push(("serve.batches".into(), batches as f64, "count"));
        out.push(("serve.queue_peak".into(), queue_peak as f64, "count"));
        let a = self
            .rack_report
            .availability
            .as_ref()
            .expect("faulted serves report availability");
        out.push(("fault.failovers".into(), a.failovers.len() as f64, "count"));
        out.push(("fault.redispatched".into(), a.redispatched as f64, "count"));
        out.push(("fault.dropped".into(), a.dropped as f64, "count"));
        out.push(("fault.availability".into(), a.availability, "ratio"));
        out
    }
}
