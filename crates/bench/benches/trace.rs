//! Trace-recorder benches: what observability costs the scheduler.
//!
//! * `trace_schedule/*` — the 64-image pipelined schedule on the
//!   prebuilt 2-board plan timeline, three ways: the untraced entry
//!   point (the scheduler core with a no-op commit hook, no recorder
//!   at all), the traced entry point with a **disabled** recorder (one
//!   inlined branch per committed span — should sit next to untraced),
//!   and a fully **enabled** recorder (prices the event log itself).
//! * `trace_aggregate/*` — turning one captured trace into the stall
//!   attribution metrics and the Chrome JSON export.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rodenet::{BnMode, NetSpec, Variant};
use std::time::Duration;
use zynq_sim::engine::Offload;
use zynq_sim::plan::PlFormat;
use zynq_sim::timing::{PlModel, PsModel};
use zynq_sim::trace::Recorder;
use zynq_sim::{
    pipelined_schedule_released, plan_cluster, Cluster, ClusterPlan, ClusterRequest, Interconnect,
    Partitioner, Replication, Schedule, ARTY_Z7_20,
};

const IMAGES: usize = 64;

fn rack_plan() -> ClusterPlan {
    let spec = NetSpec::new(Variant::OdeNet, 20);
    plan_cluster(
        &spec,
        &ClusterRequest {
            cluster: Cluster::homogeneous(&ARTY_Z7_20, 2, Interconnect::GIGABIT_ETHERNET),
            offload: Offload::Auto,
            bn: BnMode::OnTheFly,
            ps: PsModel::Calibrated,
            pl: PlModel::default(),
            precision: PlFormat::Q20.into(),
            schedule: Schedule::Pipelined,
            partitioner: Partitioner::FirstFit,
            replication: Replication::None,
        },
    )
    .expect("two XC7Z020s carry ODENet-20 at Q20")
}

fn bench_schedule(c: &mut Criterion) {
    let plan = rack_plan();
    let timeline = plan.timeline().to_vec();
    let releases: Vec<f64> = (0..IMAGES).map(|i| 0.05 * i as f64).collect();

    let mut g = c.benchmark_group("trace_schedule");
    g.measurement_time(Duration::from_secs(3));
    g.throughput(Throughput::Elements(IMAGES as u64));
    g.bench_function("untraced-no-op-hook", |b| {
        b.iter(|| pipelined_schedule_released(black_box(&timeline), black_box(&releases)))
    });
    g.bench_function("traced-recorder-disabled", |b| {
        b.iter(|| {
            let mut rec = Recorder::disabled();
            zynq_sim::cluster::pipelined_schedule_released_traced(
                black_box(&timeline),
                black_box(&releases),
                &mut rec,
            )
        })
    });
    g.bench_function("traced-recorder-enabled", |b| {
        b.iter(|| {
            let mut rec = Recorder::enabled();
            let run = zynq_sim::cluster::pipelined_schedule_released_traced(
                black_box(&timeline),
                black_box(&releases),
                &mut rec,
            );
            black_box(rec.finish());
            run
        })
    });
    g.finish();
}

fn bench_aggregate(c: &mut Criterion) {
    let plan = rack_plan();
    let releases: Vec<f64> = (0..IMAGES).map(|i| 0.05 * i as f64).collect();
    let mut rec = Recorder::enabled();
    zynq_sim::cluster::pipelined_schedule_released_traced(plan.timeline(), &releases, &mut rec);
    let trace = rec.finish();

    let mut g = c.benchmark_group("trace_aggregate");
    g.measurement_time(Duration::from_secs(3));
    g.throughput(Throughput::Elements(trace.stages.len() as u64));
    g.bench_function("metrics", |b| b.iter(|| black_box(&trace).metrics()));
    g.bench_function("chrome-json", |b| {
        b.iter(|| black_box(&trace).to_chrome_json())
    });
    g.finish();
}

criterion_group!(benches, bench_schedule, bench_aggregate);
criterion_main!(benches);
