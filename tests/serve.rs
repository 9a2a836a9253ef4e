//! Acceptance suite for the online serving subsystem (ISSUE 6).
//!
//! The headline scenario: the 2×Arty Z7-20 Q20 cluster from
//! `tests/cluster.rs` serving an open-loop Poisson stream through
//! continuous micro-batching. Pinned: near-unloaded p50 latency at
//! light load, deadline dispatch beating fixed-batch-32 on p99 at half
//! the ceiling, goodput saturating at the pipelined ceiling under
//! overload — plus an exact bit-stable [`ServeReport`] (virtual time,
//! seeded arrivals) and the generic proptest invariants.
//!
//! A note on the 0.9×-ceiling goodput check: over a *finite* stream,
//! `goodput = images / horizon` prices the ramp-out tail (the horizon
//! runs to the last completion, past the last arrival), so open-loop
//! goodput at 0.9× offered load sits a few percent below offered even
//! for a server that never falls behind. The pinned claims are
//! therefore relative: deadline dispatch keeps ≥ 0.95× of the goodput
//! of the classical fixed-batch-32 dispatcher at the same offered
//! load, and under overload (1.2×) goodput reaches ≥ 0.95× of the
//! closed-loop pipelined batch-32 throughput — the ceiling the batch
//! benchmarks report.

use odenet_suite::prelude::*;
use proptest::prelude::*;
use zynq_sim::cluster::{bottleneck_seconds, StageTiming};
use zynq_sim::serve::{serve_timeline, ArrivalProcess, Dispatch};
use zynq_sim::{Replication, ARTY_Z7_20};

fn two_arty() -> Cluster {
    Cluster::homogeneous(&ARTY_Z7_20, 2, Interconnect::GIGABIT_ETHERNET)
}

/// The serving rack's plan: ODENet-20 sharded across two Arty Z7-20
/// at Q20 (board 0: layer1 + layer2_2, board 1: layer3_2).
fn rack_plan() -> ClusterPlan {
    let spec = NetSpec::new(Variant::OdeNet, 20).with_classes(100);
    plan_cluster(
        &spec,
        &ClusterRequest {
            cluster: two_arty(),
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

fn poisson_at(plan: &ClusterPlan, fraction: f64, dispatch: Dispatch) -> ServeRequest {
    ServeRequest {
        arrivals: ArrivalProcess::Poisson {
            rate: fraction / plan.bottleneck_seconds(),
        },
        images: 256,
        dispatch,
        seed: 42,
        window: Window::default(),
    }
}

/// At 0.2× of the ceiling the server is nearly unloaded: median total
/// latency (queueing + batching + service) stays within 1.1× of the
/// single-image latency the plan predicts — served end-to-end through
/// `Engine::serve`.
#[test]
fn light_load_p50_stays_near_unloaded_latency() {
    let spec = NetSpec::new(Variant::OdeNet, 20).with_classes(100);
    let net = Network::new(spec, 42);
    let engine = Engine::builder(&net)
        .cluster(two_arty())
        .schedule(Schedule::Pipelined)
        .build()
        .expect("builds");
    let plan = engine.cluster_plan().expect("cluster engines keep a plan");
    let single = plan.total_seconds();
    let report = engine
        .serve(&poisson_at(plan, 0.2, Dispatch::default()))
        .expect("valid request");
    assert_eq!(report.images, 256);
    assert!(
        report.latency_p50 <= 1.1 * single,
        "p50 {} vs 1.1 × unloaded {}",
        report.latency_p50,
        1.1 * single
    );
    // No latency can beat the unloaded pipeline.
    assert!(report.latency_p50 >= single - 1e-12);
    assert!(report.latency_p99 >= report.latency_p50);
}

/// At 0.5× of the ceiling, continuous micro-batching beats the
/// classical fixed-batch-32 dispatcher on p99 total latency — under
/// light-to-moderate load a fixed batch makes its first image wait
/// for its last.
#[test]
fn deadline_dispatch_beats_fixed_batch_32_on_p99_at_half_ceiling() {
    let plan = rack_plan();
    let deadline = serve_timeline(
        plan.timeline(),
        &poisson_at(&plan, 0.5, Dispatch::default()),
        false,
    )
    .expect("valid");
    let fixed = serve_timeline(
        plan.timeline(),
        &poisson_at(&plan, 0.5, Dispatch::FixedBatch { size: 32 }),
        false,
    )
    .expect("valid");
    assert!(
        deadline.latency_p99 < fixed.latency_p99,
        "deadline p99 {} must beat fixed-32 p99 {}",
        deadline.latency_p99,
        fixed.latency_p99
    );
    // The gap is structural, not marginal: fixed-32 pays the whole
    // batch-accumulation window (~32 / offered ≈ 8.7s) in its tail.
    assert!(deadline.latency_p99 < 0.25 * fixed.latency_p99);
}

/// The 0.9×-ceiling goodput claim (see the module docs for why the
/// comparison is relative over a finite stream): deadline dispatch
/// keeps ≥ 0.95× the goodput of fixed-batch-32 at the same offered
/// load while cutting its p99, and it never falls behind the stream —
/// goodput stays within 10% of offered (the shortfall is exactly the
/// ramp-out tail).
#[test]
fn near_saturation_goodput_holds_against_fixed_batch_32() {
    let plan = rack_plan();
    let deadline = serve_timeline(
        plan.timeline(),
        &poisson_at(&plan, 0.9, Dispatch::default()),
        false,
    )
    .expect("valid");
    let fixed = serve_timeline(
        plan.timeline(),
        &poisson_at(&plan, 0.9, Dispatch::FixedBatch { size: 32 }),
        false,
    )
    .expect("valid");
    assert!(
        deadline.goodput >= 0.95 * fixed.goodput,
        "deadline goodput {} vs fixed-32 {}",
        deadline.goodput,
        fixed.goodput
    );
    assert!(deadline.latency_p99 < fixed.latency_p99);
    assert!(
        deadline.goodput >= 0.9 * deadline.offered_rate,
        "goodput {} vs offered {}",
        deadline.goodput,
        deadline.offered_rate
    );
}

/// Under overload (1.2× the ceiling) the queue diverges but goodput
/// saturates at the placement's capacity: ≥ 0.95× the closed-loop
/// pipelined batch-32 throughput, and never above the ceiling.
#[test]
fn overload_goodput_saturates_at_the_pipelined_ceiling() {
    let plan = rack_plan();
    let report = serve_timeline(
        plan.timeline(),
        &poisson_at(&plan, 1.2, Dispatch::default()),
        false,
    )
    .expect("valid");
    let batch32 = 32.0 / plan.batch_seconds(32, Schedule::Pipelined);
    let ceiling = 1.0 / plan.bottleneck_seconds();
    assert!(
        report.goodput >= 0.95 * batch32,
        "overload goodput {} vs batch-32 throughput {}",
        report.goodput,
        batch32
    );
    assert!(report.goodput <= ceiling * (1.0 + 1e-9));
    // Overload is visible where it should be: the tail, not the rate.
    let light = serve_timeline(
        plan.timeline(),
        &poisson_at(&plan, 0.2, Dispatch::default()),
        false,
    )
    .expect("valid");
    assert!(report.latency_p99 > 3.0 * light.latency_p99);
}

/// Serving changes *when*, never *what*: the exact pinned
/// [`ServeReport`] for one seeded Poisson run — virtual time and
/// seeded arrivals make it bit-stable across runs and machines.
#[test]
#[allow(clippy::excessive_precision)] // full-precision pins on purpose
fn pinned_poisson_serve_report_is_bit_stable() {
    let plan = rack_plan();
    let req = ServeRequest {
        arrivals: ArrivalProcess::Poisson { rate: 4.0 },
        images: 64,
        dispatch: Dispatch::default(),
        seed: 7,
        window: Window::default(),
    };
    let report = serve_timeline(plan.timeline(), &req, false).expect("valid");
    let again = serve_timeline(plan.timeline(), &req, false).expect("valid");
    assert_eq!(report, again, "bit-stable");

    // The exact run, pinned: integers to the image, floats to the ulp
    // (1e-12 relative slack only for cross-platform libm leeway in the
    // exponential gap generator).
    assert_eq!(report.images, 64);
    assert_eq!(report.batches, 51);
    assert_eq!(report.queue_peak, 3);
    assert_eq!(report.offered_rate, 4.0);
    let pin = |got: f64, want: f64, what: &str| {
        assert!(
            (got - want).abs() <= 1e-12 * want.abs(),
            "{what}: got {got:.17e}, pinned {want:.17e}"
        );
    };
    pin(report.goodput, 4.443_412_550_300_669_39, "goodput");
    pin(report.horizon, 14.403_344_113_449_325_2, "horizon");
    pin(report.latency_p50, 0.397_639_845_343_336_518, "p50");
    pin(report.latency_p99, 0.745_365_622_738_018_097, "p99");
    // 64 samples cannot separate p99 from p99.9: both hit index 62.
    assert_eq!(report.latency_p999, report.latency_p99);
    pin(report.latency_max, 0.941_060_231_209_246_645, "max");
    assert_eq!(report.utilization.len(), 3, "head PS + two PL fabrics");
    pin(report.utilization[0].1, 0.605_173_990_297_853_8, "PS util");
    pin(report.utilization[1].1, 0.458_159_201_642_489_9, "PL0 util");
    pin(
        report.utilization[2].1,
        0.147_091_885_281_121_16,
        "PL1 util",
    );
}

fn any_timeline() -> impl Strategy<Value = Vec<StageTiming>> {
    use zynq_sim::cluster::StageResource;
    prop::collection::vec((0usize..4, 0.001f64..0.5, 0.0f64..0.01), 1..8).prop_map(|stages| {
        stages
            .into_iter()
            .map(|(r, seconds, transfer_in)| StageTiming {
                resource: if r == 0 {
                    StageResource::Ps
                } else {
                    StageResource::Pl(r - 1)
                },
                layer: None,
                seconds,
                transfer_in,
                replicas: Vec::new(),
            })
            .collect()
    })
}

fn any_trace() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..0.4, 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any seeded arrival trace over any pipeline, admitting every
    /// image on arrival (the deadline policy's lower envelope) never
    /// loses to fixed-batch-32 dispatch on p99 total latency: fixed
    /// batching only ever *delays* releases, and a later release can
    /// never finish an image sooner.
    #[test]
    fn deadline_p99_never_loses_to_fixed_batch_32(
        timeline in any_timeline(),
        trace in any_trace(),
    ) {
        // Traces must span positive time to be valid (the shim has no
        // prop_assume; an early Ok skips the degenerate case).
        if trace.iter().sum::<f64>() <= 0.0 {
            return Ok(());
        }
        let request = |dispatch: Dispatch| ServeRequest {
            arrivals: ArrivalProcess::Trace(trace.clone()),
            images: 48,
            dispatch,
            seed: 1,
            window: Window::default(),
        };
        let deadline =
            serve_timeline(&timeline, &request(Dispatch::Deadline { deadline: 0.0 }), false)
                .expect("valid");
        let fixed =
            serve_timeline(&timeline, &request(Dispatch::FixedBatch { size: 32 }), false)
                .expect("valid");
        prop_assert!(
            deadline.latency_p99 <= fixed.latency_p99 + 1e-9,
            "deadline p99 {} vs fixed-32 p99 {}",
            deadline.latency_p99,
            fixed.latency_p99
        );
    }

    /// Goodput can never exceed the placement's pipelined throughput
    /// ceiling: the bottleneck resource serializes `images ×
    /// bottleneck` seconds of work, whatever the dispatch policy or
    /// arrival pattern.
    #[test]
    fn goodput_never_exceeds_the_pipelined_ceiling(
        timeline in any_timeline(),
        trace in any_trace(),
        policy in 0usize..3,
        images in 1usize..40,
    ) {
        if trace.iter().sum::<f64>() <= 0.0 {
            return Ok(());
        }
        let dispatch = match policy {
            0 => Dispatch::Deadline { deadline: 0.0 },
            1 => Dispatch::Deadline { deadline: f64::INFINITY },
            _ => Dispatch::FixedBatch { size: 8 },
        };
        let report = serve_timeline(
            &timeline,
            &ServeRequest {
                arrivals: ArrivalProcess::Trace(trace),
                images,
                dispatch,
                seed: 3,
                window: Window::default(),
            },
            false,
        )
        .expect("valid");
        let ceiling = 1.0 / bottleneck_seconds(&timeline);
        prop_assert!(
            report.goodput <= ceiling * (1.0 + 1e-9),
            "goodput {} vs ceiling {}",
            report.goodput,
            ceiling
        );
        // Total latency is bounded below by unloaded service time.
        let unloaded = zynq_sim::cluster::per_image_seconds(&timeline);
        prop_assert!(report.latency_p50 >= unloaded - 1e-9);
    }
}

/// `Engine::serve` works on a single-board engine too (the plan's
/// placement rebuilt as the one-board degenerate pipeline), and a
/// custom backend — which owns its execution strategy and carries no
/// plan — is a typed error, not a panic.
#[test]
fn single_board_engines_serve_and_custom_backends_cannot() {
    let spec = NetSpec::new(Variant::ROdeNet3, 20).with_classes(10);
    let net = Network::new(spec, 77);
    let engine = Engine::builder(&net).build().expect("default builds");
    let plan = engine.plan().expect("single-board engines keep a plan");
    let single = plan.table5().total_w_pl;
    let mut req = ServeRequest::poisson(0.2 / single);
    req.images = 32;
    let report = engine.serve(&req).expect("single board serves");
    assert_eq!(report.images, 32);
    // The rebuilt one-board pipeline reproduces the plan's latency.
    assert!(
        (report.latency_p50 - single).abs() / single < 0.25,
        "served p50 {} vs plan latency {}",
        report.latency_p50,
        single
    );

    struct Null;
    impl Backend for Null {
        fn name(&self) -> &'static str {
            "null"
        }
        fn offloaded(&self) -> &[LayerName] {
            &[]
        }
        fn infer(&self, _x: &Tensor<f32>) -> Result<RunReport, EngineError> {
            Err(EngineError::EmptyBatch)
        }
    }
    let custom = Engine::builder(&net)
        .custom_backend(Box::new(Null))
        .build()
        .expect("custom builds");
    assert_eq!(
        custom.serve(&ServeRequest::poisson(1.0)),
        Err(EngineError::ServeRequiresPlan { backend: "null" })
    );

    // Degenerate requests are typed errors through the engine too.
    let engine_err = engine
        .serve(&ServeRequest::poisson(0.0))
        .expect_err("zero rate");
    assert!(matches!(engine_err, EngineError::InvalidServe { .. }));
}
