//! Acceptance suite for the fault-injection and failover subsystem
//! (ISSUE 10).
//!
//! The pinned claims:
//!
//! * **Failover** — a 4-board `Replication::Placement(2)` rack at
//!   0.8× offered load, with one group's board crashed mid-run,
//!   sustains goodput ≥ 0.45× the fault-free run after failing over;
//!   no image is silently lost (completed + dropped == admitted), and
//!   the recovery window equals the replan's priced re-broadcast plus
//!   the drain, bound to the ulp.
//! * **Numerics** — faults change *where and when* images run, never
//!   *what*: a fault-configured engine's logits are bit-identical to
//!   the fault-free engine's.
//! * **Zero-cost disabled** — the empty [`FaultPlan`] is bit-identical
//!   end to end: schedules, `ServeReport`s, and traces equal the
//!   pre-PR path.
//! * **Measurement windows** — trimming warmup/drain at 1.2× offered
//!   load reports goodput no worse than the untrimmed average.
//! * **Proptests** — degraded goodput never exceeds fault-free;
//!   availability stays in [0, 1] (and is exactly 1 for the empty
//!   plan); image conservation under arbitrary crash plans; empty-plan
//!   and late-window schedule bit-identity over random timelines.

use std::sync::OnceLock;

use odenet_suite::prelude::*;
use proptest::prelude::*;
use zynq_sim::cluster::{pipelined_schedule_released, StageTiming};
use zynq_sim::serve::serve_timeline;
use zynq_sim::{faulted_schedule_released, restage_seconds};

fn rack(boards: usize) -> Cluster {
    Cluster::homogeneous(&ARTY_Z7_20, boards, Interconnect::GIGABIT_ETHERNET)
}

fn spec() -> NetSpec {
    NetSpec::new(Variant::OdeNet, 20).with_classes(100)
}

fn image(seed: u64) -> Tensor<f32> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_fn(Shape4::new(1, 3, 32, 32), |_, _, _, _| {
        rng.random::<f32>() - 0.5
    })
}

/// The acceptance rack: two data-parallel placement groups on four
/// Arty boards (groups `[0, 1]` and `[2, 3]`).
fn grouped_engine(net: &Network) -> Engine<'_> {
    Engine::builder(net)
        .cluster(rack(4))
        .schedule(Schedule::Pipelined)
        .replication(Replication::Placement(2))
        .build()
        .expect("the 4-board grouped rack plans")
}

fn poisson_at(plan: &ClusterPlan, fraction: f64, images: usize) -> ServeRequest {
    ServeRequest {
        arrivals: ArrivalProcess::Poisson {
            rate: fraction / plan.bottleneck_seconds(),
        },
        images,
        dispatch: Dispatch::default(),
        seed: 42,
        window: Window::default(),
    }
}

/// Acceptance pin: kill board 3 (the second group's PL fabric) at 40%
/// of the fault-free horizon. The health monitor times the board out,
/// the drain completes the untouched in-flight images, the partition /
/// replica search replans over boards {0, 1, 2}, and serving resumes
/// — at ≥ 0.45× the fault-free goodput, without losing a single image
/// to silence, with the recovery window priced exactly as
/// drain + re-broadcast.
#[test]
fn crashing_one_groups_board_fails_over_at_half_goodput() {
    let net = Network::new(spec(), 2024);
    let engine = grouped_engine(&net);
    let plan = engine.cluster_plan().expect("keeps its plan");
    let req = poisson_at(plan, 0.8, 256);

    let free = engine.serve(&req).expect("fault-free serve");
    assert!(free.availability.is_none(), "fault-free has no section");

    let crash_at = 0.4 * free.horizon;
    let faults = FaultPlan::new(vec![FaultEvent::BoardCrash {
        board: 3,
        at: crash_at,
    }]);
    let faulted = serve_faulted(plan, &req, &faults, &HealthPolicy::default(), false)
        .expect("the faulted serve completes");

    // Goodput survives the failover.
    assert!(
        faulted.goodput >= 0.45 * free.goodput,
        "faulted goodput {:.2} img/s < 0.45× fault-free {:.2} img/s",
        faulted.goodput,
        free.goodput
    );

    // Conservation: every admitted image is either completed or
    // explicitly dropped — never silently lost.
    let avail = faulted.availability.as_ref().expect("availability section");
    assert_eq!(avail.completed + avail.dropped, req.images);
    assert_eq!(avail.completed, faulted.images);
    assert_eq!(avail.dropped, 0, "3 surviving boards drop nothing");
    assert!(avail.availability > 0.0 && avail.availability < 1.0);

    // Exactly one failover, against the board we killed.
    assert_eq!(avail.failovers.len(), 1);
    let rec = &avail.failovers[0];
    assert_eq!(rec.board, 3);
    assert_eq!(rec.crash_at, crash_at);
    assert!(rec.detect_at > rec.crash_at, "detection is never free");
    assert!(!rec.degraded, "three boards still carry the PL placement");

    // The recovery window is the drain plus the replan's priced
    // re-broadcast — the same f64 sum, so equality holds to the ulp.
    assert_eq!(
        rec.recovery_seconds.to_bits(),
        (rec.drain_seconds + rec.rebroadcast_seconds).to_bits()
    );
    assert!(rec.resume_at >= rec.detect_at + rec.rebroadcast_seconds);

    // ... and the re-broadcast is exactly what re-staging the
    // survivor replan costs: rebuild the identical request the
    // orchestrator issues and price it independently.
    let creq = ClusterRequest {
        cluster: Cluster::new(
            plan.cluster().boards()[..3].to_vec(),
            *plan.cluster().interconnect(),
        ),
        offload: Offload::Auto,
        bn: plan.bn_mode(),
        ps: *plan.ps_model(),
        pl: *plan.pl_model(),
        precision: *plan.precision(),
        schedule: plan.schedule(),
        partitioner: plan.partitioner(),
        replication: Replication::Auto,
    };
    let replan = plan_cluster(plan.spec(), &creq).expect("3 survivors plan");
    assert_eq!(
        rec.rebroadcast_seconds.to_bits(),
        restage_seconds(&replan).to_bits()
    );
}

/// Faults never touch numerics: the logits of an engine configured
/// with a fault plan are bit-identical to the fault-free engine's.
#[test]
fn completed_logits_are_bit_identical_to_fault_free() {
    let net = Network::new(spec(), 2024);
    let free = grouped_engine(&net);
    let faulted = Engine::builder(&net)
        .cluster(rack(4))
        .schedule(Schedule::Pipelined)
        .replication(Replication::Placement(2))
        .faults(FaultPlan::new(vec![
            FaultEvent::BoardCrash { board: 3, at: 0.5 },
            FaultEvent::BoardSlowdown {
                board: 1,
                at: 0.1,
                factor: 2.0,
                duration: 0.4,
            },
        ]))
        .build()
        .expect("a valid fault plan builds");
    for seed in 0..3u64 {
        let x = image(seed);
        let a = faulted.infer(&x).expect("faulted engine runs");
        let b = free.infer(&x).expect("fault-free engine runs");
        assert_eq!(a.logits.as_slice(), b.logits.as_slice(), "seed {seed}");
    }
}

/// The engine route: `EngineBuilder::faults` + `Engine::serve` carries
/// the availability section and the fault markers in the trace.
#[test]
fn engine_serve_reports_availability_and_traces_faults() {
    let net = Network::new(spec(), 2024);
    let plan = grouped_engine(&net).cluster_plan().expect("plan").clone();
    let free = grouped_engine(&net)
        .serve(&poisson_at(&plan, 0.8, 96))
        .expect("fault-free serve");
    let crash_at = 0.4 * free.horizon;
    let engine = Engine::builder(&net)
        .cluster(rack(4))
        .schedule(Schedule::Pipelined)
        .replication(Replication::Placement(2))
        .faults(FaultPlan::new(vec![
            FaultEvent::BoardCrash {
                board: 3,
                at: crash_at,
            },
            FaultEvent::LinkDegrade {
                at: 0.0,
                bandwidth_factor: 0.5,
                duration: crash_at,
            },
        ]))
        .trace(true)
        .build()
        .expect("builds");
    let report = engine.serve(&poisson_at(&plan, 0.8, 96)).expect("serves");
    let avail = report.availability.as_ref().expect("availability section");
    assert_eq!(avail.completed + avail.dropped, 96);
    assert_eq!(avail.failovers.len(), 1);
    assert!(avail.describe().contains("failover"));

    let trace = report.trace().expect("tracing was requested");
    let kinds: Vec<_> = trace.faults.iter().map(|e| format!("{e:?}")).collect();
    assert!(
        kinds.iter().any(|k| k.contains("FaultInjected")),
        "{kinds:?}"
    );
    assert!(
        kinds.iter().any(|k| k.contains("FailoverStart")),
        "{kinds:?}"
    );
    assert!(kinds.iter().any(|k| k.contains("FailoverEnd")), "{kinds:?}");
    let json = trace.to_chrome_json();
    check_chrome_json(&json).expect("well-formed Chrome trace");
    assert!(json.contains("crash board 3"), "fault instants exported");
    assert!(json.contains("failover start (board 3)"));
    assert!(json.contains("link degrade"));
}

/// Under faults the trace's utilization is the report's, bit for bit:
/// the busy time the faulted run actually spent (here, board 1's PL
/// slowed 2× for the whole run), not the nominal timeline's table —
/// and `Trace::metrics()` inherits the same numbers.
#[test]
fn faulted_trace_utilization_matches_the_report() {
    let net = Network::new(spec(), 2024);
    let engine = grouped_engine(&net);
    let plan = engine.cluster_plan().expect("plan");
    let req = poisson_at(plan, 0.8, 96);
    let faults = FaultPlan::new(vec![FaultEvent::BoardSlowdown {
        board: 1,
        at: 0.0,
        factor: 2.0,
        duration: 1e3,
    }]);
    let report = serve_faulted(plan, &req, &faults, &HealthPolicy::default(), true)
        .expect("the slowed serve completes");
    let trace = report.trace().expect("tracing was requested");
    assert_eq!(trace.utilization(), report.utilization);
    let metrics = trace.metrics();
    for &(resource, utilization) in &report.utilization {
        let m = metrics
            .resources
            .iter()
            .find(|m| m.resource == resource)
            .expect("every busy resource has spans");
        assert_eq!(m.utilization, utilization, "{resource:?}");
    }
}

/// Zero cost when disabled: with the empty plan, the low-level
/// schedule, the serve report, and the trace are all bit-identical to
/// the pre-existing fault-free path.
#[test]
fn empty_plan_is_bit_identical_end_to_end() {
    let net = Network::new(spec(), 2024);
    let engine = grouped_engine(&net);
    let plan = engine.cluster_plan().expect("plan");
    let req = poisson_at(plan, 0.8, 128);

    let free = serve_timeline(plan.timeline(), &req, true).expect("fault-free");
    let faulted = serve_faulted(
        plan,
        &req,
        &FaultPlan::none(),
        &HealthPolicy::default(),
        true,
    )
    .expect("empty plan serves");
    assert_eq!(free, faulted, "ServeReports (incl. traces) are equal");

    // The engine route with an explicit empty plan matches too.
    let explicit = Engine::builder(&net)
        .cluster(rack(4))
        .schedule(Schedule::Pipelined)
        .replication(Replication::Placement(2))
        .faults(FaultPlan::none())
        .build()
        .expect("builds");
    assert_eq!(
        engine.serve(&req).expect("serves"),
        explicit.serve(&req).expect("serves")
    );
}

/// Every `InvalidFaultPlan` rejection, via the builder: the error is
/// typed, names the offending event, and explains itself.
#[test]
fn invalid_fault_plans_are_rejected_with_actionable_errors() {
    let net = Network::new(spec(), 2024);
    let build = |events: Vec<FaultEvent>| {
        Engine::builder(&net)
            .cluster(rack(4))
            .schedule(Schedule::Pipelined)
            .faults(FaultPlan::new(events))
            .build()
            .map(|_| ())
    };
    let expect_invalid = |events: Vec<FaultEvent>, needle: &str| {
        let err = build(events).expect_err("must be rejected");
        assert!(
            matches!(err, EngineError::InvalidFaultPlan { .. }),
            "{err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains(needle), "{msg:?} lacks {needle:?}");
    };

    expect_invalid(
        vec![FaultEvent::BoardCrash { board: 9, at: 0.1 }],
        "board 9",
    );
    expect_invalid(
        vec![FaultEvent::BoardHang {
            board: 0,
            at: 0.1,
            duration: 0.0,
        }],
        "duration",
    );
    expect_invalid(
        vec![FaultEvent::BoardSlowdown {
            board: 0,
            at: 0.1,
            factor: 0.5,
            duration: 1.0,
        }],
        "factor",
    );
    expect_invalid(
        vec![FaultEvent::LinkDegrade {
            at: 0.1,
            bandwidth_factor: 1.5,
            duration: 1.0,
        }],
        "bandwidth",
    );
    expect_invalid(
        vec![
            FaultEvent::BoardHang {
                board: 2,
                at: 0.0,
                duration: 1.0,
            },
            FaultEvent::BoardSlowdown {
                board: 2,
                at: 0.5,
                factor: 2.0,
                duration: 1.0,
            },
        ],
        "overlap",
    );

    // Event indices point at the offender.
    let err = build(vec![
        FaultEvent::BoardHang {
            board: 0,
            at: 0.0,
            duration: 1.0,
        },
        FaultEvent::BoardCrash { board: 7, at: 0.1 },
    ])
    .expect_err("rejected");
    assert!(err.to_string().contains("event #1"), "{err}");

    // Fault injection needs a cluster deployment.
    let err = Engine::builder(&net)
        .board(&PYNQ_Z2)
        .faults(FaultPlan::new(vec![FaultEvent::BoardCrash {
            board: 0,
            at: 0.1,
        }]))
        .build()
        .expect_err("single-board engines cannot inject faults");
    assert!(err.to_string().contains("cluster"), "{err}");

    // An unusable health policy is typed the same way.
    let err = Engine::builder(&net)
        .cluster(rack(2))
        .schedule(Schedule::Pipelined)
        .faults(FaultPlan::new(vec![FaultEvent::BoardCrash {
            board: 0,
            at: 0.1,
        }]))
        .health(HealthPolicy { timeout: 0.0 })
        .build()
        .expect_err("a zero timeout never detects anything");
    assert!(
        matches!(err, EngineError::InvalidFaultPlan { .. }),
        "{err:?}"
    );
}

/// Measurement windows: invalid fractions are typed `InvalidServe`;
/// the whole-horizon default reports `None`; and at 1.2× offered load,
/// trimming the cold-start warmup and the draining tail reports
/// steady-state goodput no worse than the untrimmed average.
#[test]
fn measurement_window_trims_warmup_and_drain() {
    let net = Network::new(spec(), 2024);
    let engine = grouped_engine(&net);
    let plan = engine.cluster_plan().expect("plan");

    // Invalid fractions are rejected before any virtual time passes.
    for window in [
        Window {
            warmup_fraction: -0.1,
            drain_fraction: 0.0,
        },
        Window {
            warmup_fraction: 0.6,
            drain_fraction: 0.4,
        },
        Window {
            warmup_fraction: f64::NAN,
            drain_fraction: 0.0,
        },
    ] {
        let mut req = poisson_at(plan, 0.8, 32);
        req.window = window;
        let err = engine.serve(&req).expect_err("rejected");
        assert!(matches!(err, EngineError::InvalidServe { .. }), "{err:?}");
        assert!(err.to_string().contains("measurement-window"), "{err}");
    }

    // The default window is the whole horizon: no report.
    let untrimmed = engine
        .serve(&poisson_at(plan, 1.2, 256))
        .expect("overloaded serve");
    assert!(untrimmed.window.is_none());

    // Trimmed steady state ≥ untrimmed average at 1.2× load: the
    // untrimmed figure dilutes the overloaded steady state with the
    // cold-start ramp.
    let mut req = poisson_at(plan, 1.2, 256);
    req.window = Window {
        warmup_fraction: 0.2,
        drain_fraction: 0.1,
    };
    let trimmed = engine.serve(&req).expect("overloaded serve");
    let window = trimmed.window.expect("a trimmed window reports");
    assert!(window.start > 0.0 && window.end < trimmed.horizon);
    assert!(
        window.goodput >= trimmed.goodput,
        "trimmed {:.3} img/s < untrimmed {:.3} img/s",
        window.goodput,
        trimmed.goodput
    );
    // Trimming never changes the run itself.
    assert_eq!(untrimmed.goodput.to_bits(), trimmed.goodput.to_bits());
}

/// A shared 2-board plan for the serve-level proptests (planning once
/// keeps the 64-case loops fast).
fn small_plan() -> &'static ClusterPlan {
    static PLAN: OnceLock<ClusterPlan> = OnceLock::new();
    PLAN.get_or_init(|| {
        let net = Network::new(spec(), 7);
        let engine = Engine::builder(&net)
            .cluster(rack(2))
            .schedule(Schedule::Pipelined)
            .build()
            .expect("2-board rack plans");
        let plan = engine.cluster_plan().expect("keeps its plan").clone();
        plan
    })
}

/// A random chain: stage `j` on its own resource (`Ps` for the head,
/// `Pl(j − 1)` after), the shape a sharded placement's segments take.
/// Distinct per-stage resources keep greedy list scheduling free of
/// Graham timing anomalies, so fault monotonicity holds per finish.
fn chain_timeline() -> impl Strategy<Value = Vec<StageTiming>> {
    use zynq_sim::cluster::StageResource;
    prop::collection::vec((0.001f64..0.3, 0.0f64..0.01), 1..6).prop_map(|stages| {
        stages
            .into_iter()
            .enumerate()
            .map(|(j, (seconds, transfer_in))| StageTiming {
                resource: if j == 0 {
                    StageResource::Ps
                } else {
                    StageResource::Pl(j - 1)
                },
                layer: None,
                seconds,
                transfer_in,
                replicas: Vec::new(),
            })
            .collect()
    })
}

/// A random pipeline with a shared resource — the head PS runs both the
/// first and the last segment — and one interior stage replicated
/// round-robin onto a second fabric (board 8, unused otherwise).
fn shared_replicated_timeline() -> impl Strategy<Value = Vec<StageTiming>> {
    use zynq_sim::cluster::StageResource;
    (
        prop::collection::vec((0.001f64..0.3, 0.0f64..0.01), 3..7),
        0usize..5,
    )
        .prop_map(|(stages, pick)| {
            let n = stages.len();
            let replicated = 1 + pick % (n - 2);
            stages
                .into_iter()
                .enumerate()
                .map(|(j, (seconds, transfer_in))| {
                    let resource = if j == 0 || j == n - 1 {
                        StageResource::Ps
                    } else {
                        StageResource::Pl(j - 1)
                    };
                    StageTiming {
                        resource,
                        layer: None,
                        seconds,
                        transfer_in,
                        replicas: if j == replicated {
                            vec![resource, StageResource::Pl(8)]
                        } else {
                            Vec::new()
                        },
                    }
                })
                .collect()
        })
}

/// Degradation-only fault plans (slowdowns, hangs, link degrades) with
/// event `k` windowed inside `[10k, 10k + 9)` — disjoint by
/// construction, so any mix is a valid plan.
fn degrade_events(boards: usize) -> impl Strategy<Value = Vec<FaultEvent>> {
    prop::collection::vec(
        (
            0usize..3,
            0usize..boards,
            1.0f64..4.0,
            0.05f64..5.0,
            0.1f64..1.0,
        ),
        0..4,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(k, (kind, board, factor, duration, bandwidth_factor))| {
                let at = k as f64 * 10.0;
                match kind {
                    0 => FaultEvent::BoardSlowdown {
                        board,
                        at,
                        factor,
                        duration,
                    },
                    1 => FaultEvent::BoardHang {
                        board,
                        at,
                        duration,
                    },
                    _ => FaultEvent::LinkDegrade {
                        at,
                        bandwidth_factor,
                        duration,
                    },
                }
            })
            .collect()
    })
}

/// Random crash plans over the 2-board rack (possibly crashing
/// everything).
fn crash_events() -> impl Strategy<Value = Vec<FaultEvent>> {
    prop::collection::vec((0usize..2, 0.0f64..3.0), 0..3).prop_map(|raw| {
        raw.into_iter()
            .map(|(board, at)| FaultEvent::BoardCrash { board, at })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Degradation can only push work later: on a chain with distinct
    /// per-stage resources, every faulted finish is at least the
    /// fault-free finish, so the makespan — and therefore goodput —
    /// never improves under faults.
    #[test]
    fn faulted_finishes_never_beat_fault_free(
        timeline in chain_timeline(),
        events in degrade_events(5),
        gaps in prop::collection::vec(0.0f64..0.2, 1..24),
    ) {
        let mut t = 0.0;
        let releases: Vec<f64> = gaps.iter().map(|g| { t += g; t }).collect();
        let base = pipelined_schedule_released(&timeline, &releases);
        let faulted =
            faulted_schedule_released(&timeline, &releases, &FaultPlan::new(events));
        for (i, (b, f)) in base.finishes.iter().zip(&faulted.finishes).enumerate() {
            prop_assert!(f >= b, "image {i}: faulted {f} < fault-free {b}");
        }
        prop_assert!(faulted.makespan >= base.makespan);
    }

    /// The empty plan is bit-identical for *any* timeline — not only
    /// the acceptance fixture.
    #[test]
    fn empty_plan_schedules_bit_identical_for_any_timeline(
        timeline in chain_timeline(),
        gaps in prop::collection::vec(0.0f64..0.2, 1..24),
    ) {
        let mut t = 0.0;
        let releases: Vec<f64> = gaps.iter().map(|g| { t += g; t }).collect();
        let base = pipelined_schedule_released(&timeline, &releases);
        let faulted =
            faulted_schedule_released(&timeline, &releases, &FaultPlan::none());
        prop_assert_eq!(base.makespan.to_bits(), faulted.makespan.to_bits());
        for (b, f) in base.finishes.iter().zip(&faulted.finishes) {
            prop_assert_eq!(b.to_bits(), f.to_bits());
        }
        for (b, f) in base.starts.iter().zip(&faulted.starts) {
            prop_assert_eq!(b.to_bits(), f.to_bits());
        }
    }

    /// Degradation windows that open only after the fault-free makespan
    /// never bind, so the windowed placement rule reproduces the
    /// fault-free schedule bit for bit — over timelines with a shared
    /// resource and a replicated stage, on every board.
    #[test]
    fn late_windows_schedule_bit_identical_to_fault_free(
        timeline in shared_replicated_timeline(),
        raw in prop::collection::vec(
            (0usize..3, 0usize..9, 1.0f64..4.0, 0.05f64..5.0, 0.1f64..1.0, 0.0f64..5.0),
            1..4,
        ),
        gaps in prop::collection::vec(0.0f64..0.2, 1..24),
    ) {
        let mut t = 0.0;
        let releases: Vec<f64> = gaps.iter().map(|g| { t += g; t }).collect();
        let base = pipelined_schedule_released(&timeline, &releases);
        let events = raw
            .into_iter()
            .map(|(kind, board, factor, duration, bandwidth_factor, offset)| {
                let at = base.makespan + offset;
                match kind {
                    0 => FaultEvent::BoardSlowdown { board, at, factor, duration },
                    1 => FaultEvent::BoardHang { board, at, duration },
                    _ => FaultEvent::LinkDegrade { at, bandwidth_factor, duration },
                }
            })
            .collect();
        let faulted =
            faulted_schedule_released(&timeline, &releases, &FaultPlan::new(events));
        prop_assert_eq!(base.makespan.to_bits(), faulted.makespan.to_bits());
        prop_assert_eq!(base.head_idle.to_bits(), faulted.head_idle.to_bits());
        prop_assert_eq!(base.finishes.len(), faulted.finishes.len());
        for (b, f) in base.finishes.iter().zip(&faulted.finishes) {
            prop_assert_eq!(b.to_bits(), f.to_bits());
        }
        for (b, f) in base.starts.iter().zip(&faulted.starts) {
            prop_assert_eq!(b.to_bits(), f.to_bits());
        }
    }
}

proptest! {
    // Serve-level cases replan on every crash; a smaller case count
    // keeps the debug-build suite quick.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Conservation and bounded availability under arbitrary crash
    /// plans — including total outages: completed + dropped always
    /// equals the admitted stream, availability stays within [0, 1],
    /// and an empty plan reports exactly 1.
    #[test]
    fn crashes_conserve_images_and_bound_availability(
        events in crash_events(),
        images in 8usize..48,
    ) {
        let plan = small_plan();
        let req = ServeRequest {
            arrivals: ArrivalProcess::Poisson {
                rate: 0.8 / plan.bottleneck_seconds(),
            },
            images,
            dispatch: Dispatch::default(),
            seed: 11,
            window: Window::default(),
        };
        let faults = FaultPlan::new(events);
        let report = serve_faulted(plan, &req, &faults, &HealthPolicy::default(), false)
            .expect("crash plans always serve");
        if faults.is_empty() {
            prop_assert!(report.availability.is_none());
            prop_assert_eq!(report.availability_fraction(), 1.0);
            prop_assert_eq!(report.images, images);
        } else {
            let avail = report.availability.as_ref().expect("section");
            prop_assert_eq!(avail.completed + avail.dropped, images);
            prop_assert!(
                (0.0..=1.0).contains(&avail.availability),
                "availability {}",
                avail.availability
            );
        }
    }

    /// A degraded serve never reports more goodput than the fault-free
    /// run of the same request (crash-free plans keep every image, so
    /// the horizon can only stretch).
    #[test]
    fn degraded_goodput_never_exceeds_fault_free(events in degrade_events(2)) {
        let plan = small_plan();
        let req = ServeRequest {
            arrivals: ArrivalProcess::Poisson {
                rate: 0.8 / plan.bottleneck_seconds(),
            },
            images: 32,
            dispatch: Dispatch::default(),
            seed: 13,
            window: Window::default(),
        };
        let free = serve_faulted(plan, &req, &FaultPlan::none(), &HealthPolicy::default(), false)
            .expect("fault-free");
        let faulted =
            serve_faulted(plan, &req, &FaultPlan::new(events), &HealthPolicy::default(), false)
                .expect("degraded");
        prop_assert_eq!(faulted.images, free.images, "no crash drops images");
        prop_assert!(
            faulted.goodput <= free.goodput * (1.0 + 1e-12),
            "faulted {} > fault-free {}",
            faulted.goodput,
            free.goodput
        );
    }
}
