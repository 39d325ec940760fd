//! Scenario sweeps submitted as job payloads to a worker fleet must fold
//! the same frontier files, byte for byte, as the classic single-process
//! path — for a scenario's sweep grid, and for every job a long-lived
//! fleet serves.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use vi_noc_api::fleet::{job_payload, ScenarioJobResolver};
use vi_noc_api::{PartitionPlan, Scenario, SpecSource};
use vi_noc_fleet::{
    spawn_local_workers, start_coordinator, FleetConfig, FleetHandle, JobResolver, ResolvedJob,
    WorkerOpts, WorkerStats,
};
use vi_noc_sweep::{
    frontier_json, parse_frontier_file, run_deltas, run_shard, ChainRange, GridConfig, RangeDelta,
    Shard,
};

fn base_scenario() -> Scenario {
    let mut s = Scenario::new(
        "fleet-route",
        SpecSource::Benchmark("d12".into()),
        PartitionPlan::Logical { islands: 4 },
    );
    s.floorplan.iterations = 200;
    s.floorplan.restarts = 1;
    s.sweep = Some(GridConfig {
        max_boost: 1,
        freq_scales: vec![1.0, 1.1],
        max_intermediate: 2,
    });
    s
}

/// Runs `body` against a loopback coordinator with `workers` local
/// workers; returns its result and the workers' summed stats.
fn with_workers<T>(workers: usize, body: impl FnOnce(&FleetHandle) -> T) -> (T, WorkerStats) {
    let resolver: Arc<dyn JobResolver> = Arc::new(ScenarioJobResolver);
    let handle =
        start_coordinator("127.0.0.1:0", Arc::clone(&resolver), FleetConfig::default()).unwrap();
    let pool = spawn_local_workers(handle.addr(), resolver, workers, WorkerOpts::default());
    let out = body(&handle);
    handle.shutdown();
    let mut total = WorkerStats::default();
    for worker in pool {
        let stats = worker.join().unwrap().unwrap();
        total.leases += stats.leases;
        total.deltas += stats.deltas;
        total.entries += stats.entries;
        total.abandoned += stats.abandoned;
    }
    (out, total)
}

/// Runs `body` against a loopback coordinator with two local workers.
fn with_fleet<T>(body: impl FnOnce(&FleetHandle) -> T) -> T {
    with_workers(2, body).0
}

/// The entries a worker would send without the skip: the local front of
/// every delta of every lease of a default-configured fleet.
fn local_front_entries(payload: &str) -> usize {
    let job = ScenarioJobResolver.resolve(payload).unwrap();
    let cfg = FleetConfig::default();
    let mut entries = 0;
    for range in ChainRange::cut(job.desc.num_chains, cfg.lease_chunk) {
        let mut emit = |d: RangeDelta| {
            entries += d.entries.len();
            Ok(())
        };
        run_deltas(
            &job.spec,
            &job.vi,
            &job.grid,
            &job.cfg,
            range.chain_ids(),
            0,
            cfg.checkpoint_every,
            job.prune,
            &mut emit,
        )
        .unwrap();
    }
    entries
}

/// The unsharded frontier bytes of a payload's grid, swept in-process.
fn direct_frontier(payload: &str) -> String {
    let job = ScenarioJobResolver.resolve(payload).unwrap();
    let run = run_shard(&job.spec, &job.vi, &job.grid, Shard::full(), &job.cfg);
    frontier_json(&job.desc, &run)
}

#[test]
fn a_fleet_routed_sweep_reproduces_the_direct_frontier_bytes() {
    let direct = base_scenario().run().unwrap().frontier.unwrap();
    let folded = with_fleet(|fleet| fleet.submit(&job_payload(&base_scenario(), None)).unwrap());
    assert_eq!(folded, direct);
}

#[test]
fn a_long_lived_fleet_folds_each_job_from_its_own_payload() {
    // Two jobs whose grid descriptors (and so fingerprints) are equal: the
    // descriptor records no synthesis parameter. A worker that cached its
    // resolution by fingerprint folded the first job's entries again.
    let base = base_scenario();
    let mut slower = base_scenario();
    slower.synthesis.switch_delay_cycles = 2;
    let payloads = [job_payload(&base, None), job_payload(&slower, None)];
    let descs = payloads
        .each_ref()
        .map(|p| ScenarioJobResolver.resolve(p).unwrap().desc.to_json());
    assert_eq!(descs[0], descs[1], "the premise: one grid fingerprint");
    let want = [base, slower].map(|s| s.run().unwrap().frontier.unwrap());
    assert_ne!(want[0], want[1]);
    assert_eq!(want[0], direct_frontier(&payloads[0]));

    let got = with_fleet(|fleet| payloads.each_ref().map(|p| fleet.submit(p).unwrap()));
    assert_eq!(got, want);
}

#[test]
fn the_same_payload_folds_the_reference_bytes_every_time() {
    // The acked-key fold a worker keeps per payload outlives the job: later
    // jobs skip entries by keys acked in earlier ones, and must still fold
    // every frontier entry.
    let payload = job_payload(&base_scenario(), None);
    let want = direct_frontier(&payload);
    let got = with_fleet(|fleet| [(); 3].map(|()| fleet.submit(&payload).unwrap()));
    assert_eq!(got, [want.clone(), want.clone(), want]);
}

/// Resolves payloads as scenarios, counting the calls.
#[derive(Default)]
struct CountingResolver(AtomicUsize);

impl JobResolver for CountingResolver {
    fn resolve(&self, payload: &str) -> Result<ResolvedJob, String> {
        self.0.fetch_add(1, Ordering::Relaxed);
        ScenarioJobResolver.resolve(payload)
    }
}

#[test]
fn a_worker_keeps_only_the_four_most_recently_leased_payloads() {
    // Five distinct payloads push the first out of a worker's cache, so
    // serving it again resolves it again. Each job still folds its own
    // bytes: eviction only drops the acked keys the skip would have used.
    let payloads: Vec<String> = (0..5)
        .map(|max_intermediate| {
            let mut s = base_scenario();
            s.sweep = Some(GridConfig {
                max_boost: 0,
                freq_scales: vec![1.0],
                max_intermediate,
            });
            job_payload(&s, None)
        })
        .collect();
    let counter = Arc::new(CountingResolver::default());
    let resolver: Arc<dyn JobResolver> = Arc::clone(&counter) as _;
    let handle = start_coordinator(
        "127.0.0.1:0",
        Arc::new(ScenarioJobResolver),
        FleetConfig::default(),
    )
    .unwrap();
    let pool = spawn_local_workers(handle.addr(), resolver, 1, WorkerOpts::default());
    for i in [0, 1, 2, 3, 4, 0] {
        let got = handle.submit(&payloads[i]).unwrap();
        assert_eq!(got, direct_frontier(&payloads[i]), "payload {i}");
    }
    handle.shutdown();
    for worker in pool {
        worker.join().unwrap().unwrap();
    }
    assert_eq!(counter.0.load(Ordering::Relaxed), 6);
}

#[test]
fn one_worker_sends_only_the_entries_no_acked_entry_dominates() {
    // With one worker the leases and deltas arrive in order, so the count
    // is exact. Every delta still goes out, with its counters; only
    // entries an acked entry dominates stay home.
    let scenario =
        Scenario::from_json(include_str!("../../../scenarios/d26_overclocked_fine.json")).unwrap();
    let payload = job_payload(&scenario, None);
    let want = direct_frontier(&payload);
    assert_eq!(local_front_entries(&payload), 64, "sent without the skip");
    let (got, stats) = with_workers(1, |fleet| fleet.submit(&payload).unwrap());
    assert_eq!(got, want);
    assert_eq!(
        stats,
        WorkerStats {
            leases: 64,
            deltas: 128,
            entries: 3,
            abandoned: 0,
        }
    );
    assert_eq!(parse_frontier_file(&want).unwrap().entries.len(), 3);
}

#[test]
fn job_payloads_resolve_and_malformed_ones_are_rejected() {
    // A payload is the scenario document itself.
    let payload = job_payload(&base_scenario(), None);
    assert_eq!(payload, base_scenario().to_json());
    let job = ScenarioJobResolver.resolve(&payload).unwrap();
    assert_eq!(job.desc.spec_name, "d12_auto");
    assert_eq!(job.desc.partition, "logical:4");
    assert!(!job.prune);

    let err = ScenarioJobResolver
        .resolve("{\"bogus\":1}")
        .map(|_| ())
        .unwrap_err();
    assert!(
        err.starts_with("job payload: scenario scenario: unknown member 'bogus' (allowed:"),
        "{err}"
    );

    let mut bare = base_scenario();
    bare.sweep = None;
    let err = ScenarioJobResolver
        .resolve(&job_payload(&bare, None))
        .map(|_| ())
        .unwrap_err();
    assert_eq!(err, "scenario 'fleet-route' declares no sweep grid");

    // The wrapped payloads of earlier versions are no scenario documents.
    let wrapped = format!("{{\"scenario\":{}}}", base_scenario().to_json().trim_end());
    let err = ScenarioJobResolver
        .resolve(&wrapped)
        .map(|_| ())
        .unwrap_err();
    assert!(
        err.starts_with("job payload: scenario scenario: unknown member 'scenario' (allowed:"),
        "{err}"
    );
}
