//! Cache affinity must pay off: the same shared-prefix sweep routed over
//! two daemons lands strictly more warm stage-cache hits under
//! rendezvous (affinity) routing than under round-robin, with every
//! response byte-identical to the in-process run either way.
//!
//! The sweep is four stage-key prefix families (`prism`/`bar` × x-y/x-z)
//! × four seeds, sent one family at a time over one binary-codec
//! connection. With one connection, round-robin placement is a pure
//! function of request order, so the comparison does not race on
//! dispatch interleaving. Round-robin walks each family across both
//! nodes and pays its seed-independent prefix stages cold on each;
//! affinity homes the family on one node and pays them once. That holds
//! wherever the rendezvous hash puts each family (placement hashes
//! endpoint names, which carry ephemeral ports).

use am_router::{RoutePolicy, Router, RouterConfig};
use am_service::{
    expected_results_wire, Client, Codec, Endpoint, JobSpec, Response, Server, ServerConfig,
};
use am_slicer::Orientation;
use obfuscade::json::Json;
use obfuscade::CacheStats;

const FAMILIES: [(&str, Orientation); 4] = [
    ("prism", Orientation::Xy),
    ("prism", Orientation::Xz),
    ("bar", Orientation::Xy),
    ("bar", Orientation::Xz),
];
const SEEDS: u64 = 4;

/// The sweep in send order (family by family), each job with the wire
/// bytes its response must carry.
fn sweep() -> Vec<(JobSpec, String)> {
    FAMILIES
        .iter()
        .flat_map(|&(part, orientation)| {
            (1..=SEEDS).map(move |seed| {
                let job =
                    JobSpec { part: part.to_string(), orientation, seed, ..JobSpec::default() };
                let want = expected_results_wire(std::slice::from_ref(&job))
                    .expect("in-process reference run");
                (job, want)
            })
        })
        .collect()
}

/// Routes `sweep` over a fresh two-daemon fleet under `policy`, checking
/// every response's bytes, and returns each daemon's cache counters.
fn routed_sweep(policy: RoutePolicy, sweep: &[(JobSpec, String)]) -> Vec<CacheStats> {
    let backends: Vec<Server> = (0..2)
        .map(|i| {
            Server::start(ServerConfig {
                workers: 1,
                node: format!("node{i}"),
                ..ServerConfig::default()
            })
            .expect("backend boots")
        })
        .collect();
    let router = Router::start(RouterConfig {
        backends: backends.iter().map(|b| Endpoint::Tcp(b.addr().to_string())).collect(),
        policy,
        ..RouterConfig::default()
    })
    .expect("router boots");

    let endpoint = Endpoint::Tcp(router.addr().to_string());
    let mut client =
        Client::connect_with_codec(&endpoint, None, Codec::Binary).expect("connect to router");
    for (job, want) in sweep {
        let response = client.run(vec![job.clone()], Some(120_000)).expect("routed run");
        let Response::Results { results, .. } = response else {
            panic!("{}: expected results, got {response:?}", policy.name());
        };
        assert_eq!(
            &Json::Array(results).render(),
            want,
            "{} routing changed the bytes of {job:?}",
            policy.name()
        );
    }
    assert_eq!(router.fleet().routed(), sweep.len() as u64);
    assert_eq!(router.fleet().failovers(), 0);

    router.begin_shutdown();
    router.join();
    backends
        .into_iter()
        .map(|backend| {
            let cache = backend.metrics().cache;
            backend.begin_shutdown();
            backend.join();
            cache
        })
        .collect()
}

#[test]
fn affinity_routing_beats_round_robin_on_warm_hits() {
    let sweep = sweep();
    let affinity = routed_sweep(RoutePolicy::Affinity, &sweep);
    let round_robin = routed_sweep(RoutePolicy::RoundRobin, &sweep);

    let hits = |nodes: &[CacheStats]| nodes.iter().map(|c| c.hits).sum::<u64>();
    let lookups = |nodes: &[CacheStats]| nodes.iter().map(|c| c.hits + c.misses).sum::<u64>();
    // Placement moves stage lookups between nodes; it never adds or drops
    // one. So the per-node counters of either fleet sum to one fleet total.
    assert_eq!(lookups(&affinity), lookups(&round_robin), "{affinity:?} vs {round_robin:?}");
    assert!(
        round_robin.iter().all(|c| c.hits + c.misses > 0),
        "round-robin left a node idle: {round_robin:?}"
    );
    assert!(
        hits(&affinity) > hits(&round_robin),
        "affinity hits {} (per node {:?}) do not beat round-robin {} (per node {:?})",
        hits(&affinity),
        affinity.iter().map(|c| c.hits).collect::<Vec<_>>(),
        hits(&round_robin),
        round_robin.iter().map(|c| c.hits).collect::<Vec<_>>()
    );
}
