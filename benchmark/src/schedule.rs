//! Seeded inputs. Every input the benchmark sends is a pure function of
//! the workload seed: the sweep's process seeds, the open-loop due
//! times, request kinds, hot-set entries and families, and the process,
//! trace and fault seeds inside each request. The program under test
//! only ever sees the generated requests.

use am_mesh::Resolution;
use am_service::{DetectSpec, JobSpec, RequestBody};
use am_slicer::Orientation;
use obfuscade::FaultPlan;

/// The workload seed runs use unless told otherwise.
pub const DEFAULT_SEED: u64 = 1;
/// A seed no tuning run used, kept for confirming later claims.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// A derived 64-bit seed: splitmix64 over the workload seed, a label and
/// an index, so independent streams never share draws.
pub fn derive_seed(seed: u64, label: &str, index: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in label.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    let mut rng = Rng::new(seed ^ h.rotate_left(17) ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    rng.next_u64()
}

/// A derived seed that survives the JSON wire, whose numbers are f64:
/// 48 bits, well inside the 2^53 exact-integer range.
fn wire_seed(seed: u64, label: &str, index: u64) -> u64 {
    derive_seed(seed, label, index) >> 16
}

/// splitmix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }
}

/// A shuffled deck: every card is dealt once before the deck is
/// reshuffled, so each deck's worth of draws holds the cards in exactly
/// their proportions and only their order comes from the seed.
struct Deck<T> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    fn new(cards: Vec<T>) -> Deck<T> {
        let next = cards.len();
        Deck { cards, next }
    }

    fn deal(&mut self, rng: &mut Rng) -> T {
        if self.next == self.cards.len() {
            // Fisher-Yates.
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.below(i + 1));
            }
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// One fixed offered rate, held for a share of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate (requests per second).
    pub rate_rps: f64,
    /// Share of the run's measured seconds spent at this rate.
    pub share: f64,
}

/// One request of an open-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Rung the request belongs to.
    pub rung: usize,
    /// Due time, nanoseconds after the rung starts.
    pub due_ns: u64,
    /// Generator connection: 0 = JSON, 1 = binary.
    pub conn: usize,
    /// What is sent.
    pub body: RequestBody,
}

/// An open-loop schedule: rungs in the order they run, and every request
/// with its due time.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    pub rungs: Vec<Rung>,
    pub requests: Vec<Planned>,
}

impl Schedule {
    /// Indices of the requests of rung `r`, in due order.
    pub fn rung_requests(&self, r: usize) -> Vec<usize> {
        (0..self.requests.len())
            .filter(|&i| self.requests[i].rung == r)
            .collect()
    }
}

/// Request kinds and their cards per family card: `run`, `authenticate`,
/// `detect`. An assumption, not a measurement (the service keeps no
/// request log to take a mix from): half the requests print a part, a
/// quarter check one and a quarter judge one. The weights set how much
/// of `serve-routed`'s latency and throughput is detection rather than
/// printing.
const KIND_CARDS: [usize; 3] = [2, 1, 1];

/// Family cards of the most popular `serve-routed` family; the family of
/// rank r gets `TOP_FAMILY_CARDS / r` of them, rounded (popularity
/// ∝ 1/rank). With [`KIND_CARDS`] a deck holds 376 requests.
const TOP_FAMILY_CARDS: f64 = 30.0;

/// Catalog faults a detect request may carry. Each is judged (caught or
/// reported as blocked upstream); none makes the request fail.
const DETECT_FAULTS: [&str; 5] = [
    "toolpath-drop",
    "toolpath-dup",
    "firmware-feed",
    "stl-degenerate",
    "slicer-road-width",
];

/// `serve-routed` detect requests carry a catalog fault in this many of
/// every [`FAULT_DECK`]: 30 %. An assumption, like [`KIND_CARDS`]: most
/// judged prints are genuine.
const FAULTED_DETECTS: usize = 3;
const FAULT_DECK: usize = 10;

fn catalog_spec(name: &str) -> String {
    FaultPlan::catalog()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, plan)| plan.to_string())
        .unwrap_or_default()
}

fn body_for(kind: usize, job: JobSpec, trace_seed: u64) -> RequestBody {
    match kind {
        0 => RequestBody::Run {
            jobs: vec![job],
            deadline_ms: None,
        },
        1 => RequestBody::Authenticate {
            job,
            deadline_ms: None,
        },
        _ => RequestBody::Detect {
            jobs: vec![DetectSpec {
                job,
                trace_seed,
                ..DetectSpec::default()
            }],
            deadline_ms: None,
        },
    }
}

/// How far a due time may sit past its slot's start, as a share of the
/// slot (one rung interval): consecutive requests are between half and
/// one and a half intervals apart.
const ARRIVAL_JITTER: f64 = 0.5;

/// Paced arrivals at each rung's rate over its share of `seconds`: the
/// k-th request of a rung is due at `(k + jitter) / rate`, the jitter
/// drawn from the seed. Unlike Poisson arrivals, a seed cannot draw a
/// burst, so the latency quantiles do not depend on which bursts a seed
/// happens to draw. `body(rng, index)` draws each request and a seeded
/// coin splits requests between the JSON and binary connections.
fn open_loop(
    seed: u64,
    rungs: &[Rung],
    seconds: f64,
    mut body: impl FnMut(&mut Rng, u64) -> RequestBody,
) -> Schedule {
    let mut rng = Rng::new(derive_seed(seed, "schedule", 0));
    let mut requests = Vec::new();
    for (r, rung) in rungs.iter().enumerate() {
        let slots = (rung.share * seconds * rung.rate_rps).floor() as u64;
        for k in 0..slots {
            let t = (k as f64 + ARRIVAL_JITTER * rng.next_f64()) / rung.rate_rps;
            let conn = rng.below(2);
            let index = requests.len() as u64;
            let body = body(&mut rng, index);
            requests.push(Planned {
                rung: r,
                due_ns: (t * 1e9) as u64,
                conn,
                body,
            });
        }
    }
    Schedule {
        rungs: rungs.to_vec(),
        requests,
    }
}

/// The `serve-hot` hot set: every protected bar, bracket and prism at
/// each resolution and orientation, each as one `run`, one
/// `authenticate` and one `detect` entry (the Fine detect entries carry a
/// catalog fault). The seed picks each entry's process and trace seeds
/// and which fault, so every seed's hot set has the same shape and cost
/// mix.
pub fn hot_set(seed: u64) -> Vec<RequestBody> {
    let mut rng = Rng::new(derive_seed(seed, "hot-set", 0));
    let mut set = Vec::new();
    for (part, orientation, resolution) in families() {
        for kind in 0..3 {
            let mut job = JobSpec {
                part: part.to_string(),
                orientation,
                resolution,
                seed: rng.next_u64() >> 16,
                ..JobSpec::default()
            };
            if kind == 2 && resolution == Resolution::Fine {
                job.faults = catalog_spec(DETECT_FAULTS[rng.below(DETECT_FAULTS.len())]);
            }
            set.push(body_for(kind, job, rng.next_u64() >> 16));
        }
    }
    set
}

/// The `serve-hot` schedule: every request is a uniformly drawn hot-set
/// entry.
pub fn hot_schedule(seed: u64, rungs: &[Rung], seconds: f64) -> Schedule {
    let set = hot_set(seed);
    open_loop(seed, rungs, seconds, |rng, _| {
        set[rng.below(set.len())].clone()
    })
}

/// The part families: (part, orientation, resolution) — every protected
/// part the service builds, in both orientations, at both resolutions.
/// For `serve-routed` they are listed most popular first; popularity
/// falls off as 1/rank (Zipf with exponent 1, the usual model of skewed
/// request popularity, assumed rather than measured for this service),
/// and the ranking is fixed so the seed moves the deals, not which
/// families are hot. The skew sets the daemons' cache hit ratio and
/// evictions.
pub fn families() -> Vec<(&'static str, Orientation, Resolution)> {
    let mut out = Vec::new();
    for resolution in [Resolution::Coarse, Resolution::Fine] {
        for part in ["prism", "bar", "bracket"] {
            for orientation in Orientation::ALL {
                out.push((part, orientation, resolution));
            }
        }
    }
    out
}

/// The `serve-routed` mix as a deck of `(family, kind)` cards.
fn routed_mix(families: usize) -> Vec<(usize, usize)> {
    let mut cards = Vec::new();
    for family in 0..families {
        let copies = (TOP_FAMILY_CARDS / (family + 1) as f64).round() as usize;
        for (kind, &per_family) in KIND_CARDS.iter().enumerate() {
            cards.extend(std::iter::repeat_n((family, kind), copies * per_family));
        }
    }
    cards
}

/// The `serve-routed` schedule: each request is dealt a family and a kind
/// from a shuffled deck of the mix, so every run sends the mix in the same
/// proportions, and gets a fresh process seed (a fresh trace seed too for
/// detect, and for three detects in ten a catalog fault plan).
pub fn routed_schedule(seed: u64, rungs: &[Rung], seconds: f64) -> Schedule {
    let families = families();
    let mut mix = Deck::new(routed_mix(families.len()));
    let mut faulted = Deck::new((0..FAULT_DECK).map(|i| i < FAULTED_DETECTS).collect());
    open_loop(seed, rungs, seconds, |rng, index| {
        let (family, kind) = mix.deal(rng);
        let (part, orientation, resolution) = families[family];
        let mut job = JobSpec {
            part: part.to_string(),
            orientation,
            resolution,
            seed: wire_seed(seed, "routed.process", index),
            ..JobSpec::default()
        };
        if kind == 2 && faulted.deal(rng) {
            job.faults = catalog_spec(DETECT_FAULTS[rng.below(DETECT_FAULTS.len())]);
            job.fault_seed = wire_seed(seed, "routed.fault", index);
        }
        body_for(kind, job, wire_seed(seed, "routed.trace", index))
    })
}

/// The kind index (0 run, 1 authenticate, 2 detect) of a body.
#[cfg(test)]
fn kind_of(body: &RequestBody) -> usize {
    match body {
        RequestBody::Run { .. } => 0,
        RequestBody::Authenticate { .. } => 1,
        _ => 2,
    }
}

/// The process seed of a single-job body.
pub fn process_seed(body: &RequestBody) -> Option<u64> {
    match body {
        RequestBody::Run { jobs, .. } => jobs.first().map(|j| j.seed),
        RequestBody::Authenticate { job, .. } => Some(job.seed),
        RequestBody::Detect { jobs, .. } => jobs.first().map(|d| d.job.seed),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    const RUNGS: [Rung; 2] = [
        Rung {
            rate_rps: 200.0,
            share: 0.5,
        },
        Rung {
            rate_rps: 400.0,
            share: 0.5,
        },
    ];

    #[test]
    fn same_seed_same_schedule_different_seed_different_schedule() {
        for make in [hot_schedule, routed_schedule] {
            let a = make(7, &RUNGS, 2.0);
            assert_eq!(
                a,
                make(7, &RUNGS, 2.0),
                "a schedule is a pure function of its seed"
            );
            let b = make(8, &RUNGS, 2.0);
            assert_ne!(a, b);
            let due = |s: &Schedule| s.requests.iter().map(|p| p.due_ns).collect::<Vec<_>>();
            assert_ne!(due(&a), due(&b), "due times move with the seed");
            let bodies = |s: &Schedule| {
                s.requests
                    .iter()
                    .map(|p| p.body.clone())
                    .collect::<Vec<_>>()
            };
            assert_ne!(
                bodies(&a),
                bodies(&b),
                "request contents move with the seed"
            );
        }
    }

    #[test]
    fn schedules_offer_the_rung_rates() {
        let s = routed_schedule(3, &RUNGS, 20.0);
        for (r, rung) in RUNGS.iter().enumerate() {
            let n = s.rung_requests(r).len() as f64;
            let expected = rung.rate_rps * rung.share * 20.0;
            assert!(
                (n - expected).abs() < 0.1 * expected,
                "rung {r}: {n} vs {expected}"
            );
        }
    }

    #[test]
    fn routed_requests_get_fresh_seeds_and_every_kind() {
        let s = routed_schedule(5, &RUNGS, 4.0);
        let mut seeds: Vec<u64> = s
            .requests
            .iter()
            .filter_map(|p| process_seed(&p.body))
            .collect();
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n, "process seeds are unique per request");
        for kind in 0..3 {
            assert!(s.requests.iter().any(|p| kind_of(&p.body) == kind));
        }
        assert!(s.requests.iter().any(|p| matches!(&p.body,
            RequestBody::Detect { jobs, .. } if !jobs[0].job.faults.is_empty())));
    }

    #[test]
    fn routed_runs_send_the_mix_in_its_proportions() {
        let deck = routed_mix(families().len());
        assert_eq!(deck.len(), 376);
        // Two whole decks' worth of requests, whatever the seed.
        let rung = [Rung {
            rate_rps: deck.len() as f64,
            share: 1.0,
        }];
        let family_of = |job: &JobSpec| {
            families()
                .iter()
                .position(|f| f.0 == job.part && f.1 == job.orientation && f.2 == job.resolution)
                .expect("a known family")
        };
        let mut faulted_detects = Vec::new();
        for seed in [1, 2] {
            let s = routed_schedule(seed, &rung, 2.0);
            assert_eq!(s.requests.len(), 2 * deck.len());
            let mut counts = HashMap::new();
            let mut faulted = 0;
            for p in &s.requests {
                let job = match &p.body {
                    RequestBody::Run { jobs, .. } => &jobs[0],
                    RequestBody::Authenticate { job, .. } => job,
                    RequestBody::Detect { jobs, .. } => &jobs[0].job,
                    other => panic!("unexpected {other:?}"),
                };
                faulted += usize::from(!job.faults.is_empty());
                *counts
                    .entry((family_of(job), kind_of(&p.body)))
                    .or_insert(0) += 1;
            }
            let mut expected = HashMap::new();
            for card in &deck {
                *expected.entry(*card).or_insert(0) += 2;
            }
            assert_eq!(counts, expected, "seed {seed}");
            faulted_detects.push(faulted);
        }
        // 188 detects: 3 in every 10 carry a fault, up to one part-dealt deck.
        for faulted in faulted_detects {
            assert!((55..=57).contains(&faulted), "{faulted}");
        }
    }

    #[test]
    fn detect_fault_names_are_in_the_catalog() {
        for name in DETECT_FAULTS {
            let spec = catalog_spec(name);
            assert!(!spec.is_empty(), "{name}");
            spec.parse::<FaultPlan>().expect("catalog specs parse");
        }
    }
}
