//! Unified observability surface: one [`MetricsSnapshot`] gathering every
//! counter family the toolchain grows — stage-cache traffic, solver-pool
//! build/reuse, the fea crate's process-wide solver-work counters, and
//! (when a service daemon is running) queue depth plus a request-latency
//! histogram.
//!
//! Before PR 5 these surfaces were ad hoc: `sweep --cache-stats` printed
//! [`CacheStats`] and [`SolverPoolStats`] with its own format strings, the
//! bench report carried three loose cache counters, and the solver-work
//! counters were only visible inside the bench. The snapshot pins **one
//! stable field order** for the JSON form (the service `stats` response
//! and future tooling parse it), and one human rendering the CLI prints.

use crate::cache::{CacheStats, StageCache};
use crate::json::Json;
use am_fea::{SolverCounters, SolverPoolStats};

/// Number of latency buckets. Geometric bounds cover ~0.25 ms to ~5.5
/// minutes; the last bucket absorbs everything slower.
const BUCKETS: usize = 32;
/// Upper bound of bucket 0, in milliseconds.
const BASE_MS: f64 = 0.25;
/// Geometric growth factor between bucket bounds.
const GROWTH: f64 = 1.6;

/// Exact order-statistic rank of the `q`-quantile over `n` samples:
/// `⌈q·n⌉`, clamped to `[1, n]`. This is the **one** rank rule every
/// quantile reader in the workspace shares — the service latency
/// histogram, the load generator's exact client-side quantiles, and the
/// detector score distributions in `am-detect` — so "p99" always means
/// the same order statistic everywhere. Returns 0 when `n` is 0.
pub fn quantile_rank(q: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Exact sample quantile (0 < q ≤ 1) of an **ascending-sorted** slice:
/// the [`quantile_rank`]-th smallest element. 0 when the slice is empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match quantile_rank(q, sorted.len()) {
        0 => 0.0,
        rank => sorted[rank - 1],
    }
}

/// A fixed-bucket request-latency histogram (geometric bucket bounds).
///
/// Quantiles read from it are bucket-upper-bound estimates — good enough
/// for a `stats` glance; load runs compute exact quantiles client-side
/// from raw samples instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
}

impl LatencyHistogram {
    /// Upper bound of bucket `i` in milliseconds (the last bucket is
    /// unbounded; its nominal bound is returned for quantile estimates).
    fn bound_ms(i: usize) -> f64 {
        BASE_MS * GROWTH.powi(i as i32)
    }

    /// Records one request latency.
    pub fn record_ms(&mut self, ms: f64) {
        let mut i = 0;
        while i + 1 < BUCKETS && ms > Self::bound_ms(i) {
            i += 1;
        }
        self.counts[i] += 1;
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Estimated `q`-quantile (0 < q ≤ 1) in milliseconds: the upper bound
    /// of the bucket holding the ⌈q·n⌉-th sample. 0 when empty.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = quantile_rank(q, total as usize) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bound_ms(i);
            }
        }
        Self::bound_ms(BUCKETS - 1)
    }

    /// Merges another histogram into this one (used to sum per-worker
    /// histograms into one service-wide view).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }
}

/// Service-side counters (queue, admission control, request latencies).
/// Only present in snapshots taken by a running daemon.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Operator-chosen node name of the daemon that took the snapshot
    /// (`serve --node`; empty when unnamed). Fleet tooling uses it to
    /// tell the N backends of a routed deployment apart on the stats
    /// wire.
    pub node: String,
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Bounded job-queue capacity (admission-control limit).
    pub queue_capacity: usize,
    /// Jobs queued but not yet picked up, at snapshot time.
    pub queue_depth: usize,
    /// Connections accepted since the daemon started.
    pub connections: u64,
    /// Job requests admitted to the queue.
    pub accepted: u64,
    /// Job requests fully processed (response sent).
    pub completed: u64,
    /// Job requests rejected with a typed `overloaded` response because
    /// the queue was at capacity.
    pub rejected_overloaded: u64,
    /// Job requests whose deadline expired before or during processing.
    pub expired_deadlines: u64,
    /// Worker threads that died to a panicking job (each costs that job a
    /// typed `internal` error and nothing else).
    pub worker_panics: u64,
    /// Worker threads respawned by the supervisor after a panic.
    pub respawns: u64,
    /// Request frames decoded under the JSON codec.
    pub frames_json: u64,
    /// Request frames decoded under the negotiated binary codec.
    pub frames_binary: u64,
    /// Connections that successfully negotiated the binary codec.
    pub binary_negotiated: u64,
    /// Reactor writes deferred because the peer's socket buffer was full
    /// (each is one would-block → wait-for-writable transition).
    pub backpressure_stalls: u64,
    /// Request-latency histogram (queue wait + pipeline time).
    pub latency: LatencyHistogram,
}

/// One coherent snapshot of every stats surface, with a stable field
/// order in its JSON form (`cache`, `solver_pool`, `solver`, `service`,
/// `fleet`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Stage-cache traffic of the cache being observed.
    pub cache: CacheStats,
    /// Process-wide tensile solver-pool build/reuse counters.
    pub solver_pool: SolverPoolStats,
    /// Process-wide solver-work counters (monotonic since process start).
    pub solver: SolverCounters,
    /// Service counters, when a daemon owns the observed cache.
    pub service: Option<ServiceStats>,
    /// Routing-tier counters, when the observed daemon is a router front
    /// end (`am-router` fills this with per-backend routing/health
    /// state). `None` everywhere else; the JSON form keeps the field
    /// present as `null` so parsers see a fixed shape.
    pub fleet: Option<Json>,
}

impl MetricsSnapshot {
    /// Gathers a snapshot around `cache`: its own stats plus the
    /// process-wide solver pool and solver-work counters. The `service`
    /// section is `None`; a running daemon fills it in.
    pub fn gather(cache: &StageCache) -> Self {
        MetricsSnapshot {
            cache: cache.stats(),
            solver_pool: crate::pipeline::fea_solver_pool_stats(),
            solver: am_fea::solver_counters(),
            service: None,
            fleet: None,
        }
    }

    /// The snapshot as a [`Json`] object with a **stable field order** —
    /// the service `stats` response body, byte-stable for equal counters.
    pub fn to_json(&self) -> Json {
        let c = &self.cache;
        let cache = Json::Object(vec![
            ("hits".into(), Json::u64(c.hits)),
            ("misses".into(), Json::u64(c.misses)),
            ("evictions".into(), Json::u64(c.evictions)),
            ("insertions".into(), Json::u64(c.insertions)),
            ("entries".into(), Json::u64(c.entries as u64)),
            ("bytes".into(), Json::u64(c.bytes as u64)),
            ("budget".into(), Json::u64(c.budget as u64)),
            ("spill_entries".into(), Json::u64(c.spill_entries as u64)),
            ("spill_bytes".into(), Json::u64(c.spill_bytes)),
            ("spill_hits".into(), Json::u64(c.spill_hits)),
            ("spill_writes".into(), Json::u64(c.spill_writes)),
            ("spill_corrupt_dropped".into(), Json::u64(c.spill_corrupt_dropped)),
            ("spill_write_failures".into(), Json::u64(c.spill_write_failures)),
        ]);
        let pool = Json::Object(vec![
            ("builds".into(), Json::u64(self.solver_pool.builds)),
            ("reuses".into(), Json::u64(self.solver_pool.reuses)),
        ]);
        let solver = Json::Object(vec![
            ("newton_iters".into(), Json::u64(self.solver.newton_iters)),
            ("pcg_iters".into(), Json::u64(self.solver.pcg_iters)),
            ("relax_iters".into(), Json::u64(self.solver.relax_iters)),
            ("force_evals".into(), Json::u64(self.solver.force_evals)),
        ]);
        let service = match &self.service {
            None => Json::Null,
            Some(s) => Json::Object(vec![
                ("workers".into(), Json::u64(s.workers as u64)),
                ("queue_capacity".into(), Json::u64(s.queue_capacity as u64)),
                ("queue_depth".into(), Json::u64(s.queue_depth as u64)),
                ("connections".into(), Json::u64(s.connections)),
                ("accepted".into(), Json::u64(s.accepted)),
                ("completed".into(), Json::u64(s.completed)),
                ("rejected_overloaded".into(), Json::u64(s.rejected_overloaded)),
                ("expired_deadlines".into(), Json::u64(s.expired_deadlines)),
                ("worker_panics".into(), Json::u64(s.worker_panics)),
                ("respawns".into(), Json::u64(s.respawns)),
                ("node".into(), Json::String(s.node.clone())),
                ("frames_json".into(), Json::u64(s.frames_json)),
                ("frames_binary".into(), Json::u64(s.frames_binary)),
                ("binary_negotiated".into(), Json::u64(s.binary_negotiated)),
                ("backpressure_stalls".into(), Json::u64(s.backpressure_stalls)),
                ("latency_count".into(), Json::u64(s.latency.count())),
                ("latency_p50_ms".into(), Json::Number(s.latency.quantile_ms(0.50))),
                ("latency_p95_ms".into(), Json::Number(s.latency.quantile_ms(0.95))),
                ("latency_p99_ms".into(), Json::Number(s.latency.quantile_ms(0.99))),
            ]),
        };
        let fleet = match &self.fleet {
            None => Json::Null,
            Some(f) => f.clone(),
        };
        Json::Object(vec![
            ("cache".into(), cache),
            ("solver_pool".into(), pool),
            ("solver".into(), solver),
            ("service".into(), service),
            ("fleet".into(), fleet),
        ])
    }

    /// Human-readable multi-line rendering (the `sweep --cache-stats` and
    /// service `stats` console form).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "stage cache: {}", cache_line(&self.cache));
        let _ = writeln!(
            out,
            "             {} live entries, {:.1} MiB of {:.0} MiB budget",
            self.cache.entries,
            self.cache.bytes as f64 / (1024.0 * 1024.0),
            self.cache.budget as f64 / (1024.0 * 1024.0)
        );
        if self.cache.spill_entries > 0 || self.cache.spill_hits > 0 {
            let _ = writeln!(
                out,
                "spill tier:  {} entries, {:.1} MiB on disk; {} rehydrations, {} writes, \
                 {} corrupt dropped, {} write failures",
                self.cache.spill_entries,
                self.cache.spill_bytes as f64 / (1024.0 * 1024.0),
                self.cache.spill_hits,
                self.cache.spill_writes,
                self.cache.spill_corrupt_dropped,
                self.cache.spill_write_failures
            );
        }
        let _ = writeln!(
            out,
            "solver pool: {} scratch builds, {} reuses across {} tensile runs",
            self.solver_pool.builds,
            self.solver_pool.reuses,
            self.solver_pool.builds + self.solver_pool.reuses
        );
        let _ = writeln!(
            out,
            "solver work: {} newton, {} pcg, {} relaxation iters; {} force evals",
            self.solver.newton_iters,
            self.solver.pcg_iters,
            self.solver.relax_iters,
            self.solver.force_evals
        );
        if let Some(s) = &self.service {
            if !s.node.is_empty() {
                let _ = writeln!(out, "node:        {}", s.node);
            }
            let _ = writeln!(
                out,
                "service:     {} workers, queue {}/{}; {} conns, {} accepted, {} completed, \
                 {} overloaded, {} expired",
                s.workers,
                s.queue_depth,
                s.queue_capacity,
                s.connections,
                s.accepted,
                s.completed,
                s.rejected_overloaded,
                s.expired_deadlines
            );
            let _ = writeln!(
                out,
                "wire:        {} json + {} binary frames, {} binary conns, \
                 {} backpressure stalls",
                s.frames_json, s.frames_binary, s.binary_negotiated, s.backpressure_stalls
            );
            if s.worker_panics > 0 || s.respawns > 0 {
                let _ = writeln!(
                    out,
                    "supervisor:  {} worker panics, {} respawns",
                    s.worker_panics, s.respawns
                );
            }
            let _ = writeln!(
                out,
                "latency:     p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms over {} requests",
                s.latency.quantile_ms(0.50),
                s.latency.quantile_ms(0.95),
                s.latency.quantile_ms(0.99),
                s.latency.count()
            );
        }
        out
    }
}

/// One-line [`CacheStats`] summary, as the snapshot rendering prints it.
pub fn cache_line(s: &CacheStats) -> String {
    format!(
        "{} hits / {} lookups ({:.0}% hit rate), {} insertions, {} evictions",
        s.hits,
        s.hits + s.misses,
        100.0 * s.hit_rate(),
        s.insertions,
        s.evictions
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_monotonic_and_bucketed() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.quantile_ms(0.5), 0.0);
        for ms in [0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 400.0] {
            h.record_ms(ms);
        }
        assert_eq!(h.count(), 8);
        let (p50, p95, p99) = (h.quantile_ms(0.5), h.quantile_ms(0.95), h.quantile_ms(0.99));
        assert!(p50 > 0.0 && p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // Each recorded sample sits at or below its bucket's upper bound.
        assert!(h.quantile_ms(1.0) >= 400.0);
    }

    #[test]
    fn histogram_merge_sums_counts() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        a.record_ms(1.0);
        b.record_ms(1.0);
        b.record_ms(1000.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn snapshot_json_field_order_is_stable() {
        let snapshot = MetricsSnapshot {
            cache: CacheStats { hits: 3, misses: 1, ..CacheStats::default() },
            solver_pool: SolverPoolStats { builds: 2, reuses: 5 },
            solver: SolverCounters::default(),
            service: Some(ServiceStats { workers: 2, queue_capacity: 8, ..Default::default() }),
            fleet: None,
        };
        let json = snapshot.to_json().render();
        let cache_at = json.find("\"cache\"").expect("cache");
        let pool_at = json.find("\"solver_pool\"").expect("pool");
        let solver_at = json.find("\"solver\":").expect("solver");
        let service_at = json.find("\"service\"").expect("service");
        let fleet_at = json.find("\"fleet\"").expect("fleet");
        assert!(cache_at < pool_at && pool_at < solver_at && solver_at < service_at);
        assert!(service_at < fleet_at);
        assert!(json.contains("\"hits\":3"));
        assert!(json.contains("\"reuses\":5"));
        assert!(json.contains("\"workers\":2"));
        // Absent service and fleet sections render as null, keeping the
        // fields present.
        let bare = MetricsSnapshot::default();
        let bare_json = bare.to_json().render();
        assert!(bare_json.contains("\"service\":null"));
        assert!(bare_json.contains("\"fleet\":null"));
    }

    #[test]
    fn snapshot_json_carries_node_identity_and_fleet_section() {
        let snapshot = MetricsSnapshot {
            service: Some(ServiceStats { node: "node2".to_string(), ..Default::default() }),
            fleet: Some(Json::Object(vec![("failovers".into(), Json::u64(3))])),
            ..MetricsSnapshot::default()
        };
        let json = snapshot.to_json().render();
        assert!(json.contains("\"node\":\"node2\""), "{json}");
        assert!(json.contains("\"fleet\":{\"failovers\":3}"), "{json}");
        // Node identity sits after the supervision counters, before the
        // latency block.
        let respawns_at = json.find("\"respawns\"").expect("respawns");
        let node_at = json.find("\"node\"").expect("node");
        let latency_at = json.find("\"latency_count\"").expect("latency_count");
        assert!(respawns_at < node_at && node_at < latency_at);
        assert!(snapshot.render().contains("node2"));
    }

    #[test]
    fn snapshot_json_carries_spill_and_supervision_counters() {
        let snapshot = MetricsSnapshot {
            cache: CacheStats { spill_hits: 4, spill_writes: 9, ..CacheStats::default() },
            service: Some(ServiceStats { worker_panics: 1, respawns: 1, ..Default::default() }),
            ..MetricsSnapshot::default()
        };
        let json = snapshot.to_json().render();
        for field in [
            "\"spill_entries\":0",
            "\"spill_bytes\":0",
            "\"spill_hits\":4",
            "\"spill_writes\":9",
            "\"spill_corrupt_dropped\":0",
            "\"spill_write_failures\":0",
            "\"worker_panics\":1",
            "\"respawns\":1",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        let text = snapshot.render();
        assert!(text.contains("spill tier"));
        assert!(text.contains("supervisor"));
    }

    #[test]
    fn snapshot_json_carries_codec_counters() {
        let snapshot = MetricsSnapshot {
            service: Some(ServiceStats {
                frames_json: 3,
                frames_binary: 12,
                binary_negotiated: 2,
                backpressure_stalls: 1,
                ..Default::default()
            }),
            ..MetricsSnapshot::default()
        };
        let json = snapshot.to_json().render();
        for field in [
            "\"frames_json\":3",
            "\"frames_binary\":12",
            "\"binary_negotiated\":2",
            "\"backpressure_stalls\":1",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        // Stable order: the codec counters sit between the supervision
        // counters and the latency block.
        let respawns_at = json.find("\"respawns\"").expect("respawns");
        let frames_at = json.find("\"frames_json\"").expect("frames_json");
        let latency_at = json.find("\"latency_count\"").expect("latency_count");
        assert!(respawns_at < frames_at && frames_at < latency_at);
        let text = snapshot.render();
        assert!(text.contains("12 binary frames"), "{text}");
        assert!(text.contains("backpressure"), "{text}");
    }

    #[test]
    fn render_names_every_surface() {
        let text = MetricsSnapshot::default().render();
        assert!(text.contains("stage cache"));
        assert!(text.contains("solver pool"));
        assert!(text.contains("solver work"));
    }

    #[test]
    fn quantile_is_the_exact_order_statistic() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&sorted, 0.25), 1.0);
        assert_eq!(quantile(&sorted, 0.5), 2.0);
        assert_eq!(quantile(&sorted, 0.75), 3.0);
        assert_eq!(quantile(&sorted, 0.99), 4.0);
        assert_eq!(quantile(&sorted, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        // The rank rule is shared with the histogram: ⌈q·n⌉ clamped.
        assert_eq!(quantile_rank(0.5, 0), 0);
        assert_eq!(quantile_rank(0.001, 10), 1);
        assert_eq!(quantile_rank(1.0, 10), 10);
        assert_eq!(quantile_rank(0.95, 20), 19);
    }

    #[test]
    fn histogram_quantiles_follow_the_shared_rank_rule() {
        let mut h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record_ms(0.1);
        }
        h.record_ms(1e9);
        // Rank ⌈0.99·100⌉ = 99 still sits in the fast bucket; only
        // q = 1.0 reaches the outlier.
        assert!(h.quantile_ms(0.99) < 1.0);
        assert!(h.quantile_ms(1.0) > 1.0);
    }
}
