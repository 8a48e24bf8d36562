//! Optimized tensile kernel: SoA bond storage, reusable solver state, and
//! two interchangeable equilibrium solvers — matrix-free Newton–PCG (the
//! default, see [`crate::newton`]) and a two-phase (bond-force /
//! node-gather) dynamic relaxation loop with an optional barrier-phased
//! parallel execution mode.
//!
//! The phase split is what makes thread-count-independent determinism
//! possible: phase one writes each bond's force vector into that bond's own
//! slot (no accumulation, any order), phase two gathers each node's incident
//! bond forces **in ascending bond order** from a CSR incidence table. Every
//! float is therefore produced by a fixed reduction order no matter how the
//! phases are partitioned across threads, and the residual reduction is a
//! max over non-negative values — associative and commutative. The
//! `parallel_*` tests pin run-to-run bit-identity across thread counts.
//!
//! Relative to the reference solver in [`crate::solve`], the model and the
//! convergence criterion are identical — same constitutive law, same force
//! residual tolerance, so every solver lands on the same equilibrium to
//! within [`TOL`] — but the path there is much cheaper:
//!
//! * **Newton–PCG** (default): the constitutive law is piecewise linear
//!   (exactly two tangent regimes), so an outer Newton iteration converges
//!   in a handful of steps per strain increment, each step solved by a
//!   Jacobi-preconditioned conjugate gradient whose Hessian-vector products
//!   reuse the deterministic bond-order reduction scheme.
//! * **Mass-scaled dynamic relaxation** (fallback / `FeaSolver::Relaxation`,
//!   Underwood's fictitious-mass scheme): every node gets mass
//!   `mᵢ = Σ incident bond stiffness`, which makes every local stability
//!   limit uniform (Gershgorin: `λmax(M⁻¹K) ≤ 2`) and lets the integrator
//!   take near-critical steps everywhere. The reference solver's unit
//!   masses force the global step down to what its *stiffest* node
//!   tolerates, so its soft regions — the weakened joint and inter-layer
//!   bonds this simulation is about — converge many times slower.
//! * **Warm-started strain steps**: displacement fields scale ≈ linearly
//!   with the applied strain, so each step starts from the previous
//!   equilibrium scaled by the strain ratio instead of the raw previous
//!   field.
//! * **Solver-state reuse**: the CSR incidence, packed [`BondParam`] array
//!   and all scratch vectors live in a [`SolverScratch`] that is rebuilt
//!   in place across strain steps, bond-break cascades and — via
//!   [`SolverPool`] — across tensile replicates in a sweep, eliminating
//!   the per-replicate rebuild and per-relax allocations.
//! * Cheaper arithmetic: `f_elastic = k·(len − rest)` instead of
//!   `k·((len − rest)/rest)·rest` (one division per bond instead of
//!   three), packed per-bond parameter records, squared-residual
//!   convergence tests (no square root per node), and broken bonds keep
//!   zero stiffness so the hot loop carries no liveness branch.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use am_geom::{Point2, Vec2};
use am_par::{Parallelism, Pool};

use crate::{
    BondState, FeaConfigError, FeaSolver, Grip, Lattice, SolverCounters, TensileConfig, TensileResult,
};

pub(crate) const MAX_ITERS: usize = 2500;

/// Total Newton-solver work budget (force-pass equivalents) for one strain
/// step's equilibrate/break cascade, and the floor any single cascade round
/// still gets once the pool runs low. A rupture cascade equilibrates a
/// nearly-severed lattice over and over — the most ill-conditioned solves
/// of the whole test, on a specimen whose recorded stress has already
/// collapsed — so the cascade as a whole is capped at twice the relaxation
/// loop's own per-call iteration cap instead of being allowed `MAX_ITERS`
/// per round. See `try_run_tensile_test_in`.
const CASCADE_BUDGET: usize = 2 * MAX_ITERS;
const MIN_CALL_BUDGET: usize = 350;
pub(crate) const TOL: f64 = 3e-4; // N residual per node

/// Process-wide solver work counters (see [`solver_counters`]).
pub(crate) mod counters {
    use std::sync::atomic::{AtomicU64, Ordering};

    use crate::SolverCounters;

    static NEWTON_ITERS: AtomicU64 = AtomicU64::new(0);
    static PCG_ITERS: AtomicU64 = AtomicU64::new(0);
    static RELAX_ITERS: AtomicU64 = AtomicU64::new(0);
    static FORCE_EVALS: AtomicU64 = AtomicU64::new(0);

    pub(crate) fn add_newton(n: u64) {
        NEWTON_ITERS.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_pcg(n: u64) {
        PCG_ITERS.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_relax(n: u64) {
        RELAX_ITERS.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_force_evals(n: u64) {
        FORCE_EVALS.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn snapshot() -> SolverCounters {
        SolverCounters {
            newton_iters: NEWTON_ITERS.load(Ordering::Relaxed),
            pcg_iters: PCG_ITERS.load(Ordering::Relaxed),
            relax_iters: RELAX_ITERS.load(Ordering::Relaxed),
            force_evals: FORCE_EVALS.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of the process-wide optimized-solver work counters. The
/// counters are telemetry only — they never feed back into the simulation,
/// so results remain bit-identical whether or not anyone reads them.
pub fn solver_counters() -> SolverCounters {
    counters::snapshot()
}

/// Runs a displacement-controlled tensile test with the optimized kernel
/// and an explicit thread budget. See [`crate::run_tensile_test`] for the
/// loading protocol; `Parallelism::serial()` and every multi-threaded
/// budget produce bit-identical results.
///
/// # Panics
///
/// Panics on an invalid `config`; use [`try_run_tensile_test_with`] for a
/// typed error.
pub fn run_tensile_test_with(
    lattice: &mut Lattice,
    config: &TensileConfig,
    parallelism: Parallelism,
) -> TensileResult {
    match try_run_tensile_test_with(lattice, config, parallelism) {
        Ok(result) => result,
        Err(e) => panic!("invalid tensile config: {e}"),
    }
}

/// Panic-free variant of [`run_tensile_test_with`]: validates the config
/// and reports a typed [`FeaConfigError`] instead of unwinding.
pub fn try_run_tensile_test_with(
    lattice: &mut Lattice,
    config: &TensileConfig,
    parallelism: Parallelism,
) -> Result<TensileResult, FeaConfigError> {
    let mut scratch = SolverScratch::new();
    try_run_tensile_test_in(&mut scratch, lattice, config, parallelism)
}

/// Runs the tensile test inside caller-provided [`SolverScratch`], reusing
/// its allocations (and, when the lattice topology matches the previous
/// run, its CSR incidence). Results are bit-identical to a fresh-scratch
/// run: `reset` reinitializes every numeric field the solve reads.
pub fn try_run_tensile_test_in(
    scratch: &mut SolverScratch,
    lattice: &mut Lattice,
    config: &TensileConfig,
    parallelism: Parallelism,
) -> Result<TensileResult, FeaConfigError> {
    config.validate()?;
    let solver = &mut scratch.solver;
    solver.reset(lattice);
    let pool = Pool::new(parallelism);

    let mut curve: Vec<(f64, f64)> = vec![(0.0, 0.0)];
    let mut fracture_path: Vec<Point2> = Vec::new();
    let mut peak_stress = 0.0f64;
    let mut ruptured = false;

    let steps = (config.max_strain / config.strain_step).ceil() as usize;
    for step in 1..=steps {
        let strain = step as f64 * config.strain_step;
        let grip_u = strain * lattice.gauge_length;
        if step > 1 {
            // Elastic response scales ≈ linearly with strain; extrapolating
            // the previous equilibrium is a far better starting point than
            // reusing it verbatim.
            solver.warm_start(strain / (strain - config.strain_step));
        }
        solver.prescribe_grips(grip_u);

        // Equilibrate, break, repeat until no bond fails in this step.
        let mut cascade_left = CASCADE_BUDGET;
        loop {
            let call_budget = cascade_left.clamp(MIN_CALL_BUDGET, MAX_ITERS);
            let used = solver.equilibrate(config.solver, &pool, call_budget);
            cascade_left = cascade_left.saturating_sub(used.max(1));
            if !solver.break_overstrained(&mut fracture_path) {
                break;
            }
            // Rupture short-circuit: once the transmitted load has
            // collapsed, the rupture check below ends the test at this
            // step no matter how the cascade finishes — grinding the
            // remaining break rounds to full equilibrium (the most
            // ill-conditioned solves of the whole test) would only polish
            // a specimen that is already recorded as failed.
            if peak_stress > 0.0
                && strain > config.strain_step * 3.0
                && solver.grip_stress(lattice.section_area) < 0.05 * peak_stress
            {
                break;
            }
        }

        let stress = solver.grip_stress(lattice.section_area);
        curve.push((strain, stress));
        peak_stress = peak_stress.max(stress);
        if peak_stress > 0.0 && stress < 0.05 * peak_stress && strain > config.strain_step * 3.0 {
            ruptured = true;
            break;
        }
    }

    // Mirror bond failures back so callers can inspect the lattice
    // afterwards, exactly as the reference solver's in-place breaking does.
    for (bond, &alive) in lattice.bonds.iter_mut().zip(&solver.alive) {
        if !alive {
            bond.state = BondState::Broken;
        }
    }
    Ok(TensileResult::from_curve(curve, fracture_path, ruptured))
}

/// Reusable tensile solver state: CSR incidence, packed bond parameters and
/// every scratch vector (relaxation force buffer, Newton tangent cache, PCG
/// work vectors). Recycling one `SolverScratch` across runs skips the
/// per-replicate allocations, and — when consecutive lattices share bond
/// topology, as replicates of one specimen do — the CSR rebuild too.
pub struct SolverScratch {
    solver: Solver,
}

impl SolverScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        SolverScratch { solver: Solver::empty() }
    }
}

impl Default for SolverScratch {
    fn default() -> Self {
        SolverScratch::new()
    }
}

/// Upper bound on idle scratches a [`SolverPool`] retains; beyond this,
/// returned scratches are dropped (bounds memory under bursty batches).
const MAX_POOLED_SCRATCHES: usize = 16;

/// A shared, thread-safe pool of [`SolverScratch`] instances. The batch
/// engine funnels every tensile replicate of a sweep through one pool, so
/// replicate `k+1` reuses the allocations (and usually the CSR incidence)
/// replicate `k` built, instead of rebuilding from scratch.
#[derive(Default)]
pub struct SolverPool {
    free: Mutex<Vec<SolverScratch>>,
    builds: AtomicU64,
    reuses: AtomicU64,
}

/// Reuse telemetry for a [`SolverPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverPoolStats {
    /// Runs that had to build a fresh scratch (pool empty).
    pub builds: u64,
    /// Runs served by a recycled scratch.
    pub reuses: u64,
}

impl SolverPool {
    /// An empty pool.
    pub fn new() -> Self {
        SolverPool::default()
    }

    /// Runs a tensile test through the pool: acquires a scratch (recycled
    /// if available), runs [`try_run_tensile_test_in`], and returns the
    /// scratch to the pool. Bit-identical to a fresh-scratch run.
    pub fn run(
        &self,
        lattice: &mut Lattice,
        config: &TensileConfig,
        parallelism: Parallelism,
    ) -> Result<TensileResult, FeaConfigError> {
        let recycled = match self.free.lock() {
            Ok(mut free) => free.pop(),
            Err(poisoned) => poisoned.into_inner().pop(),
        };
        let mut scratch = match recycled {
            Some(scratch) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                scratch
            }
            None => {
                self.builds.fetch_add(1, Ordering::Relaxed);
                SolverScratch::new()
            }
        };
        let out = try_run_tensile_test_in(&mut scratch, lattice, config, parallelism);
        let mut free = match self.free.lock() {
            Ok(free) => free,
            Err(poisoned) => poisoned.into_inner(),
        };
        if free.len() < MAX_POOLED_SCRATCHES {
            free.push(scratch);
        }
        out
    }

    /// Build/reuse counts since the pool was created.
    pub fn stats(&self) -> SolverPoolStats {
        SolverPoolStats {
            builds: self.builds.load(Ordering::Relaxed),
            reuses: self.reuses.load(Ordering::Relaxed),
        }
    }
}

/// Per-bond constitutive parameters, packed into one record so the hot
/// loop streams a single 48-byte array instead of six parallel ones. A
/// broken bond keeps `stiffness = 0`, which makes its force exactly zero
/// without a liveness branch.
#[derive(Clone, Copy)]
pub(crate) struct BondParam {
    pub(crate) a: u32,
    pub(crate) b: u32,
    pub(crate) rest: f64,
    pub(crate) stiffness: f64,
    pub(crate) yield_force: f64,
    pub(crate) hardening: f64,
}

/// Per-bond tangent-stiffness coefficients cached by the Newton solver's
/// residual pass: the current unit direction `u`, the constitutive tangent
/// `kt` (elastic or hardening slope), and the geometric term `geo = f/L`.
/// The bond's 2×2 tangent block is `B = kt·(u⊗u) + geo·(I − u⊗u)`.
#[derive(Clone, Copy, Default)]
pub(crate) struct BondTang {
    pub(crate) ux: f64,
    pub(crate) uy: f64,
    pub(crate) kt: f64,
    pub(crate) geo: f64,
}

/// Structure-of-arrays solver state.
pub(crate) struct Solver {
    // Nodes.
    pub(crate) pos: Vec<Point2>,
    pub(crate) grip: Vec<Grip>,
    pub(crate) disp: Vec<Vec2>,
    pub(crate) vel: Vec<Vec2>,
    /// Reciprocal fictitious mass, `1 / Σ incident bond stiffness`
    /// (Underwood mass scaling; zero for isolated nodes). Kept at its
    /// initial value when bonds break — a heavier-than-needed node is still
    /// stable, just marginally slower.
    pub(crate) inv_mass: Vec<f64>,
    /// Nodal force scratch shared by the serial relaxation loop and the
    /// Newton residual pass (lives here so neither allocates per call).
    pub(crate) force: Vec<Vec2>,
    // Bonds.
    pub(crate) params: Vec<BondParam>,
    pub(crate) breaking_strain: Vec<f64>,
    pub(crate) alive: Vec<bool>,
    /// Per-bond force on node `a` (node `b` receives the negation). Broken
    /// bonds produce exact zeros (zero stiffness), so gathers need no
    /// liveness check.
    pub(crate) fb: Vec<Vec2>,
    /// Node→bond incidence, CSR. Entries encode `bond_index << 1 | side`
    /// (side 1 = this node is the bond's `b` end) and are ascending in bond
    /// index, fixing the gather order.
    pub(crate) inc_off: Vec<usize>,
    pub(crate) inc: Vec<u32>,
    // Newton–PCG scratch (sized lazily; see `ensure_newton_scratch`).
    pub(crate) tang: Vec<BondTang>,
    /// Diagonal (x/x, y/y) entries of the assembled tangent blocks.
    pub(crate) diag: Vec<Vec2>,
    /// Off-diagonal (x/y) entry of each node's 2×2 tangent block, for the
    /// block-Jacobi preconditioner.
    pub(crate) diag_xy: Vec<f64>,
    pub(crate) delta: Vec<Vec2>,
    pub(crate) cg_r: Vec<Vec2>,
    pub(crate) cg_z: Vec<Vec2>,
    pub(crate) cg_p: Vec<Vec2>,
    pub(crate) cg_q: Vec<Vec2>,
    pub(crate) disp_save: Vec<Vec2>,
    pub(crate) dt: f64,
    pub(crate) damping: f64,
}

impl Solver {
    /// An empty solver shell; every buffer is filled by [`Solver::reset`].
    fn empty() -> Self {
        Solver {
            pos: Vec::new(),
            grip: Vec::new(),
            disp: Vec::new(),
            vel: Vec::new(),
            inv_mass: Vec::new(),
            force: Vec::new(),
            params: Vec::new(),
            breaking_strain: Vec::new(),
            alive: Vec::new(),
            fb: Vec::new(),
            inc_off: Vec::new(),
            inc: Vec::new(),
            tang: Vec::new(),
            diag: Vec::new(),
            diag_xy: Vec::new(),
            delta: Vec::new(),
            cg_r: Vec::new(),
            cg_z: Vec::new(),
            cg_p: Vec::new(),
            cg_q: Vec::new(),
            disp_save: Vec::new(),
            // Dimensionless near-critical step: the mass scaling pins the
            // stability limit at `2/√λmax ≥ √2 ≈ 1.41`, and 1.0 keeps the
            // same ~70 % safety margin the reference solver uses against
            // its own (much smaller) limit.
            dt: 1.0,
            damping: 0.92,
        }
    }

    /// Rebuilds the solver state for `lattice` in place, reusing every
    /// allocation. The CSR incidence is rebuilt only when the bond
    /// topology differs from the previous occupant — replicates of the
    /// same specimen (same node/bond graph, different jitter) skip it.
    /// The numeric results are bit-identical to a freshly built solver:
    /// same accumulation orders, every field the solve reads is
    /// reinitialized here.
    fn reset(&mut self, lattice: &Lattice) {
        let n = lattice.nodes.len();
        let m = lattice.bonds.len();
        let topo_same = self.pos.len() == n
            && self.params.len() == m
            && lattice.bonds.iter().zip(&self.params).all(|(b, p)| b.nodes[0] == p.a && b.nodes[1] == p.b);

        self.pos.clear();
        self.pos.extend(lattice.nodes.iter().map(|nd| nd.pos));
        self.grip.clear();
        self.grip.extend(lattice.nodes.iter().map(|nd| nd.grip));
        self.disp.clear();
        self.disp.resize(n, Vec2::ZERO);
        self.vel.clear();
        self.vel.resize(n, Vec2::ZERO);
        self.force.clear();
        self.force.resize(n, Vec2::ZERO);

        // Fictitious nodal masses: the sum of incident spring constants
        // (`∂f/∂len = stiffness`). With `mᵢ = Σⱼ kᵢⱼ`, Gershgorin bounds
        // every eigenvalue of `M⁻¹K` by 2, so the dimensionless relaxation
        // step is stable for every node regardless of how heterogeneous the
        // road/layer/joint bond stiffnesses are. Accumulated into
        // `inv_mass` and inverted in place (same accumulation order as a
        // fresh build).
        self.inv_mass.clear();
        self.inv_mass.resize(n, 0.0);
        for bond in &lattice.bonds {
            self.inv_mass[bond.nodes[0] as usize] += bond.stiffness;
            self.inv_mass[bond.nodes[1] as usize] += bond.stiffness;
        }
        for mass in &mut self.inv_mass {
            *mass = if *mass > 0.0 { 1.0 / *mass } else { 0.0 };
        }

        self.params.clear();
        self.params.extend(lattice.bonds.iter().map(|b| BondParam {
            a: b.nodes[0],
            b: b.nodes[1],
            rest: b.rest_length,
            // Zero stiffness ⇒ zero force: broken bonds stay inert
            // without a branch in the hot loop.
            stiffness: if b.state == BondState::Intact { b.stiffness } else { 0.0 },
            yield_force: b.yield_force,
            hardening: b.hardening,
        }));
        self.breaking_strain.clear();
        self.breaking_strain.extend(lattice.bonds.iter().map(|b| b.breaking_strain));
        self.alive.clear();
        self.alive.extend(lattice.bonds.iter().map(|b| b.state == BondState::Intact));
        self.fb.clear();
        self.fb.resize(m, Vec2::ZERO);

        if !topo_same {
            self.inc_off.clear();
            self.inc_off.resize(n + 1, 0);
            for bond in &lattice.bonds {
                self.inc_off[bond.nodes[0] as usize + 1] += 1;
                self.inc_off[bond.nodes[1] as usize + 1] += 1;
            }
            for i in 0..n {
                self.inc_off[i + 1] += self.inc_off[i];
            }
            let mut cursor = self.inc_off.clone();
            self.inc.clear();
            self.inc.resize(2 * m, 0);
            for (bi, bond) in lattice.bonds.iter().enumerate() {
                let a = bond.nodes[0] as usize;
                let b = bond.nodes[1] as usize;
                self.inc[cursor[a]] = (bi as u32) << 1;
                cursor[a] += 1;
                self.inc[cursor[b]] = (bi as u32) << 1 | 1;
                cursor[b] += 1;
            }
        }
    }

    /// Sizes the Newton-specific scratch vectors for the current lattice.
    /// Contents are not cleared: every consumer fully overwrites its
    /// buffer before reading it.
    pub(crate) fn ensure_newton_scratch(&mut self) {
        let n = self.pos.len();
        let m = self.params.len();
        self.tang.resize(m, BondTang::default());
        self.diag.resize(n, Vec2::ZERO);
        self.diag_xy.resize(n, 0.0);
        self.delta.resize(n, Vec2::ZERO);
        self.cg_r.resize(n, Vec2::ZERO);
        self.cg_z.resize(n, Vec2::ZERO);
        self.cg_p.resize(n, Vec2::ZERO);
        self.cg_q.resize(n, Vec2::ZERO);
        self.disp_save.resize(n, Vec2::ZERO);
    }

    /// Dispatches one equilibrium solve to the configured solver.
    /// Runs one equilibrium solve with the selected solver and returns the
    /// force-pass-equivalent work it spent (Newton only; the relaxation
    /// solver's budget is its own internal `MAX_ITERS` cap and it reports
    /// 0). `budget` caps the Newton solve; callers shrink it across a break
    /// cascade so one strain step can never out-spend the cascade budget.
    fn equilibrate(&mut self, solver: FeaSolver, pool: &Pool, budget: usize) -> usize {
        match solver {
            FeaSolver::NewtonPcg => self.solve_newton(pool, budget),
            FeaSolver::Relaxation => {
                self.relax(pool);
                0
            }
        }
    }

    /// Scales the displacement field by the strain ratio `s` — the linear
    /// extrapolation of the previous equilibrium to the next strain step —
    /// and restarts the pseudo-dynamics from rest.
    fn warm_start(&mut self, s: f64) {
        for d in &mut self.disp {
            *d = *d * s;
        }
        for v in &mut self.vel {
            *v = Vec2::ZERO;
        }
    }

    /// Prescribes grip displacements (x only — the grips do not restrain
    /// lateral contraction, avoiding artificial corner concentrations).
    fn prescribe_grips(&mut self, grip_u: f64) {
        for (i, g) in self.grip.iter().enumerate() {
            match g {
                Grip::Fixed => self.disp[i].x = 0.0,
                Grip::Moving => self.disp[i].x = grip_u,
                Grip::Free => {}
            }
        }
    }

    /// Axial bond force: linear elastic up to yield, then linear hardening
    /// (tangent stiffness = `hardening × stiffness`); linear in compression.
    ///
    /// Branch-free: with `hardening < 1` the plastic line lies below the
    /// elastic line exactly when `f_elastic > yield_force`, so the `min`
    /// selects the same value the explicit comparison would — but the loop
    /// around it stays straight-line code the compiler can vectorize.
    #[inline]
    fn bond_force(&self, i: usize, len: f64) -> f64 {
        let p = &self.params[i];
        let f_elastic = p.stiffness * (len - p.rest);
        let f_plastic = p.yield_force + p.hardening * (f_elastic - p.yield_force);
        f_elastic.min(f_plastic)
    }

    /// Phase one for bond `i`: the force vector exerted on node `a`.
    #[inline]
    fn bond_phase(&self, i: usize, disp_at: impl Fn(usize) -> Vec2) -> Vec2 {
        let a = self.params[i].a as usize;
        let b = self.params[i].b as usize;
        let pa = self.pos[a] + disp_at(a);
        let pb = self.pos[b] + disp_at(b);
        let d = pb - pa;
        let len = d.length();
        if len < 1e-12 {
            return Vec2::ZERO;
        }
        d * (self.bond_force(i, len) / len)
    }

    /// Phase two for node `i`: gathers the net force in ascending bond
    /// order.
    #[inline]
    fn gather_force(&self, i: usize, fb_at: impl Fn(usize) -> Vec2) -> Vec2 {
        let mut force = Vec2::ZERO;
        for &e in &self.inc[self.inc_off[i]..self.inc_off[i + 1]] {
            let f = fb_at((e >> 1) as usize);
            if e & 1 == 0 {
                force += f;
            } else {
                force -= f;
            }
        }
        force
    }

    /// Node state update; returns the node's squared residual. The residual
    /// is the raw nodal force (same convergence criterion as the reference
    /// solver); only the acceleration is mass-scaled.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn advance_node(
        grip: Grip,
        force: Vec2,
        inv_m: f64,
        vel: &mut Vec2,
        disp: &mut Vec2,
        dt: f64,
        damping: f64,
    ) -> f64 {
        match grip {
            Grip::Free => {
                *vel = (*vel + force * (dt * inv_m)) * damping;
                *disp += *vel * dt;
                force.length_squared()
            }
            // Grip nodes: x prescribed, y free (no lateral clamp).
            Grip::Fixed | Grip::Moving => {
                vel.x = 0.0;
                vel.y = (vel.y + force.y * (dt * inv_m)) * damping;
                disp.y += vel.y * dt;
                force.y * force.y
            }
        }
    }

    pub(crate) fn relax(&mut self, pool: &Pool) {
        if pool.parallelism().is_serial() {
            self.relax_serial();
        } else {
            self.relax_parallel(pool);
        }
    }

    /// Damped dynamic relaxation to (approximate) equilibrium, in place.
    ///
    /// Scatters bond forces directly instead of staging them in [`Self::fb`]
    /// and gathering: with bonds walked in ascending index order, each node
    /// receives exactly the additions the CSR gather would perform, in the
    /// same order, so the result is bit-identical to
    /// [`Solver::relax_parallel`] (a dead bond's zero-stiffness force is a
    /// signed zero, which cannot change an accumulator — accumulators start
    /// at `+0.0` and can never become `-0.0`).
    fn relax_serial(&mut self) {
        self.relax_serial_bounded(MAX_ITERS);
    }

    /// Serial relaxation with an explicit iteration budget. The Newton
    /// solver uses a small budget as an escape nudge past the non-smooth
    /// states (branch-set kinks, fresh bond breaks) where a tangent step
    /// cannot make progress; always serial, so it is bit-identical under
    /// every thread budget.
    pub(crate) fn relax_serial_bounded(&mut self, max_iters: usize) {
        let n = self.pos.len();
        let (dt, damping) = (self.dt, self.damping);
        let tol_sq = TOL * TOL;
        let mut force = std::mem::take(&mut self.force);
        debug_assert_eq!(force.len(), n);
        let mut iters = 0u64;
        for _ in 0..max_iters {
            iters += 1;
            for f in force.iter_mut() {
                *f = Vec2::ZERO;
            }
            for (i, p) in self.params.iter().enumerate() {
                let a = p.a as usize;
                let b = p.b as usize;
                let d = (self.pos[b] + self.disp[b]) - (self.pos[a] + self.disp[a]);
                let len = d.length();
                if len < 1e-12 {
                    continue;
                }
                let fv = d * (self.bond_force(i, len) / len);
                force[a] += fv;
                force[b] -= fv;
            }
            let mut residual_sq = 0.0f64;
            for (i, f) in force.iter().enumerate() {
                residual_sq = residual_sq.max(Self::advance_node(
                    self.grip[i],
                    *f,
                    self.inv_mass[i],
                    &mut self.vel[i],
                    &mut self.disp[i],
                    dt,
                    damping,
                ));
            }
            if residual_sq < tol_sq {
                break;
            }
        }
        self.force = force;
        counters::add_relax(iters);
        counters::add_force_evals(iters);
    }

    /// Parallel relaxation: one pool broadcast per call; workers run a
    /// barrier-phased loop over fixed bond/node partitions. Mutable state is
    /// mirrored into atomic-u64 cells for the duration of the call (safe
    /// shared access without locks; barriers order the phases), then copied
    /// back. Bit-identical to [`Solver::relax_serial`]: same per-bond and
    /// per-node arithmetic, same gather order, and the residual reduction is
    /// a max over non-negative floats.
    fn relax_parallel(&mut self, pool: &Pool) {
        let n = self.pos.len();
        let m = self.params.len();
        let workers = pool.thread_count();
        let (dt, damping) = (self.dt, self.damping);
        let tol_sq = TOL * TOL;

        let disp = AtomicVec2s::from(&self.disp);
        let vel = AtomicVec2s::from(&self.vel);
        let fb = AtomicVec2s::from(&self.fb);
        let residuals: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        let stop = AtomicBool::new(false);
        let barrier = Barrier::new(workers);
        let this = &*self;

        pool.broadcast(|w| {
            let (b_lo, b_hi) = worker_range(m, workers, w);
            let (n_lo, n_hi) = worker_range(n, workers, w);
            let mut iters = 0u64;
            for _ in 0..MAX_ITERS {
                iters += 1;
                for i in b_lo..b_hi {
                    fb.store(i, this.bond_phase(i, |j| disp.load(j)));
                }
                barrier.wait();
                let mut residual_sq = 0.0f64;
                for i in n_lo..n_hi {
                    let force = this.gather_force(i, |b| fb.load(b));
                    let mut v = vel.load(i);
                    let mut d = disp.load(i);
                    residual_sq = residual_sq.max(Self::advance_node(
                        this.grip[i],
                        force,
                        this.inv_mass[i],
                        &mut v,
                        &mut d,
                        dt,
                        damping,
                    ));
                    vel.store(i, v);
                    disp.store(i, d);
                }
                residuals[w].store(residual_sq.to_bits(), Ordering::Relaxed);
                barrier.wait();
                if w == 0 {
                    let max = residuals
                        .iter()
                        .map(|r| f64::from_bits(r.load(Ordering::Relaxed)))
                        .fold(0.0f64, f64::max);
                    stop.store(max < tol_sq, Ordering::Relaxed);
                }
                barrier.wait();
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            if w == 0 {
                counters::add_relax(iters);
                counters::add_force_evals(iters);
            }
        });

        disp.write_back(&mut self.disp);
        vel.write_back(&mut self.vel);
        fb.write_back(&mut self.fb);
    }

    /// Breaks every intact bond whose strain exceeds its limit (zeroing its
    /// stiffness, which zeroes its force in subsequent relaxations). Returns
    /// whether anything broke and appends break locations to the crack path.
    fn break_overstrained(&mut self, fracture_path: &mut Vec<Point2>) -> bool {
        let mut broke = false;
        for i in 0..self.params.len() {
            if !self.alive[i] {
                continue;
            }
            let p = self.params[i];
            let a = p.a as usize;
            let b = p.b as usize;
            let pa = self.pos[a] + self.disp[a];
            let pb = self.pos[b] + self.disp[b];
            let strain = (pa.distance(pb) - p.rest) / p.rest;
            if strain > self.breaking_strain[i] {
                self.alive[i] = false;
                self.params[i].stiffness = 0.0;
                broke = true;
                fracture_path.push((self.pos[a] + self.pos[b]) * 0.5);
            }
        }
        broke
    }

    /// Engineering stress from the moving-grip reaction (MPa).
    fn grip_stress(&self, section_area: f64) -> f64 {
        let mut fx = 0.0;
        for i in 0..self.params.len() {
            if !self.alive[i] {
                continue;
            }
            let a = self.params[i].a as usize;
            let b = self.params[i].b as usize;
            let (ga, gb) = (self.grip[a], self.grip[b]);
            if (ga == Grip::Moving) == (gb == Grip::Moving) {
                continue;
            }
            let pa = self.pos[a] + self.disp[a];
            let pb = self.pos[b] + self.disp[b];
            let d = pb - pa;
            let len = d.length();
            if len < 1e-12 {
                continue;
            }
            let f = self.bond_force(i, len);
            // The bond pulls the moving node toward the other end; the
            // machine supplies the opposite reaction, which is what the load
            // cell reads. With `d` pointing a→b, the bond force on b is
            // −(d/len)·f, so the machine reaction when b is the moving node
            // is +(d/len)·f.
            let machine = if gb == Grip::Moving { (d / len) * f } else { -(d / len) * f };
            fx += machine.x;
        }
        (fx / section_area).max(0.0)
    }
}

/// Contiguous per-worker index range (may be empty), unlike
/// [`am_par::chunk_ranges`] which omits empty chunks.
fn worker_range(len: usize, workers: usize, w: usize) -> (usize, usize) {
    let base = len / workers;
    let extra = len % workers;
    let lo = w * base + w.min(extra);
    (lo, lo + base + usize::from(w < extra))
}

/// A `Vec<Vec2>` mirrored into atomic bit cells so barrier-phased workers
/// can share it without locks. Loads/stores are `Relaxed`; the phase
/// barriers provide the ordering.
struct AtomicVec2s {
    cells: Vec<[AtomicU64; 2]>,
}

impl AtomicVec2s {
    fn from(src: &[Vec2]) -> Self {
        AtomicVec2s {
            cells: src
                .iter()
                .map(|v| [AtomicU64::new(v.x.to_bits()), AtomicU64::new(v.y.to_bits())])
                .collect(),
        }
    }

    #[inline]
    fn load(&self, i: usize) -> Vec2 {
        let [x, y] = &self.cells[i];
        Vec2::new(
            f64::from_bits(x.load(Ordering::Relaxed)),
            f64::from_bits(y.load(Ordering::Relaxed)),
        )
    }

    #[inline]
    fn store(&self, i: usize, v: Vec2) {
        let [x, y] = &self.cells[i];
        x.store(v.x.to_bits(), Ordering::Relaxed);
        y.store(v.y.to_bits(), Ordering::Relaxed);
    }

    fn write_back(&self, dst: &mut [Vec2]) {
        for (d, i) in dst.iter_mut().zip(0..) {
            *d = self.load(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_ranges_partition_exactly() {
        for len in [0usize, 1, 5, 100, 101] {
            for workers in [1usize, 2, 3, 8] {
                let mut covered = 0;
                let mut prev = 0;
                for w in 0..workers {
                    let (lo, hi) = worker_range(len, workers, w);
                    assert_eq!(lo, prev);
                    assert!(hi >= lo);
                    covered += hi - lo;
                    prev = hi;
                }
                assert_eq!(covered, len, "len {len} workers {workers}");
            }
        }
    }

    #[test]
    fn atomic_vec2s_round_trips() {
        let src = vec![Vec2::new(1.5, -2.5), Vec2::new(f64::MIN_POSITIVE, -0.0)];
        let mirror = AtomicVec2s::from(&src);
        assert_eq!(mirror.load(0), src[0]);
        mirror.store(1, Vec2::new(3.0, 4.0));
        let mut out = vec![Vec2::ZERO; 2];
        mirror.write_back(&mut out);
        assert_eq!(out, vec![Vec2::new(1.5, -2.5), Vec2::new(3.0, 4.0)]);
    }
}
