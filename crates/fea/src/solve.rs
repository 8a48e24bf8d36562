//! Quasi-static tensile loading by dynamic relaxation.
//!
//! Two implementations live side by side: [`run_tensile_test`] delegates
//! to the optimized structure-of-arrays solver in [`crate::kernel`]
//! (optionally parallel via [`crate::run_tensile_test_with`]), while
//! [`run_tensile_test_reference`] keeps the original scalar kernel
//! verbatim as the tests' cross-check.

use am_geom::{Point2, Vec2};

use crate::{Bond, BondState, FeaConfigError, Grip, Lattice, TensileConfig, TensileResult};

/// Runs a displacement-controlled tensile test on a lattice.
///
/// Loading is strain-stepped: at each step the moving grip is displaced,
/// the lattice is brought to equilibrium (Newton–PCG by default, or damped
/// dynamic relaxation — see [`crate::FeaSolver`]), over-strained bonds
/// break, and the cascade repeats until stable. The engineering stress is
/// the grip reaction force over the nominal section.
///
/// The run stops early once the specimen has ruptured (stress falls below
/// 5 % of the running maximum after the peak).
///
/// # Panics
///
/// Panics on an invalid `config`; use [`crate::try_run_tensile_test_with`]
/// for a typed error.
pub fn run_tensile_test(lattice: &mut Lattice, config: &TensileConfig) -> TensileResult {
    crate::kernel::run_tensile_test_with(lattice, config, am_par::Parallelism::serial())
}

/// The original kernel of [`run_tensile_test`], kept verbatim as the
/// cross-check the optimized solvers' results are validated against in
/// tests.
///
/// # Panics
///
/// Panics on an invalid `config`; use [`try_run_tensile_test_reference`]
/// for a typed error.
pub fn run_tensile_test_reference(
    lattice: &mut Lattice,
    config: &TensileConfig,
) -> TensileResult {
    match try_run_tensile_test_reference(lattice, config) {
        Ok(result) => result,
        Err(e) => panic!("invalid tensile config: {e}"),
    }
}

/// Panic-free variant of [`run_tensile_test_reference`]: validates the
/// config and reports a typed [`FeaConfigError`] instead of unwinding. The
/// solver body is the original scalar kernel, unchanged.
pub fn try_run_tensile_test_reference(
    lattice: &mut Lattice,
    config: &TensileConfig,
) -> Result<TensileResult, FeaConfigError> {
    config.validate()?;
    let n = lattice.nodes.len();
    let mut disp = vec![Vec2::ZERO; n];
    let mut vel = vec![Vec2::ZERO; n];

    let k_max = lattice
        .bonds
        .iter()
        .map(|b| b.stiffness / b.rest_length)
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let dt = 0.4 / k_max.sqrt();
    let damping = 0.92;

    let mut curve: Vec<(f64, f64)> = vec![(0.0, 0.0)];
    let mut fracture_path: Vec<Point2> = Vec::new();
    let mut peak_stress = 0.0f64;
    let mut ruptured = false;

    let steps = (config.max_strain / config.strain_step).ceil() as usize;
    for step in 1..=steps {
        let strain = step as f64 * config.strain_step;
        let grip_u = strain * lattice.gauge_length;

        // Prescribe grip displacements (x only — the grips do not restrain
        // lateral contraction, avoiding artificial corner concentrations).
        for (i, node) in lattice.nodes.iter().enumerate() {
            match node.grip {
                Grip::Fixed => disp[i].x = 0.0,
                Grip::Moving => disp[i].x = grip_u,
                Grip::Free => {}
            }
        }

        // Relax, break, repeat until no bond fails in this step.
        loop {
            relax(lattice, &mut disp, &mut vel, dt, damping);
            let broke = break_overstrained(lattice, &disp, &mut fracture_path);
            if !broke {
                break;
            }
        }

        let stress = grip_stress(lattice, &disp);
        curve.push((strain, stress));
        peak_stress = peak_stress.max(stress);
        if peak_stress > 0.0 && stress < 0.05 * peak_stress && strain > config.strain_step * 3.0 {
            ruptured = true;
            break;
        }
    }

    Ok(TensileResult::from_curve(curve, fracture_path, ruptured))
}

/// Damped dynamic relaxation to (approximate) equilibrium.
fn relax(lattice: &Lattice, disp: &mut [Vec2], vel: &mut [Vec2], dt: f64, damping: f64) {
    const MAX_ITERS: usize = 2500;
    const TOL: f64 = 3e-4; // N residual per node

    let n = disp.len();
    let mut force = vec![Vec2::ZERO; n];
    for _ in 0..MAX_ITERS {
        for f in force.iter_mut() {
            *f = Vec2::ZERO;
        }
        accumulate_forces(lattice, disp, &mut force);

        let mut residual = 0.0f64;
        for (i, node) in lattice.nodes.iter().enumerate() {
            match node.grip {
                Grip::Free => {
                    residual = residual.max(force[i].length());
                    vel[i] = (vel[i] + force[i] * dt) * damping;
                    disp[i] += vel[i] * dt;
                }
                // Grip nodes: x prescribed, y free (no lateral clamp).
                Grip::Fixed | Grip::Moving => {
                    residual = residual.max(force[i].y.abs());
                    vel[i].x = 0.0;
                    vel[i].y = (vel[i].y + force[i].y * dt) * damping;
                    disp[i].y += vel[i].y * dt;
                }
            }
        }
        if residual < TOL {
            break;
        }
    }
}

/// Accumulates bond forces on every node.
fn accumulate_forces(lattice: &Lattice, disp: &[Vec2], force: &mut [Vec2]) {
    for bond in &lattice.bonds {
        if bond.state == BondState::Broken {
            continue;
        }
        let [a, b] = bond.nodes;
        let (a, b) = (a as usize, b as usize);
        let pa = lattice.nodes[a].pos + disp[a];
        let pb = lattice.nodes[b].pos + disp[b];
        let d = pb - pa;
        let len = d.length();
        if len < 1e-12 {
            continue;
        }
        let unit = d / len;
        let f = bond_force(bond, len);
        force[a] += unit * f;
        force[b] -= unit * f;
    }
}

/// Axial bond force: linear elastic up to yield, then linear hardening
/// (tangent stiffness = `hardening × stiffness`); linear in compression.
fn bond_force(bond: &Bond, current_length: f64) -> f64 {
    let strain = (current_length - bond.rest_length) / bond.rest_length;
    let f_elastic = bond.stiffness * strain * bond.rest_length;
    if f_elastic > bond.yield_force {
        let strain_y = bond.yield_force / (bond.stiffness * bond.rest_length);
        bond.yield_force + bond.hardening * bond.stiffness * (strain - strain_y) * bond.rest_length
    } else {
        f_elastic
    }
}

/// Breaks every intact bond whose strain exceeds its limit. Returns whether
/// anything broke and appends the break locations to the crack path.
fn break_overstrained(
    lattice: &mut Lattice,
    disp: &[Vec2],
    fracture_path: &mut Vec<Point2>,
) -> bool {
    let mut broke = false;
    let nodes = &lattice.nodes;
    for bond in &mut lattice.bonds {
        if bond.state == BondState::Broken {
            continue;
        }
        let [a, b] = bond.nodes;
        let (a, b) = (a as usize, b as usize);
        let pa = nodes[a].pos + disp[a];
        let pb = nodes[b].pos + disp[b];
        let strain = (pa.distance(pb) - bond.rest_length) / bond.rest_length;
        if strain > bond.breaking_strain {
            bond.state = BondState::Broken;
            broke = true;
            fracture_path.push((nodes[a].pos + nodes[b].pos) * 0.5);
        }
    }
    broke
}

/// Engineering stress from the moving-grip reaction (MPa).
fn grip_stress(lattice: &Lattice, disp: &[Vec2]) -> f64 {
    let mut fx = 0.0;
    for bond in &lattice.bonds {
        if bond.state == BondState::Broken {
            continue;
        }
        let [a, b] = bond.nodes;
        let (a, b) = (a as usize, b as usize);
        let (ga, gb) = (lattice.nodes[a].grip, lattice.nodes[b].grip);
        if ga != Grip::Moving && gb != Grip::Moving {
            continue;
        }
        if ga == Grip::Moving && gb == Grip::Moving {
            continue;
        }
        let pa = lattice.nodes[a].pos + disp[a];
        let pb = lattice.nodes[b].pos + disp[b];
        let d = pb - pa;
        let len = d.length();
        if len < 1e-12 {
            continue;
        }
        let f = bond_force(bond, len);
        // The bond pulls the moving node toward the other end; the machine
        // supplies the opposite reaction, which is what the load cell
        // reads. With `d` pointing a→b, the bond force on b is −(d/len)·f,
        // so the machine reaction when b is the moving node is +(d/len)·f.
        let machine = if gb == Grip::Moving { (d / len) * f } else { -(d / len) * f };
        fx += machine.x;
    }
    (fx / lattice.section_area).max(0.0)
}
