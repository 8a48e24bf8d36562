//! Command implementations and flag parsing for the `obfuscade` CLI.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};

use am_cad::parts::{
    bracket, bracket_with_spline, intact_prism, prism_with_sphere, tensile_bar,
    tensile_bar_with_spline, BracketDims, PrismDims, TensileBarDims,
};
use am_cad::{BodyKind, MaterialRemoval};
use am_mesh::{
    analyze_topology, read_stl, t_junction_count, tessellate_part, write_binary_stl, Resolution,
};
use am_cad::Part;
use am_printer::{check_limits, BuildEnvelope, PrintedPart, PrinterProfile};
use am_slicer::{
    orient_shells, parse_gcode, to_gcode, try_generate_toolpath, try_slice_shells, Orientation,
    SlicerConfig,
};
use obfuscade::{run_pipeline_with_faults, FaultPlan, FeaSolver, ProcessPlan};

/// CLI usage text.
pub const USAGE: &str = "\
obfuscade — CAD-model obfuscation against AM counterfeiting (DAC'17 reproduction)

USAGE:
    obfuscade <command> [options]

COMMANDS:
    protect        build a (protected) demo part and export it as binary STL
                     --part bar|bracket|prism   (default bar)
                     --out FILE.stl             (required)
                     --resolution coarse|fine|custom   (default fine)
                     --intact                   export without the security feature
    inspect        geometry review of an STL file (Table 1, STL stage)
                     <FILE.stl>
    slice          slice an STL into a G-code part program
                     <FILE.stl> --orientation xy|xz --out FILE.gcode [--layer MM]
    print          simulate printing a G-code file and scan the artifact
                     <FILE.gcode> [--machine fdm|polyjet] [--seed N]
    authenticate   print a G-code file and classify the artifact genuine/counterfeit
                     <FILE.gcode> [--reference GENUINE.gcode]
                     (absolute thresholds without --reference; with it, the
                      verdict uses the *excess* defect signature)
    preview        render one sliced layer as ASCII art (the CatalystEX
                   preview of Fig. 7a; seam gaps highlighted with '!')
                     <FILE.stl> --orientation xy|xz [--layer-index N] [--layer MM]
    faults         inject supply-chain faults (Table 1 attacks) into a pipeline run
                     --list                     show the documented fault catalog
                     [PLAN | CATALOG-NAME]      e.g. \"stl.degenerate=3 firmware.feed=50\"
                     --part bar|bracket|prism   (default prism)
                     --resolution coarse|fine|custom   (default coarse)
                     --orientation xy|xz        (default xy)
                     --seed N                   fault-plan seed override
    audit          print the AM supply-chain risk table (paper Table 1 / Fig. 2)
    report         regenerate a paper artifact:
                     table1|fig3|fig4|fig5|fig7|fig8|fig9|table2|table3|
                     sidechannel|detect|keyspace|multikey|sparse|repair|auth|all
                     (detect is the §16 ROC sweep; it runs on demand and
                      is not part of `all`)
                     [--replicates N]           tensile specimens per Table 2 cell
                                                (default 3; at least 1)
    sweep          evaluate the full process-key space (Table 3 recipes ×
                   resolutions × orientations) through the shared-prefix
                   batch engine and report each key's printed outcome
                     [--threads N]              thread budget (default: all cores)
                     [--seed N]                 process seed (default 1)
                     [--tensile]                also run the virtual tensile test per key
                     [--solver SOLVER]          tensile equilibrium solver:
                                                newton-pcg (default) | relaxation
                     [--cache-stats]            print the unified metrics snapshot
                                                (stage cache, solver pool, solver work)
    serve          run the obfuscation daemon: a length-prefixed JSON protocol
                   over TCP (and a Unix socket with --uds), jobs dispatched onto
                   the batch engine behind a bounded queue and one shared cache
                     [--addr HOST:PORT]         listen address (default 127.0.0.1:7777;
                                                port 0 picks a free port)
                     [--uds PATH]               also listen on a Unix-domain socket
                     [--workers N]              pipeline workers (default 2)
                     [--queue N]                job-queue capacity (default 64)
                     [--cache-mb MB]            stage-cache budget (default 64)
                     [--allow-remote-shutdown]  honor wire shutdown from non-local
                                                peers (default: loopback/uds only —
                                                shutdown is unauthenticated)
                     [--port-file FILE]         write the bound address to FILE
                                                once listening (for scripts)
                     [--spill-dir DIR]          persist cache evictions to CRC-checked
                                                segment files in DIR; entries rehydrate
                                                on miss and survive restarts
                     [--chaos-seed N]           deterministic fault injection (testing):
                                                seeded connection drops, slow/short
                                                reads, worker panics, spill-write
                                                failures
                     [--backend B]              connection layer: reactor (epoll
                                                event loop, Linux default) | threads
                                                (one thread per connection)
                     [--json-only]              refuse binary codec negotiation:
                                                binary hellos get a typed bad_codec
                                                error and the connection stays JSON
                     [--idle-timeout-s S]       reactor: drop connections idle for S
                                                seconds (default 60; also the
                                                slow-loris partial-frame bound)
                     [--node NAME]              node name surfaced in stats snapshots
                                                (fleet tooling names each backend)
    route          run the cache-affinity router: a daemon speaking the same wire
                   protocol whose jobs are forwarded to N backend daemons, the
                   backend chosen by rendezvous-hashing each job's stage-key
                   prefix (shared prefixes ride one backend's warm cache)
                     --to EP1,EP2,...           backend endpoints (required);
                                                HOST:PORT or unix:PATH each
                     [--addr HOST:PORT]         front listen address (default
                                                127.0.0.1:7878; port 0 = ephemeral)
                     [--uds PATH]               also listen on a Unix socket
                     [--policy P]               affinity (default) | round-robin
                     [--conns N]                pipelined connections per backend
                                                (default 2)
                     [--fail-threshold N]       consecutive failures that eject a
                                                backend (default 3)
                     [--probe-every N]          probe an ejected backend every Nth
                                                skipped decision (default 8; 0 never)
                     [--retries N]              attempts per backend before failing
                                                over (default 4)
                     [--workers N]              forwarding workers (default 8)
                     [--queue N]                front queue capacity (default 64)
                     [--backend B]              front connection layer (reactor|threads)
                     [--json-only]              refuse binary negotiation on the front
                     [--port-file FILE]         write the bound front address to FILE
                     [--node NAME]              stats node name (default \"router\")
    submit         send one request to a running daemon and print the reply
                     [--addr HOST:PORT]         daemon address (default 127.0.0.1:7777)
                     [--uds PATH]               connect over a Unix socket instead
                     [--port-file FILE]         read the daemon address from FILE,
                                                polling up to 10 s for it to appear
                                                (pairs with serve --port-file)
                     [--retries N]              total attempts per request (default 4):
                                                transient failures reconnect and retry
                                                with exponential backoff
                     [--kind KIND]              ping|stats|run|authenticate|detect|
                                                sanitize|shutdown (default run)
                     [--codec json|binary]      wire codec (default json); binary is
                                                negotiated per connection and falls
                                                to an error if the daemon refuses
                     job flags for run/authenticate:
                       [--part bar|bracket|prism] [--intact] [--seed N]
                       [--resolution coarse|fine|custom] [--orientation xy|xz]
                       [--tensile] [--solver SOLVER] [--layer MM]
                       [--faults PLAN] [--fault-seed N] [--deadline-ms MS]
                     flags for --kind detect:
                       [--quality lab|smartphone|room]  capture preset (default
                                                smartphone)
                       [--jam A]                NoiseEmitter jamming amplitude over
                                                the acoustic capture (default 0 = off)
                       [--trace-seed N]         capture-noise seed (default 1)
                     flags for --kind sanitize:
                       [--payload-seed N]       embed a seeded stego payload first
                                                (default 0 = scan the clean path)
                       [--payload-bits N]       channel width in bits (default 2)
                     [--verify]                 with detect/sanitize: byte-compare the
                                                served reports against an in-process
                                                am-detect run of the same job
                     [--load N]                 load-generator mode: N run requests…
                     [--concurrency C]          …over C connections (default 4),
                                                verified byte-for-byte against an
                                                in-process run; prints p50/p95/p99
    detect-roc     run the side-channel detection ROC sweep in-process: audio,
                   power, and fused detectors × the full 15-entry fault catalog
                   × capture qualities × NoiseEmitter jamming amplitudes
                     [--quality LIST]           comma-separated capture presets
                                                (default lab,smartphone,room)
                     [--jam LIST]               comma-separated jamming amplitudes
                                                (default 0,2.5; nonzero turns the
                                                countermeasure on)
                     [--replicates N]           seeded captures per cell (default 5)
                     [--part bar|bracket|prism] (default prism)
                     [--resolution coarse|fine|custom]  (default coarse)
                     [--orientation xy|xz]      (default xy)
                     [--json]                   print the full table as JSON instead
                                                of the rendered summary
    bench          benchmark the reference kernels against the optimized ones
                   and write a BENCH_*.json report
                     [--smoke]                  tiny workloads (CI smoke stage)
                     [--threads N]              parallel-path thread budget (default: all cores)
                     [--solver SOLVER]          tensile solver for the optimized fea row:
                                                newton-pcg (default) | relaxation
                     [--serve]                  also bench the daemon end to end: a
                                                backend (reactor|threads) × codec
                                                (json|binary) × concurrency sweep,
                                                byte-verified, with p50/p95/p99 + rps
                                                per point — plus the routed-fleet grid
                                                (nodes × affinity|round-robin behind a
                                                router, per-node cache hits + warm hit
                                                rate per point)
                     [--only KERNEL]            slicing|printing|fea|sweep|
                                                serve|fleet|detect
                     [--out FILE.json]          (default BENCH_PR10.json)
                     [--check FILE.json]        validate an existing report instead of
                                                benchmarking; fail on any speedup < 1.0
                     [--fea-budget-ms MS]       with --check: also fail if the fea row's
                                                optimized time exceeds MS milliseconds
                     [--min-speedup LIST]       with --check: per-kernel speedup floors,
                                                e.g. printing=3.5,slicing=5.7
                     [--require-serve]          with --check: also fail unless the
                                                report carries a daemon (serve) result
                     [--serve-p99-ms MS]        with --check: fail if the headline serve
                                                p99 exceeds MS milliseconds
                     [--serve-min-rps R]        with --check: fail if the headline serve
                                                throughput is below R req/s
                     [--fleet-min-hit-rate P]   with --check: fail if the routed fleet's
                                                headline warm hit rate is below P percent
                     [--fleet-min-rps R]        with --check: fail if the routed fleet's
                                                headline throughput is below R req/s
                     [--detect-min-catch F]     with --check: fail if the ROC sweep's
                                                worst-setup fused catch rate is below F
                     [--detect-max-fpr F]       with --check: fail if the ROC sweep's
                                                worst-setup fused FPR exceeds F
    help           show this text
";

type CliResult = Result<(), String>;

/// Parses `--flag value` pairs and positionals.
fn parse_flags(args: &[String]) -> (Vec<String>, HashMap<String, String>) {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().cloned().unwrap_or_default(),
                _ => String::from("true"),
            };
            flags.insert(name.to_string(), value);
        } else {
            positional.push(arg.clone());
        }
    }
    (positional, flags)
}

fn resolution_flag(flags: &HashMap<String, String>) -> Result<Resolution, String> {
    match flags.get("resolution").map(String::as_str).unwrap_or("fine") {
        "coarse" => Ok(Resolution::Coarse),
        "fine" => Ok(Resolution::Fine),
        "custom" => Ok(Resolution::Custom),
        other => Err(format!("unknown resolution `{other}` (coarse|fine|custom)")),
    }
}

fn solver_flag(flags: &HashMap<String, String>) -> Result<FeaSolver, String> {
    match flags.get("solver") {
        Some(v) => v.parse(),
        None => Ok(FeaSolver::default()),
    }
}

fn orientation_flag(flags: &HashMap<String, String>) -> Result<Orientation, String> {
    match flags.get("orientation").map(String::as_str).unwrap_or("xy") {
        "xy" | "x-y" => Ok(Orientation::Xy),
        "xz" | "x-z" => Ok(Orientation::Xz),
        other => Err(format!("unknown orientation `{other}` (xy|xz)")),
    }
}

/// Builds one of the built-in demo parts by name, protected or intact.
fn demo_part(kind: &str, intact: bool) -> Result<Part, String> {
    match kind {
        "bar" => {
            let dims = TensileBarDims::default();
            if intact { tensile_bar(&dims) } else { tensile_bar_with_spline(&dims) }
        }
        "bracket" => {
            let dims = BracketDims::default();
            if intact { bracket(&dims) } else { bracket_with_spline(&dims) }
        }
        "prism" => {
            let dims = PrismDims::default();
            if intact {
                Ok(intact_prism(&dims))
            } else {
                prism_with_sphere(&dims, BodyKind::Solid, MaterialRemoval::Without)
            }
        }
        other => return Err(format!("unknown part `{other}` (bar|bracket|prism)")),
    }
    .map_err(|e| e.to_string())
}

/// `obfuscade protect` — build and export a demo part.
pub fn protect(args: &[String]) -> CliResult {
    let (_, flags) = parse_flags(args);
    let out = flags.get("out").ok_or("protect requires --out FILE.stl")?;
    let resolution = resolution_flag(&flags)?;
    let intact = flags.contains_key("intact");
    let part = demo_part(flags.get("part").map(String::as_str).unwrap_or("bar"), intact)?;

    let resolved = part.resolve().map_err(|e| e.to_string())?;
    let mesh = tessellate_part(&resolved, &resolution.params());
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let mut writer = BufWriter::new(file);
    write_binary_stl(&mesh, &mut writer).map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;
    println!(
        "wrote {out}: {} ({} security features), {} triangles at {resolution} resolution",
        part.name(),
        part.security_feature_count(),
        mesh.triangle_count()
    );
    Ok(())
}

/// `obfuscade inspect` — geometry review of an STL file.
pub fn inspect(args: &[String]) -> CliResult {
    let (positional, _) = parse_flags(args);
    let path = positional.first().ok_or("inspect requires an STL file argument")?;
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mesh = read_stl(BufReader::new(file)).map_err(|e| e.to_string())?;
    let topo = analyze_topology(&mesh);
    println!("file            : {path}");
    println!("triangles       : {}", mesh.triangle_count());
    println!("vertices        : {}", mesh.vertex_count());
    println!("edges           : {}", topo.edges);
    println!("watertight      : {}", topo.is_watertight());
    println!("boundary edges  : {}", topo.boundary_edges);
    println!("non-manifold    : {}", topo.non_manifold_edges);
    println!("misoriented     : {}", topo.misoriented_edges);
    println!("T-junctions     : {}", t_junction_count(&mesh, am_geom::Tolerance::new(1e-6)));
    println!("enclosed volume : {:.1} mm³", mesh.signed_volume());
    println!("surface area    : {:.1} mm²", mesh.surface_area());
    let fp = am_mesh::fingerprint(&mesh);
    println!("fingerprint     : {:016x} ({} bytes)", fp.hash, fp.bytes);
    println!("bodies          : {}", mesh.connected_components().len());
    Ok(())
}

/// `obfuscade slice` — slice an STL into G-code.
pub fn slice(args: &[String]) -> CliResult {
    let (positional, flags) = parse_flags(args);
    let path = positional.first().ok_or("slice requires an STL file argument")?;
    let out = flags.get("out").ok_or("slice requires --out FILE.gcode")?;
    let orientation = orientation_flag(&flags)?;
    let layer: f64 = flags
        .get("layer")
        .map(|v| v.parse().map_err(|_| format!("bad --layer value `{v}`")))
        .transpose()?
        .unwrap_or(0.1778);

    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mesh = read_stl(BufReader::new(file)).map_err(|e| e.to_string())?;
    // Recover the bodies of a multi-body STL (disjoint shells slice as
    // separate bodies, exactly like CatalystEX) before slicing.
    let shells = mesh.connected_components();
    let oriented = orient_shells(&shells, orientation);
    // Place the part away from the bed corner (perimeter insets may
    // overshoot the footprint by a fraction of a road width).
    let margin = am_geom::Transform3::translation(am_geom::Vec3::new(5.0, 5.0, 0.0));
    let placed: Vec<_> = oriented.iter().map(|m| m.transformed(&margin)).collect();
    let config = SlicerConfig { layer_height: layer, ..SlicerConfig::default() };
    config.validate().map_err(|e| e.to_string())?;
    let sliced = try_slice_shells(&placed, layer).map_err(|e| e.to_string())?;
    let toolpath = try_generate_toolpath(&sliced, &config).map_err(|e| e.to_string())?;
    let gcode = to_gcode(&toolpath);
    std::fs::write(out, &gcode).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {out}: {} bodies, {} layers, {} roads, {:.0} mm of extrusion ({orientation} orientation)",
        shells.len(),
        sliced.layer_count(),
        toolpath.roads.len(),
        toolpath.roads.iter().map(|r| r.length()).sum::<f64>()
    );
    Ok(())
}

fn print_gcode(path: &str, flags: &HashMap<String, String>) -> Result<PrintedPart, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let toolpath = parse_gcode(&text).map_err(|e| e.to_string())?;
    let (profile, envelope) = match flags.get("machine").map(String::as_str).unwrap_or("fdm") {
        "fdm" => (PrinterProfile::dimension_elite(), BuildEnvelope::dimension_elite()),
        "polyjet" => (PrinterProfile::objet30_pro(), BuildEnvelope::objet30_pro()),
        other => return Err(format!("unknown machine `{other}` (fdm|polyjet)")),
    };
    let violations = check_limits(&toolpath, &envelope);
    if !violations.is_empty() {
        return Err(format!(
            "firmware rejected the part program: {} (and {} more)",
            violations[0],
            violations.len().saturating_sub(1)
        ));
    }
    let seed: u64 = flags
        .get("seed")
        .map(|v| v.parse().map_err(|_| format!("bad --seed value `{v}`")))
        .transpose()?
        .unwrap_or(1);
    let mut printed =
        PrintedPart::try_from_toolpath(&toolpath, &profile, am_geom::Transform3::identity(), seed)
            .map_err(|e| e.to_string())?;
    printed.dissolve_support();
    Ok(printed)
}

/// `obfuscade print` — simulate a print and report the artifact scan.
pub fn print(args: &[String]) -> CliResult {
    let (positional, flags) = parse_flags(args);
    let path = positional.first().ok_or("print requires a G-code file argument")?;
    let printed = print_gcode(path, &flags)?;
    let scan = am_printer::scan(&printed);
    let (nx, ny, nz) = printed.dims();
    println!("machine         : {}", printed.profile().name);
    println!("voxel grid      : {nx} × {ny} × {nz}");
    println!("part weight     : {:.2} g", printed.weight_g());
    println!("internal voids  : {:.1} mm³", scan.internal_void_volume);
    println!("trapped support : {} voxels", scan.internal_support_voxels);
    println!("cold joints     : {:.1} mm²", scan.cold_joint_area);
    Ok(())
}

/// `obfuscade authenticate` — classify a printed artifact.
///
/// Without `--reference`, absolute thresholds are used (fine for simple
/// solids); with `--reference GENUINE.gcode`, the verdict is based on the
/// defect signature *in excess of* the genuine part's — which is what a
/// real inspection lab does, since legitimate geometry (through-holes,
/// lattices) also scans as internal structure.
pub fn authenticate(args: &[String]) -> CliResult {
    let (positional, flags) = parse_flags(args);
    let path = positional.first().ok_or("authenticate requires a G-code file argument")?;
    let printed = print_gcode(path, &flags)?;
    let scan = am_printer::scan(&printed);
    let (ref_joints, ref_voids) = match flags.get("reference") {
        Some(ref_path) => {
            let reference = print_gcode(ref_path, &flags)?;
            let ref_scan = am_printer::scan(&reference);
            (ref_scan.cold_joint_area, ref_scan.internal_void_volume)
        }
        None => (0.0, 0.0),
    };
    let joints = (scan.cold_joint_area - ref_joints).max(0.0);
    let voids = (scan.internal_void_volume - ref_voids).max(0.0);
    println!("cold-joint area : {:.1} mm² (excess {joints:.1})", scan.cold_joint_area);
    println!("internal voids  : {:.1} mm³ (excess {voids:.1})", scan.internal_void_volume);
    let verdict = if joints > 10.0 || voids > 20.0 {
        "COUNTERFEIT — planted-feature signature present"
    } else {
        "genuine — no planted-feature signature beyond the reference design"
    };
    println!("verdict         : {verdict}");
    Ok(())
}

/// `obfuscade preview` — ASCII rendering of one sliced layer.
pub fn preview(args: &[String]) -> CliResult {
    let (positional, flags) = parse_flags(args);
    let path = positional.first().ok_or("preview requires an STL file argument")?;
    let orientation = orientation_flag(&flags)?;
    let layer_height: f64 = flags
        .get("layer")
        .map(|v| v.parse().map_err(|_| format!("bad --layer value `{v}`")))
        .transpose()?
        .unwrap_or(0.1778);

    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mesh = read_stl(BufReader::new(file)).map_err(|e| e.to_string())?;
    let shells = mesh.connected_components();
    let oriented = orient_shells(&shells, orientation);
    let sliced = try_slice_shells(&oriented, layer_height).map_err(|e| e.to_string())?;
    if sliced.layers.is_empty() {
        return Err("the model sliced to zero layers".into());
    }
    let index: usize = flags
        .get("layer-index")
        .map(|v| v.parse().map_err(|_| format!("bad --layer-index value `{v}`")))
        .transpose()?
        .unwrap_or(sliced.layers.len() / 2)
        .min(sliced.layers.len() - 1);
    let layer = &sliced.layers[index];
    let bounds = am_geom::Aabb2::new(
        am_geom::Point2::new(sliced.bounds.min.x, sliced.bounds.min.y),
        am_geom::Point2::new(sliced.bounds.max.x, sliced.bounds.max.y),
    )
    .inflated(0.5);
    let raster = am_slicer::rasterize_layer(layer, bounds, 0.1, true);
    println!(
        "layer {index}/{} at z = {:.3} mm ({} contours) — '#' model, '.' support, '!' seam gap",
        sliced.layers.len() - 1,
        layer.z,
        layer.loops.len()
    );
    print!("{}", am_slicer::render_layer_with_seam(&raster, 110, 1.0));
    Ok(())
}

/// `obfuscade faults` — run the pipeline under a deterministic fault plan.
///
/// With `--list`, prints the documented single-fault catalog (the Table 1
/// attack classes). Otherwise the positional arguments form a fault-plan
/// spec (`stl.degenerate=3 firmware.feed=50 …`) or name a catalog entry,
/// and the demo part is driven through [`run_pipeline_with_faults`]: a
/// degraded-but-completed run prints its stage outcomes and diagnostics,
/// an aborted run reports the typed error and the stage that raised it.
pub fn faults(args: &[String]) -> CliResult {
    let (positional, flags) = parse_flags(args);
    if flags.contains_key("list") {
        println!("{:<20} PLAN", "NAME");
        for (name, plan) in FaultPlan::catalog() {
            println!("{name:<20} {plan}");
        }
        return Ok(());
    }

    let spec = positional.join(" ");
    let mut fault_plan = match FaultPlan::catalog().into_iter().find(|(name, _)| *name == spec) {
        Some((_, plan)) => plan,
        None => spec.parse::<FaultPlan>().map_err(|e| e.to_string())?,
    };
    if let Some(seed) = flags.get("seed") {
        let seed: u64 = seed.parse().map_err(|_| format!("bad --seed value `{seed}`"))?;
        fault_plan = fault_plan.with_seed(seed);
    }

    let part = demo_part(flags.get("part").map(String::as_str).unwrap_or("prism"), false)?;
    let resolution = match flags.get("resolution") {
        Some(_) => resolution_flag(&flags)?,
        None => Resolution::Coarse,
    };
    let orientation = orientation_flag(&flags)?;
    let plan = ProcessPlan::fdm(resolution, orientation);
    println!("part            : {}", part.name());
    println!("process         : {resolution} resolution, {orientation} orientation");
    println!("fault plan      : {fault_plan}");
    match run_pipeline_with_faults(&part, &plan, &fault_plan) {
        Ok(out) => {
            println!("stages:");
            for outcome in &out.stages {
                println!("  {:<10} {:?}", outcome.stage.to_string(), outcome.status);
            }
            if out.diagnostics.is_empty() {
                println!("diagnostics     : none (clean run)");
            } else {
                println!("diagnostics:");
                for d in &out.diagnostics {
                    println!("  {d}");
                }
            }
            println!(
                "toolpath        : {} layers, {:.0} mm extruded, {:.0} s estimated",
                out.toolpath.layers, out.toolpath.model_mm, out.toolpath.time_s
            );
            println!("internal voids  : {:.1} mm³", out.scan.internal_void_volume);
            println!("cold joints     : {:.1} mm²", out.scan.cold_joint_area);
            Ok(())
        }
        Err(e) => Err(format!("pipeline aborted in the {} stage: {e}", e.stage())),
    }
}

/// `obfuscade audit` — the paper's Table 1 / Fig. 2.
pub fn audit(_args: &[String]) -> CliResult {
    print!("{}", obfuscade::risk::render_risk_table());
    println!();
    for a in obfuscade::risk::attack_taxonomy() {
        println!("  [{:<17}] {:<45} → {}", a.level.to_string(), a.name, a.goal);
    }
    Ok(())
}

/// `obfuscade report` — regenerate paper artifacts.
pub fn report(args: &[String]) -> CliResult {
    use obfuscade_bench::experiments as e;
    let (positional, flags) = parse_flags(args);
    let which = positional.first().map(String::as_str).unwrap_or("all");
    // Zero replicates would print Table 2 as all-zero statistics, so it is
    // rejected like an unparseable count.
    let replicates: usize = flags
        .get("replicates")
        .map(|v| match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("bad --replicates value `{v}` (need a whole number >= 1)")),
        })
        .transpose()?
        .unwrap_or(3);
    let sections: Vec<String> = match which {
        "table1" => vec![e::table1_risks()],
        "fig3" => vec![e::fig3_stages()],
        "fig4" => vec![e::fig4_gaps()],
        "fig5" => vec![e::fig5_resolution()],
        "fig7" => vec![e::fig7_slicing()],
        "fig8" => vec![e::fig8_surface()],
        "fig9" => vec![e::fig9_fracture()],
        "table2" => vec![e::table2_tensile(replicates)],
        "table3" => vec![e::table3_printing()],
        "sidechannel" => vec![e::sidechannel_recon()],
        // Not part of `all`: the full ROC sweep runs only on request.
        "detect" => vec![e::detection_roc()],
        "keyspace" => vec![e::ablation_keyspace()],
        "multikey" => vec![e::ablation_multikey()],
        "sparse" => vec![e::ablation_sparse_infill()],
        "repair" => vec![e::ablation_repair()],
        "auth" => vec![e::authentication_demo()],
        "all" => vec![
            e::table1_risks(),
            e::fig3_stages(),
            e::fig4_gaps(),
            e::fig5_resolution(),
            e::fig7_slicing(),
            e::fig8_surface(),
            e::table2_tensile(replicates),
            e::fig9_fracture(),
            e::table3_printing(),
            e::sidechannel_recon(),
            e::ablation_keyspace(),
            e::ablation_multikey(),
            e::ablation_sparse_infill(),
            e::ablation_repair(),
            e::authentication_demo(),
        ],
        other => return Err(format!("unknown report `{other}`")),
    };
    for (i, s) in sections.iter().enumerate() {
        if i > 0 {
            println!("\n{}\n", "=".repeat(100));
        }
        print!("{s}");
    }
    Ok(())
}

/// `obfuscade sweep` — evaluate the full process-key space through the
/// shared-prefix batch engine.
///
/// This is the defender's parameter study: every Table 3 CAD recipe at
/// every resolution × orientation, one pipeline evaluation per key, with
/// shared stage prefixes (the same recipe meshed at the same resolution)
/// computed exactly once via the content-addressed stage cache. With
/// `--tensile` each key's artifact also goes through the virtual tensile
/// test under the `--solver` of choice, replicates drawing their solver
/// scratch from the process-wide pool. With `--cache-stats` the cache
/// (and, under `--tensile`, solver-pool) counters are printed so the
/// prefix sharing and state reuse are observable.
pub fn sweep(args: &[String]) -> CliResult {
    use obfuscade::{sweep_key_space, EmbeddedSphereScheme, ProcessKey, StageCache};
    let (positional, flags) = parse_flags(args);
    if let Some(extra) = positional.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    let threads: usize = flags
        .get("threads")
        .map(|v| v.parse().map_err(|_| format!("bad --threads value `{v}`")))
        .transpose()?
        .unwrap_or_else(|| obfuscade_bench::perf::BenchConfig::default().threads)
        .max(1);
    let seed: u64 = flags
        .get("seed")
        .map(|v| v.parse().map_err(|_| format!("bad --seed value `{v}`")))
        .transpose()?
        .unwrap_or(1);
    let tensile = flags.contains_key("tensile");
    let solver = solver_flag(&flags)?;

    let scheme = EmbeddedSphereScheme::default();
    let base = ProcessPlan::fdm(Resolution::Fine, Orientation::Xy)
        .with_seed(seed)
        .with_tensile(tensile)
        .with_fea_solver(solver);
    let keys = ProcessKey::key_space();
    let cache = StageCache::default();
    let start = std::time::Instant::now();
    let results = sweep_key_space(
        |recipe| scheme.part_for_recipe(recipe),
        &base,
        &keys,
        &cache,
        am_par::Parallelism::threads(threads),
    );
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;

    println!(
        "{:<55} {:>10} {:>12} {:>14}{}",
        "process key",
        "weight g",
        "voids mm³",
        "authenticity",
        if tensile { format!("{:>10}", "UTS MPa") } else { String::new() }
    );
    for (key, result) in &results {
        match result {
            Ok(output) => println!(
                "{:<55} {:>10.2} {:>12.1} {:>14}{}",
                key.to_string(),
                output.printed.weight_g(),
                output.scan.internal_void_volume,
                format!("{:?}", scheme.authenticate(&output.scan)),
                match &output.tensile {
                    Some(t) => format!("{:>10.2}", t.uts_mpa),
                    None => String::new(),
                }
            ),
            Err(e) => println!("{:<55} failed: {e}", key.to_string()),
        }
    }
    println!(
        "\n{} keys evaluated in {elapsed_ms:.0} ms ({threads} thread(s){})",
        results.len(),
        if tensile { format!(", {solver} tensile solver") } else { String::new() }
    );
    if flags.contains_key("cache-stats") {
        // One snapshot, one renderer: the same unified metrics surface
        // the daemon's `stats` request serializes.
        print!("{}", obfuscade::metrics::MetricsSnapshot::gather(&cache).render());
    }
    Ok(())
}

/// `obfuscade bench` — time the reference kernels against the optimized
/// kernels and emit a validated JSON report.
pub fn bench(args: &[String]) -> CliResult {
    use obfuscade_bench::perf::{run_selected_benchmarks, validate_report_json, BenchConfig};
    let (positional, flags) = parse_flags(args);
    if let Some(extra) = positional.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    // `--check FILE` is the CI regression gate: validate an existing report
    // against the schema and fail if any kernel regressed below 1.0× — or,
    // with `--fea-budget-ms`, if the fea row's optimized wall clock blew
    // its budget (the PR 4 gate: ≤ half of PR 3's committed 1157.7 ms).
    if let Some(path) = flags.get("check") {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let speedups = validate_report_json(&text).map_err(|e| format!("{path}: {e}"))?;
        let mut regressions = Vec::new();
        for (name, speedup) in &speedups {
            let ok = *speedup >= 1.0;
            println!("  {name:<16} {speedup:>6.2}x  {}", if ok { "ok" } else { "REGRESSION" });
            if !ok {
                regressions.push(name.clone());
            }
        }
        if !regressions.is_empty() {
            return Err(format!(
                "{path}: kernel speedup below 1.0x: {}",
                regressions.join(", ")
            ));
        }
        // PR 7: `--min-speedup printing=3.5,slicing=5.7` raises the floor
        // above the blanket 1.0× for named kernels, so a kernel that a PR
        // specifically optimized cannot silently decay back toward parity.
        if let Some(list) = flags.get("min-speedup") {
            for entry in list.split(',').filter(|e| !e.is_empty()) {
                let (name, min) = entry
                    .split_once('=')
                    .ok_or_else(|| format!("bad --min-speedup entry `{entry}` (want name=X)"))?;
                let min: f64 = min
                    .parse()
                    .map_err(|_| format!("bad --min-speedup floor in `{entry}`"))?;
                let speedup = speedups
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|&(_, s)| s)
                    .ok_or_else(|| format!("{path}: no '{name}' kernel row for --min-speedup"))?;
                if speedup < min {
                    return Err(format!(
                        "{path}: {name} speedup {speedup:.2}x below the {min:.2}x floor"
                    ));
                }
                println!("  {name:<16} {speedup:>6.2}x  >= {min:.2}x floor");
            }
        }
        if let Some(budget) = flags.get("fea-budget-ms") {
            let budget: f64 =
                budget.parse().map_err(|_| format!("bad --fea-budget-ms value `{budget}`"))?;
            let fea_ms = obfuscade_bench::perf::report_kernel_optimized_ms(&text, "fea")
                .map_err(|e| format!("{path}: {e}"))?;
            if fea_ms > budget {
                return Err(format!(
                    "{path}: fea optimized time {fea_ms:.1} ms exceeds the {budget:.1} ms budget"
                ));
            }
            println!("  fea optimized    {fea_ms:>6.1} ms  within the {budget:.1} ms budget");
        }
        // PR 5: `--require-serve` additionally insists the report carries
        // a daemon load-test result (its cleanliness was already enforced
        // by the schema validation above).
        if flags.contains_key("require-serve") {
            let served = obfuscade_bench::perf::report_has_serve(&text)
                .map_err(|e| format!("{path}: {e}"))?;
            if !served {
                return Err(format!("{path}: no serve section (daemon bench did not run)"));
            }
            println!("  serve            present  clean daemon load run");
        }
        // PR 8: absolute floors on the committed headline serve numbers
        // (the reactor-backend binary-codec point at top concurrency), so
        // a daemon-latency regression cannot hide behind the relative
        // kernel speedups.
        if let Some(ceiling) = flags.get("serve-p99-ms") {
            let ceiling: f64 = ceiling
                .parse()
                .map_err(|_| format!("bad --serve-p99-ms value `{ceiling}`"))?;
            let p99 = obfuscade_bench::perf::report_serve_number(&text, "p99_ms")
                .map_err(|e| format!("{path}: {e}"))?;
            if p99 > ceiling {
                return Err(format!(
                    "{path}: serve p99 {p99:.2} ms exceeds the {ceiling:.2} ms ceiling"
                ));
            }
            println!("  serve p99        {p99:>6.2} ms  within the {ceiling:.2} ms ceiling");
        }
        if let Some(floor) = flags.get("serve-min-rps") {
            let floor: f64 =
                floor.parse().map_err(|_| format!("bad --serve-min-rps value `{floor}`"))?;
            let rps = obfuscade_bench::perf::report_serve_number(&text, "throughput_rps")
                .map_err(|e| format!("{path}: {e}"))?;
            if rps < floor {
                return Err(format!(
                    "{path}: serve throughput {rps:.1} req/s below the {floor:.1} req/s floor"
                ));
            }
            println!("  serve rps        {rps:>6.1}     >= {floor:.1} req/s floor");
        }
        // PR 9: absolute floors on the committed routed-fleet headline
        // (the affinity point at the grid's largest node count). The
        // affinity-beats-round-robin ordering was already enforced by the
        // schema validation; these pin the absolute numbers so the warm
        // hit rate cannot erode inside the relative ordering.
        if let Some(floor) = flags.get("fleet-min-hit-rate") {
            let floor: f64 = floor
                .parse()
                .map_err(|_| format!("bad --fleet-min-hit-rate value `{floor}`"))?;
            let rate = obfuscade_bench::perf::report_fleet_number(&text, "hit_rate")
                .map_err(|e| format!("{path}: {e}"))?;
            if rate < floor {
                return Err(format!(
                    "{path}: fleet warm hit rate {rate:.1}% below the {floor:.1}% floor"
                ));
            }
            println!("  fleet hit rate   {rate:>6.1}%    >= {floor:.1}% floor");
        }
        if let Some(floor) = flags.get("fleet-min-rps") {
            let floor: f64 =
                floor.parse().map_err(|_| format!("bad --fleet-min-rps value `{floor}`"))?;
            let rps = obfuscade_bench::perf::report_fleet_number(&text, "throughput_rps")
                .map_err(|e| format!("{path}: {e}"))?;
            if rps < floor {
                return Err(format!(
                    "{path}: routed throughput {rps:.1} req/s below the {floor:.1} req/s floor"
                ));
            }
            println!("  fleet rps        {rps:>6.1}     >= {floor:.1} req/s floor");
        }
        // PR 10: absolute gates on the committed detection-sweep headline
        // (worst setup across the ROC grid). The fused-beats-each-channel
        // ordering and full fault-catalog coverage were already enforced
        // by the schema validation; these pin the absolute rates.
        if let Some(floor) = flags.get("detect-min-catch") {
            let floor: f64 = floor
                .parse()
                .map_err(|_| format!("bad --detect-min-catch value `{floor}`"))?;
            let catch = obfuscade_bench::perf::report_detect_number(&text, "min_fused_catch")
                .map_err(|e| format!("{path}: {e}"))?;
            if catch < floor {
                return Err(format!(
                    "{path}: worst-setup fused catch rate {catch:.3} below the {floor:.3} floor"
                ));
            }
            println!("  detect catch     {catch:>6.3}    >= {floor:.3} floor");
        }
        if let Some(ceiling) = flags.get("detect-max-fpr") {
            let ceiling: f64 = ceiling
                .parse()
                .map_err(|_| format!("bad --detect-max-fpr value `{ceiling}`"))?;
            let fpr = obfuscade_bench::perf::report_detect_number(&text, "max_fused_fpr")
                .map_err(|e| format!("{path}: {e}"))?;
            if fpr > ceiling {
                return Err(format!(
                    "{path}: worst-setup fused false-positive rate {fpr:.3} exceeds the \
                     {ceiling:.3} ceiling"
                ));
            }
            println!("  detect fpr       {fpr:>6.3}    <= {ceiling:.3} ceiling");
        }
        println!("{path}: schema valid, {} kernels, all speedups >= 1.0x", speedups.len());
        return Ok(());
    }
    let parse_usize = |name: &str, default: usize| -> Result<usize, String> {
        flags
            .get(name)
            .map(|v| v.parse().map_err(|_| format!("bad --{name} value `{v}`")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let defaults = BenchConfig::default();
    let config = BenchConfig {
        smoke: flags.contains_key("smoke"),
        threads: parse_usize("threads", defaults.threads)?.max(1),
        solver: solver_flag(&flags)?,
        serve: flags.contains_key("serve"),
    };
    let out_path = flags.get("out").map(String::as_str).unwrap_or("BENCH_PR10.json");
    let only = flags.get("only").map(String::as_str);
    if let Some(name) = only {
        if !["slicing", "printing", "fea", "sweep", "serve", "fleet", "detect"].contains(&name) {
            return Err(format!("unknown kernel `{name}` for --only"));
        }
        if (name == "serve" || name == "fleet") && !config.serve {
            return Err(format!("--only {name} requires --serve"));
        }
    }

    eprintln!(
        "benchmarking {} (threads={}, solver={})…",
        if config.smoke { "smoke workloads" } else { "full workloads" },
        config.threads,
        config.solver
    );
    let report = run_selected_benchmarks(&config, only);
    print!("{}", report.render());

    let json = report.to_json();
    std::fs::write(out_path, &json).map_err(|e| format!("writing {out_path}: {e}"))?;
    // Parse the file we just wrote back in, so a malformed report fails
    // loudly here (and in the CI smoke stage) rather than downstream.
    let written = std::fs::read_to_string(out_path).map_err(|e| format!("reading back: {e}"))?;
    let speedups = validate_report_json(&written)?;
    println!(
        "\nwrote {out_path} ({} kernels, schema validated): {}",
        speedups.len(),
        speedups
            .iter()
            .map(|(name, s)| format!("{name} {s:.2}x"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(())
}

/// Resolves the daemon endpoint from `--uds PATH` / `--addr HOST:PORT`.
fn endpoint_flag(flags: &HashMap<String, String>) -> am_service::Endpoint {
    match flags.get("uds") {
        Some(path) => am_service::Endpoint::Unix(std::path::PathBuf::from(path)),
        None => am_service::Endpoint::Tcp(
            flags.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:7777".to_string()),
        ),
    }
}

/// How long `submit --port-file` waits for the daemon to write its
/// bound address before giving up.
const PORT_FILE_DEADLINE: std::time::Duration = std::time::Duration::from_secs(10);

/// Resolves `submit`'s endpoint: an explicit `--uds` wins, then
/// `--port-file` (polled with a bounded deadline — `serve --port-file`
/// writes the file only once its listener is bound, so a script that
/// boots the daemon and immediately submits would otherwise race the
/// daemon's startup), then `--addr`.
fn submit_endpoint(flags: &HashMap<String, String>) -> Result<am_service::Endpoint, String> {
    submit_endpoint_within(flags, PORT_FILE_DEADLINE)
}

fn submit_endpoint_within(
    flags: &HashMap<String, String>,
    wait: std::time::Duration,
) -> Result<am_service::Endpoint, String> {
    if flags.contains_key("uds") {
        return Ok(endpoint_flag(flags));
    }
    let Some(path) = flags.get("port-file") else {
        return Ok(endpoint_flag(flags));
    };
    let deadline = std::time::Instant::now() + wait;
    loop {
        if let Ok(addr) = std::fs::read_to_string(path) {
            let addr = addr.trim();
            if !addr.is_empty() {
                return Ok(am_service::Endpoint::Tcp(addr.to_string()));
            }
        }
        if std::time::Instant::now() >= deadline {
            return Err(format!(
                "--port-file {path}: no daemon address appeared within {:.1} s \
                 (is `obfuscade serve --port-file {path}` running?)",
                wait.as_secs_f64()
            ));
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

fn usize_flag(
    flags: &HashMap<String, String>,
    name: &str,
    default: usize,
) -> Result<usize, String> {
    flags
        .get(name)
        .map(|v| v.parse().map_err(|_| format!("bad --{name} value `{v}`")))
        .transpose()
        .map(|v| v.unwrap_or(default))
}

fn u64_flag(
    flags: &HashMap<String, String>,
    name: &str,
) -> Result<Option<u64>, String> {
    flags
        .get(name)
        .map(|v| v.parse().map_err(|_| format!("bad --{name} value `{v}`")))
        .transpose()
}

fn f64_flag(
    flags: &HashMap<String, String>,
    name: &str,
) -> Result<Option<f64>, String> {
    flags
        .get(name)
        .map(|v| v.parse().map_err(|_| format!("bad --{name} value `{v}`")))
        .transpose()
}

/// `obfuscade serve` — run the obfuscation daemon until a client sends
/// `shutdown` (which drains the queue and in-flight jobs first).
pub fn serve(args: &[String]) -> CliResult {
    use am_service::{Server, ServerConfig};
    let (positional, flags) = parse_flags(args);
    if let Some(extra) = positional.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        addr: flags.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:7777".to_string()),
        unix_socket: flags.get("uds").map(std::path::PathBuf::from),
        workers: usize_flag(&flags, "workers", defaults.workers)?.max(1),
        queue_capacity: usize_flag(&flags, "queue", defaults.queue_capacity)?.max(1),
        cache_budget: match flags.get("cache-mb") {
            Some(v) => {
                let mb: usize =
                    v.parse().map_err(|_| format!("bad --cache-mb value `{v}`"))?;
                mb.max(1) << 20
            }
            None => defaults.cache_budget,
        },
        allow_remote_shutdown: flags.contains_key("allow-remote-shutdown"),
        spill_dir: flags.get("spill-dir").map(std::path::PathBuf::from),
        chaos: u64_flag(&flags, "chaos-seed")?.map(am_service::ChaosPlan::from_seed),
        backend: match flags.get("backend") {
            Some(name) => am_service::ConnBackend::from_name(name)?,
            None => defaults.backend,
        },
        json_only: flags.contains_key("json-only"),
        idle_timeout: match u64_flag(&flags, "idle-timeout-s")? {
            Some(secs) => std::time::Duration::from_secs(secs.max(1)),
            None => defaults.idle_timeout,
        },
        node: flags.get("node").cloned().unwrap_or_default(),
        ..defaults
    };
    let workers = config.workers;
    let queue = config.queue_capacity;
    let backend = config.backend.name();
    let uds = config.unix_socket.clone();
    let server = Server::start(config).map_err(|e| format!("serve: {e}"))?;
    let addr = server.addr().to_string();
    println!(
        "obfuscade daemon listening on {addr}{} ({workers} workers, queue {queue}, \
         {backend} backend)",
        match &uds {
            Some(path) => format!(" and {}", path.display()),
            None => String::new(),
        }
    );
    // Scripts poll for this file instead of parsing stdout (port 0 binds
    // an ephemeral port only the daemon knows).
    if let Some(path) = flags.get("port-file") {
        std::fs::write(path, &addr).map_err(|e| format!("writing {path}: {e}"))?;
    }
    server.join();
    println!("daemon drained and stopped");
    Ok(())
}

/// Parses one `--to` element: `unix:PATH` is a Unix-socket backend,
/// anything else a TCP `HOST:PORT`.
fn backend_endpoint(spec: &str) -> Result<am_service::Endpoint, String> {
    if let Some(path) = spec.strip_prefix("unix:") {
        if path.is_empty() {
            return Err("empty unix: backend path in --to".to_string());
        }
        return Ok(am_service::Endpoint::Unix(std::path::PathBuf::from(path)));
    }
    if !spec.contains(':') {
        return Err(format!("backend `{spec}` is neither HOST:PORT nor unix:PATH"));
    }
    Ok(am_service::Endpoint::Tcp(spec.to_string()))
}

/// `obfuscade route` — run the cache-affinity router in front of a fleet
/// of backend daemons until a client sends `shutdown`.
pub fn route(args: &[String]) -> CliResult {
    use am_router::{RoutePolicy, Router, RouterConfig};
    use am_service::ServerConfig;
    let (positional, flags) = parse_flags(args);
    if let Some(extra) = positional.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    let to = flags.get("to").ok_or("route requires --to EP1,EP2,... (backend endpoints)")?;
    let backends = to
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| backend_endpoint(s.trim()))
        .collect::<Result<Vec<_>, _>>()?;
    if backends.is_empty() {
        return Err("route requires at least one backend in --to".to_string());
    }
    let front_defaults = ServerConfig::default();
    let defaults = RouterConfig::default();
    let config = RouterConfig {
        front: ServerConfig {
            addr: flags.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:7878".to_string()),
            unix_socket: flags.get("uds").map(std::path::PathBuf::from),
            // Forwarding workers block on backend round trips, so the
            // front pool defaults wider than a compute daemon's.
            workers: usize_flag(&flags, "workers", 8)?.max(1),
            queue_capacity: usize_flag(&flags, "queue", front_defaults.queue_capacity)?.max(1),
            allow_remote_shutdown: flags.contains_key("allow-remote-shutdown"),
            backend: match flags.get("backend") {
                Some(name) => am_service::ConnBackend::from_name(name)?,
                None => front_defaults.backend,
            },
            json_only: flags.contains_key("json-only"),
            node: flags.get("node").cloned().unwrap_or_default(),
            ..front_defaults
        },
        backends,
        conns_per_backend: usize_flag(&flags, "conns", defaults.conns_per_backend)?.max(1),
        policy: match flags.get("policy") {
            Some(name) => RoutePolicy::from_name(name)?,
            None => defaults.policy,
        },
        fail_threshold: u64_flag(&flags, "fail-threshold")?
            .map_or(defaults.fail_threshold, |n| n.clamp(1, u32::MAX as u64) as u32),
        probe_every: u64_flag(&flags, "probe-every")?.unwrap_or(defaults.probe_every),
        retry: am_service::RetryPolicy {
            attempts: u64_flag(&flags, "retries")?
                .map_or(defaults.retry.attempts, |n| n.min(64) as u32)
                .max(1),
            ..defaults.retry
        },
    };
    let policy = config.policy.name();
    let n = config.backends.len();
    let workers = config.front.workers;
    let uds = config.front.unix_socket.clone();
    let router = Router::start(config).map_err(|e| format!("route: {e}"))?;
    let addr = router.addr().to_string();
    println!(
        "obfuscade router listening on {addr}{} ({policy} routing over {n} backends, \
         {workers} forwarding workers)",
        match &uds {
            Some(path) => format!(" and {}", path.display()),
            None => String::new(),
        }
    );
    if let Some(path) = flags.get("port-file") {
        std::fs::write(path, &addr).map_err(|e| format!("writing {path}: {e}"))?;
    }
    router.join();
    println!("router drained and stopped");
    Ok(())
}

/// Builds a [`am_service::JobSpec`] from `submit`'s job flags, starting
/// from the service defaults and overriding only what was given.
fn job_spec_flags(flags: &HashMap<String, String>) -> Result<am_service::JobSpec, String> {
    let mut job = am_service::JobSpec::default();
    if let Some(part) = flags.get("part") {
        job.part = part.clone();
    }
    job.intact = flags.contains_key("intact");
    if flags.contains_key("resolution") {
        job.resolution = resolution_flag(flags)?;
    }
    if flags.contains_key("orientation") {
        job.orientation = orientation_flag(flags)?;
    }
    if let Some(seed) = u64_flag(flags, "seed")? {
        job.seed = seed;
    }
    job.tensile = flags.contains_key("tensile");
    if flags.contains_key("solver") {
        job.solver = solver_flag(flags)?;
    }
    if let Some(layer) = flags.get("layer") {
        let mm: f64 = layer.parse().map_err(|_| format!("bad --layer value `{layer}`"))?;
        job.layer = Some(mm);
    }
    if let Some(spec) = flags.get("faults") {
        job.faults = spec.clone();
    }
    if let Some(seed) = u64_flag(flags, "fault-seed")? {
        job.fault_seed = seed;
    }
    // Round-trip through the wire encoding so bad part names or fault
    // specs fail here, client-side, with the same message the daemon
    // would produce.
    job.build_part()?;
    job.fault_plan()?;
    Ok(job)
}

/// `obfuscade submit` — one request to a running daemon, or a whole
/// verified load run with `--load N`.
pub fn submit(args: &[String]) -> CliResult {
    use am_service::{expected_results_wire, run_load_with, Client, Response, RetryingClient};
    use obfuscade::json::Json;
    let (positional, flags) = parse_flags(args);
    if let Some(extra) = positional.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    let endpoint = submit_endpoint(&flags)?;
    let job = job_spec_flags(&flags)?;
    let deadline_ms = u64_flag(&flags, "deadline-ms")?;
    let codec = match flags.get("codec") {
        Some(name) => am_service::Codec::from_name(name)?,
        None => am_service::Codec::Json,
    };
    let policy = am_service::RetryPolicy {
        attempts: u64_flag(&flags, "retries")?
            .map_or(am_service::RetryPolicy::default().attempts, |n| n.min(64) as u32)
            .max(1),
        ..am_service::RetryPolicy::default()
    };

    // Load-generator mode: `--load N [--concurrency C]` fires N identical
    // run requests over C connections and byte-compares every response
    // against an in-process reference run of the same job.
    if let Some(total) = u64_flag(&flags, "load")? {
        let concurrency = usize_flag(&flags, "concurrency", 4)?.max(1);
        let jobs = vec![job];
        let expected = expected_results_wire(&jobs)?;
        let report =
            run_load_with(&endpoint, total, concurrency, &jobs, Some(&expected), &policy, codec);
        println!(
            "{} requests over {} workers / {} connects ({}) in {:.2} s: p50 {:.1} ms, \
             p95 {:.1} ms, p99 {:.1} ms, {:.1} req/s{}",
            report.requests,
            report.concurrency,
            report.connects,
            codec.name(),
            report.wall_s,
            report.quantile_ms(0.50),
            report.quantile_ms(0.95),
            report.quantile_ms(0.99),
            report.throughput_rps(),
            if report.retries > 0 {
                format!(" ({} retries)", report.retries)
            } else {
                String::new()
            }
        );
        if !report.clean() {
            return Err(format!(
                "load run was not clean: {} errors, {} dropped connections, {} result mismatches",
                report.errors, report.dropped_connections, report.mismatches
            ));
        }
        println!("all responses byte-identical to the in-process run");
        return Ok(());
    }

    // `ping` and `shutdown` stay on the plain client: ping is the
    // liveness probe (retrying would mask exactly what it measures) and
    // shutdown must never be resent.
    let mut retrying = RetryingClient::new_with_codec(&endpoint, policy, codec);
    match flags.get("kind").map(String::as_str).unwrap_or("run") {
        "ping" => {
            let mut client = Client::connect_with_codec(&endpoint, None, codec)
                .map_err(|e| format!("connect: {e}"))?;
            client.ping()?;
            println!("pong");
        }
        "stats" => {
            println!("{}", retrying.stats()?.render());
        }
        "shutdown" => {
            let mut client = Client::connect_with_codec(&endpoint, None, codec)
                .map_err(|e| format!("connect: {e}"))?;
            let completed = client.shutdown()?;
            println!("daemon drained and stopped ({completed} jobs completed over its lifetime)");
        }
        "run" => match retrying.run(&[job], deadline_ms)? {
            Response::Results { results, .. } => println!("{}", Json::Array(results).render()),
            Response::Error { error, message, .. } => {
                return Err(format!("{}: {message}", error.name()))
            }
            other => return Err(format!("unexpected response {other:?}")),
        },
        "authenticate" => match retrying.authenticate(&job, deadline_ms)? {
            Response::Verdict { verdict, cold_joint_mm2, void_mm3, .. } => println!(
                "{verdict} (cold joints {cold_joint_mm2:.1} mm², voids {void_mm3:.1} mm³)"
            ),
            Response::Error { error, message, .. } => {
                return Err(format!("{}: {message}", error.name()))
            }
            other => return Err(format!("unexpected response {other:?}")),
        },
        // PR 10: side-channel detection and stego sanitization, served as
        // batch jobs. `--verify` re-runs the job in-process through
        // `am-detect` and byte-compares the served reports against it —
        // the CI detect stage's contract check.
        "detect" => {
            let spec = am_service::DetectSpec {
                job,
                quality: flags
                    .get("quality")
                    .cloned()
                    .unwrap_or_else(|| am_service::DetectSpec::default().quality),
                jam_amplitude: f64_flag(&flags, "jam")?.unwrap_or(0.0),
                trace_seed: u64_flag(&flags, "trace-seed")?.unwrap_or(1),
            };
            let jobs = vec![spec];
            let expected = flags
                .contains_key("verify")
                .then(|| am_service::expected_detections_wire(&jobs))
                .transpose()?;
            match retrying.detect(&jobs, deadline_ms)? {
                Response::Detections { reports, .. } => {
                    let rendered = Json::Array(reports).render();
                    verify_wire(&expected, &rendered, "detection reports")?;
                    println!("{rendered}");
                }
                Response::Error { error, message, .. } => {
                    return Err(format!("{}: {message}", error.name()))
                }
                other => return Err(format!("unexpected response {other:?}")),
            }
        }
        "sanitize" => {
            let defaults = am_service::SanitizeSpec::default();
            let spec = am_service::SanitizeSpec {
                job,
                payload_seed: u64_flag(&flags, "payload-seed")?.unwrap_or(defaults.payload_seed),
                payload_bits: u64_flag(&flags, "payload-bits")?.unwrap_or(defaults.payload_bits),
            };
            let jobs = vec![spec];
            let expected = flags
                .contains_key("verify")
                .then(|| am_service::expected_sanitize_wire(&jobs))
                .transpose()?;
            match retrying.sanitize(&jobs, deadline_ms)? {
                Response::Sanitized { reports, .. } => {
                    let rendered = Json::Array(reports).render();
                    verify_wire(&expected, &rendered, "sanitize reports")?;
                    println!("{rendered}");
                }
                Response::Error { error, message, .. } => {
                    return Err(format!("{}: {message}", error.name()))
                }
                other => return Err(format!("unexpected response {other:?}")),
            }
        }
        other => {
            return Err(format!(
                "unknown request kind `{other}` \
                 (ping|stats|run|authenticate|detect|sanitize|shutdown)"
            ))
        }
    }
    Ok(())
}

/// Byte-compares a served wire rendering against the in-process
/// reference (`None` when `--verify` wasn't requested).
fn verify_wire(expected: &Option<String>, served: &str, what: &str) -> Result<(), String> {
    match expected {
        None => Ok(()),
        Some(reference) if reference == served => {
            eprintln!("verified: served {what} byte-identical to the in-process run");
            Ok(())
        }
        Some(_) => Err(format!(
            "served {what} diverged from the in-process reference run \
             (the wire broke the determinism contract)"
        )),
    }
}

/// `obfuscade detect-roc` — the in-process detection ROC sweep: every
/// detector × the full fault catalog × capture qualities × NoiseEmitter
/// jamming amplitudes (the `--jam` axis is the countermeasure study:
/// nonzero amplitudes turn the defender's acoustic jammer on).
pub fn detect_roc(args: &[String]) -> CliResult {
    use am_detect::{run_roc_sweep, RocConfig};
    use obfuscade::{Deadline, StageCache};
    let (positional, flags) = parse_flags(args);
    if let Some(extra) = positional.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    let job = am_service::JobSpec {
        part: flags.get("part").cloned().unwrap_or_else(|| "prism".to_string()),
        resolution: match flags.contains_key("resolution") {
            true => resolution_flag(&flags)?,
            false => Resolution::Coarse,
        },
        orientation: orientation_flag(&flags)?,
        ..am_service::JobSpec::default()
    };
    let part = job.build_part()?;
    let plan = job.plan();

    let mut config = RocConfig::default();
    if let Some(list) = flags.get("quality") {
        config.qualities = list.split(',').map(str::to_string).collect();
        for q in &config.qualities {
            am_detect::capture_quality(q)?;
        }
    }
    if let Some(list) = flags.get("jam") {
        config.jam_amplitudes = list
            .split(',')
            .map(|v| v.parse().map_err(|_| format!("bad --jam amplitude `{v}`")))
            .collect::<Result<_, String>>()?;
    }
    if let Some(n) = u64_flag(&flags, "replicates")? {
        config.replicates = (n as usize).max(1);
    }

    let cache = StageCache::with_budget(StageCache::DEFAULT_BUDGET);
    let table = run_roc_sweep(&part, &plan, &config, &cache, Deadline::none())
        .map_err(|e| e.to_string())?;
    if flags.contains_key("json") {
        println!("{}", table.to_json().render());
        return Ok(());
    }

    println!(
        "detection ROC sweep — {} faults × {} capture setups, {} replicates each",
        table.faults_covered,
        table.setups.len(),
        config.replicates
    );
    println!(
        "{:<12} {:>5}  {:>11} {:>11} {:>11}  {:>9} {:>9} {:>9}",
        "quality", "jam", "audio catch", "power catch", "fused catch", "audio fpr", "power fpr",
        "fused fpr"
    );
    for s in &table.setups {
        println!(
            "{:<12} {:>5.2}  {:>11.3} {:>11.3} {:>11.3}  {:>9.3} {:>9.3} {:>9.3}",
            s.quality,
            s.jam_amplitude,
            s.audio_catch,
            s.power_catch,
            s.fused_catch,
            s.audio_fpr,
            s.power_fpr,
            s.fused_fpr
        );
    }
    // Per-fault worst case across all setups: which catalog attacks
    // survive the fused detector under the least favorable capture.
    println!("\nper-fault worst-case fused catch (min over setups):");
    let mut faults: Vec<&str> = Vec::new();
    for c in &table.cells {
        if !faults.contains(&c.fault.as_str()) {
            faults.push(&c.fault);
        }
    }
    for fault in faults {
        let worst = table
            .cells
            .iter()
            .filter(|c| c.fault == fault)
            .map(|c| c.fused_catch)
            .fold(f64::INFINITY, f64::min);
        let blocked = table.cells.iter().any(|c| c.fault == fault && c.blocked);
        println!(
            "  {fault:<24} {worst:>6.3}{}",
            if blocked { "  (blocked upstream of the printer)" } else { "" }
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parser_splits_positionals_and_flags() {
        let args: Vec<String> =
            ["file.stl", "--out", "x.gcode", "--intact"].iter().map(|s| s.to_string()).collect();
        let (pos, flags) = parse_flags(&args);
        assert_eq!(pos, vec!["file.stl"]);
        assert_eq!(flags.get("out").map(String::as_str), Some("x.gcode"));
        assert_eq!(flags.get("intact").map(String::as_str), Some("true"));
    }

    #[test]
    fn resolution_and_orientation_flags_validate() {
        let mut flags = HashMap::new();
        assert_eq!(resolution_flag(&flags).unwrap(), Resolution::Fine);
        assert_eq!(orientation_flag(&flags).unwrap(), Orientation::Xy);
        flags.insert("resolution".into(), "bogus".into());
        assert!(resolution_flag(&flags).is_err());
        flags.insert("orientation".into(), "xz".into());
        assert_eq!(orientation_flag(&flags).unwrap(), Orientation::Xz);
    }

    #[test]
    fn protect_inspect_slice_print_round_trip() {
        let dir = std::env::temp_dir().join(format!("obfuscade-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let stl = dir.join("bar.stl").to_string_lossy().to_string();
        let gcode = dir.join("bar.gcode").to_string_lossy().to_string();

        protect(&["--part".into(), "bar".into(), "--out".into(), stl.clone()]).unwrap();
        inspect(std::slice::from_ref(&stl)).unwrap();
        slice(&[stl.clone(), "--orientation".into(), "xz".into(), "--out".into(), gcode.clone()])
            .unwrap();
        // A non-positive --layer must surface as a typed error, not a panic.
        let bad = slice(&[
            stl,
            "--orientation".into(),
            "xz".into(),
            "--out".into(),
            gcode.clone(),
            "--layer".into(),
            "0".into(),
        ]);
        assert!(bad.unwrap_err().contains("layer_height must be positive"));
        print(std::slice::from_ref(&gcode)).unwrap();
        authenticate(std::slice::from_ref(&gcode)).unwrap();
        authenticate(&[gcode.clone(), "--reference".into(), gcode]).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_flags_are_reported() {
        assert!(protect(&["--out".into(), "/nonexistent-dir-xyz/o.stl".into()]).is_err());
        assert!(inspect(&[]).is_err());
        assert!(slice(&[]).is_err());
    }

    #[test]
    fn report_rejects_replicate_counts_below_one() {
        for bad in ["0", "-1", "five"] {
            let err = report(&["table2".into(), "--replicates".into(), bad.into()])
                .expect_err("replicate count must be rejected");
            assert!(err.contains("--replicates"), "{bad}: {err}");
        }
    }

    #[test]
    fn serve_and_submit_round_trip_through_the_daemon() {
        let dir = std::env::temp_dir().join(format!("obfuscade-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let port_file = dir.join("daemon.addr").to_string_lossy().to_string();

        // `serve` blocks until a shutdown request drains it, so it runs on
        // its own thread; the port file is how we learn the ephemeral port.
        let serve_args: Vec<String> = [
            "--addr", "127.0.0.1:0", "--workers", "2", "--port-file", port_file.as_str(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let daemon = std::thread::spawn(move || serve(&serve_args));
        // `submit --port-file` polls for the daemon's address itself —
        // no external wait loop needed even though serve is still
        // booting on the other thread.
        let with_addr = |extra: &[&str]| -> Vec<String> {
            ["--port-file", port_file.as_str()].iter().chain(extra).map(|s| s.to_string()).collect()
        };
        submit(&with_addr(&["--kind", "ping"])).unwrap();
        submit(&with_addr(&["--kind", "run", "--seed", "2"])).unwrap();
        submit(&with_addr(&["--kind", "authenticate"])).unwrap();
        submit(&with_addr(&["--kind", "stats"])).unwrap();
        submit(&with_addr(&["--load", "6", "--concurrency", "2"])).unwrap();
        // PR 10: detection and sanitization, byte-verified against the
        // in-process am-detect run, on both wire codecs.
        submit(&with_addr(&[
            "--kind", "detect", "--faults", "toolpath.dup=0.5", "--jam", "1.5", "--verify",
        ]))
        .unwrap();
        submit(&with_addr(&[
            "--kind", "sanitize", "--payload-seed", "7", "--codec", "binary", "--verify",
        ]))
        .unwrap();
        // Client-side validation catches bad job specs before any I/O.
        assert!(submit(&with_addr(&["--part", "teapot"])).is_err());
        assert!(submit(&with_addr(&["--kind", "warp"])).is_err());
        submit(&with_addr(&["--kind", "shutdown"])).unwrap();
        daemon.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn detect_roc_sweeps_the_jamming_axis() {
        // Smallest real sweep: one quality, jamming off vs on, one
        // replicate — still covers the full 15-fault catalog.
        detect_roc(&[
            "--quality".into(),
            "smartphone".into(),
            "--jam".into(),
            "0,2.5".into(),
            "--replicates".into(),
            "1".into(),
            "--json".into(),
        ])
        .unwrap();
        // Bad axes fail client-side with typed messages.
        assert!(detect_roc(&["--quality".into(), "telepathy".into()]).is_err());
        assert!(detect_roc(&["--jam".into(), "loud".into()]).is_err());
        assert!(detect_roc(&["extra".into()]).is_err());
    }

    #[test]
    fn route_round_trips_jobs_through_backends() {
        let dir = std::env::temp_dir().join(format!("obfuscade-route-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let poll_addr = |path: &str| -> String {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            loop {
                if let Ok(addr) = std::fs::read_to_string(path) {
                    if !addr.trim().is_empty() {
                        return addr.trim().to_string();
                    }
                }
                assert!(std::time::Instant::now() < deadline, "no address in {path}");
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        };

        // Two backend daemons on ephemeral ports…
        let mut backend_files = Vec::new();
        let mut backend_threads = Vec::new();
        for i in 0..2 {
            let file = dir.join(format!("backend{i}.addr")).to_string_lossy().to_string();
            let args: Vec<String> = [
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--node",
                &format!("node{i}"),
                "--port-file",
                file.as_str(),
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            backend_threads.push(std::thread::spawn(move || serve(&args)));
            backend_files.push(file);
        }
        let to =
            backend_files.iter().map(|f| poll_addr(f)).collect::<Vec<_>>().join(",");

        // …behind one router.
        let router_file = dir.join("router.addr").to_string_lossy().to_string();
        let route_args: Vec<String> = [
            "--to",
            to.as_str(),
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            router_file.as_str(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let router_thread = std::thread::spawn(move || route(&route_args));

        let with_front = |extra: &[&str]| -> Vec<String> {
            ["--port-file", router_file.as_str()]
                .iter()
                .chain(extra)
                .map(|s| s.to_string())
                .collect()
        };
        // Jobs, a verdict, a byte-verified load, and the stats snapshot
        // all flow through the router tier.
        submit(&with_front(&["--kind", "run", "--seed", "3"])).unwrap();
        submit(&with_front(&["--kind", "authenticate"])).unwrap();
        submit(&with_front(&["--load", "6", "--concurrency", "2"])).unwrap();
        submit(&with_front(&["--kind", "stats"])).unwrap();
        submit(&with_front(&["--kind", "shutdown"])).unwrap();
        router_thread.join().unwrap().unwrap();
        for (file, thread) in backend_files.iter().zip(backend_threads) {
            let args: Vec<String> =
                ["--port-file", file.as_str(), "--kind", "shutdown"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
            submit(&args).unwrap();
            thread.join().unwrap().unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backend_endpoint_specs_parse() {
        assert!(matches!(
            backend_endpoint("127.0.0.1:7777"),
            Ok(am_service::Endpoint::Tcp(_))
        ));
        assert!(matches!(
            backend_endpoint("unix:/tmp/node.sock"),
            Ok(am_service::Endpoint::Unix(_))
        ));
        assert!(backend_endpoint("justahost").is_err());
        assert!(backend_endpoint("unix:").is_err());
        assert!(route(&["--to".into(), ",".into()]).is_err());
        assert!(route(&[]).is_err());
    }

    #[test]
    fn port_file_poll_times_out_with_a_clear_error() {
        let mut flags = HashMap::new();
        flags.insert("port-file".to_string(), "/nonexistent/daemon.addr".to_string());
        let err = submit_endpoint_within(&flags, std::time::Duration::from_millis(60)).unwrap_err();
        assert!(err.contains("--port-file /nonexistent/daemon.addr"), "{err}");
        assert!(err.contains("no daemon address appeared"), "{err}");
        // An explicit --uds bypasses the port file entirely.
        flags.insert("uds".to_string(), "/tmp/x.sock".to_string());
        assert!(matches!(
            submit_endpoint_within(&flags, std::time::Duration::from_millis(60)),
            Ok(am_service::Endpoint::Unix(_))
        ));
    }

    #[test]
    fn faults_command_lists_runs_and_rejects() {
        faults(&["--list".into()]).unwrap();
        // A catalog entry by name degrades the run but still completes.
        faults(&["stl-degenerate".into(), "--seed".into(), "3".into()]).unwrap();
        // A parsed multi-fault plan that misconfigures the slicer aborts
        // with a stage-named error.
        let err = faults(&["slicer.zero_layer".into()]).unwrap_err();
        assert!(err.contains("slice stage"), "{err}");
        // Garbage tokens are rejected by the parser.
        assert!(faults(&["stl.bogus=1".into()]).is_err());
    }
}
