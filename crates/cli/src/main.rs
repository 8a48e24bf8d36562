//! `obfuscade` — the command-line front end of the ObfusCADe toolchain.
//!
//! ```text
//! obfuscade protect --part bar --out protected.stl [--resolution fine] [--intact]
//! obfuscade inspect protected.stl
//! obfuscade slice protected.stl --orientation xz --out part.gcode
//! obfuscade print part.gcode [--machine fdm|polyjet] [--seed 1]
//! obfuscade authenticate part.gcode
//! obfuscade faults --list
//! obfuscade faults "stl.degenerate=3 firmware.feed=50" --part prism
//! obfuscade audit
//! obfuscade report <experiment>|all
//! obfuscade sweep [--threads N] [--seed N] [--cache-stats]
//! obfuscade serve [--addr 127.0.0.1:7777] [--uds PATH] [--workers N] [--port-file FILE]
//!                 [--allow-remote-shutdown] [--node NAME]
//! obfuscade route --to EP1,EP2,EP3 [--addr 127.0.0.1:7878] [--policy affinity|round-robin]
//! obfuscade submit [--addr HOST:PORT] [--kind run|authenticate|stats|ping|shutdown]
//! obfuscade submit --load 200 --concurrency 8
//! obfuscade detect-roc [--quality lab,smartphone,room] [--jam 0,2.5] [--replicates N]
//! ```

use std::process::ExitCode;

mod commands;
mod experiments;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => {
            eprint!("{}", commands::USAGE);
            return ExitCode::FAILURE;
        }
    };
    let result = match command {
        "protect" => commands::protect(rest),
        "inspect" => commands::inspect(rest),
        "slice" => commands::slice(rest),
        "print" => commands::print(rest),
        "preview" => commands::preview(rest),
        "authenticate" => commands::authenticate(rest),
        "faults" => commands::faults(rest),
        "audit" => commands::audit(rest),
        "report" => commands::report(rest),
        "sweep" => commands::sweep(rest),
        "serve" => commands::serve(rest),
        "route" => commands::route(rest),
        "submit" => commands::submit(rest),
        "detect-roc" => commands::detect_roc(rest),
        "help" | "--help" | "-h" => {
            print!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n\n{}", commands::USAGE)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
