//! perfbench: a checked, fixed-work benchmark of the Bento xv6 stack.
//!
//! ```text
//! perfbench --workload <varmail|fileserver|webserver-upgrade> --seed <n>
//!           --seconds <s> --trace <0|1> [--stack <bento|ckernel|ext4>]
//! perfbench selfcheck [--seed <n>]
//! ```
//!
//! A run repeats rounds of the workload's fixed, seeded op mix until
//! `--seconds` have passed (at least three rounds), checks every round,
//! prints a readable report on stderr and, as the last line of stdout, one
//! JSON object: `correct`, `attempted`, `failed` and the metrics (the
//! end-to-end ones untraced, the per-layer ones with `--trace 1`).
//! `selfcheck` shows the timing wrappers are transparent and that the
//! checks catch a flipped byte and a dropped file.

mod client;
mod config;
mod layers;
mod model;
mod report;
mod round;
mod workloads;

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use config::{Workload, MIN_ROUNDS};
use layers::Span;
use report::{Metric, RunTotals};
use round::{RoundConfig, Sabotage, Stack};

/// No round starts once a run has used this much time, so every run ends
/// well within three minutes.
const ROUND_START_LIMIT_S: f64 = 120.0;

/// Where the traced run writes its last round's spans.
const SPANS_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    stack: Stack,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut stack = Stack::Bento;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?,
            "--trace" => traced = value == "1",
            "--stack" => {
                stack = Stack::parse(value).ok_or_else(|| format!("unknown stack {value}"))?;
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, traced, stack })
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    eprintln!("-- {title}");
    for m in metrics {
        eprintln!("  {:<40} {:>14.3} {}", m.name, m.value, m.unit);
    }
}

fn write_spans(workload: Workload, spans: &[Span]) -> std::io::Result<()> {
    std::fs::create_dir_all(SPANS_DIR)?;
    let path = format!("{SPANS_DIR}/spans-{}.tsv", workload.name());
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "layer\tcall\top\tstart_ns\tend_ns\tself_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.layer.label(),
            s.name,
            s.op,
            s.start_ns,
            s.end_ns(),
            s.self_ns()
        )?;
    }
    out.flush()
}

fn run(args: &Args) -> Result<(), String> {
    let cfg = RoundConfig {
        workload: args.workload,
        seed: args.seed,
        stack: args.stack,
        traced: args.traced,
        single_thread: false,
        sabotage: Sabotage::None,
    };
    let started = Instant::now();
    let mut ram = round::ram_disk(args.workload);
    let mut totals = RunTotals::new(report::rss_mib());
    let mut last_spans;
    loop {
        if !args.stack.reuses_device() {
            ram = round::ram_disk(args.workload);
        }
        let round =
            round::run_round(&cfg, &ram).map_err(|e| format!("round set-up failed: {e}"))?;
        last_spans = totals.add(round);
        let elapsed = started.elapsed().as_secs_f64();
        if totals.rounds >= MIN_ROUNDS && elapsed >= args.seconds {
            break;
        }
        if elapsed >= ROUND_START_LIMIT_S {
            break;
        }
    }
    if args.traced {
        write_spans(args.workload, &last_spans).map_err(|e| format!("writing spans: {e}"))?;
    }
    let correct = totals.problems.is_empty() && totals.stats.failed == 0;
    let metrics = if args.traced { totals.per_layer() } else { totals.end_to_end() };
    eprintln!(
        "perfbench {} on {:?}, seed {}, {} rounds in {:.1} s",
        args.workload.name(),
        args.stack,
        args.seed,
        totals.rounds,
        started.elapsed().as_secs_f64()
    );
    print_metrics(if args.traced { "per-layer (traced)" } else { "end-to-end" }, &metrics);
    print_metrics("not gated", &totals.ungated());
    eprintln!(
        "-- checks: {} ({} ops attempted, {} failed)",
        if correct { "all passed" } else { "FAILED" },
        totals.stats.attempted,
        totals.stats.failed
    );
    for problem in totals.problems.iter().take(20) {
        eprintln!("  {problem}");
    }
    println!(
        "{}",
        report::result_json(correct, totals.stats.attempted, totals.stats.failed, &metrics)
    );
    Ok(())
}

/// Shows the wrappers are transparent and the checks have teeth.  Returns
/// whether every check behaved as intended.
fn selfcheck(seed: u64) -> Result<bool, String> {
    let mut ok = true;
    for workload in [Workload::Varmail, Workload::Fileserver, Workload::WebserverUpgrade] {
        let cfg = |traced| RoundConfig {
            workload,
            seed,
            stack: Stack::Bento,
            traced,
            single_thread: true,
            sabotage: Sabotage::None,
        };
        let fresh = || round::ram_disk(workload);
        let plain = round::run_round(&cfg(false), &fresh()).map_err(|e| e.to_string())?;
        let wrapped = round::run_round(&cfg(true), &fresh()).map_err(|e| e.to_string())?;
        let same = plain.device_total == wrapped.device_total
            && plain.tree_listing == wrapped.tree_listing
            && plain.stats.attempted == wrapped.stats.attempted;
        let clean = plain.problems.is_empty() && wrapped.problems.is_empty();
        eprintln!(
            "transparency {:<18} unwrapped {:?} / wrapped {:?}, {} tree entries: {}",
            workload.name(),
            plain.device_total,
            wrapped.device_total,
            plain.tree_listing.len(),
            if same && clean { "same, verified" } else { "DIFFERENT OR UNVERIFIED" }
        );
        for problem in plain.problems.iter().chain(&wrapped.problems) {
            eprintln!("  {problem}");
        }
        ok &= same && clean;
    }
    for sabotage in [Sabotage::FlipByte, Sabotage::DropFile] {
        let cfg = RoundConfig {
            workload: Workload::Varmail,
            seed,
            stack: Stack::Bento,
            traced: false,
            single_thread: true,
            sabotage,
        };
        let ram = round::ram_disk(cfg.workload);
        let round = round::run_round(&cfg, &ram).map_err(|e| e.to_string())?;
        let caught = !round.problems.is_empty();
        eprintln!(
            "negative control {sabotage:?}: {}",
            if caught { "caught" } else { "NOT CAUGHT" }
        );
        for problem in &round.problems {
            eprintln!("  {problem}");
        }
        ok &= caught;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("selfcheck") {
        let seed = match args.get(1..) {
            Some([flag, value]) if flag == "--seed" => value.parse().unwrap_or(1),
            _ => 1,
        };
        selfcheck(seed).inspect(|&ok| {
            eprintln!("selfcheck: {}", if ok { "passed" } else { "FAILED" });
        })
    } else {
        parse_args(&args).and_then(|a| run(&a)).map(|()| true)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
