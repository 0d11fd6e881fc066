//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs passes of one workload for up to `--seconds`, checks every output, and
//! prints one JSON object as its last line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.  A traced run first
//! repeats the workload untraced for half its time, so the difference gives
//! the tracing overhead.

use std::io::Write;
use std::process::ExitCode;

use perfbench::metrics::{end_to_end, per_layer, Layers, Metric, EXACT_COUNTS};
use perfbench::probe::{now_ns, Span};
use perfbench::{peak_rss_mb, pool, Pass, Size, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Passes of one kind.  A traced pass's spans are folded into its
/// [`Layers`] as soon as it ends; only the last pass keeps them.
#[derive(Default)]
struct Run {
    passes: Vec<Pass>,
    layers: Vec<Layers>,
    last_spans: Vec<Span>,
}

/// Run at least two passes, and as many more as fit in `seconds` judging by
/// the length of the last one.
fn passes(args: &Args, pool: &rayon::ThreadPool, seconds: f64, traced: bool) -> Run {
    let deadline = now_ns() + (seconds * 1e9) as u64;
    let mut last_ns = 0;
    let mut run = Run::default();
    while run.passes.len() < 2 || now_ns() + last_ns <= deadline {
        let began = now_ns();
        let mut pass = args.workload.pass(pool, Size::Full, args.seed, traced);
        eprintln!(
            "perfbench: {} seed {} {} pass {}: setup {:.4} s, wall {:.4} s, {} ops (p50 {:.2} us), {}/{} failed, digest {:016x}",
            args.workload.name(),
            args.seed,
            if traced { "traced" } else { "untraced" },
            run.passes.len(),
            pass.setup_s,
            pass.wall_s,
            pass.ops.count,
            pass.ops.p50_ns * 1e-3,
            pass.failed,
            pass.attempted,
            pass.digest
        );
        last_ns = now_ns() - began;
        if traced {
            run.layers.push(Layers::of(&pass));
            run.last_spans = std::mem::take(&mut pass.spans);
        }
        run.passes.push(pass);
    }
    run
}

/// Write the last traced pass's spans next to the executable, one per line:
/// op, span index, parent index (-1 for a root), name, start ns, end ns, bytes.
fn write_spans(args: &Args, spans: &[Span]) -> std::io::Result<std::path::PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .unwrap_or(std::path::Path::new("."))
        .join("perfbench-spans");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.tsv", args.workload.name(), args.seed));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "op\tspan\tparent\tname\tstart_ns\tend_ns\tbytes")?;
    let mut index = 0u32;
    for (i, span) in spans.iter().enumerate() {
        index = if i > 0 && spans[i - 1].op == span.op {
            index + 1
        } else {
            0
        };
        let parent = span.parent.map_or(-1, i64::from);
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            span.op, index, parent, span.name, span.start_ns, span.end_ns, span.bytes
        )?;
    }
    out.flush()?;
    Ok(path)
}

fn json_line(correct: bool, passes: &[&Pass], metrics: &[Metric]) -> String {
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            eprintln!(
                "usage: perfbench --workload <train-fig3|serve-fleet|ckpt-recover> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut problems = Vec::new();
    let workers = pool(args.workload.threads());
    let (untraced, traced) = if args.trace {
        let half = args.seconds / 2.0;
        (
            passes(&args, &workers, half, false),
            passes(&args, &workers, half, true),
        )
    } else {
        (passes(&args, &workers, args.seconds, false), Run::default())
    };
    let all: Vec<&Pass> = untraced.passes.iter().chain(&traced.passes).collect();
    let digest = all[0].digest;
    if all.iter().any(|p| p.digest != digest) {
        problems.push("simulated digests differ between passes".to_string());
    }
    let metrics = if args.trace {
        for key in EXACT_COUNTS {
            let first = traced.layers[0].counts.get(key);
            if traced.layers.iter().any(|l| l.counts.get(key) != first) {
                problems.push(format!("count {key} differs between traced passes"));
            }
        }
        match write_spans(&args, &traced.last_spans) {
            Ok(path) => println!("spans: {}", path.display()),
            Err(err) => problems.push(format!("writing spans: {err}")),
        }
        per_layer(&untraced.passes, &traced.passes, &traced.layers)
    } else {
        end_to_end(&untraced.passes, peak_rss_mb())
    };
    let failed: u64 = all.iter().map(|p| p.failed).sum();
    if failed > 0 {
        problems.push(format!("{failed} ops or checks failed"));
    }
    for problem in &problems {
        eprintln!("perfbench: {problem}");
    }
    println!(
        "workload {} seed {}: {} passes, {} ops per pass, {} threads, simulated digest {digest:016x}",
        args.workload.name(),
        args.seed,
        all.len(),
        all[0].ops.count,
        all[0].threads
    );
    for m in &metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", json_line(problems.is_empty(), &all, &metrics));
    ExitCode::SUCCESS
}
