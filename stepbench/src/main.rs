//! End-to-end and per-layer benchmark of supervised DAPPLE training.
//!
//! ```text
//! cargo run --release --manifest-path stepbench/Cargo.toml -- \
//!     --workload pipeline_1f1b --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics from an uninstrumented run;
//! `--trace 1` measures the per-layer metrics from a traced run that
//! times each public call a training step is made of, and writes those
//! calls as a Chrome trace under `stepbench/out/`. `--workload all` runs
//! every workload both ways. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. Any
//! failed output check exits non-zero.

mod alloc;
mod run;
mod stats;
mod workload;

use run::Stop;
use stats::{mean, median, tail_percentile};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Share of `--seconds` the traced run gets; an untraced replay of the
/// same operations takes most of the rest.
const TRACED_SHARE: f64 = 0.6;

/// A metric as printed: name, value, unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// One run's result.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Failed output checks.
    errors: Vec<String>,
    /// Informational lines for the header.
    notes: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: stepbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                workload::all()
                    .iter()
                    .map(|w| w.name)
                    .collect::<Vec<_>>()
                    .join("|")
            );
            return ExitCode::from(2);
        }
    };
    let runs: Vec<(Workload, bool)> = if args.workload == "all" {
        workload::all()
            .into_iter()
            .flat_map(|w| [(w.clone(), false), (w, true)])
            .collect()
    } else {
        match workload::by_name(&args.workload) {
            Some(w) => vec![(w, args.trace)],
            None => {
                eprintln!("error: unknown workload {}", args.workload);
                return ExitCode::from(2);
            }
        }
    };
    println!("{}", provenance(&args));
    let seconds = Duration::from_secs(args.seconds);
    let mut total = Report::default();
    for (w, trace) in &runs {
        let mut r = Report::default();
        if let Err(e) = if *trace {
            traced_run(w, args.seed, seconds, &mut r)
        } else {
            untraced_run(w, args.seed, seconds, &mut r)
        } {
            r.errors.push(e);
        }
        print_table(w.name, *trace, &r);
        total.attempted += r.attempted;
        total.failed += r.failed;
        total.errors.append(&mut r.errors);
        let prefix = if runs.len() > 1 {
            format!("{}.", w.name)
        } else {
            String::new()
        };
        for m in r.metrics {
            total.put(&format!("{prefix}{}", m.name), m.value, m.unit);
        }
    }
    for e in &total.errors {
        eprintln!("check failed: {e}");
    }
    if total.attempted == 0 {
        total.errors.push("no operation was attempted".into());
    }
    for m in &total.metrics {
        if !m.value.is_finite() {
            total.errors.push(format!("{} is not finite", m.name));
        }
    }
    println!("{}", result_json(&total));
    if total.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end metrics, from an uninstrumented run.
fn untraced_run(w: &Workload, seed: u64, seconds: Duration, r: &mut Report) -> Result<(), String> {
    let mut setup_ns = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // The previous set-up is dropped before the next one is timed.
        drop(last.take());
        let s = workload::setup(w, seed)?;
        setup_ns.push(s.setup_ns as f64);
        last = Some(s);
    }
    let mut s = last.expect("at least one set-up");
    r.notes.push(format!(
        "planned {:?}: {} (split {}), m={}",
        w.paper,
        s.planned.plan.notation(),
        s.planned.plan.split_notation(),
        s.planned.micro_batches
    ));
    if let Err(e) = run::check_reference_grads(w, seed) {
        r.errors.push(e);
    }

    let u = run::untraced(w, seed, &mut s.sup, Stop::After(seconds));
    drop(s);
    check_run(r, &u.ops, u.injected, u.retries, &u.errors);
    let clean: Vec<f64> = clean_walls_ms(&u.ops);
    let p90 = tail_percentile(&clean, 0.9);
    r.check(p90.is_some(), || {
        format!(
            "{} fault-free steps leave fewer than {} beyond p90; raise --seconds",
            clean.len(),
            stats::MIN_TAIL
        )
    });
    let wall_s = u.wall_ns as f64 / 1e9;
    r.put("samples_per_s", median(&u.round_rates), "samples/s");
    r.put("step_ms_p50", median(&clean), "ms");
    r.put("step_ms_p90", p90.unwrap_or(0.0), "ms");
    r.put("setup_s", median(&setup_ns) / 1e9, "s");
    r.put(
        "peak_heap_mb",
        peak_heap_bytes(w, seed)? / (1024.0 * 1024.0),
        "MiB",
    );
    let rounds = &u.round_rates;
    r.notes.push(format!(
        "whole-window rate {:.1} samples/s; {} rounds from {:.1} to {:.1} samples/s",
        (u.committed_steps * w.batch as u64) as f64 / wall_s,
        rounds.len(),
        rounds.iter().copied().fold(f64::INFINITY, f64::min),
        rounds.iter().copied().fold(0.0, f64::max)
    ));
    r.notes.push(format!(
        "{} operations ({} fault-free, {} faulted), {} restores, {} steps committed in {wall_s:.3} s",
        u.ops.len(),
        clean.len(),
        u.ops.len() - clean.len(),
        u.restores,
        u.committed_steps
    ));
    Ok(())
}

/// Peak live heap over a fixed run of supervised operations that covers
/// one restore period, counted from before the model is built. Runs
/// after the timed window: counting is never on while timing.
fn peak_heap_bytes(w: &Workload, seed: u64) -> Result<f64, String> {
    alloc::start();
    let measured = (|| {
        let (mut sup, _) = workload::warmed_up(w, seed, false)?;
        alloc::reset_peak();
        let ops = w.restore_every.map_or(8, |r| r + 1);
        let u = run::untraced(w, seed, &mut sup, Stop::Ops(ops));
        if let Some(e) = u.errors.first() {
            return Err(format!("memory probe: {e}"));
        }
        Ok(alloc::peak_bytes() as f64)
    })();
    alloc::stop();
    measured
}

/// The per-layer metrics, from a traced run and an untraced replay of
/// the same operations.
fn traced_run(w: &Workload, seed: u64, seconds: Duration, r: &mut Report) -> Result<(), String> {
    // Planning: timed with counting off, then counted.
    let t = Instant::now();
    w.plan_paper()?;
    let plan_ms = t.elapsed().as_secs_f64() * 1e3;
    alloc::start();
    let planned = w.plan_paper();
    let plan_allocs = alloc::Counts::now().allocs;
    alloc::stop();
    planned?;
    r.put("planner.plan_ms", plan_ms, "ms");
    r.put("planner.allocs", plan_allocs as f64, "count");
    if let Err(e) = run::check_reference_grads(w, seed) {
        r.errors.push(e);
    }

    alloc::start();
    let traced = (|| {
        let (mut sup, warmup) = workload::warmed_up(w, seed, true)?;
        run::traced(
            w,
            seed,
            &mut sup,
            &warmup,
            Stop::After(seconds.mul_f64(TRACED_SHARE)),
        )
    })();
    alloc::stop();
    let t = traced?;
    check_run(r, &t.ops, t.injected, t.retries, &t.errors);

    // The same operations again, untraced: same final loss bits, and the
    // baseline for the tracing overhead.
    let (mut sup, _) = workload::warmed_up(w, seed, false)?;
    let u = run::untraced(w, seed, &mut sup, Stop::Ops(t.ops.len() as u64));
    drop(sup);
    check_run(r, &u.ops, u.injected, u.retries, &u.errors);
    let same = t.ops.len() == u.ops.len()
        && t.ops
            .iter()
            .zip(&u.ops)
            .all(|(a, b)| a.loss.to_bits() == b.loss.to_bits());
    r.check(same, || {
        format!(
            "traced and untraced runs disagree: final losses {:?} vs {:?}",
            t.ops.last().map(|o| o.loss),
            u.ops.last().map(|o| o.loss)
        )
    });

    let c = &t.clean;
    let ms = |v: &[f64]| mean(v) / 1e6;
    let sup_ms = ms(&c.sup_ns);
    let twin_ms = ms(&c.twin_ns);
    let batch_ms = ms(&c.batch_ns);
    let call_ms = ms(&c.call_ns);
    let optim_ms = ms(&c.optim_ns);
    let compute_ms = ms(&c.compute_ns);
    r.put("step.supervised_ms", sup_ms, "ms");
    r.put("data.batch_ms", batch_ms, "ms");
    r.put("pipeline.call_ms", call_ms, "ms");
    r.put("optim.step_ms", optim_ms, "ms");
    // The twin's three calls tile its step, so the supervised step is
    // exactly their sum plus this residual: what the supervisor adds
    // (snapshot, checkpoints, retries), negative within noise.
    r.put("recovery.supervisor_ms", sup_ms - twin_ms, "ms");
    r.put("pipeline.makespan_ms", ms(&c.makespan_ns), "ms");
    r.put("pipeline.coord_ms", call_ms - ms(&c.makespan_ns), "ms");
    r.put("pipeline.compute_ms", compute_ms, "ms");
    r.put("pipeline.wait_ms", ms(&c.wait_ns), "ms");
    r.put("pipeline.send_ms", ms(&c.send_ns), "ms");
    r.put("pipeline.bubble_ratio", mean(&c.bubble), "ratio");
    r.put(
        "pipeline.stage_busy_frac.0",
        mean(&c.stage_busy[0]),
        "ratio",
    );
    r.put(
        "pipeline.stage_busy_frac.1",
        mean(&c.stage_busy[1]),
        "ratio",
    );
    r.put("pipeline.pool_hits", median(&c.pool_hits), "count");
    r.put("pipeline.pool_misses", median(&c.pool_misses), "count");
    r.put(
        "tensor.gflops",
        if compute_ms > 0.0 {
            w.step_flops() / (compute_ms * 1e6)
        } else {
            0.0
        },
        "GFLOP/s",
    );
    r.put("collectives.allreduce_ms", ms(&c.allreduce_ns), "ms");
    r.put(
        "collectives.allreduce_bytes",
        median(&c.allreduce_bytes),
        "bytes",
    );
    r.put(
        "collectives.allreduce_calls",
        median(&c.allreduce_calls),
        "count",
    );
    r.put("recovery.rollback_ms", ms(&t.rollback_ns), "ms");
    r.put("recovery.failed_attempt_ms", ms(&t.failed_attempt_ns), "ms");
    r.put("recovery.restore_ms", ms(&t.restore_ns), "ms");
    r.put("recovery.retries", t.retries as f64, "count");
    r.put("recovery.rollbacks", t.rollback_ns.len() as f64, "count");
    let faulted: Vec<f64> = u
        .ops
        .iter()
        .filter(|o| o.faulted)
        .map(|o| o.wall_ns as f64 / 1e6)
        .collect();
    r.put("recovery.faulted_step_ms_p50", median(&faulted), "ms");
    r.put("checkpoint.full_save_ms", ms(&t.full_saves.ns), "ms");
    r.put("checkpoint.delta_save_ms", ms(&t.delta_saves.ns), "ms");
    r.put("checkpoint.bytes_full", mean(&t.full_saves.bytes), "bytes");
    r.put(
        "checkpoint.bytes_delta",
        mean(&t.delta_saves.bytes),
        "bytes",
    );
    r.put(
        "checkpoint.saves",
        (t.full_saves.ns.len() + t.delta_saves.ns.len()) as f64,
        "count",
    );
    r.put("alloc.per_step", median(&c.allocs), "count");
    r.put("alloc.bytes_per_step", median(&c.alloc_bytes), "bytes");
    r.put(
        "trace.overhead_ms",
        median(&c.sup_ns) / 1e6 - median(&clean_walls_ms(&u.ops)),
        "ms",
    );

    let path = write_chrome_trace(w.name, seed, &t.chrome_json)?;
    r.notes.push(format!(
        "{} traced operations ({} fault-free); chrome trace: {path}",
        t.ops.len(),
        c.sup_ns.len()
    ));
    r.notes.push(format!(
        "supervised step {sup_ms:.3} ms = data {batch_ms:.3} + pipeline {call_ms:.3} + optim \
         {optim_ms:.3} + supervisor residual {:.3}",
        sup_ms - twin_ms
    ));
    Ok(())
}

/// Operation counts and the output checks every run makes: no failed
/// operation, finite losses, one retry per injected fault.
fn check_run(r: &mut Report, ops: &[run::Op], injected: u64, retries: u64, errors: &[String]) {
    r.attempted += ops.len() as u64;
    let failed = ops.iter().filter(|o| o.loss.is_nan()).count() as u64;
    r.failed += failed;
    r.errors.extend(errors.iter().cloned());
    r.check(ops.iter().all(|o| o.loss.is_finite()), || {
        "a supervised step returned a non-finite loss".into()
    });
    r.check(retries == injected, || {
        format!("{retries} retries for {injected} injected faults")
    });
}

/// Wall times of the fault-free operations, ms.
fn clean_walls_ms(ops: &[run::Op]) -> Vec<f64> {
    ops.iter()
        .filter(|o| !o.faulted)
        .map(|o| o.wall_ns as f64 / 1e6)
        .collect()
}

/// Writes the traced run's spans under `stepbench/out/`.
fn write_chrome_trace(workload: &str, seed: u64, json: &str) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-seed{seed}.trace.json"));
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// The output header: what ran, where.
fn provenance(args: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let rayon = std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into());
    format!(
        "# stepbench workload={} seed={} seconds={} trace={} cores={cores} \
         RAYON_NUM_THREADS={rayon} cpu=\"{}\" commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cpu_model(),
        commit()
    )
}

/// The CPU brand string, from `cpuid`.
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // `cpuid` exists on every x86-64 CPU.
        #[allow(unused_unsafe)]
        // SAFETY: the instruction is always available on x86-64, and
        // leaves 0x8000_0002..=0x8000_0004 are only read once leaf
        // 0x8000_0000 reports them.
        let brand = unsafe {
            if __cpuid(0x8000_0000).eax < 0x8000_0004 {
                return "unknown".into();
            }
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&reg.to_le_bytes());
                }
            }
            bytes
        };
        String::from_utf8_lossy(&brand)
            .trim_matches(|c: char| c == '\0' || c.is_whitespace())
            .replace('"', "'")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "unknown".into()
    }
}

/// The commit the benchmark was built from, when the source tree is a
/// git checkout; `unknown` otherwise.
fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn print_table(workload: &str, trace: bool, r: &Report) {
    println!(
        "## {workload} ({} run): {} operations, {} failed",
        if trace { "traced" } else { "untraced" },
        r.attempted,
        r.failed
    );
    for n in &r.notes {
        println!("#   {n}");
    }
    for m in &r.metrics {
        println!("  {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// The final line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.errors.is_empty(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}
