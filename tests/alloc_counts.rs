//! Allocation accounting for the per-iteration hot paths.
//!
//! The ring AllReduce is measured with a counting global allocator: its
//! allocation count must be bounded by the rank count (one circulating
//! scratch buffer per rank plus fixed wiring), not by the number of ring
//! messages — the seed implementation `to_vec`'d every chunk of every
//! step, costing `2 n (n-1)` extra allocations per call.
//!
//! The pipeline engine is measured through its own allocation-counter
//! hook (`StepOutcome::pool_misses`): with buffer reuse on, boundary
//! messages, the per-layer forward chain, and the backward input
//! gradients all circulate through per-trainer free lists, so fresh
//! allocations happen only during pipeline warmup and their count is
//! independent of the number of micro-batches. A supervised
//! `TrainLoop` step allocates nothing that scales with the model: its
//! byte count is the same at two hidden widths.
//!
//! The counters are process-global, so this suite runs without the
//! libtest harness (`harness = false` in Cargo.toml): `main` runs the
//! tests one after another on a single thread, and nothing but the
//! measured code allocates while a measurement is open. It reports in
//! libtest's formats (pretty, `-q`/terse, `--format json`) and accepts
//! the usual name filters, `--exact`, `--skip` and `--list`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts every heap allocation made by this test binary.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed by one `allreduce_sum` call on `n` ranks of
/// `len` elements each (buffer construction excluded).
fn ring_allocs(n: usize, len: usize) -> usize {
    let mut bufs: Vec<Vec<f32>> = (0..n)
        .map(|r| (0..len).map(|i| (r * 31 + i) as f32 * 0.25).collect())
        .collect();
    let expect: Vec<f32> = (0..len)
        .map(|i| (0..n).map(|r| (r * 31 + i) as f32 * 0.25).sum())
        .collect();
    let before = ALLOCS.load(Ordering::Relaxed);
    dapple::collectives::allreduce_sum(&mut bufs);
    let used = ALLOCS.load(Ordering::Relaxed) - before;
    // The measurement is only meaningful for a correct reduction.
    for b in &bufs {
        for (got, want) in b.iter().zip(&expect) {
            assert!((got - want).abs() <= 1e-3 * want.abs().max(1.0));
        }
    }
    used
}

/// The ring's allocation count is bounded by the rank count — one
/// scratch buffer per rank plus fixed per-thread/per-channel wiring —
/// and in particular far below the seed's per-message `to_vec` cost of
/// `2 n (n-1)` extra allocations.
fn ring_allreduce_allocations_bounded_by_ranks() {
    let n = 16;
    // Warm up lazy allocator state (thread-local caches etc.).
    let _ = ring_allocs(n, 64);
    let used = ring_allocs(n, 4096);
    // Per rank: 1 scratch + thread spawn + channel wiring + the cloned
    // bounds table. ~10/rank observed; 20/rank plus slack is generous
    // headroom yet far below the 2*16*15 = 480 per-message allocations
    // the seed code added on top.
    assert!(used < n * 20 + 60, "ring allreduce made {used} allocations");
}

/// The allocation count must not scale with the payload length: the
/// scratch buffer is preallocated at max-chunk capacity and never grows.
fn ring_allreduce_allocations_independent_of_length() {
    let n = 8;
    let _ = ring_allocs(n, 64);
    let small = ring_allocs(n, 1024);
    let big = ring_allocs(n, 65536);
    let diff = small.abs_diff(big);
    assert!(
        diff <= n,
        "allocations scale with length: {small} vs {big} (diff {diff})"
    );
}

/// Runs one pipelined step and returns its outcome (with pool counters).
fn engine_step(micro_batches: usize, buffer_reuse: bool) -> dapple::engine::StepOutcome {
    use dapple::engine::{data, EngineConfig, FaultPlan, MlpModel, PipelineTrainer};
    let dims = [5usize, 12, 10, 8, 8, 4, 3];
    let mut cfg = EngineConfig::straight(vec![0..2, 2..4, 4..6], micro_batches, 0.1);
    cfg.buffer_reuse = buffer_reuse;
    let trainer = PipelineTrainer::new(MlpModel::new(&dims, 77), cfg).unwrap();
    let (x, t) = data::regression_batch(24, 5, 3, 9);
    trainer
        .step_grads_with_faults(&x, &t, &FaultPlan::new())
        .unwrap()
}

/// Steady-state 1F1B boundary sends allocate nothing: pool misses are a
/// warmup-only cost, so tripling the micro-batch count leaves the miss
/// count unchanged while the hit count grows with the extra traffic.
fn steady_state_pipeline_pool_misses_are_warmup_only() {
    let few = engine_step(4, true);
    let many = engine_step(12, true);
    assert!(few.pool_hits > 0, "reuse path must actually reuse buffers");
    assert!(
        many.pool_hits > few.pool_hits,
        "hits must grow with traffic: {} vs {}",
        many.pool_hits,
        few.pool_hits
    );
    assert_eq!(
        few.pool_misses, many.pool_misses,
        "steady-state micro-batches must not allocate: {} misses at m=4, {} at m=12",
        few.pool_misses, many.pool_misses
    );
}

/// With reuse off the engine reproduces the seed allocation-per-message
/// semantics: the free lists stay cold and every take is a miss.
fn disabled_pool_never_hits() {
    let out = engine_step(4, false);
    assert_eq!(out.pool_hits, 0);
    assert!(out.pool_misses > 0);
}

/// One single-stage pipelined step on a warmed trainer; returns the
/// minimum allocation count over several steps (blocking receives
/// allocate wakeup tokens nondeterministically; the minimum approaches
/// the deterministic floor).
#[allow(clippy::single_range_in_vec_init)] // a one-stage split really is vec![0..6]
fn single_stage_step_allocs(micro_batches: usize) -> usize {
    use dapple::engine::{data, EngineConfig, FaultPlan, MlpModel, PipelineTrainer};
    let dims = [5usize, 12, 10, 8, 8, 4, 3];
    let cfg = EngineConfig::straight(vec![0..6], micro_batches, 0.1);
    let trainer = PipelineTrainer::new(MlpModel::new(&dims, 77), cfg).unwrap();
    let (x, t) = data::regression_batch(24, 5, 3, 9);
    let plan = FaultPlan::new();
    trainer.step_grads_with_faults(&x, &t, &plan).unwrap();
    (0..5)
        .map(|_| {
            let before = ALLOCS.load(Ordering::Relaxed);
            trainer.step_grads_with_faults(&x, &t, &plan).unwrap();
            ALLOCS.load(Ordering::Relaxed) - before
        })
        .min()
        .unwrap()
}

/// The whole per-micro-batch compute path — forward chain, loss target
/// slice and gradient, and in particular the per-layer `dW`/`db`
/// parameter gradients — allocates nothing in steady state: tripling the
/// micro-batch count must not change a warmed single-stage step's
/// allocation count at all. Before `backward_grads_into`, every extra
/// micro-batch cost two fresh gradient tensors per layer (the `dW` hole
/// the TensorPool never covered), which here would show up as ≥100
/// extra allocations.
fn steady_state_micro_batch_allocations_are_zero() {
    let few = single_stage_step_allocs(4);
    let many = single_stage_step_allocs(12);
    assert!(
        few.abs_diff(many) <= 4,
        "per-micro-batch work allocates: {few} allocs at m=4, {many} at m=12"
    );
}

/// Recording a span is a slot write into a pre-allocated ring: exactly
/// zero heap allocations, even at overflow. This is the invariant that
/// lets workers trace the hot path without breaking the alloc-free
/// steady state — and with tracing off the engine skips even this.
fn span_recording_allocates_nothing() {
    use dapple::engine::{SpanKind, SpanRing, SpanWriter};
    use std::sync::Arc;
    use std::time::Instant;

    let ring = Arc::new(SpanRing::new(64));
    let writer = SpanWriter::new(Arc::clone(&ring), Instant::now());
    let before = ALLOCS.load(Ordering::Relaxed);
    // 50 in-capacity records, then 150 overflowing ones.
    for i in 0..200u32 {
        let t0 = writer.now_ns();
        writer.record(SpanKind::Fw, i, 0, t0, writer.now_ns());
    }
    let used = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(used, 0, "span recording must not allocate");
    assert_eq!(ring.snapshot().len(), 64);
    assert_eq!(ring.dropped(), 200 - 64);
}

/// One pipelined step on a warmed trainer; returns its allocation count.
fn traced_step_allocs(micro_batches: usize, tracing: bool) -> usize {
    use dapple::engine::{data, EngineConfig, FaultPlan, MlpModel, PipelineTrainer};
    let dims = [5usize, 12, 10, 8, 8, 4, 3];
    let mut cfg = EngineConfig::straight(vec![0..2, 2..4, 4..6], micro_batches, 0.1);
    cfg.tracing = tracing;
    let trainer = PipelineTrainer::new(MlpModel::new(&dims, 77), cfg).unwrap();
    let (x, t) = data::regression_batch(24, 5, 3, 9);
    let plan = FaultPlan::new();
    trainer.step_grads_with_faults(&x, &t, &plan).unwrap();
    // Blocking receives allocate wakeup tokens nondeterministically; the
    // minimum over several steps approaches the deterministic floor.
    (0..5)
        .map(|_| {
            let before = ALLOCS.load(Ordering::Relaxed);
            trainer.step_grads_with_faults(&x, &t, &plan).unwrap();
            ALLOCS.load(Ordering::Relaxed) - before
        })
        .min()
        .unwrap()
}

/// Steady-state run telemetry is allocation-free: registry updates are
/// plain array writes and the JSONL line is rendered into one reused
/// buffer. Registration and the first few records may grow buffers to
/// working size; after that warmup, a thousand fully-populated records
/// (scalars + recovery costs + trace-derived schedule metrics) must not
/// touch the heap at all.
fn metrics_recording_allocates_nothing_at_steady_state() {
    use dapple::core::MetricsRegistry;
    use dapple::engine::{
        data, EngineConfig, FaultPlan, MlpModel, PipelineTrainer, RecoveryStepMetrics, RunRecorder,
    };

    // The registry alone: inc/set/observe are index writes.
    let mut reg = MetricsRegistry::new();
    let steps = reg.counter("steps");
    let bubble = reg.gauge("bubble_ratio");
    let step_ns = reg.histogram("step_ns");
    reg.inc(steps, 1);
    reg.set(bubble, 0.25);
    reg.observe(step_ns, 1_000_000);
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..1_000u64 {
        reg.inc(steps, 1);
        reg.set(bubble, i as f64 / 1000.0);
        reg.observe(step_ns, 1_000 + i * 977_131);
    }
    let used = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(used, 0, "registry updates allocated {used} times");

    // The full recorder path, including the trace-derived fields. A real
    // traced step supplies the StepMetrics (its derivation allocates;
    // that happens once, outside the measured region — the engine
    // re-derives per step only because tracing itself already allocates
    // its per-step snapshot).
    let dims = [5usize, 12, 10, 8, 8, 4, 3];
    let mut cfg = EngineConfig::straight(vec![0..2, 2..4, 4..6], 4, 0.1);
    cfg.tracing = true;
    let trainer = PipelineTrainer::new(MlpModel::new(&dims, 77), cfg).unwrap();
    let (x, t) = data::regression_batch(24, 5, 3, 9);
    let out = trainer
        .step_grads_with_faults(&x, &t, &FaultPlan::new())
        .unwrap();
    let metrics = out.trace.expect("tracing on").metrics();

    let mut rec = RunRecorder::new(Box::new(std::io::sink()));
    let recovery = RecoveryStepMetrics {
        retries: 1,
        rollback_ns: 12_345,
        checkpoint_save_ns: 6_789,
        ..Default::default()
    };
    // Warm up: line buffer and per-stage scratch reach working size.
    for step in 0..5u64 {
        rec.record_step(step, 0.5, 24, 1_000_000, 10, 2, &recovery, Some(&metrics));
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for step in 5..1_005u64 {
        rec.record_step(
            step,
            0.5 + step as f32,
            24,
            1_000_000 + step * 997,
            10,
            2,
            &recovery,
            Some(&metrics),
        );
    }
    let used = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(used, 0, "steady-state record_step allocated {used} times");
    assert_eq!(rec.records(), 1_005);
    assert_eq!(rec.write_errors(), 0);
}

/// Tracing's allocation overhead is a per-step constant — the rings and
/// the post-join snapshot — and does not grow with the micro-batch count,
/// because recording itself is allocation-free (see above). Tripling the
/// span traffic must not move the traced-minus-untraced delta by more
/// than scheduling noise.
fn tracing_alloc_overhead_independent_of_micro_batches() {
    let delta_few = traced_step_allocs(4, true) as i64 - traced_step_allocs(4, false) as i64;
    let delta_many = traced_step_allocs(12, true) as i64 - traced_step_allocs(12, false) as i64;
    // m=12 records ~100 more spans than m=4; if recording allocated even
    // once per span the deltas would diverge by that much.
    assert!(
        (delta_many - delta_few).abs() <= 40,
        "tracing alloc overhead scales with micro-batches: \
         {delta_few} extra allocs at m=4, {delta_many} at m=12"
    );
}

/// Bytes allocated by the cheapest of several warmed-up supervised
/// `TrainLoop` steps (Adam) on one stage with two replicas and hidden
/// width `width`.
#[allow(clippy::single_range_in_vec_init)] // one stage covering layers 0..3
fn train_loop_step_bytes(width: usize) -> usize {
    use dapple::engine::{DataStream, EngineConfig, FaultPlan, MlpModel, Optimizer, TrainLoop};
    let model = MlpModel::new(&[6, width, width, 4], 5);
    let optimizer = Optimizer::adam(0.01, &model);
    let mut cfg = EngineConfig::straight(vec![0..3], 2, 0.1);
    cfg.replication = vec![2];
    let mut lp = TrainLoop::new(model, cfg, optimizer, DataStream::new(3, 16, 6, 4)).unwrap();
    lp.run(3).unwrap();
    let plan = FaultPlan::new();
    (0..5)
        .map(|_| {
            let before = BYTES.load(Ordering::Relaxed);
            lp.try_step(&plan).unwrap();
            BYTES.load(Ordering::Relaxed) - before
        })
        .min()
        .unwrap()
}

/// A warmed-up supervised step allocates nothing proportional to the
/// parameter count: gradient accumulators and kernel scratch live in
/// trainer-owned slots, replicas are reduced into recycled output
/// gradients, Adam updates in place and no pre-step model copy is taken.
/// Doubling the hidden width (4x the hidden-layer parameters) must not
/// change the bytes allocated per step at all.
fn train_loop_step_bytes_independent_of_width() {
    let narrow = train_loop_step_bytes(32);
    let wide = train_loop_step_bytes(64);
    assert_eq!(
        narrow, wide,
        "per-step allocation scales with the model: {narrow} bytes at width 32, {wide} at 64"
    );
}

/// Every test of this suite, in run order.
const TESTS: &[(&str, fn())] = &[
    (
        "ring_allreduce_allocations_bounded_by_ranks",
        ring_allreduce_allocations_bounded_by_ranks,
    ),
    (
        "ring_allreduce_allocations_independent_of_length",
        ring_allreduce_allocations_independent_of_length,
    ),
    (
        "steady_state_pipeline_pool_misses_are_warmup_only",
        steady_state_pipeline_pool_misses_are_warmup_only,
    ),
    ("disabled_pool_never_hits", disabled_pool_never_hits),
    (
        "steady_state_micro_batch_allocations_are_zero",
        steady_state_micro_batch_allocations_are_zero,
    ),
    (
        "span_recording_allocates_nothing",
        span_recording_allocates_nothing,
    ),
    (
        "metrics_recording_allocates_nothing_at_steady_state",
        metrics_recording_allocates_nothing_at_steady_state,
    ),
    (
        "tracing_alloc_overhead_independent_of_micro_batches",
        tracing_alloc_overhead_independent_of_micro_batches,
    ),
    (
        "train_loop_step_bytes_independent_of_width",
        train_loop_step_bytes_independent_of_width,
    ),
];

/// How results are reported; libtest's `--format` (and `-q` for terse).
#[derive(Clone, Copy, PartialEq)]
enum Format {
    Pretty,
    Terse,
    Json,
}

/// Runs the selected tests sequentially and reports them in libtest's
/// format; exits non-zero when any fails.
fn main() -> std::process::ExitCode {
    let mut filters = Vec::new();
    let mut skips = Vec::new();
    let (mut exact, mut list, mut ignored_only) = (false, false, false);
    let mut format = Format::Pretty;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f.to_string(), Some(v.to_string())),
            _ => (arg.clone(), None),
        };
        let mut value = || inline.clone().or_else(|| args.next());
        match flag.as_str() {
            "--exact" => exact = true,
            "--list" => list = true,
            "-q" | "--quiet" => format = Format::Terse,
            "--ignored" => ignored_only = true,
            "--skip" => skips.extend(value()),
            "--format" => {
                format = match value().as_deref() {
                    Some("terse") => Format::Terse,
                    Some("json") => Format::Json,
                    _ => Format::Pretty,
                }
            }
            // Options taking a value this runner has no use for.
            "--test-threads" | "--color" | "--logfile" | "-Z" => {
                value();
            }
            a if a.starts_with('-') => {}
            a => filters.push(a.to_string()),
        }
    }
    let matches = |name: &str, pat: &str| {
        if exact {
            name == pat
        } else {
            name.contains(pat)
        }
    };
    let selected: Vec<&(&str, fn())> = TESTS
        .iter()
        .filter(|_| !ignored_only)
        .filter(|(name, _)| filters.is_empty() || filters.iter().any(|f| matches(name, f)))
        .filter(|(name, _)| !skips.iter().any(|s| matches(name, s)))
        .collect();
    if list {
        for (name, _) in &selected {
            println!("{name}: test");
        }
        if format == Format::Pretty {
            println!("\n{} tests, 0 benchmarks", selected.len());
        }
        return std::process::ExitCode::SUCCESS;
    }

    let start = std::time::Instant::now();
    match format {
        Format::Json => println!(
            r#"{{ "type": "suite", "event": "started", "test_count": {} }}"#,
            selected.len()
        ),
        _ => println!("\nrunning {} tests", selected.len()),
    }
    let mut failed = Vec::new();
    for (name, test) in &selected {
        if format == Format::Json {
            println!(r#"{{ "type": "test", "event": "started", "name": "{name}" }}"#);
        }
        let ok = std::panic::catch_unwind(*test).is_ok();
        match format {
            Format::Pretty => println!("test {name} ... {}", if ok { "ok" } else { "FAILED" }),
            Format::Terse => print!("{}", if ok { "." } else { "F" }),
            Format::Json => println!(
                r#"{{ "type": "test", "name": "{name}", "event": "{}" }}"#,
                if ok { "ok" } else { "failed" }
            ),
        }
        if !ok {
            failed.push(*name);
        }
    }
    let (passed, filtered) = (selected.len() - failed.len(), TESTS.len() - selected.len());
    let secs = start.elapsed().as_secs_f64();
    if format == Format::Json {
        println!(
            r#"{{ "type": "suite", "event": "{}", "passed": {passed}, "failed": {}, "ignored": 0, "measured": 0, "filtered_out": {filtered}, "exec_time": {secs} }}"#,
            if failed.is_empty() { "ok" } else { "failed" },
            failed.len()
        );
    } else {
        if format == Format::Terse {
            println!();
        }
        if !failed.is_empty() {
            println!("\nfailures:");
            for name in &failed {
                println!("    {name}");
            }
        }
        println!(
            "\ntest result: {}. {passed} passed; {} failed; 0 ignored; 0 measured; \
             {filtered} filtered out; finished in {secs:.2}s\n",
            if failed.is_empty() { "ok" } else { "FAILED" },
            failed.len()
        );
    }
    if failed.is_empty() {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::from(101)
    }
}
