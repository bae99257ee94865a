//! `hummer-perfbench`: one run of one workload of the HumMer benchmark.
//!
//! ```text
//! hummer-perfbench --workload cold_prepare|warm_query|delta_mixed
//!                  --seed N --seconds S --trace 0|1 --work DIR
//! ```
//!
//! Prints the run's report (metrics with unit and sample count, checks,
//! notes) as one JSON line on stdout and, with `--trace 1`, writes the
//! recorded spans to `DIR/spans-<workload>-<seed>.jsonl`. Exits 1 when a
//! correctness check failed or an operation failed, 2 on a usage or set-up
//! error. `perfbench/run.py` builds this binary and is the entry point.

mod cold;
mod common;
mod delta;
mod reads;
mod report;
mod stats;
mod trace;
mod warm;

use common::BenchResult;
use report::Report;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use trace::Recorder;

/// Bytes currently allocated on the heap by this process. Memory is
/// measured as what the program holds once set up, not what the allocator
/// keeps resident: resident size depended on how concurrent threads'
/// transient allocations overlapped and varied by up to 2x between runs.
static LIVE_HEAP: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes in [`LIVE_HEAP`].
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's. The counter is a statistic
// that publishes no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE_HEAP.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE_HEAP.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_HEAP.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE_HEAP.fetch_add(new_size, Ordering::Relaxed);
            LIVE_HEAP.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Live heap in MiB.
fn live_heap_mb() -> f64 {
    LIVE_HEAP.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Parameters of one run.
pub struct Run {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub traced: bool,
    /// Scratch directory inside the checkout (data dirs, span files).
    pub work: PathBuf,
    /// Shared clock origin of every span.
    pub origin: Instant,
}

/// Measured set-ups per run; `setup_s` is their median. On a shared
/// 2-vCPU host the median of five moved by a quarter between two sets of
/// runs of the same seeds.
const SETUPS: usize = 15;

impl Run {
    /// Length of a measured window: all of `--seconds` in an untraced run,
    /// half of it for each of a traced run's two windows.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(if self.traced {
            self.seconds / 2.0
        } else {
            self.seconds
        })
    }

    /// Run `set_up` once unmeasured (it pays first-touch costs: page
    /// faults, lazily built tables, thread start-up) and then [`SETUPS`]
    /// times measured, handing each set-up but the last to `tear_down`
    /// before the next starts. Reports the median time as `setup_s` and,
    /// as `heap_mb`, the live heap the last set-up added: what the program
    /// holds once set up and idle. `set_up` must therefore return only the
    /// program's own state (a server, prepared sources), not the
    /// benchmark's copies of its inputs. Returns the last set-up.
    pub fn set_up<T>(
        &self,
        report: &mut Report,
        mut set_up: impl FnMut(usize) -> BenchResult<T>,
        mut tear_down: impl FnMut(T) -> BenchResult<()>,
    ) -> BenchResult<T> {
        let mut times = Vec::with_capacity(SETUPS);
        let mut last = None;
        let mut heap_before = 0.0;
        for k in 0..=SETUPS {
            if let Some(previous) = last.take() {
                tear_down(previous)?;
            }
            heap_before = live_heap_mb();
            let t0 = Instant::now();
            last = Some(set_up(k)?);
            if k > 0 {
                times.push(t0.elapsed().as_secs_f64());
            }
        }
        report.set_median("setup_s", &times);
        report.set("heap_mb", live_heap_mb() - heap_before, 1);
        Ok(last.expect("SETUPS is positive"))
    }
}

/// What a workload hands back: its report and the spans it recorded.
pub struct Outcome {
    /// Metrics, counts and checks.
    pub report: Report,
    /// Spans of the measured operations, nested as the calls nest.
    pub tree: Recorder,
    /// Side calls timed on the same inputs (work an operation does inside
    /// a call the benchmark cannot split), kept out of the operation tree.
    pub probes: Recorder,
}

impl Outcome {
    fn new(run: &Run) -> Outcome {
        Outcome {
            report: Report::new(run.traced),
            tree: Recorder::new(run.origin),
            probes: Recorder::new(run.origin),
        }
    }
}

fn parse_args() -> BenchResult<(String, Run)> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut work = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--work" => work = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok((
        workload.ok_or("missing --workload")?,
        Run {
            seed: seed.ok_or("missing --seed")?,
            seconds,
            traced: traced.ok_or("missing --trace")?,
            work: work.ok_or("missing --work")?,
            origin: Instant::now(),
        },
    ))
}

fn main_inner() -> BenchResult<bool> {
    let (workload, run) = parse_args()?;
    common::ctx(std::fs::create_dir_all(&run.work), "create work dir")?;
    let mut out = match workload.as_str() {
        "cold_prepare" => cold::run(&run)?,
        "warm_query" => warm::run(&run)?,
        "delta_mixed" => delta::run(&run)?,
        other => return Err(format!("unknown workload {other}")),
    };
    if let Some(peak) = common::status_mb("VmHWM:") {
        out.report.note("peak_rss_mb", peak.into());
    }
    let spans = out.tree.spans().len() + out.probes.spans().len();
    out.report.set("trace.spans", spans as f64, 1);
    let layers = trace::self_ms_by_layer(out.tree.spans());
    let mut self_ms = hummer_server::Json::object();
    for (layer, per_id) in &layers {
        let v: Vec<f64> = per_id.values().copied().collect();
        self_ms.push(*layer, stats::median(&v).unwrap_or(0.0));
    }
    out.report.note("self_ms_median_by_layer", self_ms);
    if run.traced {
        let path = run
            .work
            .join(format!("spans-{workload}-{}.jsonl", run.seed));
        let mut file = std::io::BufWriter::new(common::ctx(
            std::fs::File::create(&path),
            "create span file",
        )?);
        common::ctx(out.tree.write_jsonl(&mut file, "tree"), "write spans")?;
        common::ctx(out.probes.write_jsonl(&mut file, "probe"), "write spans")?;
        common::ctx(std::io::Write::flush(&mut file), "write spans")?;
        out.report
            .note("span_file", path.display().to_string().into());
    }
    let correct = out.report.correct();
    println!("{}", out.report.to_json().to_string_compact());
    Ok(correct)
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("hummer-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
