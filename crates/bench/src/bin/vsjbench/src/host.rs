//! What the benchmark reads from the host rather than from the program:
//! the speed canary, process CPU time, resident memory, and the host
//! descriptor printed with every result.
//!
//! The canary deliberately shares no code with any `vsj-*` crate: it is
//! the yardstick the program is measured against, so an optimisation of
//! the program must not be able to move it.

use std::time::Instant;

/// Canary reading (ms) on the recording host at its usual speed. Every
/// time-valued sample is multiplied by `CANARY_REF_MS / canary`, so a
/// result reads as if the host had run at this speed throughout.
pub const CANARY_REF_MS: f64 = 3.0;

/// 2 MiB of `u64`: beyond L2 on the recording host, so the memory phase
/// pays the cache misses the program's bucket and payload lookups pay.
const CANARY_WORDS: usize = 1 << 18;
/// The compute phase stays inside 32 KiB (L1).
const CANARY_L1_WORDS: usize = 1 << 12;
/// Steps of each phase, tuned so both take about `CANARY_REF_MS`.
const MEMORY_STEPS: u32 = 1_000_000;
const COMPUTE_STEPS: u32 = 750_000;
/// Readings taken at each round boundary.
pub const CANARY_REPS: usize = 5;

/// The reference kernel. A reading is the geometric mean of two phases:
/// independent random read-modify-writes over the 2 MiB buffer (memory
/// throughput, which a noisy neighbour takes away) and a dependent
/// xorshift chain through an L1-resident slice (core speed, which
/// frequency and steal time take away). Sizing runs on the recording
/// host — 10 to 12 one-minute runs of each heap workload — read
/// 5.7 % / 14.8 % apart (interquartile range over median of the raw
/// estimate p50) and 2.2 % / 3.3 % after division by this blend; either
/// phase alone, a pure ALU loop, and a dependent walk over the whole
/// buffer all tracked the program worse.
pub struct Canary {
    buf: Vec<u64>,
    state: u64,
}

impl Canary {
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf = (0..CANARY_WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Self { buf, state: x | 1 }
    }

    /// One reading, in milliseconds.
    pub fn reading(&mut self) -> f64 {
        let mut x = self.state;
        let started = Instant::now();
        let mut acc = 0u64;
        for _ in 0..MEMORY_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.buf[(x as usize) & (CANARY_WORDS - 1)];
            acc = acc.wrapping_add(*slot);
            *slot = acc;
        }
        let memory_ms = started.elapsed().as_secs_f64() * 1e3;
        let started = Instant::now();
        for _ in 0..COMPUTE_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.buf[(x as usize) & (CANARY_L1_WORDS - 1)];
            let loaded = *slot;
            *slot = loaded.wrapping_add(x);
            x ^= loaded | 1;
        }
        let compute_ms = started.elapsed().as_secs_f64() * 1e3;
        self.state = std::hint::black_box(x ^ (acc & 1)) | 1;
        (memory_ms * compute_ms).sqrt()
    }

    /// [`CANARY_REPS`] readings.
    pub fn readings(&mut self) -> Vec<f64> {
        (0..CANARY_REPS).map(|_| self.reading()).collect()
    }

    /// Runs the canary for about `seconds`, and a busy loop on every
    /// other CPU beside it: sustained load brings a vCPU to speed, and
    /// the program's pool and server threads run on all of them.
    pub fn spin(&mut self, seconds: f64) {
        let started = Instant::now();
        let busy = || {
            while started.elapsed().as_secs_f64() < seconds {
                std::hint::spin_loop();
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..nproc() {
                scope.spawn(busy);
            }
            while started.elapsed().as_secs_f64() < seconds {
                self.reading();
            }
        });
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

fn clock_ms(clock: i32) -> Option<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target this benchmark supports); an
    // unknown clock id makes the call fail, it cannot make it write
    // elsewhere.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6)
}

/// User + system CPU time of this process (all threads, including ones
/// that already exited), in milliseconds. `/proc/self/stat` has the same
/// number at 10 ms ticks, too coarse for a per-round reading.
pub fn cpu_ms() -> f64 {
    clock_ms(CLOCK_PROCESS_CPUTIME_ID).expect("CLOCK_PROCESS_CPUTIME_ID is always readable")
}

/// CPU time of another live process, through the clock id that
/// `clock_getcpuclockid(3)` returns for it (`(~pid << 3) | 2`, the
/// kernel's `CPUCLOCK_SCHED` encoding). `None` once the process is gone.
pub fn process_cpu_ms(pid: u32) -> Option<f64> {
    clock_ms(((!(pid as i32)) << 3) | 2)
}

/// Hands freed heap pages back to the kernel. glibc keeps them mapped
/// after `free`, so without this the set-up's garbage (the corpus, the
/// exact join, a heap recovery used as an oracle) would sit in `VmRSS`
/// for the whole measured phase and hide the program's own footprint.
pub fn release_free_heap() {
    // SAFETY: `malloc_trim` takes no pointers and may be called at any
    // time from any thread; it only returns unused pages.
    unsafe { malloc_trim(0) };
}

fn status_kb(pid: Option<u32>, field: &str) -> f64 {
    let process = pid.map_or("self".to_string(), |pid| pid.to_string());
    std::fs::read_to_string(format!("/proc/{process}/status"))
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with(field))
                .and_then(|line| line.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Resident set size right now, in MB, of this process or of `pid`.
pub fn rss_mb(pid: Option<u32>) -> f64 {
    status_kb(pid, "VmRSS:") / 1024.0
}

/// The host descriptor recorded with every result.
pub struct Descriptor {
    pub nproc: usize,
    pub cpu_model: String,
    pub profile: &'static str,
    pub git_rev: String,
}

impl Descriptor {
    pub fn read() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split(':').nth(1))
                    .map(|model| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            nproc: nproc(),
            cpu_model,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            git_rev: git_rev(),
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out revision, read from `.git` directly (the driver's
/// checkout is not a repository; there it is "unknown").
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head,
        Err(_) => return "unknown".into(),
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|rev| rev.trim().to_string())
            .unwrap_or_else(|_| head.to_string()),
        None => head.to_string(),
    }
}
