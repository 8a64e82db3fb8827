//! # xheal-bench
//!
//! The paper's experiments and the engine arena.
//!
//! - Table and verdict printers for the experiments. Each bench target
//!   (`benches/e1_*.rs` … `benches/e10_*.rs`) regenerates one claim of the
//!   paper and ends with a `VERDICT [PASS|CHECK]` line, and
//!   `benches/micro.rs` times hot paths; run one with
//!   `cargo bench -p xheal-bench --bench e1_degree_bound` or all with
//!   `cargo bench --workspace`.
//! - [`arena`]: the roster of all ten engines ([`arena::ENGINES`],
//!   [`arena::build_engine`]), the only code in the workspace that names
//!   every engine, and [`arena::run_arena`], which scores each engine on
//!   the same adversary schedules with one monitor scorer. The `arena`
//!   binary (`src/bin/arena.rs`) writes the sweep to `BENCH_arena.json`.
//!
//! Performance of the healed overlay end to end is measured by the separate
//! `benchmark/` package, not here.
//!
//! With the `bench` feature this crate also installs a counting global
//! allocator, read through [`alloc_count`]; `tests/trace_overhead.rs` runs
//! only with it and asserts that disabled trace hooks, steady-state tracing
//! and the transport's steady-state rounds allocate nothing.

// `deny` rather than `forbid`: the feature-gated counting allocator below
// is the one permitted unsafe block (a verbatim delegation to `System`).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;

/// Counting global allocator (the `bench` feature): every allocation bumps
/// a relaxed atomic, so a test can count the heap allocations of a code
/// window. Installed for every target linking this crate when the feature
/// is on — off by default, since the counter adds an atomic op to every
/// alloc.
#[cfg(feature = "bench")]
#[allow(unsafe_code)]
mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    struct CountingAlloc;

    // SAFETY: delegates verbatim to `System`; the counter has no effect on
    // allocation behavior.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static A: CountingAlloc = CountingAlloc;

    pub(crate) fn current() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

/// Heap allocations since process start (always 0 without the `bench`
/// feature).
pub fn alloc_count() -> u64 {
    #[cfg(feature = "bench")]
    {
        alloc_counter::current()
    }
    #[cfg(not(feature = "bench"))]
    {
        0
    }
}

/// Prints an experiment header with provenance.
pub fn header(id: &str, claim: &str) {
    println!();
    println!("==================================================================");
    println!("{id}: {claim}");
    println!("==================================================================");
}

/// Prints an aligned table row of cells (first column left-aligned, rest
/// right-aligned, 12 chars).
pub fn row(cells: &[String]) {
    let mut line = String::new();
    for (i, c) in cells.iter().enumerate() {
        if i == 0 {
            line.push_str(&format!("{c:<26}"));
        } else {
            line.push_str(&format!("{c:>12}"));
        }
    }
    println!("{line}");
}

/// Convenience: builds a row from string slices.
pub fn srow(cells: &[&str]) {
    row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>());
}

/// Formats a float compactly (3 significant decimals, inf-aware).
pub fn f(v: f64) -> String {
    if v.is_infinite() {
        "inf".to_string()
    } else if v == 0.0 {
        "0".to_string()
    } else if v.abs() < 0.001 {
        format!("{v:.1e}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Formats an optional float ("-" when absent).
pub fn fo(v: Option<f64>) -> String {
    v.map(f).unwrap_or_else(|| "-".to_string())
}

/// Prints the final verdict line for an experiment.
pub fn verdict(ok: bool, text: &str) {
    println!();
    println!("VERDICT [{}]: {text}", if ok { "PASS" } else { "CHECK" });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_formatting() {
        assert_eq!(f(f64::INFINITY), "inf");
        assert_eq!(f(0.0), "0");
        assert_eq!(f(1234.5), "1234.5");
        assert_eq!(f(1.23456), "1.235");
        assert_eq!(f(0.00004), "4.0e-5");
        assert_eq!(fo(None), "-");
        assert_eq!(fo(Some(2.0)), "2.000");
    }
}
