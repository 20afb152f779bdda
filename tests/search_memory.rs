//! Memory regression tests for checkpoint-suspended trials: suspending a
//! trial and dropping its live platform must actually return the
//! simulation's memory (arenas, event queue, GPU state), leaving only
//! the compact snapshot bytes resident.
//!
//! Measured with a counting global allocator local to this test binary,
//! so the numbers are exact byte accounting, not RSS sampling noise. The
//! counter is process-global, so the tests take turns: each holds
//! [`SERIAL`] for its whole body, or one would count the other's bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use fastg_des::SimTime;
use fastgshare::profiler::{ConfigServer, Experiment, SamplePlan};

/// A pass-through allocator that tracks live (allocated − freed) bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Serializes the tests in this binary around the shared [`LIVE`] count.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes the [`SERIAL`] lock. A test that failed while holding it
/// poisons it; the data is `()`, so the next test proceeds regardless.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn experiment() -> Experiment {
    Experiment::new(
        "resnet50",
        ConfigServer::new(SamplePlan::Grid {
            spatial: vec![],
            temporal: vec![],
        }),
    )
}

/// Dropping an eliminated trial's live platform after suspension frees
/// the bulk of its memory: what stays resident is roughly the snapshot
/// bytes, not the simulation.
#[test]
fn eliminated_trial_arenas_are_dropped() {
    let _serial = serial();
    let e = experiment();
    let before = live_bytes();

    // A warmed-up live trial holds the full simulation.
    let mut run = e.start_trial(24.0, 0.4).unwrap();
    run.extend_to(SimTime::from_millis(500));
    let with_live = live_bytes().saturating_sub(before);

    // Suspend → drop: the "eliminated between rounds" state.
    let suspended = run.suspend();
    drop(run);
    let with_snapshot = live_bytes().saturating_sub(before);

    assert!(
        with_live > 0,
        "live trial should allocate (accounting broken?)"
    );
    // The snapshot footprint must be a small fraction of the live
    // simulation — if this regresses, losers are holding arenas again.
    assert!(
        with_snapshot < with_live / 2,
        "suspended trial retains {with_snapshot} of {with_live} live bytes"
    );
    // And the retained bytes are explained by the snapshot itself plus
    // a small constant, not by leaked simulation state.
    assert!(
        with_snapshot < suspended.size_bytes() + 64 * 1024,
        "retained {with_snapshot} bytes vs snapshot of {}",
        suspended.size_bytes()
    );
    drop(suspended);
}

/// The full suspend → resume → measure cycle leaks nothing between
/// rounds: after dropping everything, live bytes return to the baseline.
#[test]
fn suspend_resume_cycle_is_leak_free() {
    let _serial = serial();
    let e = experiment();
    // Warm any lazy one-time allocations (zoo profiles, thread-locals)
    // so the steady-state measurement is clean.
    {
        let mut run = e.start_trial(12.0, 0.4).unwrap();
        run.extend_to(SimTime::from_millis(200));
        let snap = run.suspend();
        drop(run);
        drop(snap.resume().unwrap());
    }
    let baseline = live_bytes();
    for _ in 0..3 {
        let mut run = e.start_trial(12.0, 0.4).unwrap();
        run.extend_to(SimTime::from_millis(200));
        let snap = run.suspend();
        drop(run);
        let mut resumed = snap.resume().unwrap();
        resumed.extend_to(SimTime::from_millis(400));
        drop(resumed);
        drop(snap);
    }
    let after = live_bytes();
    // Allow slack for allocator-internal caches and the test harness.
    assert!(
        after.saturating_sub(baseline) < 256 * 1024,
        "search rounds leak: baseline {baseline}, after {after}"
    );
}
